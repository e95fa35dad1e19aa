//! The NVMe-over-NeSC controller.
//!
//! [`NvmeController`] puts NVMe queue pairs in front of a [`System`], the
//! one owner of the NeSC device, whose hypervisor serves every
//! translation miss. A namespace is a NeSC-direct disk: an image file on
//! the hypervisor's filesystem, attached to the controller's VM. So
//! *"what an address space represents"* (the question the paper says NVMe
//! leaves open, §III) has a concrete answer here: **namespace = file**,
//! enforced by the device's translation hardware. Commands flow: driver
//! pushes encoded SQEs → doorbell → controller decodes and validates them
//! and puts each read or write on its namespace's VF command ring →
//! completions are posted to the CQ with phase tags.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use nesc_core::CompletionStatus;
use nesc_extent::{validate_cid, validate_nlb, validate_slba, Vlba};
use nesc_hypervisor::{DiskId, DiskKind, NescError, System, VmId};
use nesc_pcie::{HostAddr, HostMemory};
use nesc_sim::{SimDuration, SimTime};
use nesc_storage::{BlockOp, RequestId, BLOCK_SIZE};

use crate::command::{CompletionEntry, NvmeOpcode, NvmeStatus, SubmissionEntry};
use crate::queue::{CompletionQueue, QueueFull, SubmissionQueue};

/// A namespace: an NVMe-visible identity for one NeSC-direct disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Namespace {
    /// Namespace id (1-based).
    pub nsid: u32,
    /// The backing NeSC-direct disk of the controller's [`System`].
    pub disk: DiskId,
    /// Capacity in 1 KiB logical blocks.
    pub size_blocks: u64,
}

/// Controller-level error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmeError {
    /// The namespace's image could not be created or attached (duplicate
    /// name, no space, no VF slot left).
    Provision(NescError),
    /// The namespace id is not live.
    UnknownNamespace {
        /// The offending id.
        nsid: u32,
    },
    /// The queue id is not live.
    UnknownQueue {
        /// The offending id.
        qid: u16,
    },
    /// The submission ring was full.
    Full(QueueFull),
}

impl std::fmt::Display for NvmeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvmeError::Provision(e) => write!(f, "namespace not provisioned: {e}"),
            NvmeError::UnknownNamespace { nsid } => write!(f, "unknown namespace {nsid}"),
            NvmeError::UnknownQueue { qid } => write!(f, "unknown queue {qid}"),
            NvmeError::Full(q) => write!(f, "{q}"),
        }
    }
}

impl std::error::Error for NvmeError {}

impl From<QueueFull> for NvmeError {
    fn from(q: QueueFull) -> Self {
        NvmeError::Full(q)
    }
}

/// Where an accepted command's CQE goes.
#[derive(Debug, Clone, Copy)]
struct Accepted {
    nsid: u32,
    qid: u16,
    cid: u16,
    sq_head: u16,
}

/// A Flush waiting for the commands its namespace accepted before it.
#[derive(Debug)]
struct PendingFlush {
    cmd: Accepted,
    /// No earlier than its decode and the namespace's completions so far.
    at: SimTime,
    /// The earlier commands still in flight.
    waits: Vec<RequestId>,
}

struct QueuePair {
    sq: SubmissionQueue,
    cq: CompletionQueue,
    /// When each entry waiting in the CQ completed, in posting order.
    posted: VecDeque<SimTime>,
}

/// The controller: NVMe rings in front of a [`System`].
///
/// # Example
///
/// ```
/// use nesc_nvme::{NvmeController, SubmissionEntry, NvmeOpcode, NvmeStatus};
/// use nesc_extent::Vlba;
/// use nesc_hypervisor::System;
/// use nesc_sim::SimTime;
///
/// let mut ctrl = NvmeController::new(System::builder().capacity_blocks(8192).build());
/// let ns = ctrl.create_namespace("ns1.img", 16, true).unwrap();
/// let qid = ctrl.create_queue_pair(8);
///
/// let mem = ctrl.system().memory();
/// let buf = mem.borrow_mut().alloc(1024, 4096);
/// mem.borrow_mut().write(buf, &[0x42; 1024]);
/// let sqe = SubmissionEntry::new(NvmeOpcode::Write, 1, ns, buf, Vlba(0), 0);
/// let done = ctrl.submit_and_process(SimTime::ZERO, qid, &[sqe]).unwrap();
/// assert_eq!(done[0].0.status, NvmeStatus::Success);
/// let back = mem.borrow_mut().alloc(1024, 4096);
/// let sqe = SubmissionEntry::new(NvmeOpcode::Read, 2, ns, back, Vlba(0), 0);
/// ctrl.submit_and_process(done[0].1, qid, &[sqe]).unwrap();
/// assert_eq!(mem.borrow().read_vec(back, 1024), vec![0x42; 1024]);
/// ```
pub struct NvmeController {
    sys: System,
    /// The VM the namespaces' disks are attached to.
    vm: VmId,
    mem: Rc<RefCell<HostMemory>>,
    namespaces: BTreeMap<u32, Namespace>,
    next_nsid: u32,
    qpairs: Vec<QueuePair>,
    /// Outstanding reads and writes by request id.
    inflight: BTreeMap<RequestId, Accepted>,
    /// Flushes whose namespace still has earlier commands in flight.
    flushes: Vec<PendingFlush>,
    /// Per namespace, the latest completion posted for it.
    durable: BTreeMap<u32, SimTime>,
    /// Controller firmware cost to decode and dispatch one command.
    cmd_cost: SimDuration,
}

impl std::fmt::Debug for NvmeController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmeController")
            .field("namespaces", &self.namespaces.len())
            .field("queues", &self.qpairs.len())
            .finish()
    }
}

impl NvmeController {
    /// Creates a controller in front of `sys`, with a VM of its own to
    /// attach namespaces to.
    pub fn new(mut sys: System) -> Self {
        let vm = sys.create_vm();
        NvmeController {
            mem: sys.memory(),
            sys,
            vm,
            namespaces: BTreeMap::new(),
            next_nsid: 1,
            qpairs: Vec::new(),
            inflight: BTreeMap::new(),
            flushes: Vec::new(),
            durable: BTreeMap::new(),
            cmd_cost: SimDuration::from_nanos(250),
        }
    }

    /// The system behind the controller (device statistics, host memory,
    /// the namespaces' image files).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// The system behind the controller, mutably: tracing, telemetry and
    /// idle time between commands.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.sys
    }

    /// Admin: creates a namespace of `size_blocks` over a new image file
    /// `name`, allocated up front with `prealloc` (thin otherwise: the
    /// hypervisor backs each first write on its miss interrupt).
    ///
    /// # Errors
    ///
    /// [`NvmeError::Provision`] when the image cannot be created or
    /// attached.
    pub fn create_namespace(
        &mut self,
        name: &str,
        size_blocks: u64,
        prealloc: bool,
    ) -> Result<u32, NvmeError> {
        let ino = self
            .sys
            .create_image(name, size_blocks * BLOCK_SIZE, prealloc)
            .map_err(|e| NvmeError::Provision(e.into()))?;
        let disk = self
            .sys
            .try_attach(self.vm, DiskKind::NescDirect, Some(ino))
            .map_err(NvmeError::Provision)?;
        let nsid = self.next_nsid;
        self.next_nsid += 1;
        self.namespaces.insert(
            nsid,
            Namespace {
                nsid,
                disk,
                size_blocks,
            },
        );
        Ok(nsid)
    }

    /// Admin: deletes a namespace at `now` (the system's clock moves up to
    /// `now` first) and detaches its disk; the image file survives. Its
    /// commands still in the device complete with
    /// [`NvmeStatus::InternalError`] at the next [`process`](Self::process).
    ///
    /// # Errors
    ///
    /// [`NvmeError::UnknownNamespace`] for dead or unknown ids.
    pub fn delete_namespace(&mut self, nsid: u32, now: SimTime) -> Result<(), NvmeError> {
        let ns = self
            .namespaces
            .remove(&nsid)
            .ok_or(NvmeError::UnknownNamespace { nsid })?;
        self.sys.think(now.saturating_since(self.sys.now()));
        self.sys.detach(ns.disk);
        Ok(())
    }

    /// Admin: identify — the namespace's descriptor.
    pub fn identify(&self, nsid: u32) -> Option<Namespace> {
        self.namespaces.get(&nsid).copied()
    }

    /// Admin: creates an I/O queue pair of `entries` slots; returns its id.
    pub fn create_queue_pair(&mut self, entries: u16) -> u16 {
        let mut mem = self.mem.borrow_mut();
        let qp = QueuePair {
            sq: SubmissionQueue::new(&mut mem, entries),
            cq: CompletionQueue::new(&mut mem, entries),
            posted: VecDeque::new(),
        };
        drop(mem);
        self.qpairs.push(qp);
        (self.qpairs.len() - 1) as u16
    }

    /// Telemetry probe: the instantaneous `(SQ depth, CQ depth)` of a
    /// queue pair — commands the driver has pushed but the controller has
    /// not consumed, and completions posted but not yet reaped.
    pub fn queue_depths(&self, qid: u16) -> Option<(u16, u16)> {
        let qp = self.qpairs.get(qid as usize)?;
        Some((qp.sq.len(), qp.cq.len()))
    }

    /// Driver side: pushes one encoded command into a queue (no doorbell
    /// yet — batch then ring, like a real driver).
    ///
    /// # Errors
    ///
    /// [`NvmeError::UnknownQueue`] / [`NvmeError::Full`].
    pub fn push(&mut self, qid: u16, sqe: SubmissionEntry) -> Result<(), NvmeError> {
        let qp = self
            .qpairs
            .get_mut(qid as usize)
            .ok_or(NvmeError::UnknownQueue { qid })?;
        qp.sq.push(&mut self.mem.borrow_mut(), sqe)?;
        Ok(())
    }

    /// Rings the submission doorbell at `now`: the controller consumes all
    /// pending SQEs and validates them, then puts each namespace's reads
    /// and writes on its VF ring, one `RING_TAIL` doorbell per namespace.
    /// A Flush completes once every command its namespace accepted before
    /// it has: at once if none is in flight, else in the
    /// [`process`](Self::process) that completes the last of them.
    ///
    /// # Errors
    ///
    /// [`NvmeError::UnknownQueue`].
    pub fn ring_doorbell(&mut self, qid: u16, now: SimTime) -> Result<(), NvmeError> {
        if qid as usize >= self.qpairs.len() {
            return Err(NvmeError::UnknownQueue { qid });
        }
        // Per namespace: its ring requests, their commands, and its
        // flushes with the number of requests decoded before each.
        type Batch = (
            Vec<(BlockOp, Vlba, u64, HostAddr)>,
            Vec<Accepted>,
            Vec<(usize, Accepted, SimTime)>,
        );
        let mut batches: BTreeMap<u32, Batch> = BTreeMap::new();
        let mut t = now;
        loop {
            let qp = &mut self.qpairs[qid as usize];
            let Some(sqe) = qp.sq.pop(&self.mem.borrow()) else {
                break;
            };
            let sq_head = qp.sq.head();
            t += self.cmd_cost;
            let nsid = sqe.nsid();
            // The cid only flows back into the completion entry (total
            // validation).
            let cid = validate_cid(sqe.cid);
            let cmd = Accepted {
                nsid,
                qid,
                cid,
                sq_head,
            };
            match self.admit(&sqe) {
                Ok(Some(req)) => {
                    let batch = batches.entry(nsid).or_default();
                    batch.0.push(req);
                    batch.1.push(cmd);
                }
                Ok(None) => {
                    let batch = batches.entry(nsid).or_default();
                    batch.2.push((batch.0.len(), cmd, t));
                }
                Err(status) => {
                    self.post(qid, cid, sq_head, status, t);
                }
            }
        }
        for (nsid, (reqs, cmds, flushes)) in batches {
            // The namespace's commands from earlier doorbells.
            let earlier: Vec<RequestId> = self
                .inflight
                .iter()
                .filter(|(_, c)| c.nsid == nsid)
                .map(|(&id, _)| id)
                .collect();
            let disk = self.namespaces.get(&nsid).map(|ns| ns.disk);
            let disk = disk.ok_or(NescError::Device);
            let ids: Vec<RequestId> = if reqs.is_empty() {
                Vec::new()
            } else {
                match disk.and_then(|disk| self.sys.submit_direct(disk, t, &reqs)) {
                    Ok(ids) => ids.collect(),
                    Err(_) => {
                        for c in &cmds {
                            self.post(qid, c.cid, c.sq_head, NvmeStatus::InternalError, t);
                        }
                        Vec::new()
                    }
                }
            };
            for (&id, &cmd) in ids.iter().zip(&cmds) {
                self.inflight.insert(id, cmd);
            }
            for (before, cmd, at) in flushes {
                let mut waits = earlier.clone();
                waits.extend_from_slice(&ids[..before.min(ids.len())]);
                let at = self.durable.get(&nsid).map_or(at, |&d| at.max(d));
                if waits.is_empty() {
                    self.post(qid, cmd.cid, cmd.sq_head, NvmeStatus::Success, at);
                } else {
                    self.flushes.push(PendingFlush { cmd, at, waits });
                }
            }
        }
        Ok(())
    }

    /// Validates one SQE against its namespace: a read or write becomes a
    /// ring request `(op, first block, blocks, buffer)` and a flush `None`;
    /// a command that fails validation is the status to post at once.
    fn admit(
        &self,
        sqe: &SubmissionEntry,
    ) -> Result<Option<(BlockOp, Vlba, u64, HostAddr)>, NvmeStatus> {
        // The nsid is a lookup key that fails closed.
        let ns = self
            .namespaces
            .get(&sqe.nsid())
            .ok_or(NvmeStatus::InvalidNamespace)?;
        let op = match sqe.opcode {
            NvmeOpcode::Flush => return Ok(None),
            NvmeOpcode::Read => BlockOp::Read,
            NvmeOpcode::Write => BlockOp::Write,
        };
        // Wire-decoded SLBA/NLB are untrusted until the bounds proofs
        // release them; validate_slba's checked add also rejects ranges
        // that wrap the address space.
        let blocks =
            validate_nlb(sqe.nlb, ns.size_blocks).map_err(|_| NvmeStatus::LbaOutOfRange)?;
        let slba = validate_slba(sqe.slba, blocks, ns.size_blocks)
            .map_err(|_| NvmeStatus::LbaOutOfRange)?;
        Ok(Some((op, slba, blocks, sqe.prp1)))
    }

    /// Posts a completion to a queue's CQ, recording when it completed.
    fn post(
        &mut self,
        qid: u16,
        cid: u16,
        sq_head: u16,
        status: NvmeStatus,
        at: SimTime,
    ) -> CompletionEntry {
        let entry = CompletionEntry {
            sq_head,
            cid,
            status,
            phase: false,
        };
        let qp = &mut self.qpairs[qid as usize];
        qp.cq.post(&mut self.mem.borrow_mut(), entry);
        qp.posted.push_back(at);
        entry
    }

    /// Runs the system to idle (its hypervisor serves every translation
    /// miss on the way) and posts a CQE for every command that completed,
    /// and for every Flush whose earlier commands all have. Returns
    /// `(entry, completion time, qid)` triples in completion order.
    pub fn process(&mut self) -> Vec<(CompletionEntry, SimTime, u16)> {
        let (mut done, mut finished) = (Vec::new(), BTreeMap::new());
        let sys = &mut self.sys;
        self.inflight
            .retain(|&id, &mut cmd| match sys.take_completion(id) {
                Some((at, status)) => {
                    let st = match status {
                        CompletionStatus::Ok => NvmeStatus::Success,
                        CompletionStatus::OutOfRange => NvmeStatus::LbaOutOfRange,
                        CompletionStatus::WriteFailed => NvmeStatus::CapacityExceeded,
                        CompletionStatus::DeviceError => NvmeStatus::InternalError,
                    };
                    done.push((at, cmd, st));
                    finished.insert(id, at);
                    false
                }
                None => true,
            });
        for &(at, cmd, _) in &done {
            let durable = self.durable.entry(cmd.nsid).or_insert(at);
            *durable = (*durable).max(at);
        }
        // A flush completes with the last of the commands it waits for,
        // after them in the CQ.
        self.flushes.retain_mut(|f| {
            f.waits.retain(|id| match finished.get(id) {
                Some(&at) => {
                    f.at = f.at.max(at);
                    false
                }
                None => true,
            });
            let ready = f.waits.is_empty();
            if ready {
                done.push((f.at, f.cmd, NvmeStatus::Success));
            }
            !ready
        });
        // Stable: equal times keep request order, flushes last.
        done.sort_by_key(|&(at, ..)| at);
        done.into_iter()
            .map(|(at, c, st)| (self.post(c.qid, c.cid, c.sq_head, st, at), at, c.qid))
            .collect()
    }

    /// Driver side: reaps one completion from a queue's CQ.
    pub fn reap(&mut self, qid: u16) -> Option<CompletionEntry> {
        self.reap_timed(qid).map(|(entry, _)| entry)
    }

    /// Reaps one completion with the time it completed.
    fn reap_timed(&mut self, qid: u16) -> Option<(CompletionEntry, SimTime)> {
        let qp = self.qpairs.get_mut(qid as usize)?;
        let entry = qp.cq.reap(&self.mem.borrow())?;
        qp.posted.pop_front().map(|at| (entry, at))
    }

    /// Convenience: push a batch, ring the doorbell, process to idle, and
    /// reap every completion. Returns `(entry, completion time)` pairs.
    ///
    /// # Errors
    ///
    /// Queue/namespace errors from the submission side.
    pub fn submit_and_process(
        &mut self,
        now: SimTime,
        qid: u16,
        entries: &[SubmissionEntry],
    ) -> Result<Vec<(CompletionEntry, SimTime)>, NvmeError> {
        for &sqe in entries {
            self.push(qid, sqe)?;
        }
        self.ring_doorbell(qid, now)?;
        self.process();
        // Reap from the CQ (validates ring contents match what we posted).
        Ok(std::iter::from_fn(|| self.reap_timed(qid)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_hypervisor::TelemetryConfig;
    use nesc_sim::{FlightConfig, SpanKind};

    fn system() -> System {
        System::builder().capacity_blocks(8192).build()
    }

    fn setup() -> (Rc<RefCell<HostMemory>>, NvmeController, u32, u16) {
        let mut ctrl = NvmeController::new(system());
        let ns = ctrl.create_namespace("ns.img", 64, true).unwrap();
        let qid = ctrl.create_queue_pair(8);
        (ctrl.system().memory(), ctrl, ns, qid)
    }

    /// Block `vlba` of namespace `nsid`, read back at `now` with a Read
    /// command.
    fn read_back(
        ctrl: &mut NvmeController,
        qid: u16,
        nsid: u32,
        vlba: u64,
        now: SimTime,
    ) -> Vec<u8> {
        let mem = ctrl.system().memory();
        let buf = mem.borrow_mut().alloc(1024, 4096);
        let sqe = SubmissionEntry::new(NvmeOpcode::Read, 0x7EAD, nsid, buf, Vlba(vlba), 0);
        let done = ctrl.submit_and_process(now, qid, &[sqe]).unwrap();
        assert!(done[0].0.status.is_success());
        let block = mem.borrow().read_vec(buf, 1024);
        block
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mem, mut ctrl, ns, qid) = setup();
        let wbuf = mem.borrow_mut().alloc(4096, 4096);
        mem.borrow_mut().write(wbuf, &[0xBE; 4096]);
        let done = ctrl
            .submit_and_process(
                SimTime::ZERO,
                qid,
                &[SubmissionEntry::new(
                    NvmeOpcode::Write,
                    1,
                    ns,
                    wbuf,
                    Vlba(8),
                    3,
                )],
            )
            .unwrap();
        assert_eq!(done.len(), 1);
        assert!(done[0].0.status.is_success());
        assert!(done[0].1 > SimTime::ZERO);

        let rbuf = mem.borrow_mut().alloc(4096, 4096);
        let done = ctrl
            .submit_and_process(
                done[0].1,
                qid,
                &[SubmissionEntry::new(
                    NvmeOpcode::Read,
                    2,
                    ns,
                    rbuf,
                    Vlba(8),
                    3,
                )],
            )
            .unwrap();
        assert!(done[0].0.status.is_success());
        assert_eq!(mem.borrow().read_vec(rbuf, 4096), vec![0xBE; 4096]);
    }

    #[test]
    fn unknown_namespace_and_range_errors() {
        let (mem, mut ctrl, ns, qid) = setup();
        let buf = mem.borrow_mut().alloc(1024, 4096);
        let done = ctrl
            .submit_and_process(
                SimTime::ZERO,
                qid,
                &[
                    SubmissionEntry::new(NvmeOpcode::Read, 1, 99, buf, Vlba(0), 0),
                    // two blocks: 63,64 — past the 64-block ns
                    SubmissionEntry::new(NvmeOpcode::Read, 2, ns, buf, Vlba(63), 1),
                ],
            )
            .unwrap();
        let by_cid = |c: u16| done.iter().find(|(e, _)| e.cid == c).unwrap().0.status;
        assert_eq!(by_cid(1), NvmeStatus::InvalidNamespace);
        assert_eq!(by_cid(2), NvmeStatus::LbaOutOfRange);
    }

    #[test]
    fn flush_completes() {
        let (_mem, mut ctrl, ns, qid) = setup();
        let done = ctrl
            .submit_and_process(
                SimTime::ZERO,
                qid,
                &[SubmissionEntry::new(
                    NvmeOpcode::Flush,
                    5,
                    ns,
                    0,
                    Vlba(0),
                    0,
                )],
            )
            .unwrap();
        assert_eq!(done[0].0.cid, 5);
        assert!(done[0].0.status.is_success());
    }

    #[test]
    fn a_flush_completes_after_its_namespaces_earlier_commands() {
        let (mem, mut ctrl, ns, qid) = setup();
        let other = ctrl.create_namespace("other.img", 64, true).unwrap();
        let buf = mem.borrow_mut().alloc(16 * 1024, 4096);
        let write = |cid, nsid, lba, nlb| {
            SubmissionEntry::new(NvmeOpcode::Write, cid, nsid, buf, Vlba(lba), nlb)
        };
        let flush = |cid| SubmissionEntry::new(NvmeOpcode::Flush, cid, ns, 0, Vlba(0), 0);
        // One doorbell: a 16-block write, a write to another namespace, the
        // flush, then a write the flush does not wait for.
        let batch = [
            write(1, ns, 0, 15),
            write(2, other, 0, 3),
            flush(3),
            write(4, ns, 16, 0),
        ];
        let done = ctrl.submit_and_process(SimTime::ZERO, qid, &batch).unwrap();
        let at = |c: u16| done.iter().find(|(e, _)| e.cid == c).unwrap().1;
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|(e, _)| e.status.is_success()));
        assert_eq!(at(3), at(1), "the flush completes with the write before it");
        let order: Vec<u16> = done.iter().map(|(e, _)| e.cid).collect();
        let pos = |c| order.iter().position(|&x| x == c).unwrap();
        assert!(
            pos(3) > pos(1),
            "posted after the write it waits for: {order:?}"
        );

        // Across doorbells: a flush rung before the write completes waits
        // for the next process.
        let t0 = at(4);
        ctrl.push(qid, write(5, ns, 32, 15)).unwrap();
        ctrl.ring_doorbell(qid, t0).unwrap();
        ctrl.push(qid, flush(6)).unwrap();
        ctrl.ring_doorbell(qid, t0).unwrap();
        assert!(ctrl.reap(qid).is_none(), "the flush waits for write 5");
        let done = ctrl.process();
        let got: Vec<(u16, SimTime)> = done.iter().map(|&(e, t, _)| (e.cid, t)).collect();
        assert_eq!(got.len(), 2);
        assert_eq!((got[1].0, got[1].1), (6, got[0].1), "{got:?}");
        while ctrl.reap(qid).is_some() {}

        // A flush decoded before a completed write's time still completes
        // no earlier than it.
        let done = ctrl.submit_and_process(t0, qid, &[flush(7)]).unwrap();
        assert_eq!(done[0].1, got[0].1);
    }

    #[test]
    fn namespaces_are_isolated_files() {
        let (mem, mut ctrl, ns_a, qid) = setup();
        // Second namespace over a different file.
        let ns_b = ctrl.create_namespace("other.img", 64, true).unwrap();
        let buf = mem.borrow_mut().alloc(1024, 4096);
        mem.borrow_mut().write(buf, &[0xA0; 1024]);
        ctrl.submit_and_process(
            SimTime::ZERO,
            qid,
            &[SubmissionEntry::new(
                NvmeOpcode::Write,
                1,
                ns_a,
                buf,
                Vlba(0),
                0,
            )],
        )
        .unwrap();
        mem.borrow_mut().write(buf, &[0xB0; 1024]);
        let done = ctrl
            .submit_and_process(
                SimTime::from_nanos(1_000_000),
                qid,
                &[SubmissionEntry::new(
                    NvmeOpcode::Write,
                    2,
                    ns_b,
                    buf,
                    Vlba(0),
                    0,
                )],
            )
            .unwrap();
        let t = done[0].1;
        assert_eq!(read_back(&mut ctrl, qid, ns_a, 0, t), vec![0xA0; 1024]);
        assert_eq!(read_back(&mut ctrl, qid, ns_b, 0, t), vec![0xB0; 1024]);
    }

    #[test]
    fn namespace_lifecycle() {
        let (mem, mut ctrl, ns, qid) = setup();
        assert!(ctrl.identify(ns).is_some());
        ctrl.delete_namespace(ns, SimTime::ZERO).unwrap();
        assert!(ctrl.identify(ns).is_none());
        assert_eq!(
            ctrl.delete_namespace(ns, SimTime::ZERO),
            Err(NvmeError::UnknownNamespace { nsid: ns })
        );
        // Commands to a deleted namespace fail cleanly.
        let buf = mem.borrow_mut().alloc(1024, 4096);
        let done = ctrl
            .submit_and_process(
                SimTime::ZERO,
                qid,
                &[SubmissionEntry::new(
                    NvmeOpcode::Read,
                    1,
                    ns,
                    buf,
                    Vlba(0),
                    0,
                )],
            )
            .unwrap();
        assert_eq!(done[0].0.status, NvmeStatus::InvalidNamespace);
    }

    #[test]
    fn deleting_a_namespace_fails_its_commands_in_flight() {
        let (mem, mut ctrl, ns, qid) = setup();
        let buf = mem.borrow_mut().alloc(4096, 4096);
        for cid in 1..=3 {
            let sqe = SubmissionEntry::new(NvmeOpcode::Read, cid, ns, buf, Vlba(0), 0);
            ctrl.push(qid, sqe).unwrap();
        }
        // The device has the commands queued, not yet served.
        ctrl.ring_doorbell(qid, SimTime::ZERO).unwrap();
        ctrl.delete_namespace(ns, SimTime::ZERO).unwrap();
        let done = ctrl.process();
        let got: Vec<_> = done.iter().map(|(e, _, q)| (e.cid, e.status, *q)).collect();
        let failed = NvmeStatus::InternalError;
        assert_eq!(
            got,
            vec![(1, failed, qid), (2, failed, qid), (3, failed, qid)]
        );
        assert!(ctrl.reap(qid).is_some(), "each failure is posted to the CQ");
    }

    #[test]
    fn thin_namespace_miss_resolves_via_hypervisor() {
        let tel = TelemetryConfig::windowed(SimDuration::from_micros(50));
        let sys = System::builder()
            .capacity_blocks(8192)
            .telemetry(tel.flight(FlightConfig::default()))
            .build();
        let mut ctrl = NvmeController::new(sys);
        let ns = ctrl.create_namespace("thin.img", 64, false).unwrap();
        let qid = ctrl.create_queue_pair(8);
        let mem = ctrl.system().memory();
        let buf = mem.borrow_mut().alloc(1024, 4096);
        mem.borrow_mut().write(buf, &[0x7E; 1024]);
        ctrl.push(
            qid,
            SubmissionEntry::new(NvmeOpcode::Write, 9, ns, buf, Vlba(4), 0),
        )
        .unwrap();
        ctrl.ring_doorbell(qid, SimTime::ZERO).unwrap();
        // The system's hypervisor allocates the block and rewalks.
        let done = ctrl.process();
        assert_eq!(done.len(), 1);
        assert!(done[0].0.status.is_success());
        let t = done[0].1;
        assert_eq!(read_back(&mut ctrl, qid, ns, 4, t), vec![0x7E; 1024]);
        let sys = ctrl.system();
        assert_eq!(sys.device().stats().miss_interrupts, 1);
        let rewalks = sys.flight().with(|rec| {
            let rows = rec.rows();
            rows.iter().filter(|s| s.kind == SpanKind::Rewalk).count()
        });
        assert_eq!(rewalks, Some(1));
    }

    #[test]
    fn queue_depth_probes_feed_a_sampler() {
        use nesc_sim::{Sampler, SeriesKind};

        let (mem, mut ctrl, ns, qid) = setup();
        let mut sampler = Sampler::new(SimDuration::from_micros(10), 16);
        let sq = sampler.register("nvme.sq_depth.q0", "entries", SeriesKind::Gauge);
        let cq = sampler.register("nvme.cq_depth.q0", "entries", SeriesKind::Gauge);
        let poll = |sampler: &mut Sampler, ctrl: &NvmeController, now: SimTime| {
            while sampler.due(now).is_some() {
                let (s, c) = ctrl.queue_depths(qid).unwrap();
                sampler.sample(sq, s as u64);
                sampler.sample(cq, c as u64);
            }
        };
        let t = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
        let buf = mem.borrow_mut().alloc(1024, 4096);
        // Window 0: the driver batches four commands, doorbell unrung.
        for cid in 0..4 {
            ctrl.push(
                qid,
                SubmissionEntry::new(NvmeOpcode::Read, cid, ns, buf, Vlba(cid as u64), 0),
            )
            .unwrap();
        }
        poll(&mut sampler, &ctrl, t(10));
        // Window 1: doorbell rung, device drained, completions posted.
        ctrl.ring_doorbell(qid, t(10)).unwrap();
        ctrl.process();
        poll(&mut sampler, &ctrl, t(20));
        // Window 2: the driver reaps everything.
        while ctrl.reap(qid).is_some() {}
        poll(&mut sampler, &ctrl, t(30));
        let depths = |name: &str| {
            sampler
                .series_by_name(name)
                .unwrap()
                .samples()
                .map(|(_, v)| v)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            depths("nvme.sq_depth.q0"),
            vec![4, 0, 0],
            "SQ fills then drains"
        );
        assert_eq!(
            depths("nvme.cq_depth.q0"),
            vec![0, 4, 0],
            "CQ fills after dispatch, empties on reap"
        );
    }

    #[test]
    fn queue_full_surfaces() {
        let (mem, mut ctrl, ns, _) = setup();
        let qid = ctrl.create_queue_pair(2); // capacity 1
        let buf = mem.borrow_mut().alloc(1024, 4096);
        let sqe = SubmissionEntry::new(NvmeOpcode::Read, 1, ns, buf, Vlba(0), 0);
        ctrl.push(qid, sqe).unwrap();
        assert!(matches!(ctrl.push(qid, sqe), Err(NvmeError::Full(_))));
        assert!(matches!(
            ctrl.push(77, sqe),
            Err(NvmeError::UnknownQueue { qid: 77 })
        ));
    }
}
