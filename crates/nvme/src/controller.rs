//! The NVMe-over-NeSC controller.
//!
//! [`NvmeController`] fronts a [`NescDevice`] with NVMe queue pairs.
//! Namespaces are created by the hypervisor exactly like VFs — from an
//! extent-tree root — so *"what an address space represents"* (the
//! question the paper says NVMe leaves open, §III) has a concrete answer
//! here: **namespace = file**, enforced by the device's translation
//! hardware. Commands flow: driver pushes encoded SQEs → doorbell →
//! controller decodes, validates, submits block requests to the NeSC
//! engine → completions are posted to the CQ with phase tags.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use nesc_core::{CompletionStatus, FuncId, IrqReason, NescConfig, NescDevice, NescOutput};
use nesc_extent::{validate_cid, validate_nlb, validate_slba};
use nesc_pcie::{HostAddr, HostMemory};
use nesc_sim::{SimDuration, SimTime};
use nesc_storage::{BlockOp, BlockRequest, RequestId};

use crate::command::{CompletionEntry, NvmeOpcode, NvmeStatus, SubmissionEntry};
use crate::queue::{CompletionQueue, QueueFull, SubmissionQueue};

/// A namespace: an NVMe-visible identity for one NeSC virtual function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Namespace {
    /// Namespace id (1-based).
    pub nsid: u32,
    /// The backing virtual function.
    pub func: FuncId,
    /// Capacity in 1 KiB logical blocks.
    pub size_blocks: u64,
}

/// Controller-level error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmeError {
    /// No VF slot available for a new namespace.
    VfExhausted,
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
            NvmeError::VfExhausted => write!(f, "no VF slot for a new namespace"),
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

struct QueuePair {
    sq: SubmissionQueue,
    cq: CompletionQueue,
}

/// The controller: NVMe rings in front of the NeSC engine.
///
/// # Example
///
/// ```
/// use nesc_nvme::{NvmeController, SubmissionEntry, NvmeOpcode, NvmeStatus};
/// use nesc_core::NescConfig;
/// use nesc_extent::{ExtentTree, ExtentMapping, Vlba, Plba};
/// use nesc_pcie::HostMemory;
/// use nesc_sim::SimTime;
/// use std::{cell::RefCell, rc::Rc};
///
/// let mem = Rc::new(RefCell::new(HostMemory::new()));
/// let mut ctrl = NvmeController::new(NescConfig::prototype(), Rc::clone(&mem));
/// let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(64), 16)].into_iter().collect();
/// let root = tree.serialize(&mut mem.borrow_mut());
/// let ns = ctrl.create_namespace(root, 16).unwrap();
/// let qid = ctrl.create_queue_pair(8);
///
/// let buf = mem.borrow_mut().alloc(1024, 4096);
/// mem.borrow_mut().write(buf, &[0x42; 1024]);
/// let sqe = SubmissionEntry::new(NvmeOpcode::Write, 1, ns, buf, Vlba(0), 0);
/// let done = ctrl.submit_and_process(SimTime::ZERO, qid, &[sqe]).unwrap();
/// assert_eq!(done[0].0.status, NvmeStatus::Success);
/// // The bytes landed on the namespace's *file* blocks (pLBA 64).
/// assert_eq!(ctrl.device().store().read_block(Plba(64)).unwrap(), vec![0x42; 1024]);
/// ```
pub struct NvmeController {
    dev: NescDevice,
    mem: Rc<RefCell<HostMemory>>,
    namespaces: BTreeMap<u32, Namespace>,
    next_nsid: u32,
    qpairs: Vec<QueuePair>,
    /// Outstanding commands: device request id → (qid, cid, sq_head).
    inflight: BTreeMap<RequestId, (u16, u16, u16)>,
    next_req: u64,
    /// Controller firmware cost to decode and dispatch one command.
    cmd_cost: SimDuration,
    /// Translation-miss interrupts awaiting the embedding hypervisor.
    pending_misses: Vec<(u32, IrqReason, SimTime)>,
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
    /// Creates a controller over a fresh NeSC device.
    pub fn new(cfg: NescConfig, mem: Rc<RefCell<HostMemory>>) -> Self {
        NvmeController {
            dev: NescDevice::new(cfg, Rc::clone(&mem)),
            mem,
            namespaces: BTreeMap::new(),
            next_nsid: 1,
            qpairs: Vec::new(),
            inflight: BTreeMap::new(),
            next_req: 0x4E56_0000_0000,
            cmd_cost: SimDuration::from_nanos(250),
            pending_misses: Vec::new(),
        }
    }

    /// The underlying device (statistics, store inspection).
    pub fn device(&self) -> &NescDevice {
        &self.dev
    }

    /// Admin: creates a namespace over the extent tree at `root`.
    ///
    /// # Errors
    ///
    /// [`NvmeError::VfExhausted`] when the device's VF table is full.
    pub fn create_namespace(&mut self, root: HostAddr, size_blocks: u64) -> Result<u32, NvmeError> {
        let func = self
            .dev
            .create_vf(root, size_blocks)
            .map_err(|_| NvmeError::VfExhausted)?;
        let nsid = self.next_nsid;
        self.next_nsid += 1;
        self.namespaces.insert(
            nsid,
            Namespace {
                nsid,
                func,
                size_blocks,
            },
        );
        Ok(nsid)
    }

    /// Admin: deletes a namespace and its VF at `now`. Its commands still
    /// in the device complete with [`NvmeStatus::InternalError`] at the
    /// next [`process`](Self::process).
    ///
    /// # Errors
    ///
    /// [`NvmeError::UnknownNamespace`] for dead or unknown ids.
    pub fn delete_namespace(&mut self, nsid: u32, now: SimTime) -> Result<(), NvmeError> {
        let ns = self
            .namespaces
            .remove(&nsid)
            .ok_or(NvmeError::UnknownNamespace { nsid })?;
        self.dev
            .delete_vf(ns.func, now)
            .map_err(|_| NvmeError::UnknownNamespace { nsid })?;
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
    /// pending SQEs, validates them, and dispatches block requests.
    ///
    /// # Errors
    ///
    /// [`NvmeError::UnknownQueue`].
    pub fn ring_doorbell(&mut self, qid: u16, now: SimTime) -> Result<(), NvmeError> {
        if qid as usize >= self.qpairs.len() {
            return Err(NvmeError::UnknownQueue { qid });
        }
        let arrival = self.dev.ring_doorbell(now);
        let mut t = arrival;
        loop {
            let (sqe, sq_head) = {
                let qp = &mut self.qpairs[qid as usize];
                let mem = self.mem.borrow();
                match qp.sq.pop(&mem) {
                    Some(s) => (s, qp.sq.head()),
                    None => break,
                }
            };
            t += self.cmd_cost;
            self.dispatch(qid, sqe, sq_head, t);
        }
        Ok(())
    }

    fn post_now(&mut self, qid: u16, cid: u16, sq_head: u16, status: NvmeStatus) {
        let qp = &mut self.qpairs[qid as usize];
        qp.cq.post(
            &mut self.mem.borrow_mut(),
            CompletionEntry {
                sq_head,
                cid,
                status,
                phase: false,
            },
        );
    }

    fn dispatch(&mut self, qid: u16, sqe: SubmissionEntry, sq_head: u16, t: SimTime) {
        // The cid only flows back into the completion entry (total
        // validation); the nsid is a lookup key that fails closed.
        let cid = validate_cid(sqe.cid);
        let Some(ns) = self.namespaces.get(&sqe.nsid()).copied() else {
            self.post_now(qid, cid, sq_head, NvmeStatus::InvalidNamespace);
            return;
        };
        match sqe.opcode {
            NvmeOpcode::Flush => {
                // Completes once prior writes to the namespace are durable;
                // with the in-order pump this is immediate at reap time.
                self.post_now(qid, cid, sq_head, NvmeStatus::Success);
            }
            NvmeOpcode::Read | NvmeOpcode::Write => {
                // Wire-decoded SLBA/NLB are untrusted until the bounds
                // proofs release them; validate_slba's checked add also
                // rejects ranges that wrap the address space.
                let Ok(blocks) = validate_nlb(sqe.nlb, ns.size_blocks) else {
                    self.post_now(qid, cid, sq_head, NvmeStatus::LbaOutOfRange);
                    return;
                };
                let Ok(slba) = validate_slba(sqe.slba, blocks, ns.size_blocks) else {
                    self.post_now(qid, cid, sq_head, NvmeStatus::LbaOutOfRange);
                    return;
                };
                let op = if sqe.opcode == NvmeOpcode::Read {
                    BlockOp::Read
                } else {
                    BlockOp::Write
                };
                self.next_req += 1;
                let id = RequestId(self.next_req);
                self.inflight.insert(id, (qid, cid, sq_head));
                self.dev.submit(
                    t,
                    ns.func,
                    BlockRequest::new(id, op, slba, blocks),
                    sqe.prp1,
                );
            }
        }
    }

    /// Advances the device and posts CQEs for everything that completed by
    /// `until`. Returns `(entry, completion time, qid)` triples in
    /// completion order. Host interrupts (translation misses) are *not*
    /// handled here — the embedding hypervisor resolves them through the
    /// device, exactly as for raw NeSC VFs; thin namespaces therefore need
    /// the same miss handler.
    pub fn process(&mut self, until: SimTime) -> Vec<(CompletionEntry, SimTime, u16)> {
        let mut posted = Vec::new();
        for out in self.dev.advance(until) {
            if let NescOutput::HostInterrupt { at, func, reason } = out {
                // Thin namespace: surface the miss for the hypervisor to
                // resolve via resolve_miss().
                if let Some(ns) = self.namespaces.values().find(|n| n.func == func) {
                    self.pending_misses.push((ns.nsid, reason, at));
                }
                continue;
            }
            if let NescOutput::Completion { at, id, status, .. } = out {
                if let Some((qid, cid, sq_head)) = self.inflight.remove(&id) {
                    let st = match status {
                        CompletionStatus::Ok => NvmeStatus::Success,
                        CompletionStatus::OutOfRange => NvmeStatus::LbaOutOfRange,
                        CompletionStatus::WriteFailed => NvmeStatus::CapacityExceeded,
                        CompletionStatus::DeviceError => NvmeStatus::InternalError,
                    };
                    self.post_now(qid, cid, sq_head, st);
                    let entry = CompletionEntry {
                        sq_head,
                        cid,
                        status: st,
                        phase: false,
                    };
                    posted.push((entry, at, qid));
                }
            }
        }
        posted
    }

    /// Translation misses awaiting hypervisor resolution (thin
    /// namespaces hit these exactly like raw NeSC VFs).
    pub fn pending_misses(&self) -> &[(u32, IrqReason, SimTime)] {
        &self.pending_misses
    }

    /// Hypervisor side: resolves a namespace's pending miss after
    /// allocating backing blocks — installs the rebuilt tree root, flushes
    /// the VF's cached translations, and signals `RewalkTree`.
    ///
    /// # Errors
    ///
    /// [`NvmeError::UnknownNamespace`].
    pub fn resolve_miss(
        &mut self,
        nsid: u32,
        new_root: HostAddr,
        now: SimTime,
    ) -> Result<(), NvmeError> {
        let ns = self
            .namespaces
            .get(&nsid)
            .copied()
            .ok_or(NvmeError::UnknownNamespace { nsid })?;
        self.dev
            .set_tree_root(ns.func, new_root)
            .map_err(|_| NvmeError::UnknownNamespace { nsid })?;
        self.dev
            .mmio_write(ns.func, nesc_core::regs::offsets::REWALK_TREE, 1, now);
        self.pending_misses.retain(|&(n, _, _)| n != nsid);
        Ok(())
    }

    /// Driver side: reaps one completion from a queue's CQ.
    pub fn reap(&mut self, qid: u16) -> Option<CompletionEntry> {
        let qp = self.qpairs.get_mut(qid as usize)?;
        qp.cq.reap(&self.mem.borrow())
    }

    /// Convenience: push a batch, ring the doorbell, process to idle, and
    /// reap every completion. Returns `(entry, time)` pairs.
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
        let horizon = SimTime::from_nanos(u64::MAX / 4);
        let done = self.process(horizon);
        let mut out = Vec::new();
        // Reap from the CQ (validates ring contents match what we posted).
        while let Some(cqe) = self.reap(qid) {
            let t = done
                .iter()
                .find(|(e, _, q)| *q == qid && e.cid == cqe.cid)
                .map(|&(_, t, _)| t)
                .unwrap_or(now);
            out.push((cqe, t));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_extent::{ExtentMapping, ExtentTree, Plba, Vlba};

    fn setup() -> (Rc<RefCell<HostMemory>>, NvmeController, u32, u16) {
        let mem = Rc::new(RefCell::new(HostMemory::new()));
        let mut cfg = NescConfig::prototype();
        cfg.capacity_blocks = 8192;
        let mut ctrl = NvmeController::new(cfg, Rc::clone(&mem));
        let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(100), 64)]
            .into_iter()
            .collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        let ns = ctrl.create_namespace(root, 64).unwrap();
        let qid = ctrl.create_queue_pair(8);
        (mem, ctrl, ns, qid)
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
    fn namespaces_are_isolated_files() {
        let (mem, mut ctrl, ns_a, qid) = setup();
        // Second namespace over different physical blocks.
        let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(500), 64)]
            .into_iter()
            .collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        let ns_b = ctrl.create_namespace(root, 64).unwrap();
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
        ctrl.submit_and_process(
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
        assert_eq!(
            ctrl.device().store().read_block(Plba(100)).unwrap(),
            vec![0xA0; 1024]
        );
        assert_eq!(
            ctrl.device().store().read_block(Plba(500)).unwrap(),
            vec![0xB0; 1024]
        );
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
        let done = ctrl.process(SimTime::from_nanos(u64::MAX / 4));
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
        let mem = Rc::new(RefCell::new(HostMemory::new()));
        let mut cfg = NescConfig::prototype();
        cfg.capacity_blocks = 8192;
        let mut ctrl = NvmeController::new(cfg, Rc::clone(&mem));
        let empty = ExtentTree::new().serialize(&mut mem.borrow_mut());
        let ns = ctrl.create_namespace(empty, 64).unwrap();
        let qid = ctrl.create_queue_pair(8);
        let buf = mem.borrow_mut().alloc(1024, 4096);
        mem.borrow_mut().write(buf, &[0x7E; 1024]);
        ctrl.push(
            qid,
            SubmissionEntry::new(NvmeOpcode::Write, 9, ns, buf, Vlba(4), 0),
        )
        .unwrap();
        ctrl.ring_doorbell(qid, SimTime::ZERO).unwrap();
        let horizon = SimTime::from_nanos(u64::MAX / 4);
        assert!(ctrl.process(horizon).is_empty(), "stalled on the miss");
        let (miss_ns, _, at) = ctrl.pending_misses()[0];
        assert_eq!(miss_ns, ns);
        // "Hypervisor" allocates pLBA 700 for vLBA 4 and resolves.
        let tree: ExtentTree = [ExtentMapping::new(Vlba(4), Plba(700), 1)]
            .into_iter()
            .collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        ctrl.resolve_miss(ns, root, at + SimDuration::from_micros(15))
            .unwrap();
        let done = ctrl.process(horizon);
        assert_eq!(done.len(), 1);
        assert!(done[0].0.status.is_success());
        assert_eq!(
            ctrl.device().store().read_block(Plba(700)).unwrap(),
            vec![0x7E; 1024]
        );
        assert!(ctrl.pending_misses().is_empty());
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
        ctrl.process(SimTime::from_nanos(u64::MAX / 4));
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
