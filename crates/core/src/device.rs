//! The NeSC device model.
//!
//! [`NescDevice`] wires the paper's microarchitecture together (Fig. 6–8):
//! per-function request queues drained round-robin by the multiplexer, the
//! translation unit (BTLB + overlapped block-walk unit doing real DMA walks
//! of host-resident extent trees), the data-transfer unit moving real bytes
//! through the DMA engine and PCIe link, the PF's out-of-band channel, and
//! the miss-interrupt / `RewalkTree` protocol.
//!
//! ## Driving the model
//!
//! The device is event-driven: hosts call [`NescDevice::submit`] (after
//! modeling the doorbell with [`NescDevice::ring_doorbell`]) and then
//! [`NescDevice::advance`] to a horizon; completions and host interrupts
//! come back as [`NescOutput`]s stamped with their simulated times. Calls
//! must be made in non-decreasing time order — the glue loop in
//! `nesc-hypervisor` guarantees this.
//!
//! ## Fidelity notes
//!
//! * Blocks of one dispatched request occupy the shared units as a batch;
//!   requests from different functions interleave at request granularity
//!   (the round-robin the paper specifies) rather than block granularity.
//! * A stalled VF write blocks the translation unit for *all* VFs until the
//!   hypervisor resolves it — exactly why the paper adds the out-of-band
//!   channel so PF traffic keeps flowing. (§V-A)

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use nesc_extent::{validate_ring_tail, walk_run, Plba, Untrusted, Vlba, WalkOutcome};
use nesc_pcie::{HostAddr, HostMemory, PcieLink};
use nesc_sim::{DeviceStats, Obs, Pipe, Probe, ReadyTable, ServiceUnit, SimDuration, SimTime};
use nesc_storage::{BlockOp, BlockRequest, BlockStore, Media, RequestId, StoreError, BLOCK_SIZE};

use crate::btlb::Btlb;
use crate::config::NescConfig;
use crate::function::{FunctionContext, FunctionKind, PendingRequest};
use crate::regs::{self, offsets, FunctionRegisters};
use crate::ring::{RingDescriptor, RingState};
use crate::stats::FuncStats;

/// Index of a function on the device; `FuncId(0)` is always the PF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u16);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            write!(f, "PF")
        } else {
            write!(f, "VF{}", self.0 - 1)
        }
    }
}

/// Why the device interrupted the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrqReason {
    /// A write hit an unallocated range: the host must allocate
    /// `miss_blocks` blocks starting at `miss_vlba` and signal `RewalkTree`
    /// (paper Fig. 5b).
    WriteMiss {
        /// First unmapped virtual block.
        miss_vlba: Vlba,
        /// Length of the unmapped run within the stalled request.
        miss_blocks: u64,
    },
    /// The walk found a NULL (pruned) node pointer: the host must
    /// regenerate the mappings and signal `RewalkTree`.
    MappingPruned {
        /// The virtual block whose subtree was pruned.
        vlba: Vlba,
    },
}

/// Final status of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Data transferred successfully.
    Ok,
    /// The hypervisor could not allocate space for a stalled write
    /// (quota/ENOSPC); the paper's write-failure interrupt.
    WriteFailed,
    /// The request addressed blocks beyond the virtual device size.
    OutOfRange,
    /// The extent tree was corrupt or pointed outside the physical device.
    DeviceError,
}

/// An externally visible device event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NescOutput {
    /// A request finished; the device raises a completion MSI toward the
    /// function's owner.
    Completion {
        /// When the completion is signalled.
        at: SimTime,
        /// The function the request was submitted to.
        func: FuncId,
        /// The request's identity.
        id: RequestId,
        /// How it ended.
        status: CompletionStatus,
    },
    /// The device interrupted the hypervisor (always delivered to the PF
    /// owner, regardless of which VF stalled).
    HostInterrupt {
        /// When the interrupt is signalled.
        at: SimTime,
        /// The VF whose translation missed.
        func: FuncId,
        /// What the host must do.
        reason: IrqReason,
    },
}

impl NescOutput {
    /// The simulated time of the event.
    pub fn at(&self) -> SimTime {
        match self {
            NescOutput::Completion { at, .. } | NescOutput::HostInterrupt { at, .. } => *at,
        }
    }

    /// Whether this is a completion.
    pub fn is_completion(&self) -> bool {
        matches!(self, NescOutput::Completion { .. })
    }
}

/// Error managing virtual functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfError {
    /// All VF slots are in use.
    Exhausted {
        /// The device's VF capacity.
        max_vfs: u16,
    },
    /// The function id does not name a live VF.
    NoSuchVf {
        /// The offending id.
        func: FuncId,
    },
    /// The operation is not permitted on the physical function.
    NotAVf,
}

impl fmt::Display for VfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfError::Exhausted { max_vfs } => write!(f, "all {max_vfs} VF slots in use"),
            VfError::NoSuchVf { func } => write!(f, "{func} is not a live virtual function"),
            VfError::NotAVf => write!(f, "operation not permitted on the PF"),
        }
    }
}

impl std::error::Error for VfError {}

/// Result of translating the first block of an extent *run* — a maximal
/// span of consecutive vLBAs that resolves through the same BTLB entries
/// (or the same walked extents, or the same hole) at every nesting level,
/// so the whole span can be served from this one translation. Only the
/// first block's translation is simulated unit-by-unit; the remaining
/// `run - 1` blocks' pipeline occupancy is charged arithmetically by the
/// caller, which is timing-equivalent because an all-hit chain occupies
/// the translation unit back-to-back.
#[derive(Debug, Clone, Copy)]
struct RunTranslation {
    outcome: Translated,
    /// When the first block's translation resolved (gates its transfer).
    at: SimTime,
    /// When the translation pipeline can accept the next block.
    pipeline_free: SimTime,
    /// Blocks (>= 1, counting the first) this translation covers.
    run: u64,
    /// Nesting levels probed per block — the arithmetic charge unit.
    chain_levels: u64,
    /// For `Hole` outcomes: tree levels each re-walk of the hole costs.
    hole_levels: u32,
}

/// The one request parked on a translation miss. While it is set the
/// multiplexer dispatches nothing, so no second request can stall.
#[derive(Debug, Clone, Copy)]
struct Stall {
    /// The function the request was submitted to.
    requester: FuncId,
    /// The function whose tree missed: the requester, or for a nested VF
    /// the ancestor whose level missed. Its owner got the interrupt.
    level: FuncId,
    /// The parked request.
    pending: PendingRequest,
    /// Index of the first block that has not completed (the miss point).
    resume_block: u64,
    /// How many times in a row the request stalled again at the same
    /// block after the host answered `RewalkTree`.
    restalls: u32,
}

/// Re-stalls at one block a parked request may take before it fails with
/// [`CompletionStatus::DeviceError`]. A host answer that repairs the tree
/// lets the retried walk past the miss, or (for a nested VF) on to the
/// next level's miss, so more than this many in a row means the host
/// answers without repairing, and retrying would hang the request.
const MAX_RESTALLS: u32 = 16;

#[derive(Debug, Clone, Copy)]
enum Translated {
    Mapped(Plba),
    Hole { level: FuncId, lba: Vlba },
    Pruned { level: FuncId, lba: Vlba },
    Corrupt,
    BeyondParent,
}

/// The self-virtualizing nested storage controller.
///
/// See the [crate-level documentation](crate) for a usage example.
pub struct NescDevice {
    cfg: NescConfig,
    mem: Rc<RefCell<HostMemory>>,
    store: BlockStore,
    media: Media,
    functions: Vec<FunctionContext>,
    /// Live VFs, kept where a slot's `alive` flips (`create_vf`,
    /// `delete_vf`) so neither counts the table.
    live_vfs: u16,
    /// Dead VF slots, reused lowest first.
    dead_slots: BTreeSet<u16>,
    /// Incremental dispatch state for the VF multiplexer: per-priority
    /// ready bitmaps plus a min-heap of future arrivals, maintained by
    /// [`Self::refresh_ready`] at every queue/liveness/priority
    /// mutation so a tick never scans all functions (O(changed state) at
    /// 1000+ VFs).
    mux_ready: ReadyTable,
    mux: ServiceUnit,
    oob: ServiceUnit,
    translate_unit: ServiceUnit,
    walk_slots: Vec<ServiceUnit>,
    engine_read: Pipe,
    engine_write: Pipe,
    link: PcieLink,
    btlb: Btlb,
    outputs: Vec<NescOutput>,
    /// Reusable partition buffer for [`Self::advance_into`]: outputs
    /// beyond the horizon are parked here, then swapped back into
    /// `outputs` — no per-call allocation.
    outputs_later: Vec<NescOutput>,
    /// The pending multiplexer tick — the only event the device schedules
    /// (every unit's timing is computed arithmetically). Set only while
    /// `None`, so a pending tick is never pulled earlier.
    mux_at: Option<SimTime>,
    /// While a request is stalled on a miss, the (shared) translation
    /// pipeline is blocked; only the PF's OOB channel makes progress.
    stall: Option<Stall>,
    /// Per-function service counters, struct-of-arrays by dense func id.
    func_stats: FuncStats,
    /// The lifecycle probe shared with the hypervisor: its always-on
    /// tally holds the device's counters; its spans and ring rows are off
    /// unless tracing or the flight recorder is on.
    probe: Probe,
    /// Reusable record of the nesting levels visited by one translation:
    /// `(func, vlba at that level, plba it translated to)`.
    chain_scratch: Vec<(u16, Vlba, Plba)>,
    /// Reusable buffer for the descriptors one doorbell consumes.
    ring_scratch: Vec<Result<RingDescriptor, RequestId>>,
    /// Reusable per-run timestamp buffer: filled with each block's
    /// translation-done time, transformed in place into completion times by
    /// the batched media/engine/link passes.
    time_scratch: Vec<SimTime>,
    /// Largest extent *run* — consecutive blocks resolved by one BTLB
    /// probe or one tree walk — batched into one translation and one
    /// storage transfer. Unbounded; only this module's tests set it, to 1
    /// for the block-at-a-time reference loop, since simulated results do
    /// not depend on it.
    run_cap: u64,
}

impl fmt::Debug for NescDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NescDevice")
            .field("functions", &self.functions.len())
            .field("stall", &self.stall)
            .field("stats", &Self::stats(self))
            .finish()
    }
}

impl NescDevice {
    /// Creates a device with the PF pre-provisioned as function 0.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NescConfig::validate`].
    pub fn new(cfg: NescConfig, mem: Rc<RefCell<HostMemory>>) -> Self {
        cfg.validate();
        let store = BlockStore::new(cfg.capacity_blocks);
        let pf_regs = FunctionRegisters::new(0, cfg.capacity_blocks);
        let media = cfg.media.clone();
        let walk_slots = vec![ServiceUnit::new(); cfg.walk_overlap];
        let btlb = Btlb::new(cfg.btlb_entries);
        let link = PcieLink::new(cfg.link.clone());
        let engine_read = Pipe::new(cfg.dma_read_bytes_per_sec, SimDuration::ZERO);
        let engine_write = Pipe::new(cfg.dma_write_bytes_per_sec, SimDuration::ZERO);
        NescDevice {
            cfg,
            mem,
            store,
            media,
            functions: vec![FunctionContext::new(FunctionKind::Physical, pf_regs)],
            live_vfs: 0,
            dead_slots: BTreeSet::new(),
            mux_ready: {
                let mut rt = ReadyTable::new(crate::function::NUM_PRIORITIES as usize);
                rt.grow_to(1);
                rt
            },
            mux: ServiceUnit::new(),
            oob: ServiceUnit::new(),
            translate_unit: ServiceUnit::new(),
            walk_slots,
            engine_read,
            engine_write,
            link,
            btlb,
            outputs: Vec::new(),
            outputs_later: Vec::new(),
            mux_at: None,
            stall: None,
            func_stats: FuncStats::with_len(1),
            probe: Probe::default(),
            chain_scratch: Vec::new(),
            ring_scratch: Vec::new(),
            time_scratch: Vec::new(),
            run_cap: u64::MAX,
        }
    }

    /// The physical function's id.
    pub fn pf(&self) -> FuncId {
        FuncId(0)
    }

    /// Device configuration.
    pub fn config(&self) -> &NescConfig {
        &self.cfg
    }

    /// The persistent contents (tests and the hypervisor's format path use
    /// this to inspect physical blocks).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Mutable access to the contents (hypervisor-side tooling).
    pub fn store_mut(&mut self) -> &mut BlockStore {
        &mut self.store
    }

    /// Cumulative statistics, as the probe's tally folded them from the
    /// device's reports. The BTLB lookup/hit counters are synced from the
    /// BTLB's authoritative per-block counters here, so the per-block
    /// translation path never touches a second counter pair.
    pub fn stats(&self) -> DeviceStats {
        let mut s = self.probe.device_stats();
        s.btlb_hits = self.btlb.hits();
        s.btlb_lookups = self.btlb.hits() + self.btlb.misses();
        s
    }

    /// BTLB statistics (hits/misses/occupancy).
    pub fn btlb(&self) -> &Btlb {
        &self.btlb
    }

    /// Attaches the lifecycle probe: every phase of every request the
    /// device processes — queueing, the device span with its
    /// translation, walk, media and DMA passes, completion or stall — is
    /// reported to it once, and it records the span rows (under whatever
    /// span the submitter bound to the request id).
    ///
    /// The probe's tally holds the device's counters, so
    /// [`stats`](Self::stats) reads this probe's: a probe with a fresh
    /// tally starts them from 0.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Throttles the storage medium (Fig. 2's emulated device speeds).
    pub fn set_media_throttle(&mut self, bytes_per_sec: Option<u64>) {
        self.media.set_throttle(bytes_per_sec);
    }

    /// Live VF count.
    pub fn live_vfs(&self) -> u16 {
        self.live_vfs
    }

    // ------------------------------------------------------------------
    // Telemetry probes (cumulative busy times and instantaneous depths;
    // the perfmon sampler turns deltas of these into per-window series)
    // ------------------------------------------------------------------

    /// Cumulative busy time summed over the extent-walk slots.
    pub fn walk_busy_time(&self) -> SimDuration {
        self.walk_slots.iter().map(|s| s.busy_time()).sum()
    }

    /// Number of parallel walk slots (the denominator for walk-unit
    /// occupancy).
    pub fn walk_slot_count(&self) -> usize {
        self.walk_slots.len()
    }

    /// Cumulative busy time of the storage medium.
    pub fn media_busy_time(&self) -> SimDuration {
        self.media.busy_time()
    }

    /// Cumulative busy time of the PCIe link as `(upstream, downstream)`.
    pub fn link_busy_time(&self) -> (SimDuration, SimDuration) {
        (self.link.upstream_busy(), self.link.downstream_busy())
    }

    /// Depth of a function's client request queue right now (0 for dead or
    /// unknown functions).
    pub fn ring_depth(&self, func: FuncId) -> usize {
        self.functions
            .get(func.0 as usize)
            .filter(|f| f.alive)
            .map_or(0, |f| f.queue.len())
    }

    // ------------------------------------------------------------------
    // PF management plane
    // ------------------------------------------------------------------

    /// Creates a VF bound to the extent tree at `tree_root` exporting a
    /// virtual device of `size_blocks` blocks. Multiple VFs may share one
    /// tree (shared files, paper §IV-B).
    ///
    /// # Errors
    ///
    /// [`VfError::Exhausted`] when all VF slots are live.
    pub fn create_vf(&mut self, tree_root: HostAddr, size_blocks: u64) -> Result<FuncId, VfError> {
        let regs = FunctionRegisters::new(tree_root, size_blocks);
        // Reuse the lowest dead slot if any.
        if let Some(slot) = self.dead_slots.pop_first() {
            let idx = slot as usize;
            self.functions[idx] = FunctionContext::new(FunctionKind::Virtual, regs);
            self.func_stats.reset(idx);
            self.refresh_ready(idx);
            self.live_vfs += 1;
            return Ok(FuncId(slot));
        }
        if self.live_vfs >= self.cfg.max_vfs {
            return Err(VfError::Exhausted {
                max_vfs: self.cfg.max_vfs,
            });
        }
        self.functions
            .push(FunctionContext::new(FunctionKind::Virtual, regs));
        self.mux_ready.grow_to(self.functions.len());
        self.func_stats.grow_to(self.functions.len());
        self.live_vfs += 1;
        Ok(FuncId((self.functions.len() - 1) as u16))
    }

    /// Creates a *nested* VF inside an existing VF's address space — the
    /// mechanism the paper notes is possible "in principle ... to support
    /// nested virtualization" (§IV-A). The nested function's extent tree
    /// maps its vLBAs into the parent's vLBA space; the device composes
    /// the translations (child tree, then each ancestor's) on every block.
    ///
    /// # Errors
    ///
    /// [`VfError::NoSuchVf`] if the parent is not a live VF,
    /// [`VfError::NotAVf`] for a PF parent, [`VfError::Exhausted`] when
    /// the VF table is full.
    pub fn create_nested_vf(
        &mut self,
        parent: FuncId,
        tree_root: HostAddr,
        size_blocks: u64,
    ) -> Result<FuncId, VfError> {
        self.vf_mut(parent)?; // validates the parent
        let child = self.create_vf(tree_root, size_blocks)?;
        self.functions[child.0 as usize].parent = Some(parent);
        Ok(child)
    }

    /// Deletes a VF at `now`: its nested children (if any) are deleted
    /// first, recursively; its parked request and its queued ones complete
    /// with [`CompletionStatus::DeviceError`] (a queued one no earlier than
    /// it reached the device), its BTLB entries are flushed, and the slot
    /// becomes reusable.
    ///
    /// # Errors
    ///
    /// [`VfError::NotAVf`] for the PF, [`VfError::NoSuchVf`] for dead or
    /// unknown ids.
    pub fn delete_vf(&mut self, func: FuncId, now: SimTime) -> Result<(), VfError> {
        // Cascade to nested children first.
        let children: Vec<FuncId> = self
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.alive && f.parent == Some(func))
            .map(|(i, _)| FuncId(i as u16))
            .collect();
        for c in children {
            self.delete_vf(c, now)?;
        }
        self.vf_mut(func)?.alive = false;
        self.live_vfs -= 1;
        self.dead_slots.insert(func.0);
        if let Some(st) = self.take_stall(func) {
            let req = st.pending.req;
            self.complete(now, st.requester, req, CompletionStatus::DeviceError);
            // The stall held every VF's dispatch; release it.
            self.schedule_mux(now);
        }
        while let Some(p) = self.functions[func.0 as usize].queue.pop_front() {
            let at = now.max(p.arrived);
            self.complete(at, func, p.req, CompletionStatus::DeviceError);
        }
        self.refresh_ready(func.0 as usize);
        self.btlb.flush_func(func.0);
        Ok(())
    }

    /// Replaces a VF's extent tree root (after the hypervisor rebuilt the
    /// tree) and flushes the VF's cached translations.
    ///
    /// # Errors
    ///
    /// [`VfError::NotAVf`] / [`VfError::NoSuchVf`] as for
    /// [`delete_vf`](Self::delete_vf).
    pub fn set_tree_root(&mut self, func: FuncId, root: HostAddr) -> Result<(), VfError> {
        self.vf_mut(func)?.regs.extent_tree_root = root;
        self.btlb.flush_func(func.0);
        Ok(())
    }

    /// Flushes the translations cached for `func`'s tree: its own, and
    /// those its nested children cache for its level (they file them under
    /// `func`'s id).
    pub fn flush_btlb_func(&mut self, func: FuncId) {
        self.btlb.flush_func(func.0);
    }

    /// PF-initiated global BTLB flush ("to preserve meta-data consistency"
    /// across hypervisor optimizations such as deduplication).
    pub fn flush_btlb(&mut self) {
        self.btlb.flush_all();
    }

    /// Sets a VF's QoS priority (0 = highest; clamped to the supported
    /// class count).
    ///
    /// # Errors
    ///
    /// [`VfError::NotAVf`] / [`VfError::NoSuchVf`] as for
    /// [`delete_vf`](Self::delete_vf).
    pub fn set_priority(&mut self, func: FuncId, priority: u8) -> Result<(), VfError> {
        self.vf_mut(func)?.priority = priority.min(crate::function::NUM_PRIORITIES - 1);
        // Re-arm so a pending promotion re-reads the new class.
        self.refresh_ready(func.0 as usize);
        Ok(())
    }

    /// Per-function service counters `(requests, blocks)` — the fairness
    /// and QoS harnesses read these.
    pub fn function_counters(&self, func: FuncId) -> (u64, u64) {
        self.func_stats.get(func.0 as usize)
    }

    fn vf_mut(&mut self, func: FuncId) -> Result<&mut FunctionContext, VfError> {
        if func.0 == 0 {
            return Err(VfError::NotAVf);
        }
        match self.functions.get_mut(func.0 as usize) {
            Some(ctx) if ctx.alive => Ok(ctx),
            _ => Err(VfError::NoSuchVf { func }),
        }
    }

    // ------------------------------------------------------------------
    // MMIO plane
    // ------------------------------------------------------------------

    /// Models the host CPU's posted doorbell write; returns when the write
    /// reaches the device (submissions should use this time).
    pub fn ring_doorbell(&mut self, now: SimTime) -> SimTime {
        self.link.mmio_write(now)
    }

    /// Reads a register in `func`'s window.
    pub fn mmio_read(&self, func: FuncId, offset: u64) -> u64 {
        self.functions
            .get(func.0 as usize)
            .map(|f| f.regs.mmio_read(offset))
            .unwrap_or(0)
    }

    /// Writes a register in `func`'s window at simulated time `now`.
    /// Writing 1 to `RewalkTree` re-issues the function's stalled request;
    /// writing `RingTail` is the command-ring doorbell (the device DMAs
    /// the new descriptors and queues their requests).
    pub fn mmio_write(&mut self, func: FuncId, offset: u64, value: u64, now: SimTime) {
        let Some(ctx) = self.functions.get_mut(func.0 as usize) else {
            return;
        };
        let trigger = ctx.regs.mmio_write(offset, value);
        if offset == offsets::EXTENT_TREE_ROOT {
            self.btlb.flush_func(func.0);
        }
        if offset == offsets::RING_TAIL {
            self.consume_ring(func, regs::doorbell(value), now);
        }
        if trigger {
            self.resume_stalled(func, now);
        }
    }

    /// Doorbell handler: DMAs descriptors from the function's command
    /// ring and submits them (paper §V's DMA ring buffer interface).
    ///
    /// The tail is guest-controlled and arrives quarantined; an index
    /// outside the configured ring is ignored wholesale (a real device's
    /// bounds-checked doorbell register), and descriptors whose own
    /// fields fail validation complete with `DeviceError` instead of
    /// being silently dropped, so drivers never hang waiting on them.
    fn consume_ring(&mut self, func: FuncId, tail: Untrusted<u32>, now: SimTime) {
        let (slots, fetch_done) = {
            let ctx = &mut self.functions[func.0 as usize];
            if !ctx.alive {
                return;
            }
            let mut ring = RingState {
                base: ctx.regs.ring_base,
                entries: ctx.regs.ring_entries,
                head: ctx.ring_head,
            };
            if !ring.is_configured() {
                return;
            }
            let Ok(tail) = validate_ring_tail(tail, ctx.regs.ring_entries) else {
                return;
            };
            let mut slots = std::mem::take(&mut self.ring_scratch);
            ring.consume(&self.mem.borrow(), tail, &mut slots);
            ctx.ring_head = ring.head;
            // One descriptor-fetch DMA covers every slot consumed, valid or
            // not (devices coalesce); it is reported under the first slot's
            // request id, which a slot that fails to decode has too.
            let fetch_done = match slots.first() {
                Some(&first) => {
                    let bytes = slots.len() as u64 * crate::ring::DESCRIPTOR_BYTES;
                    let end = self.link.dma_read(now, bytes).complete;
                    let id = first.map_or_else(|id| id, |d| d.id);
                    self.probe
                        .report(Obs::DescriptorFetch(id.0, bytes, now, end));
                    end
                }
                None => now,
            };
            (slots, fetch_done)
        };
        for &slot in &slots {
            let request =
                slot.and_then(|d| d.to_request().map(|req| (req, d.buffer)).map_err(|_| d.id));
            match request {
                Ok((req, buf)) => self.submit(fetch_done, func, req, buf),
                Err(id) => self.reject(fetch_done, func, id),
            }
        }
        self.ring_scratch = slots;
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Submits a request to a function. `buf` is the host buffer the data
    /// is DMAed to/from. PF requests take the out-of-band channel and use
    /// physical LBAs; VF requests queue for the multiplexer and use vLBAs.
    ///
    /// Requests to dead functions are dropped (a real device's unmapped
    /// BAR would master-abort); a completion with an error is produced so
    /// callers never hang.
    pub fn submit(&mut self, now: SimTime, func: FuncId, req: BlockRequest, buf: HostAddr) {
        let Some(ctx) = self.functions.get(func.0 as usize).filter(|f| f.alive) else {
            self.reject(now, func, req.id);
            return;
        };
        let pending = PendingRequest {
            req,
            buf,
            arrived: now,
        };
        if ctx.kind == FunctionKind::Physical {
            // Out-of-band: bypass the mux and translation entirely.
            let svc = self.oob.serve(now, self.cfg.oob_per_request);
            self.process_pf_request(svc.end, pending);
        } else {
            let rid = pending.req.id;
            let queue = &mut self.functions[func.0 as usize].queue;
            queue.push_back(pending);
            let depth = queue.len() as u64;
            self.probe
                .report(Obs::Queued(u32::from(func.0), rid.0, depth, now));
            self.refresh_ready(func.0 as usize);
            self.schedule_mux(now);
        }
    }

    /// Submits a physically-addressed request to the PF. This is the one
    /// place a [`Plba`]-typed request re-enters the device: the hypervisor's
    /// passthrough and paravirtual engines (which translated already) and
    /// host-mediated accelerators address the raw device here. The PF's
    /// frame is the identity map, so the request is re-based into the PF's
    /// "virtual" space on entry and [`Vlba::identity_plba`] undoes the
    /// re-base at dispatch.
    pub fn submit_pf(&mut self, now: SimTime, req: BlockRequest<Plba>, buf: HostAddr) {
        let req = BlockRequest::new(req.id, req.op, req.lba.nested_vlba(), req.block_count);
        self.submit(now, self.pf(), req, buf);
    }

    /// The hypervisor signals that it could *not* allocate space for the
    /// stalled write (quota exhausted / device full): the request completes
    /// with [`CompletionStatus::WriteFailed`]. `func` may name the
    /// requester or the level whose tree missed, as for `RewalkTree`.
    pub fn fail_stalled(&mut self, func: FuncId, now: SimTime) {
        let Some(st) = self.take_stall(func) else {
            return;
        };
        let req = st.pending.req;
        self.complete(now, st.requester, req, CompletionStatus::WriteFailed);
        self.schedule_mux(now);
    }

    /// Advances internal machinery to `until` and returns every output
    /// whose time is at or before `until`, in time order.
    pub fn advance(&mut self, until: SimTime) -> Vec<NescOutput> {
        let mut due = Vec::new();
        self.advance_into(until, &mut due);
        due
    }

    /// Allocation-free variant of [`Self::advance`]: due outputs are
    /// appended to `out` (which the caller clears and reuses across
    /// calls), in time order with FIFO ties, exactly as `advance` returns
    /// them. The steady-state device loop is heap-allocation-free through
    /// this entry point.
    // nesc-lint: hot
    pub fn advance_into(&mut self, until: SimTime, out: &mut Vec<NescOutput>) {
        while let Some(t) = self.mux_at.filter(|&t| t <= until) {
            self.mux_tick(t);
        }
        // Outputs computed eagerly may lie beyond the horizon; hold them
        // in the reusable partition buffer.
        let start = out.len();
        for o in self.outputs.drain(..) {
            if o.at() <= until {
                out.push(o);
            } else {
                self.outputs_later.push(o);
            }
        }
        std::mem::swap(&mut self.outputs, &mut self.outputs_later);
        // Stable insertion sort on `at`: outputs per horizon are few, the
        // buffer is usually already ordered, and — unlike `sort_by_key` —
        // it allocates nothing. Stability preserves emission order on
        // equal timestamps, matching the historical stable sort.
        let Some(due) = out.get_mut(start..) else {
            return;
        };
        for i in 1..due.len() {
            let mut j = i;
            while j > 0
                && due
                    .get(j - 1)
                    .zip(due.get(j))
                    .is_some_and(|(a, b)| a.at() > b.at())
            {
                due.swap(j - 1, j);
                j -= 1;
            }
        }
    }

    /// Earliest time at which the device has something to do or report,
    /// for glue loops that want to step exactly to the next event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let outputs = self.outputs.iter().map(NescOutput::at);
        outputs.chain(self.mux_at).min()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn schedule_mux(&mut self, at: SimTime) {
        self.mux_at.get_or_insert(at);
    }

    /// Synchronizes one function's entry in the ready table with its
    /// visible dispatch state. Must run after every mutation of the
    /// function's queue front, liveness, or priority — the
    /// table is what [`Self::mux_tick`] dispatches from, in place of a
    /// per-tick scan over all functions.
    fn refresh_ready(&mut self, idx: usize) {
        match self.functions[idx].next_arrival() {
            Some(at) => self.mux_ready.arm(idx, at),
            None => self.mux_ready.clear(idx),
        }
    }

    fn mux_tick(&mut self, now: SimTime) {
        self.mux_at = None;
        if self.stall.is_some() {
            // Translation pipeline blocked; the resume path re-kicks us.
            return;
        }
        // QoS: serve the most urgent (lowest-numbered) priority class with
        // pending work; round-robin within the class (paper §IV-D). The
        // ready table is maintained incrementally at every queue/liveness
        // mutation; here we only promote arrivals that matured by `now`
        // (reading each function's current priority class) and pick.
        let funcs = &self.functions;
        self.mux_ready
            .promote_due(now, |i| funcs[i].priority as usize);
        let Some(pick) = self.mux_ready.pick() else {
            // Nothing has arrived yet; sleep until the next doorbell lands.
            if let Some(next) = self.mux_ready.next_arrival() {
                self.schedule_mux(next.max(now));
            }
            return;
        };
        debug_assert!(
            pick != 0 && self.functions[pick].dispatchable_at(now),
            "ready table out of sync with function {pick}"
        );
        let Some(pending) = self.functions[pick].queue.pop_front() else {
            // The ready table said dispatchable but the queue is empty —
            // drop the stale entry and wait for the next doorbell.
            debug_assert!(false, "dispatchable implies non-empty");
            self.refresh_ready(pick);
            return;
        };
        let cost = self.cfg.mux_per_request + self.cfg.split_per_block * pending.req.block_count;
        let svc = self.mux.serve(now, cost);
        self.process_vf_request(svc.end, FuncId(pick as u16), pending, 0, None);
        self.refresh_ready(pick);
        self.schedule_mux(svc.end);
    }

    /// Takes the parked request if `func` names it: as its requester, or
    /// as the level whose tree missed (a parent, for nested VFs), which is
    /// where the interrupt went and where the host answers.
    fn take_stall(&mut self, func: FuncId) -> Option<Stall> {
        self.stall
            .take_if(|st| st.requester == func || st.level == func)
    }

    fn resume_stalled(&mut self, func: FuncId, now: SimTime) {
        let Some(st) = self.take_stall(func) else {
            return;
        };
        if let Some(ctx) = self.functions.get_mut(func.0 as usize) {
            ctx.regs.rewalk_tree = 0;
        }
        // Re-issue the stalled request to the walk unit from the miss
        // point; the paper guarantees the retried lookup now succeeds
        // (unless the host pruned again, in which case we stall again).
        let (requester, pending, from) = (st.requester, st.pending, st.resume_block);
        self.process_vf_request(now, requester, pending, from, Some(st.restalls));
        self.schedule_mux(now);
    }

    fn process_pf_request(&mut self, start: SimTime, pending: PendingRequest) {
        let req = pending.req;
        let (id, blocks) = (req.id.0, req.block_count);
        self.probe
            .report(Obs::DeviceOpen(0, id, blocks, pending.arrived, start));
        if req.end_lba() > Vlba(self.cfg.capacity_blocks) {
            self.complete(start, self.pf(), req, CompletionStatus::OutOfRange);
            return;
        }
        // PF requests are untranslated — the PF's frame is the identity
        // map, so this is where its vLBAs become pLBAs — and the whole
        // request is one run: move the bytes in a single store/host-memory
        // pass, then charge the per-block engine/link/media timing exactly
        // as the per-block loop did (each block ready at `start`; the units
        // serialize).
        let plba = req.lba.identity_plba();
        if req.block_count > 0
            && self
                .move_run_data(req.op, plba, pending.buf, 0, req.block_count)
                .is_err()
        {
            self.complete(start, self.pf(), req, CompletionStatus::DeviceError);
            return;
        }
        let mut times = std::mem::take(&mut self.time_scratch);
        times.clear();
        times.resize(req.block_count as usize, start);
        self.transfer_run_timing(req.op, plba, &mut times);
        let last_done = times.last().copied().unwrap_or(start);
        self.time_scratch = times;
        self.complete(last_done, self.pf(), req, CompletionStatus::Ok);
    }

    /// Runs a VF request through translation and transfer from block
    /// `from_block`. A resumed request continues after a miss stall;
    /// `restalls` is `None` for a first dispatch, else the stall's count of
    /// re-stalls at its block.
    fn process_vf_request(
        &mut self,
        start: SimTime,
        func: FuncId,
        pending: PendingRequest,
        from_block: u64,
        restalls: Option<u32>,
    ) {
        let req = pending.req;
        let (f, id, blocks) = (u32::from(func.0), req.id.0, req.block_count);
        // A stall before any block of this pass completed makes no
        // progress on the one it resumed from.
        let restalls_at = |i: u64| match restalls {
            Some(n) if i == from_block => n + 1,
            _ => 0,
        };
        self.probe.report(if restalls.is_some() {
            Obs::DeviceResume(f, id, blocks, start)
        } else {
            Obs::DeviceOpen(f, id, blocks, pending.arrived, start)
        });
        let regs_size = self.functions[func.0 as usize].regs.device_size_blocks;
        if req.end_lba() > Vlba(regs_size) {
            self.complete(start, func, req, CompletionStatus::OutOfRange);
            return;
        }
        let mut tr_ready = start;
        let mut last_done = start;
        let lookup_cost = self.cfg.btlb_lookup;
        // A zero-capacity BTLB rebounds every run to one block *after*
        // translation (`rebound_run`); clamping up front makes the batched
        // loop take exactly the per-block path instead of sizing walks for
        // runs it can never keep.
        let run_cap = if self.btlb.capacity() == 0 {
            1
        } else {
            self.run_cap
        };
        let mut i = from_block;
        while i < req.block_count {
            let vlba = req.lba.offset(i);
            let max_run = (req.block_count - i).min(run_cap);
            // --- Translation unit: BTLB, then the block-walk unit —
            // composed across nesting levels for nested VFs, and sized to
            // the longest run every level's extent covers. ---
            let rt = self.translate_run(func, vlba, tr_ready, max_run);
            // The translation pipeline accepts the next block as soon as
            // this one has dispatched to (or bypassed) the walk unit; a
            // walk's latency is paid by *this* block's transfer, while
            // other walks proceed on the remaining slots — the overlap
            // the paper uses to hide tree-DMA latency (§V-B).
            tr_ready = rt.pipeline_free;
            match rt.outcome {
                Translated::Mapped(plba) => {
                    // Physical blocks past device capacity fail exactly
                    // where the per-block loop failed: after that block's
                    // translation, before any of its data moves.
                    let valid = self.store.blocks_until_end(plba).min(rt.run);
                    let trans_blocks = if valid < rt.run { valid + 1 } else { rt.run };
                    // Blocks after the first all hit the whole chain; one
                    // arithmetic charge occupies the translation unit for
                    // the same contiguous span the per-block lookups did,
                    // and block j's chain resolves j * chain_levels
                    // lookups after the batch starts.
                    let extra = trans_blocks - 1;
                    let batch_start = if extra > 0 {
                        let svc = self
                            .translate_unit
                            .serve(tr_ready, lookup_cost * (extra * rt.chain_levels));
                        tr_ready = svc.end;
                        self.btlb.credit_hits(extra * rt.chain_levels);
                        svc.start
                    } else {
                        tr_ready
                    };
                    if valid > 0
                        && self
                            .move_run_data(req.op, plba, pending.buf, i, valid)
                            .is_err()
                    {
                        // Unreachable by construction (`valid` is bounded
                        // by capacity), but fail like the old loop would.
                        self.complete(rt.at, func, req, CompletionStatus::DeviceError);
                        return;
                    }
                    // Block j's chain resolves j * chain_levels lookups
                    // after the batch starts; transform those ready times
                    // into completion times with one batched pass per unit.
                    let mut times = std::mem::take(&mut self.time_scratch);
                    times.clear();
                    times.reserve(valid as usize);
                    for j in 0..valid {
                        times.push(if j == 0 {
                            rt.at
                        } else {
                            batch_start + lookup_cost * (j * rt.chain_levels)
                        });
                    }
                    self.transfer_run_timing(req.op, plba, &mut times);
                    if let Some(&done) = times.last() {
                        last_done = last_done.max(done);
                    }
                    self.time_scratch = times;
                    if valid < trans_blocks {
                        // The capacity-crossing block fails right after its
                        // translation, exactly when the per-block loop
                        // reached it.
                        let t_err = if valid == 0 {
                            rt.at
                        } else {
                            batch_start + lookup_cost * (valid * rt.chain_levels)
                        };
                        self.complete(t_err, func, req, CompletionStatus::DeviceError);
                        return;
                    }
                    i += rt.run;
                }
                Translated::Hole { level, lba } => {
                    if req.op == BlockOp::Write {
                        // Write miss: size the unmapped run for MissSize,
                        // set the registers of the level whose tree missed,
                        // interrupt its owner, park the request.
                        let level_root = self.functions[level.0 as usize].regs.extent_tree_root;
                        let run = self.unmapped_run(level_root, lba, req.block_count - i);
                        self.stall(
                            func,
                            level,
                            pending,
                            (i, restalls_at(i)),
                            rt.at,
                            IrqReason::WriteMiss {
                                miss_vlba: lba,
                                miss_blocks: run,
                            },
                        );
                        return;
                    }
                    // POSIX hole read: zero-fill the destination, no media
                    // access. Holes are never cached, so every block of the
                    // run re-probes the chain (upper levels hit, the hole
                    // level misses) and re-walks the hole — the walk-slot
                    // occupancy below reproduces that per block, while the
                    // walk itself ran only once.
                    let extra = rt.run - 1;
                    let batch_start = if extra > 0 {
                        let svc = self
                            .translate_unit
                            .serve(tr_ready, lookup_cost * (extra * rt.chain_levels));
                        tr_ready = svc.end;
                        self.btlb.credit_hits(extra * (rt.chain_levels - 1));
                        self.btlb.credit_misses(extra);
                        svc.start
                    } else {
                        tr_ready
                    };
                    self.mem
                        .borrow_mut()
                        .fill_zero(pending.buf + i * BLOCK_SIZE, rt.run * BLOCK_SIZE);
                    // Per-block walk-slot occupancy stays a loop (slots are
                    // chosen least-loaded per walk), but the engine and
                    // link passes over the resulting ready times batch.
                    let mut times = std::mem::take(&mut self.time_scratch);
                    times.clear();
                    times.reserve(rt.run as usize);
                    times.push(rt.at);
                    for j in 1..rt.run {
                        let lookup_end = batch_start + lookup_cost * (j * rt.chain_levels);
                        times.push(self.run_walk_dmas(lookup_end, rt.hole_levels, None));
                    }
                    self.engine_read.transfer_run(BLOCK_SIZE, &mut times);
                    self.probe.pass(Obs::ZeroFill, BLOCK_SIZE, &mut times, |t| {
                        self.link.dma_write_run(BLOCK_SIZE, t)
                    });
                    if let Some(&done) = times.last() {
                        last_done = last_done.max(done);
                    }
                    self.time_scratch = times;
                    i += rt.run;
                }
                Translated::Pruned { level, lba } => {
                    self.stall(
                        func,
                        level,
                        pending,
                        (i, restalls_at(i)),
                        rt.at,
                        IrqReason::MappingPruned { vlba: lba },
                    );
                    return;
                }
                Translated::Corrupt => {
                    self.complete(rt.at, func, req, CompletionStatus::DeviceError);
                    return;
                }
                Translated::BeyondParent => {
                    self.complete(rt.at, func, req, CompletionStatus::OutOfRange);
                    return;
                }
            }
        }
        // The loop covered every block, including those moved before a
        // stall, so the whole request counts.
        self.complete(last_done, func, req, CompletionStatus::Ok);
    }

    /// Translates an extent run starting at `vlba` through the function's
    /// tree and, for nested VFs, through every ancestor's tree (the
    /// composed translation of the paper's nested-virtualization aside,
    /// §IV-A). The first block is translated with full unit-level timing;
    /// the returned `run` says how many consecutive blocks resolve through
    /// the same entries, bounded by every level's extent coverage, the
    /// parent's device size, and — via [`Self::rebound_run`] — by what the
    /// BTLB still holds once the chain's own inserts have settled.
    fn translate_run(
        &mut self,
        func: FuncId,
        vlba: Vlba,
        ready: SimTime,
        max_blocks: u64,
    ) -> RunTranslation {
        let mut chain = std::mem::take(&mut self.chain_scratch);
        chain.clear();
        let mut level = func;
        let mut lba = vlba;
        let mut t = ready;
        let mut pipeline_free = ready;
        let mut run = max_blocks.max(1);
        let mut chain_levels = 0u64;
        let result = loop {
            let lookup = self.translate_unit.serve(t, self.cfg.btlb_lookup);
            pipeline_free = pipeline_free.max(lookup.end);
            chain_levels += 1;
            let root = self.functions[level.0 as usize].regs.extent_tree_root;
            let (next, t_done) = match self.btlb.lookup_run(level.0, lba, run) {
                Some((plba, covered)) => {
                    run = run.min(covered);
                    chain.push((level.0, lba, plba));
                    (plba, lookup.end)
                }
                None => {
                    let wr = walk_run(&self.mem.borrow(), root, lba, run);
                    let miss = (u32::from(level.0), lba.byte_offset());
                    let t_walk = self.run_walk_dmas(lookup.end, wr.result.levels, Some(miss));
                    match wr.result.outcome {
                        WalkOutcome::Mapped(e) => {
                            self.btlb.insert(level.0, e);
                            run = run.min(wr.run);
                            let plba = e.translate(lba);
                            debug_assert!(plba.is_some(), "walk hit covers lba");
                            let Some(plba) = plba else {
                                // The walk returned an extent that does not
                                // cover the probed lba — treat the mapping
                                // as absent and let the miss handler
                                // rebuild the tree.
                                break RunTranslation {
                                    outcome: Translated::Hole { level, lba },
                                    at: t_walk,
                                    pipeline_free,
                                    run: self.rebound_run(run.min(wr.run), &chain),
                                    chain_levels,
                                    hole_levels: wr.result.levels,
                                };
                            };
                            chain.push((level.0, lba, plba));
                            (plba, t_walk)
                        }
                        WalkOutcome::Hole => {
                            break RunTranslation {
                                outcome: Translated::Hole { level, lba },
                                at: t_walk,
                                pipeline_free,
                                run: self.rebound_run(run.min(wr.run), &chain),
                                chain_levels,
                                hole_levels: wr.result.levels,
                            };
                        }
                        WalkOutcome::Pruned { .. } => {
                            break RunTranslation {
                                outcome: Translated::Pruned { level, lba },
                                at: t_walk,
                                pipeline_free,
                                run: 1,
                                chain_levels,
                                hole_levels: 0,
                            };
                        }
                        WalkOutcome::Corrupt(_) => {
                            break RunTranslation {
                                outcome: Translated::Corrupt,
                                at: t_walk,
                                pipeline_free,
                                run: 1,
                                chain_levels,
                                hole_levels: 0,
                            };
                        }
                    }
                }
            };
            match self.functions[level.0 as usize].parent {
                Some(parent) => {
                    // The child's "physical" block is the parent's virtual
                    // block; bounds-check against the parent's device size
                    // and recurse up the chain.
                    let psize = self.functions[parent.0 as usize].regs.device_size_blocks;
                    let parent_vlba = next.nested_vlba();
                    if parent_vlba >= Vlba(psize) {
                        break RunTranslation {
                            outcome: Translated::BeyondParent,
                            at: t_done,
                            pipeline_free,
                            run: 1,
                            chain_levels,
                            hole_levels: 0,
                        };
                    }
                    run = run.min(Vlba(psize).distance_from(parent_vlba));
                    level = parent;
                    lba = parent_vlba;
                    t = t_done;
                }
                None => {
                    break RunTranslation {
                        outcome: Translated::Mapped(next),
                        at: t_done,
                        pipeline_free,
                        run: self.rebound_run(run, &chain),
                        chain_levels,
                        hole_levels: 0,
                    };
                }
            }
        };
        self.chain_scratch = chain;
        let (run, levels) = (result.run, result.chain_levels);
        self.probe
            .report(Obs::Translate(run, levels, ready, result.at));
        result
    }

    /// Re-bounds a run after the whole chain has resolved: blocks past the
    /// first only hit the BTLB if every visited level *still* caches an
    /// entry consistent with the first block's translation — a small cache
    /// can evict an early level's entry while a later level walks (the
    /// historical per-block loop then re-walked every block, and a run
    /// must not paper over that), and a zero-capacity BTLB caches nothing
    /// at all. Returns 1 when batching would diverge from per-block
    /// behavior.
    fn rebound_run(&self, mut run: u64, chain: &[(u16, Vlba, Plba)]) -> u64 {
        if run <= 1 {
            return run.max(1);
        }
        if !chain.is_empty() && self.btlb.capacity() == 0 {
            // BTLB-ablation fast path: a zero-capacity cache holds
            // nothing, so every probe below would miss — identical
            // outcome, none of the probe cost.
            return 1;
        }
        for &(f, lba, plba) in chain {
            match self.btlb.covered_at(f, lba.offset(1)) {
                Some((p, covered)) if p == plba.offset(1) => run = run.min(1 + covered),
                _ => return 1,
            }
        }
        run
    }

    /// Runs the chained tree-node DMAs of one walk on the least-loaded walk
    /// slot; returns when the walk resolves. `miss` names the nesting
    /// level and vLBA byte offset of the BTLB miss that caused the walk
    /// (`None` for a hole re-walk). Every walk the device makes passes
    /// here once, so this is where walks are counted.
    ///
    /// Each level costs one host-memory read round trip plus the node's
    /// wire time. The slot is occupied for the whole chain, so the number
    /// of slots (`walk_overlap`) bounds concurrent walks — the latency-
    /// hiding mechanism of §V-B. Tree-node traffic is a few percent of
    /// data traffic (512 B per level vs 1 KiB per block), so its link
    /// *occupancy* is folded into the per-level latency rather than
    /// contending on the link timeline.
    fn run_walk_dmas(&mut self, ready: SimTime, levels: u32, miss: Option<(u32, u64)>) -> SimTime {
        let per_level = self.cfg.link.read_round_trip
            + self.cfg.link.wire_time(self.cfg.tree_node_bytes)
            + self.cfg.walk_level_processing;
        let slot = self.walk_slots.iter_mut().min_by_key(|s| s.free_at());
        debug_assert!(slot.is_some(), "walk_overlap >= 1");
        // A degenerate config with zero walk slots charges nothing.
        let end = slot.map_or(ready, |s| s.serve(ready, per_level * levels as u64).end);
        self.probe.report(Obs::Walk(levels, miss, ready, end));
        end
    }

    /// Moves `blocks` consecutive blocks between the store and host memory
    /// — the wall-clock half of a run transfer. Bytes move in a single
    /// copy per contiguous span: reads render each written span of a store
    /// chunk straight into the backing host pages, writes DMA host bytes
    /// straight into each chunk's destination; no staging buffer in
    /// between, and one store probe per chunk the run touches. `Err`
    /// carries the store's typed error for an invalid physical range
    /// (corrupt tree / bad PF request); the range is validated atomically
    /// up front and nothing simulated happens here.
    fn move_run_data(
        &mut self,
        op: BlockOp,
        plba: Plba,
        buf: HostAddr,
        block_index: u64,
        blocks: u64,
    ) -> Result<(), StoreError> {
        let host_addr = buf + block_index * BLOCK_SIZE;
        match op {
            BlockOp::Read => {
                let store = &self.store;
                let mut mem = self.mem.borrow_mut();
                if !store.maybe_written_in(plba, blocks) {
                    // The whole run is provably unwritten: one sparse
                    // zero-fill (per destination page) and no store probe.
                    store.check_range(plba, blocks)?;
                    mem.fill_zero(host_addr, blocks * BLOCK_SIZE);
                    return Ok(());
                }
                store.read_run(plba, blocks, |first, n, data| {
                    let a = host_addr + first * BLOCK_SIZE;
                    match data {
                        // Written blocks move their actual bytes; reading
                        // never-written (all-zero) blocks zero-fills
                        // sparsely, so untouched destination pages stay
                        // unmaterialized.
                        Some(bytes) => mem.write(a, bytes),
                        None => mem.fill_zero(a, n * BLOCK_SIZE),
                    }
                })
            }
            BlockOp::Write => {
                let mem = self.mem.borrow();
                self.store.write_run(plba, blocks, |first, dst| {
                    mem.read(host_addr + first * BLOCK_SIZE, dst)
                })
            }
        }
    }

    /// The simulated-timing half of a run's transfer: media, DMA engine,
    /// and link occupancy for every block, in the same unit order as
    /// always. `times[j]` holds block `j`'s ready (translation-done) time
    /// on entry and its end-to-end completion time on return.
    ///
    /// Each unit is an independent FIFO timeline and the data only flows
    /// forward (media → engine → link for reads, link → engine → media for
    /// writes), so running one unit over the whole run before the next
    /// unit produces intervals identical to the historical per-block
    /// interleaving — while paying each unit's fixed costs once per run
    /// instead of once per block.
    fn transfer_run_timing(&mut self, op: BlockOp, plba: Plba, times: &mut [SimTime]) {
        let offset = plba.byte_offset();
        match op {
            BlockOp::Read => {
                self.probe.pass(Obs::MediaPass, BLOCK_SIZE, times, |t| {
                    self.media.access_run(op, offset, BLOCK_SIZE, BLOCK_SIZE, t)
                });
                self.engine_read.transfer_run(BLOCK_SIZE, times);
                self.probe.pass(Obs::DmaWrite, BLOCK_SIZE, times, |t| {
                    self.link.dma_write_run(BLOCK_SIZE, t)
                });
            }
            BlockOp::Write => {
                self.probe.pass(Obs::DmaRead, BLOCK_SIZE, times, |t| {
                    self.link.dma_read_run(BLOCK_SIZE, t)
                });
                self.engine_write.transfer_run(BLOCK_SIZE, times);
                self.probe.pass(Obs::MediaPass, BLOCK_SIZE, times, |t| {
                    self.media.access_run(op, offset, BLOCK_SIZE, BLOCK_SIZE, t)
                });
            }
        }
    }

    /// Length of the unmapped vLBA run starting at `vlba`, capped at
    /// `max_blocks` — what the device reports in `MissSize`. Hole spans
    /// come back from a single walk each instead of one walk per block.
    fn unmapped_run(&self, root: HostAddr, vlba: Vlba, max_blocks: u64) -> u64 {
        let mem = self.mem.borrow();
        let mut run = 0;
        while run < max_blocks {
            let wr = walk_run(&mem, root, vlba.offset(run), max_blocks - run);
            match wr.result.outcome {
                WalkOutcome::Hole => run += wr.run,
                WalkOutcome::Pruned { .. } => run += 1,
                _ => break,
            }
        }
        run.min(max_blocks).max(1)
    }

    /// Parks `pending` at block `resume_block` (stalled `restalls` times
    /// in a row there) and interrupts the owner of `level`'s tree — or,
    /// past [`MAX_RESTALLS`], fails the request instead.
    fn stall(
        &mut self,
        func: FuncId,
        level: FuncId,
        pending: PendingRequest,
        (resume_block, restalls): (u64, u32),
        at: SimTime,
        reason: IrqReason,
    ) {
        if restalls > MAX_RESTALLS {
            self.complete(at, func, pending.req, CompletionStatus::DeviceError);
            return;
        }
        let vlba_bytes = match reason {
            IrqReason::WriteMiss { miss_vlba, .. } => miss_vlba.byte_offset(),
            IrqReason::MappingPruned { vlba } => vlba.byte_offset(),
        };
        let miss_bytes = match reason {
            IrqReason::WriteMiss { miss_blocks, .. } => miss_blocks * BLOCK_SIZE,
            IrqReason::MappingPruned { .. } => BLOCK_SIZE,
        };
        // The miss registers live on the *level* whose tree missed (for a
        // plain VF that is the requester itself).
        let lvl = &mut self.functions[level.0 as usize];
        lvl.regs.miss_address = vlba_bytes;
        lvl.regs.miss_size = miss_bytes.min(u32::MAX as u64) as u32;
        self.stall = Some(Stall {
            requester: func,
            level,
            pending,
            resume_block,
            restalls,
        });
        let at = at + self.cfg.interrupt_cost;
        self.outputs.push(NescOutput::HostInterrupt {
            at,
            func: level,
            reason,
        });
        self.probe.report(Obs::DeviceStalled(at));
    }

    /// Ends a request the device took: its completion interrupt fires
    /// `interrupt_cost` after `at`, and an OK one credits its function
    /// with its blocks.
    fn complete(&mut self, at: SimTime, func: FuncId, req: BlockRequest, status: CompletionStatus) {
        let moved = (status == CompletionStatus::Ok).then(|| {
            self.func_stats.credit(func.0 as usize, 1, req.block_count);
            (req.op == BlockOp::Write, req.block_count)
        });
        let at = at + self.cfg.interrupt_cost;
        self.respond(at, func, req.id, status, moved);
    }

    /// Rejects a submission the device cannot take (an unknown or dead
    /// function, a malformed ring descriptor): it fails at `at`, with no
    /// interrupt cost.
    fn reject(&mut self, at: SimTime, func: FuncId, id: RequestId) {
        self.respond(at, func, id, CompletionStatus::DeviceError, None);
    }

    /// Emits a completion and reports it; `moved` is an OK request's
    /// `(write, blocks)`.
    fn respond(
        &mut self,
        at: SimTime,
        func: FuncId,
        id: RequestId,
        status: CompletionStatus,
        moved: Option<(bool, u64)>,
    ) {
        self.outputs.push(NescOutput::Completion {
            at,
            func,
            id,
            status,
        });
        self.probe.report(Obs::DeviceDone(moved, at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_extent::{ExtentMapping, ExtentTree};

    const HORIZON: SimTime = SimTime::from_nanos(u64::MAX / 2);

    fn setup() -> (Rc<RefCell<HostMemory>>, NescDevice) {
        let mem = Rc::new(RefCell::new(HostMemory::new()));
        let mut cfg = NescConfig::prototype();
        cfg.capacity_blocks = 4096; // keep tests light
        let dev = NescDevice::new(cfg, Rc::clone(&mem));
        (mem, dev)
    }

    fn make_vf(
        mem: &Rc<RefCell<HostMemory>>,
        dev: &mut NescDevice,
        extents: &[ExtentMapping],
        size_blocks: u64,
    ) -> FuncId {
        let tree: ExtentTree = extents.iter().copied().collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        dev.create_vf(root, size_blocks).unwrap()
    }

    fn alloc_buf(mem: &Rc<RefCell<HostMemory>>, blocks: u64) -> HostAddr {
        mem.borrow_mut().alloc(blocks * BLOCK_SIZE, 8)
    }

    #[test]
    fn vf_write_lands_on_mapped_physical_blocks() {
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(100), 8)],
            8,
        );
        let buf = alloc_buf(&mem, 2);
        mem.borrow_mut().write(buf, &[0xCD; 2048]);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(1), BlockOp::Write, Vlba(2), 2),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            })
        ));
        // vLBA 2,3 -> pLBA 102,103.
        assert_eq!(dev.store().read_block(Plba(102)).unwrap(), vec![0xCD; 1024]);
        assert_eq!(dev.store().read_block(Plba(103)).unwrap(), vec![0xCD; 1024]);
        assert!(!dev.store().is_written(Plba(100)));
    }

    #[test]
    fn vf_read_returns_mapped_data_and_zeros_for_holes() {
        let (mem, mut dev) = setup();
        // Map only vLBA 0; vLBA 1 is a hole.
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(50), 1)],
            8,
        );
        dev.store_mut()
            .write_block(Plba(50), &vec![0xEE; 1024])
            .unwrap();
        let buf = alloc_buf(&mem, 2);
        // Pre-poison the buffer to prove zero-fill really writes zeros.
        mem.borrow_mut().write(buf, &[0xFF; 2048]);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(2), BlockOp::Read, Vlba(0), 2),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert_eq!(outs.len(), 1);
        let got = mem.borrow().read_vec(buf, 2048);
        assert!(got[..1024].iter().all(|&b| b == 0xEE));
        assert!(got[1024..].iter().all(|&b| b == 0x00));
        assert_eq!(dev.stats().zero_fill_blocks, 1);
    }

    #[test]
    fn write_miss_interrupts_and_rewalk_resumes() {
        let (mem, mut dev) = setup();
        // Empty tree: every write misses.
        let vf = make_vf(&mem, &mut dev, &[], 8);
        let buf = alloc_buf(&mem, 1);
        mem.borrow_mut().write(buf, &[0x11; 1024]);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(3), BlockOp::Write, Vlba(4), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        let irq = outs
            .iter()
            .find_map(|o| match o {
                NescOutput::HostInterrupt { at, reason, .. } => Some((*at, *reason)),
                _ => None,
            })
            .expect("write to empty tree must interrupt the host");
        match irq.1 {
            IrqReason::WriteMiss {
                miss_vlba,
                miss_blocks,
            } => {
                assert_eq!(miss_vlba, Vlba(4));
                assert_eq!(miss_blocks, 1);
            }
            other => panic!("wrong irq {other:?}"),
        }
        // Registers reflect the miss.
        assert_eq!(dev.mmio_read(vf, offsets::MISS_ADDRESS), 4 * 1024);
        assert_eq!(dev.mmio_read(vf, offsets::MISS_SIZE), 1024);

        // Hypervisor allocates pLBA 200 for vLBA 4 and rebuilds the tree.
        let tree: ExtentTree = [ExtentMapping::new(Vlba(4), Plba(200), 1)]
            .into_iter()
            .collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        let resume_at = irq.0 + SimDuration::from_micros(20);
        dev.mmio_write(vf, offsets::EXTENT_TREE_ROOT, root, resume_at);
        dev.mmio_write(vf, offsets::REWALK_TREE, 1, resume_at);

        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            })
        ));
        assert_eq!(dev.store().read_block(Plba(200)).unwrap(), vec![0x11; 1024]);
        assert_eq!(dev.stats().miss_interrupts, 1);
    }

    #[test]
    fn failed_allocation_completes_with_write_failure() {
        let (mem, mut dev) = setup();
        let vf = make_vf(&mem, &mut dev, &[], 8);
        let buf = alloc_buf(&mem, 1);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(4), BlockOp::Write, Vlba(0), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        let irq_at = outs
            .iter()
            .find(|o| !o.is_completion())
            .expect("interrupt")
            .at();
        dev.fail_stalled(vf, irq_at + SimDuration::from_micros(5));
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::WriteFailed,
                ..
            })
        ));
    }

    #[test]
    fn a_failed_stall_counts_once_and_closes_no_span() {
        use nesc_sim::{FlightHandle, Tracer};
        let (mem, mut dev) = setup();
        dev.set_probe(Probe::new(Tracer::enabled(), FlightHandle::disabled()));
        let vf = make_vf(&mem, &mut dev, &[], 8);
        let buf = alloc_buf(&mem, 1);
        let req = BlockRequest::new(RequestId(4), BlockOp::Write, Vlba(0), 1);
        dev.submit(SimTime::ZERO, vf, req, buf);
        let outs = dev.advance(HORIZON);
        let irq_at = outs.iter().find(|o| !o.is_completion()).expect("irq").at();
        let failed_at = irq_at + SimDuration::from_micros(5);
        dev.fail_stalled(vf, failed_at);
        let outs = dev.advance(HORIZON);
        let done = failed_at + dev.config().interrupt_cost;
        assert_eq!(outs.iter().map(NescOutput::at).collect::<Vec<_>>(), [done]);
        let s = dev.stats();
        assert_eq!((s.miss_interrupts, s.requests_failed), (1, 1));
        assert_eq!((s.requests_completed, s.blocks_written), (0, 0));
        assert_eq!(
            dev.function_counters(vf),
            (0, 0),
            "a failed write moves nothing"
        );
        // The stall closed the device span; the failure leaves it be.
        let spans = dev.probe.tracer().take_spans();
        let device = spans.iter().find(|sp| sp.name() == "device").expect("span");
        assert_eq!(
            (device.end, device.attr(nesc_sim::AttrKey::Stalled)),
            (irq_at, Some(1))
        );
        assert!(spans.iter().all(|sp| sp.end <= irq_at));
    }

    #[test]
    fn out_of_range_rejected() {
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 4)],
            4,
        );
        let buf = alloc_buf(&mem, 1);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(5), BlockOp::Read, Vlba(4), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs[0],
            NescOutput::Completion {
                status: CompletionStatus::OutOfRange,
                ..
            }
        ));
    }

    #[test]
    fn pf_bypasses_translation() {
        let (mem, mut dev) = setup();
        let buf = alloc_buf(&mem, 1);
        mem.borrow_mut().write(buf, &[0x77; 1024]);
        dev.submit_pf(
            SimTime::ZERO,
            BlockRequest::new(RequestId(6), BlockOp::Write, Plba(9), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(outs[0].is_completion());
        assert_eq!(dev.store().read_block(Plba(9)).unwrap(), vec![0x77; 1024]);
        assert_eq!(dev.stats().oob_requests, 1);
        assert_eq!(dev.stats().walks, 0, "PF never walks a tree");
    }

    #[test]
    fn a_run_read_leaves_the_never_written_part_unmaterialized() {
        let (mem, mut dev) = setup();
        // One 16-block chunk: blocks 0..4 (the first destination page) and
        // block 12 (in the last page) written, the rest never written.
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(32), 16)],
            16,
        );
        let bs = BLOCK_SIZE as usize;
        dev.store_mut()
            .write_range(Plba(32), &[0xAB; 4 * 1024])
            .unwrap();
        dev.store_mut()
            .write_block(Plba(44), &[0xCD; 1024])
            .unwrap();
        let buf = mem.borrow_mut().alloc(16 * BLOCK_SIZE, 4096);
        let pages = mem.borrow().resident_pages();
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(0), 16),
            buf,
        );
        assert!(dev.advance(HORIZON)[0].is_completion());
        assert_eq!(
            mem.borrow().resident_pages(),
            pages + 2,
            "only the two pages holding written blocks materialize"
        );
        let got = mem.borrow().read_vec(buf, 16 * bs);
        assert!(got[..4 * bs].iter().all(|&b| b == 0xAB));
        assert!(got[4 * bs..12 * bs].iter().all(|&b| b == 0));
        assert!(got[12 * bs..13 * bs].iter().all(|&b| b == 0xCD));
        assert!(got[13 * bs..].iter().all(|&b| b == 0));
    }

    #[test]
    fn pf_progresses_while_vf_stalled() {
        let (mem, mut dev) = setup();
        let vf = make_vf(&mem, &mut dev, &[], 8);
        let buf = alloc_buf(&mem, 1);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(7), BlockOp::Write, Vlba(0), 1),
            buf,
        );
        let _ = dev.advance(HORIZON); // VF now stalled
                                      // The PF's OOB channel still works.
        let pf_buf = alloc_buf(&mem, 1);
        dev.submit_pf(
            SimTime::from_nanos(1_000_000),
            BlockRequest::new(RequestId(8), BlockOp::Read, Plba(0), 1),
            pf_buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(outs.iter().any(|o| matches!(
            o,
            NescOutput::Completion {
                id: RequestId(8),
                status: CompletionStatus::Ok,
                ..
            }
        )));
        // ...but another VF's traffic is blocked behind the stall.
        let vf2 = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(300), 1)],
            1,
        );
        dev.submit(
            SimTime::from_nanos(2_000_000),
            vf2,
            BlockRequest::new(RequestId(9), BlockOp::Read, Vlba(0), 1),
            pf_buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(
            !outs.iter().any(|o| matches!(
                o,
                NescOutput::Completion {
                    id: RequestId(9),
                    ..
                }
            )),
            "VF traffic must wait for the stall to resolve"
        );
    }

    #[test]
    fn isolation_vfs_cannot_touch_each_others_blocks() {
        let (mem, mut dev) = setup();
        let vf_a = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(100), 4)],
            4,
        );
        let vf_b = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(200), 4)],
            4,
        );
        let buf = alloc_buf(&mem, 4);
        mem.borrow_mut().write(buf, &[0xAA; 4096]);
        dev.submit(
            SimTime::ZERO,
            vf_a,
            BlockRequest::new(RequestId(10), BlockOp::Write, Vlba(0), 4),
            buf,
        );
        let buf_b = alloc_buf(&mem, 4);
        mem.borrow_mut().write(buf_b, &[0xBB; 4096]);
        dev.submit(
            SimTime::ZERO,
            vf_b,
            BlockRequest::new(RequestId(11), BlockOp::Write, Vlba(0), 4),
            buf_b,
        );
        dev.advance(HORIZON);
        for b in 100..104 {
            assert_eq!(dev.store().read_block(Plba(b)).unwrap(), vec![0xAA; 1024]);
        }
        for b in 200..204 {
            assert_eq!(dev.store().read_block(Plba(b)).unwrap(), vec![0xBB; 1024]);
        }
    }

    #[test]
    fn round_robin_interleaves_functions() {
        let (mem, mut dev) = setup();
        let vf_a = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(100), 64)],
            64,
        );
        let vf_b = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(400), 64)],
            64,
        );
        let buf = alloc_buf(&mem, 1);
        // Queue 4 single-block reads on each VF at t=0, then check the
        // completion order alternates A/B rather than draining A first.
        for i in 0..4u64 {
            dev.submit(
                SimTime::ZERO,
                vf_a,
                BlockRequest::new(RequestId(100 + i), BlockOp::Read, Vlba(i), 1),
                buf,
            );
            dev.submit(
                SimTime::ZERO,
                vf_b,
                BlockRequest::new(RequestId(200 + i), BlockOp::Read, Vlba(i), 1),
                buf,
            );
        }
        let outs = dev.advance(HORIZON);
        let order: Vec<u64> = outs
            .iter()
            .filter_map(|o| match o {
                NescOutput::Completion { id, .. } => Some(id.0 / 100),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2, 1, 2], "strict alternation");
    }

    #[test]
    fn btlb_caches_sequential_translations() {
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 128)],
            128,
        );
        let buf = alloc_buf(&mem, 128);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(0), 128),
            buf,
        );
        dev.advance(HORIZON);
        // One walk for the first block, 127 BTLB hits after it.
        assert_eq!(dev.stats().walks, 1);
        assert_eq!(dev.btlb().hits(), 127);
    }

    #[test]
    fn vf_lifecycle_and_slot_reuse() {
        let (mem, mut dev) = setup();
        let a = make_vf(&mem, &mut dev, &[], 1);
        assert_eq!(dev.live_vfs(), 1);
        dev.delete_vf(a, SimTime::ZERO).unwrap();
        assert_eq!(dev.live_vfs(), 0);
        let b = make_vf(&mem, &mut dev, &[], 1);
        assert_eq!(a, b, "dead slot is reused");
        assert!(matches!(
            dev.delete_vf(dev.pf(), SimTime::ZERO),
            Err(VfError::NotAVf)
        ));
        assert!(matches!(
            dev.delete_vf(FuncId(40), SimTime::ZERO),
            Err(VfError::NoSuchVf { .. })
        ));
        // Submitting to a deleted VF produces an error completion.
        dev.delete_vf(b, SimTime::ZERO).unwrap();
        let buf = alloc_buf(&mem, 1);
        dev.submit(
            SimTime::ZERO,
            b,
            BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(0), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs[0],
            NescOutput::Completion {
                status: CompletionStatus::DeviceError,
                ..
            }
        ));
    }

    #[test]
    fn rejected_submissions_count_as_failed() {
        use crate::ring::{RingDescriptor, DESCRIPTOR_BYTES};
        use nesc_sim::{FlightHandle, Tracer};
        let (mem, mut dev) = setup();
        dev.set_probe(Probe::new(Tracer::enabled(), FlightHandle::disabled()));
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 8)],
            8,
        );
        let dead = make_vf(&mem, &mut dev, &[], 1);
        dev.delete_vf(dead, SimTime::ZERO).unwrap();
        let buf = alloc_buf(&mem, 2);
        let t = SimTime::from_nanos(1000);
        let req = BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(0), 1);
        dev.submit(t, dead, req, buf);
        // A ring descriptor whose range wraps the vLBA space.
        let ring_base = mem.borrow_mut().alloc(2 * DESCRIPTOR_BYTES, 4096);
        dev.mmio_write(vf, offsets::RING_BASE, ring_base, SimTime::ZERO);
        dev.mmio_write(vf, offsets::RING_ENTRIES, 2, SimTime::ZERO);
        let bad = RingDescriptor::new(BlockOp::Read, RequestId(2), Vlba(u64::MAX), 2, buf);
        mem.borrow_mut().write(ring_base, &bad.encode());
        dev.mmio_write(vf, offsets::RING_TAIL, 1, t);
        let outs: Vec<_> = dev
            .advance(HORIZON)
            .into_iter()
            .filter_map(|o| match o {
                NescOutput::Completion { at, id, status, .. } => Some((at, id.0, status)),
                NescOutput::HostInterrupt { .. } => None,
            })
            .collect();
        // Both fail where they were rejected, with no interrupt cost: the
        // dead function's at submission, the descriptor once its fetch
        // lands.
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], (t, 1, CompletionStatus::DeviceError));
        let (fetched, id, status) = outs[1];
        let fetch = dev.probe.tracer().take_spans();
        assert_eq!((fetch.len(), fetch[0].name()), (1, "dma_read"));
        assert_eq!(fetched, fetch[0].end, "no interrupt cost after the fetch");
        assert_eq!((id, status), (2, CompletionStatus::DeviceError));
        let stats = dev.stats();
        assert_eq!((stats.requests_failed, stats.requests_completed), (2, 0));
    }

    #[test]
    fn undecodable_ring_descriptor_completes_with_an_error() {
        use crate::ring::{RingDescriptor, DESCRIPTOR_BYTES};
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 8)],
            8,
        );
        let buf = alloc_buf(&mem, 1);
        let ring_base = mem.borrow_mut().alloc(2 * DESCRIPTOR_BYTES, 4096);
        dev.mmio_write(vf, offsets::RING_BASE, ring_base, SimTime::ZERO);
        dev.mmio_write(vf, offsets::RING_ENTRIES, 2, SimTime::ZERO);
        // Opcode 9 names no operation.
        let mut bad = RingDescriptor::new(BlockOp::Read, RequestId(7), Vlba(0), 1, buf).encode();
        bad[0] = 9;
        mem.borrow_mut().write(ring_base, &bad);
        dev.mmio_write(vf, offsets::RING_TAIL, 1, SimTime::ZERO);
        let outs: Vec<_> = dev
            .advance(HORIZON)
            .into_iter()
            .filter_map(|o| match o {
                NescOutput::Completion { id, status, .. } => Some((id.0, status)),
                NescOutput::HostInterrupt { .. } => None,
            })
            .collect();
        assert_eq!(outs, vec![(7, CompletionStatus::DeviceError)]);
        assert_eq!(dev.stats().requests_failed, 1);
    }

    #[test]
    fn vf_exhaustion() {
        let (mem, mut dev) = setup();
        let root = ExtentTree::new().serialize(&mut mem.borrow_mut());
        for _ in 0..dev.config().max_vfs {
            dev.create_vf(root, 1).unwrap();
        }
        assert!(matches!(
            dev.create_vf(root, 1),
            Err(VfError::Exhausted { max_vfs: 64 })
        ));
    }

    /// Over a seeded run of creates, nested creates and deletes (a
    /// delete cascades to nested children): the live count equals a count
    /// of the table, a create takes the lowest dead slot (or a new one),
    /// and the table is exhausted at `max_vfs` live VFs however it got
    /// there.
    #[test]
    fn vf_slots_track_the_table() {
        let (mem, mut dev) = setup();
        let root = ExtentTree::new().serialize(&mut mem.borrow_mut());
        let max = dev.config().max_vfs;
        let mut rng = nesc_sim::SimRng::seed(35);
        let (mut exhausted, mut nested, mut reused) = (0, 0, 0);
        for step in 0..2_000 {
            let live: Vec<FuncId> = (1..dev.functions.len())
                .filter(|&i| dev.functions[i].alive)
                .map(|i| FuncId(i as u16))
                .collect();
            // Grow to the limit, then shrink and regrow.
            let create = rng.range(0, 100) < if step % 400 < 250 { 80 } else { 30 };
            if create || live.is_empty() {
                let lowest_dead = (1..dev.functions.len()).find(|&i| !dev.functions[i].alive);
                let want = lowest_dead.unwrap_or(dev.functions.len());
                let got = match live.get(rng.range(0, live.len() as u64 + 1) as usize) {
                    Some(&parent) if rng.range(0, 3) == 0 => {
                        nested += 1;
                        dev.create_nested_vf(parent, root, 1)
                    }
                    _ => dev.create_vf(root, 1),
                };
                match got {
                    Ok(f) => {
                        assert_eq!(f.0 as usize, want, "step {step}: the lowest free slot");
                        reused += usize::from(lowest_dead.is_some());
                    }
                    Err(e) => {
                        assert_eq!(e, VfError::Exhausted { max_vfs: max });
                        assert_eq!(live.len(), max as usize, "step {step}");
                        exhausted += 1;
                    }
                }
            } else {
                let victim = live[rng.range(0, live.len() as u64) as usize];
                dev.delete_vf(victim, SimTime::ZERO).unwrap();
            }
            let counted = dev.functions[1..].iter().filter(|f| f.alive).count();
            assert_eq!(dev.live_vfs() as usize, counted, "step {step}");
        }
        assert!(exhausted > 0 && nested > 0 && reused > 0);
    }

    #[test]
    fn shared_tree_between_vfs() {
        let (mem, mut dev) = setup();
        let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(500), 2)]
            .into_iter()
            .collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        let a = dev.create_vf(root, 2).unwrap();
        let b = dev.create_vf(root, 2).unwrap();
        let buf = alloc_buf(&mem, 1);
        mem.borrow_mut().write(buf, &[0x42; 1024]);
        dev.submit(
            SimTime::ZERO,
            a,
            BlockRequest::new(RequestId(1), BlockOp::Write, Vlba(0), 1),
            buf,
        );
        dev.advance(HORIZON);
        let rbuf = alloc_buf(&mem, 1);
        dev.submit(
            SimTime::from_nanos(1_000_000),
            b,
            BlockRequest::new(RequestId(2), BlockOp::Read, Vlba(0), 1),
            rbuf,
        );
        dev.advance(HORIZON);
        assert_eq!(mem.borrow().read_vec(rbuf, 1024), vec![0x42; 1024]);
    }

    #[test]
    fn read_latency_small_block_is_microseconds() {
        // Sanity-check the latency magnitude the Fig. 9 harness relies on:
        // a 1 KiB VF read should be on the order of a few microseconds.
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 4)],
            4,
        );
        let buf = alloc_buf(&mem, 1);
        let t0 = dev.ring_doorbell(SimTime::ZERO);
        dev.submit(
            t0,
            vf,
            BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(0), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        let lat = outs[0].at().saturating_since(SimTime::ZERO);
        assert!(
            lat > SimDuration::from_nanos(500) && lat < SimDuration::from_micros(20),
            "latency {lat}"
        );
    }

    #[test]
    fn sequential_read_bandwidth_near_engine_ceiling() {
        // Deep sequential reads should approach the 800 MB/s DMA-engine
        // ceiling of the prototype.
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 4000)],
            4000,
        );
        let buf = alloc_buf(&mem, 32);
        let total: u64 = 4000;
        let chunk = 32u64;
        let mut t = SimTime::ZERO;
        for c in 0..total / chunk {
            dev.submit(
                t,
                vf,
                BlockRequest::new(RequestId(c), BlockOp::Read, Vlba(c * chunk), chunk),
                buf,
            );
            t += SimDuration::from_nanos(1); // keep the queue deep
        }
        let outs = dev.advance(HORIZON);
        let end = outs.iter().map(NescOutput::at).max().unwrap();
        let bytes = total * BLOCK_SIZE;
        let mbps = bytes as f64 / 1e6 / end.as_secs_f64();
        assert!(
            mbps > 500.0 && mbps <= 810.0,
            "sequential read bandwidth {mbps:.0} MB/s"
        );
    }

    #[test]
    fn priority_classes_preempt_round_robin() {
        let (mem, mut dev) = setup();
        let hi = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 64)],
            64,
        );
        let lo = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(512), 64)],
            64,
        );
        dev.set_priority(hi, 0).unwrap();
        dev.set_priority(lo, 3).unwrap();
        let buf = alloc_buf(&mem, 1);
        // Queue the low-priority request *first*; the high-priority one
        // must still be dispatched ahead of it.
        dev.submit(
            SimTime::ZERO,
            lo,
            BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(0), 1),
            buf,
        );
        dev.submit(
            SimTime::ZERO,
            hi,
            BlockRequest::new(RequestId(2), BlockOp::Read, Vlba(0), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        let order: Vec<u64> = outs
            .iter()
            .filter_map(|o| match o {
                NescOutput::Completion { id, .. } => Some(id.0),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![2, 1], "high priority completes first");
    }

    #[test]
    fn equal_priority_falls_back_to_round_robin() {
        let (mem, mut dev) = setup();
        let a = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 8)],
            8,
        );
        let b = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(64), 8)],
            8,
        );
        let buf = alloc_buf(&mem, 1);
        for i in 0..3u64 {
            dev.submit(
                SimTime::ZERO,
                a,
                BlockRequest::new(RequestId(10 + i), BlockOp::Read, Vlba(i), 1),
                buf,
            );
            dev.submit(
                SimTime::ZERO,
                b,
                BlockRequest::new(RequestId(20 + i), BlockOp::Read, Vlba(i), 1),
                buf,
            );
        }
        let outs = dev.advance(HORIZON);
        let order: Vec<u64> = outs
            .iter()
            .filter_map(|o| match o {
                NescOutput::Completion { id, .. } => Some(id.0 / 10),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn function_counters_track_service() {
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 16)],
            16,
        );
        let buf = alloc_buf(&mem, 4);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(0), 4),
            buf,
        );
        dev.advance(HORIZON);
        assert_eq!(dev.function_counters(vf), (1, 4));
        assert_eq!(dev.function_counters(dev.pf()), (0, 0));
        // PF traffic is counted on the PF.
        dev.submit_pf(
            SimTime::from_nanos(1_000_000),
            BlockRequest::new(RequestId(2), BlockOp::Read, Plba(0), 2),
            buf,
        );
        dev.advance(HORIZON);
        assert_eq!(dev.function_counters(dev.pf()), (1, 2));
        // Unknown functions read as zero.
        assert_eq!(dev.function_counters(FuncId(99)), (0, 0));
    }

    #[test]
    fn set_priority_validates_target() {
        let (mem, mut dev) = setup();
        let vf = make_vf(&mem, &mut dev, &[], 1);
        assert!(dev.set_priority(vf, 2).is_ok());
        assert!(matches!(
            dev.set_priority(dev.pf(), 0),
            Err(VfError::NotAVf)
        ));
        assert!(matches!(
            dev.set_priority(FuncId(50), 0),
            Err(VfError::NoSuchVf { .. })
        ));
        // Priorities clamp to the supported class count.
        dev.set_priority(vf, 200).unwrap();
    }

    #[test]
    fn first_block_walks_and_the_rest_hit_the_btlb() {
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 64)],
            64,
        );
        let buf = alloc_buf(&mem, 4);
        let t0 = dev.ring_doorbell(SimTime::ZERO);
        let mut read = |id: u64, lba: u64| {
            let (walks0, hits0) = (dev.stats().walks, dev.btlb().hits());
            dev.submit(
                t0,
                vf,
                BlockRequest::new(RequestId(id), BlockOp::Read, Vlba(lba), 4),
                buf,
            );
            let outs = dev.advance(HORIZON);
            assert!(matches!(
                outs.as_slice(),
                [NescOutput::Completion { id: done, status: CompletionStatus::Ok, .. }]
                    if *done == RequestId(id)
            ));
            (dev.stats().walks - walks0, dev.btlb().hits() - hits0)
        };
        assert_eq!(read(1, 0), (1, 3), "first block walks, the rest hit");
        assert_eq!(read(2, 4), (0, 4), "the cached extent serves all four");
    }

    /// Serves a `blocks`-block read of `vf` at `lba` to completion and
    /// returns the walks it took.
    fn walks_to_read(
        (mem, dev): (&Rc<RefCell<HostMemory>>, &mut NescDevice),
        vf: FuncId,
        id: u64,
        lba: u64,
        blocks: u64,
    ) -> u64 {
        let walks0 = dev.stats().walks;
        let buf = alloc_buf(mem, blocks);
        let req = BlockRequest::new(RequestId(id), BlockOp::Read, Vlba(lba), blocks);
        // 10 ms apart: each request arrives at an idle device.
        dev.submit(SimTime::from_nanos(id * 10_000_000), vf, req, buf);
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.as_slice(),
            [NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            }]
        ));
        dev.stats().walks - walks0
    }

    #[test]
    fn flushing_one_function_keeps_the_others_translations() {
        let (mem, mut dev) = setup();
        let a = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 8)],
            8,
        );
        let b = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(8), 8)],
            8,
        );
        assert_eq!(walks_to_read((&mem, &mut dev), a, 1, 0, 2), 1);
        assert_eq!(walks_to_read((&mem, &mut dev), b, 2, 0, 2), 1);
        dev.flush_btlb_func(a);
        assert_eq!(
            walks_to_read((&mem, &mut dev), a, 3, 2, 2),
            1,
            "a's extent was dropped"
        );
        assert_eq!(
            walks_to_read((&mem, &mut dev), b, 4, 2, 2),
            0,
            "b's extent is still cached"
        );
    }

    #[test]
    fn a_global_flush_drops_every_functions_translations() {
        let (mem, mut dev) = setup();
        let a = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 8)],
            8,
        );
        let b = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(8), 8)],
            8,
        );
        walks_to_read((&mem, &mut dev), a, 1, 0, 1);
        walks_to_read((&mem, &mut dev), b, 2, 0, 1);
        dev.flush_btlb();
        assert_eq!(dev.btlb().len(), 0);
        assert_eq!(walks_to_read((&mem, &mut dev), a, 3, 1, 1), 1);
        assert_eq!(walks_to_read((&mem, &mut dev), b, 4, 1, 1), 1);
    }

    #[test]
    fn busy_time_probes_grow_with_served_work() {
        let (mem, mut dev) = setup();
        assert_eq!(dev.walk_slot_count(), dev.config().walk_overlap);
        assert_eq!(dev.walk_busy_time(), SimDuration::ZERO);
        assert_eq!(dev.media_busy_time(), SimDuration::ZERO);
        assert_eq!(dev.link_busy_time(), (SimDuration::ZERO, SimDuration::ZERO));
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 8)],
            8,
        );
        assert_eq!(walks_to_read((&mem, &mut dev), vf, 1, 0, 4), 1);
        let (walk, media, (up, _)) = (
            dev.walk_busy_time(),
            dev.media_busy_time(),
            dev.link_busy_time(),
        );
        assert!(walk > SimDuration::ZERO, "the miss walked the tree");
        assert!(media > SimDuration::ZERO);
        assert!(up > SimDuration::ZERO, "read data went up to the host");
        // A BTLB hit adds media and link time but no walk time.
        assert_eq!(walks_to_read((&mem, &mut dev), vf, 2, 4, 4), 0);
        assert_eq!(dev.walk_busy_time(), walk);
        assert!(dev.media_busy_time() > media);
        assert!(dev.link_busy_time().0 > up);
    }

    #[test]
    fn command_ring_end_to_end() {
        use crate::ring::{RingDescriptor, DESCRIPTOR_BYTES};
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 64)],
            64,
        );
        // Guest driver sets up an 8-slot ring.
        let ring_base = mem.borrow_mut().alloc(8 * DESCRIPTOR_BYTES, 4096);
        dev.mmio_write(vf, offsets::RING_BASE, ring_base, SimTime::ZERO);
        dev.mmio_write(vf, offsets::RING_ENTRIES, 8, SimTime::ZERO);
        // Two descriptors: a write then a read-back into another buffer.
        let wbuf = alloc_buf(&mem, 2);
        let rbuf = alloc_buf(&mem, 2);
        mem.borrow_mut().write(wbuf, &[0xC4; 2048]);
        let descs = [
            RingDescriptor::new(BlockOp::Write, RequestId(1), Vlba(4), 2, wbuf),
            RingDescriptor::new(BlockOp::Read, RequestId(2), Vlba(4), 2, rbuf),
        ];
        for (i, d) in descs.iter().enumerate() {
            mem.borrow_mut()
                .write(ring_base + i as u64 * DESCRIPTOR_BYTES, &d.encode());
        }
        // Doorbell: tail = 2.
        dev.mmio_write(vf, offsets::RING_TAIL, 2, SimTime::ZERO);
        let outs = dev.advance(HORIZON);
        let ok = outs
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    NescOutput::Completion {
                        status: CompletionStatus::Ok,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(ok, 2);
        assert_eq!(mem.borrow().read_vec(rbuf, 2048), vec![0xC4; 2048]);
        // The ring regs read back; head advanced internally.
        assert_eq!(dev.mmio_read(vf, offsets::RING_BASE), ring_base);
        assert_eq!(dev.mmio_read(vf, offsets::RING_ENTRIES), 8);
    }

    #[test]
    fn doorbell_without_configured_ring_is_harmless() {
        let (mem, mut dev) = setup();
        let vf = make_vf(&mem, &mut dev, &[], 8);
        dev.mmio_write(vf, offsets::RING_TAIL, 5, SimTime::ZERO);
        assert!(dev.advance(HORIZON).is_empty());
    }

    #[test]
    fn nested_vf_composes_translations() {
        let (mem, mut dev) = setup();
        // L1: parent VF maps its 32-block disk to pLBA 100..132.
        let parent = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(100), 32)],
            32,
        );
        // L2: the nested guest's hypervisor exposes parent blocks 8..16 as
        // a nested disk.
        let l2: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(8), 8)]
            .into_iter()
            .collect();
        let l2_root = l2.serialize(&mut mem.borrow_mut());
        let nested = dev.create_nested_vf(parent, l2_root, 8).unwrap();

        let buf = alloc_buf(&mem, 1);
        mem.borrow_mut().write(buf, &[0x2F; 1024]);
        dev.submit(
            SimTime::ZERO,
            nested,
            BlockRequest::new(RequestId(1), BlockOp::Write, Vlba(3), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            })
        ));
        // nested vLBA 3 -> parent vLBA 11 -> pLBA 111.
        assert_eq!(dev.store().read_block(Plba(111)).unwrap(), vec![0x2F; 1024]);
        // The nested VF cannot reach parent blocks outside its L2 tree:
        // vLBA 8 is out of its device size.
        dev.submit(
            SimTime::from_nanos(1_000_000),
            nested,
            BlockRequest::new(RequestId(2), BlockOp::Read, Vlba(8), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::OutOfRange,
                ..
            })
        ));
    }

    #[test]
    fn nested_vf_escape_beyond_parent_rejected() {
        let (mem, mut dev) = setup();
        let parent = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(100), 8)],
            8,
        );
        // Malicious L2 tree points past the parent's 8-block device.
        let evil: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(100), 4)]
            .into_iter()
            .collect();
        let root = evil.serialize(&mut mem.borrow_mut());
        let nested = dev.create_nested_vf(parent, root, 4).unwrap();
        let buf = alloc_buf(&mem, 1);
        dev.submit(
            SimTime::ZERO,
            nested,
            BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(0), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::OutOfRange,
                ..
            })
        ));
        // pLBA 100 was never touched.
        assert!(!dev.store().is_written(Plba(100)));
    }

    #[test]
    fn nested_parent_level_miss_interrupts_parent_and_resumes() {
        let (mem, mut dev) = setup();
        // Parent has an *empty* tree (thin L1 disk); nested maps into it.
        let parent = make_vf(&mem, &mut dev, &[], 32);
        let l2: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(4), 4)]
            .into_iter()
            .collect();
        let l2_root = l2.serialize(&mut mem.borrow_mut());
        let nested = dev.create_nested_vf(parent, l2_root, 4).unwrap();
        let buf = alloc_buf(&mem, 1);
        mem.borrow_mut().write(buf, &[0x3D; 1024]);
        dev.submit(
            SimTime::ZERO,
            nested,
            BlockRequest::new(RequestId(1), BlockOp::Write, Vlba(0), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        // The interrupt is attributed to the *parent* level whose tree
        // missed (nested vLBA 0 -> parent vLBA 4, unmapped).
        let (irq_func, at) = outs
            .iter()
            .find_map(|o| match o {
                NescOutput::HostInterrupt { func, at, .. } => Some((*func, *at)),
                _ => None,
            })
            .expect("parent-level miss");
        assert_eq!(irq_func, parent);
        assert_eq!(dev.mmio_read(parent, offsets::MISS_ADDRESS), 4 * 1024);
        // The host allocates parent vLBA 4 -> pLBA 200 and rewalks the
        // parent.
        let l1: ExtentTree = [ExtentMapping::new(Vlba(4), Plba(200), 1)]
            .into_iter()
            .collect();
        let l1_root = l1.serialize(&mut mem.borrow_mut());
        dev.mmio_write(parent, offsets::EXTENT_TREE_ROOT, l1_root, at);
        dev.mmio_write(parent, offsets::REWALK_TREE, 1, at);
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            })
        ));
        assert_eq!(dev.store().read_block(Plba(200)).unwrap(), vec![0x3D; 1024]);
    }

    #[test]
    fn a_failed_parent_level_miss_completes_and_frees_the_pipeline() {
        let (mem, mut dev) = setup();
        // Thin parent, nested disk mapped into it, and an unrelated VF.
        let parent = make_vf(&mem, &mut dev, &[], 32);
        let l2: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(4), 4)]
            .into_iter()
            .collect();
        let l2_root = l2.serialize(&mut mem.borrow_mut());
        let nested = dev.create_nested_vf(parent, l2_root, 4).unwrap();
        let other = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(300), 4)],
            4,
        );
        let buf = alloc_buf(&mem, 1);
        dev.submit(
            SimTime::ZERO,
            nested,
            BlockRequest::new(RequestId(1), BlockOp::Write, Vlba(0), 1),
            buf,
        );
        let outs = dev.advance(HORIZON);
        let Some(&NescOutput::HostInterrupt { at, func, .. }) = outs.last() else {
            panic!("parent-level miss must interrupt: {outs:?}");
        };
        assert_eq!(func, parent, "the interrupt names the level that missed");
        // Another VF's request queues behind the stalled pipeline.
        dev.submit(
            at,
            other,
            BlockRequest::new(RequestId(2), BlockOp::Read, Vlba(0), 1),
            buf,
        );
        assert_eq!(dev.advance(HORIZON), vec![], "the stall blocks the mux");
        // The host cannot allocate and answers on the function it was
        // interrupted for: the parent.
        dev.fail_stalled(func, at);
        let done: Vec<_> = dev
            .advance(HORIZON)
            .into_iter()
            .filter_map(|o| match o {
                NescOutput::Completion {
                    func, id, status, ..
                } => Some((func, id, status)),
                NescOutput::HostInterrupt { .. } => None,
            })
            .collect();
        assert_eq!(
            done,
            vec![
                (nested, RequestId(1), CompletionStatus::WriteFailed),
                (other, RequestId(2), CompletionStatus::Ok),
            ]
        );
        assert_eq!(dev.stats().requests_failed, 1);
    }

    #[test]
    fn a_stall_mid_run_counts_every_block_of_the_request() {
        let (mem, mut dev) = setup();
        // Only vLBA [0,2) is mapped: a 4-block write moves two blocks,
        // stalls at vLBA 2, and moves the other two after the rewalk.
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(100), 2)],
            8,
        );
        let buf = alloc_buf(&mem, 4);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(1), BlockOp::Write, Vlba(0), 4),
            buf,
        );
        let outs = dev.advance(HORIZON);
        let Some(&NescOutput::HostInterrupt { at, .. }) = outs.last() else {
            panic!("mid-request write miss must interrupt: {outs:?}");
        };
        let tree: ExtentTree = [
            ExtentMapping::new(Vlba(0), Plba(100), 2),
            ExtentMapping::new(Vlba(2), Plba(200), 2),
        ]
        .into_iter()
        .collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        dev.mmio_write(vf, offsets::EXTENT_TREE_ROOT, root, at);
        dev.mmio_write(vf, offsets::REWALK_TREE, 1, at);
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            })
        ));
        let counted = (dev.stats().blocks_written, dev.function_counters(vf));
        assert_eq!(counted, (4, (1, 4)), "(blocks_written, (requests, blocks))");
    }

    #[test]
    fn a_miss_the_host_never_repairs_fails_the_request() {
        let (mem, mut dev) = setup();
        // vLBA 4 of A is a hole: a write there misses, and the host below
        // answers every miss with `RewalkTree` without mapping it.
        let a = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(100), 2)],
            8,
        );
        let b = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(200), 2)],
            8,
        );
        let buf = alloc_buf(&mem, 2);
        dev.submit(
            SimTime::ZERO,
            a,
            BlockRequest::new(RequestId(1), BlockOp::Write, Vlba(4), 1),
            buf,
        );
        let mut outs = dev.advance(HORIZON);
        let Some(&NescOutput::HostInterrupt { at, .. }) = outs.first() else {
            panic!("a write into a hole must interrupt: {outs:?}");
        };
        // B's request queues behind A's parked one.
        dev.submit(
            at,
            b,
            BlockRequest::new(RequestId(2), BlockOp::Read, Vlba(0), 1),
            buf + BLOCK_SIZE,
        );
        let mut interrupts = 0;
        let mut done = Vec::new();
        while !outs.is_empty() {
            assert!(
                interrupts <= 4 * MAX_RESTALLS,
                "the parked request re-stalls forever"
            );
            for o in std::mem::take(&mut outs) {
                match o {
                    NescOutput::HostInterrupt { at, func, .. } => {
                        assert_eq!(func, a);
                        interrupts += 1;
                        dev.mmio_write(a, offsets::REWALK_TREE, 1, at);
                    }
                    NescOutput::Completion {
                        func, id, status, ..
                    } => done.push((func, id, status)),
                }
            }
            outs = dev.advance(HORIZON);
        }
        assert_eq!(
            interrupts,
            MAX_RESTALLS + 1,
            "the first stall, then the re-stalls"
        );
        assert_eq!(
            done,
            vec![
                (a, RequestId(1), CompletionStatus::DeviceError),
                (b, RequestId(2), CompletionStatus::Ok),
            ]
        );
        assert_eq!(dev.stats().requests_failed, 1);
    }

    #[test]
    fn deleting_parent_cascades_to_nested_children() {
        let (mem, mut dev) = setup();
        let parent = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 8)],
            8,
        );
        let l2 = ExtentTree::new().serialize(&mut mem.borrow_mut());
        let child = dev.create_nested_vf(parent, l2, 4).unwrap();
        assert_eq!(dev.live_vfs(), 2);
        dev.delete_vf(parent, SimTime::ZERO).unwrap();
        assert_eq!(dev.live_vfs(), 0);
        assert!(matches!(
            dev.delete_vf(child, SimTime::ZERO),
            Err(VfError::NoSuchVf { .. })
        ));
        // Nested creation under a dead parent fails.
        assert!(dev.create_nested_vf(parent, l2, 1).is_err());
    }

    #[test]
    fn deleting_a_vf_fails_its_parked_and_queued_requests_once() {
        let (mem, mut dev) = setup();
        // A thin VF, a nested child mapped into it, and an unrelated VF.
        let vf = make_vf(&mem, &mut dev, &[], 16);
        let l2: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(0), 4)]
            .into_iter()
            .collect();
        let l2_root = l2.serialize(&mut mem.borrow_mut());
        let child = dev.create_nested_vf(vf, l2_root, 4).unwrap();
        let other = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(300), 4)],
            4,
        );
        let buf = alloc_buf(&mem, 1);
        let req = |id, op| BlockRequest::new(RequestId(id), op, Vlba(0), 1);
        // Request 1 parks on a write miss...
        dev.submit(SimTime::ZERO, vf, req(1, BlockOp::Write), buf);
        let outs = dev.advance(HORIZON);
        let Some(&NescOutput::HostInterrupt { at, .. }) = outs.last() else {
            panic!("a write to a thin VF must interrupt: {outs:?}");
        };
        // ...and three queue behind it: two on the VF, one on its child.
        dev.submit(at, vf, req(2, BlockOp::Read), buf);
        dev.submit(at, vf, req(3, BlockOp::Write), buf);
        dev.submit(at, child, req(4, BlockOp::Read), buf);
        dev.submit(at, other, req(5, BlockOp::Read), buf);
        assert_eq!(dev.advance(HORIZON), vec![], "the stall blocks the mux");
        let gone = at + SimDuration::from_nanos(500);
        dev.delete_vf(vf, gone).unwrap();
        assert_eq!(dev.live_vfs(), 1, "the child went with its parent");
        let mut done: Vec<_> = dev
            .advance(HORIZON)
            .into_iter()
            .filter_map(|o| match o {
                NescOutput::Completion { id, status, .. } => Some((id.0, status)),
                NescOutput::HostInterrupt { .. } => None,
            })
            .collect();
        done.sort_by_key(|&(id, _)| id);
        let failed = CompletionStatus::DeviceError;
        assert_eq!(
            done,
            vec![
                (1, failed),
                (2, failed),
                (3, failed),
                (4, failed),
                (5, CompletionStatus::Ok),
            ],
            "one completion per request; the other VF no longer waits"
        );
        assert_eq!(dev.stats().requests_failed, 4);
        // The parked write never reached the media.
        assert_eq!(dev.store().resident_blocks(), 0);
    }

    #[test]
    fn next_event_time_reports_earliest() {
        let (mem, mut dev) = setup();
        assert_eq!(dev.next_event_time(), None);
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 1)],
            1,
        );
        let buf = alloc_buf(&mem, 1);
        dev.submit(
            SimTime::from_nanos(100),
            vf,
            BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(0), 1),
            buf,
        );
        assert_eq!(dev.next_event_time(), Some(SimTime::from_nanos(100)));
    }

    #[test]
    fn a_pending_mux_tick_is_never_pulled_earlier() {
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 4)],
            4,
        );
        let buf = alloc_buf(&mem, 4);
        let read = |id| BlockRequest::new(RequestId(id), BlockOp::Read, Vlba(0), 4);
        let t0 = SimTime::from_nanos(1_000);
        dev.submit(t0, vf, read(1), buf);
        // The first dispatch holds the mux for its split cost; the next
        // tick is scheduled at the mux's `svc.end`.
        assert!(dev.advance(t0).is_empty());
        assert_eq!(dev.ring_depth(vf), 0);
        let cfg = dev.config();
        let tick = t0 + cfg.mux_per_request + cfg.split_per_block * 4;
        assert_eq!(dev.next_event_time(), Some(tick));
        // A doorbell stamped before that tick leaves it where it is...
        dev.submit(t0 + SimDuration::from_nanos(10), vf, read(2), buf);
        assert_eq!(dev.next_event_time(), Some(tick));
        // ...so advancing to just before it dispatches nothing.
        assert!(dev
            .advance(SimTime::from_nanos(tick.as_nanos() - 1))
            .is_empty());
        assert_eq!(dev.ring_depth(vf), 1);
        dev.advance(tick);
        assert_eq!(dev.ring_depth(vf), 0);
    }

    #[test]
    fn a_tick_before_the_next_doorbell_sleeps_until_it_lands() {
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 4)],
            4,
        );
        let buf = alloc_buf(&mem, 4);
        let read = |id| BlockRequest::new(RequestId(id), BlockOp::Read, Vlba(0), 4);
        let t0 = SimTime::from_nanos(1_000);
        dev.submit(t0, vf, read(1), buf);
        dev.advance(t0);
        let cfg = dev.config();
        let tick = t0 + cfg.mux_per_request + cfg.split_per_block * 4;
        // A doorbell stamped after the pending tick: the tick fires with
        // nothing arrived and re-arms at the doorbell, not before.
        let late = tick + SimDuration::from_millis(1);
        dev.submit(late, vf, read(2), buf);
        assert_eq!(dev.next_event_time(), Some(tick));
        dev.advance(tick);
        assert_eq!(dev.mux_at, Some(late), "re-armed at the doorbell");
        let outs = dev.advance(SimTime::from_nanos(late.as_nanos() - 1));
        assert!(
            matches!(
                outs.as_slice(),
                [NescOutput::Completion {
                    id: RequestId(1),
                    ..
                }]
            ),
            "only the first request completes before the doorbell: {outs:?}"
        );
        assert_eq!(dev.ring_depth(vf), 1);
        assert_eq!(dev.next_event_time(), Some(late));
        dev.advance(late);
        assert_eq!(dev.ring_depth(vf), 0);
    }

    #[test]
    fn a_drained_mux_wakes_at_the_next_doorbell() {
        let (mem, mut dev) = setup();
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(0), 4)],
            4,
        );
        let buf = alloc_buf(&mem, 4);
        let read = |id| BlockRequest::new(RequestId(id), BlockOp::Read, Vlba(0), 4);
        dev.submit(SimTime::ZERO, vf, read(1), buf);
        assert_eq!(dev.advance(HORIZON).len(), 1);
        // The tick after the last dispatch found nothing and left no tick
        // pending.
        assert_eq!(dev.next_event_time(), None);
        let t1 = SimTime::from_nanos(500_000);
        dev.submit(t1, vf, read(2), buf);
        assert_eq!(dev.next_event_time(), Some(t1));
        assert!(dev.advance(t1).is_empty());
        assert_eq!(dev.ring_depth(vf), 0, "dispatched at its doorbell");
    }

    #[test]
    fn stepping_to_next_event_time_matches_one_advance() {
        fn loaded() -> NescDevice {
            let (mem, mut dev) = setup();
            let buf = alloc_buf(&mem, 8);
            for f in 0..3u64 {
                let vf = make_vf(
                    &mem,
                    &mut dev,
                    &[ExtentMapping::new(Vlba(0), Plba(200 * f), 64)],
                    64,
                );
                for i in 0..6u64 {
                    let op = if (f + i) % 2 == 0 {
                        BlockOp::Read
                    } else {
                        BlockOp::Write
                    };
                    let req = BlockRequest::new(RequestId(f * 10 + i), op, Vlba(8 * i), 1 + i);
                    dev.submit(SimTime::from_nanos(700 * i + 50 * f), vf, req, buf);
                }
            }
            dev
        }
        let mut whole = loaded();
        let expected = whole.advance(HORIZON);
        assert_eq!(expected.len(), 18);

        let mut stepped = loaded();
        let mut got = Vec::new();
        while let Some(t) = stepped.next_event_time() {
            got.extend(stepped.advance(t));
            // Everything at or before `t` has run: the next event, if
            // any, lies strictly later, so the loop always progresses.
            assert!(stepped.next_event_time().is_none_or(|n| n > t));
        }
        assert_eq!(got, expected);
        assert_eq!(stepped.stats(), whole.stats());
    }

    #[test]
    fn a_stalled_pipeline_parks_the_mux_until_the_rewalk() {
        let (mem, mut dev) = setup();
        let missing = make_vf(&mem, &mut dev, &[], 8);
        let mapped = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(300), 1)],
            1,
        );
        let buf = alloc_buf(&mem, 1);
        dev.submit(
            SimTime::ZERO,
            missing,
            BlockRequest::new(RequestId(1), BlockOp::Write, Vlba(0), 1),
            buf,
        );
        let irq_at = dev.advance(HORIZON).first().map(NescOutput::at).unwrap();
        // A doorbell on another VF arms a tick, which finds the pipeline
        // stalled and leaves the slot empty: nothing is pending.
        let t1 = irq_at + SimDuration::from_micros(5);
        dev.submit(
            t1,
            mapped,
            BlockRequest::new(RequestId(2), BlockOp::Read, Vlba(0), 1),
            buf,
        );
        assert_eq!(dev.next_event_time(), Some(t1));
        assert!(dev.advance(HORIZON).is_empty());
        assert_eq!(dev.next_event_time(), None);
        assert_eq!(dev.ring_depth(mapped), 1);

        // The rewalk resumes the stalled write and re-arms the mux.
        let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(200), 1)]
            .into_iter()
            .collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        let resume_at = t1 + SimDuration::from_micros(20);
        dev.mmio_write(missing, offsets::EXTENT_TREE_ROOT, root, resume_at);
        dev.mmio_write(missing, offsets::REWALK_TREE, 1, resume_at);
        assert_eq!(dev.next_event_time(), Some(resume_at));
        let done: Vec<u64> = dev
            .advance(HORIZON)
            .iter()
            .filter_map(|o| match o {
                NescOutput::Completion { id, status, .. } => {
                    assert_eq!(*status, CompletionStatus::Ok);
                    Some(id.0)
                }
                _ => None,
            })
            .collect();
        assert_eq!(done.len(), 2, "both requests complete: {done:?}");
        assert_eq!(dev.ring_depth(mapped), 0);
    }

    proptest::proptest! {
        /// Where a caller pauses does not change what the device does: a
        /// device advanced only once, after every doorbell, and a twin
        /// advanced between doorbells — to arbitrary points short of the
        /// next doorbell or through each `next_event_time` — emit the same
        /// outputs in the same order and end with the same counters.
        #[test]
        fn prop_advance_granularity_does_not_change_outputs(
            reqs in proptest::collection::vec(
                (0u16..3, 0u64..3_000, 0u64..56, 1u64..9, 0u8..2, 0u64..24),
                1..40,
            ),
        ) {
            let build = || {
                let (mem, mut dev) = setup();
                let buf = alloc_buf(&mem, 8);
                let vfs: Vec<FuncId> = (0..3u64)
                    .map(|f| {
                        make_vf(
                            &mem,
                            &mut dev,
                            &[ExtentMapping::new(Vlba(0), Plba(100 * f), 64)],
                            64,
                        )
                    })
                    .collect();
                (dev, vfs, buf)
            };
            let (mut whole, vfs, buf) = build();
            let (mut stepped, _, _) = build();
            let mut got = Vec::new();
            let mut now = SimTime::ZERO;
            for (i, &(f, gap, lba, blocks, write, pause)) in reqs.iter().enumerate() {
                let prev = now;
                now += SimDuration::from_nanos(gap);
                if now > prev {
                    // Pause strictly before the doorbell: a tick at its
                    // own time would otherwise run before it rings.
                    let short = now.as_nanos() - 1;
                    match pause / 8 {
                        1 => {
                            let span = short - prev.as_nanos();
                            let at = prev.as_nanos() + span * (pause % 8) / 8;
                            got.extend(stepped.advance(SimTime::from_nanos(at)));
                        }
                        2 => {
                            while let Some(t) = stepped
                                .next_event_time()
                                .filter(|t| t.as_nanos() <= short)
                            {
                                got.extend(stepped.advance(t));
                                let next = stepped.next_event_time();
                                proptest::prop_assert!(next.is_none_or(|n| n > t));
                            }
                        }
                        _ => {}
                    }
                }
                let op = if write == 1 { BlockOp::Write } else { BlockOp::Read };
                let req = BlockRequest::new(RequestId(i as u64), op, Vlba(lba), blocks);
                let vf = vfs[f as usize];
                whole.submit(now, vf, req, buf);
                stepped.submit(now, vf, req, buf);
            }
            got.extend(stepped.advance(HORIZON));
            let expected = whole.advance(HORIZON);
            proptest::prop_assert_eq!(expected.len(), reqs.len());
            proptest::prop_assert_eq!(got, expected);
            proptest::prop_assert_eq!(stepped.stats(), whole.stats());
            proptest::prop_assert_eq!(stepped.btlb().hits(), whole.btlb().hits());
        }
    }

    // --- Run-batching edge cases -------------------------------------

    #[test]
    fn run_splits_exactly_on_extent_boundary() {
        let (mem, mut dev) = setup();
        // Two adjacent vLBA extents with discontinuous physical targets:
        // a run may never cross the boundary.
        let vf = make_vf(
            &mem,
            &mut dev,
            &[
                ExtentMapping::new(Vlba(0), Plba(100), 4),
                ExtentMapping::new(Vlba(4), Plba(500), 4),
            ],
            8,
        );
        let buf = alloc_buf(&mem, 8);
        let mut pat = [0u8; 8 * 1024];
        for (k, chunk) in pat.chunks_mut(1024).enumerate() {
            chunk.fill(0xA0 + k as u8);
        }
        mem.borrow_mut().write(buf, &pat);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(21), BlockOp::Write, Vlba(0), 8),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            })
        ));
        // First run lands on pLBA 100..104, second on 500..504.
        for k in 0..4u64 {
            assert_eq!(
                dev.store().read_block(Plba(100 + k)).unwrap(),
                vec![0xA0 + k as u8; 1024]
            );
            assert_eq!(
                dev.store().read_block(Plba(500 + k)).unwrap(),
                vec![0xA4 + k as u8; 1024]
            );
        }
        // One walk per extent: batching must not re-walk inside a run.
        assert_eq!(dev.stats().walks, 2);

        // A request ending exactly on the extent boundary is one run.
        let walks_before = dev.stats().walks;
        dev.submit(
            SimTime::from_nanos(1_000_000_000),
            vf,
            BlockRequest::new(RequestId(22), BlockOp::Read, Vlba(4), 4),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            })
        ));
        assert_eq!(
            mem.borrow().read_vec(buf, 1024),
            vec![0xA4; 1024],
            "read-back of vLBA 4 must come from pLBA 500"
        );
        // The earlier walk left the extent cached; no new walk needed.
        assert_eq!(dev.stats().walks, walks_before);
    }

    #[test]
    fn hole_mid_run_read_zero_fills_between_mapped_runs() {
        let (mem, mut dev) = setup();
        // mapped [0,2) - hole [2,4) - mapped [4,6): a single read decomposes
        // into a mapped run, a zero-fill run, and another mapped run.
        let vf = make_vf(
            &mem,
            &mut dev,
            &[
                ExtentMapping::new(Vlba(0), Plba(100), 2),
                ExtentMapping::new(Vlba(4), Plba(300), 2),
            ],
            6,
        );
        for p in [100u64, 101] {
            dev.store_mut()
                .write_block(Plba(p), &vec![0x11; 1024])
                .unwrap();
        }
        for p in [300u64, 301] {
            dev.store_mut()
                .write_block(Plba(p), &vec![0x22; 1024])
                .unwrap();
        }
        let buf = alloc_buf(&mem, 6);
        mem.borrow_mut().write(buf, &[0xFF; 6 * 1024]); // poison
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(23), BlockOp::Read, Vlba(0), 6),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert_eq!(outs.len(), 1, "no interrupts: hole reads never stall");
        assert!(matches!(
            outs[0],
            NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            }
        ));
        let got = mem.borrow().read_vec(buf, 6 * 1024);
        assert!(got[..2048].iter().all(|&b| b == 0x11));
        assert!(got[2048..4096].iter().all(|&b| b == 0x00));
        assert!(got[4096..].iter().all(|&b| b == 0x22));
        assert_eq!(dev.stats().zero_fill_blocks, 2);
    }

    #[test]
    fn write_miss_mid_run_flushes_and_resumes_from_miss_block() {
        let (mem, mut dev) = setup();
        // Only vLBA [0,2) is mapped; a 4-block write covers one mapped run
        // then misses at vLBA 2, stalling between the two runs.
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(100), 2)],
            8,
        );
        let buf = alloc_buf(&mem, 4);
        let mut pat = [0u8; 4 * 1024];
        for (k, chunk) in pat.chunks_mut(1024).enumerate() {
            chunk.fill(0xB0 + k as u8);
        }
        mem.borrow_mut().write(buf, &pat);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(24), BlockOp::Write, Vlba(0), 4),
            buf,
        );
        let outs = dev.advance(HORIZON);
        let irq = outs
            .iter()
            .find_map(|o| match o {
                NescOutput::HostInterrupt { at, reason, .. } => Some((*at, *reason)),
                _ => None,
            })
            .expect("mid-request write miss must interrupt");
        match irq.1 {
            IrqReason::WriteMiss {
                miss_vlba,
                miss_blocks,
            } => {
                assert_eq!(miss_vlba, Vlba(2), "miss points at the hole block");
                assert_eq!(miss_blocks, 2);
            }
            other => panic!("wrong irq {other:?}"),
        }
        assert_eq!(dev.mmio_read(vf, offsets::MISS_ADDRESS), 2 * 1024);
        // The first run's data already landed before the stall.
        assert_eq!(dev.store().read_block(Plba(100)).unwrap(), vec![0xB0; 1024]);
        assert_eq!(dev.store().read_block(Plba(101)).unwrap(), vec![0xB1; 1024]);

        // The hypervisor rebuilds the tree, remapping BOTH spans. Writing
        // the new root flushes the function's BTLB entries between the two
        // runs of this request, so the resumed tail must re-walk — and it
        // resumes *from the miss block*: blocks 0-1 are not re-issued and
        // never land on their new pLBA 700.
        let walks_at_stall = dev.stats().walks;
        let tree: ExtentTree = [
            ExtentMapping::new(Vlba(0), Plba(700), 2),
            ExtentMapping::new(Vlba(2), Plba(200), 2),
        ]
        .into_iter()
        .collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        let resume_at = irq.0 + SimDuration::from_micros(20);
        dev.mmio_write(vf, offsets::EXTENT_TREE_ROOT, root, resume_at);
        dev.mmio_write(vf, offsets::REWALK_TREE, 1, resume_at);
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            })
        ));
        assert_eq!(dev.store().read_block(Plba(200)).unwrap(), vec![0xB2; 1024]);
        assert_eq!(dev.store().read_block(Plba(201)).unwrap(), vec![0xB3; 1024]);
        assert!(
            !dev.store().is_written(Plba(700)),
            "resume must not replay the already-transferred run"
        );
        assert!(
            dev.stats().walks > walks_at_stall,
            "flushed BTLB forces the resumed run to walk the new tree"
        );
        assert_eq!(dev.stats().miss_interrupts, 1);
    }

    #[test]
    fn capacity_zero_btlb_degenerates_to_per_block_walks() {
        let mem = Rc::new(RefCell::new(HostMemory::new()));
        let mut cfg = NescConfig::prototype();
        cfg.capacity_blocks = 4096;
        cfg.btlb_entries = 0; // ablation: no BTLB at all
        let mut dev = NescDevice::new(cfg, Rc::clone(&mem));
        let vf = make_vf(
            &mem,
            &mut dev,
            &[ExtentMapping::new(Vlba(0), Plba(100), 8)],
            8,
        );
        let buf = alloc_buf(&mem, 8);
        mem.borrow_mut().write(buf, &[0x5A; 8 * 1024]);
        dev.submit(
            SimTime::ZERO,
            vf,
            BlockRequest::new(RequestId(25), BlockOp::Write, Vlba(0), 8),
            buf,
        );
        let outs = dev.advance(HORIZON);
        assert!(matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            })
        ));
        // Without a BTLB nothing can cover a second block, so every block
        // is its own run and walks the tree itself.
        assert_eq!(dev.stats().walks, 8);
        assert_eq!(dev.btlb().hits(), 0);
        for k in 0..8u64 {
            assert_eq!(
                dev.store().read_block(Plba(100 + k)).unwrap(),
                vec![0x5A; 1024]
            );
        }
    }

    /// Device-level invariance: the same mixed read/write stream over a
    /// hole must produce identical outputs (completion times included),
    /// stats (walks included), BTLB hits and stored bytes whatever the run
    /// cap — run batching is a host-side optimization, not a model change.
    #[test]
    fn mixed_stream_invariant_across_run_caps() {
        fn run_stream(run_cap: u64) -> (Vec<NescOutput>, DeviceStats, u64, Vec<Vec<u8>>) {
            let mem = Rc::new(RefCell::new(HostMemory::new()));
            let mut cfg = NescConfig::prototype();
            cfg.capacity_blocks = 4096;
            let mut dev = NescDevice::new(cfg, Rc::clone(&mem));
            dev.run_cap = run_cap;
            let vf = make_vf(
                &mem,
                &mut dev,
                &[
                    ExtentMapping::new(Vlba(0), Plba(100), 5),
                    ExtentMapping::new(Vlba(5), Plba(400), 3),
                ],
                16, // vLBA [8,16) is a hole
            );
            let buf = alloc_buf(&mem, 10);
            let mut pat = [0u8; 10 * 1024];
            for (k, chunk) in pat.chunks_mut(1024).enumerate() {
                chunk.fill(0xC0 + k as u8);
            }
            mem.borrow_mut().write(buf, &pat);
            let us = SimDuration::from_micros(100);
            let reqs = [
                BlockRequest::new(RequestId(1), BlockOp::Write, Vlba(2), 6),
                BlockRequest::new(RequestId(2), BlockOp::Read, Vlba(0), 10),
                BlockRequest::new(RequestId(3), BlockOp::Write, Vlba(5), 3),
                BlockRequest::new(RequestId(4), BlockOp::Read, Vlba(4), 4),
            ];
            let mut outs = Vec::new();
            for (k, req) in reqs.into_iter().enumerate() {
                dev.submit(SimTime::ZERO + us * (k as u64), vf, req, buf);
                outs.extend(dev.advance(HORIZON));
            }
            let stored: Vec<Vec<u8>> = (0..5)
                .map(|k| 100 + k)
                .chain((0..3).map(|k| 400 + k))
                .map(|p| {
                    dev.store()
                        .read_block(Plba(p))
                        .unwrap_or_else(|_| vec![0u8; 1024])
                })
                .collect();
            (outs, dev.stats(), dev.btlb().hits(), stored)
        }

        let baseline = run_stream(1);
        for cap in [3, u64::MAX] {
            let got = run_stream(cap);
            assert_eq!(got.0, baseline.0, "outputs differ at run cap {cap}");
            assert_eq!(got.1, baseline.1, "stats differ at run cap {cap}");
            assert_eq!(got.2, baseline.2, "BTLB hits differ at run cap {cap}");
            assert_eq!(got.3, baseline.3, "stored bytes differ at cap {cap}");
        }
    }

    /// Run batching on read streams: 16-block reads, sequential and
    /// random, with BTLB 8 and 0, over 40-block extents so that some
    /// requests straddle two, must produce identical completions (times
    /// included), stats (walks included) and BTLB hits at cap 1 and at an
    /// unbounded cap. Counting `core:translate` spans pins the batching
    /// itself: one per extent run at an unbounded cap, one per block at
    /// cap 1 or with no BTLB.
    #[test]
    fn batched_and_per_block_agree_on_simulated_results() {
        const EXTENT: u64 = 40;
        const EXTENTS: u64 = 25;
        const REQ: u64 = 16;
        /// Outputs, stats, BTLB hits, `core:translate` spans and request
        /// start blocks of 40 `REQ`-block reads at aligned offsets.
        type ReadRun = (Vec<NescOutput>, DeviceStats, u64, u64, Vec<u64>);
        fn read_stream(run_cap: u64, btlb: usize, sequential: bool) -> ReadRun {
            let mem = Rc::new(RefCell::new(HostMemory::new()));
            let mut cfg = NescConfig::prototype();
            cfg.capacity_blocks = 4096;
            cfg.btlb_entries = btlb;
            let mut dev = NescDevice::new(cfg, Rc::clone(&mem));
            dev.run_cap = run_cap;
            let probe = Probe::new(nesc_sim::Tracer::enabled(), Default::default());
            dev.set_probe(probe.clone());
            // Physically reversed, so neighbouring extents are not
            // contiguous on the device.
            let extents: Vec<ExtentMapping> = (0..EXTENTS)
                .map(|i| {
                    let p = 1000 + (EXTENTS - 1 - i) * EXTENT;
                    ExtentMapping::new(Vlba(i * EXTENT), Plba(p), EXTENT)
                })
                .collect();
            let vf = make_vf(&mem, &mut dev, &extents, EXTENTS * EXTENT);
            let buf = alloc_buf(&mem, REQ);
            let mut rng = nesc_sim::SimRng::seed(0x5eed_0dd5);
            let slots = EXTENTS * EXTENT / REQ;
            let (mut outs, mut starts) = (Vec::new(), Vec::new());
            for i in 0..40 {
                let slot = if sequential {
                    i % slots
                } else {
                    rng.range(0, slots)
                };
                starts.push(slot * REQ);
                let req = BlockRequest::new(RequestId(i + 1), BlockOp::Read, Vlba(slot * REQ), REQ);
                dev.submit(SimTime::from_nanos((i + 1) * 100_000), vf, req, buf);
                outs.extend(dev.advance(HORIZON));
            }
            let spans = probe.tracer().take_spans();
            let translates = spans.iter().filter(|s| s.name() == "translate").count();
            (
                outs,
                dev.stats(),
                dev.btlb().hits(),
                translates as u64,
                starts,
            )
        }

        for sequential in [true, false] {
            for btlb in [0usize, 8] {
                let case = format!("sequential={sequential} btlb={btlb}");
                let per_block = read_stream(1, btlb, sequential);
                let batched = read_stream(u64::MAX, btlb, sequential);
                assert_eq!(per_block.0.len(), 40, "{case}: every read completes");
                assert_eq!(batched.0, per_block.0, "{case}: completions differ");
                assert_eq!(batched.1, per_block.1, "{case}: stats differ");
                assert_eq!(batched.2, per_block.2, "{case}: BTLB hits differ");
                let runs: u64 = if btlb == 0 {
                    40 * REQ
                } else {
                    let extents_of = |s: u64| (s + REQ - 1) / EXTENT - s / EXTENT + 1;
                    batched.4.iter().map(|&s| extents_of(s)).sum()
                };
                assert!(btlb == 0 || runs > 40, "{case}: no request straddles");
                assert_eq!(per_block.3, 40 * REQ, "{case}: cap 1 translates per block");
                assert_eq!(batched.3, runs, "{case}: one translate per extent run");
            }
        }
    }
}
