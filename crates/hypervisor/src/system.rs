//! The full simulated system.
//!
//! [`System`] owns host memory, the NeSC device, the hypervisor's
//! filesystem (living on the device through the PF), and the guest VMs
//! with their virtual disks. It provides:
//!
//! * image management ([`System::create_image`]) — guest disks are files
//!   on the hypervisor's filesystem, the *nested filesystem* arrangement
//!   of the paper's §II;
//! * disk attachment for each virtualization path ([`System::attach`]);
//! * synchronous I/O ([`System::read`] / [`System::write`]) returning
//!   per-request latency — the Fig. 9/11 measurements;
//! * pipelined streams ([`System::stream`]) with a queue depth — the
//!   Fig. 2/10 bandwidth measurements;
//! * the request entry for front-ends that drive a disk themselves, NVMe
//!   namespaces, accelerators and the host-mediated accelerator baseline
//!   ([`System::submit_direct`] / [`System::take_completion`]);
//! * the hypervisor's NeSC **miss handler**: on a `WriteMiss` or
//!   `MappingPruned` interrupt it allocates backing blocks in the host
//!   filesystem, re-links the pruned leaves of the VF's extent tree (or,
//!   if the image's mapping changed, re-serializes the whole tree),
//!   updates `ExtentTreeRoot`, and signals `RewalkTree` (paper Fig. 5b).
//!
//! All calls advance one global simulated clock; per-VM vCPUs and per-disk
//! host backend threads are FIFO service units, so concurrency and
//! queueing behave like the real stack.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use nesc_core::ring::{RingDescriptor, DESCRIPTOR_BYTES};
use nesc_core::{CompletionStatus, FuncId, IrqReason, NescConfig, NescDevice, NescOutput, VfError};
use nesc_extent::{Plba, Untrusted, Vlba};
use nesc_fs::{Filesystem, FsError, Ino};
use nesc_pcie::{HostAddr, HostMemory};
use nesc_sim::{
    FlightHandle, Obs, PathTotals, Probe, ServiceUnit, SimDuration, SimTime, Span, Throughput,
    Tracer, Via,
};
use nesc_storage::{BlockOp, BlockRequest, RequestId, BLOCK_SIZE};
use nesc_virtio::{BlkRequest, BlkRequestType, BlkStatus, Chain, Virtqueue};

use crate::costs::SoftwareCosts;
use crate::error::NescError;
use crate::telemetry::{Telemetry, TelemetryConfig};

/// Identifier of a guest VM (or the host pseudo-VM for baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmId(pub usize);

/// Identifier of an attached virtual disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiskId(pub usize);

/// Handles returned by [`System::quick_disk`]: the VM, its attached
/// disk, and the backing image (None for [`DiskKind::HostRaw`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvisionedDisk {
    /// The created VM.
    pub vm: VmId,
    /// The attached disk.
    pub disk: DiskId,
    /// The backing image file, if the path is file-backed.
    pub image: Option<Ino>,
}

/// Which virtualization path a disk uses (paper Fig. 1 plus the host
/// baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskKind {
    /// A directly-assigned NeSC virtual function.
    NescDirect,
    /// Paravirtual virtio-blk through the hypervisor.
    Virtio,
    /// Full trap-and-emulate device emulation.
    Emulated,
    /// The hypervisor's own raw access to the PF (the "Host" baseline; no
    /// virtualization, no image file).
    HostRaw,
}

impl DiskKind {
    /// The path the probe reports and tallies this kind's requests under.
    fn via(self) -> Via {
        match self {
            DiskKind::NescDirect => Via::Direct,
            DiskKind::Virtio => Via::Virtio,
            DiskKind::Emulated => Via::Emulated,
            DiskKind::HostRaw => Via::Host,
        }
    }
}

/// One tenant's stream description for [`System::run_mixed`].
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// The tenant's disk.
    pub disk: DiskId,
    /// Read or write.
    pub op: BlockOp,
    /// First byte offset.
    pub start_offset: u64,
    /// Bytes per request.
    pub req_bytes: u64,
    /// Number of requests.
    pub count: u64,
}

/// One arrival of an open-loop schedule for
/// [`System::run_open_loop`]: a request that enters the system at a
/// predetermined instant regardless of earlier completions.
#[derive(Debug, Clone, Copy)]
pub struct OpenRequest {
    /// Target disk.
    pub disk: DiskId,
    /// Read or write.
    pub op: BlockOp,
    /// First byte offset.
    pub offset: u64,
    /// Request size in bytes.
    pub bytes: u64,
    /// Arrival instant (absolute simulated time).
    pub at: SimTime,
}

/// Result of a pipelined stream run.
#[derive(Debug, Clone, Copy)]
pub struct StreamResult {
    /// Wall-clock span from first issue to last completion.
    pub elapsed: SimDuration,
    /// Bytes transferred.
    pub bytes: u64,
    /// Requests issued.
    pub ops: u64,
    /// Decimal megabytes per second.
    pub mbps: f64,
}

#[derive(Debug)]
struct Vm {
    vcpu: ServiceUnit,
}

#[derive(Debug)]
struct Disk {
    kind: DiskKind,
    vm: VmId,
    /// Backing image file on the host filesystem (None for HostRaw).
    ino: Option<Ino>,
    /// Assigned virtual function (NescDirect only).
    vf: Option<FuncId>,
    /// The image's mapping generation the VF's tree was last serialized
    /// at (NescDirect only): while the image's generation still equals
    /// it, only prunes can have changed the installed tree.
    tree_generation: u64,
    size_blocks: u64,
    /// The host I/O thread serving this disk's paravirtual requests.
    backend: ServiceUnit,
    /// Guest-visible virtqueue (Virtio only).
    vq: Option<Virtqueue>,
    /// Guest data buffer.
    buf: HostAddr,
    /// Host bounce buffer (paravirtual paths).
    bounce: HostAddr,
    /// virtio header/status scratch addresses.
    hdr: HostAddr,
    status: HostAddr,
    /// Set by [`System::detach`]; further I/O is rejected.
    detached: bool,
    /// Command-ring base (NescDirect only): the guest driver's descriptor
    /// array in guest memory.
    ring_base: HostAddr,
    /// Driver-side producer index.
    ring_tail: u32,
}

/// Largest single request the scratch buffers support (the Fig. 10
/// convergence point uses 2 MiB requests).
pub const MAX_REQUEST_BYTES: u64 = 4 << 20;

/// Command-ring slots per NescDirect disk.
const RING_ENTRIES: u32 = 256;

const HORIZON: SimTime = SimTime::from_nanos(u64::MAX / 4);

/// The assembled host + device + guests system.
pub struct System {
    mem: Rc<RefCell<HostMemory>>,
    dev: NescDevice,
    fs: Filesystem,
    costs: SoftwareCosts,
    vms: Vec<Vm>,
    disks: Vec<Disk>,
    func_to_disk: BTreeMap<FuncId, DiskId>,
    host_cpu: ServiceUnit,
    now: SimTime,
    next_req: u64,
    completed: BTreeMap<RequestId, (SimTime, CompletionStatus)>,
    /// Reusable buffer the pump drains the device's outputs into.
    outputs: Vec<NescOutput>,
    /// Reusable buffer of a paravirtual request's image runs
    /// ([`System::image_runs`]).
    runs: Vec<(Option<Plba>, u64)>,
    /// Reusable buffer the virtio backend pops each chain into.
    chain: Chain,
    /// The lifecycle probe shared with the device and telemetry: the
    /// always-on tally of finished requests and device counters, plus the
    /// span tracer and the telemetry's flight recorder (off until either
    /// is enabled).
    probe: Probe,
    /// Span ids handed out so far, as of the last switch of the span
    /// log; a re-enabled tracer continues after them.
    span_ids: u64,
    /// Deterministic time-series sampling + SLO watchdog (None = off; the
    /// request path pays one `Option` check when disabled).
    telemetry: Option<Telemetry>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("vms", &self.vms.len())
            .field("disks", &self.disks.len())
            .finish()
    }
}

impl System {
    /// Builds a system: NeSC device + hypervisor filesystem formatted over
    /// the whole physical device.
    pub fn new(dev_cfg: NescConfig, costs: SoftwareCosts) -> Self {
        let mem = Rc::new(RefCell::new(HostMemory::new()));
        // One tally from the start: the device's counters live in it.
        let probe = Probe::default();
        let mut dev = NescDevice::new(dev_cfg, Rc::clone(&mem));
        dev.set_probe(probe.clone());
        let fs = Filesystem::format(dev.config().capacity_blocks);
        System {
            mem,
            dev,
            fs,
            costs,
            vms: Vec::new(),
            disks: Vec::new(),
            func_to_disk: BTreeMap::new(),
            host_cpu: ServiceUnit::new(),
            now: SimTime::ZERO,
            next_req: 1,
            completed: BTreeMap::new(),
            outputs: Vec::new(),
            runs: Vec::new(),
            chain: Chain::default(),
            probe,
            span_ids: 0,
            telemetry: None,
        }
    }

    /// A [`SystemBuilder`](crate::SystemBuilder) with prototype defaults.
    pub fn builder() -> crate::SystemBuilder {
        crate::SystemBuilder::new()
    }

    /// Enables or disables span tracing across every layer of the stack.
    /// Enabling installs a fresh shared tracer in the probe the hypervisor,
    /// device and telemetry report through (so PCIe / translation / media
    /// spans stitch under the same request roots); disabling swaps in a
    /// no-op tracer. Switching to the state tracing is already in changes
    /// nothing. A re-enabled tracer's span ids continue after the earlier
    /// tracers', so a root id held from before (an unclosed window's
    /// completion) reads as drained instead of naming a new span.
    pub fn set_tracing(&mut self, on: bool) {
        let tracer = self.probe.tracer();
        if on == tracer.is_enabled() {
            return;
        }
        // A recorder-only span log mints ids too.
        self.span_ids = self.span_ids.max(tracer.minted());
        let tracer = if on {
            Tracer::enabled_after(self.span_ids)
        } else {
            Tracer::disabled()
        };
        self.install_probe(tracer);
    }

    /// Rewires the probe to `tracer` and the telemetry's flight recorder,
    /// keeping its tally, and hands it to every reporting layer.
    fn install_probe(&mut self, tracer: Tracer) {
        let flight = self.telemetry.as_ref().map(Telemetry::flight);
        let flight = flight.cloned().unwrap_or_default();
        self.probe = self.probe.rewired(tracer, flight);
        self.dev.set_probe(self.probe.clone());
        if let Some(tel) = self.telemetry.as_mut() {
            tel.set_probe(self.probe.clone());
        }
    }

    /// The span tracer (a cheap handle; disabled unless
    /// [`set_tracing`](Self::set_tracing) enabled it).
    pub fn tracer(&self) -> &Tracer {
        self.probe.tracer()
    }

    /// Drains all spans recorded so far, in creation order.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.probe.tracer().take_spans()
    }

    /// The request totals of one path since the system was built:
    /// requests, bytes, errors, and the latency histogram of the OK
    /// requests (counted whether or not tracing or telemetry is on).
    pub fn path_totals(&self, kind: DiskKind) -> PathTotals {
        self.probe.totals(kind.via())
    }

    /// Enables telemetry: installs the perfmon sampler + SLO watchdog and
    /// registers per-disk series for every already-attached disk (disks
    /// attached later register at attach time). Replaces any previous
    /// telemetry state. Windows start at time 0, but each reports only
    /// what happens after this call: the windows already past close
    /// reading 0.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        let mut tel = Telemetry::new(cfg);
        for (i, d) in self.disks.iter().enumerate() {
            tel.register_disk(DiskId(i), d.vf);
        }
        self.telemetry = Some(tel);
        // One recorder, every layer: the probe records the device's and
        // the issue path's lifecycle events into the telemetry's ring,
        // and its window list starts with this telemetry.
        self.install_probe(self.probe.tracer().clone());
        self.probe.open_windows();
        if let Some(tel) = self.telemetry.as_mut() {
            tel.start_at(self.now, &self.dev);
        }
    }

    /// The flight-recorder handle (disabled unless telemetry configured
    /// it).
    pub fn flight(&self) -> &FlightHandle {
        self.probe.flight()
    }

    /// The telemetry subsystem, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Closes every telemetry window ending at or before the current
    /// simulated time (the still-open partial window is dropped, keeping
    /// exports a function of whole windows only). Call at the end of a
    /// run, before exporting.
    pub fn telemetry_finish(&mut self) {
        self.poll_telemetry(self.now);
    }

    /// Drives the sampler to `at`. Disjoint-field borrows let the
    /// telemetry subsystem read the device in place — no take/put-back
    /// move of the whole subsystem per call.
    fn poll_telemetry(&mut self, at: SimTime) {
        if let Some(tel) = self.telemetry.as_mut() {
            tel.poll(at, &self.dev);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Idles until `self.now + d` (think time between operations).
    pub fn think(&mut self, d: SimDuration) {
        self.now += d;
        if self.telemetry.is_some() {
            self.poll_telemetry(self.now);
        }
    }

    /// Shared host memory (examples and tests inspect buffers through it).
    pub fn memory(&self) -> Rc<RefCell<HostMemory>> {
        Rc::clone(&self.mem)
    }

    /// The device, for statistics and ablation knobs.
    pub fn device(&self) -> &NescDevice {
        &self.dev
    }

    /// Mutable device access (media throttling for Fig. 2).
    pub fn device_mut(&mut self) -> &mut NescDevice {
        &mut self.dev
    }

    /// The hypervisor's filesystem.
    pub fn host_fs(&self) -> &Filesystem {
        &self.fs
    }

    /// Mutable access to the hypervisor's filesystem (setup tooling; data
    /// moved this way is functional-only, not timed).
    pub fn host_fs_mut(&mut self) -> &mut Filesystem {
        &mut self.fs
    }

    /// The cost model in force.
    pub fn costs(&self) -> &SoftwareCosts {
        &self.costs
    }

    /// Creates a guest VM.
    pub fn create_vm(&mut self) -> VmId {
        self.vms.push(Vm {
            vcpu: ServiceUnit::new(),
        });
        VmId(self.vms.len() - 1)
    }

    /// Creates an image file of `size_bytes` on the hypervisor's
    /// filesystem. With `prealloc`, blocks are fully allocated up front
    /// (`fallocate` style); otherwise the file is sparse and NeSC writes
    /// will take the miss-interrupt path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (duplicate name, no space).
    pub fn create_image(
        &mut self,
        name: &str,
        size_bytes: u64,
        prealloc: bool,
    ) -> Result<Ino, FsError> {
        let ino = self.fs.create(name)?;
        self.fs.truncate(ino, size_bytes)?;
        if prealloc {
            self.fs
                .allocate_range(ino, Vlba(0), size_bytes.div_ceil(BLOCK_SIZE))?;
        }
        Ok(ino)
    }

    /// Attaches an image (or, for [`DiskKind::HostRaw`], the raw device)
    /// to a VM through the given virtualization path.
    ///
    /// # Panics
    ///
    /// Panics if the VF table is exhausted or the image is missing — both
    /// indicate harness bugs, not modeled error paths. Use
    /// [`try_attach`](Self::try_attach) where attachment can legitimately
    /// fail (e.g. provisioning more tenants than the device has VFs).
    pub fn attach(&mut self, vm: VmId, kind: DiskKind, image: Option<Ino>) -> DiskId {
        self.try_attach(vm, kind, image)
            .expect("attach failed; use try_attach for fallible paths")
    }

    /// Fallible [`attach`](Self::attach): a missing backing image or an
    /// exhausted VF table surfaces as [`NescError::Device`] instead of a
    /// panic.
    ///
    /// # Errors
    ///
    /// [`NescError::Device`] when a non-host disk has no backing image or
    /// the device cannot create another VF; filesystem failures map
    /// through `From<FsError>`.
    pub fn try_attach(
        &mut self,
        vm: VmId,
        kind: DiskKind,
        image: Option<Ino>,
    ) -> Result<DiskId, NescError> {
        let (ino, size_blocks) = match kind {
            DiskKind::HostRaw => (None, self.dev.config().capacity_blocks),
            _ => {
                let ino = image.ok_or(NescError::Device)?;
                let size = self.fs.size_bytes(ino)?.div_ceil(BLOCK_SIZE);
                (Some(ino), size)
            }
        };
        let (buf, bounce, hdr, status) = {
            let mut mem = self.mem.borrow_mut();
            (
                mem.alloc(MAX_REQUEST_BYTES, 4096),
                mem.alloc(MAX_REQUEST_BYTES, 4096),
                mem.alloc(64, 64),
                mem.alloc(8, 8),
            )
        };
        let (vf, ring_base, tree_generation) = if kind == DiskKind::NescDirect {
            let ino = ino.ok_or(NescError::Device)?;
            let root = self.serialize_image(ino)?;
            let generation = self.fs.mapping_generation(ino)?;
            let vf = self.dev.create_vf(root, size_blocks)?;
            // The guest driver allocates its command ring and programs the
            // VF's ring registers (paper §V's DMA ring buffer).
            let ring_base = self
                .mem
                .borrow_mut()
                .alloc(RING_ENTRIES as u64 * DESCRIPTOR_BYTES, 4096);
            self.dev
                .mmio_write(vf, nesc_core::regs::offsets::RING_BASE, ring_base, self.now);
            self.dev.mmio_write(
                vf,
                nesc_core::regs::offsets::RING_ENTRIES,
                RING_ENTRIES as u64,
                self.now,
            );
            (Some(vf), ring_base, generation)
        } else {
            (None, 0, 0)
        };
        let vq = (kind == DiskKind::Virtio).then(|| Virtqueue::new(128));
        self.disks.push(Disk {
            kind,
            vm,
            ino,
            vf,
            tree_generation,
            size_blocks,
            backend: ServiceUnit::new(),
            vq,
            buf,
            bounce,
            hdr,
            status,
            detached: false,
            ring_base,
            ring_tail: 0,
        });
        let id = DiskId(self.disks.len() - 1);
        if let Some(vf) = vf {
            self.func_to_disk.insert(vf, id);
        }
        if let Some(tel) = self.telemetry.as_mut() {
            tel.register_disk(id, vf);
        }
        Ok(id)
    }

    /// Convenience: VM + image + disk in one call.
    ///
    /// # Panics
    ///
    /// Panics on provisioning failure — use
    /// [`try_quick_disk`](Self::try_quick_disk) where that is a modeled
    /// outcome.
    // nesc-lint::allow(P1): thin infallible wrapper for harness/setup
    // code; the fallible logic lives in try_quick_disk.
    pub fn quick_disk(&mut self, kind: DiskKind, name: &str, size_bytes: u64) -> ProvisionedDisk {
        self.try_quick_disk(kind, name, size_bytes)
            .expect("provisioning failed; use try_quick_disk for fallible paths")
    }

    /// Fallible [`quick_disk`](Self::quick_disk): VM + image + disk in
    /// one call, with image-creation and attach failures reported instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Filesystem failures (duplicate name, no space) map through
    /// `From<FsError>`; attach failures as in
    /// [`try_attach`](Self::try_attach).
    pub fn try_quick_disk(
        &mut self,
        kind: DiskKind,
        name: &str,
        size_bytes: u64,
    ) -> Result<ProvisionedDisk, NescError> {
        let vm = self.create_vm();
        let image = match kind {
            DiskKind::HostRaw => None,
            _ => Some(self.create_image(name, size_bytes, true)?),
        };
        Ok(ProvisionedDisk {
            vm,
            disk: self.try_attach(vm, kind, image)?,
            image,
        })
    }

    // ------------------------------------------------------------------
    // Device pump and the NeSC miss handler
    // ------------------------------------------------------------------

    fn pump(&mut self) {
        let mut outs = std::mem::take(&mut self.outputs);
        loop {
            outs.clear();
            self.dev.advance_into(HORIZON, &mut outs);
            if outs.is_empty() {
                break;
            }
            for &o in &outs {
                match o {
                    NescOutput::Completion { at, id, status, .. } => {
                        self.completed.insert(id, (at, status));
                    }
                    NescOutput::HostInterrupt { at, func, reason } => {
                        self.handle_miss(func, reason, at);
                    }
                }
            }
        }
        self.outputs = outs;
    }

    /// The hypervisor's interrupt handler for NeSC translation misses
    /// (paper Fig. 5b): allocate, rebuild, `RewalkTree`.
    fn handle_miss(&mut self, func: FuncId, reason: IrqReason, at: SimTime) {
        // Both lookups hold by construction (only attached, file-backed
        // VFs can interrupt); an inconsistency drops the interrupt, which
        // stalls that VF's request rather than the whole simulation.
        let Some(&disk_id) = self.func_to_disk.get(&func) else {
            debug_assert!(false, "interrupting VF is attached");
            return;
        };
        let Some(ino) = self.disks[disk_id.0].ino else {
            debug_assert!(false, "direct disks are file-backed");
            return;
        };
        let t = self.host_cpu.serve(at, self.costs.miss_handler).end;
        self.probe
            .report(Obs::Rewalk(u32::from(func.0), disk_id.0 as u32, at, t));
        match reason {
            IrqReason::WriteMiss {
                miss_vlba,
                miss_blocks,
            } => {
                match self.fs.allocate_range(ino, miss_vlba, miss_blocks) {
                    Ok(_) => {}
                    Err(_) => {
                        // Out of space or quota: signal the write failure
                        // back through the PF (paper §IV-C).
                        self.dev.fail_stalled(func, t);
                        return;
                    }
                }
            }
            IrqReason::MappingPruned { .. } => {
                // The mapping exists in the filesystem; only the
                // device-visible tree was pruned. Re-linking the pruned
                // leaves below is enough.
            }
        }
        match self.install_tree(disk_id, func, ino) {
            Ok(Ok(())) => {}
            Ok(Err(_)) => {
                debug_assert!(false, "VF is live during miss handling");
                return;
            }
            Err(_) => {
                debug_assert!(false, "image exists");
                return;
            }
        }
        self.dev
            .mmio_write(func, nesc_core::regs::offsets::REWALK_TREE, 1, t);
    }

    /// Serializes `ino`'s extent tree (from the filesystem's copy, in
    /// place) into host memory and returns its root.
    fn serialize_image(&self, ino: Ino) -> Result<HostAddr, FsError> {
        let tree = self.fs.extent_tree(ino)?;
        Ok(tree.serialize(&mut self.mem.borrow_mut()))
    }

    /// Points `disk`'s VF at a tree matching its image `ino`, flushing the
    /// VF's cached translations: the one way a repaired or rebuilt tree
    /// reaches the device. While the image's mapping generation is the one
    /// the installed tree was serialized at, only prunes can have cut that
    /// tree, so its pruned leaves are re-linked in place and the root is
    /// kept (paper §IV-B: the hypervisor regenerates the pruned part). A
    /// changed mapping, or a repair that refuses, falls back to a fresh
    /// serialization. The outer error is the image lookup's, the inner
    /// the device's.
    fn install_tree(
        &mut self,
        disk: DiskId,
        vf: FuncId,
        ino: Ino,
    ) -> Result<Result<(), VfError>, FsError> {
        let root = self
            .dev
            .mmio_read(vf, nesc_core::regs::offsets::EXTENT_TREE_ROOT);
        let generation = self.fs.mapping_generation(ino)?;
        let repaired = self.disks[disk.0].tree_generation == generation
            && self
                .fs
                .extent_tree(ino)?
                .relink_pruned(&mut self.mem.borrow_mut(), root);
        let root = if repaired {
            root
        } else {
            self.disks[disk.0].tree_generation = generation;
            self.serialize_image(ino)?
        };
        Ok(self.dev.set_tree_root(vf, root))
    }

    /// Runs the device to idle and takes device request `id`'s completion.
    fn wait_for(&mut self, id: RequestId) -> (SimTime, CompletionStatus) {
        self.pump();
        // A request the device never completed (a model bug, not a modeled
        // outcome) reports a device error at the current clock instead of
        // wedging the run.
        self.completed.remove(&id).unwrap_or_else(|| {
            debug_assert!(false, "request completed during pump");
            (self.now, CompletionStatus::DeviceError)
        })
    }

    /// How a front-end that drives a disk itself (an NVMe namespace, an
    /// accelerator, the host serving one) reaches the device: submits each
    /// `(op, first block, blocks, buffer)` request under a fresh id at
    /// `at`, as descriptors on a NeSC-direct disk's command ring (one tail
    /// doorbell per ring-full) or, on a raw-device disk, to the PF (one
    /// doorbell per batch). Each reports `Issued` at `at` under its disk's
    /// path (direct, or host for a raw disk) before it is posted, and
    /// [`take_completion`](Self::take_completion) its `Finished`. Returns
    /// the ids in order.
    ///
    /// # Errors
    ///
    /// [`NescError::Device`] when `disk` is neither an attached NeSC-direct
    /// nor a raw-device disk, [`NescError::OutOfRange`] when a block count
    /// does not fit a descriptor; nothing is submitted then.
    pub fn submit_direct(
        &mut self,
        disk: DiskId,
        at: SimTime,
        reqs: &[(BlockOp, Vlba, u64, HostAddr)],
    ) -> Result<impl Iterator<Item = RequestId>, NescError> {
        let d = self.disks.get(disk.0).filter(|d| !d.detached);
        let d = d.filter(|d| d.vf.is_some() || d.kind == DiskKind::HostRaw);
        let via = d.ok_or(NescError::Device)?.kind.via();
        if reqs.iter().any(|r| u32::try_from(r.2).is_err()) {
            return Err(NescError::OutOfRange);
        }
        // `post` mints the ids in order from here.
        let (first, index) = (self.next_req, disk.0 as u32);
        for (seq, &(op, _, blocks, _)) in (first..).zip(reqs) {
            let write = op == BlockOp::Write;
            let issued = Obs::Issued(via, index, seq, blocks * BLOCK_SIZE, write, at);
            self.probe.report(issued);
        }
        self.post(disk, at, reqs.iter().copied(), |_, _, _| {});
        Ok((first..self.next_req).map(RequestId))
    }

    /// Runs the device to idle, serving its miss interrupts, and takes the
    /// completion of front-end request `id`: when it completed and with
    /// what status. Reports its `Finished`, so its latency runs from its
    /// submission's `at` to that time, but polls no telemetry (`think` or
    /// `telemetry_finish` closes the windows). `None` if it has not
    /// completed, or its completion was taken before.
    pub fn take_completion(&mut self, id: RequestId) -> Option<(SimTime, CompletionStatus)> {
        self.pump();
        let done = self.completed.remove(&id);
        if let Some((at, status)) = done {
            let failed = status != CompletionStatus::Ok;
            self.probe.report(Obs::Finished(id.0, failed, at));
        }
        done
    }

    /// The doorbell sequence, one for every requester. On `disk`'s VF each
    /// request becomes a descriptor at the ring's tail, and each ring-full
    /// takes one doorbell at `at` and its `RING_TAIL` write; on the PF one
    /// doorbell at `at`, rung even for an empty batch, carries the batch.
    /// `each(probe, id, landed)` runs per request under its fresh id before
    /// the device sees it, so the reports that bind its id go there.
    fn post(
        &mut self,
        disk: DiskId,
        at: SimTime,
        reqs: impl IntoIterator<Item = (BlockOp, Vlba, u64, HostAddr)>,
        mut each: impl FnMut(&Probe, u64, SimTime),
    ) {
        let vf = self.disks[disk.0].vf;
        let (per_doorbell, mut pf_unrung) = match vf {
            Some(_) => (RING_ENTRIES as usize - 1, false),
            None => (usize::MAX, true),
        };
        let mut reqs = reqs.into_iter().peekable();
        while std::mem::take(&mut pf_unrung) || reqs.peek().is_some() {
            let t_db = self.dev.ring_doorbell(at);
            for (op, lba, blocks, buf) in reqs.by_ref().take(per_doorbell) {
                let id = RequestId(self.next_req);
                self.next_req += 1;
                each(&self.probe, id.0, t_db);
                if vf.is_none() {
                    let (pf, req) = (self.dev.pf(), BlockRequest::new(id, op, lba, blocks));
                    self.dev.submit(t_db, pf, req, buf);
                    continue;
                }
                let d = &mut self.disks[disk.0];
                let slot = d.ring_base + u64::from(d.ring_tail % RING_ENTRIES) * DESCRIPTOR_BYTES;
                // In range: the callers check or bound the block count.
                let desc = RingDescriptor::new(op, id, lba, blocks as u32, buf);
                self.mem.borrow_mut().write(slot, &desc.encode());
                d.ring_tail = (d.ring_tail + 1) % RING_ENTRIES;
            }
            if let Some(vf) = vf {
                let tail = u64::from(self.disks[disk.0].ring_tail);
                self.dev
                    .mmio_write(vf, nesc_core::regs::offsets::RING_TAIL, tail, t_db);
            }
        }
    }

    // ------------------------------------------------------------------
    // I/O paths
    // ------------------------------------------------------------------

    /// Covering block range of a byte range.
    fn covering(offset: u64, len: u64) -> (u64, u64) {
        let first = offset / BLOCK_SIZE;
        let last = (offset + len - 1) / BLOCK_SIZE;
        (first, last - first + 1)
    }

    fn trampoline_time(&self, bytes: u64) -> SimDuration {
        match self.costs.trampoline_bytes_per_sec {
            Some(bw) => SimDuration::for_bytes(bytes, bw),
            None => SimDuration::ZERO,
        }
    }

    fn pages(len: u64) -> u64 {
        len.div_ceil(4096)
    }

    /// Issues one request on a disk at `issue` time without advancing the
    /// global clock; returns the guest-observed completion time and the
    /// request's final status. `data` is written for writes; for reads the
    /// caller extracts from the buffer.
    fn issue_once(
        &mut self,
        disk_id: DiskId,
        op: BlockOp,
        offset: u64,
        len: u64,
        issue: SimTime,
        data: Option<&[u8]>,
    ) -> (SimTime, CompletionStatus) {
        debug_assert!(len > 0 && len <= MAX_REQUEST_BYTES, "request size {len}");
        let len = len.clamp(1, MAX_REQUEST_BYTES);
        let d = &self.disks[disk_id.0];
        let (kind, detached) = (d.kind, d.detached);
        // The request root span: the path below emits children that tile
        // [issue, done] exactly, so the root's direct children always sum
        // to the guest-observed end-to-end latency.
        // `seq` is the id the engine below will mint first — what the
        // exemplars and the tally's completions join on.
        let (disk, seq, write) = (disk_id.0 as u32, self.next_req, op == BlockOp::Write);
        self.probe
            .report(Obs::Issued(kind.via(), disk, seq, len, write, issue));
        let (done, status) = match kind {
            // A detached disk fails at once, but still counts as an attempt.
            _ if detached => (issue, CompletionStatus::DeviceError),
            DiskKind::NescDirect | DiskKind::HostRaw => {
                self.ring_io(disk_id, op, offset, len, issue, data)
            }
            DiskKind::Virtio | DiskKind::Emulated => {
                self.paravirt_io(disk_id, op, offset, len, issue, data)
            }
        };
        // The one accounting call per request: the tally counts it against
        // its path and, with telemetry on, adds it to the window list
        // *before* the poll below, so a window closing at `done` folds it
        // in.
        self.probe
            .report(Obs::Finished(seq, status != CompletionStatus::Ok, done));
        // nesc-lint: hot
        if let Some(tel) = self.telemetry.as_mut() {
            if tel.due(done) {
                tel.poll(done, &self.dev);
            }
        }
        (done, status)
    }

    /// The paths with no host backend: a NeSC-direct disk's guest driver
    /// rings its VF, the host the PF for its raw-device disk. Only a guest
    /// pays the trampoline and a completion interrupt.
    fn ring_io(
        &mut self,
        disk_id: DiskId,
        op: BlockOp,
        offset: u64,
        len: u64,
        issue: SimTime,
        data: Option<&[u8]>,
    ) -> (SimTime, CompletionStatus) {
        let d = &self.disks[disk_id.0];
        let (vm, vf, ino, buf) = (d.vm, d.vf, d.ino, d.buf);
        let (first_block, nblocks) = Self::covering(offset, len);
        let (to_dev, from_dev) = match (vf, op) {
            (None, _) => (SimDuration::ZERO, SimDuration::ZERO),
            (Some(_), BlockOp::Write) => (self.trampoline_time(len), SimDuration::ZERO),
            (Some(_), BlockOp::Read) => (SimDuration::ZERO, self.trampoline_time(len)),
        };
        // Stack + page handling on the guest's vCPU (the host's CPU).
        let (cpu, interrupt) = match vf {
            Some(_) => (&mut self.vms[vm.0].vcpu, self.costs.direct_interrupt),
            None => (&mut self.host_cpu, SimDuration::ZERO),
        };
        let submit_cost =
            self.costs.guest_stack_submit + self.costs.guest_per_page * Self::pages(len) + to_dev;
        let t = cpu.serve(issue, submit_cost).end;
        // nesc-lint::allow(T2): a HostRaw disk *is* the raw device, its byte
        // offsets physical by definition: the covering block index is minted
        // as a pLBA right here, at the hypervisor/device boundary.
        let raw = Plba(first_block);
        // Functional: place write data in the buffer, over the current
        // bytes of any partially covered edge block.
        if op == BlockOp::Write {
            self.load_partial_edges(offset, len, buf, |k| match ino {
                Some(ino) => self.image_block(ino, first_block + k),
                None => Some(raw.offset(k)),
            });
            if let Some(bytes) = data {
                self.mem
                    .borrow_mut()
                    .write(buf + offset % BLOCK_SIZE, bytes);
            }
        }
        // The guest driver writes a ring descriptor and rings the tail
        // doorbell (the host rings the PF); the device queues the request.
        let func = vf.map_or(0, |vf| u32::from(vf.0));
        let id = RequestId(self.next_req);
        let req = (op, Vlba(first_block), nblocks, buf);
        self.post(disk_id, t, [req], |probe, id, t_db| {
            probe.report(Obs::Rang(func, id, t, t_db));
        });
        let (tc, status) = self.wait_for(id);
        // Completion handling is charged additively rather than on the
        // vCPU timeline: serving it there would serialize the *next*
        // request's submission behind this completion (the model issues
        // requests strictly in program order), destroying the pipelining
        // a real guest gets from handling completions in interrupt
        // context.
        let done = tc + interrupt + self.costs.guest_stack_complete + from_dev;
        self.probe.report(Obs::Answered(tc, done));
        (done, status)
    }

    fn paravirt_io(
        &mut self,
        disk_id: DiskId,
        op: BlockOp,
        offset: u64,
        len: u64,
        issue: SimTime,
        data: Option<&[u8]>,
    ) -> (SimTime, CompletionStatus) {
        let (vm, kind, ino, buf, bounce, hdr, status_addr) = {
            let d = &self.disks[disk_id.0];
            let Some(ino) = d.ino else {
                debug_assert!(false, "paravirtual disks are file-backed");
                return (issue, CompletionStatus::DeviceError);
            };
            (d.vm, d.kind, ino, d.buf, d.bounce, d.hdr, d.status)
        };
        let pages = Self::pages(len);
        // --- Guest side: stack + publish + kick/trap. ---
        let submit_cost = self.costs.guest_stack_submit + self.costs.guest_per_page * pages;
        let mut t = self.vms[vm.0].vcpu.serve(issue, submit_cost).end;
        if let (BlockOp::Write, Some(bytes)) = (op, data) {
            self.mem
                .borrow_mut()
                .write(buf + offset % BLOCK_SIZE, bytes);
        }
        let t1 = t;
        // Functional virtqueue traffic (Virtio only; emulation traps raw
        // register accesses instead).
        if kind == DiskKind::Virtio {
            let rtype = match op {
                BlockOp::Read => BlkRequestType::In,
                BlockOp::Write => BlkRequestType::Out,
            };
            let blkreq = BlkRequest::new(rtype, offset / 512, buf, len as u32, status_addr);
            let chain = blkreq.build_chain(&mut self.mem.borrow_mut(), hdr);
            let d = &mut self.disks[disk_id.0];
            let Some(vq) = d.vq.as_mut() else {
                debug_assert!(false, "virtio disk has a queue");
                return (t, CompletionStatus::DeviceError);
            };
            if vq.add_chain(&chain).is_err() {
                // The ring is sized for the workload, so a full ring is a
                // model bug; the guest sees a device error for this one
                // request and the ring state is untouched.
                debug_assert!(false, "ring sized for the workload");
                return (t, CompletionStatus::DeviceError);
            }
            vq.kick();
            t += self.costs.vmexit_kick;
        } else {
            t += self.costs.emulation_trap * self.costs.emulation_traps_per_request as u64
                + self.costs.emulation_device_cpu;
        }
        // --- Host backend thread. ---
        let mut backend_cost = self.costs.host_backend_request
            + self.costs.host_per_page * pages
            + self.costs.host_fs_map
            + SimDuration::for_bytes(len, self.costs.memcpy_bytes_per_sec);
        if op == BlockOp::Write {
            backend_cost += self.costs.host_fs_write_extra;
        }
        let tb = self.disks[disk_id.0].backend.serve(t, backend_cost).end;
        self.probe.report(Obs::Backend(t1, t, tb));
        // Functional: consume the chain (Virtio). The chain was published
        // a few lines up, so an empty ring here is a model bug; the
        // backend just skips the ring bookkeeping and serves the request
        // from the parsed parameters it already holds.
        if kind == DiskKind::Virtio {
            let d = &mut self.disks[disk_id.0];
            let popped =
                d.vq.as_mut()
                    .is_some_and(|vq| vq.pop_avail(&mut self.chain));
            debug_assert!(popped, "chain was just published");
            if popped {
                let mem = self.mem.borrow();
                let parsed = BlkRequest::parse_chain(&mem, &self.chain.descriptors);
                drop(mem);
                debug_assert!(parsed.is_ok(), "well-formed chain");
                if let Ok(parsed) = parsed {
                    debug_assert_eq!(parsed.sector, Untrusted::new(offset / 512));
                    debug_assert_eq!(parsed.start_vlba(), Vlba(offset / BLOCK_SIZE));
                }
                let head = self.chain.head;
                let written = if op == BlockOp::Read {
                    len as u32 + 1
                } else {
                    1
                };
                if let Some(vq) = self.disks[disk_id.0].vq.as_mut() {
                    vq.push_used(head, written);
                    vq.pop_used();
                }
            }
        }
        // The image file's covering range.
        let (first_block, nblocks) = Self::covering(offset, len);
        // Writes must be backed: the *host* filesystem allocates lazily;
        // failure surfaces to the guest as an I/O error status.
        if op == BlockOp::Write
            && self
                .fs
                .allocate_range(ino, Vlba(first_block), nblocks)
                .is_err()
        {
            if kind == DiskKind::Virtio {
                self.mem
                    .borrow_mut()
                    .write(status_addr, &[BlkStatus::IoErr.byte()]);
            }
            let done = tb + self.costs.interrupt_inject + self.costs.guest_stack_complete;
            self.probe.report(Obs::Answered(tb, done));
            return (done, CompletionStatus::WriteFailed);
        }
        // The image's physical runs, looked up once for the request (after
        // a write's allocation, so a write sees no holes).
        let mut runs = std::mem::take(&mut self.runs);
        self.image_runs(ino, first_block, nblocks, &mut runs);
        // Functional bounce handling: the bounce is the host page cache's
        // copy of the covering blocks. A write fills it from the guest's
        // buffer, over the current bytes of any partially covered edge
        // block.
        if op == BlockOp::Write {
            self.load_partial_edges(offset, len, bounce, |k| {
                self.image_block(ino, first_block + k)
            });
            let in_block = offset % BLOCK_SIZE;
            self.mem
                .borrow_mut()
                .copy(buf + in_block, bounce + in_block, len);
        }
        // --- Device I/O through the PF, one request per mapped run; the
        // host page cache serves a hole's zeros without the device. ---
        self.probe.report(Obs::Awaiting(tb));
        let (first_id, mut at, mem) = (self.next_req, bounce, Rc::clone(&self.mem));
        let mapped = runs.iter().filter_map(|&(plba, n)| {
            let run_at = at;
            at += n * BLOCK_SIZE;
            if plba.is_none() && op == BlockOp::Read {
                mem.borrow_mut().fill_zero(run_at, n * BLOCK_SIZE);
            }
            plba.map(|p| (op, p.nested_vlba(), n, run_at))
        });
        self.post(disk_id, tb, mapped, |probe, id, _| {
            probe.report(Obs::Forwarded(id));
        });
        self.runs = runs;
        // `post` minted one id per mapped run, consecutively.
        let (mut last, mut final_status) = (tb, CompletionStatus::Ok);
        for id in first_id..self.next_req {
            let (tc, st) = self.wait_for(RequestId(id));
            if !matches!(st, CompletionStatus::Ok) {
                final_status = st;
            }
            last = last.max(tc);
        }
        // Functional: reads land in the guest buffer via the bounce, one
        // page-to-page copy.
        if op == BlockOp::Read {
            self.mem
                .borrow_mut()
                .copy(bounce, buf, nblocks * BLOCK_SIZE);
            if kind == DiskKind::Virtio {
                // Status byte written by the backend.
                self.mem
                    .borrow_mut()
                    .write(status_addr, &[BlkStatus::Ok.byte()]);
            }
        }
        // --- Completion: interrupt injection + guest-side unwinding. ---
        let done = last + self.costs.interrupt_inject + self.costs.guest_stack_complete;
        self.probe.report(Obs::Answered(last, done));
        (done, final_status)
    }

    /// Fills `runs` with the image's physical runs covering
    /// `[first, first+nblocks)`: `(Some(plba), len)` for mapped stretches,
    /// `(None, len)` for holes.
    fn image_runs(&self, ino: Ino, first: u64, nblocks: u64, runs: &mut Vec<(Option<Plba>, u64)>) {
        runs.clear();
        let tree = match self.fs.extent_tree(ino) {
            Ok(t) => t,
            Err(_) => {
                // A vanished image degrades to an all-hole range: reads
                // see zeros, writes are redone once the map is rebuilt.
                debug_assert!(false, "image exists");
                runs.push((None, nblocks));
                return;
            }
        };
        let mut b = first;
        let end = first + nblocks;
        while b < end {
            match tree.lookup(Vlba(b)) {
                Some(e) => {
                    let p = e.translate(Vlba(b));
                    debug_assert!(p.is_some(), "covered");
                    let Some(p) = p else {
                        // Corrupt mapping: treat this block as a hole.
                        runs.push((None, 1));
                        b += 1;
                        continue;
                    };
                    let run = e.end_logical().min(Vlba(end)).distance_from(Vlba(b));
                    match runs.last_mut() {
                        Some((Some(last_p), last_len)) if last_p.offset(*last_len) == p => {
                            *last_len += run;
                        }
                        _ => runs.push((Some(p), run)),
                    }
                    b += run;
                }
                None => {
                    let mut run = 0;
                    while b + run < end && tree.lookup(Vlba(b + run)).is_none() {
                        run += 1;
                    }
                    runs.push((None, run));
                    b += run;
                }
            }
        }
    }

    /// Read-modify-write at a write's edges, as a page cache does: loads
    /// the current bytes of the covering blocks that a write of `len`
    /// bytes at `offset` covers only in part into the copy of its covering
    /// range at `dst`, so the bytes the write does not cover survive. That
    /// is the first block if the write starts mid-block and the last if it
    /// ends mid-block, a block that is both once; the blocks in between
    /// are overwritten whole and never read. `plba(k)` is where covering
    /// block `k` lives on the device (`None`: a hole). Each block is one
    /// copy straight out of the store's chunk; a hole or a never-written
    /// block reads as zeros, and a block beyond capacity leaves `dst` as
    /// it is (the request covering it fails on the device).
    fn load_partial_edges(
        &self,
        offset: u64,
        len: u64,
        dst: HostAddr,
        plba: impl Fn(u64) -> Option<Plba>,
    ) {
        let (_, nblocks) = Self::covering(offset, len);
        let last = nblocks - 1;
        let head = !offset.is_multiple_of(BLOCK_SIZE);
        let tail = !(offset + len).is_multiple_of(BLOCK_SIZE) && (last > 0 || !head);
        for k in [head.then_some(0), tail.then_some(last)]
            .into_iter()
            .flatten()
        {
            let at = dst + k * BLOCK_SIZE;
            let mut mem = self.mem.borrow_mut();
            let Some(p) = plba(k) else {
                mem.fill_zero(at, BLOCK_SIZE);
                continue;
            };
            let _ = self.dev.store().read_run(p, 1, |_, _, data| match data {
                Some(bytes) => mem.write(at, bytes),
                None => mem.fill_zero(at, BLOCK_SIZE),
            });
        }
    }

    /// Where block `vblock` of image `ino` lives on the device (`None`: a
    /// hole, or no such image).
    fn image_block(&self, ino: Ino, vblock: u64) -> Option<Plba> {
        let v = Vlba(vblock);
        self.fs.extent_tree(ino).ok()?.lookup(v)?.translate(v)
    }

    // ------------------------------------------------------------------
    // Public I/O API
    // ------------------------------------------------------------------

    /// Synchronous write; returns the guest-observed latency and advances
    /// the clock to completion.
    ///
    /// # Panics
    ///
    /// Panics if the device reports a failure — use
    /// [`try_write`](Self::try_write) for fallible paths (quota tests,
    /// thin provisioning past the device size).
    // nesc-lint::allow(P1): thin infallible wrapper; the data path and
    // every fallible caller use try_write.
    pub fn write(&mut self, disk: DiskId, offset: u64, data: &[u8]) -> SimDuration {
        self.try_write(disk, offset, data)
            .expect("write failed; use try_write for fallible paths")
    }

    /// Fallible synchronous write.
    ///
    /// # Errors
    ///
    /// [`NescError::WriteFailed`] when the hypervisor cannot back the
    /// range, [`NescError::OutOfRange`] / [`NescError::Device`] for the
    /// corresponding device statuses.
    pub fn try_write(
        &mut self,
        disk: DiskId,
        offset: u64,
        data: &[u8],
    ) -> Result<SimDuration, NescError> {
        let start = self.now;
        let (done, status) = self.issue_once(
            disk,
            BlockOp::Write,
            offset,
            data.len() as u64,
            start,
            Some(data),
        );
        self.now = done;
        match NescError::from_status(status) {
            None => Ok(done - start),
            Some(err) => Err(err),
        }
    }

    /// Synchronous read into `out`; returns the latency and advances the
    /// clock.
    ///
    /// # Panics
    ///
    /// Panics if the device reports a failure — use
    /// [`try_read`](Self::try_read) for fallible paths.
    // nesc-lint::allow(P1): thin infallible wrapper; the data path and
    // every fallible caller use try_read.
    pub fn read(&mut self, disk: DiskId, offset: u64, out: &mut [u8]) -> SimDuration {
        self.try_read(disk, offset, out)
            .expect("read failed; use try_read for fallible paths")
    }

    /// Fallible synchronous read.
    ///
    /// # Errors
    ///
    /// The [`NescError`] mapped from the device's completion status.
    pub fn try_read(
        &mut self,
        disk: DiskId,
        offset: u64,
        out: &mut [u8],
    ) -> Result<SimDuration, NescError> {
        let start = self.now;
        let len = out.len() as u64;
        let (done, status) = self.issue_once(disk, BlockOp::Read, offset, len, start, None);
        self.now = done;
        if let Some(err) = NescError::from_status(status) {
            return Err(err);
        }
        // Extract the bytes from the guest buffer.
        let d = &self.disks[disk.0];
        let in_block = offset % BLOCK_SIZE;
        self.mem.borrow().read(d.buf + in_block, out);
        Ok(done - start)
    }

    /// A pipelined sequential stream: `total_bytes` moved in `req_bytes`
    /// requests with `qd` requests in flight, starting at byte
    /// `start_offset` of the disk. Models page-cache readahead/writeback
    /// pipelining. Returns throughput; advances the clock.
    ///
    /// # Panics
    ///
    /// Panics if `req_bytes` is zero, larger than the scratch buffers, or
    /// `qd` is zero.
    pub fn stream(
        &mut self,
        disk: DiskId,
        op: BlockOp,
        start_offset: u64,
        total_bytes: u64,
        req_bytes: u64,
        qd: usize,
    ) -> StreamResult {
        assert!(req_bytes > 0 && req_bytes <= MAX_REQUEST_BYTES);
        assert!(qd > 0, "queue depth must be positive");
        let nreq = total_bytes / req_bytes;
        assert!(nreq > 0, "stream needs at least one request");
        let start = self.now;
        let mut meter = Throughput::starting_at(start);
        let mut completions: VecDeque<SimTime> = VecDeque::new();
        let mut t_issue = start;
        let mut last = start;
        let payload = vec![0xA5u8; req_bytes as usize];
        for i in 0..nreq {
            if completions.len() >= qd {
                let c = completions.pop_front().expect("non-empty");
                t_issue = t_issue.max(c);
            }
            let offset = start_offset + i * req_bytes;
            let data = (op == BlockOp::Write).then_some(payload.as_slice());
            let (done, status) = self.issue_once(disk, op, offset, req_bytes, t_issue, data);
            assert!(
                status == CompletionStatus::Ok,
                "stream I/O failed: {status:?}"
            );
            completions.push_back(done);
            last = last.max(done);
            meter.record_op(req_bytes);
        }
        meter.finish(last);
        self.now = last;
        StreamResult {
            elapsed: last - start,
            bytes: meter.bytes(),
            ops: meter.ops(),
            mbps: meter.megabytes_per_sec(),
        }
    }

    /// One tenant's stream in a concurrent [`run_mixed`](Self::run_mixed)
    /// experiment: `count` closed-loop (QD=1) sequential requests.
    ///
    /// Declared here rather than in the workloads crate so device-level
    /// fairness experiments don't need a workload dependency.
    pub fn run_mixed(&mut self, specs: &[StreamSpec]) -> Vec<StreamResult> {
        assert!(!specs.is_empty(), "run_mixed needs at least one stream");
        let start = self.now;
        let payloads: Vec<Vec<u8>> = specs
            .iter()
            .map(|s| vec![0x9Au8; s.req_bytes as usize])
            .collect();
        // Per-stream progress: (next issue time, requests done, last done).
        let mut next_issue = vec![start; specs.len()];
        let mut done_reqs = vec![0u64; specs.len()];
        let mut last_done = vec![start; specs.len()];
        // Issue strictly in global time order so the device sees a
        // causally consistent interleaving of all tenants.
        while let Some(i) = (0..specs.len())
            .filter(|&i| done_reqs[i] < specs[i].count)
            .min_by_key(|&i| next_issue[i])
        {
            let sp = &specs[i];
            let offset = sp.start_offset + done_reqs[i] * sp.req_bytes;
            let data = (sp.op == BlockOp::Write).then(|| payloads[i].as_slice());
            let (done, status) =
                self.issue_once(sp.disk, sp.op, offset, sp.req_bytes, next_issue[i], data);
            assert!(
                status == CompletionStatus::Ok,
                "mixed stream I/O failed: {status:?}"
            );
            done_reqs[i] += 1;
            next_issue[i] = done; // closed loop: QD=1 per tenant
            last_done[i] = done;
        }
        let end = last_done.iter().copied().max().unwrap_or(start);
        self.now = end;
        specs
            .iter()
            .zip(last_done)
            .map(|(sp, done)| {
                let elapsed = done - start;
                let bytes = sp.count * sp.req_bytes;
                StreamResult {
                    elapsed,
                    bytes,
                    ops: sp.count,
                    mbps: if elapsed.is_zero() {
                        0.0
                    } else {
                        bytes as f64 / 1e6 / elapsed.as_secs_f64()
                    },
                }
            })
            .collect()
    }

    /// Drives a pre-computed open-loop arrival schedule: each request is
    /// issued at its own `at`, *not* gated on earlier completions — the
    /// datacenter traffic model, where tenants keep sending regardless of
    /// how the device is coping. Queueing is modeled by the per-resource
    /// service units, so a saturated path shows up as growing latency.
    ///
    /// `observe` is invoked once per request with its index in
    /// `arrivals`, the completion time, the arrival→completion latency,
    /// and the completion status (open-loop runs outlive transient
    /// `WriteFailed`/`OutOfRange` tenants, so errors are reported, not
    /// panicked on). Advances the clock to the last completion.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted by arrival time, starts before
    /// the current clock, or contains a request larger than
    /// [`MAX_REQUEST_BYTES`].
    pub fn run_open_loop(
        &mut self,
        arrivals: &[OpenRequest],
        mut observe: impl FnMut(usize, SimTime, SimDuration, CompletionStatus),
    ) {
        let max_write = arrivals
            .iter()
            .filter(|a| a.op == BlockOp::Write)
            .map(|a| a.bytes)
            .max()
            .unwrap_or(0);
        debug_assert!(max_write <= MAX_REQUEST_BYTES, "request too large");
        // One shared pattern payload serves every write (the simulation
        // cares about sizes and offsets, not tenant-unique bytes); an
        // oversized request is clamped here and in issue_once.
        let payload = vec![0x9Au8; max_write.min(MAX_REQUEST_BYTES) as usize];
        let mut prev = self.now;
        let mut end = self.now;
        for (i, a) in arrivals.iter().enumerate() {
            debug_assert!(a.at >= prev, "open-loop arrivals must be sorted in time");
            prev = a.at;
            let data =
                (a.op == BlockOp::Write).then(|| &payload[..(a.bytes as usize).min(payload.len())]);
            let (done, status) = self.issue_once(a.disk, a.op, a.offset, a.bytes, a.at, data);
            end = end.max(done);
            observe(i, done, done.saturating_since(a.at), status);
        }
        self.now = end;
    }

    /// Charges pure CPU time on a VM's vCPU (guest filesystem logic,
    /// application compute) and advances the clock.
    pub fn charge_vcpu(&mut self, vm: VmId, cost: SimDuration) {
        let t = self.vms[vm.0].vcpu.serve(self.now, cost).end;
        self.now = t;
    }

    /// Simulates hypervisor memory pressure on one NeSC disk: prunes the
    /// device-visible extent subtree covering `vlba` (writes NULL into the
    /// covering node pointer, paper §IV-B). Subsequent device accesses to
    /// that range raise `MappingPruned` interrupts, which the miss handler
    /// resolves by re-linking the pruned leaves. Returns whether anything was
    /// pruned (single-leaf trees have nothing prunable).
    ///
    /// # Panics
    ///
    /// Panics if the disk is not a NeSC direct-assigned disk.
    pub fn prune_image_mapping(&mut self, disk: DiskId, vlba: Vlba) -> bool {
        let vf = self.disks[disk.0].vf.expect("pruning needs a NeSC disk");
        let root = self
            .dev
            .mmio_read(vf, nesc_core::regs::offsets::EXTENT_TREE_ROOT);
        let pruned = nesc_extent::prune_covering(&mut self.mem.borrow_mut(), root, vlba);
        if pruned {
            // Cached translations for the pruned range must not survive;
            // only this VF's tree changed, so other tenants keep theirs.
            self.dev.flush_btlb_func(vf);
        }
        pruned
    }

    /// Runs the hypervisor's offline deduplication pass over the given
    /// disks' backing images (paper §IV-D): identical blocks are collapsed
    /// onto shared physical copies, every affected VF's extent tree is
    /// rebuilt, and the device's BTLB is flushed "to preserve meta-data
    /// consistency". The deduplicated disks must be used read-only by
    /// their VFs afterwards (the device has no copy-on-write).
    ///
    /// # Panics
    ///
    /// Panics if any disk is not file-backed.
    pub fn dedup_images(&mut self, disks: &[DiskId]) -> nesc_fs::DedupReport {
        let inos: Vec<Ino> = disks
            .iter()
            .map(|d| self.disks[d.0].ino.expect("file-backed disk"))
            .collect();
        let report = self
            .fs
            .dedup(self.dev.store_mut(), &inos)
            .expect("images are readable");
        for d in disks {
            if let Some(vf) = self.disks[d.0].vf {
                let ino = self.disks[d.0].ino.expect("file-backed");
                self.install_tree(*d, vf, ino)
                    .expect("image exists")
                    .expect("VF is live during dedup");
            }
        }
        self.dev.flush_btlb();
        report
    }

    /// The VM that owns a disk.
    pub fn disk_vm(&self, disk: DiskId) -> VmId {
        self.disks[disk.0].vm
    }

    /// A disk's size in 1 KiB blocks.
    pub fn disk_size_blocks(&self, disk: DiskId) -> u64 {
        self.disks[disk.0].size_blocks
    }

    /// A disk's virtualization kind.
    pub fn disk_kind(&self, disk: DiskId) -> DiskKind {
        self.disks[disk.0].kind
    }

    /// The backing image of a disk, if file-backed.
    pub fn disk_image(&self, disk: DiskId) -> Option<Ino> {
        self.disks[disk.0].ino
    }

    /// The NeSC virtual function backing a direct-assigned disk.
    pub fn disk_vf(&self, disk: DiskId) -> Option<FuncId> {
        self.disks[disk.0].vf
    }

    /// Hot-unplugs a disk (paper §IV-C discusses virtual device hotplug):
    /// the VF is deleted (its slot becomes reusable) and further I/O to
    /// the disk fails. The backing image survives on the host filesystem.
    ///
    /// Detaching twice is a no-op (the second unplug finds the slot
    /// already empty, as on real hardware).
    pub fn detach(&mut self, disk: DiskId) {
        let d = &mut self.disks[disk.0];
        debug_assert!(!d.detached, "disk already detached");
        if d.detached {
            return;
        }
        d.detached = true;
        if let Some(vf) = d.vf.take() {
            self.func_to_disk.remove(&vf);
            let deleted = self.dev.delete_vf(vf, self.now);
            debug_assert!(deleted.is_ok(), "VF was live");
        }
    }

    /// Grows (or shrinks) a disk's backing image and its virtual device
    /// size. For NeSC disks the extent tree is rebuilt and the VF's
    /// `DeviceSize` register updated — the paper's point that "the
    /// hypervisor \[can\] initialize virtual devices whose logical size is
    /// larger than their allocated physical space" (§IV-B) extends
    /// naturally to online resize.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (e.g. shrinking below zero is fine;
    /// growing never allocates, thanks to lazy allocation).
    pub fn resize(&mut self, disk: DiskId, new_size_bytes: u64) -> Result<(), FsError> {
        let Some(ino) = self.disks[disk.0].ino else {
            // Resizing a raw-device disk is a harness bug; a raw disk's
            // size is the device's, so the call is a no-op.
            debug_assert!(false, "resize needs a file-backed disk");
            return Ok(());
        };
        self.fs.truncate(ino, new_size_bytes)?;
        let new_blocks = new_size_bytes.div_ceil(BLOCK_SIZE);
        self.disks[disk.0].size_blocks = new_blocks;
        if let Some(vf) = self.disks[disk.0].vf {
            let set = self.install_tree(disk, vf, ino)?;
            debug_assert!(set.is_ok(), "VF is live");
            self.dev.mmio_write(
                vf,
                nesc_core::regs::offsets::DEVICE_SIZE,
                new_blocks,
                self.now,
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> System {
        let mut cfg = NescConfig::prototype();
        cfg.capacity_blocks = 64 * 1024; // 64 MiB device keeps tests quick
        System::new(cfg, SoftwareCosts::calibrated())
    }

    #[test]
    fn direct_write_read_roundtrip() {
        let mut sys = small_system();
        let disk = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        let data = vec![0x5Au8; 4096];
        let wl = sys.write(disk, 8192, &data);
        let mut out = vec![0u8; 4096];
        let rl = sys.read(disk, 8192, &mut out);
        assert_eq!(out, data);
        assert!(wl > SimDuration::ZERO && rl > SimDuration::ZERO);
    }

    #[test]
    fn provisioning_failures_are_reported_not_panicked() {
        let mut cfg = NescConfig::prototype();
        cfg.capacity_blocks = 64 * 1024;
        cfg.max_vfs = 1;
        let mut sys = System::new(cfg, SoftwareCosts::calibrated());
        let vm = sys.create_vm();
        assert_eq!(
            sys.try_attach(vm, DiskKind::Virtio, None),
            Err(NescError::Device),
            "a file-backed disk needs an image"
        );
        let first = sys.try_quick_disk(DiskKind::NescDirect, "a.img", 1 << 20);
        assert!(first.is_ok());
        assert_eq!(
            sys.try_quick_disk(DiskKind::Virtio, "a.img", 1 << 20).err(),
            Some(NescError::Device),
            "the image name is taken"
        );
        assert_eq!(
            sys.try_quick_disk(DiskKind::NescDirect, "b.img", 1 << 20)
                .err(),
            Some(NescError::Device),
            "the only VF is in use"
        );
        // A host-raw disk needs neither an image nor a VF.
        assert!(sys.try_attach(vm, DiskKind::HostRaw, None).is_ok());
    }

    #[test]
    fn each_disk_belongs_to_the_vm_it_was_attached_to() {
        let mut sys = small_system();
        let (vm0, vm1) = (sys.create_vm(), sys.create_vm());
        let img = sys.create_image("a.img", 1 << 20, true).unwrap();
        let d0 = sys
            .try_attach(vm1, DiskKind::NescDirect, Some(img))
            .unwrap();
        let d1 = sys.try_attach(vm0, DiskKind::HostRaw, None).unwrap();
        assert_eq!((sys.disk_vm(d0), sys.disk_vm(d1)), (vm1, vm0));
        let p = sys.quick_disk(DiskKind::Emulated, "b.img", 1 << 20);
        assert_eq!(sys.disk_vm(p.disk), p.vm);
        assert_ne!(p.vm, vm0);
        assert_ne!(p.vm, vm1);
    }

    #[test]
    fn all_paths_roundtrip_data() {
        for (kind, name) in [
            (DiskKind::NescDirect, "n.img"),
            (DiskKind::Virtio, "v.img"),
            (DiskKind::Emulated, "e.img"),
            (DiskKind::HostRaw, "unused"),
        ] {
            let mut sys = small_system();
            let disk = sys.quick_disk(kind, name, 1 << 20).disk;
            let data: Vec<u8> = (0..8192u32).map(|i| (i % 255) as u8).collect();
            sys.write(disk, 4096, &data);
            let mut out = vec![0u8; 8192];
            sys.read(disk, 4096, &mut out);
            assert_eq!(out, data, "{kind:?} corrupted data");
        }
    }

    #[test]
    fn latency_ordering_matches_paper() {
        // Fig. 9: NeSC ≈ host << virtio << emulation for small requests.
        let mut lat = std::collections::HashMap::new();
        for (kind, name) in [
            (DiskKind::NescDirect, "n.img"),
            (DiskKind::Virtio, "v.img"),
            (DiskKind::Emulated, "e.img"),
            (DiskKind::HostRaw, "unused"),
        ] {
            let mut sys = small_system();
            let disk = sys.quick_disk(kind, name, 1 << 20).disk;
            // Warm up (first-touch allocation on the virtio image path).
            sys.write(disk, 0, &[1u8; 1024]);
            let l = sys.write(disk, 0, &[2u8; 1024]);
            lat.insert(kind, l.as_micros_f64());
        }
        let nesc = lat[&DiskKind::NescDirect];
        let host = lat[&DiskKind::HostRaw];
        let virtio = lat[&DiskKind::Virtio];
        let emu = lat[&DiskKind::Emulated];
        assert!(
            (nesc / host) < 1.5,
            "NeSC ({nesc:.1}us) should be near host ({host:.1}us)"
        );
        assert!(
            virtio / nesc > 4.0 && virtio / nesc < 12.0,
            "virtio {virtio:.1}us vs NeSC {nesc:.1}us"
        );
        assert!(
            emu / nesc > 12.0,
            "emulation {emu:.1}us vs NeSC {nesc:.1}us"
        );
    }

    #[test]
    fn nesc_write_to_sparse_image_takes_miss_path() {
        let mut sys = small_system();
        let vm = sys.create_vm();
        let img = sys.create_image("sparse.img", 1 << 20, false).unwrap();
        let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
        let data = vec![0x77u8; 2048];
        sys.write(disk, 0, &data);
        assert!(
            sys.device().stats().miss_interrupts >= 1,
            "sparse write must interrupt the hypervisor"
        );
        let mut out = vec![0u8; 2048];
        sys.read(disk, 0, &mut out);
        assert_eq!(out, data);
        // The host filesystem now shows the blocks allocated.
        assert!(sys.host_fs().extent_tree(img).unwrap().mapped_blocks() >= 2);
    }

    #[test]
    fn sparse_image_read_returns_zeros_without_alloc() {
        let mut sys = small_system();
        let vm = sys.create_vm();
        let img = sys.create_image("sparse2.img", 1 << 20, false).unwrap();
        let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
        let mut out = vec![0xFFu8; 4096];
        sys.read(disk, 0, &mut out);
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(sys.host_fs().extent_tree(img).unwrap().mapped_blocks(), 0);
        assert_eq!(sys.device().stats().miss_interrupts, 0);
    }

    #[test]
    fn stream_throughput_sane() {
        let mut sys = small_system();
        let disk = sys.quick_disk(DiskKind::NescDirect, "s.img", 16 << 20).disk;
        let r = sys.stream(disk, BlockOp::Read, 0, 8 << 20, 32 * 1024, 8);
        assert_eq!(r.bytes, 8 << 20);
        assert_eq!(r.ops, 256);
        // Should be within the prototype's DMA-engine ballpark.
        assert!(
            r.mbps > 400.0 && r.mbps < 850.0,
            "read stream {:.0} MB/s",
            r.mbps
        );
    }

    #[test]
    fn virtio_stream_slower_than_direct() {
        let mut sys = small_system();
        let nd = sys.quick_disk(DiskKind::NescDirect, "n.img", 16 << 20).disk;
        let direct = sys.stream(nd, BlockOp::Write, 0, 4 << 20, 32 * 1024, 1);
        let mut sys2 = small_system();
        let vd = sys2.quick_disk(DiskKind::Virtio, "v.img", 16 << 20).disk;
        let virtio = sys2.stream(vd, BlockOp::Write, 0, 4 << 20, 32 * 1024, 1);
        let ratio = direct.mbps / virtio.mbps;
        assert!(
            ratio > 2.0 && ratio < 4.5,
            "direct {:.0} MB/s vs virtio {:.0} MB/s (ratio {ratio:.2})",
            direct.mbps,
            virtio.mbps
        );
    }

    #[test]
    fn unaligned_write_preserves_neighbors_on_paravirt() {
        for kind in [DiskKind::Virtio, DiskKind::Emulated] {
            let mut sys = small_system();
            let disk = sys.quick_disk(kind, "u.img", 1 << 20).disk;
            sys.write(disk, 0, &vec![0x11u8; 2048]);
            // Another region's bytes pass through the bounce in between,
            // so the edge block's neighbours must come from the store.
            sys.write(disk, 8192, &vec![0x33u8; 2048]);
            sys.write(disk, 512, &vec![0x22u8; 512]);
            let mut out = vec![0u8; 2048];
            sys.read(disk, 0, &mut out);
            assert!(out[..512].iter().all(|&b| b == 0x11), "{kind:?}");
            assert!(out[512..1024].iter().all(|&b| b == 0x22), "{kind:?}");
            assert!(out[1024..].iter().all(|&b| b == 0x11), "{kind:?}");
        }
    }

    #[test]
    fn pruned_mapping_resolves_transparently() {
        let mut sys = small_system();
        // A fragmented image so the tree has internal (prunable) levels:
        // interleave allocations between two files.
        let vm = sys.create_vm();
        let img = sys.create_image("frag.img", 4 << 20, false).unwrap();
        let other = sys.create_image("other.img", 4 << 20, false).unwrap();
        for b in 0..256u64 {
            sys.host_fs_mut().allocate_range(img, Vlba(b), 1).unwrap();
            sys.host_fs_mut().allocate_range(other, Vlba(b), 1).unwrap();
        }
        let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
        let data = vec![0x99u8; 4096];
        sys.write(disk, 0, &data);
        assert!(sys.prune_image_mapping(disk, Vlba(0)), "tree is prunable");
        let irqs_before = sys.device().stats().miss_interrupts;
        let mut out = vec![0u8; 4096];
        sys.read(disk, 0, &mut out);
        assert_eq!(out, data, "data survives pruning + rebuild");
        assert!(
            sys.device().stats().miss_interrupts > irqs_before,
            "the pruned walk must have interrupted the hypervisor"
        );
    }

    #[test]
    fn a_prune_keeps_other_tenants_translations() {
        let mut sys = small_system();
        let vm = sys.create_vm();
        let a = sys.create_image("pa.img", 1 << 20, false).unwrap();
        let b = sys.create_image("pb.img", 1 << 20, false).unwrap();
        for v in 0..256u64 {
            sys.host_fs_mut().allocate_range(a, Vlba(v), 1).unwrap();
            sys.host_fs_mut().allocate_range(b, Vlba(v), 1).unwrap();
        }
        let da = sys.attach(vm, DiskKind::NescDirect, Some(a));
        let db = sys.attach(vm, DiskKind::NescDirect, Some(b));
        let mut out = [0u8; 1024];
        // Warm B's translation of its first block.
        sys.read(db, 0, &mut out);
        let stats = sys.device().stats();
        sys.read(db, 0, &mut out);
        let hit = sys.device().stats();
        assert_eq!(hit.btlb_hits, stats.btlb_hits + 1, "B's block is cached");
        assert_eq!(hit.walks, stats.walks);
        assert!(sys.prune_image_mapping(da, Vlba(0)), "A's tree is prunable");
        sys.read(db, 0, &mut out);
        let after = sys.device().stats();
        assert_eq!(
            after.btlb_hits,
            hit.btlb_hits + 1,
            "B still hits after A's prune"
        );
        assert_eq!(after.walks, hit.walks, "B walks nothing after A's prune");
        // A's own cached translations are gone: its read misses and walks.
        sys.read(da, 0, &mut out);
        assert!(sys.device().stats().miss_interrupts > after.miss_interrupts);
    }

    #[test]
    fn dedup_images_keeps_vf_reads_correct() {
        let mut sys = small_system();
        let da = sys.quick_disk(DiskKind::NescDirect, "da.img", 1 << 20).disk;
        let db = sys.quick_disk(DiskKind::NescDirect, "db.img", 1 << 20).disk;
        // Identical golden content on both disks.
        let golden: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 13) as u8).collect();
        sys.write(da, 0, &golden);
        sys.write(db, 0, &golden);
        let report = sys.dedup_images(&[da, db]);
        assert!(report.deduped_blocks >= 64, "{report:?}");
        // Both VFs still read the right bytes through rebuilt trees.
        let mut out = vec![0u8; golden.len()];
        sys.read(da, 0, &mut out);
        assert_eq!(out, golden);
        sys.read(db, 0, &mut out);
        assert_eq!(out, golden);
    }

    #[test]
    fn detach_rejects_io_and_frees_the_vf_slot() {
        let mut sys = small_system();
        let disk = sys.quick_disk(DiskKind::NescDirect, "d.img", 1 << 20).disk;
        sys.write(disk, 0, &[1u8; 1024]);
        let vfs_before = sys.device().live_vfs();
        sys.detach(disk);
        assert_eq!(sys.device().live_vfs(), vfs_before - 1);
        assert!(matches!(
            sys.try_write(disk, 0, &[2u8; 1024]),
            Err(NescError::Device)
        ));
        // The rejected write still counts against its path, as a failure.
        let totals = sys.path_totals(DiskKind::NescDirect);
        assert_eq!((totals.requests, totals.errors), (2, 1));
        assert_eq!(totals.latency_ns.count(), 1, "failures keep no latency");
        // The slot is reusable by a new tenant.
        let disk2 = sys.quick_disk(DiskKind::NescDirect, "d2.img", 1 << 20).disk;
        sys.write(disk2, 0, &[3u8; 1024]);
        assert_eq!(sys.path_totals(DiskKind::NescDirect).requests, 3);
    }

    #[test]
    fn every_ring_descriptor_slot_is_line_aligned_in_host_memory() {
        let mut sys = small_system();
        let disks: Vec<DiskId> = (0..3)
            .map(|k| {
                let name = format!("r{k}.img");
                sys.quick_disk(DiskKind::NescDirect, &name, 1 << 20).disk
            })
            .collect();
        // Go once round every ring, so each slot's page is resident.
        let mut out = [0u8; 1024];
        for &disk in &disks {
            for i in 0..u64::from(RING_ENTRIES) {
                sys.read(disk, (i % 64) * 1024, &mut out);
            }
        }
        let mem = sys.memory();
        let mem = mem.borrow();
        assert_eq!(DESCRIPTOR_BYTES, 64);
        for &disk in &disks {
            let base = sys.disks[disk.0].ring_base;
            for slot in 0..u64::from(RING_ENTRIES) {
                let mut scratch = [0u8; 64];
                let desc = mem.read_in_place(base + slot * DESCRIPTOR_BYTES, &mut scratch);
                let (at, bytes) = (desc.as_ptr(), *desc);
                assert_ne!(at, scratch.as_ptr(), "slot {slot} lent in place");
                assert_eq!(at as usize % 64, 0, "{disk:?} slot {slot} straddles lines");
                assert_ne!(bytes, [0; 64], "slot {slot} was written");
            }
        }
    }

    #[test]
    fn switching_channels_mid_run_keeps_the_totals() {
        let mut sys = small_system();
        let disk = sys.quick_disk(DiskKind::Virtio, "m.img", 1 << 20).disk;
        let requests = |sys: &System| sys.path_totals(DiskKind::Virtio).requests;
        // The device's counters are the same tally's: (completed, written).
        let device = |sys: &System| {
            let s = sys.device().stats();
            (s.requests_completed, s.blocks_written)
        };
        sys.write(disk, 0, &[1u8; 1024]);
        // Each switch rewires the probe; the tally moves with it.
        sys.set_tracing(true);
        assert_eq!((requests(&sys), device(&sys)), (1, (1, 1)));
        sys.write(disk, 0, &[2u8; 1024]);
        sys.set_telemetry(TelemetryConfig::windowed(SimDuration::from_micros(10)));
        assert_eq!((requests(&sys), device(&sys)), (2, (2, 2)));
        sys.write(disk, 0, &[3u8; 1024]);
        sys.set_tracing(false);
        assert_eq!(device(&sys), (3, 3));
        sys.write(disk, 0, &[4u8; 1024]);
        let totals = sys.path_totals(DiskKind::Virtio);
        assert_eq!((totals.requests, totals.bytes), (4, 4 * 1024));
        assert_eq!(totals.latency_ns.count(), 4);
        assert_eq!(device(&sys), (4, 4));
        // Telemetry windows see only what finished after it attached, and
        // the tracing switch in between lost none of that either.
        sys.think(SimDuration::from_micros(100));
        sys.telemetry_finish();
        let sampler = sys.telemetry().map(Telemetry::sampler);
        let series = sampler.and_then(|s| s.series_by_name("hv.vf0.requests"));
        let windowed: u64 = series
            .map(|s| s.samples().map(|(_, v)| v).sum())
            .unwrap_or(0);
        assert_eq!(windowed, 2);
    }

    /// One workload with hole reads, a write miss, a prune and a
    /// paravirtual disk leaves the same device counters whichever
    /// observability channels are on: the tally folds them either way.
    #[test]
    fn device_counters_are_the_same_under_every_channel_setting() {
        let run = |tracing: bool, recording: bool| {
            let mut sys = small_system();
            sys.set_tracing(tracing);
            if recording {
                let cfg = TelemetryConfig::windowed(SimDuration::from_micros(10));
                sys.set_telemetry(cfg.flight(nesc_sim::FlightConfig::default()));
            }
            // Interleaved single-block allocations give the image a
            // prunable tree; its tail past 128 KiB stays a hole.
            let vm = sys.create_vm();
            let img = sys.create_image("c.img", 1 << 20, false).unwrap();
            let other = sys.create_image("o.img", 1 << 20, false).unwrap();
            for v in 0..128u64 {
                sys.host_fs_mut().allocate_range(img, Vlba(v), 1).unwrap();
                sys.host_fs_mut().allocate_range(other, Vlba(v), 1).unwrap();
            }
            let direct = sys.attach(vm, DiskKind::NescDirect, Some(img));
            let virtio = sys.quick_disk(DiskKind::Virtio, "v.img", 1 << 20).disk;
            let mut buf = vec![0u8; 8192];
            sys.read(direct, 512 << 10, &mut buf);
            sys.write(direct, 512 << 10, &[7; 4096]);
            assert!(sys.prune_image_mapping(direct, Vlba(0)), "tree is prunable");
            sys.read(direct, 0, &mut buf);
            sys.write(virtio, 0, &[3; 4096]);
            sys.read(virtio, 0, &mut buf);
            assert_eq!(sys.tracer().is_enabled(), tracing);
            assert_eq!(sys.flight().is_enabled(), recording);
            sys.device().stats()
        };
        let off = run(false, false);
        assert_eq!(off.zero_fill_blocks, 8, "the 8 KiB hole read");
        assert_eq!(off.miss_interrupts, 2, "the write miss and the prune");
        assert_eq!(off.requests_failed, 0);
        assert!(off.walks > 0 && off.oob_requests > 0 && off.blocks_read > 0);
        for (tracing, recording) in [(true, false), (false, true), (true, true)] {
            let on = run(tracing, recording);
            assert_eq!(on, off, "tracing {tracing}, recording {recording}");
        }
    }

    #[test]
    fn online_resize_grows_and_shrinks() {
        let mut sys = small_system();
        let disk = sys.quick_disk(DiskKind::NescDirect, "r.img", 1 << 20).disk;
        sys.write(disk, 0, &[7u8; 1024]);
        // Grow: the new tail is addressable (as holes).
        sys.resize(disk, 4 << 20).unwrap();
        let mut buf = vec![0xFFu8; 1024];
        sys.read(disk, 3 << 20, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "grown tail is a hole");
        // And writable via the miss path.
        sys.write(disk, 3 << 20, &[9u8; 1024]);
        sys.read(disk, 3 << 20, &mut buf);
        assert!(buf.iter().all(|&b| b == 9));
        // Shrink: beyond-end access is rejected by the device.
        sys.resize(disk, 1 << 20).unwrap();
        assert!(matches!(
            sys.try_read(disk, 3 << 20, &mut buf),
            Err(NescError::OutOfRange)
        ));
        // Data inside the shrunk size survives.
        sys.read(disk, 0, &mut buf);
        assert!(buf.iter().all(|&b| b == 7));
    }

    /// Walks the tree the device holds for `disk`'s VF at every vLBA of
    /// the disk and requires the pLBA (or hole) the filesystem's tree
    /// gives there.
    fn assert_installed_tree_matches_image(sys: &System, disk: DiskId, trigger: &str) {
        use nesc_extent::{walk_run, WalkOutcome};
        let vf = sys.disk_vf(disk).expect("NeSC disk");
        let ino = sys.disk_image(disk).expect("file-backed disk");
        let root = sys
            .device()
            .mmio_read(vf, nesc_core::regs::offsets::EXTENT_TREE_ROOT);
        let tree = sys.host_fs().extent_tree(ino).unwrap();
        let mem = sys.memory();
        let mem = mem.borrow();
        for v in 0..sys.disk_size_blocks(disk) {
            let vlba = Vlba(v);
            let device = match walk_run(&mem, root, vlba, 1).result.outcome {
                WalkOutcome::Mapped(e) => e.translate(vlba),
                WalkOutcome::Hole => None,
                other => panic!("after {trigger}: vLBA {v} walks to {other:?}"),
            };
            let host = tree.lookup(vlba).and_then(|e| e.translate(vlba));
            assert_eq!(device, host, "after {trigger}: vLBA {v}");
        }
    }

    /// The root of the tree `disk`'s VF walks.
    fn tree_root(sys: &System, disk: DiskId) -> HostAddr {
        let vf = sys.disk_vf(disk).expect("NeSC disk");
        sys.device()
            .mmio_read(vf, nesc_core::regs::offsets::EXTENT_TREE_ROOT)
    }

    /// A NeSC disk over an image of `blocks` one-block extents, allocated
    /// interleaved with a second image's so none merge and the tree has
    /// prunable internal levels.
    fn fragmented_disk(sys: &mut System, blocks: u64) -> DiskId {
        let vm = sys.create_vm();
        let a = sys
            .create_image("frag.img", blocks * BLOCK_SIZE, false)
            .unwrap();
        let b = sys
            .create_image("other.img", blocks * BLOCK_SIZE, false)
            .unwrap();
        for v in 0..blocks {
            sys.host_fs_mut().allocate_range(a, Vlba(v), 1).unwrap();
            sys.host_fs_mut().allocate_range(b, Vlba(v), 1).unwrap();
        }
        sys.attach(vm, DiskKind::NescDirect, Some(a))
    }

    #[test]
    fn every_tree_install_matches_the_filesystem() {
        let mut sys = small_system();
        // Interleaved single-block allocations fragment both images, so
        // their trees have internal (prunable) levels.
        let vm = sys.create_vm();
        let a = sys.create_image("ia.img", 1 << 20, false).unwrap();
        let b = sys.create_image("ib.img", 1 << 20, false).unwrap();
        for v in 0..256u64 {
            sys.host_fs_mut().allocate_range(a, Vlba(v), 1).unwrap();
            sys.host_fs_mut().allocate_range(b, Vlba(v), 1).unwrap();
        }
        let da = sys.attach(vm, DiskKind::NescDirect, Some(a));
        let db = sys.attach(vm, DiskKind::NescDirect, Some(b));
        assert_installed_tree_matches_image(&sys, da, "attach");

        let irqs = sys.device().stats().miss_interrupts;
        sys.write(da, 512 << 10, &[0x5A; 4096]);
        assert!(sys.device().stats().miss_interrupts > irqs);
        assert_installed_tree_matches_image(&sys, da, "a write-miss rewalk");

        assert!(sys.prune_image_mapping(da, Vlba(0)), "tree is prunable");
        let irqs = sys.device().stats().miss_interrupts;
        sys.read(da, 0, &mut [0u8; 1024]);
        assert!(sys.device().stats().miss_interrupts > irqs);
        assert_installed_tree_matches_image(&sys, da, "a prune and rewalk");

        // Two prunes in different leaves, then a read of only the first:
        // the one miss must re-link both, in the tree already installed.
        let root = tree_root(&sys, da);
        assert!(sys.prune_image_mapping(da, Vlba(0)));
        assert!(sys.prune_image_mapping(da, Vlba(200)));
        let irqs = sys.device().stats().miss_interrupts;
        sys.read(da, 0, &mut [0u8; 1024]);
        assert_eq!(sys.device().stats().miss_interrupts, irqs + 1);
        assert_eq!(tree_root(&sys, da), root, "a prune miss repairs in place");
        assert_installed_tree_matches_image(&sys, da, "two prunes and one rewalk");

        // A prune, then a block appended behind the device's back: the
        // pruned chunk still matches, but the installed tree lacks the new
        // block, so the prune miss must rebuild instead of repairing.
        assert!(sys.prune_image_mapping(da, Vlba(100)));
        sys.host_fs_mut().allocate_range(a, Vlba(700), 1).unwrap();
        sys.read(da, 100 << 10, &mut [0u8; 1024]);
        assert_ne!(tree_root(&sys, da), root, "a changed mapping rebuilds");
        assert_installed_tree_matches_image(&sys, da, "a prune after a mapping change");

        // A prune, then a write miss: the mapping changed, so the miss
        // installs a fresh serialization instead of repairing.
        let root = tree_root(&sys, da);
        assert!(sys.prune_image_mapping(da, Vlba(100)));
        let irqs = sys.device().stats().miss_interrupts;
        sys.write(da, 800 << 10, &[0xA5; 1024]);
        assert!(sys.device().stats().miss_interrupts > irqs);
        assert_ne!(tree_root(&sys, da), root, "a changed mapping rebuilds");
        assert_installed_tree_matches_image(&sys, da, "a prune and a write miss");

        sys.resize(da, 2 << 20).unwrap();
        assert_installed_tree_matches_image(&sys, da, "growing resize");
        sys.resize(da, 128 << 10).unwrap();
        assert_installed_tree_matches_image(&sys, da, "shrinking resize");
        // Growing back must not resurrect the truncated mappings.
        sys.resize(da, 1 << 20).unwrap();
        assert_installed_tree_matches_image(&sys, da, "regrowing resize");

        let golden: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 13) as u8).collect();
        sys.write(da, 0, &golden);
        sys.write(db, 0, &golden);
        let report = sys.dedup_images(&[da, db]);
        assert!(report.deduped_blocks >= 64, "{report:?}");
        assert_installed_tree_matches_image(&sys, da, "dedup");
        assert_installed_tree_matches_image(&sys, db, "dedup");
    }

    /// The prune-pressure miss path in host memory: each miss writes one
    /// 512 B leaf per pruned slot, not a whole new tree, so resident pages
    /// grow by at most one per 8 re-linked leaves (plus a few for the
    /// data path's first touches).
    #[test]
    fn prune_misses_grow_memory_by_the_leaves_they_relink() {
        let mut sys = small_system();
        let disk = fragmented_disk(&mut sys, 4096);
        let mut rng = nesc_sim::SimRng::seed(7);
        let mut buf = vec![0u8; 4096];
        sys.read(disk, 0, &mut buf);
        let pages = sys.memory().borrow().resident_pages();
        let irqs = sys.device().stats().miss_interrupts;
        let mut prunes = 0;
        for i in 0..4096u64 {
            if i % 4 == 0 {
                prunes += u64::from(sys.prune_image_mapping(disk, Vlba(rng.range(0, 4096))));
            }
            sys.read(disk, rng.range(0, 1024) * 4096, &mut buf);
        }
        let misses = sys.device().stats().miss_interrupts - irqs;
        assert!(misses > 64, "the loop storms the miss path: {misses}");
        let grown = (sys.memory().borrow().resident_pages() - pages) as u64;
        assert!(
            grown <= prunes.div_ceil(8) + 4,
            "{grown} pages for {prunes} prunes and {misses} misses"
        );
        assert_installed_tree_matches_image(&sys, disk, "the prune storm");
    }

    /// A front-end's batch on a raw-device disk takes one PF doorbell: the
    /// device sees each of its requests arrive when that doorbell lands,
    /// and each counts as a host request.
    #[test]
    fn a_pf_batch_rings_one_doorbell() {
        let mut sys = small_system();
        sys.set_tracing(true);
        let raw = sys.quick_disk(DiskKind::HostRaw, "raw", 0).disk;
        let buf = sys.memory().borrow_mut().alloc(3 * 4096, 4096);
        let at = SimTime::from_nanos(1000);
        let reqs: Vec<_> = (0..3u64)
            .map(|i| (BlockOp::Read, Vlba(i * 4), 4, buf + i * 4096))
            .collect();
        let ids: Vec<RequestId> = sys.submit_direct(raw, at, &reqs).unwrap().collect();
        for id in ids {
            let status = sys.take_completion(id).map(|(_, status)| status);
            assert_eq!(status, Some(CompletionStatus::Ok));
        }
        let spans = sys.take_spans();
        let device = spans
            .iter()
            .filter(|s| (s.layer(), s.name()) == ("core", "device"));
        let arrivals: Vec<SimTime> = device.map(|s| s.start).collect();
        assert_eq!(arrivals.len(), 3);
        assert!(arrivals[0] > at, "the doorbell lands after it is rung");
        assert!(arrivals.iter().all(|&t| t == arrivals[0]), "{arrivals:?}");
        let host = sys.path_totals(DiskKind::HostRaw);
        assert_eq!((host.requests, host.bytes, host.errors), (3, 3 * 4096, 0));
    }

    #[test]
    fn think_and_charge_advance_clock() {
        let mut sys = small_system();
        let vm = sys.create_vm();
        let t0 = sys.now();
        sys.think(SimDuration::from_micros(5));
        sys.charge_vcpu(vm, SimDuration::from_micros(3));
        assert_eq!(sys.now() - t0, SimDuration::from_micros(8));
    }
}
