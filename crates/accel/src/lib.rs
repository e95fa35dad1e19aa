#![warn(missing_docs)]

//! Accelerator-direct storage access — the NeSC extension of paper §IV-D.
//!
//! "Traditionally, when an accelerator on the system needs to access
//! storage, it must use the host OS as an intermediary and thereby waste
//! CPU cycles and energy. ... NeSC can be easily extended to enable direct
//! accelerator-storage communications ... by modifying the VF
//! request-response interface ... to a direct device-to-device DMA
//! interface (in which offset 0 in the device matches offset 0 in the
//! file)."
//!
//! This crate models that extension:
//!
//! * [`Accelerator`] — a PCIe peer (think GPGPU/FPGA) with a BAR-mapped
//!   local memory window and a small command processor;
//! * [`Accelerator::fetch_direct`] / [`Accelerator::flush_direct`] — the
//!   extension path: the accelerator puts descriptors on a NeSC-direct
//!   disk's VF ring of a [`System`] itself and NeSC DMAs file data
//!   peer-to-peer into the accelerator's BAR window, no host CPU involved
//!   (the hypervisor only serves translation misses, as for any VF);
//! * [`HostMediated`] — the baseline the paper contrasts: the accelerator
//!   asks the host, the host reads through its raw-device disk of the same
//!   [`System`] into a system buffer, then copies across PCIe into the
//!   accelerator and signals it — two interrupts and a full traversal of
//!   the host software stack.
//!
//! The crate's tests and the `accelerator_direct` example show both
//! correctness (bytes land where they should, isolation still holds — the
//! accelerator's VF is as confined as any VM's) and the latency gap.

use std::fmt;

use nesc_core::CompletionStatus;
use nesc_extent::{Plba, Vlba};
use nesc_hypervisor::{DiskId, NescError, System};
use nesc_pcie::HostAddr;
use nesc_sim::{ServiceUnit, SimDuration, SimTime};
use nesc_storage::{BlockOp, BLOCK_SIZE};

/// A PCIe accelerator with a BAR-mapped local memory window.
///
/// The window lives in the system's PCIe address space (that is how
/// peer-to-peer DMA addresses it), so it is carved out of the shared
/// [`HostMemory`][nesc_pcie::HostMemory] the device DMAs into — exactly
/// like a real accelerator BAR.
#[derive(Debug)]
pub struct Accelerator {
    /// Base of the BAR-mapped local memory window.
    window_base: HostAddr,
    /// Window size in bytes.
    window_len: u64,
    /// The accelerator's command processor (issues descriptors, polls
    /// completions).
    engine: ServiceUnit,
    /// Cost to build and ring one storage descriptor.
    cmd_cost: SimDuration,
    fetches: u64,
    bytes_moved: u64,
}

/// Error from an accelerator transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccelError {
    /// The transfer does not fit the accelerator's local window.
    WindowOverflow {
        /// Requested bytes.
        requested: u64,
        /// Window capacity.
        window: u64,
    },
    /// The storage device rejected the request.
    Storage(CompletionStatus),
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::WindowOverflow { requested, window } => {
                write!(f, "transfer of {requested} B exceeds {window} B window")
            }
            AccelError::Storage(s) => write!(f, "storage error: {s:?}"),
        }
    }
}

impl std::error::Error for AccelError {}

impl Accelerator {
    /// Creates an accelerator whose BAR window is `[window_base,
    /// window_base + window_len)` in the system address space.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn new(window_base: HostAddr, window_len: u64) -> Self {
        assert!(window_len > 0, "accelerator needs local memory");
        Accelerator {
            window_base,
            window_len,
            engine: ServiceUnit::new(),
            cmd_cost: SimDuration::from_nanos(400),
            fetches: 0,
            bytes_moved: 0,
        }
    }

    /// Completed fetch/flush operations.
    pub fn transfers(&self) -> u64 {
        self.fetches
    }

    /// Total bytes moved to/from storage.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    // allow: mirrors the DMA descriptor the accelerator posts (system,
    // disk, op, file window, stride) one field per argument; folding
    // them into a struct would just rename the problem.
    #[allow(clippy::too_many_arguments)]
    fn transfer_direct(
        &mut self,
        now: SimTime,
        sys: &mut System,
        disk: DiskId,
        op: BlockOp,
        offset: u64,
        len: u64,
        window_offset: u64,
    ) -> Result<SimTime, AccelError> {
        if window_offset + len > self.window_len {
            return Err(AccelError::WindowOverflow {
                requested: window_offset + len,
                window: self.window_len,
            });
        }
        assert_eq!(offset % BLOCK_SIZE, 0, "block-aligned transfers only");
        assert!(
            len > 0 && len.is_multiple_of(BLOCK_SIZE),
            "block-multiple length"
        );
        // The accelerator's command processor builds the descriptor and
        // rings the VF's doorbell itself — no host CPU anywhere.
        let t = self.engine.serve(now, self.cmd_cost).end;
        let buf = self.window_base + window_offset;
        let req = (op, Vlba::from_byte_offset(offset), len / BLOCK_SIZE, buf);
        let posted = sys.submit_direct(disk, t, &[req]).ok();
        let done = posted.and_then(|mut ids| ids.next().and_then(|id| sys.take_completion(id)));
        let (at, status) = done.ok_or(AccelError::Storage(CompletionStatus::DeviceError))?;
        if status != CompletionStatus::Ok {
            return Err(AccelError::Storage(status));
        }
        self.fetches += 1;
        self.bytes_moved += len;
        // Completion MSI lands straight at the accelerator.
        Ok(self.engine.serve(at, self.cmd_cost / 2).end)
    }

    /// Reads `len` bytes of the file behind NeSC-direct `disk` at byte
    /// `offset` straight into the accelerator window at `window_offset`
    /// (peer DMA). Returns the completion time.
    ///
    /// # Errors
    ///
    /// [`AccelError`] on window overflow or storage failure.
    ///
    /// # Panics
    ///
    /// Panics on unaligned offsets/lengths (the direct interface is
    /// block-granular, paper §IV-D).
    pub fn fetch_direct(
        &mut self,
        now: SimTime,
        sys: &mut System,
        disk: DiskId,
        offset: u64,
        len: u64,
        window_offset: u64,
    ) -> Result<SimTime, AccelError> {
        self.transfer_direct(now, sys, disk, BlockOp::Read, offset, len, window_offset)
    }

    /// Writes accelerator-local data back to the file behind `disk` (peer
    /// DMA).
    ///
    /// # Errors
    ///
    /// [`AccelError`] on window overflow or storage failure.
    ///
    /// # Panics
    ///
    /// Panics on unaligned offsets/lengths.
    pub fn flush_direct(
        &mut self,
        now: SimTime,
        sys: &mut System,
        disk: DiskId,
        offset: u64,
        len: u64,
        window_offset: u64,
    ) -> Result<SimTime, AccelError> {
        self.transfer_direct(now, sys, disk, BlockOp::Write, offset, len, window_offset)
    }
}

/// Syscall + driver + wake-up cost per host-mediated transfer.
const REQUEST_OVERHEAD: SimDuration = SimDuration::from_micros(20);
/// Host→accelerator copy bandwidth over PCIe.
const COPY_BYTES_PER_SEC: u64 = 6_000_000_000;
/// Interrupt/notification cost in each direction.
const NOTIFY_COST: SimDuration = SimDuration::from_micros(5);

/// The traditional path: the host OS mediates every accelerator-storage
/// transfer (the baseline §IV-D argues against).
#[derive(Debug, Default)]
pub struct HostMediated {
    /// Host CPU handling the accelerator's request.
    host_cpu: ServiceUnit,
}

impl HostMediated {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The host reads `len` bytes at `plba` through the PF (its raw-device
    /// disk `disk`) into its buffer at `staging`, then copies them across
    /// PCIe into the accelerator and signals it; the copy is charged, the
    /// bytes stay in `staging`. Returns the completion time.
    ///
    /// # Errors
    ///
    /// The [`NescError`] of a failed PF read.
    pub fn fetch_via_host(
        &mut self,
        now: SimTime,
        sys: &mut System,
        disk: DiskId,
        plba: Plba,
        len: u64,
        staging: HostAddr,
    ) -> Result<SimTime, NescError> {
        // Accelerator notifies the host; host wakes, issues the PF I/O.
        let t = self.host_cpu.serve(now + NOTIFY_COST, REQUEST_OVERHEAD).end;
        let lba = Vlba::from_byte_offset(plba.byte_offset());
        let req = (BlockOp::Read, lba, len / BLOCK_SIZE, staging);
        let mut ids = sys.submit_direct(disk, t, &[req])?;
        let done = ids.next().and_then(|id| sys.take_completion(id));
        let (at, status) = done.ok_or(NescError::Device)?;
        if let Some(err) = NescError::from_status(status) {
            return Err(err);
        }
        // The host's copy into the accelerator window and its signal.
        let copy = SimDuration::for_bytes(len, COPY_BYTES_PER_SEC);
        Ok(self.host_cpu.serve(at, copy).end + NOTIFY_COST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_hypervisor::DiskKind;

    /// A system with a 64-block preallocated file behind a NeSC-direct
    /// disk.
    fn setup() -> (System, DiskId) {
        let mut sys = System::builder().capacity_blocks(8192).build();
        let disk = sys
            .quick_disk(DiskKind::NescDirect, "data.img", 64 * 1024)
            .disk;
        (sys, disk)
    }

    /// Where block `vlba` of `disk`'s image lives on the device: the
    /// address the host-mediated path reads through the PF.
    fn image_plba(sys: &System, disk: DiskId, vlba: u64) -> Plba {
        let ino = sys.disk_image(disk).unwrap();
        let tree = sys.host_fs().extent_tree(ino).unwrap();
        tree.lookup(Vlba(vlba))
            .unwrap()
            .translate(Vlba(vlba))
            .unwrap()
    }

    #[test]
    fn direct_fetch_lands_in_window() {
        let (mut sys, disk) = setup();
        let mut file = vec![0xCA; 1024];
        file.extend([0xFE; 1024]);
        sys.write(disk, 0, &file);
        let mem = sys.memory();
        let window = mem.borrow_mut().alloc(1 << 20, 4096);
        let mut acc = Accelerator::new(window, 1 << 20);
        acc.fetch_direct(sys.now(), &mut sys, disk, 0, 2048, 0)
            .unwrap();
        let got = mem.borrow().read_vec(window, 2048);
        assert!(got[..1024].iter().all(|&b| b == 0xCA));
        assert!(got[1024..].iter().all(|&b| b == 0xFE));
        assert_eq!(acc.transfers(), 1);
        assert_eq!(acc.bytes_moved(), 2048);
    }

    #[test]
    fn direct_flush_writes_file_blocks() {
        let (mut sys, disk) = setup();
        let mem = sys.memory();
        let window = mem.borrow_mut().alloc(1 << 20, 4096);
        mem.borrow_mut().write(window, &[0x77u8; 1024]);
        let mut acc = Accelerator::new(window, 1 << 20);
        let t = acc
            .flush_direct(SimTime::ZERO, &mut sys, disk, 5 * 1024, 1024, 0)
            .unwrap();
        // File block 5, read back through the guest's own disk path.
        let mut block = vec![0u8; 1024];
        sys.think(t.saturating_since(sys.now()));
        sys.read(disk, 5 * 1024, &mut block);
        assert_eq!(block, vec![0x77; 1024]);
    }

    #[test]
    fn direct_flush_to_a_sparse_file_allocates_on_the_miss() {
        let mut sys = System::builder().capacity_blocks(8192).build();
        let vm = sys.create_vm();
        let img = sys.create_image("sparse.img", 64 * 1024, false).unwrap();
        let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
        let mem = sys.memory();
        let window = mem.borrow_mut().alloc(1 << 20, 4096);
        mem.borrow_mut().write(window, &[0x3C; 2048]);
        let mut acc = Accelerator::new(window, 1 << 20);
        let t = acc
            .flush_direct(SimTime::ZERO, &mut sys, disk, 8 * 1024, 2048, 0)
            .unwrap();
        // File blocks 8 and 9, read back into another part of the window.
        acc.fetch_direct(t, &mut sys, disk, 8 * 1024, 2048, 4096)
            .unwrap();
        assert_eq!(mem.borrow().read_vec(window + 4096, 2048), vec![0x3C; 2048]);
        assert_eq!(sys.device().stats().miss_interrupts, 1);
    }

    #[test]
    fn window_overflow_rejected() {
        let (mut sys, disk) = setup();
        let window = sys.memory().borrow_mut().alloc(4096, 4096);
        let mut acc = Accelerator::new(window, 4096);
        let err = acc
            .fetch_direct(SimTime::ZERO, &mut sys, disk, 0, 8192, 0)
            .unwrap_err();
        assert!(matches!(err, AccelError::WindowOverflow { .. }));
        assert!(err.to_string().contains("window"));
    }

    #[test]
    fn accelerator_vf_is_still_confined() {
        // The accelerator can only reach its VF's file, like any VM.
        let (mut sys, disk) = setup();
        let window = sys.memory().borrow_mut().alloc(1 << 20, 4096);
        let mut acc = Accelerator::new(window, 1 << 20);
        let err = acc
            .fetch_direct(SimTime::ZERO, &mut sys, disk, 64 * 1024, 1024, 0)
            .unwrap_err();
        assert_eq!(err, AccelError::Storage(CompletionStatus::OutOfRange));
    }

    #[test]
    fn direct_beats_host_mediated() {
        let (mut sys, disk) = setup();
        let window = sys.memory().borrow_mut().alloc(1 << 20, 4096);
        let mut acc = Accelerator::new(window, 1 << 20);
        let t_direct = acc
            .fetch_direct(SimTime::ZERO, &mut sys, disk, 0, 16 * 1024, 0)
            .unwrap();

        let (mut sys2, disk2) = setup();
        let raw = sys2.quick_disk(DiskKind::HostRaw, "raw", 0).disk;
        let plba = image_plba(&sys2, disk2, 0);
        let staging = sys2.memory().borrow_mut().alloc(1 << 20, 4096);
        let mut host = HostMediated::new();
        let t_host = host
            .fetch_via_host(SimTime::ZERO, &mut sys2, raw, plba, 16 * 1024, staging)
            .unwrap();
        let host = sys2.path_totals(DiskKind::HostRaw);
        assert_eq!(
            (host.requests, host.bytes),
            (1, 16 * 1024),
            "one host request"
        );
        assert!(
            t_host.as_nanos() > t_direct.as_nanos() * 2,
            "host-mediated {t_host} should dwarf direct {t_direct}"
        );
    }

    #[test]
    fn host_mediated_fetch_larger_than_a_request_buffer() {
        // 5 MiB: more than the 4 MiB a disk's own request buffer holds.
        let len = 5u64 << 20;
        let mut sys = System::builder().capacity_blocks(16384).build();
        let disk = sys.quick_disk(DiskKind::NescDirect, "big.img", len).disk;
        let raw = sys.quick_disk(DiskKind::HostRaw, "raw", 0).disk;
        let file: Vec<u8> = (0..len).map(|i| (i / 1024 % 251) as u8).collect();
        for (k, chunk) in file.chunks(1 << 20).enumerate() {
            sys.write(disk, (k as u64) << 20, chunk);
        }
        let first = image_plba(&sys, disk, 0);
        let last = len / 1024 - 1;
        assert_eq!(
            image_plba(&sys, disk, last),
            first.offset(last),
            "contiguous"
        );
        let staging = sys.memory().borrow_mut().alloc(len, 4096);
        HostMediated::new()
            .fetch_via_host(sys.now(), &mut sys, raw, first, len, staging)
            .unwrap();
        assert!(sys.memory().borrow().read_vec(staging, len as usize) == file);
    }
}
