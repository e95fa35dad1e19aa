//! Zero-allocation assertion for the steady-state device loop.
//!
//! The single-slot multiplexer schedule, the reusable output partition
//! buffer, and the struct-of-arrays per-function counters exist so that
//! once every ring and scratch vector has grown to its working size,
//! driving the device allocates *nothing*. This harness pins that property with a
//! counting `#[global_allocator]`: warm the device until every container
//! has seen its peak occupancy, then run the same loop again under the
//! counter and demand zero `alloc`/`realloc` calls.
//!
//! The span tracer gets the same treatment: a span stores its attributes
//! inline, so tracing a request allocates nothing beyond the span log's
//! own growth. So does the whole NeSC-direct path through `System`: the
//! doorbell consumes descriptors into a retained buffer and the pump
//! drains the device into another. And so do the two paravirtual paths,
//! virtio and full emulation: the virtio chain lives inline or in a kept
//! buffer, and the host backend keeps its image-run list, reads only a
//! write's partial edge blocks, straight into the bounce, and copies the
//! bounce to the guest page to page. Windowed telemetry over many disks
//! adds nothing either: a window close ranks the window's completions in
//! a retained buffer and every series ring is at its capacity. Nor does
//! the flight recorder with tracing off: its span log keeps no rows of
//! its own and writes each into the preallocated ring.
//!
//! Growing a file by single blocks, as a miss-driven image fills, costs
//! its allocations exactly: one run list per call and the doublings of
//! the journal's one record log, not a record list per commit.
//!
//! The counter lives in its own integration-test binary because a global
//! allocator is process-wide; keeping it here means the unit suites run on
//! the system allocator untouched. A test counts only its own thread's
//! allocations, and the tests take turns (`SERIAL`) on the one counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use nesc_core::{FuncId, NescConfig, NescDevice, NescOutput};
use nesc_extent::{ExtentMapping, ExtentTree, Plba, Vlba};
use nesc_fs::Filesystem;
use nesc_hypervisor::{DiskKind, System as NescSystem, TelemetryConfig};
use nesc_pcie::{HostAddr, HostMemory};
use nesc_sim::{
    FlightConfig, FlightHandle, Obs, Pass, Probe, SimDuration, SimRng, SimTime, Tracer, Via,
};
use nesc_storage::{BlockOp, BlockRequest, RequestId, BLOCK_SIZE};

/// Counts allocator calls while armed; delegates everything to [`System`].
struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations count. Per thread, so the test
    /// harness spawning or reporting another test on its own thread never
    /// counts against the armed one. A const `Cell` needs no allocation
    /// and no destructor, so the allocator may read it at any time.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

fn arm(on: bool) {
    ARMED.with(|a| a.set(on));
}
static TRACE: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if TRACE.load(Ordering::Relaxed) {
                arm(false);
                eprintln!(
                    "ALLOC size={} align={}\n{}",
                    layout.size(),
                    layout.align(),
                    std::backtrace::Backtrace::force_capture()
                );
                arm(true);
            }
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Holds the allocation counter for one test.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The device loop's VF size in blocks (128 MiB).
const DEVICE_BLOCKS: u64 = 1 << 17;
/// Its extent length (2 MiB): every aligned request sits inside one
/// extent.
const EXTENT_BLOCKS: u64 = 2048;
/// Blocks per request of the device loop (64 KiB).
const REQ_BLOCKS: u64 = 64;

/// A device with one VF mapping [`DEVICE_BLOCKS`] blocks in
/// [`EXTENT_BLOCKS`]-block extents, shifted so the mapping is not the
/// identity, and a host buffer for one request.
fn build_device(btlb_entries: usize) -> (NescDevice, FuncId, HostAddr) {
    let mem = Rc::new(RefCell::new(HostMemory::new()));
    let mut cfg = NescConfig::prototype();
    cfg.capacity_blocks = DEVICE_BLOCKS * 2;
    cfg.btlb_entries = btlb_entries;
    let mut dev = NescDevice::new(cfg, Rc::clone(&mem));
    let tree: ExtentTree = (0..DEVICE_BLOCKS / EXTENT_BLOCKS)
        .map(|i| {
            let (v, p) = (i * EXTENT_BLOCKS, i * EXTENT_BLOCKS + DEVICE_BLOCKS / 2);
            ExtentMapping::new(Vlba(v), Plba(p), EXTENT_BLOCKS)
        })
        .collect();
    let root = tree.serialize(&mut mem.borrow_mut());
    let vf = dev.create_vf(root, DEVICE_BLOCKS).unwrap();
    let buf = mem.borrow_mut().alloc(REQ_BLOCKS * BLOCK_SIZE, BLOCK_SIZE);
    (dev, vf, buf)
}

/// Runs `requests` reads of [`REQ_BLOCKS`] blocks, sequential (wrapping)
/// or at random aligned offsets, through `advance_into` with the caller's
/// reused output buffer, continuing the request index and clock from
/// `start_i`.
// allow: the harness must thread every piece of mutable driver state
// through the armed-allocator window without bundling it into a struct
// (a struct literal here would itself be a measured allocation site).
#[allow(clippy::too_many_arguments)]
fn drive(
    dev: &mut NescDevice,
    vf: FuncId,
    buf: HostAddr,
    sequential: bool,
    rng: &mut SimRng,
    t: &mut SimTime,
    start_i: u64,
    requests: u64,
    outs: &mut Vec<NescOutput>,
) {
    let horizon = SimTime::from_nanos(u64::MAX / 4);
    let slots = DEVICE_BLOCKS / REQ_BLOCKS;
    for i in start_i..start_i + requests {
        *t += SimDuration::from_micros(100);
        let slot = if sequential {
            i % slots
        } else {
            rng.range(0, slots)
        };
        let lba = Vlba(slot * REQ_BLOCKS);
        dev.submit(
            *t,
            vf,
            BlockRequest::new(RequestId(i + 1), BlockOp::Read, lba, REQ_BLOCKS),
            buf,
        );
        outs.clear();
        dev.advance_into(horizon, outs);
        assert!(!outs.is_empty(), "every read must complete within horizon");
    }
}

/// After warm-up, the submit → advance_into loop performs zero heap
/// allocations, for both stream shapes and with the BTLB on and off.
#[test]
fn steady_state_device_loop_is_allocation_free() {
    let _serial = serial();
    TRACE.store(std::env::var_os("ALLOC_TRACE").is_some(), Ordering::SeqCst);
    for (sequential, btlb_entries) in [(true, 8usize), (true, 0), (false, 8)] {
        let (mut dev, vf, buf) = build_device(btlb_entries);
        let mut rng = SimRng::seed(0x5eed_0dd5);
        let mut t = SimTime::ZERO;
        let mut outs: Vec<NescOutput> = Vec::with_capacity(64);
        // Warm-up: one full wrap of the sequential stream (or the same
        // request count randomly placed) grows every bucket, ring, and
        // scratch vector to its steady size.
        let warm = DEVICE_BLOCKS / REQ_BLOCKS;
        drive(
            &mut dev, vf, buf, sequential, &mut rng, &mut t, 0, warm, &mut outs,
        );

        ALLOCS.store(0, Ordering::SeqCst);
        arm(true);
        drive(
            &mut dev, vf, buf, sequential, &mut rng, &mut t, warm, 256, &mut outs,
        );
        arm(false);
        let n = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            n, 0,
            "steady-state loop allocated {n} times (sequential={sequential}, btlb={btlb_entries})"
        );
    }
}

/// Reports request `i`'s observations: the direct request of the probe's
/// fold-table script, which stalls on a miss and resumes — 17 spans, 12 of
/// them with attributes.
fn observe_request(probe: &Probe, i: u64) {
    let t = |ns: u64| SimTime::from_nanos(i * 1000 + ns);
    let id = i + 1;
    for obs in [
        Obs::Issued(Via::Direct, 2, id, 4096, true, t(100)),
        Obs::Rang(3, id, t(110), t(120)),
        Obs::DescriptorFetch(id, 32, t(120), t(125)),
        Obs::Queued(3, id, 1, t(125)),
        Obs::DeviceOpen(3, id, 8, t(125), t(140)),
        Obs::Walk(2, Some((3, 4096)), t(140), t(150)),
        Obs::Translate(8, 1, t(140), t(150)),
        Obs::Walk(2, None, t(150), t(155)),
        Obs::DmaRead(Pass(8, 512, t(155), t(170))),
        Obs::MediaPass(Pass(8, 512, t(170), t(190))),
        Obs::DeviceStalled(t(195)),
        Obs::Rewalk(3, 2, t(195), t(205)),
        Obs::DeviceResume(3, id, 8, t(210)),
        Obs::DmaWrite(Pass(2, 512, t(210), t(220))),
        Obs::ZeroFill(Pass(1, 512, t(220), t(225))),
        Obs::DeviceDone(Some((true, 8)), t(230)),
        Obs::Answered(t(230), t(240)),
        Obs::Finished(id, false, t(240)),
    ] {
        probe.report(obs);
    }
}

/// Allocations a traced run makes that do not grow with its span count:
/// the probe's first id binding and the first samples of its latency
/// histograms.
const FIXED_ALLOCS: u64 = 4;

/// Tracing 1024 requests allocates only as the span log doubles, plus
/// [`FIXED_ALLOCS`]: recording a span, its attributes included, never
/// touches the heap.
#[test]
fn traced_requests_allocate_only_as_the_span_log_grows() {
    let _serial = serial();
    let probe = Probe::new(Tracer::enabled(), FlightHandle::disabled());
    ALLOCS.store(0, Ordering::SeqCst);
    arm(true);
    for i in 0..1024 {
        observe_request(&probe, i);
    }
    arm(false);
    let n = ALLOCS.load(Ordering::SeqCst);
    let spans = probe.tracer().len() as u64;
    assert_eq!(spans, 1024 * 17);
    // The bound a doubling log needs: one allocation for its first slots,
    // one per doubling after. The segmented log makes one per segment plus
    // its segment list's growth, fewer.
    let doublings = u64::from(spans.next_power_of_two().ilog2());
    assert!(
        n <= doublings + FIXED_ALLOCS,
        "{n} allocations for {spans} spans: more than {doublings} log doublings + {FIXED_ALLOCS}"
    );
}

/// Synchronous requests through `System` that re-read and re-write the
/// blocks of a `kind` disk, warmed until every block is written and every
/// buffer and map is at size: the allocations of one more pass of 64
/// writes and 64 reads of 4 KiB, aligned and straddling a block boundary
/// in turn.
fn steady_pass_allocations(kind: DiskKind) -> u64 {
    const DISK_BYTES: u64 = 256 << 10;
    const REQ_BYTES: u64 = 4096;
    let mut sys = NescSystem::builder().build();
    let disk = sys.quick_disk(kind, "img", DISK_BYTES).disk;
    let data = vec![0x5Au8; REQ_BYTES as usize];
    let mut out = vec![0u8; REQ_BYTES as usize];
    let mut pass = |sys: &mut NescSystem| {
        for i in 0..DISK_BYTES / REQ_BYTES {
            // Odd offsets straddle a block boundary: partial blocks too.
            let offset = i * REQ_BYTES + if i % 2 == 1 { 512 } else { 0 };
            let len = if i % 2 == 1 {
                REQ_BYTES as usize - 512
            } else {
                REQ_BYTES as usize
            };
            sys.write(disk, offset, &data[..len]);
            sys.read(disk, offset, &mut out[..len]);
            assert_eq!(out[..len], data[..len]);
        }
    };
    // Warm-up: every block written once, every buffer and map at size.
    pass(&mut sys);
    pass(&mut sys);
    ALLOCS.store(0, Ordering::SeqCst);
    arm(true);
    pass(&mut sys);
    arm(false);
    ALLOCS.load(Ordering::SeqCst)
}

/// After warm-up, synchronous NeSC-direct reads and writes of blocks that
/// are already written allocate nothing, end to end through `System`:
/// guest buffer, ring descriptor, doorbell, device, pump and completion.
#[test]
fn direct_rereads_and_rewrites_through_the_system_are_allocation_free() {
    let _serial = serial();
    let n = steady_pass_allocations(DiskKind::NescDirect);
    assert_eq!(
        n, 0,
        "{n} allocations re-reading and re-writing written blocks"
    );
}

/// The paravirtual paths are as allocation-free in steady state: a virtio
/// request's chain is built inline, linked and popped into a kept buffer
/// and its header parsed on the stack; the backend of both paths looks
/// its image runs up into a kept buffer, reads a write's edge blocks
/// straight into the bounce and copies a read's bounce page to page.
#[test]
fn paravirt_rereads_and_rewrites_through_the_system_are_allocation_free() {
    let _serial = serial();
    TRACE.store(std::env::var_os("ALLOC_TRACE").is_some(), Ordering::SeqCst);
    for kind in [DiskKind::Virtio, DiskKind::Emulated] {
        let n = steady_pass_allocations(kind);
        assert_eq!(
            n, 0,
            "{n} allocations re-reading and re-writing written blocks on {kind:?}"
        );
    }
}

/// With telemetry on, a pass over 64 NeSC-direct disks that closes many
/// windows allocates nothing once warm: the window's completions, the
/// per-disk latency runs and the ring list are retained buffers, and the
/// sampler's row log, which evicts a window's rows as it leaves
/// retention, reuses the room they free.
#[test]
fn windowed_telemetry_over_many_disks_is_allocation_free() {
    const DISKS: usize = 64;
    const DISK_BYTES: u64 = 64 << 10;
    const CAPACITY: usize = 16;
    let _serial = serial();
    TRACE.store(std::env::var_os("ALLOC_TRACE").is_some(), Ordering::SeqCst);
    let mut sys = NescSystem::builder()
        .capacity_blocks((DISK_BYTES / 512) * (DISKS as u64 + 1))
        .max_vfs(DISKS as u16 + 2)
        .telemetry(TelemetryConfig::windowed(SimDuration::from_micros(20)).capacity(CAPACITY))
        .build();
    let disks: Vec<_> = (0..DISKS)
        .map(|i| {
            let name = format!("t{i}.img");
            sys.quick_disk(DiskKind::NescDirect, &name, DISK_BYTES).disk
        })
        .collect();
    let data = vec![0xA5u8; 4096];
    let mut out = vec![0u8; 4096];
    // Every disk sees writes and reads, several to a window.
    let mut pass = |sys: &mut NescSystem| {
        for block in 0..4u64 {
            for &disk in &disks {
                sys.write(disk, block * 4096, &data);
                sys.read(disk, block * 4096, &mut out);
            }
        }
    };
    let closed = |sys: &NescSystem| {
        let tel = sys.telemetry().expect("telemetry enabled");
        tel.sampler().closed_windows()
    };
    // Warm-up: every block written, every buffer at size, and more
    // windows closed than a series ring holds.
    while closed(&sys) < 2 * CAPACITY as u64 {
        pass(&mut sys);
    }
    let before = closed(&sys);
    ALLOCS.store(0, Ordering::SeqCst);
    arm(true);
    pass(&mut sys);
    arm(false);
    let n = ALLOCS.load(Ordering::SeqCst);
    let windows = closed(&sys) - before;
    assert!(
        windows >= CAPACITY as u64,
        "the pass closed only {windows} windows"
    );
    assert_eq!(n, 0, "{n} allocations over {windows} telemetry windows");
}

/// With the flight recorder on and tracing off, a pass of NeSC-direct
/// writes and reads through `System` allocates nothing once the ring has
/// wrapped: every span row is a store into the preallocated ring, and the
/// exemplars of each window close fold into retained room.
#[test]
fn the_recorder_alone_allocates_nothing_once_its_ring_wraps() {
    const DISK_BYTES: u64 = 256 << 10;
    let _serial = serial();
    TRACE.store(std::env::var_os("ALLOC_TRACE").is_some(), Ordering::SeqCst);
    let tel = TelemetryConfig::windowed(SimDuration::from_micros(20)).capacity(16);
    let tel = tel.flight(FlightConfig::default());
    let mut sys = NescSystem::builder().telemetry(tel).build();
    let disk = sys
        .quick_disk(DiskKind::NescDirect, "f.img", DISK_BYTES)
        .disk;
    let data = vec![0x3Cu8; 4096];
    let mut out = vec![0u8; 4096];
    let mut pass = |sys: &mut NescSystem| {
        for offset in (0..DISK_BYTES).step_by(4096) {
            sys.write(disk, offset, &data);
            sys.read(disk, offset, &mut out);
        }
    };
    let closed = |sys: &NescSystem| sys.telemetry().map_or(0, |t| t.sampler().closed_windows());
    // Warm-up: every block written, the command ring and the flight ring
    // wrapped, and more windows closed than the exemplar horizon and a
    // series ring hold.
    pass(&mut sys);
    pass(&mut sys);
    while closed(&sys) < 32 {
        pass(&mut sys);
    }
    assert!(
        sys.flight().with(|r| r.dropped()).unwrap() > 0,
        "the ring wrapped"
    );
    let before = sys.flight().with(|r| r.total()).unwrap();
    ALLOCS.store(0, Ordering::SeqCst);
    arm(true);
    pass(&mut sys);
    arm(false);
    let n = ALLOCS.load(Ordering::SeqCst);
    let rows = sys.flight().with(|r| r.total()).unwrap() - before;
    assert!(rows > 0 && !sys.tracer().is_enabled());
    assert_eq!(n, 0, "{n} allocations writing {rows} ring rows");
}

/// 4096 single-block appends to one file, each its own `allocate_range`
/// call and journal commit, allocate exactly one run list per call
/// (`BitmapAllocator::allocate`'s result), the file's extent list once
/// (the appends merge into its one extent), and the doublings of the
/// journal's record log and of its commit boundaries. A list of records
/// per transaction would add one allocation per commit.
#[test]
fn single_block_file_appends_allocate_a_run_list_each_and_the_journals_doublings() {
    const APPENDS: u64 = 4096;
    let _serial = serial();
    TRACE.store(std::env::var_os("ALLOC_TRACE").is_some(), Ordering::SeqCst);
    let mut fs = Filesystem::format(1 << 16);
    // The file's creation commits the journal's first record.
    let ino = fs.create("f").unwrap();
    ALLOCS.store(0, Ordering::SeqCst);
    arm(true);
    for b in 0..APPENDS {
        fs.allocate_range(ino, Vlba(b), 1).unwrap();
    }
    arm(false);
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        fs.extent_tree(ino).unwrap().extent_count(),
        1,
        "appends merge"
    );
    assert_eq!(fs.journal().transactions(), APPENDS + 1);
    // Both lists hold 1 entry, in room for 4, before the appends and
    // APPENDS + 1 after: they double from 4 up to 8192, 11 times each.
    let doublings = 2 * u64::from((APPENDS + 1).next_power_of_two().ilog2() - 2);
    assert_eq!(
        n,
        APPENDS + 1 + doublings,
        "{n} allocations for {APPENDS} single-block appends"
    );
}
