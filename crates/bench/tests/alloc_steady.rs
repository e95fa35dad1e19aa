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
//! The counter lives in its own integration-test binary because a global
//! allocator is process-wide; keeping it here means the unit suites run on
//! the system allocator untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nesc_bench::hotpath::{build_device, HotpathConfig, DEVICE_BLOCKS};
use nesc_core::NescOutput;
use nesc_sim::{SimDuration, SimRng, SimTime};
use nesc_storage::{BlockOp, BlockRequest, RequestId};

/// Counts allocator calls while armed; delegates everything to [`System`].
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static TRACE: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if TRACE.load(Ordering::Relaxed) {
                ARMED.store(false, Ordering::SeqCst);
                eprintln!(
                    "ALLOC size={} align={}\n{}",
                    layout.size(),
                    layout.align(),
                    std::backtrace::Backtrace::force_capture()
                );
                ARMED.store(true, Ordering::SeqCst);
            }
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `requests` requests of `cfg`'s stream shape through `advance_into`
/// with the caller's reused output buffer, continuing the request index and
/// clock from `start_i`.
// allow: the harness must thread every piece of mutable driver state
// through the armed-allocator window without bundling it into a struct
// (a struct literal here would itself be a measured allocation site).
#[allow(clippy::too_many_arguments)]
fn drive(
    dev: &mut nesc_core::NescDevice,
    vf: nesc_core::FuncId,
    buf: u64,
    cfg: &HotpathConfig,
    rng: &mut SimRng,
    t: &mut SimTime,
    start_i: u64,
    requests: u64,
    outs: &mut Vec<NescOutput>,
) {
    let horizon = SimTime::from_nanos(u64::MAX / 4);
    let slots = DEVICE_BLOCKS / cfg.req_blocks;
    for i in start_i..start_i + requests {
        *t += SimDuration::from_micros(100);
        let lba = if cfg.sequential {
            nesc_extent::Vlba((i % slots) * cfg.req_blocks)
        } else {
            nesc_extent::Vlba(rng.range(0, slots) * cfg.req_blocks)
        };
        dev.submit(
            *t,
            vf,
            BlockRequest::new(RequestId(i + 1), BlockOp::Read, lba, cfg.req_blocks),
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
    TRACE.store(std::env::var_os("ALLOC_TRACE").is_some(), Ordering::SeqCst);
    for (sequential, btlb_entries) in [(true, 8usize), (true, 0), (false, 8)] {
        let cfg = HotpathConfig {
            btlb_entries,
            max_run_blocks: u64::MAX,
            req_blocks: 64,
            sequential,
            requests: 0, // unused; drive() takes its own count
        };
        let (mut dev, vf, buf) = build_device(cfg.btlb_entries, cfg.max_run_blocks, cfg.req_blocks);
        let mut rng = SimRng::seed(0x5eed_0dd5);
        let mut t = SimTime::ZERO;
        let mut outs: Vec<NescOutput> = Vec::with_capacity(64);
        // Warm-up: one full wrap of the sequential stream (or the same
        // request count randomly placed) grows every bucket, ring, and
        // scratch vector to its steady size.
        let warm = DEVICE_BLOCKS / cfg.req_blocks;
        drive(
            &mut dev, vf, buf, &cfg, &mut rng, &mut t, 0, warm, &mut outs,
        );

        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        drive(
            &mut dev, vf, buf, &cfg, &mut rng, &mut t, warm, 256, &mut outs,
        );
        ARMED.store(false, Ordering::SeqCst);
        let n = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            n, 0,
            "steady-state loop allocated {n} times (sequential={sequential}, btlb={btlb_entries})"
        );
    }
}
