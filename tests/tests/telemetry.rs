//! Telemetry cross-checks: the perfmon sampler's windowed per-VF latency
//! gauges must agree with a reference recomputation from the raw span log.
//!
//! The sampler and the tracer observe the same requests through different
//! code paths — the sampler ranks each disk's completions of a window
//! when the window closes, the tracer records the request root span, and
//! `run_open_loop` hands each latency to its observer. If windowing
//! (half-open `[k·I, (k+1)·I)` keyed by completion time), per-VF
//! attribution, or the percentile math ever drift between them, these
//! tests catch it on randomized and open-loop multi-VF workloads.

use nesc_hypervisor::prelude::*;
use nesc_sim::Histogram;
use proptest::prelude::*;

const INTERVAL_US: u64 = 25;
const VFS: usize = 3;
const DISK_BYTES: u64 = 4 << 20;

fn telemetry_system() -> (System, Vec<DiskId>) {
    let mut sys = SystemBuilder::new()
        .capacity_blocks((DISK_BYTES / 512) * (VFS as u64 + 1))
        .max_vfs(8)
        .tracing(true)
        .telemetry(TelemetryConfig::windowed(SimDuration::from_micros(INTERVAL_US)).capacity(4096))
        .build();
    let disks = (0..VFS)
        .map(|i| {
            sys.quick_disk(DiskKind::NescDirect, &format!("vf{i}.img"), DISK_BYTES)
                .disk
        })
        .collect();
    (sys, disks)
}

/// Per-(VF, window) latency histograms rebuilt from the request root
/// spans: a root span's `disk` attribute names the VF, its end time picks
/// the window, and its extent is the recorded latency.
fn reference_hists(spans: &[Span], disk: DiskId, windows: u64, interval_ns: u64) -> Vec<Histogram> {
    let mut hists: Vec<Histogram> = (0..windows).map(|_| Histogram::new()).collect();
    for s in spans
        .iter()
        .filter(|s| s.parent == SpanId::NONE && s.name() == "request")
    {
        let d = s.attr(AttrKey::Disk);
        if d != Some(disk.0 as u64) {
            continue;
        }
        let w = s.end.as_nanos() / interval_ns;
        if w < windows {
            hists[w as usize].record((s.end - s.start).as_nanos());
        }
    }
    hists
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Windowed p50/p99 gauges equal the reference recomputation from the
    /// span log, for every VF and every closed window, on a random mix of
    /// reads and writes with random think time.
    #[test]
    fn prop_windowed_percentiles_match_span_log(
        ops in proptest::collection::vec(
            (0usize..VFS, 0usize..4usize, any::<bool>(), 1u64..30),
            8..40,
        )
    ) {
        let sizes = [2048u64, 4096, 8192, 16384];
        let (mut sys, disks) = telemetry_system();
        let mut buf = vec![0u8; 16384];
        for &(vf, szi, is_read, think_us) in &ops {
            let bytes = sizes[szi] as usize;
            let offset = szi as u64 * 16384;
            if is_read {
                sys.read(disks[vf], offset, &mut buf[..bytes]);
            } else {
                sys.write(disks[vf], offset, &buf[..bytes]);
            }
            sys.think(SimDuration::from_micros(think_us));
        }
        // Idle past the open window, then drop the partial tail.
        sys.think(SimDuration::from_micros(2 * INTERVAL_US));
        sys.telemetry_finish();

        let spans = sys.take_spans();
        let sampler = sys.telemetry().expect("telemetry enabled").sampler();
        let windows = sampler.closed_windows();
        let interval_ns = SimDuration::from_micros(INTERVAL_US).as_nanos();
        prop_assert!(windows > 0, "workload must close at least one window");

        for (vf, disk) in disks.iter().enumerate() {
            let hists = reference_hists(&spans, *disk, windows, interval_ns);
            for (p, series) in [(50.0, format!("hv.vf{vf}.p50_ns")), (99.0, format!("hv.vf{vf}.p99_ns"))] {
                let ts = sampler.series_by_name(&series).expect("per-VF series exists");
                let mut checked = 0u64;
                for (w, v) in ts.samples() {
                    prop_assert_eq!(
                        v,
                        hists[w as usize].percentile(p),
                        "vf{} p{} window {}", vf, p, w
                    );
                    checked += 1;
                }
                prop_assert_eq!(checked, windows, "gauge must cover every closed window");
            }
        }
    }
}

/// Open-loop traffic over many disks puts several disks and several
/// completions per disk in one window, and a closing burst on one disk
/// puts 20 or more there, where a p99's rank is above a p95's. Every
/// `(disk, window)` p50/p99 sample must equal the percentile of a
/// reference histogram built from the latencies `run_open_loop`'s
/// observer saw, a completion at `t` belonging to the window ending at
/// `W` iff `t < W`.
#[test]
fn open_loop_window_percentiles_match_the_observed_latencies() {
    use nesc_core::CompletionStatus;
    const DISKS: usize = 12;
    const REQUESTS: u64 = 1200;
    const BURST: u64 = 40;
    const INTERVAL_NS: u64 = 200_000;
    const DISK_BYTES: u64 = 1 << 20;
    let mut sys = SystemBuilder::new()
        .capacity_blocks((DISK_BYTES / 512) * (DISKS as u64 + 1))
        .max_vfs(DISKS as u16 + 2)
        .telemetry(TelemetryConfig::windowed(SimDuration::from_nanos(INTERVAL_NS)).capacity(4096))
        .build();
    let disks: Vec<DiskId> = (0..DISKS)
        .map(|i| {
            let name = format!("ol{i}.img");
            sys.quick_disk(DiskKind::NescDirect, &name, DISK_BYTES).disk
        })
        .collect();
    // A fixed LCG scatters disks, sizes, offsets and arrival gaps.
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = |n: u64| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (x >> 33) % n
    };
    let mut at = sys.now();
    let mut arrivals: Vec<OpenRequest> = (0..REQUESTS)
        .map(|_| {
            at += SimDuration::from_nanos(3_000 + next(8_000));
            let bytes = 1024 << next(4);
            OpenRequest {
                disk: disks[next(DISKS as u64) as usize],
                op: if next(3) == 0 {
                    BlockOp::Read
                } else {
                    BlockOp::Write
                },
                offset: next(DISK_BYTES / bytes) * bytes,
                bytes,
                at,
            }
        })
        .collect();
    // The burst: 4 KiB reads on the first disk, 2 us apart, queueing
    // behind one another.
    arrivals.extend((0..BURST).map(|i| OpenRequest {
        disk: disks[0],
        op: BlockOp::Read,
        offset: i * 4096,
        bytes: 4096,
        at: at + SimDuration::from_nanos(2_000 * (i + 1)),
    }));
    // The reference: one histogram per (disk, window) of the observed
    // latencies.
    let mut reference: std::collections::BTreeMap<(usize, u64), Histogram> = Default::default();
    sys.run_open_loop(&arrivals, |i, done, latency, status| {
        assert_eq!(status, CompletionStatus::Ok, "request {i}");
        let key = (arrivals[i].disk.0, done.as_nanos() / INTERVAL_NS);
        reference.entry(key).or_default().record(latency.as_nanos());
    });
    sys.think(SimDuration::from_nanos(2 * INTERVAL_NS));
    sys.telemetry_finish();

    let sampler = sys.telemetry().expect("telemetry enabled").sampler();
    let windows = sampler.closed_windows();
    let busy = |w: u64| reference.keys().filter(|&&(_, rw)| rw == w).count();
    assert!(
        (0..windows).any(|w| busy(w) >= 8),
        "some window must hold several disks"
    );
    assert!(
        reference.values().any(|h| h.count() >= 20),
        "some disk must complete 20 or more requests in one window"
    );
    let mut checked = 0;
    for disk in &disks {
        for (p, name) in [(50.0, "p50_ns"), (99.0, "p99_ns")] {
            let series = format!("hv.vf{}.{name}", disk.0);
            let ts = sampler.series_by_name(&series).expect("per-VF series");
            for (w, v) in ts.samples() {
                let want = reference.get(&(disk.0, w));
                assert_eq!(
                    v,
                    want.map_or(0, |h| h.percentile(p)),
                    "{series} window {w}"
                );
                checked += u64::from(want.is_some());
            }
        }
    }
    let observed = reference.keys().filter(|&&(_, w)| w < windows).count() as u64;
    assert_eq!(
        checked,
        2 * observed,
        "every observed (disk, window) sampled"
    );
}

/// The same invariant holds for the windowed request counters: summed over
/// windows they equal the number of request root spans per VF (determinism
/// of attribution, not just of percentiles).
#[test]
fn windowed_request_counters_match_span_log() {
    let (mut sys, disks) = telemetry_system();
    let mut buf = vec![0u8; 8192];
    for i in 0..30u64 {
        let vf = (i % VFS as u64) as usize;
        if i % 3 == 0 {
            sys.read(disks[vf], (i % 8) * 8192, &mut buf);
        } else {
            sys.write(disks[vf], (i % 8) * 8192, &buf);
        }
        sys.think(SimDuration::from_micros(7));
    }
    sys.think(SimDuration::from_micros(2 * INTERVAL_US));
    sys.telemetry_finish();

    let spans = sys.take_spans();
    let sampler = sys.telemetry().expect("telemetry enabled").sampler();
    for (vf, disk) in disks.iter().enumerate() {
        let roots = spans
            .iter()
            .filter(|s| s.parent == SpanId::NONE && s.name() == "request")
            .filter(|s| s.attr(AttrKey::Disk) == Some(disk.0 as u64))
            .count() as u64;
        let counted: u64 = sampler
            .series_by_name(&format!("hv.vf{vf}.requests"))
            .expect("per-VF series exists")
            .samples()
            .map(|(_, v)| v)
            .sum();
        assert_eq!(counted, roots, "vf{vf} request count");
    }
}

/// A VF slot freed by `detach` and taken again by the next attach keeps
/// one ring-depth gauge: the re-attach reuses `core.ring_depth.f1`
/// instead of registering a second series of that name, and the one
/// series is the one the window close samples.
#[test]
fn reattaching_into_a_reused_vf_slot_keeps_one_ring_gauge() {
    use nesc_extent::Vlba;
    use nesc_storage::{BlockRequest, RequestId};
    let mut sys = SystemBuilder::new()
        .telemetry(TelemetryConfig::windowed(SimDuration::from_micros(
            INTERVAL_US,
        )))
        .build();
    let first = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
    let vf = sys.disk_vf(first).expect("a NeSC disk has a VF");
    sys.write(first, 0, &[1u8; 4096]);
    sys.think(SimDuration::from_micros(2 * INTERVAL_US));
    sys.detach(first);
    let second = sys.quick_disk(DiskKind::NescDirect, "b.img", 1 << 20).disk;
    assert_eq!(sys.disk_vf(second), Some(vf), "the freed slot is reused");
    let name = format!("core.ring_depth.f{}", vf.0);
    assert_eq!(name, "core.ring_depth.f1");
    // Leave one request queued on the re-attached VF's ring across a
    // window close.
    let buf = sys.memory().borrow_mut().alloc(4096, 8);
    let now = sys.now();
    let req = BlockRequest::new(RequestId(1 << 40), BlockOp::Write, Vlba(0), 1);
    sys.device_mut().submit(now, vf, req, buf);
    sys.think(SimDuration::from_micros(2 * INTERVAL_US));
    let sampler = sys.telemetry().expect("telemetry enabled").sampler();
    let named = sampler.series().filter(|s| s.name() == name).count();
    assert_eq!(named, 1, "one series named {name}");
    let ring = sampler.series_by_name(&name).expect("ring gauge");
    assert!(
        ring.samples().any(|(_, depth)| depth == 1),
        "the queued request shows in {name}"
    );
}
