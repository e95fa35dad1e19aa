//! Forensic cross-checks for the flight recorder: the worst-K exemplar
//! span trees it retains must be *exactly* the tracer's subtrees — not a
//! lossy summary — and the anomaly-triggered forensic dump must be
//! byte-identical across same-seed runs, because `results/` gates it as
//! a golden.
//!
//! The recorder captures each exemplar's subtree live at window close
//! via [`Tracer::subtree`]; the reference here re-derives the same tree
//! from the full drained span log at the end of the run. If capture
//! timing, subtree reachability, or span ordering ever drift between the
//! two paths, the equality fails on a randomized workload.

use nesc_hypervisor::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

const INTERVAL_US: u64 = 25;
const VFS: usize = 3;
const DISK_BYTES: u64 = 4 << 20;

/// A traced, telemetry-enabled system with the flight recorder on and a
/// watchdog rule that trips on sustained vf0 traffic — the same breach
/// class the prune-pressure ablation uses, scaled down for a test.
fn forensic_system() -> (System, Vec<DiskId>) {
    let tel = TelemetryConfig::windowed(SimDuration::from_micros(INTERVAL_US))
        .capacity(4096)
        .rule_text("hv.vf0.requests above 0 for 3")
        // Retain every window's exemplars so the reference comparison
        // below covers the whole run, not just the trailing horizon.
        .flight(
            FlightConfig::default()
                .exemplar_k(4)
                .exemplar_windows(1 << 20),
        );
    let mut sys = SystemBuilder::new()
        .capacity_blocks((DISK_BYTES / 512) * (VFS as u64 + 1))
        .max_vfs(8)
        .tracing(true)
        .telemetry(tel)
        .build();
    let disks = (0..VFS)
        .map(|i| {
            sys.quick_disk(DiskKind::NescDirect, &format!("vf{i}.img"), DISK_BYTES)
                .disk
        })
        .collect();
    (sys, disks)
}

/// Replays a deterministic op list (vf, size index, read?, think µs).
fn drive(sys: &mut System, disks: &[DiskId], ops: &[(usize, usize, bool, u64)]) {
    let sizes = [2048u64, 4096, 8192, 16384];
    let mut buf = vec![0u8; 16384];
    for &(vf, szi, is_read, think_us) in ops {
        let bytes = sizes[szi] as usize;
        let offset = szi as u64 * 16384;
        if is_read {
            sys.read(disks[vf], offset, &mut buf[..bytes]);
        } else {
            sys.write(disks[vf], offset, &buf[..bytes]);
        }
        sys.think(SimDuration::from_micros(think_us));
    }
}

/// Re-derives a subtree from the full drained span log the same way
/// [`Tracer::subtree`] walks its live window: one forward pass in id
/// order, keeping the root and every span whose parent is already kept.
fn reference_subtree(spans: &[Span], root: u64) -> Vec<Span> {
    let mut kept = BTreeSet::new();
    let mut out = Vec::new();
    for s in spans {
        if s.id.0 == root || kept.contains(&s.parent.0) {
            kept.insert(s.id.0);
            out.push(*s);
        }
    }
    out
}

/// One full run: the retained exemplars (cloned before the destructive
/// span drain) plus the complete span log and the serialized forensic
/// dump, if the watchdog fired.
fn run(ops: &[(usize, usize, bool, u64)]) -> (Vec<Exemplar>, Vec<Span>, Option<String>) {
    let (mut sys, disks) = forensic_system();
    drive(&mut sys, &disks, ops);
    sys.telemetry_finish();
    let exemplars: Vec<Exemplar> = sys
        .flight()
        .with(|r| r.exemplars().iter().cloned().collect())
        .expect("flight recorder enabled");
    let dump = sys
        .telemetry()
        .expect("telemetry enabled")
        .forensic_dump()
        .map(|d| serde_json::to_string(&d.to_json()).expect("serialize dump"));
    let spans = sys.take_spans();
    (exemplars, spans, dump)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every retained exemplar's captured span tree equals the subtree
    /// re-derived from the full trace, and exemplars join back to real
    /// request roots.
    #[test]
    fn prop_exemplar_trees_match_full_trace(
        ops in proptest::collection::vec(
            (0usize..VFS, 0usize..4usize, any::<bool>(), 1u64..30),
            8..40,
        )
    ) {
        let (exemplars, spans, _dump) = run(&ops);
        prop_assert!(!exemplars.is_empty(), "traced run must retain exemplars");
        for x in &exemplars {
            prop_assert!(x.root != 0, "tracing is on, every exemplar has a root");
            let reference = reference_subtree(&spans, x.root);
            prop_assert_eq!(&x.spans, &reference);
            // The captured tree is rooted at the request span itself.
            prop_assert_eq!(x.spans[0].id.0, x.root);
            prop_assert_eq!(x.spans[0].parent, SpanId::NONE);
            prop_assert_eq!(
                (x.spans[0].end - x.spans[0].start).as_nanos(),
                x.latency_ns
            );
        }
    }

    /// Two same-seed runs serialize bit-identical forensic dumps (or
    /// neither trips the watchdog) — the property that makes the dump a
    /// byte-gated golden.
    #[test]
    fn prop_same_seed_dumps_are_byte_identical(
        ops in proptest::collection::vec(
            (0usize..VFS, 0usize..4usize, any::<bool>(), 1u64..30),
            8..60,
        )
    ) {
        let (_, _, first) = run(&ops);
        let (_, _, second) = run(&ops);
        prop_assert_eq!(first, second);
    }
}

/// A sustained single-VF burst trips the `hv.vf0.requests` rule and
/// yields a dump carrying the anomaly, the window series, and the flight
/// snapshot — deterministically.
#[test]
fn sustained_burst_produces_a_deterministic_dump() {
    let ops: Vec<(usize, usize, bool, u64)> = (0..40).map(|_| (0, 2, false, 10)).collect();
    let (exemplars, _spans, dump) = run(&ops);
    let text = dump.expect("sustained vf0 traffic must trip the watchdog");
    for key in ["\"anomaly\"", "\"series\"", "\"flight\"", "\"rule_index\""] {
        assert!(text.contains(key), "dump is missing {key}");
    }
    assert!(!exemplars.is_empty());
    let (_, _, again) = run(&ops);
    assert_eq!(Some(text), again, "same-seed dump must be byte-identical");
}

/// A warm NeSC-direct 4 KiB read of written blocks appends exactly the
/// span rows the probe opens for it, in id order: the request root, its
/// submit stack and doorbell, the `device_wait` holding the descriptor
/// fetch and the device span, whose queue wait, translation of its one
/// run, media pass and data DMA to the guest follow, then the completion
/// stack. The
/// BTLB hit adds no walk. The recorder keeps them with tracing off.
#[test]
fn a_warm_direct_read_appends_the_documented_ring_rows() {
    use SpanKind as K;
    let tel = TelemetryConfig::windowed(SimDuration::from_micros(INTERVAL_US))
        .flight(FlightConfig::default());
    let mut sys = SystemBuilder::new().telemetry(tel).build();
    let disk = sys
        .quick_disk(DiskKind::NescDirect, "warm.img", 1 << 20)
        .disk;
    let mut buf = vec![0x5Au8; 4096];
    sys.write(disk, 0, &buf);
    sys.read(disk, 0, &mut buf);
    let total = |sys: &System| sys.flight().with(|r| r.total()).unwrap();
    let before = total(&sys);
    sys.read(disk, 0, &mut buf);
    let appended = (total(&sys) - before) as usize;
    let rows: Vec<Span> = sys.flight().with(|r| r.rows()).unwrap();
    let kinds: Vec<SpanKind> = rows[rows.len() - appended..]
        .iter()
        .map(|s| s.kind)
        .collect();
    let want = [
        K::GuestRequest,
        K::GuestSubmit,
        K::Doorbell,
        K::DeviceWait,
        K::DmaRead,
        K::Device,
        K::Queue,
        K::Translate,
        K::Media,
        K::DmaWrite,
        K::GuestComplete,
    ];
    assert_eq!(kinds, want);
    assert!(!sys.tracer().is_enabled() && sys.take_spans().is_empty());
}
