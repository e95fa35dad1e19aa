//! The observability subsystem, end to end: span-tree invariants on every
//! virtualization path, deterministic trace reproduction, the
//! partition-equals-latency guarantee the breakdown harness relies on,
//! the per-path request totals, and the Perfetto exporter.

use nesc_hypervisor::prelude::*;

/// A traced system with one disk on `kind`, pre-warmed and drained.
fn traced(kind: DiskKind) -> (System, DiskId) {
    let mut sys = SystemBuilder::new()
        .capacity_blocks(64 * 1024)
        .tracing(true)
        .build();
    let disk = sys.quick_disk(kind, "obs.img", 8 << 20).disk;
    sys.write(disk, 0, &[0x77u8; 64 * 1024]);
    let _ = sys.take_spans();
    (sys, disk)
}

fn run_small_workload(sys: &mut System, disk: DiskId) {
    sys.write(disk, 0, &[0xABu8; 4096]);
    sys.write(disk, 100 * 1024, &[0xCDu8; 8192]);
    let mut buf = vec![0u8; 4096];
    sys.read(disk, 0, &mut buf);
    assert_eq!(buf, vec![0xABu8; 4096]);
}

#[test]
fn every_path_produces_well_nested_spans() {
    for kind in [
        DiskKind::NescDirect,
        DiskKind::Virtio,
        DiskKind::Emulated,
        DiskKind::HostRaw,
    ] {
        let (mut sys, disk) = traced(kind);
        run_small_workload(&mut sys, disk);
        let tree = SpanTree::new(sys.take_spans());
        tree.check_nesting()
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        let requests = tree.roots().filter(|s| s.name() == "request").count();
        assert_eq!(requests, 3, "{kind:?}: one root per request");
    }
}

#[test]
fn children_partition_end_to_end_latency_on_every_path() {
    for kind in [
        DiskKind::NescDirect,
        DiskKind::Virtio,
        DiskKind::Emulated,
        DiskKind::HostRaw,
    ] {
        let (mut sys, disk) = traced(kind);
        let latency = sys.write(disk, 4096, &[0x5Au8; 4096]);
        let tree = SpanTree::new(sys.take_spans());
        let root = tree
            .roots()
            .find(|s| s.name() == "request")
            .expect("a request root");
        tree.check_partition(root.id)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        let child_sum: u64 = tree.children(root.id).map(|c| c.duration_ns()).sum();
        assert_eq!(
            child_sum,
            latency.as_nanos(),
            "{kind:?}: direct children must sum to the measured latency"
        );
    }
}

#[test]
fn traces_are_deterministic_across_reruns() {
    let run = || {
        let (mut sys, disk) = traced(DiskKind::NescDirect);
        run_small_workload(&mut sys, disk);
        sys.take_spans()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "same workload must reproduce the identical span forest"
    );
    // Ids are sequential in creation order — stable coordinates for
    // goldens (the warm-up drain consumed the ids before `a[0]`).
    for (i, s) in a.iter().enumerate() {
        assert_eq!(s.id.0, a[0].id.0 + i as u64, "ids are dense and ordered");
    }
}

#[test]
fn golden_trace_of_one_direct_write() {
    // A single 4 KiB write on a warm direct disk: the span skeleton below
    // is the contract the docs and the breakdown harness describe. If an
    // instrumentation change alters it, this golden is the deliberate
    // update point.
    let (mut sys, disk) = traced(DiskKind::NescDirect);
    sys.write(disk, 0, &[0xEEu8; 4096]);
    let tree = SpanTree::new(sys.take_spans());
    let root = tree
        .roots()
        .find(|s| s.name() == "request")
        .expect("request root");
    assert_eq!(root.layer(), "guest");
    assert_eq!(root.attr(AttrKey::Bytes), Some(4096));
    assert_eq!(root.attr(AttrKey::Write), Some(1));
    assert_eq!(root.attr(AttrKey::Failed), Some(0));
    let skeleton: Vec<(&str, &str)> = tree
        .children(root.id)
        .map(|s| (s.layer(), s.name()))
        .collect();
    assert_eq!(
        skeleton,
        vec![
            ("guest", "guest_submit"),
            ("pcie", "doorbell"),
            ("core", "device_wait"),
            ("guest", "guest_complete"),
        ]
    );
    // Under device_wait: the device span, which owns translation and media.
    let dev_wait = tree
        .children(root.id)
        .find(|s| s.name() == "device_wait")
        .unwrap();
    let device = tree
        .children(dev_wait.id)
        .find(|s| s.name() == "device")
        .expect("device span under device_wait");
    let inner: Vec<&str> = tree.children(device.id).map(|s| s.name()).collect();
    assert!(inner.contains(&"translate"), "inner spans: {inner:?}");
    assert!(inner.contains(&"media"), "inner spans: {inner:?}");
}

#[test]
fn virtio_and_emulation_attribute_their_software_layers() {
    let (mut sys, disk) = traced(DiskKind::Virtio);
    sys.write(disk, 0, &[1u8; 4096]);
    let tree = SpanTree::new(sys.take_spans());
    let root = tree.roots().find(|s| s.name() == "request").unwrap();
    let names: Vec<&str> = tree.children(root.id).map(|s| s.name()).collect();
    assert_eq!(
        names,
        vec![
            "guest_submit",
            "kick",
            "host_backend",
            "device_wait",
            "guest_complete"
        ]
    );

    let (mut sys, disk) = traced(DiskKind::Emulated);
    sys.write(disk, 0, &[1u8; 4096]);
    let tree = SpanTree::new(sys.take_spans());
    let root = tree.roots().find(|s| s.name() == "request").unwrap();
    let names: Vec<&str> = tree.children(root.id).map(|s| s.name()).collect();
    assert_eq!(
        names,
        vec![
            "guest_submit",
            "trap_emulate",
            "host_backend",
            "device_wait",
            "guest_complete"
        ]
    );
}

#[test]
fn write_failure_still_tiles_and_flags_the_root() {
    // Exhaust a tiny virtio disk's backing space: the WriteFailed early
    // return must still produce a partitioned trace with failed=1.
    let mut sys = SystemBuilder::new()
        .capacity_blocks(2 * 1024)
        .tracing(true)
        .build();
    let vm = sys.create_vm();
    let img = sys
        .create_image("tiny.img", 8 << 20, false)
        .expect("sparse image fits");
    let disk = sys.attach(vm, DiskKind::Virtio, Some(img));
    let mut failed_root = None;
    for i in 0..2048 {
        if sys
            .try_write(disk, i * 1024 * 1024, &[0x44u8; 4096])
            .is_err()
        {
            let tree = SpanTree::new(sys.take_spans());
            let root = *tree
                .roots()
                .filter(|s| s.name() == "request")
                .last()
                .unwrap();
            tree.check_partition(root.id).expect("failure still tiles");
            failed_root = Some(root);
            break;
        }
    }
    let root = failed_root.expect("the tiny device must fill up");
    assert_eq!(root.attr(AttrKey::Failed), Some(1));
}

#[test]
fn disabled_tracing_records_nothing() {
    let mut sys = SystemBuilder::new().capacity_blocks(64 * 1024).build();
    let disk = sys
        .quick_disk(DiskKind::NescDirect, "off.img", 4 << 20)
        .disk;
    sys.write(disk, 0, &[9u8; 4096]);
    assert!(!sys.tracer().is_enabled());
    assert!(sys.take_spans().is_empty());
    // The per-path totals still accumulate — they are cheap and always on.
    assert_eq!(sys.path_totals(DiskKind::NescDirect).requests, 1);
}

#[test]
fn metrics_count_requests_bytes_and_errors_per_path() {
    let (mut sys, disk) = traced(DiskKind::NescDirect);
    run_small_workload(&mut sys, disk);
    let m = sys.path_totals(DiskKind::NescDirect);
    // Warm-up write + 3 workload requests.
    assert_eq!(m.requests, 4);
    assert_eq!(m.bytes, 64 * 1024 + 4096 + 8192 + 4096);
    assert_eq!(m.errors, 0);
    let lat = &m.latency_ns;
    assert_eq!(lat.count(), 4);
    assert!(lat.min() > 0 && lat.max() >= lat.min());

    // An out-of-range read lands in the error counter, not the histogram.
    let mut buf = [0u8; 512];
    assert_eq!(
        sys.try_read(disk, 1 << 40, &mut buf),
        Err(NescError::OutOfRange)
    );
    let m = sys.path_totals(DiskKind::NescDirect);
    assert_eq!((m.requests, m.errors, m.latency_ns.count()), (5, 1, 4));
    // No other path saw a request.
    for kind in [DiskKind::Virtio, DiskKind::Emulated, DiskKind::HostRaw] {
        assert_eq!(sys.path_totals(kind).requests, 0, "{kind:?}");
    }
}

#[test]
fn chrome_trace_export_validates_and_covers_all_layers() {
    let (mut sys, disk) = traced(DiskKind::NescDirect);
    run_small_workload(&mut sys, disk);
    let spans = sys.take_spans();
    let doc = chrome_trace_json(&spans);
    let events = nesc_sim::validate_chrome_trace(&doc).expect("valid trace-event JSON");
    // One complete event per span plus one thread-name metadata event per
    // distinct layer.
    let layers: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.layer()).collect();
    assert_eq!(events, spans.len() + layers.len());
    for required in ["guest", "core", "pcie", "storage"] {
        assert!(layers.contains(required), "missing layer {required}");
    }
}

#[test]
fn stalled_requests_reopen_as_resume_spans() {
    // A write to unallocated space on a direct disk forces the WriteMiss
    // stall + RewalkTree resume flow; the trace must show the stalled
    // device span and the resume span under the same device_wait.
    let mut sys = SystemBuilder::new()
        .capacity_blocks(64 * 1024)
        .tracing(true)
        .build();
    let vm = sys.create_vm();
    let img = sys
        .create_image("miss.img", 8 << 20, false)
        .expect("sparse image");
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
    sys.write(disk, 4 << 20, &[0x31u8; 4096]); // unallocated: must miss
    let tree = SpanTree::new(sys.take_spans());
    tree.check_nesting().expect("nested");
    let stalled = tree
        .spans()
        .iter()
        .find(|s| s.name() == "device" && s.attr(AttrKey::Stalled) == Some(1))
        .expect("a stalled device span");
    let resume = tree
        .spans()
        .iter()
        .find(|s| s.name() == "device_resume")
        .expect("a resume span");
    assert_eq!(
        stalled.parent, resume.parent,
        "stall and resume share the device_wait parent"
    );
    assert!(resume.start >= stalled.end);
}

/// Every span belongs to a request's tree, except a watchdog anomaly's:
/// the roots are the requests of all four guest paths and of a
/// front-end's batch (NVMe writes to a thin namespace, which miss), and
/// the anomaly those misses trip. A command-descriptor fetch opens under
/// the request whose descriptor it fetched first.
#[test]
fn every_root_span_is_a_request_or_an_anomaly() {
    use nesc_extent::Vlba;
    use nesc_nvme::{NvmeController, NvmeOpcode, NvmeStatus, SubmissionEntry};

    let interval = SimDuration::from_micros(10);
    let mut sys = SystemBuilder::new()
        .capacity_blocks(64 * 1024)
        .tracing(true)
        .telemetry(
            TelemetryConfig::windowed(interval).rule_text("core.miss_interrupts above 0 for 1"),
        )
        .build();
    for kind in [
        DiskKind::NescDirect,
        DiskKind::Virtio,
        DiskKind::Emulated,
        DiskKind::HostRaw,
    ] {
        let disk = sys.quick_disk(kind, &format!("{kind:?}.img"), 1 << 20).disk;
        run_small_workload(&mut sys, disk);
    }
    let mem = sys.memory();
    let mut ctrl = NvmeController::new(sys);
    let ns = ctrl.create_namespace("thin.img", 64, false).unwrap();
    let qid = ctrl.create_queue_pair(16);
    let buf = mem.borrow_mut().alloc(2048, 4096);
    let writes: Vec<SubmissionEntry> = (0..4u16)
        .map(|cid| {
            SubmissionEntry::new(NvmeOpcode::Write, cid, ns, buf, Vlba(u64::from(cid) * 4), 1)
        })
        .collect();
    let now = ctrl.system_mut().now();
    let done = ctrl.submit_and_process(now, qid, &writes).unwrap();
    assert!(done.iter().all(|(e, _)| e.status == NvmeStatus::Success));
    let sys = ctrl.system_mut();
    sys.think(SimDuration::from_micros(100));
    sys.telemetry_finish();

    let tree = SpanTree::new(sys.take_spans());
    tree.check_nesting().expect("nested");
    let mut roots = std::collections::BTreeMap::new();
    for root in tree.roots() {
        *roots.entry((root.layer(), root.name())).or_insert(0) += 1;
    }
    let want = [
        ("guest", "request"),
        ("hypervisor", "request"),
        ("telemetry", "anomaly"),
    ];
    assert_eq!(roots.keys().copied().collect::<Vec<_>>(), want, "{roots:?}");
    // 3 requests on each guest path and 4 front-end writes.
    assert_eq!(roots[&("guest", "request")], 3 * 3 + 4);
    let fetches = tree
        .spans()
        .iter()
        .filter(|s| s.name() == "dma_read" && s.attr(AttrKey::Transfers).is_none())
        .count();
    assert!(fetches >= 4, "{fetches} descriptor fetches");
}
