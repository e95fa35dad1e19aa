//! NVMe-over-NeSC integration: queue wraparound under sustained load,
//! many namespaces, interleaved queues, and differential data checks.

use std::cell::RefCell;
use std::rc::Rc;

use nesc_extent::Vlba;
use nesc_hypervisor::{DiskKind, System, TelemetryConfig};
use nesc_nvme::{NvmeController, NvmeOpcode, NvmeStatus, SubmissionEntry};
use nesc_pcie::HostMemory;
use nesc_sim::{SimDuration, SimTime, SpanId, SpanTree};
use proptest::prelude::*;

fn controller(capacity_blocks: u64) -> (Rc<RefCell<HostMemory>>, NvmeController) {
    let sys = System::builder().capacity_blocks(capacity_blocks).build();
    (sys.memory(), NvmeController::new(sys))
}

/// A namespace of `blocks` over a new image file, preallocated or thin.
fn namespace(ctrl: &mut NvmeController, name: &str, blocks: u64, prealloc: bool) -> u32 {
    ctrl.create_namespace(name, blocks, prealloc).unwrap()
}

#[test]
fn sustained_load_wraps_the_rings_many_times() {
    let (mem, mut ctrl) = controller(16 * 1024);
    let ns = namespace(&mut ctrl, "ns.img", 1024, true);
    let qid = ctrl.create_queue_pair(4); // tiny ring: wraps every 3 commands
    let buf = mem.borrow_mut().alloc(1024, 4096);
    let mut t = SimTime::ZERO;
    for i in 0..64u64 {
        mem.borrow_mut().write(buf, &[i as u8; 1024]);
        let done = ctrl
            .submit_and_process(
                t,
                qid,
                &[SubmissionEntry::new(
                    NvmeOpcode::Write,
                    (i % 32) as u16,
                    ns,
                    buf,
                    Vlba(i % 1024),
                    0,
                )],
            )
            .unwrap();
        assert_eq!(done.len(), 1, "iteration {i}");
        assert!(done[0].0.status.is_success(), "iteration {i}");
        t = done[0].1;
    }
    assert_eq!(ctrl.system().device().stats().requests_completed, 64);
}

#[test]
fn max_namespaces_then_exhaustion() {
    let (_mem, mut ctrl) = controller(128 * 1024);
    let max = ctrl.system().device().config().max_vfs;
    for i in 0..max {
        namespace(&mut ctrl, &format!("ns{i}.img"), 16, true);
    }
    assert!(ctrl.create_namespace("one-more.img", 1, true).is_err());
    // Deleting one frees a slot.
    ctrl.delete_namespace(1, SimTime::ZERO).unwrap();
    assert!(ctrl.create_namespace("reuse.img", 1, true).is_ok());
}

#[test]
fn interleaved_queues_complete_independently() {
    let (mem, mut ctrl) = controller(16 * 1024);
    let ns = namespace(&mut ctrl, "ns.img", 1024, true);
    let q_a = ctrl.create_queue_pair(8);
    let q_b = ctrl.create_queue_pair(8);
    let buf = mem.borrow_mut().alloc(4096, 4096);
    // Push to both queues, ring both doorbells, process once.
    for (q, cid) in [(q_a, 1u16), (q_b, 2), (q_a, 3), (q_b, 4)] {
        ctrl.push(
            q,
            SubmissionEntry::new(NvmeOpcode::Read, cid, ns, buf, Vlba(cid as u64 * 4), 3),
        )
        .unwrap();
    }
    ctrl.ring_doorbell(q_a, SimTime::ZERO).unwrap();
    ctrl.ring_doorbell(q_b, SimTime::ZERO).unwrap();
    ctrl.process();
    let reap_ids = |ctrl: &mut NvmeController, q: u16| {
        let mut v = Vec::new();
        while let Some(c) = ctrl.reap(q) {
            v.push(c.cid);
        }
        v
    };
    assert_eq!(reap_ids(&mut ctrl, q_a), vec![1, 3]);
    assert_eq!(reap_ids(&mut ctrl, q_b), vec![2, 4]);
}

/// A thin namespace's first write takes the miss path: the system's
/// hypervisor backs the block and the command completes like any other.
#[test]
fn a_write_to_a_thin_namespace_completes_and_reads_back() {
    let (mem, mut ctrl) = controller(16 * 1024);
    let ns = namespace(&mut ctrl, "thin.img", 64, false);
    let qid = ctrl.create_queue_pair(8);
    let (wbuf, rbuf) = {
        let mut mem = mem.borrow_mut();
        (mem.alloc(2048, 4096), mem.alloc(2048, 4096))
    };
    mem.borrow_mut().write(wbuf, &[0x5A; 2048]);
    let write = SubmissionEntry::new(NvmeOpcode::Write, 1, ns, wbuf, Vlba(10), 1);
    let done = ctrl
        .submit_and_process(SimTime::ZERO, qid, &[write])
        .unwrap();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].0.status, NvmeStatus::Success);
    let read = SubmissionEntry::new(NvmeOpcode::Read, 2, ns, rbuf, Vlba(10), 1);
    let done = ctrl.submit_and_process(done[0].1, qid, &[read]).unwrap();
    assert_eq!(done[0].0.status, NvmeStatus::Success);
    assert_eq!(mem.borrow().read_vec(rbuf, 2048), vec![0x5A; 2048]);
}

/// One doorbell can carry more commands than a VF ring has slots: the
/// controller's batch reaches the device one ring-full at a time.
#[test]
fn a_batch_longer_than_the_vf_ring_completes() {
    let (mem, mut ctrl) = controller(16 * 1024);
    let ns = namespace(&mut ctrl, "ns.img", 1024, true);
    let qid = ctrl.create_queue_pair(512);
    let buf = mem.borrow_mut().alloc(1024, 4096);
    for cid in 0..300u16 {
        let sqe = SubmissionEntry::new(NvmeOpcode::Read, cid, ns, buf, Vlba(u64::from(cid)), 0);
        ctrl.push(qid, sqe).unwrap();
    }
    ctrl.ring_doorbell(qid, SimTime::ZERO).unwrap();
    let done = ctrl.process();
    assert_eq!(done.len(), 300);
    assert!(done.iter().all(|(e, _, _)| e.status == NvmeStatus::Success));
    let direct = ctrl.system().path_totals(DiskKind::NescDirect);
    assert_eq!(direct.requests, 300, "every ring-full's requests count");
}

/// A namespace's commands are requests like a guest's: with telemetry and
/// tracing on, 8 writes to a thin namespace (each taking the miss path)
/// count under the direct path, root one span tree each with the device's
/// span below, and reach the namespace disk's per-disk series.
#[test]
fn thin_namespace_writes_are_counted_traced_and_sampled() {
    let interval = SimDuration::from_micros(10);
    let sys = System::builder()
        .capacity_blocks(16 * 1024)
        .tracing(true)
        .telemetry(TelemetryConfig::windowed(interval))
        .build();
    let mem = sys.memory();
    let mut ctrl = NvmeController::new(sys);
    let ns = namespace(&mut ctrl, "thin.img", 64, false);
    let disk = ctrl.identify(ns).unwrap().disk;
    let qid = ctrl.create_queue_pair(16);
    let buf = mem.borrow_mut().alloc(2048, 4096);
    let writes: Vec<SubmissionEntry> = (0..8u16)
        .map(|cid| {
            SubmissionEntry::new(NvmeOpcode::Write, cid, ns, buf, Vlba(u64::from(cid) * 4), 1)
        })
        .collect();
    let done = ctrl
        .submit_and_process(SimTime::ZERO, qid, &writes)
        .unwrap();
    assert_eq!(done.len(), 8);
    assert!(done.iter().all(|(e, _)| e.status == NvmeStatus::Success));
    let sys = ctrl.system_mut();
    assert_eq!(
        sys.device().stats().miss_interrupts,
        8,
        "thin: every write misses"
    );
    let direct = sys.path_totals(DiskKind::NescDirect);
    assert_eq!(
        (direct.requests, direct.bytes, direct.errors),
        (8, 8 * 2048, 0)
    );
    assert_eq!(direct.latency_ns.count(), 8);

    let tree = SpanTree::new(sys.take_spans());
    let roots: Vec<SpanId> = tree
        .roots()
        .filter(|s| s.name() == "request")
        .map(|s| s.id)
        .collect();
    assert_eq!(roots.len(), 8, "one root per command");
    for root in roots {
        let (mut stack, mut device) = (vec![root], false);
        while let Some(id) = stack.pop() {
            for child in tree.children(id) {
                device |= (child.layer(), child.name()) == ("core", "device");
                stack.push(child.id);
            }
        }
        assert!(device, "root {root:?} has a core:device descendant");
    }

    let last = done.iter().map(|&(_, at)| at).max().unwrap();
    sys.think(last.saturating_since(sys.now()) + interval);
    sys.telemetry_finish();
    let name = format!("hv.vf{}.requests", disk.0);
    let sampler = sys.telemetry().unwrap().sampler();
    let requests = sampler.series_by_name(&name).unwrap();
    assert_eq!(requests.samples().map(|(_, v)| v).sum::<u64>(), 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random write/read command streams against a reference byte model,
    /// on a preallocated and on a thin namespace.
    #[test]
    fn prop_namespace_matches_reference(
        ops in proptest::collection::vec((0u64..60, 1u32..4, any::<u8>(), any::<bool>()), 1..25)
    ) {
        for prealloc in [true, false] {
            let (mem, mut ctrl) = controller(16 * 1024);
            let ns = namespace(&mut ctrl, "ns.img", 64, prealloc);
            let qid = ctrl.create_queue_pair(16);
            let buf = mem.borrow_mut().alloc(4096, 4096);
            let mut reference = vec![0u8; 64 * 1024];
            let mut t = SimTime::ZERO;
            for (i, &(slba, nlb, byte, is_write)) in ops.iter().enumerate() {
                if slba + nlb as u64 + 1 > 64 {
                    continue;
                }
                let bytes = (nlb as usize + 1) * 1024;
                let op = if is_write {
                    mem.borrow_mut().write(buf, &vec![byte; bytes]);
                    NvmeOpcode::Write
                } else {
                    NvmeOpcode::Read
                };
                let done = ctrl
                    .submit_and_process(
                        t,
                        qid,
                        &[SubmissionEntry::new(op, i as u16, ns, buf, Vlba(slba), nlb)],
                    )
                    .unwrap();
                prop_assert!(done[0].0.status.is_success());
                t = done[0].1;
                let lo = slba as usize * 1024;
                if is_write {
                    reference[lo..lo + bytes].fill(byte);
                } else {
                    let got = mem.borrow().read_vec(buf, bytes);
                    prop_assert_eq!(&got[..], &reference[lo..lo + bytes]);
                }
            }
        }
    }
}
