//! NVMe-over-NeSC integration: queue wraparound under sustained load,
//! many namespaces, interleaved queues, and differential data checks.

use std::cell::RefCell;
use std::rc::Rc;

use nesc_core::NescConfig;
use nesc_extent::{ExtentMapping, ExtentTree, Plba, Vlba};
use nesc_nvme::{NvmeController, NvmeOpcode, SubmissionEntry};
use nesc_pcie::HostMemory;
use nesc_sim::SimTime;
use proptest::prelude::*;

fn controller(capacity_blocks: u64) -> (Rc<RefCell<HostMemory>>, NvmeController) {
    let mem = Rc::new(RefCell::new(HostMemory::new()));
    let mut cfg = NescConfig::prototype();
    cfg.capacity_blocks = capacity_blocks;
    let ctrl = NvmeController::new(cfg, Rc::clone(&mem));
    (mem, ctrl)
}

fn contiguous_ns(
    mem: &Rc<RefCell<HostMemory>>,
    ctrl: &mut NvmeController,
    base: u64,
    blocks: u64,
) -> u32 {
    let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(base), blocks)]
        .into_iter()
        .collect();
    let root = tree.serialize(&mut mem.borrow_mut());
    ctrl.create_namespace(root, blocks).unwrap()
}

#[test]
fn sustained_load_wraps_the_rings_many_times() {
    let (mem, mut ctrl) = controller(16 * 1024);
    let ns = contiguous_ns(&mem, &mut ctrl, 0, 1024);
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
    assert_eq!(ctrl.device().stats().requests_completed, 64);
}

#[test]
fn max_namespaces_then_exhaustion() {
    let (mem, mut ctrl) = controller(128 * 1024);
    let max = ctrl.device().config().max_vfs;
    for i in 0..max as u64 {
        contiguous_ns(&mem, &mut ctrl, i * 16, 16);
    }
    let tree = ExtentTree::new().serialize(&mut mem.borrow_mut());
    assert!(ctrl.create_namespace(tree, 1).is_err());
    // Deleting one frees a slot.
    ctrl.delete_namespace(1, SimTime::ZERO).unwrap();
    assert!(ctrl.create_namespace(tree, 1).is_ok());
}

#[test]
fn interleaved_queues_complete_independently() {
    let (mem, mut ctrl) = controller(16 * 1024);
    let ns = contiguous_ns(&mem, &mut ctrl, 0, 1024);
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
    ctrl.process(SimTime::from_nanos(u64::MAX / 4));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random write/read command streams against a reference byte model.
    #[test]
    fn prop_namespace_matches_reference(
        ops in proptest::collection::vec((0u64..60, 1u32..4, any::<u8>(), any::<bool>()), 1..25)
    ) {
        let (mem, mut ctrl) = controller(16 * 1024);
        let ns = contiguous_ns(&mem, &mut ctrl, 64, 64);
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
