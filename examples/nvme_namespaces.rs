//! NVMe over NeSC: namespaces as hardware-isolated files.
//!
//! The paper observes that NVMe "does not specify how address spaces are
//! defined, how they are maintained, and what they represent — NeSC
//! therefore complements the abstract NVMe address spaces" (§III). Here a
//! driver talks real encoded submission/completion rings (64 B SQEs,
//! 16 B CQEs, phase bits, doorbells) while each namespace is a NeSC
//! virtual function confined to one file's extent tree: an image on the
//! hypervisor's filesystem, attached as a NeSC-direct disk of one
//! `System`.
//!
//! ```text
//! cargo run -p nesc-examples --bin nvme_namespaces
//! ```

use nesc_extent::Vlba;
use nesc_hypervisor::System;
use nesc_nvme::{NvmeController, NvmeOpcode, SubmissionEntry};
use nesc_sim::SimTime;

fn main() {
    let mut ctrl = NvmeController::new(System::builder().build());
    let mem = ctrl.system().memory();

    // Two namespaces = two image files on the hypervisor's filesystem.
    let ns_db = ctrl.create_namespace("db.img", 256, true).expect("VF slot");
    let ns_log = ctrl
        .create_namespace("log.img", 256, true)
        .expect("VF slot");
    let vf = |nsid: u32| ctrl.system().disk_vf(ctrl.identify(nsid).unwrap().disk);
    println!(
        "namespaces: {} ({:?}) and {} ({:?})",
        ns_db,
        vf(ns_db).unwrap(),
        ns_log,
        vf(ns_log).unwrap()
    );

    let qid = ctrl.create_queue_pair(16);

    // A batch of commands across both namespaces, one doorbell.
    let dbuf = mem.borrow_mut().alloc(16 * 1024, 4096);
    let lbuf = mem.borrow_mut().alloc(4 * 1024, 4096);
    mem.borrow_mut().write(dbuf, &vec![0xDB; 16 * 1024]);
    mem.borrow_mut().write(lbuf, &vec![0x10; 4 * 1024]);
    let batch = [
        // 16 blocks, NVMe 0-based
        SubmissionEntry::new(NvmeOpcode::Write, 1, ns_db, dbuf, Vlba(0), 15),
        SubmissionEntry::new(NvmeOpcode::Write, 2, ns_log, lbuf, Vlba(0), 3),
        SubmissionEntry::new(NvmeOpcode::Flush, 3, ns_log, 0, Vlba(0), 0),
    ];
    let done = ctrl
        .submit_and_process(SimTime::ZERO, qid, &batch)
        .expect("queue sized for the batch");
    for (cqe, at) in &done {
        println!("  cid {} -> {:?} at {at}", cqe.cid, cqe.status);
    }

    // Verify placement: read each namespace's first block back.
    let rbuf = mem.borrow_mut().alloc(2 * 1024, 4096);
    let reads = [
        SubmissionEntry::new(NvmeOpcode::Read, 4, ns_db, rbuf, Vlba(0), 0),
        SubmissionEntry::new(NvmeOpcode::Read, 5, ns_log, rbuf + 1024, Vlba(0), 0),
    ];
    let at = done
        .iter()
        .map(|&(_, at)| at)
        .max()
        .unwrap_or(SimTime::ZERO);
    let back = ctrl
        .submit_and_process(at, qid, &reads)
        .expect("queue sized for the reads");
    assert!(back.iter().all(|(cqe, _)| cqe.status.is_success()));
    assert_eq!(mem.borrow().read_vec(rbuf, 1024), vec![0xDB; 1024]);
    assert_eq!(mem.borrow().read_vec(rbuf + 1024, 1024), vec![0x10; 1024]);
    println!("\nisolation: each namespace reads back only its own file's writes");
    let sys = ctrl.system();
    let stats = sys.device().stats();
    println!(
        "device stats: {} requests, {} walks, BTLB hit rate {:.0}%",
        stats.requests_completed,
        stats.walks,
        sys.device().btlb().hit_rate() * 100.0
    );
}
