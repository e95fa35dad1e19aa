//! Adversarial guest-input regression harness.
//!
//! Seeded malformed-input generators drive every guest-facing decode
//! surface — NVMe submission entries, command-ring descriptors, virtio-blk
//! descriptor chains, and doorbell registers — and assert the device model
//! *classifies* each hostile input with a typed outcome instead of
//! panicking or letting an unproven value reach translation. This is the
//! dynamic twin of the static G1–G3 taint rules in `nesc-lint`: the linter
//! proves no unvalidated path exists, this harness proves the validators
//! that guard those paths fail closed.
//!
//! The taxonomy test at the bottom pins the exact outcome histogram for a
//! fixed seed, so a refactor that silently widens or narrows an accept set
//! (e.g. a validator that starts masking instead of rejecting) shows up as
//! a golden diff, not just a lack of crashes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use nesc_core::regs::offsets;
use nesc_core::ring::{RingDescriptor, DESCRIPTOR_BYTES};
use nesc_core::{CompletionStatus, NescConfig, NescDevice, NescOutput};
use nesc_extent::{
    validate_chain_len, validate_count, validate_nlb, validate_ring_tail, validate_sector,
    validate_slba, ExtentMapping, ExtentTree, GuestFault, Plba, Untrusted, Vlba,
};
use nesc_hypervisor::System;
use nesc_nvme::{NvmeController, NvmeOpcode, NvmeStatus, SubmissionEntry};
use nesc_pcie::HostMemory;
use nesc_sim::{SimRng, SimTime};
use nesc_storage::{BlockOp, RequestId};
use nesc_virtio::queue::Descriptor;
use nesc_virtio::BlkRequest;

const HORIZON: SimTime = SimTime::from_nanos(u64::MAX / 4);

fn rand_bytes<const N: usize>(rng: &mut SimRng) -> [u8; N] {
    let mut b = [0u8; N];
    for byte in b.iter_mut() {
        *byte = rng.range(0, 256) as u8;
    }
    b
}

/// Random SQE bytes either fail to decode or decode into quarantined
/// fields; either way the controller-facing surface never panics.
#[test]
fn garbage_sqe_bytes_decode_or_reject() {
    let mut rng = SimRng::seed(0xA11_BAD);
    let mut decoded = 0usize;
    for _ in 0..512 {
        let buf: [u8; 64] = rand_bytes(&mut rng);
        if let Some(sqe) = SubmissionEntry::decode(&buf) {
            // Decoded entries re-encode without touching the raw values.
            assert_eq!(SubmissionEntry::decode(&sqe.encode()), Some(sqe));
            decoded += 1;
        }
    }
    // Opcode byte 0 admits 3 of 256 values, so most garbage is rejected
    // at the wire and a few survive into quarantine.
    assert!(decoded < 64, "opcode screen leaks too much: {decoded}");
    assert!(decoded > 0, "generator never produced a valid opcode");
}

fn nvme_setup() -> (NvmeController, u32, u16) {
    let mut ctrl = NvmeController::new(System::builder().capacity_blocks(8192).build());
    let ns = ctrl.create_namespace("ns.img", 64, true).unwrap();
    let qid = ctrl.create_queue_pair(8);
    (ctrl, ns, qid)
}

/// Boundary and hostile slba/nlb values all complete with a typed NVMe
/// status — the LBA validators reject exactly the ranges that would
/// overflow or escape the 64-block namespace.
#[test]
fn boundary_lba_ranges_yield_typed_statuses() {
    let (mut ctrl, ns, qid) = nvme_setup();
    let buf = ctrl.system().memory().borrow_mut().alloc(4096, 4096);
    let cases: &[(u64, u32, NvmeStatus)] = &[
        (0, 0, NvmeStatus::Success),               // first block
        (63, 0, NvmeStatus::Success),              // last block
        (63, 1, NvmeStatus::LbaOutOfRange),        // runs one past the end
        (64, 0, NvmeStatus::LbaOutOfRange),        // starts past the end
        (u64::MAX, 0, NvmeStatus::LbaOutOfRange),  // far out of range
        (u64::MAX, 1, NvmeStatus::LbaOutOfRange),  // wraps the address space
        (0, u32::MAX, NvmeStatus::LbaOutOfRange),  // nlb alone exceeds capacity
        (63, u32::MAX, NvmeStatus::LbaOutOfRange), // both hostile
    ];
    let mut t = SimTime::ZERO;
    for (i, &(slba, nlb, want)) in cases.iter().enumerate() {
        t += nesc_sim::SimDuration::from_micros(100);
        let sqe = SubmissionEntry::new(NvmeOpcode::Read, i as u16, ns, buf, Vlba(slba), nlb);
        let done = ctrl.submit_and_process(t, qid, &[sqe]).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0.status, want, "slba={slba} nlb={nlb}");
    }
    // A namespace that does not exist fails closed before any LBA math.
    t += nesc_sim::SimDuration::from_micros(100);
    let sqe = SubmissionEntry::new(NvmeOpcode::Read, 99, ns + 7, buf, Vlba(0), 0);
    let done = ctrl.submit_and_process(t, qid, &[sqe]).unwrap();
    assert_eq!(done[0].0.status, NvmeStatus::InvalidNamespace);
}

/// Random ring-descriptor bytes either fail the wire decode or, once
/// decoded, release through `to_request` with a typed fault on overflow.
#[test]
fn garbage_ring_descriptors_never_yield_unchecked_requests() {
    let mut rng = SimRng::seed(0xD00_DAD);
    for _ in 0..512 {
        let buf: [u8; DESCRIPTOR_BYTES as usize] = rand_bytes(&mut rng);
        let Some(d) = RingDescriptor::decode(&buf) else {
            continue;
        };
        match d.to_request() {
            Ok(req) => {
                // The released range is proven not to wrap.
                assert!(req.lba.checked_add_blocks(req.block_count).is_some());
            }
            Err(GuestFault::SlbaOutOfRange { .. }) | Err(GuestFault::ZeroLength) => {}
            Err(other) => panic!("unexpected fault class: {other}"),
        }
    }
}

fn device_with_ring() -> (Rc<RefCell<HostMemory>>, NescDevice, nesc_core::FuncId, u64) {
    let mem = Rc::new(RefCell::new(HostMemory::new()));
    let mut cfg = NescConfig::prototype();
    cfg.capacity_blocks = 64 * 1024;
    let mut dev = NescDevice::new(cfg, Rc::clone(&mem));
    let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(0), 64)]
        .into_iter()
        .collect();
    let root = tree.serialize(&mut mem.borrow_mut());
    let vf = dev.create_vf(root, 64).unwrap();
    let ring_base = mem.borrow_mut().alloc(8 * DESCRIPTOR_BYTES, 4096);
    dev.mmio_write(vf, offsets::RING_BASE, ring_base, SimTime::ZERO);
    dev.mmio_write(vf, offsets::RING_ENTRIES, 8, SimTime::ZERO);
    (mem, dev, vf, ring_base)
}

/// Out-of-range doorbell values are rejected by the tail validator and
/// ignored; the ring stays live and a well-formed submission afterwards
/// still completes.
#[test]
fn hostile_doorbells_are_ignored_not_fatal() {
    let (mem, mut dev, vf, ring_base) = device_with_ring();
    // Hostile doorbells: at, past, and far past the 8-entry ring.
    for &tail in &[8u64, 9, 255, u32::MAX as u64, u64::MAX] {
        dev.mmio_write(vf, offsets::RING_TAIL, tail, SimTime::ZERO);
    }
    assert!(
        dev.advance(HORIZON)
            .iter()
            .all(|o| !matches!(o, NescOutput::Completion { .. })),
        "rejected doorbells must not consume descriptors"
    );
    // The device is not wedged: a sane descriptor + doorbell completes.
    let buf = mem.borrow_mut().alloc(2048, 4096);
    let d = RingDescriptor::new(BlockOp::Read, RequestId(7), Vlba(4), 2, buf);
    mem.borrow_mut().write(ring_base, &d.encode());
    dev.mmio_write(vf, offsets::RING_TAIL, 1, SimTime::ZERO);
    let ok = dev
        .advance(HORIZON)
        .iter()
        .filter(|o| {
            matches!(
                o,
                NescOutput::Completion {
                    status: CompletionStatus::Ok,
                    ..
                }
            )
        })
        .count();
    assert_eq!(ok, 1);
}

/// A descriptor whose lba+count wraps the virtual address space fails its
/// bounds proof in the device and surfaces as a typed `DeviceError`
/// completion — never an out-of-range `Plba` or a panic.
#[test]
fn wrapping_descriptor_completes_with_device_error() {
    let (mem, mut dev, vf, ring_base) = device_with_ring();
    let buf = mem.borrow_mut().alloc(2048, 4096);
    let d = RingDescriptor::new(BlockOp::Read, RequestId(1), Vlba(u64::MAX), 2, buf);
    mem.borrow_mut().write(ring_base, &d.encode());
    dev.mmio_write(vf, offsets::RING_TAIL, 1, SimTime::ZERO);
    let outs = dev.advance(HORIZON);
    let statuses: Vec<_> = outs
        .iter()
        .filter_map(|o| match o {
            NescOutput::Completion { id, status, .. } => Some((id.0, *status)),
            _ => None,
        })
        .collect();
    assert_eq!(statuses, vec![(1, CompletionStatus::DeviceError)]);
}

/// Randomly-shaped virtio descriptor chains parse into a request or a
/// typed `ParseError`; parsed sectors still have to pass the sector
/// validator before a backend may use them.
#[test]
fn malformed_virtio_chains_yield_typed_errors() {
    let mut rng = SimRng::seed(0xC0FFEE);
    let mut mem = HostMemory::new();
    let header = mem.alloc(16, 16);
    for _ in 0..512 {
        // Random header bytes: type code and sector.
        let hdr: [u8; 16] = rand_bytes(&mut rng);
        mem.write(header, &hdr);
        // Random chain shape: 0–3 descriptors after a sometimes-bogus head.
        let mut chain = Vec::new();
        let n = rng.range(0, 4);
        for i in 0..n {
            chain.push(Descriptor {
                addr: if i == 0 { header } else { 0x8000 + i * 0x1000 },
                len: [1u32, 8, 16, 512][rng.range(0, 4) as usize],
                device_writes: rng.chance(0.5),
            });
        }
        match BlkRequest::parse_chain(&mem, &chain) {
            Ok(req) => {
                // The sector is still quarantined: releasing it demands a
                // capacity proof, and hostile sectors fail it.
                match req.validated_sector(1 << 32) {
                    Ok(sector) => assert!(sector < 1 << 32),
                    Err(GuestFault::SectorOutOfRange { .. }) => {}
                    Err(other) => panic!("unexpected fault class: {other}"),
                }
            }
            Err(e) => {
                // Typed, displayable, and stable.
                assert!(!e.to_string().is_empty());
            }
        }
    }
}

/// The validator layer enforces exactly its documented bounds.
#[test]
fn validators_enforce_documented_bounds() {
    // slba: accepts ranges inside capacity, rejects the first block out.
    assert_eq!(validate_slba(Untrusted::new(Vlba(60)), 4, 64), Ok(Vlba(60)));
    assert!(matches!(
        validate_slba(Untrusted::new(Vlba(61)), 4, 64),
        Err(GuestFault::SlbaOutOfRange { .. })
    ));
    // nlb: zero-based, so nlb = capacity-1 is the largest legal count.
    assert_eq!(validate_nlb(Untrusted::new(63), 64), Ok(64));
    assert!(matches!(
        validate_nlb(Untrusted::new(64), 64),
        Err(GuestFault::NlbOutOfRange { .. })
    ));
    // count: zero is never a request.
    assert!(matches!(
        validate_count(Untrusted::new(0)),
        Err(GuestFault::ZeroLength)
    ));
    // ring tail: strictly below the entry count.
    assert_eq!(validate_ring_tail(Untrusted::new(7), 8), Ok(7));
    assert!(matches!(
        validate_ring_tail(Untrusted::new(8), 8),
        Err(GuestFault::TailOutOfRange { .. })
    ));
    // sector: strictly below capacity.
    assert_eq!(validate_sector(Untrusted::new(99), 100), Ok(99));
    assert!(matches!(
        validate_sector(Untrusted::new(100), 100),
        Err(GuestFault::SectorOutOfRange { .. })
    ));
    // chain length: at most the ring's descriptor budget.
    assert_eq!(validate_chain_len(Untrusted::new(3), 3), Ok(3));
    assert!(matches!(
        validate_chain_len(Untrusted::new(4), 3),
        Err(GuestFault::ChainTooLong { .. })
    ));
}

/// Golden outcome taxonomy for a fixed hostile corpus: every input lands
/// in exactly one named bucket, and the histogram is pinned so accept-set
/// drift in any decoder or validator is loud.
#[test]
fn hostile_corpus_taxonomy_matches_golden() {
    let mut rng = SimRng::seed(0x5EED_6011);
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut bump = |k: &'static str| *tally.entry(k).or_insert(0) += 1;

    for _ in 0..256 {
        let buf: [u8; 64] = rand_bytes(&mut rng);
        match SubmissionEntry::decode(&buf) {
            Some(_) => bump("sqe/quarantined"),
            None => bump("sqe/wire_reject"),
        }
    }
    for _ in 0..256 {
        let buf: [u8; DESCRIPTOR_BYTES as usize] = rand_bytes(&mut rng);
        match RingDescriptor::decode(&buf) {
            None => bump("ring/wire_reject"),
            Some(d) => match d.to_request() {
                Ok(_) => bump("ring/validated"),
                Err(GuestFault::SlbaOutOfRange { .. }) => bump("ring/fault_slba"),
                Err(GuestFault::ZeroLength) => bump("ring/fault_zero_len"),
                Err(_) => bump("ring/fault_other"),
            },
        }
    }
    // Crafted descriptors the random sweep is unlikely to produce: a range
    // that wraps the virtual address space, and a zero count smuggled past
    // the wire check via the trusted constructor.
    for d in [
        RingDescriptor::new(BlockOp::Read, RequestId(1), Vlba(u64::MAX), 2, 0x8000),
        RingDescriptor::new(BlockOp::Read, RequestId(2), Vlba(0), 0, 0x8000),
    ] {
        match d.to_request() {
            Ok(_) => bump("ring/validated"),
            Err(GuestFault::SlbaOutOfRange { .. }) => bump("ring/fault_slba"),
            Err(GuestFault::ZeroLength) => bump("ring/fault_zero_len"),
            Err(_) => bump("ring/fault_other"),
        }
    }
    for _ in 0..256 {
        let tail = rng.range(0, u32::MAX as u64 + 1) as u32;
        match validate_ring_tail(Untrusted::new(tail), 8) {
            Ok(_) => bump("doorbell/validated"),
            Err(GuestFault::TailOutOfRange { .. }) => bump("doorbell/fault_tail"),
            Err(_) => bump("doorbell/fault_other"),
        }
    }

    let golden: Vec<(&str, usize)> = vec![
        ("doorbell/fault_tail", 256),
        ("ring/fault_slba", 1),
        ("ring/fault_zero_len", 1),
        ("ring/validated", 2),
        ("ring/wire_reject", 254),
        ("sqe/quarantined", 3),
        ("sqe/wire_reject", 253),
    ];
    let got: Vec<(&str, usize)> = tally.into_iter().collect();
    assert_eq!(got, golden);
}
