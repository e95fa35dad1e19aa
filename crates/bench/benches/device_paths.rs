//! Criterion microbenchmarks of the device model's hot paths: request
//! processing through the VF multiplexer and translation pipeline, PF
//! out-of-band traffic, and the filesystem substrate.

use std::cell::RefCell;
use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nesc_core::{NescConfig, NescDevice};
use nesc_extent::{ExtentMapping, ExtentTree, Plba, Vlba};
use nesc_fs::Filesystem;
use nesc_pcie::HostMemory;
use nesc_sim::{SimDuration, SimTime};
use nesc_storage::{BlockOp, BlockRequest, BlockStore, RequestId};

fn bench_vf_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("vf_4k_read", |b| {
        let mem = Rc::new(RefCell::new(HostMemory::new()));
        let mut cfg = NescConfig::prototype();
        cfg.capacity_blocks = 64 * 1024;
        let mut dev = NescDevice::new(cfg, Rc::clone(&mem));
        let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(0), 32 * 1024)]
            .into_iter()
            .collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        let vf = dev.create_vf(root, 32 * 1024).unwrap();
        let buf = mem.borrow_mut().alloc(4096, 4096);
        let mut t = SimTime::ZERO;
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            t += SimDuration::from_micros(100);
            dev.submit(
                t,
                vf,
                BlockRequest::new(RequestId(id), BlockOp::Read, Vlba((id * 4) % 32_000), 4),
                buf,
            );
            std::hint::black_box(dev.advance(SimTime::from_nanos(u64::MAX / 4)))
        })
    });
    group.bench_function("pf_4k_write_oob", |b| {
        let mem = Rc::new(RefCell::new(HostMemory::new()));
        let mut cfg = NescConfig::prototype();
        cfg.capacity_blocks = 64 * 1024;
        let mut dev = NescDevice::new(cfg, Rc::clone(&mem));
        let buf = mem.borrow_mut().alloc(4096, 4096);
        let mut t = SimTime::ZERO;
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            t += SimDuration::from_micros(100);
            let pf = dev.pf();
            dev.submit(
                t,
                pf,
                BlockRequest::new(RequestId(id), BlockOp::Write, Vlba((id * 4) % 32_000), 4),
                buf,
            );
            std::hint::black_box(dev.advance(SimTime::from_nanos(u64::MAX / 4)))
        })
    });
    group.finish();
}

fn bench_filesystem(c: &mut Criterion) {
    let mut group = c.benchmark_group("filesystem");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(16 * 1024));
    group.bench_function("write_16k_extend", |b| {
        let mut store = BlockStore::new(1 << 20);
        let mut fs = Filesystem::format(1 << 20);
        let ino = fs.create("bench").unwrap();
        let data = vec![7u8; 16 * 1024];
        let mut off = 0u64;
        // Wrap within a 256 MiB window so long criterion runs never
        // exhaust the device (the first pass measures extends, later
        // passes in-place rewrites — both realistic).
        let window = 256u64 << 20;
        b.iter(|| {
            fs.write(&mut store, ino, off % window, &data).unwrap();
            off += 16 * 1024;
        })
    });
    group.bench_function("read_16k", |b| {
        let mut store = BlockStore::new(1 << 20);
        let mut fs = Filesystem::format(1 << 20);
        let ino = fs.create("bench").unwrap();
        fs.write(&mut store, ino, 0, &vec![7u8; 1 << 20]).unwrap();
        let mut off = 0u64;
        b.iter(|| {
            let got = fs.read(&mut store, ino, off % ((1 << 20) - 16 * 1024), 16 * 1024);
            off += 16 * 1024;
            std::hint::black_box(got)
        })
    });
    group.finish();
}

fn bench_interfaces(c: &mut Criterion) {
    use nesc_core::ring::{RingDescriptor, DESCRIPTOR_BYTES};
    use nesc_hypervisor::System;
    use nesc_nvme::{NvmeController, NvmeOpcode, SubmissionEntry};

    let mut group = c.benchmark_group("interfaces");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("nvme_4k_read", |b| {
        let sys = System::builder().capacity_blocks(64 * 1024).build();
        let mut ctrl = NvmeController::new(sys);
        let ns = ctrl.create_namespace("bench.img", 32 * 1024, true).unwrap();
        let qid = ctrl.create_queue_pair(64);
        let buf = ctrl.system().memory().borrow_mut().alloc(4096, 4096);
        let mut t = SimTime::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            t += SimDuration::from_micros(100);
            let done = ctrl
                .submit_and_process(
                    t,
                    qid,
                    &[SubmissionEntry::new(
                        NvmeOpcode::Read,
                        (i % 32) as u16,
                        ns,
                        buf,
                        Vlba((i * 4) % 32_000),
                        3,
                    )],
                )
                .unwrap();
            std::hint::black_box(done)
        })
    });
    group.bench_function("ring_descriptor_roundtrip", |b| {
        let d = RingDescriptor::new(BlockOp::Read, RequestId(1), Vlba(42), 4, 0x9000);
        let _ = DESCRIPTOR_BYTES;
        b.iter(|| std::hint::black_box(RingDescriptor::decode(&d.encode())))
    });
    group.finish();
}

criterion_group!(benches, bench_vf_read, bench_filesystem, bench_interfaces);
criterion_main!(benches);
