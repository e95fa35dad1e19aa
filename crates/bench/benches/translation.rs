//! Criterion microbenchmarks of the translation machinery: extent-tree
//! serialization, device-side walks at each depth, and the BTLB. These
//! measure the *simulator's* wall-clock cost (how fast the model runs),
//! complementing the simulated-time entries in `src/experiments/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nesc_core::Btlb;
use nesc_extent::{walk, ExtentMapping, ExtentTree, Plba, Vlba};
use nesc_pcie::HostMemory;

fn fragmented_tree(extents: u64) -> ExtentTree {
    (0..extents)
        .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 3 + 7), 1))
        .collect()
}

fn bench_serialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("extent_tree_serialize");
    group.sample_size(20);
    for &extents in &[16u64, 512, 8192] {
        let tree = fragmented_tree(extents);
        group.bench_with_input(BenchmarkId::from_parameter(extents), &tree, |b, tree| {
            b.iter(|| {
                let mut mem = HostMemory::new();
                std::hint::black_box(tree.serialize(&mut mem))
            })
        });
    }
    group.finish();
}

fn bench_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_walk");
    group.sample_size(30);
    for &extents in &[16u64, 512, 8192] {
        let tree = fragmented_tree(extents);
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        let depth = tree.serialized_depth();
        group.bench_function(BenchmarkId::new("depth", depth), |b| {
            let mut v = 0u64;
            b.iter(|| {
                v = (v + 2) % (extents * 2);
                std::hint::black_box(walk(&mem, root, Vlba(v)))
            })
        });
    }
    group.finish();
}

fn bench_btlb(c: &mut Criterion) {
    let mut group = c.benchmark_group("btlb");
    group.sample_size(30);
    group.bench_function("lookup_hit", |b| {
        let mut btlb = Btlb::new(8);
        for f in 0..8u16 {
            btlb.insert(f, ExtentMapping::new(Vlba(0), Plba(f as u64 * 100), 64));
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(btlb.lookup((i % 8) as u16, Vlba(i % 64)))
        })
    });
    group.bench_function("insert_evict", |b| {
        let mut btlb = Btlb::new(8);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            btlb.insert((i % 4) as u16, ExtentMapping::new(Vlba(i), Plba(i * 2), 1));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_serialize, bench_walk, bench_btlb);
criterion_main!(benches);
