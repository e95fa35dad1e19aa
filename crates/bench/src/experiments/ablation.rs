//! Ablations of the paper's design choices: BTLB size, block-walk
//! overlap, extent-tree depth, round-robin scheduling and tree pruning.

use std::cell::RefCell;
use std::rc::Rc;

use nesc_core::{FuncId, NescConfig, NescDevice, NescOutput};
use nesc_extent::{ExtentMapping, ExtentTree, Plba, Vlba};
use nesc_hypervisor::SystemBuilder;
use nesc_pcie::HostMemory;
use nesc_sim::{SimDuration, SimRng, SimTime};
use nesc_storage::{BlockOp, BlockRequest, RequestId};
use serde_json::json;

use super::Out;
use crate::{fmt, outln, prune_pressure};

/// Far enough ahead that `advance` drains every queued request.
pub(super) const HORIZON: SimTime = SimTime::from_nanos(u64::MAX / 4);

/// A bare device on shared host memory: the prototype configuration with
/// `capacity_blocks`, adjusted by `tweak`.
pub(super) fn bare_device(
    capacity_blocks: u64,
    tweak: impl FnOnce(&mut NescConfig),
) -> (Rc<RefCell<HostMemory>>, NescDevice) {
    let mem = Rc::new(RefCell::new(HostMemory::new()));
    let mut cfg = NescConfig::prototype();
    cfg.capacity_blocks = capacity_blocks;
    tweak(&mut cfg);
    let dev = NescDevice::new(cfg, Rc::clone(&mem));
    (mem, dev)
}

/// A VF whose `blocks`-block disk is one extent starting at `base`.
pub(super) fn linear_vf(
    dev: &mut NescDevice,
    mem: &RefCell<HostMemory>,
    base: u64,
    blocks: u64,
) -> FuncId {
    let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(base), blocks)]
        .into_iter()
        .collect();
    let root = tree.serialize(&mut mem.borrow_mut());
    dev.create_vf(root, blocks).expect("a VF slot is free")
}

/// The completion time of the last output, or an error if there was none.
pub(super) fn last_output(outs: &[NescOutput]) -> Result<SimTime, String> {
    outs.iter()
        .map(NescOutput::at)
        .max()
        .ok_or_else(|| "no request completed".to_string())
}

/// Ablation — BTLB size (design choice, paper §V-B).
///
/// The prototype caches the last 8 extents "so the BTLB can maintain at
/// least the last mapping for each of the last 8 VFs it serviced". This
/// sweep varies the entry count with 8 concurrently-active VFs reading
/// fragmented files, showing why 8 entries is the knee: fewer entries
/// thrash across VFs (every block pays a walk), more buys little.
pub fn ablation_btlb(out: &mut Out) -> Result<(), String> {
    const VFS: u64 = 8;
    const OPS_PER_VF: u64 = 200;
    const EXTENTS: u64 = 64;
    let run = |btlb_entries| -> Result<(f64, f64), String> {
        let (mem, mut dev) = bare_device(256 * 1024, |c| c.btlb_entries = btlb_entries);
        // A fragmented file per VF: every extent is 32 blocks, physically
        // interleaved with the other files' extents so nothing coalesces.
        let vfs: Vec<_> = (0..VFS)
            .map(|v| {
                let tree: ExtentTree = (0..EXTENTS)
                    .map(|i| ExtentMapping::new(Vlba(i * 32), Plba((i * VFS + v) * 32), 32))
                    .collect();
                let root = tree.serialize(&mut mem.borrow_mut());
                dev.create_vf(root, EXTENTS * 32)
                    .expect("a VF slot is free")
            })
            .collect();
        let buf = mem.borrow_mut().alloc(4096, 4096);
        // Each VF streams its file sequentially in 4 KiB reads while the
        // multiplexer round-robins across all eight — the access pattern
        // the prototype's "one entry per recent VF" sizing targets: a VF's
        // next request reuses its previous extent only if the BTLB can
        // hold one entry per concurrently-active VF.
        let mut id = 0u64;
        for op in 0..OPS_PER_VF {
            for &vf in &vfs {
                let lba = Vlba((op * 4) % (EXTENTS * 32 - 4));
                id += 1;
                dev.submit(
                    SimTime::ZERO,
                    vf,
                    BlockRequest::new(RequestId(id), BlockOp::Read, lba, 4),
                    buf,
                );
            }
        }
        let makespan = last_output(&dev.advance(HORIZON))?;
        let mean_us = makespan.as_micros_f64() / (OPS_PER_VF * VFS) as f64;
        Ok((dev.btlb().hit_rate() * 100.0, mean_us))
    };

    out.line("Ablation: BTLB entries vs hit rate and translation cost");
    out.line("(8 VFs, fragmented 8-block extents, random 4KB reads)");
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for entries in [0usize, 1, 2, 4, 8, 16, 32] {
        let (hit_rate, mean_us) = run(entries)?;
        rows.push(vec![
            entries.to_string(),
            format!("{hit_rate:.1}"),
            fmt(mean_us),
        ]);
        points.push(json!({
            "entries": entries,
            "hit_rate_pct": hit_rate,
            "mean_service_us": mean_us,
        }));
    }
    out.table(
        "BTLB sweep",
        &["entries", "hit rate %", "mean service us"],
        &rows,
    );
    out.line("\nexpected: hit rate collapses below 8 entries (one per active VF)");
    out.line("and the prototype's 8-entry choice sits at the knee.");
    out.json("ablation_btlb", &json!({ "points": points }))
}

/// Ablation — extent-tree pruning under host memory pressure (§IV-B).
///
/// "If memory becomes tight, the hypervisor can prune parts of the extent
/// tree and mark the pruned sections by storing NULL in their respective
/// Next Node Pointer. When NeSC needs to access a pruned subtree, it
/// interrupts the host to regenerate the mappings." This entry quantifies
/// the trade: the more aggressively the hypervisor prunes, the more device
/// accesses stall on regeneration interrupts.
pub fn ablation_prune_pressure(out: &mut Out) -> Result<(), String> {
    out.line("Ablation: hypervisor tree pruning rate vs device-visible cost");
    out.line("(fragmented 4K-extent image, random 4KB reads, prune = evict one subtree)");
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (label, every) in [
        ("never", 0u64),
        ("every 64 ops", 64),
        ("every 16 ops", 16),
        ("every 4 ops", 4),
    ] {
        let (sys, lat) = prune_pressure(SystemBuilder::new(), every);
        let misses = sys.device().stats().miss_interrupts;
        rows.push(vec![label.into(), fmt(lat), misses.to_string()]);
        points.push(json!({
            "prune_every": every,
            "mean_read_latency_us": lat,
            "miss_interrupts": misses,
        }));
    }
    out.table(
        "Pruning pressure",
        &["prune rate", "mean read latency us", "regen interrupts"],
        &rows,
    );
    out.line("\nexpected: each pruned-subtree access costs a host interrupt plus a");
    out.line("tree rebuild, so aggressive pruning trades host memory for latency —");
    out.line("the reason the paper prunes only under real memory pressure.");
    out.json("ablation_prune_pressure", &json!({ "points": points }))
}

/// Ablation — round-robin multiplexer fairness (paper §V-A).
///
/// "NeSC dequeues client requests in a round-robin manner in order to
/// prevent client starvation." This entry runs an asymmetric pair of
/// tenants — a bandwidth hog issuing 256 KiB requests and a
/// latency-sensitive client issuing 4 KiB requests — and reports the
/// small client's latency alone vs. sharing the device, plus the Jain
/// fairness index of the two tenants' delivered bandwidth shares.
pub fn ablation_scheduler(out: &mut Out) -> Result<(), String> {
    const SMALL_OPS: u64 = 64;
    const HOG_OPS: u64 = 64;
    // Returns (small client's mean latency in µs, small MB/s, hog MB/s).
    let run = |with_hog: bool| {
        let (mem, mut dev) = bare_device(512 * 1024, |_| {});
        let small = linear_vf(&mut dev, &mem, 0, 128 * 1024);
        let hog = with_hog.then(|| linear_vf(&mut dev, &mem, 128 * 1024, 128 * 1024));
        let buf = mem.borrow_mut().alloc(256 * 1024, 4096);
        // The small client issues 4 KiB reads paced 20 µs apart; the hog
        // floods 256 KiB reads back to back from t=0.
        if let Some(h) = hog {
            for i in 0..HOG_OPS {
                dev.submit(
                    SimTime::ZERO,
                    h,
                    BlockRequest::new(RequestId(1_001 + i), BlockOp::Read, Vlba(i * 256), 256),
                    buf,
                );
            }
        }
        let issued = |i: u64| SimTime::ZERO + SimDuration::from_micros(20) * i;
        for i in 0..SMALL_OPS {
            dev.submit(
                issued(i),
                small,
                BlockRequest::new(RequestId(i + 1), BlockOp::Read, Vlba(i * 4), 4),
                buf,
            );
        }
        let mut small_lat = 0.0;
        let mut small_done = SimTime::ZERO;
        let mut hog_done = SimTime::ZERO;
        for o in &dev.advance(HORIZON) {
            if let NescOutput::Completion { at, id, .. } = o {
                if id.0 <= SMALL_OPS {
                    small_lat += at.saturating_since(issued(id.0 - 1)).as_micros_f64();
                    small_done = small_done.max(*at);
                } else {
                    hog_done = hog_done.max(*at);
                }
            }
        }
        let mbps = |bytes: u64, done: SimTime| bytes as f64 / 1e6 / done.as_secs_f64().max(1e-12);
        let hog_mbps = hog.map_or(0.0, |_| mbps(HOG_OPS * 256 * 1024, hog_done));
        (
            small_lat / SMALL_OPS as f64,
            mbps(SMALL_OPS * 4 * 1024, small_done),
            hog_mbps,
        )
    };

    out.line("Ablation: round-robin VF scheduling under asymmetric tenants");
    let (alone_lat, alone_mbps, _) = run(false);
    let (shared_lat, shared_mbps, hog_mbps) = run(true);
    let rows = vec![
        vec![
            "small client alone".into(),
            fmt(alone_lat),
            fmt(alone_mbps),
            "-".into(),
        ],
        vec![
            "small + 256KB hog".into(),
            fmt(shared_lat),
            fmt(shared_mbps),
            fmt(hog_mbps),
        ],
    ];
    out.table(
        "Fairness",
        &["scenario", "small mean lat us", "small MB/s", "hog MB/s"],
        &rows,
    );
    let slowdown = shared_lat / alone_lat;
    // Shares normalized by demand: the small client asks for 1/64th of the
    // hog's bytes; fairness is over per-request service opportunity. Jain
    // index of two shares: (a + b)² / (2 (a² + b²)).
    let (a, b) = (shared_mbps * 64.0, hog_mbps);
    let fairness = (a + b) * (a + b) / (2.0 * (a * a + b * b));
    outln!(
        out,
        "\nsmall-client slowdown next to the hog: {slowdown:.1}x"
    );
    outln!(
        out,
        "Jain fairness of demand-normalized shares: {fairness:.3} (1.0 = perfectly fair)"
    );
    out.line("round-robin bounds the hog's impact: the small client is delayed by at most");
    out.line("one in-flight hog request per turn, not starved behind the whole hog queue.");
    out.json(
        "ablation_scheduler",
        &json!({
            "alone_latency_us": alone_lat,
            "shared_latency_us": shared_lat,
            "slowdown": slowdown,
            "jain_fairness": fairness,
            "small_mbps_shared": shared_mbps,
            "hog_mbps": hog_mbps,
        }),
    )
}

/// Ablation — extent-tree depth vs translation latency (paper §IV-B).
///
/// "The key benefit of extent trees is that their depth is not fixed but
/// rather depends on the mapping itself." This sweep fragments a file
/// from one extent (depth-1 tree, like ext4 mapping a 100MB file with a
/// single extent) up to thousands (depth-3), and measures the cold
/// translation cost — each extra level is one more host-memory DMA on the
/// walk path.
pub fn ablation_tree_depth(out: &mut Out) -> Result<(), String> {
    const OPS: u64 = 300;
    const FILE_BLOCKS: u64 = 16 * 1024;
    let run = |extents: u64| -> Result<(u32, f64, f64), String> {
        // Cold translations only.
        let (mem, mut dev) = bare_device(FILE_BLOCKS * 2, |c| c.btlb_entries = 0);
        // Equal pieces in reverse physical order, so nothing merges.
        let span = FILE_BLOCKS / extents;
        let tree: ExtentTree = (0..extents)
            .map(|i| ExtentMapping::new(Vlba(i * span), Plba((extents - 1 - i) * span), span))
            .collect();
        let depth = tree.serialized_depth();
        let root = tree.serialize(&mut mem.borrow_mut());
        let vf = dev.create_vf(root, FILE_BLOCKS).expect("a VF slot is free");
        let buf = mem.borrow_mut().alloc(1024, 1024);
        let mut rng = SimRng::seed(7);
        let mut t = SimTime::ZERO;
        let mut latencies = 0.0f64;
        for i in 0..OPS {
            let lba = Vlba(rng.range(0, FILE_BLOCKS));
            dev.submit(
                t,
                vf,
                BlockRequest::new(RequestId(i), BlockOp::Read, lba, 1),
                buf,
            );
            let done = last_output(&dev.advance(HORIZON))?;
            latencies += done.saturating_since(t).as_micros_f64();
            t = done;
        }
        Ok((depth, dev.stats().mean_walk_depth(), latencies / OPS as f64))
    };

    out.line("Ablation: extent-tree fragmentation vs cold translation latency");
    out.line("(BTLB disabled; one random 1KB read at a time)");
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for extents in [1u64, 16, 64, 512, 8192] {
        let (depth, walked, lat_us) = run(extents)?;
        rows.push(vec![
            extents.to_string(),
            depth.to_string(),
            format!("{walked:.2}"),
            fmt(lat_us),
        ]);
        points.push(json!({
            "extents": extents,
            "tree_depth": depth,
            "mean_walk_levels": walked,
            "mean_read_latency_us": lat_us,
        }));
    }
    out.table(
        "Tree-depth sweep",
        &["extents", "tree depth", "levels walked", "read latency us"],
        &rows,
    );
    out.line("\nexpected: latency grows by roughly one tree-node DMA per extra level,");
    out.line("which is why NeSC leans on extent coalescing (and the BTLB) so hard.");
    out.json("ablation_tree_depth", &json!({ "points": points }))
}

/// Ablation — block-walk overlap (design choice, paper §V-B).
///
/// "Since the main performance bottleneck of the unit is the DMA
/// transaction of the next level in the tree, the unit can overlap two
/// translation processes to (almost) hide the DMA latency." This sweep
/// disables the BTLB (every block walks) and varies the number of
/// concurrent walks, measuring translation-limited throughput with two
/// VFs issuing single-block reads.
pub fn ablation_walk_overlap(out: &mut Out) -> Result<(), String> {
    const OPS: u64 = 800;
    let run = |walk_overlap| -> Result<(f64, f64), String> {
        let (mem, mut dev) = bare_device(256 * 1024, |c| {
            c.walk_overlap = walk_overlap;
            c.btlb_entries = 0; // force a walk on every block
        });
        // Single-block extents so every walk visits a multi-level tree.
        let vfs: Vec<_> = (0..2u64)
            .map(|v| {
                let tree: ExtentTree = (0..2048u64)
                    .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 4 + v), 1))
                    .collect();
                let root = tree.serialize(&mut mem.borrow_mut());
                dev.create_vf(root, 4096).expect("a VF slot is free")
            })
            .collect();
        let buf = mem.borrow_mut().alloc(1024, 1024);
        let mut id = 0u64;
        for i in 0..OPS / 2 {
            for &vf in &vfs {
                id += 1;
                dev.submit(
                    SimTime::ZERO,
                    vf,
                    BlockRequest::new(RequestId(id), BlockOp::Read, Vlba((i % 2048) * 2), 1),
                    buf,
                );
            }
        }
        let makespan = last_output(&dev.advance(HORIZON))?;
        let kops = OPS as f64 / makespan.as_secs_f64() / 1e3;
        Ok((kops, dev.stats().walks as f64 / OPS as f64))
    };

    out.line("Ablation: block-walk overlap vs translation-limited throughput");
    out.line("(BTLB disabled, 1-block extents, depth-2 trees, 2 VFs)");
    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut base = 0.0;
    for overlap in [1usize, 2, 4, 8] {
        let (kops, walks_per_op) = run(overlap)?;
        if overlap == 1 {
            base = kops;
        }
        rows.push(vec![
            overlap.to_string(),
            fmt(kops),
            format!("{:.2}", kops / base),
            format!("{walks_per_op:.1}"),
        ]);
        points.push(json!({
            "overlap": overlap,
            "kops": kops,
            "speedup_vs_1": kops / base,
        }));
    }
    out.table(
        "Walk-overlap sweep",
        &["walk slots", "k-reads/s", "speedup", "walks/op"],
        &rows,
    );
    out.line("\nexpected: going 1 -> 2 slots hides most of the tree-DMA latency");
    out.line("(the prototype's choice); more slots saturate the PCIe read path.");
    out.json("ablation_walk_overlap", &json!({ "points": points }))
}
