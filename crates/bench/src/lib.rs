#![warn(missing_docs)]

//! The experiment harness regenerating every table and figure of the NeSC
//! paper's evaluation (§VII), its ablations and extension studies, and the
//! observability and scale-out results.
//!
//! Each result is one entry of the [`experiments`] registry, driven by the
//! `nesc-bench` binary (`nesc-bench run <name|all>`, `nesc-bench check`).

pub mod experiments;
pub mod forensic;
pub mod hotpath;

use nesc_extent::Vlba;
use nesc_hypervisor::{DiskId, DiskKind, System, SystemBuilder, VmId};
use nesc_sim::{SimDuration, SimRng};

/// Builds the standard experimental system: the VC707-calibrated device
/// (with the prototype's trampoline-copy pessimism, as measured in the
/// paper) and one disk of `size_bytes` on the requested path.
pub fn standard_system(kind: DiskKind, size_bytes: u64) -> (System, VmId, DiskId) {
    let mut sys = SystemBuilder::new().with_trampoline().build();
    let p = sys.quick_disk(kind, "bench.img", size_bytes);
    (sys, p.vm, p.disk)
}

/// The four paths the paper compares, with its labels.
pub fn all_paths() -> [(DiskKind, &'static str); 4] {
    [
        (DiskKind::NescDirect, "NeSC"),
        (DiskKind::Virtio, "virtio"),
        (DiskKind::Emulated, "Emulation"),
        (DiskKind::HostRaw, "Host"),
    ]
}

/// The block sizes of the paper's Figs. 9–11 sweeps (512 B – 32 KiB).
pub fn paper_block_sizes() -> Vec<u64> {
    vec![512, 1024, 2048, 4096, 8192, 16384, 32768]
}

/// A block size as the figures' `KB` column prints it (`0.5`, `1`, `32`).
pub fn kb_label(bytes: u64) -> String {
    if bytes < 1024 {
        format!("{:.1}", bytes as f64 / 1024.0)
    } else {
        format!("{}", bytes / 1024)
    }
}

/// The pruning-pressure scenario shared by the ablation, the telemetry
/// dashboard and the forensic trigger: a fragmented image (interleaved
/// allocation, so its tree has prunable internal levels) read 256 times
/// at random 4 KiB offsets in a hot 256-block set, with one hot subtree
/// evicted every `prune_every` reads (0 = never), then idled past the
/// last telemetry window. Returns the system and the mean read latency in
/// µs.
pub fn prune_pressure(builder: SystemBuilder, prune_every: u64) -> (System, f64) {
    const OPS: u64 = 256;
    let mut sys = builder.capacity_blocks(256 * 1024).build();
    let vm = sys.create_vm();
    let img = sys
        .create_image("hot.img", 8 << 20, false)
        .expect("fresh host fs");
    let other = sys
        .create_image("interleave.img", 8 << 20, false)
        .expect("fresh host fs");
    for b in 0..4096u64 {
        sys.host_fs_mut()
            .allocate_range(img, Vlba(b), 1)
            .expect("space for 4 MiB");
        sys.host_fs_mut()
            .allocate_range(other, Vlba(b), 1)
            .expect("space for 4 MiB");
    }
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
    let mut rng = SimRng::seed(99);
    let mut buf = vec![0u8; 4096];
    let mut total_us = 0.0;
    for i in 0..OPS {
        if prune_every > 0 && i % prune_every == 0 {
            // Evict inside the hot set, so the eviction actually matters
            // (evicting cold mappings is free — the point of pruning).
            let victim = Vlba(rng.range(0, 252));
            sys.prune_image_mapping(disk, victim);
        }
        let offset = (rng.range(0, 252) / 4) * 4 * 1024;
        total_us += sys.read(disk, offset, &mut buf).as_micros_f64();
    }
    sys.think(SimDuration::from_micros(200));
    sys.telemetry_finish();
    (sys, total_us / OPS as f64)
}

/// Disks in the [`mixed_vfs`] system.
pub const MIXED_VFS: usize = 3;

/// The mixed multi-VF system shared by the telemetry dashboard and the
/// telemetry-overhead harness: [`MIXED_VFS`] 8 MiB NeSC-direct disks on a
/// 256 Ki-block device built from `builder`.
pub fn mixed_vfs(builder: SystemBuilder) -> (System, Vec<DiskId>) {
    let mut sys = builder.capacity_blocks(256 * 1024).max_vfs(8).build();
    let disks = (0..MIXED_VFS)
        .map(|i| {
            sys.quick_disk(DiskKind::NescDirect, &format!("vf{i}.img"), 8 << 20)
                .disk
        })
        .collect();
    (sys, disks)
}

/// Drives `requests` seeded 2–16 KiB requests (60% reads) at random
/// 16 KiB-aligned offsets of `disks`, thinking 1 to `max_think_us` µs
/// between them. Returns each request's simulated latency in ns.
pub fn drive_mixed(
    sys: &mut System,
    disks: &[DiskId],
    seed: u64,
    requests: u64,
    max_think_us: u64,
) -> Vec<u64> {
    let mut rng = SimRng::seed(seed);
    let sizes = [2048u64, 4096, 8192, 16384];
    let mut buf = vec![0u8; 16384];
    let mut latencies = Vec::with_capacity(requests as usize);
    for _ in 0..requests {
        let d = disks[rng.range(0, disks.len() as u64) as usize];
        let bytes = sizes[rng.range(0, sizes.len() as u64) as usize] as usize;
        let offset = rng.range(0, (8 << 20) / 16384) * 16384;
        let lat = if rng.range(0, 100) < 60 {
            sys.read(d, offset, &mut buf[..bytes])
        } else {
            sys.write(d, offset, &buf[..bytes])
        };
        latencies.push(lat.as_nanos());
        sys.think(SimDuration::from_micros(rng.range(1, max_think_us)));
    }
    latencies
}

/// Renders a fixed-width table: a blank line, the `=== title ===` rule,
/// the header row, a dash row and the right-aligned body rows.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(String::len).unwrap_or(0))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        format!("  {}\n", joined.join("  "))
    };
    let mut out = format!("\n=== {title} ===\n");
    out += &line(headers.iter().map(|s| s.to_string()).collect());
    out += &line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        out += &line(r.clone());
    }
    out
}

/// Formats a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_system_builds_every_path() {
        for (kind, _) in all_paths() {
            let (sys, _, disk) = standard_system(kind, 4 << 20);
            assert_eq!(sys.disk_kind(disk), kind);
        }
    }

    #[test]
    fn prune_pressure_misses_only_when_it_prunes() {
        let (calm, calm_us) = prune_pressure(SystemBuilder::new(), 0);
        let (pruned, pruned_us) = prune_pressure(SystemBuilder::new(), 8);
        let (calm, pruned) = (calm.device().stats(), pruned.device().stats());
        for s in [&calm, &pruned] {
            assert_eq!((s.requests_completed, s.requests_failed), (256, 0));
            assert!(
                s.mean_walk_depth() >= 2.0,
                "the interleaved image is a deep tree"
            );
        }
        assert_eq!(calm.miss_interrupts, 0, "a preallocated image never misses");
        assert!(pruned.miss_interrupts > 0);
        assert!(pruned.walks > calm.walks);
        assert!(pruned_us > calm_us);
    }

    #[test]
    fn drive_mixed_replays_its_seed() {
        let run = |seed| {
            let (mut sys, disks) = mixed_vfs(SystemBuilder::new());
            assert_eq!(disks.len(), MIXED_VFS);
            let lat = drive_mixed(&mut sys, &disks, seed, 40, 20);
            (lat, sys.device().stats().requests_completed)
        };
        let (a, done) = run(3);
        assert_eq!(a.len(), 40);
        assert!(done >= 40, "every request reached the device");
        assert!(a.iter().all(|&ns| ns > 0));
        assert_eq!(run(3).0, a, "same seed, same latencies");
        assert_ne!(run(4).0, a);
    }

    #[test]
    fn block_sizes_match_paper_range() {
        let sizes = paper_block_sizes();
        assert_eq!(*sizes.first().unwrap(), 512);
        assert_eq!(*sizes.last().unwrap(), 32768);
        assert_eq!(kb_label(512), "0.5");
        assert_eq!(kb_label(32768), "32");
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(123.456), "123");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(1.234), "1.23");
    }

    #[test]
    fn table_right_aligns_columns() {
        let t = table("T", &["a", "bb"], &[vec!["123".into(), "4".into()]]);
        assert_eq!(t, "\n=== T ===\n    a  bb\n  ---  --\n  123   4\n");
    }
}
