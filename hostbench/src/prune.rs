//! `prune_pressure`: the extent-tree pruning ablation
//! (`ablation_prune_pressure`) in the configuration the `forensics`
//! harness re-runs it with to trip the SLO watchdog.
//!
//! One VM reads 4 KiB at random 4 KiB-aligned offsets of a 256-block hot
//! set in a fragmented 8 MiB image (its blocks allocated interleaved
//! with a second image's, so its tree has prunable internal levels), and
//! before every fourth read the hypervisor prunes the mapping of a random
//! hot block (memory pressure, §IV-B). The next access to a pruned
//! subtree raises a miss interrupt and the hypervisor regenerates the
//! mapping. Span tracing, the telemetry sampler with the two miss-storm
//! rules, and a 16384-slot flight recorder are on, as in `forensics`.
//!
//! A round is the ablation's 256 reads on a fresh system. Set-up writes
//! tagged data over the hot set, so every read is checked against what
//! it should return.

use std::time::Instant;

use nesc_core::NescConfig;
use nesc_extent::Vlba;
use nesc_hypervisor::{DiskId, DiskKind, System, SystemBuilder};
use nesc_sim::{FlightConfig, SimDuration, SimRng};

use crate::layers::{Layers, Monitor};
use crate::{fill, Round, Workload};

const READS: u64 = 256;
const PRUNE_EVERY: u64 = 4;
/// Reads start at a block below this (the ablation's hot set).
const HOT: u64 = 252;
const READ_BYTES: usize = 4096;
const BLOCK: u64 = nesc_extent::BLOCK_SIZE;

pub struct Prune {
    layers: Layers,
    rng: SimRng,
    /// `None` only while `prepare` replaces it: the old system is freed
    /// before the new one is built, so the new one reuses its memory
    /// instead of faulting fresh pages in.
    sys: Option<System>,
    disk: DiskId,
    /// The tag each 4 KiB chunk of the hot set was written from.
    tags: Vec<u64>,
}

/// Builds the ablation's system with `layers` on and writes tagged data
/// over the hot set.
fn build(layers: Layers, rng: &mut SimRng) -> (System, DiskId, Vec<u64>) {
    let monitor = Monitor {
        interval: SimDuration::from_micros(100),
        capacity: 4096,
        rules: vec![
            "core.miss_interrupts above 0 for 3".to_string(),
            "hv.rewalk_p99_ns above 0 for 3 while core.miss_interrupts above 0".to_string(),
        ],
        flight: FlightConfig::default().capacity(16384),
    };
    let mut cfg = NescConfig::prototype();
    cfg.capacity_blocks = 256 * 1024;
    let mut sys = layers
        .apply(SystemBuilder::new().config(cfg), monitor)
        .build();
    let vm = sys.create_vm();
    let img = sys
        .create_image("hot.img", 8 << 20, false)
        .expect("room for the hot image");
    let other = sys
        .create_image("interleave.img", 8 << 20, false)
        .expect("room for the interleaved image");
    for b in 0..4096u64 {
        let fs = sys.host_fs_mut();
        fs.allocate_range(img, Vlba(b), 1).expect("free blocks");
        fs.allocate_range(other, Vlba(b), 1).expect("free blocks");
    }
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
    let chunk_blocks = READ_BYTES as u64 / BLOCK;
    let mut data = vec![0u8; READ_BYTES];
    let tags = (0..(HOT + chunk_blocks).div_ceil(chunk_blocks))
        .map(|c| {
            let tag = rng.range(0, u64::MAX);
            fill(tag, &mut data);
            sys.try_write(disk, c * READ_BYTES as u64, &data)
                .expect("the hot set is allocated");
            tag
        })
        .collect();
    (sys, disk, tags)
}

impl Workload for Prune {
    const BASE: Layers = Layers::ALL;

    fn setup(seed: u64, layers: Layers) -> Self {
        let mut rng = SimRng::seed(seed);
        let (sys, disk, tags) = build(layers, &mut rng);
        Prune {
            layers,
            rng,
            sys: Some(sys),
            disk,
            tags,
        }
    }

    /// Every round starts from a fresh system, as the ablation does.
    /// A long-lived system is no option either: under this load the
    /// simulator's memory grows by about 12 KiB per read (4.4 GB after
    /// 370k reads on one system, with every layer off).
    fn prepare(&mut self) {
        self.sys = None;
        let (sys, disk, tags) = build(self.layers, &mut self.rng);
        (self.sys, self.disk, self.tags) = (Some(sys), disk, tags);
    }

    fn round(&mut self) -> Round {
        let mut r = Round {
            requests: READS,
            ..Round::default()
        };
        let sys = self.sys.as_mut().expect("a system outside prepare");
        let misses_before = sys.device().stats().miss_interrupts;
        let (mut buf, mut want) = (vec![0u8; READ_BYTES], vec![0u8; READ_BYTES]);
        let mut prune_ns = 0;
        for i in 0..READS {
            if i % PRUNE_EVERY == 0 {
                let victim = Vlba(self.rng.range(0, HOT));
                let t = Instant::now();
                sys.prune_image_mapping(self.disk, victim);
                prune_ns += t.elapsed().as_nanos() as u64;
            }
            let chunk = self.rng.range(0, HOT) / 4;
            let t = Instant::now();
            let res = sys.try_read(self.disk, chunk * READ_BYTES as u64, &mut buf);
            r.req_ns.push(t.elapsed().as_nanos() as u64);
            fill(self.tags[chunk as usize], &mut want);
            r.failed += u64::from(!matches!(res, Ok(lat) if !lat.is_zero()) || buf != want);
        }
        // Idle past the open window and close it, as `forensics` does.
        let t = Instant::now();
        sys.think(SimDuration::from_micros(200));
        sys.telemetry_finish();
        r.host_ns = r.req_ns.iter().sum::<u64>() + prune_ns + t.elapsed().as_nanos() as u64;
        // The round must have stormed the miss path. The watchdog trips
        // in most rounds, not all (the misses do not always fill three
        // windows in a row); when it does with the recorder on, its
        // first anomaly must have left a forensic dump.
        let recording = sys.flight().with(|_| ()).is_some();
        let dumped = sys
            .telemetry()
            .is_none_or(|t| !recording || t.anomalies().is_empty() || t.forensic_dump().is_some());
        r.correct = sys.device().stats().miss_interrupts > misses_before && dumped;
        r
    }

    fn system(&mut self) -> &mut System {
        self.sys.as_mut().expect("a system outside prepare")
    }
}
