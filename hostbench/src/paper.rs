//! `paper`: the four I/O paths the paper's Figs. 9–10 compare — NeSC
//! direct assignment, virtio, full emulation, and the host's raw access —
//! on one system with the prototype's trampoline copy, as the figure
//! harnesses run them.
//!
//! A round issues synchronous reads and writes at the paper's block sizes
//! (512 B – 32 KiB) on random paths and aligned offsets (the Fig. 9 and 11
//! shape), then one pipelined stream per path at queue depth 8 (the
//! Fig. 10 shape). Images are preallocated, so translations hit and no
//! write takes the miss path. Every read is checked against a shadow of
//! what was written.
//!
//! The figure harnesses run these paths without telemetry, so the
//! end-to-end metrics do too. The per-layer ladder turns the layers on
//! with the settings `nesc_report` runs its dashboard on NeSC-direct
//! traffic with: a 50 µs window, 4096 windows per series, and one p99
//! rule on the first disk that healthy traffic never trips.

use std::time::Instant;

use nesc_hypervisor::{DiskId, DiskKind, System, SystemBuilder};
use nesc_sim::{FlightConfig, SimDuration, SimRng};
use nesc_storage::BlockOp;

use crate::layers::{Layers, Monitor};
use crate::{fill, Round, Workload};

/// Bytes of each disk the workload touches.
const REGION: u64 = 2 << 20;
/// The paper's block-size sweep.
const SIZES: [u64; 7] = [512, 1024, 2048, 4096, 8192, 16384, 32768];
const PATHS: [DiskKind; 4] = [
    DiskKind::NescDirect,
    DiskKind::Virtio,
    DiskKind::Emulated,
    DiskKind::HostRaw,
];
const SYNC_OPS: usize = 1024;
/// Shadow granularity: the smallest request size.
const SECTOR: u64 = 512;
const STREAM_REQS: u64 = 32;
const STREAM_QD: usize = 8;

pub struct Paper {
    sys: System,
    disks: Vec<DiskId>,
    /// Byte offset of each disk's region (the raw disk's sits at the top
    /// of the device, clear of the host filesystem).
    base: Vec<u64>,
    shadow: Vec<Shadow>,
    rng: SimRng,
}

/// What a disk region should read back. A write smaller than a device
/// block stores its whole covering block from the guest's buffer, so the
/// rest of that block is not known until it is written again.
#[derive(Clone)]
struct Shadow {
    bytes: Vec<u8>,
    known: Vec<bool>,
}

impl Shadow {
    fn new() -> Self {
        Shadow {
            bytes: vec![0; REGION as usize],
            known: vec![true; (REGION / SECTOR) as usize],
        }
    }

    fn write(&mut self, offset: u64, data: &[u8]) {
        let end = offset + data.len() as u64;
        self.bytes[offset as usize..end as usize].copy_from_slice(data);
        let block = nesc_storage::BLOCK_SIZE;
        let (lo, hi) = (offset / block * block, end.div_ceil(block) * block);
        for s in lo / SECTOR..hi / SECTOR {
            self.known[s as usize] = s >= offset / SECTOR && s < end / SECTOR;
        }
    }

    fn matches(&self, offset: u64, got: &[u8]) -> bool {
        got.chunks(SECTOR as usize).enumerate().all(|(i, chunk)| {
            let s = offset / SECTOR + i as u64;
            let at = (s * SECTOR) as usize;
            !self.known[s as usize] || *chunk == self.bytes[at..at + chunk.len()]
        })
    }
}

impl Workload for Paper {
    const BASE: Layers = Layers::BARE;

    fn setup(seed: u64, layers: Layers) -> Self {
        let monitor = Monitor {
            interval: SimDuration::from_micros(50),
            capacity: 4096,
            rules: vec!["hv.vf0.p99_ns above 2000000 for 3".to_string()],
            flight: FlightConfig::default(),
        };
        let mut sys = layers
            .apply(SystemBuilder::new().with_trampoline(), monitor)
            .build();
        let mut disks = Vec::new();
        let mut base = Vec::new();
        for (i, kind) in PATHS.into_iter().enumerate() {
            let disk = sys.quick_disk(kind, &format!("paper_{i}.img"), REGION).disk;
            let size = sys.disk_size_blocks(disk) * nesc_storage::BLOCK_SIZE;
            base.push(size - REGION);
            disks.push(disk);
        }
        Paper {
            sys,
            disks,
            base,
            shadow: vec![Shadow::new(); PATHS.len()],
            rng: SimRng::seed(seed),
        }
    }

    fn round(&mut self) -> Round {
        let mut r = Round {
            correct: true,
            ..Round::default()
        };
        let mut buf = vec![0u8; *SIZES.last().expect("sizes") as usize];
        for _ in 0..SYNC_OPS {
            let d = self.rng.range(0, PATHS.len() as u64) as usize;
            let size = SIZES[self.rng.range(0, SIZES.len() as u64) as usize];
            let offset = self.rng.range(0, REGION / size) * size;
            let write = self.rng.range(0, 2) == 0;
            let (disk, at) = (self.disks[d], self.base[d] + offset);
            let data = &mut buf[..size as usize];
            let ok = if write {
                fill(self.rng.range(0, u64::MAX), data);
                let t = Instant::now();
                let res = self.sys.try_write(disk, at, data);
                r.req_ns.push(t.elapsed().as_nanos() as u64);
                self.shadow[d].write(offset, data);
                matches!(res, Ok(lat) if !lat.is_zero())
            } else {
                let t = Instant::now();
                let res = self.sys.try_read(disk, at, data);
                r.req_ns.push(t.elapsed().as_nanos() as u64);
                matches!(res, Ok(lat) if !lat.is_zero()) && self.shadow[d].matches(offset, data)
            };
            r.failed += u64::from(!ok);
        }
        r.requests = SYNC_OPS as u64;
        r.host_ns = r.req_ns.iter().sum();

        for d in 0..PATHS.len() {
            let size = SIZES[self.rng.range(0, SIZES.len() as u64) as usize];
            let total = STREAM_REQS * size;
            let offset = self.rng.range(0, (REGION - total) / size + 1) * size;
            let op = if self.rng.range(0, 2) == 0 {
                BlockOp::Write
            } else {
                BlockOp::Read
            };
            let t = Instant::now();
            let res = self.sys.stream(
                self.disks[d],
                op,
                self.base[d] + offset,
                total,
                size,
                STREAM_QD,
            );
            r.host_ns += t.elapsed().as_nanos() as u64;
            r.requests += STREAM_REQS;
            if res.ops != STREAM_REQS || res.elapsed.is_zero() {
                r.failed += STREAM_REQS;
            }
            if op == BlockOp::Write {
                // Streams write a fixed 0xA5 pattern.
                self.shadow[d].write(offset, &vec![0xA5; total as usize]);
            }
        }
        r
    }

    fn system(&mut self) -> &mut System {
        &mut self.sys
    }
}
