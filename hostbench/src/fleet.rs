//! `fleet`: the scenario engine's 1000-VF datacenter mix
//! (`Scenario::datacenter_mix`: 850 steady, 100 bursty and 50 noisy
//! tenants, per-tenant p99 SLO rules) on one controller, replayed as one
//! endless open-loop tape cut into 5 ms slices of simulated time.
//! `fleet_250` is the same mix shrunk to 250 VFs, as the scale-out
//! harness shrinks it; the two together show how host cost per request
//! grows with VF count.
//!
//! Everything but the slicing comes from the engine's `ScenarioSpec`:
//! populations, traffic shape, telemetry window and capacity, disk kind.
//! The engine builds its system and tape in private, so this module
//! repeats that code; [`agrees_with_engine`] replays a shrunk copy of the
//! spec both ways and marks the run incorrect if their outcomes differ.

use std::time::Instant;

use nesc_core::CompletionStatus;
use nesc_hypervisor::{
    DiskId, OpenRequest, ScenarioSpec, System, SystemBuilder, TenantClass, TenantSpec,
};
use nesc_sim::selfcheck::fnv1a_word;
use nesc_sim::{BurstyArrivals, RunDigest, SimDuration, SimRng, SimTime, ZipfLike};
use nesc_storage::BlockOp;
use nesc_workloads::scenario::Scenario;

use crate::layers::{Layers, Monitor};
use crate::{Round, Workload};

/// Simulated time one round replays.
const SLICE: SimDuration = SimDuration::from_millis(5);

struct Tenant {
    spec: TenantSpec,
    disk: DiskId,
    arrivals: BurstyArrivals,
    pick: SimRng,
    zipf: ZipfLike,
    next_at: SimTime,
    /// Arrivals still to generate.
    left: u64,
}

/// A fleet of `VFS` tenant VFs.
pub struct Fleet<const VFS: u32> {
    sys: System,
    tenants: Vec<Tenant>,
    slice_end: SimTime,
}

/// The engine's datacenter mix, shrunk to `vfs` tenants population by
/// population, with `seed` as the master seed.
fn mix(vfs: u32, seed: u64) -> ScenarioSpec {
    let mut spec = Scenario::datacenter_mix().spec().clone().seed(seed);
    let total = spec.total_tenants();
    for p in &mut spec.tenants {
        p.count = (p.count * vfs / total).max(1);
    }
    spec
}

/// Builds and provisions the system as the scenario engine does, and
/// sets up each tenant's arrival process. With `endless`, tenants never
/// run out of arrivals; otherwise each makes its spec's `requests`.
fn build<const VFS: u32>(spec: &ScenarioSpec, layers: Layers, endless: bool) -> Fleet<VFS> {
    let flat: Vec<&TenantSpec> = spec
        .tenants
        .iter()
        .flat_map(|p| std::iter::repeat_n(p, p.count as usize))
        .collect();
    let image_blocks: u64 = flat.iter().map(|t| t.disk_bytes.div_ceil(1024)).sum();
    let monitor = Monitor {
        interval: spec.telemetry_interval,
        capacity: spec.telemetry_capacity,
        rules: flat
            .iter()
            .enumerate()
            .filter_map(|(t, s)| {
                s.slo_p99
                    .map(|b| format!("hv.vf{t}.p99_ns above {} for 2", b.as_nanos()))
            })
            .collect(),
        flight: spec.flight.unwrap_or_default(),
    };
    let builder = SystemBuilder::new()
        .capacity_blocks(image_blocks * 2 + 64 * 1024)
        .max_vfs((flat.len() + 2) as u16);
    let mut sys = layers.apply(builder, monitor).build();

    let mut disks = Vec::with_capacity(flat.len());
    for (t, s) in flat.iter().enumerate() {
        let p = sys.quick_disk(spec.disk_kind, &format!("tenant_{t:04}.img"), s.disk_bytes);
        if let Some(vf) = sys.disk_vf(p.disk) {
            sys.device_mut()
                .set_priority(vf, s.priority)
                .expect("a fresh VF is live");
        }
        disks.push(p.disk);
    }
    let base = sys.now();
    let mut master = SimRng::seed(spec.seed);
    let tenants = flat
        .into_iter()
        .zip(disks)
        .enumerate()
        .map(|(t, (spec, disk))| {
            let mut lane = master.fork(t as u64);
            let pick = lane.fork(1);
            let mut arrivals = match spec.class {
                TenantClass::Bursty => {
                    BurstyArrivals::bursty(lane.fork(2), spec.gap, spec.idle_gap, spec.mean_burst)
                }
                TenantClass::Steady | TenantClass::NoisyNeighbor => {
                    BurstyArrivals::steady(lane.fork(2), spec.gap)
                }
            };
            let zipf = ZipfLike::new(
                spec.disk_bytes / spec.req_bytes,
                spec.hot_permille,
                spec.weight_permille,
            );
            let next_at = base + arrivals.next_gap();
            Tenant {
                spec: spec.clone(),
                disk,
                arrivals,
                pick,
                zipf,
                next_at,
                left: if endless { u64::MAX } else { spec.requests },
            }
        })
        .collect();
    Fleet {
        sys,
        tenants,
        slice_end: base,
    }
}

impl<const VFS: u32> Fleet<VFS> {
    /// The arrivals before `end`, in the engine's (time, tenant) order,
    /// each with its tenant.
    fn tape(&mut self, end: SimTime) -> Vec<(OpenRequest, u32)> {
        let mut tape = Vec::new();
        for (i, t) in self.tenants.iter_mut().enumerate() {
            while t.left > 0 && t.next_at < end {
                let offset = t.zipf.sample(&mut t.pick) * t.spec.req_bytes;
                let op = if t.pick.range(0, 1000) < t.spec.write_permille {
                    BlockOp::Write
                } else {
                    BlockOp::Read
                };
                let req = OpenRequest {
                    disk: t.disk,
                    op,
                    offset,
                    bytes: t.spec.req_bytes,
                    at: t.next_at,
                };
                tape.push((req, i as u32));
                t.next_at += t.arrivals.next_gap();
                t.left -= 1;
            }
        }
        tape.sort_by_key(|(r, t)| (r.at, *t));
        tape
    }
}

/// Replays a copy of `spec` with a tenth of its tenants through the
/// scenario engine and through [`build`] and [`Fleet::tape`]; true if
/// the two runs' digests agree. The digest, folded as the engine folds
/// it, covers every completion's time, tenant, latency and status, and
/// the watchdog's anomaly count. The copy's p99 bound is 1 ns, so a rule
/// holds in every window its tenant issued a request in, and its windows
/// are 10 ms, near a steady tenant's gap, so such streaks have all
/// lengths and the anomaly count depends on every part of the rules'
/// text. A difference that changes no simulated outcome at this scale
/// (a priority, with queues this short) goes unseen.
fn agrees_with_engine(spec: &ScenarioSpec) -> bool {
    let mut small = spec
        .clone()
        .telemetry(SimDuration::from_millis(10), spec.telemetry_capacity);
    for p in &mut small.tenants {
        p.count = p.count.div_ceil(10);
        p.slo_p99 = p.slo_p99.map(|_| SimDuration::from_nanos(1));
    }
    let Ok(want) = Scenario::new(small.clone()).run() else {
        return false;
    };
    let mut f: Fleet<0> = build(&small, Layers::WATCHDOG, false);
    let tape = f.tape(SimTime::MAX);
    let arrivals: Vec<OpenRequest> = tape.iter().map(|(r, _)| *r).collect();
    let mut digest = RunDigest::new(4096);
    f.sys.run_open_loop(&arrivals, |i, done, latency, status| {
        let payload = fnv1a_word(u64::from(tape[i].1), latency.as_nanos());
        digest.record(done, "req", fnv1a_word(payload, status as u64));
    });
    f.sys.telemetry_finish();
    let anomalies = f.sys.telemetry().map_or(0, |t| t.anomalies().len() as u64);
    digest.section("slo_violations", anomalies);
    digest.section("jain", want.jain_permille);
    want.slo_violations > 0 && digest.final_hash() == want.digest
}

impl<const VFS: u32> Workload for Fleet<VFS> {
    /// The engine's: sampler plus per-tenant rules, no recorder.
    const BASE: Layers = Layers::WATCHDOG;

    fn setup(seed: u64, layers: Layers) -> Self {
        build(&mix(VFS, seed), layers, true)
    }

    fn check(seed: u64) -> bool {
        agrees_with_engine(&mix(VFS, seed))
    }

    fn round(&mut self) -> Round {
        self.slice_end += SLICE;
        let tape = self.tape(self.slice_end);
        let arrivals: Vec<OpenRequest> = tape.into_iter().map(|(r, _)| r).collect();

        let mut req_ns = Vec::with_capacity(arrivals.len());
        let mut failed = 0;
        let start = Instant::now();
        let mut prev = start;
        self.sys.run_open_loop(&arrivals, |_, _, latency, status| {
            let now = Instant::now();
            req_ns.push((now - prev).as_nanos() as u64);
            prev = now;
            if status != CompletionStatus::Ok || latency.is_zero() {
                failed += 1;
            }
        });
        let host_ns = start.elapsed().as_nanos() as u64;
        let completed = req_ns.len() as u64;
        let requests = arrivals.len() as u64;
        Round {
            requests,
            host_ns,
            req_ns,
            failed: failed + requests.saturating_sub(completed),
            correct: completed == requests,
        }
    }

    fn system(&mut self) -> &mut System {
        &mut self.sys
    }
}
