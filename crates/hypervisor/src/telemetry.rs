//! System-level telemetry: the perfmon sampler wired across every layer.
//!
//! [`Telemetry`] owns a [`Sampler`] plus an [`SloWatchdog`] and knows how
//! to feed them from the assembled stack:
//!
//! * **core** — BTLB lookup/hit counters and windowed hit ratio, walk-unit
//!   occupancy, miss-interrupt rate, per-function command-ring depth;
//! * **storage / pcie** — media and link busy time as parts-per-million
//!   utilization per window;
//! * **hypervisor** — per-VF windowed request/byte counters and p50/p99
//!   latency (from the window's own completions of that disk, sorted),
//!   plus the miss handler's rewalk service rate and p99.
//!
//! Everything is driven by *simulated* time, and sampling is *deferred*
//! off the hot path. Telemetry keeps no per-request state: each finished
//! request joins the shared [`Probe`]'s window list (one fixed-size
//! [`Completion`](nesc_sim::Completion) per request, from its `Finished`
//! report) and the miss handler's `Rewalk` reports feed the probe's
//! rewalk tally; the completion path then makes a single compare against
//! the sampler's next window end ([`Telemetry::due`]). Only when a
//! completion (or idle think time) crosses a window boundary does
//! [`Telemetry::poll`] run: for every window whose end has passed it has
//! the probe split off that window's completions, folds them into the
//! per-disk raws, samples the fixed series and the disks and rings the
//! window touched, and runs the watchdog. A close costs what the window
//! touched, not what is attached: an untouched disk's series all read 0,
//! which is what the sampler records for a series left unsampled, and the
//! watchdog only evaluates the rules on series that are non-zero.
//! The split is exact — a completion at time `t` belongs to the window
//! ending at `W` iff `t < W`, precisely the window an eager
//! record-after-poll would have landed it in — so the exported series are
//! byte-identical to inline polling. No wall clock, no background thread
//! — the same seed produces byte-identical time series.
//!
//! # Example
//!
//! ```
//! use nesc_hypervisor::prelude::*;
//!
//! let mut sys = SystemBuilder::new()
//!     .telemetry(TelemetryConfig::windowed(SimDuration::from_micros(50)))
//!     .build();
//! let disk = sys.quick_disk(DiskKind::NescDirect, "t.img", 1 << 20).disk;
//! for _ in 0..32 {
//!     sys.write(disk, 0, &[7u8; 4096]);
//!     sys.think(SimDuration::from_micros(20));
//! }
//! sys.telemetry_finish();
//! let sampler = sys.telemetry().unwrap().sampler();
//! assert!(sampler.closed_windows() > 0);
//! assert!(sampler.series_by_name("hv.vf0.requests").is_some());
//! ```

use nesc_core::{FuncId, NescDevice};
use nesc_sim::perfmon::{series_json, utilization_ppm, SeriesKind};
use nesc_sim::{AnomalyEvent, Histogram, Sampler, SeriesId, SimDuration, SloRule, SloWatchdog};
use nesc_sim::{
    FlightConfig, FlightHandle, FlightRecorder, FlightSnapshot, Obs, Probe, SimTime, Tracer,
};

use crate::system::DiskId;

/// Configuration for the telemetry subsystem: sampling interval, ring
/// capacity per series, and the SLO watchdog rules.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Window length; every series holds one value per window.
    pub interval: SimDuration,
    /// Retained windows per series (older samples are evicted).
    pub capacity: usize,
    /// Declarative SLO rules evaluated at every window close.
    pub rules: Vec<SloRule>,
    /// Flight-recorder configuration; `None` (the default) leaves the
    /// recorder disabled and the hot path untouched.
    pub flight: Option<FlightConfig>,
}

impl TelemetryConfig {
    /// A config with the given window length, 256 retained windows, and
    /// no watchdog rules. A zero interval (a contract violation: windows
    /// must advance simulated time) is widened to one nanosecond.
    pub fn windowed(interval: SimDuration) -> Self {
        debug_assert!(!interval.is_zero(), "telemetry interval must be non-zero");
        let interval = interval.max(SimDuration::from_nanos(1));
        TelemetryConfig {
            interval,
            capacity: 256,
            rules: Vec::new(),
            flight: None,
        }
    }

    /// Sets the per-series ring capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Adds a watchdog rule.
    pub fn rule(mut self, rule: SloRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Parses and adds a watchdog rule from the grammar
    /// `<series> above|below <N> for <K> [while <series> above|below <M>]`.
    ///
    /// # Panics
    ///
    /// Panics on a grammar error — rule texts are harness constants.
    // nesc-lint::allow(P1): builder-time parse of compile-time constant
    // rule strings; runtime-supplied rules go through SloRule::parse and
    // get the typed RuleParseError.
    pub fn rule_text(self, text: &str) -> Self {
        self.rule(SloRule::parse(text).expect("valid SLO rule"))
    }

    /// Enables the flight recorder: queue/scheduler/BTLB/media/link
    /// events stream into its ring, worst-K exemplars are retained per
    /// window, and the first watchdog anomaly snapshots a forensic dump.
    pub fn flight(mut self, cfg: FlightConfig) -> Self {
        self.flight = Some(cfg);
        self
    }
}

/// Per-disk series: windowed request/byte counters and latency
/// percentiles.
#[derive(Debug)]
struct VfSeries {
    requests: SeriesId,
    bytes: SeriesId,
    p50: SeriesId,
    p99: SeriesId,
    /// Cumulative raws feeding the counter series.
    raw_requests: u64,
    raw_bytes: u64,
}

/// The assembled telemetry subsystem (see the module docs).
#[derive(Debug)]
pub struct Telemetry {
    sampler: Sampler,
    watchdog: SloWatchdog,
    // Core probes.
    s_btlb_lookups: SeriesId,
    s_btlb_hits: SeriesId,
    s_btlb_hit_ppm: SeriesId,
    s_walk_busy_ppm: SeriesId,
    s_miss_irqs: SeriesId,
    // Storage / PCIe probes.
    s_media_util: SeriesId,
    s_link_up: SeriesId,
    s_link_down: SeriesId,
    // Hypervisor probes.
    s_rewalks: SeriesId,
    s_rewalk_p99: SeriesId,
    /// Per-disk accounting, indexed by dense disk index (attach order).
    /// `None` marks an index whose disk was never registered.
    vfs: Vec<Option<VfSeries>>,
    /// Command-ring depth gauges, indexed by VF function index.
    rings: Vec<Option<SeriesId>>,
    /// The closing window's `(disk, latency_ns)` per completion, sorted
    /// at the close so each disk's latencies form one ascending run
    /// (capacity retained).
    done: Vec<(u32, u64)>,
    /// One disk's run of latencies, copied out of `done` for the
    /// percentile reads (capacity retained).
    latencies: Vec<u64>,
    /// Functions whose ring may be non-empty at the next close: those
    /// sampled non-zero at the last one. A close adds the functions a
    /// request was queued on since.
    funcs: Vec<u32>,
    // Previous cumulative busy times for windowed-utilization gauges.
    prev_walk_busy: SimDuration,
    prev_media_busy: SimDuration,
    prev_link_up: SimDuration,
    prev_link_down: SimDuration,
    /// The probe anomalies report through and window closes read. It owns
    /// the flight recorder (disabled unless configured) and the tally of
    /// finished requests and rewalks; the system shares one probe between
    /// this subsystem, the device and its own I/O paths.
    probe: Probe,
    /// The forensic dump captured when the watchdog first fired, if any.
    forensic: Option<ForensicSnapshot>,
}

/// The forensic dump: the state of every observability channel when the
/// watchdog first fired. It is a typed copy — the triggering anomaly, the
/// series as of the breach, and the flight ring and exemplars — rendered
/// only when a reader asks, by [`to_json`](Self::to_json).
#[derive(Debug, Clone)]
pub struct ForensicSnapshot {
    /// The anomaly that triggered the capture.
    pub anomaly: AnomalyEvent,
    /// Every series as of the breach ([`series_json`]).
    pub series: serde_json::Value,
    /// The flight ring and exemplars as of the breach.
    pub flight: FlightSnapshot,
}

impl ForensicSnapshot {
    /// Renders the deterministic dump: `{anomaly, series, flight}`.
    pub fn to_json(&self) -> serde_json::Value {
        let a = &self.anomaly;
        serde_json::json!({
            "anomaly": {
                "rule": a.rule.clone(),
                "rule_index": a.rule_index,
                "text": a.text.clone(),
                "series": a.series.clone(),
                "window": a.window,
                "at_ns": a.at.as_nanos(),
                "value": a.value,
                "consecutive": a.consecutive,
            },
            "series": self.series.clone(),
            "flight": self.flight.to_json(),
        })
    }
}

/// Growth of a monotonic busy-time counter since the previous window.
fn delta(cur: SimDuration, prev: SimDuration) -> SimDuration {
    SimDuration::from_nanos(cur.as_nanos().saturating_sub(prev.as_nanos()))
}

impl Telemetry {
    /// Builds the subsystem and registers the fixed (non-per-disk)
    /// series. Per-disk series are added by
    /// [`register_disk`](Self::register_disk) as disks attach.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let mut sampler = Sampler::new(cfg.interval, cfg.capacity);
        let mut watchdog = SloWatchdog::new();
        let flight = cfg.flight.map(FlightHandle::enabled).unwrap_or_default();
        for rule in cfg.rules {
            watchdog.add_rule(rule);
        }
        let ops = SeriesKind::Counter;
        let gauge = SeriesKind::Gauge;
        Telemetry {
            s_btlb_lookups: sampler.register("core.btlb_lookups", "ops", ops),
            s_btlb_hits: sampler.register("core.btlb_hits", "ops", ops),
            s_btlb_hit_ppm: sampler.register("core.btlb_hit_ppm", "ppm", gauge),
            s_walk_busy_ppm: sampler.register("core.walk_busy_ppm", "ppm", gauge),
            s_miss_irqs: sampler.register("core.miss_interrupts", "ops", ops),
            s_media_util: sampler.register("storage.media_util_ppm", "ppm", gauge),
            s_link_up: sampler.register("pcie.link_up_util_ppm", "ppm", gauge),
            s_link_down: sampler.register("pcie.link_down_util_ppm", "ppm", gauge),
            s_rewalks: sampler.register("hv.rewalks", "ops", ops),
            s_rewalk_p99: sampler.register("hv.rewalk_p99_ns", "ns", gauge),
            sampler,
            watchdog,
            vfs: Vec::new(),
            rings: Vec::new(),
            done: Vec::new(),
            latencies: Vec::new(),
            funcs: Vec::new(),
            prev_walk_busy: SimDuration::ZERO,
            prev_media_busy: SimDuration::ZERO,
            prev_link_up: SimDuration::ZERO,
            prev_link_down: SimDuration::ZERO,
            probe: Probe::new(Tracer::disabled(), flight),
            forensic: None,
        }
    }

    /// Registers the per-disk series (`hv.vf<d>.*`; and
    /// `core.ring_depth.f<f>` when the disk has a VF — once per VF slot,
    /// so a disk attached into a slot a detach freed reuses the gauge
    /// already there). A disk attached
    /// after windows have already closed starts sampling at the current
    /// window. Its ring must be empty now (a fresh VF's is, and the system
    /// drains every ring before an I/O call returns): from here on, only
    /// a `Queued` report makes the ring's gauge due.
    pub fn register_disk(&mut self, disk: DiskId, func: Option<FuncId>) {
        let d = disk.0;
        let vf = VfSeries {
            requests: self.sampler.register(
                &format!("hv.vf{d}.requests"),
                "ops",
                SeriesKind::Counter,
            ),
            bytes: self
                .sampler
                .register(&format!("hv.vf{d}.bytes"), "bytes", SeriesKind::Counter),
            p50: self
                .sampler
                .register(&format!("hv.vf{d}.p50_ns"), "ns", SeriesKind::Gauge),
            p99: self
                .sampler
                .register(&format!("hv.vf{d}.p99_ns"), "ns", SeriesKind::Gauge),
            raw_requests: 0,
            raw_bytes: 0,
        };
        if self.vfs.len() <= d {
            self.vfs.resize_with(d + 1, || None);
        }
        self.vfs[d] = Some(vf);
        if let Some(FuncId(f)) = func {
            let name = format!("core.ring_depth.f{f}");
            let f = usize::from(f);
            if self.rings.len() <= f {
                self.rings.resize(f + 1, None);
            }
            let sampler = &mut self.sampler;
            self.rings[f]
                .get_or_insert_with(|| sampler.register(&name, "entries", SeriesKind::Gauge));
        }
    }

    /// Whether any telemetry window ends at or before `now` — the hot
    /// path's single branch deciding if [`poll`](Self::poll) must run.
    // nesc-lint: hot
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.sampler.next_close()
    }

    /// Starts sampling at `now`: the device's and the probe's cumulative
    /// values so far become the baseline later windows report deltas
    /// from, and every window ending by `now` closes empty. The probe must
    /// be the shared one, its window list just opened.
    pub fn start_at(&mut self, now: SimTime, dev: &NescDevice) {
        let stats = dev.stats();
        let counters = [
            (self.s_btlb_lookups, stats.btlb_lookups),
            (self.s_btlb_hits, stats.btlb_hits),
            (self.s_miss_irqs, stats.miss_interrupts),
            (self.s_rewalks, self.probe.rewalks()),
        ];
        for (id, raw) in counters {
            self.sampler.rebase(id, raw);
        }
        self.prev_walk_busy = dev.walk_busy_time();
        self.prev_media_busy = dev.media_busy_time();
        (self.prev_link_up, self.prev_link_down) = dev.link_busy_time();
        self.poll(now, dev);
    }

    /// Closes every window whose end time has passed, sampling the fixed
    /// series and the disks and rings the window touched, and running the
    /// watchdog. Busy-time probes are read from the device; an idle
    /// stretch closes several windows in one call (counters record zeros
    /// after the first).
    ///
    /// A window touches a disk with a completion in it, and a ring that
    /// was pushed to since the previous close or was sampled non-empty at
    /// it: a ring only deepens on a push. Every other per-disk series
    /// reads 0 (its counter's raw value unchanged, no latency to rank),
    /// which the sampler records for an unsampled series.
    pub fn poll(&mut self, now: SimTime, dev: &NescDevice) {
        if !self.due(now) {
            return;
        }
        while let Some(end) = self.sampler.due(now) {
            let window = self.sampler.closed_windows().saturating_sub(1);
            let (vfs, done, funcs) = (&mut self.vfs, &mut self.done, &mut self.funcs);
            let mut rewalk_p99 = 0;
            done.clear();
            self.probe
                .close_window(end.as_nanos(), window, |completions, queued, rewalk_ns| {
                    for c in completions {
                        if let Some(Some(vf)) = vfs.get_mut(c.disk as usize) {
                            vf.raw_requests += 1;
                            vf.raw_bytes += c.bytes;
                            done.push((c.disk, c.latency_ns));
                        }
                    }
                    funcs.extend_from_slice(queued);
                    rewalk_p99 = rewalk_ns.percentile(99.0);
                });
            let interval = self.sampler.interval();
            let stats = dev.stats();
            // The hit ratio over the window, from the two deltas just
            // committed.
            let dl = self.sampler.sample(self.s_btlb_lookups, stats.btlb_lookups);
            let dh = self.sampler.sample(self.s_btlb_hits, stats.btlb_hits);
            let hit_ppm = (dh * 1_000_000).checked_div(dl).unwrap_or(0);
            self.sampler.sample(self.s_btlb_hit_ppm, hit_ppm);
            self.sampler.sample(self.s_miss_irqs, stats.miss_interrupts);

            // Busy-time deltas over the window, normalized to ppm. Work is
            // attributed to the window in which it was *accepted* (service
            // units book busy time at serve time), so a burst can exceed
            // the window and the clamp in `utilization_ppm` applies.
            let walk = dev.walk_busy_time();
            let walk_span = interval * dev.walk_slot_count() as u64;
            self.sampler.sample(
                self.s_walk_busy_ppm,
                utilization_ppm(delta(walk, self.prev_walk_busy), walk_span),
            );
            self.prev_walk_busy = walk;
            let media = dev.media_busy_time();
            self.sampler.sample(
                self.s_media_util,
                utilization_ppm(delta(media, self.prev_media_busy), interval),
            );
            self.prev_media_busy = media;
            let (up, down) = dev.link_busy_time();
            self.sampler.sample(
                self.s_link_up,
                utilization_ppm(delta(up, self.prev_link_up), interval),
            );
            self.prev_link_up = up;
            self.sampler.sample(
                self.s_link_down,
                utilization_ppm(delta(down, self.prev_link_down), interval),
            );
            self.prev_link_down = down;

            self.sampler.sample(self.s_rewalks, self.probe.rewalks());
            self.sampler.sample(self.s_rewalk_p99, rewalk_p99);

            // Each disk's completions form one run, its latencies ascending:
            // the percentiles of a histogram of exactly those samples.
            self.done.sort_unstable();
            for run in self.done.chunk_by(|a, b| a.0 == b.0) {
                let Some(Some(vf)) = self.vfs.get(run[0].0 as usize) else {
                    continue;
                };
                self.sampler.sample(vf.requests, vf.raw_requests);
                self.sampler.sample(vf.bytes, vf.raw_bytes);
                self.latencies.clear();
                self.latencies.extend(run.iter().map(|&(_, ns)| ns));
                let pct = |p| Histogram::percentile_of_sorted(&self.latencies, p);
                self.sampler.sample(vf.p50, pct(50.0));
                self.sampler.sample(vf.p99, pct(99.0));
            }
            self.funcs.sort_unstable();
            // `dedup_by_key`, not `dedup`: nesc-lint's call graph would
            // resolve the latter to `Filesystem::dedup`.
            self.funcs.dedup_by_key(|f| *f);
            self.funcs.retain(|&f| {
                let ring = self.rings.get(f as usize).copied().flatten();
                let Some((id, func)) = ring.zip(u16::try_from(f).ok()) else {
                    return false;
                };
                let depth = dev.ring_depth(FuncId(func)) as u64;
                self.sampler.sample(id, depth);
                depth > 0
            });
            let fired = self.watchdog.anomalies().len();
            self.watchdog.evaluate(&self.sampler);
            for a in self.watchdog.anomalies().get(fired..).unwrap_or_default() {
                self.probe.report(Obs::Anomaly(a));
            }
            // The first anomaly snapshots the forensic dump — after the
            // window's exemplar fold, so the dump holds the breaching
            // window's worst requests.
            if self.forensic.is_none() {
                if let Some(anomaly) = self.watchdog.anomalies().get(fired) {
                    let flight = self.probe.flight().with(FlightRecorder::snapshot);
                    self.forensic = flight.map(|flight| ForensicSnapshot {
                        anomaly: anomaly.clone(),
                        series: series_json(&self.sampler),
                        flight,
                    });
                }
            }
        }
    }

    /// The sampler (series, windows, exporters).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// The watchdog (rules and recorded anomalies).
    pub fn watchdog(&self) -> &SloWatchdog {
        &self.watchdog
    }

    /// All anomalies recorded so far, in emission order.
    pub fn anomalies(&self) -> &[AnomalyEvent] {
        self.watchdog.anomalies()
    }

    /// The flight-recorder handle (disabled unless configured).
    pub fn flight(&self) -> &FlightHandle {
        self.probe.flight()
    }

    /// Installs the probe the system shares with the device; it must
    /// fold into this subsystem's [`flight`](Self::flight) recorder and
    /// keep the window list ([`Probe::open_windows`]).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The forensic dump captured when the watchdog first fired, if any.
    pub fn forensic_dump(&self) -> Option<&ForensicSnapshot> {
        self.forensic.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use nesc_sim::{perfmon, Via};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn run_workload(mut sys: System) -> System {
        let a = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        let b = sys.quick_disk(DiskKind::Virtio, "b.img", 1 << 20).disk;
        let mut out = [0u8; 2048];
        for i in 0..24u64 {
            sys.write(a, (i % 8) * 4096, &[i as u8; 4096]);
            sys.read(b, 0, &mut out);
            sys.think(SimDuration::from_micros(5));
        }
        // Idle past the open window so the last observations are committed
        // before the partial window is dropped.
        sys.think(SimDuration::from_micros(50));
        sys.telemetry_finish();
        sys
    }

    fn telemetry_system() -> System {
        SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .telemetry(TelemetryConfig::windowed(SimDuration::from_micros(25)).capacity(4096))
            .build()
    }

    #[test]
    fn probes_cover_every_layer() {
        let sys = run_workload(telemetry_system());
        let sampler = sys.telemetry().unwrap().sampler();
        assert!(sampler.closed_windows() > 2, "workload spans windows");
        for name in [
            "core.btlb_lookups",
            "core.btlb_hits",
            "core.btlb_hit_ppm",
            "core.walk_busy_ppm",
            "core.miss_interrupts",
            "core.ring_depth.f1",
            "storage.media_util_ppm",
            "pcie.link_up_util_ppm",
            "pcie.link_down_util_ppm",
            "hv.vf0.requests",
            "hv.vf0.bytes",
            "hv.vf0.p50_ns",
            "hv.vf0.p99_ns",
            "hv.vf1.requests",
            "hv.rewalks",
            "hv.rewalk_p99_ns",
        ] {
            let s = sampler.series_by_name(name).unwrap_or_else(|| {
                panic!("series {name} missing");
            });
            assert!(!s.is_empty(), "series {name} never sampled");
        }
        // Per-VF counters account for the whole workload: 24 writes of
        // 4 KiB on disk 0, 24 reads of 2 KiB on disk 1.
        let total = |name: &str| {
            sampler
                .series_by_name(name)
                .unwrap()
                .samples()
                .map(|(_, v)| v)
                .sum::<u64>()
        };
        assert_eq!(total("hv.vf0.requests"), 24);
        assert_eq!(total("hv.vf0.bytes"), 24 * 4096);
        assert_eq!(total("hv.vf1.requests"), 24);
        // The direct path exercised the BTLB; hits were recorded.
        assert!(total("core.btlb_lookups") > 0);
        assert_eq!(
            total("core.btlb_lookups"),
            sys.device().stats().btlb_lookups
        );
    }

    #[test]
    fn telemetry_is_deterministic_across_runs() {
        let a = run_workload(telemetry_system());
        let b = run_workload(telemetry_system());
        let (sa, sb) = (
            a.telemetry().unwrap().sampler(),
            b.telemetry().unwrap().sampler(),
        );
        assert_eq!(perfmon::digest_hash(sa), perfmon::digest_hash(sb));
        assert_eq!(perfmon::series_json(sa), perfmon::series_json(sb));
    }

    #[test]
    fn telemetry_does_not_perturb_timing() {
        let mut plain = SystemBuilder::new().capacity_blocks(64 * 1024).build();
        let mut instr = telemetry_system();
        let dp = plain
            .quick_disk(DiskKind::NescDirect, "a.img", 1 << 20)
            .disk;
        let di = instr
            .quick_disk(DiskKind::NescDirect, "a.img", 1 << 20)
            .disk;
        for i in 0..16u64 {
            let lp = plain.write(dp, i * 4096, &[3u8; 4096]);
            let li = instr.write(di, i * 4096, &[3u8; 4096]);
            assert_eq!(lp, li, "telemetry must be timing-invisible");
        }
    }

    #[test]
    fn watchdog_rule_fires_through_the_system() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_micros(25))
            .rule_text("hv.vf0.requests above 0 for 3");
        let mut sys = SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .telemetry(cfg)
            .build();
        let d = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        for i in 0..40u64 {
            sys.write(d, (i % 16) * 4096, &[1u8; 4096]);
            sys.think(SimDuration::from_micros(10));
        }
        sys.telemetry_finish();
        let anomalies = sys.telemetry().unwrap().anomalies();
        assert!(
            !anomalies.is_empty(),
            "sustained traffic must trip the rule"
        );
        assert_eq!(anomalies[0].consecutive, 3);
        assert_eq!(anomalies[0].series, "hv.vf0.requests");
    }

    #[test]
    fn flight_recorder_captures_events_exemplars_and_a_dump() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_micros(25))
            .rule_text("hv.vf0.requests above 0 for 3")
            .flight(FlightConfig::default());
        let mut sys = SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .tracing(true)
            .telemetry(cfg)
            .build();
        let d = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        for i in 0..40u64 {
            sys.write(d, (i % 16) * 4096, &[1u8; 4096]);
            sys.think(SimDuration::from_micros(10));
        }
        sys.telemetry_finish();
        let tel = sys.telemetry().unwrap();
        assert!(!tel.anomalies().is_empty(), "rule must fire");
        let fl = tel.flight();
        assert!(fl.is_enabled());
        assert!(fl.with(|r| r.total()).unwrap() > 0, "ring recorded events");
        let exemplars_with_spans = fl
            .with(|r| r.exemplars().iter().filter(|e| !e.spans.is_empty()).count())
            .unwrap();
        assert!(
            exemplars_with_spans > 0,
            "tracing is on, so exemplars keep span trees"
        );
        let dump = tel.forensic_dump().expect("first anomaly captured a dump");
        let dump = dump.to_json();
        for key in ["anomaly", "series", "flight"] {
            assert!(dump.get(key).is_some(), "dump missing {key}");
        }
    }

    #[test]
    fn the_forensic_dump_is_a_copy_of_the_breach() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_micros(25))
            .rule_text("hv.vf0.requests above 0 for 3")
            .flight(FlightConfig::default().capacity(64).exemplar_windows(2));
        let mut sys = SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .tracing(true)
            .telemetry(cfg)
            .build();
        let d = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        fn tel(sys: &System) -> &Telemetry {
            sys.telemetry().expect("telemetry enabled")
        }
        let total = |sys: &System| tel(sys).flight().with(|r| r.total()).expect("enabled");
        let mut breach = None;
        for i in 0..400u64 {
            sys.write(d, (i % 16) * 4096, &[1u8; 4096]);
            sys.think(SimDuration::from_micros(10));
            let Some(dump) = tel(&sys).forensic_dump() else {
                continue;
            };
            let (rendered, at_total, window) = breach.get_or_insert_with(|| {
                let text = serde_json::to_string(&dump.to_json()).expect("render");
                (text, dump.flight.total, dump.anomaly.window)
            });
            // Done once the ring has wrapped past every breach-time event
            // and the breach windows' exemplars are evicted.
            let wrapped = total(&sys) > *at_total + 64;
            let evicted = tel(&sys)
                .flight()
                .with(|r| r.exemplars().iter().all(|x| x.window > *window))
                .expect("enabled");
            if wrapped && evicted {
                let again = serde_json::to_string(&dump.to_json()).expect("render");
                assert_eq!(&again, rendered, "the dump moved with the live recorder");
                assert_eq!(dump.flight.total, *at_total, "the breach-time count");
                return;
            }
        }
        panic!("the run must trip the rule, wrap the ring and evict the exemplars");
    }

    #[test]
    fn flight_recorder_does_not_perturb_timing() {
        let mut plain = telemetry_system();
        let mut instr = SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .telemetry(
                TelemetryConfig::windowed(SimDuration::from_micros(25))
                    .capacity(4096)
                    .flight(FlightConfig::default()),
            )
            .build();
        let dp = plain
            .quick_disk(DiskKind::NescDirect, "a.img", 1 << 20)
            .disk;
        let di = instr
            .quick_disk(DiskKind::NescDirect, "a.img", 1 << 20)
            .disk;
        for i in 0..16u64 {
            let lp = plain.write(dp, i * 4096, &[3u8; 4096]);
            let li = instr.write(di, i * 4096, &[3u8; 4096]);
            assert_eq!(lp, li, "the recorder must be timing-invisible");
        }
    }

    #[test]
    fn completions_land_in_the_window_of_their_own_time() {
        // Windows of 100 ns, a flight recorder keeping the worst two.
        let interval = SimDuration::from_nanos(100);
        let mut tel =
            Telemetry::new(TelemetryConfig::windowed(interval).flight(FlightConfig::default()));
        tel.register_disk(DiskId(0), None);
        let probe = Probe::new(Tracer::disabled(), tel.flight().clone());
        probe.open_windows();
        tel.set_probe(probe.clone());
        let t = SimTime::from_nanos;
        let finish = |seq, issued, done| {
            probe.report(Obs::Issued(Via::Direct, 0, seq, 512, false, t(issued)));
            probe.report(Obs::Finished(seq, false, t(done)));
        };
        finish(1, 10, 100); // exactly at the first window's end: window 1
        finish(2, 20, 150);
        finish(3, 40, 250); // finishes after the later-issued request 4
        finish(4, 50, 60);
        let sys = SystemBuilder::new().capacity_blocks(64 * 1024).build();
        tel.poll(t(100), sys.device());
        tel.poll(t(300), sys.device());
        let requests = tel.sampler().series_by_name("hv.vf0.requests").unwrap();
        let per_window: Vec<u64> = requests.samples().map(|(_, v)| v).collect();
        assert_eq!(per_window, vec![1, 2, 1]);
        let exemplars = tel.flight().with(|r| {
            let kept = r.exemplars();
            let kept = kept.iter().map(|x| (x.window, x.seq, x.t_ns));
            kept.collect::<Vec<_>>()
        });
        let want = vec![(0, 4, 60), (1, 2, 150), (1, 1, 100), (2, 3, 250)];
        assert_eq!(exemplars, Some(want), "ranked by latency within a window");
    }

    /// `fleet`'s 1000 VF disks register 5 series each beside the 10
    /// device-wide ones; a lookup by name finds every one of them.
    #[test]
    fn every_series_of_a_thousand_vf_disks_is_found_by_name() {
        let mut tel = Telemetry::new(TelemetryConfig::windowed(SimDuration::from_micros(200)));
        for d in 0..1000 {
            tel.register_disk(DiskId(d), Some(FuncId(d as u16 + 1)));
        }
        let sampler = tel.sampler();
        assert_eq!(sampler.series().count(), 10 + 5 * 1000);
        for s in sampler.series() {
            let found = sampler.series_by_name(s.name());
            assert_eq!(
                found.map(|f| (f.name(), f.unit())),
                Some((s.name(), s.unit()))
            );
        }
        assert!(sampler.series_by_name("hv.vf1000.requests").is_none());
        assert!(sampler.series_by_name("core.ring_depth.f0").is_none());
    }

    #[test]
    fn due_is_the_samplers_next_close() {
        let t = SimTime::from_nanos;
        let mut tel = Telemetry::new(TelemetryConfig::windowed(SimDuration::from_nanos(100)));
        let sys = SystemBuilder::new().capacity_blocks(64 * 1024).build();
        assert!(!tel.due(t(99)));
        assert!(tel.due(t(100)), "window 0 ends at 100 ns");
        // Starting at 250 ns closes windows 0 and 1; window 2 is next.
        tel.start_at(t(250), sys.device());
        assert_eq!(tel.sampler().closed_windows(), 2);
        assert_eq!(tel.sampler().next_close(), t(300));
        assert!(!tel.due(t(299)));
        assert!(tel.due(t(300)));
        tel.poll(t(420), sys.device());
        assert_eq!(tel.sampler().next_close(), t(500));
        assert!(!tel.due(t(499)));
        assert!(tel.due(t(500)));
    }

    #[test]
    fn start_at_closes_the_past_windows_empty() {
        // A device with history: lookups, hits, busy walk/media/link time.
        let mut sys = SystemBuilder::new().capacity_blocks(64 * 1024).build();
        let a = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        for i in 0..16u64 {
            sys.write(a, i * 4096, &[i as u8; 4096]);
        }
        assert!(sys.device().stats().btlb_lookups > 0);
        let interval = SimDuration::from_micros(5);
        let mut tel = Telemetry::new(TelemetryConfig::windowed(interval));
        let now = sys.now();
        tel.start_at(now, sys.device());
        let past = now.as_nanos() / interval.as_nanos();
        assert!(past > 1, "the history spans several windows");
        // An idle stretch after the start adds nothing either.
        tel.poll(now + interval * 3, sys.device());
        let sampler = tel.sampler();
        assert_eq!(sampler.closed_windows(), past + 3);
        for s in sampler.series() {
            let booked: Vec<_> = s.samples().filter(|&(_, v)| v != 0).collect();
            assert!(booked.is_empty(), "{} booked {booked:?}", s.name());
        }
    }

    #[test]
    fn late_attach_registers_series() {
        let mut sys = telemetry_system();
        let a = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        for _ in 0..8 {
            sys.write(a, 0, &[1u8; 1024]);
            sys.think(SimDuration::from_micros(30));
        }
        // Attach a second disk after several windows have closed.
        let b = sys.quick_disk(DiskKind::NescDirect, "b.img", 1 << 20).disk;
        sys.write(b, 0, &[2u8; 1024]);
        sys.think(SimDuration::from_micros(60));
        sys.telemetry_finish();
        let sampler = sys.telemetry().unwrap().sampler();
        let s = sampler.series_by_name("hv.vf1.requests").unwrap();
        assert!(s.first_window() > 0, "late series starts late");
        assert_eq!(s.samples().map(|(_, v)| v).sum::<u64>(), 1);
        let _ = (a, b);
    }

    #[test]
    fn a_window_close_costs_what_the_window_touched() {
        // 256 tenants with a p99 rule each; only 4 issue I/O. One more
        // rule holds on 0, so the watchdog evaluates it every window.
        const VFS: usize = 256;
        const ACTIVE: u64 = 4;
        let mut cfg = TelemetryConfig::windowed(SimDuration::from_micros(50));
        for d in 0..VFS {
            cfg = cfg.rule_text(&format!("hv.vf{d}.p99_ns above 1000000 for 3"));
        }
        let cfg = cfg.rule_text("hv.vf200.requests below 1 for 1000000");
        let zero_holding = 1;
        let mut sys = SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .max_vfs(VFS as u16 + 2)
            .telemetry(cfg)
            .build();
        let disks: Vec<DiskId> = (0..VFS)
            .map(|i| {
                let name = format!("t{i}.img");
                sys.quick_disk(DiskKind::NescDirect, &name, 64 << 10).disk
            })
            .collect();
        // Windows closed, samples committed, rules evaluated.
        let counts = |sys: &System| {
            let tel = sys.telemetry().expect("telemetry enabled");
            let sampler = tel.sampler();
            let closed = sampler.closed_windows();
            (
                closed,
                sampler.samples_committed(),
                tel.watchdog().rules_evaluated(),
            )
        };
        // Only the active tenants can be touched: 10 fixed series plus 5
        // per touched VF, and their rules plus the zero-holding one.
        let (max_samples, max_rules) = (10 + 5 * ACTIVE, ACTIVE + zero_holding);
        let mut last = counts(&sys);
        let mut checked = 0;
        for i in 0..240u64 {
            let disk = disks[(i % ACTIVE) as usize];
            sys.write(disk, (i % 8) * 4096, &[i as u8; 4096]);
            sys.think(SimDuration::from_micros(3 * (i % 5)));
            let now = counts(&sys);
            // One write and think never spans two windows, so each delta
            // is one window's work.
            let closed = now.0 - last.0;
            assert!(closed <= 1, "step {i} closed {closed} windows");
            if closed == 1 {
                let (samples, rules) = (now.1 - last.1, now.2 - last.2);
                assert!(
                    samples <= max_samples,
                    "window {}: {samples} samples",
                    last.0
                );
                assert!(rules <= max_rules, "window {}: {rules} rules", last.0);
                checked += 1;
            }
            last = now;
        }
        assert!(checked >= 20, "only {checked} windows closed");
    }

    #[test]
    fn a_ring_left_non_empty_reports_its_depth_until_it_drains() {
        use nesc_extent::{ExtentMapping, ExtentTree, Plba, Vlba};
        use nesc_storage::{BlockRequest, RequestId};
        let mem = Rc::new(RefCell::new(nesc_pcie::HostMemory::new()));
        let mut dev = NescDevice::new(NescConfig::prototype(), Rc::clone(&mem));
        let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(100), 16)]
            .into_iter()
            .collect();
        let root = tree.serialize(&mut mem.borrow_mut());
        let vf = dev.create_vf(root, 16).expect("a free VF slot");
        let buf = mem.borrow_mut().alloc(4096, 8);
        let mut tel = Telemetry::new(TelemetryConfig::windowed(SimDuration::from_nanos(100)));
        tel.register_disk(DiskId(0), Some(vf));
        let probe = Probe::new(Tracer::disabled(), tel.flight().clone());
        probe.open_windows();
        tel.set_probe(probe.clone());
        dev.set_probe(probe);
        let t = SimTime::from_nanos;
        // Three requests queue in window 0 and stay queued: no dispatch
        // until the device advances.
        for id in 1..=3 {
            let req = BlockRequest::new(RequestId(id), BlockOp::Write, Vlba(id - 1), 1);
            dev.submit(t(10), vf, req, buf);
        }
        tel.poll(t(100), &dev);
        // Window 1 has no completion and no doorbell: the depth carries.
        tel.poll(t(200), &dev);
        let outs = dev.advance(t(1_000_000));
        assert_eq!(outs.iter().filter(|o| o.is_completion()).count(), 3);
        // Window 2 sees the drained ring once; window 3 no longer samples it.
        tel.poll(t(300), &dev);
        let before = tel.sampler().samples_committed();
        tel.poll(t(400), &dev);
        assert_eq!(
            tel.sampler().samples_committed() - before,
            10,
            "only the fixed series"
        );
        let name = format!("core.ring_depth.f{}", vf.0);
        let ring = tel.sampler().series_by_name(&name).expect("ring gauge");
        let depths: Vec<u64> = ring.samples().map(|(_, v)| v).collect();
        assert_eq!(depths, vec![3, 3, 0, 0]);
    }
}
