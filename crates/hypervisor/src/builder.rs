//! Typed construction of a [`System`].
//!
//! [`SystemBuilder`] is the front door of the facade: it gathers the
//! device configuration, the software cost model, media throttling and
//! the observability channels (span tracing, telemetry, the flight
//! recorder) into one fluent call chain, so harnesses and examples don't
//! have to thread `NescConfig` / `SoftwareCosts` pairs around by hand.
//! The channels are chosen here once: a built system keeps them.
//!
//! # Example
//!
//! ```
//! use nesc_hypervisor::prelude::*;
//!
//! let mut sys = SystemBuilder::new()
//!     .capacity_blocks(64 * 1024)
//!     .tracing(true)
//!     .build();
//! let disk = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
//! sys.write(disk, 0, &[0xAB; 1024]);
//! assert!(!sys.tracer().is_empty());
//! ```

use nesc_core::NescConfig;
use nesc_sim::{FlightHandle, Probe, SimDuration, Tracer};

use crate::costs::SoftwareCosts;
use crate::system::System;
use crate::telemetry::{Telemetry, TelemetryConfig};

/// Fluent builder over [`NescConfig`] + [`SoftwareCosts`] + observability
/// options. Defaults reproduce the paper's prototype
/// ([`NescConfig::prototype`], [`SoftwareCosts::calibrated`]) with tracing
/// off.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    cfg: NescConfig,
    costs: SoftwareCosts,
    tracing: bool,
    media_throttle: Option<u64>,
    telemetry: Option<TelemetryConfig>,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::new()
    }
}

impl SystemBuilder {
    /// The prototype system: paper configuration, calibrated costs, no
    /// tracing.
    pub fn new() -> Self {
        SystemBuilder {
            cfg: NescConfig::prototype(),
            costs: SoftwareCosts::calibrated(),
            tracing: false,
            media_throttle: None,
            telemetry: None,
        }
    }

    /// Replaces the whole device configuration.
    pub fn config(mut self, cfg: NescConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Replaces the whole software cost model.
    pub fn costs(mut self, costs: SoftwareCosts) -> Self {
        self.costs = costs;
        self
    }

    /// Uses the calibrated costs with the paging trampoline enabled
    /// (the paper's measured configuration includes it).
    pub fn with_trampoline(mut self) -> Self {
        self.costs = SoftwareCosts::calibrated_with_trampoline();
        self
    }

    /// Physical device capacity in 1 KiB blocks.
    pub fn capacity_blocks(mut self, blocks: u64) -> Self {
        self.cfg.capacity_blocks = blocks;
        self
    }

    /// Maximum number of live virtual functions.
    pub fn max_vfs(mut self, max_vfs: u16) -> Self {
        self.cfg.max_vfs = max_vfs;
        self
    }

    /// Throttles the medium to `bytes_per_sec` (the Fig. 2 device-speed
    /// sweep).
    pub fn media_throttle(mut self, bytes_per_sec: u64) -> Self {
        self.media_throttle = Some(bytes_per_sec);
        self
    }

    /// Enables hierarchical span tracing across every layer
    /// (guest/hypervisor/virtio/core/extent/pcie/storage). Off by default:
    /// disabled tracing costs one branch per instrumentation site.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enables deterministic time-series telemetry: a perfmon sampler
    /// closing windows of `cfg.interval` across every layer, plus the SLO
    /// watchdog rules in `cfg`, and the flight recorder if `cfg.flight`
    /// configures one. Off by default: disabled telemetry costs one
    /// `Option` check per request. Rules added before this call are
    /// kept, in call order, ahead of `cfg`'s own.
    pub fn telemetry(mut self, mut cfg: TelemetryConfig) -> Self {
        if let Some(earlier) = self.telemetry.take() {
            cfg.rules.splice(0..0, earlier.rules);
        }
        self.telemetry = Some(cfg);
        self
    }

    /// Adds one declarative SLO watchdog rule (the `perfmon` rule
    /// grammar, e.g. `"hv.vf3.p99_ns above 500000 for 2"`) at build time.
    /// Enables telemetry with the default 50 µs window unless
    /// [`telemetry`](Self::telemetry), called before or after, chooses
    /// the window.
    ///
    /// # Panics
    ///
    /// Panics if the rule does not parse.
    pub fn slo_rule(mut self, rule: &str) -> Self {
        let cfg = self
            .telemetry
            .take()
            .unwrap_or_else(|| TelemetryConfig::windowed(SimDuration::from_micros(50)));
        self.telemetry = Some(cfg.rule_text(rule));
        self
    }

    /// Adds a batch of declarative SLO rules — the per-tenant form used
    /// by scenario specs, where every tenant contributes one rule string.
    ///
    /// # Panics
    ///
    /// Panics if any rule does not parse.
    pub fn slo_rules<I>(mut self, rules: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        for r in rules {
            self = self.slo_rule(r.as_ref());
        }
        self
    }

    /// Assembles the system: one probe with the chosen span log and
    /// flight ring, its window list open when telemetry is on, which the
    /// system, its device and its telemetry all report through.
    ///
    /// # Panics
    ///
    /// Panics if the accumulated configuration fails
    /// [`NescConfig::validate`].
    pub fn build(self) -> System {
        let tracer = if self.tracing {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let flight = self.telemetry.as_ref().and_then(|cfg| cfg.flight);
        let flight = flight.map(FlightHandle::enabled).unwrap_or_default();
        let probe = Probe::new(tracer, flight);
        let telemetry = self.telemetry.map(|cfg| {
            probe.open_windows();
            Telemetry::new(cfg, probe.clone())
        });
        let mut sys = System::with_channels(self.cfg, self.costs, probe, telemetry);
        if let Some(b) = self.media_throttle {
            sys.device_mut().set_media_throttle(Some(b));
        }
        sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DiskKind;

    #[test]
    fn builder_defaults_match_direct_construction() {
        let mut a = SystemBuilder::new().capacity_blocks(64 * 1024).build();
        let mut cfg = NescConfig::prototype();
        cfg.capacity_blocks = 64 * 1024;
        let mut b = System::new(cfg, SoftwareCosts::calibrated());
        let da = a.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        let db = b.quick_disk(DiskKind::NescDirect, "b.img", 1 << 20).disk;
        let la = a.write(da, 0, &[1u8; 1024]);
        let lb = b.write(db, 0, &[1u8; 1024]);
        assert_eq!(la, lb, "builder must not perturb timing");
    }

    #[test]
    fn slo_rules_enable_telemetry_and_register_every_rule() {
        let sys = SystemBuilder::new()
            .slo_rules([
                "hv.vf0.p99_ns above 500000 for 2",
                "hv.vf1.p99_ns above 500000 for 2",
            ])
            .build();
        let tel = sys.telemetry().expect("slo_rules must enable telemetry");
        assert_eq!(tel.watchdog().rules().len(), 2);
    }

    /// `telemetry` after `slo_rule` chooses the window and keeps the
    /// earlier rules, in call order, ahead of its own.
    #[test]
    fn telemetry_keeps_the_rules_added_before_it() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_micros(10))
            .rule_text("hv.vf2.p99_ns above 500000 for 2");
        let sys = SystemBuilder::new()
            .slo_rule("hv.vf0.p99_ns above 500000 for 2")
            .slo_rule("hv.vf1.p99_ns above 500000 for 2")
            .telemetry(cfg)
            .build();
        let tel = sys.telemetry().expect("telemetry enabled");
        let rules = tel.watchdog().rules().iter();
        let series: Vec<&str> = rules.map(|r| r.primary.series.as_str()).collect();
        assert_eq!(series, ["hv.vf0.p99_ns", "hv.vf1.p99_ns", "hv.vf2.p99_ns"]);
        assert_eq!(tel.sampler().interval(), SimDuration::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "rule")]
    fn malformed_slo_rule_panics_at_build_configuration() {
        let _ = SystemBuilder::new().slo_rule("this is not a rule");
    }

    /// Write then read latency of 16 KiB on a fresh NeSC-direct disk.
    fn direct_latencies(builder: SystemBuilder) -> (SimDuration, SimDuration) {
        let mut sys = builder.capacity_blocks(64 * 1024).build();
        let disk = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        let data = vec![3u8; 16 * 1024];
        let wrote = sys.write(disk, 0, &data);
        let mut out = vec![0u8; data.len()];
        let read = sys.read(disk, 0, &mut out);
        assert_eq!(out, data);
        (wrote, read)
    }

    #[test]
    fn the_trampoline_adds_a_copy_to_direct_reads_and_writes() {
        let (w, r) = direct_latencies(SystemBuilder::new());
        let (tw, tr) = direct_latencies(SystemBuilder::new().with_trampoline());
        assert!(tw > w, "write {tw:?} vs {w:?}");
        assert!(tr > r, "read {tr:?} vs {r:?}");
    }

    #[test]
    fn a_media_throttle_slows_device_transfers() {
        let (w, r) = direct_latencies(SystemBuilder::new());
        let (sw, sr) = direct_latencies(SystemBuilder::new().media_throttle(50_000_000));
        // 16 KiB at 50 MB/s is ~330 us of medium time alone.
        assert!(
            sw > w + SimDuration::from_micros(300),
            "write {sw:?} vs {w:?}"
        );
        assert!(
            sr > r + SimDuration::from_micros(300),
            "read {sr:?} vs {r:?}"
        );
    }

    #[test]
    fn builder_knobs_apply() {
        let sys = SystemBuilder::new()
            .config(NescConfig {
                btlb_entries: 4,
                ..NescConfig::prototype()
            })
            .capacity_blocks(32 * 1024)
            .max_vfs(3)
            .tracing(true)
            .build();
        assert_eq!(sys.device().config().capacity_blocks, 32 * 1024);
        assert_eq!(sys.device().config().btlb_entries, 4);
        assert_eq!(sys.device().config().max_vfs, 3);
        assert!(sys.tracer().is_enabled());
    }
}
