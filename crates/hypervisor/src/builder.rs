//! Typed construction of a [`System`].
//!
//! [`SystemBuilder`] is the front door of the facade: it gathers the
//! device configuration, the software cost model, and the observability
//! options (span tracing, media throttling) into one fluent call chain,
//! so harnesses and examples don't have to thread `NescConfig` /
//! `SoftwareCosts` pairs around by hand.
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
use nesc_sim::{FlightConfig, SimDuration};

use crate::costs::SoftwareCosts;
use crate::system::System;
use crate::telemetry::TelemetryConfig;

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
    /// watchdog rules in `cfg`. Off by default: disabled telemetry costs
    /// one `Option` check per request.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Adds one declarative SLO watchdog rule (the `perfmon` rule
    /// grammar, e.g. `"hv.vf3.p99_ns above 500000 for 2"`) at build time.
    /// Enables telemetry with the default 50 µs window if
    /// [`telemetry`](Self::telemetry) was not called first; call it
    /// before this to control the window or capacity.
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

    /// Enables the deterministic flight recorder: a bounded ring of
    /// queue/scheduler/BTLB/media/link events plus worst-K exemplar span
    /// trees per telemetry window, snapshotted into a forensic dump when
    /// the SLO watchdog first fires. Enables telemetry with the default
    /// 50 µs window if [`telemetry`](Self::telemetry) was not called
    /// first. Does *not* enable span tracing — without a tracer the
    /// exemplars carry timing and identity but empty span lists.
    pub fn flight(mut self, cfg: FlightConfig) -> Self {
        let tel = self
            .telemetry
            .take()
            .unwrap_or_else(|| TelemetryConfig::windowed(SimDuration::from_micros(50)));
        self.telemetry = Some(tel.flight(cfg));
        self
    }

    /// Assembles the system.
    ///
    /// # Panics
    ///
    /// Panics if the accumulated configuration fails
    /// [`NescConfig::validate`].
    pub fn build(self) -> System {
        let mut sys = System::new(self.cfg, self.costs);
        if self.tracing {
            sys.set_tracing(true);
        }
        if let Some(b) = self.media_throttle {
            sys.device_mut().set_media_throttle(Some(b));
        }
        if let Some(cfg) = self.telemetry {
            sys.set_telemetry(cfg);
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

    #[test]
    #[should_panic(expected = "rule")]
    fn malformed_slo_rule_panics_at_build_configuration() {
        let _ = SystemBuilder::new().slo_rule("this is not a rule");
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
