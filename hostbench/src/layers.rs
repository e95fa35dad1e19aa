//! The optional layers a measured system is built with.
//!
//! The simulator has no host-time probes of its own, so every per-layer
//! time is taken by the benchmark from outside: the same rounds run on
//! systems that differ by one layer, and the difference is that layer's
//! cost. Each workload takes the layers' settings (telemetry window,
//! watchdog rules, flight-recorder size) from the run it reproduces.

use nesc_hypervisor::{SystemBuilder, TelemetryConfig};
use nesc_sim::{FlightConfig, SimDuration};

/// Which optional layers a system is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layers {
    /// Windowed perfmon sampler over every layer.
    pub telemetry: bool,
    /// The workload's SLO watchdog rules (needs `telemetry`).
    pub rules: bool,
    /// Flight recorder ring and exemplars (needs `telemetry`).
    pub flight: bool,
    /// Hierarchical span tracing.
    pub tracing: bool,
}

impl Layers {
    /// Hypervisor and device only.
    pub const BARE: Layers = Layers {
        telemetry: false,
        rules: false,
        flight: false,
        tracing: false,
    };
    /// Sampler plus watchdog rules.
    pub const WATCHDOG: Layers = Layers {
        telemetry: true,
        rules: true,
        ..Layers::BARE
    };
    /// Everything on: the forensics configuration.
    pub const ALL: Layers = Layers {
        telemetry: true,
        rules: true,
        flight: true,
        tracing: true,
    };

    /// The systems a traced run compares. Each adds one layer to an
    /// earlier entry, so their difference isolates it. The flight
    /// recorder is compared against the sampler alone: at 1000 VFs the
    /// watchdog's cost varies by more than the recorder's whole cost.
    pub const LADDER: [(&'static str, Layers); 5] = [
        ("bare", Layers::BARE),
        (
            "telemetry",
            Layers {
                telemetry: true,
                ..Layers::BARE
            },
        ),
        ("watchdog", Layers::WATCHDOG),
        (
            "flight",
            Layers {
                telemetry: true,
                flight: true,
                ..Layers::BARE
            },
        ),
        (
            "tracer",
            Layers {
                tracing: true,
                ..Layers::BARE
            },
        ),
    ];

    /// Applies the layers to a builder, with `monitor`'s settings for
    /// the ones that are on.
    pub fn apply(self, b: SystemBuilder, monitor: Monitor) -> SystemBuilder {
        let b = b.tracing(self.tracing);
        if !self.telemetry {
            return b;
        }
        let mut tel = TelemetryConfig::windowed(monitor.interval).capacity(monitor.capacity);
        if self.flight {
            tel = tel.flight(monitor.flight);
        }
        let rules = if self.rules {
            monitor.rules
        } else {
            Vec::new()
        };
        b.telemetry(tel).slo_rules(rules)
    }
}

/// The telemetry settings of the run a workload reproduces.
pub struct Monitor {
    /// Telemetry window.
    pub interval: SimDuration,
    /// Windows each series keeps.
    pub capacity: usize,
    /// SLO watchdog rules, in the perfmon rule grammar.
    pub rules: Vec<String>,
    /// Flight recorder size.
    pub flight: FlightConfig,
}
