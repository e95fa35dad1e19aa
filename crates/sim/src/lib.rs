#![warn(missing_docs)]

//! Deterministic discrete-event simulation (DES) substrate for the NeSC
//! reproduction.
//!
//! The NeSC paper evaluates a hardware storage controller attached to a real
//! host. This crate provides the timing machinery used to model that system
//! in software:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//! * [`resource`] — *timeline resources*: bandwidth pipes and serial service
//!   units that answer "if work arrives at `t`, when does it finish?" while
//!   correctly accounting for busy periods. These model PCIe links, DMA
//!   engines, storage media and CPU software layers. Because every unit's
//!   timing is computed arithmetically, a model keeps at most its next tick
//!   (the device's multiplexer tick, the sampler's next window close) in
//!   one field instead of an event queue, which a glue loop reads to step
//!   exactly to the next event.
//! * [`stats`] — histograms, percentile summaries and throughput meters used
//!   by the benchmark harnesses to regenerate the paper's figures.
//! * [`trace`] — the hierarchical span tracer every simulated layer reports
//!   into (plus the Chrome/Perfetto trace-event exporter), a zero-cost
//!   no-op until explicitly enabled.
//! * [`perfmon`] — deterministic windowed time-series sampling driven by
//!   simulated time (gauge/counter-delta series in ring buffers), the SLO
//!   watchdog with declarative threshold rules, and the JSON/CSV/Perfetto
//!   counter-track exporters.
//! * [`probe`] — the one probe every layer reports a request's lifecycle
//!   through, folding each observation into span rows and the always-on
//!   tally of per-path totals and window completions.
//! * [`flight`] — the deterministic flight recorder: a bounded,
//!   preallocated ring of the last span rows, plus per-window worst-K
//!   exemplar retention of full request span trees — the forensic
//!   substrate the anomaly dumps snapshot.
//! * [`rng`] — a small deterministic RNG facade plus the distributions the
//!   workloads need (uniform, exponential, Zipf, Pareto).
//! * [`gen`] — integer-only traffic generators for scale-out scenarios:
//!   Zipf-like working-set skew and bursty open-loop inter-arrival tapes.
//! * [`sched`] — round-robin scheduling helpers used by the NeSC virtual
//!   function multiplexer, including the bitmap/heap [`ReadyTable`] that
//!   keeps 1000-function dispatch O(changed state) per event.
//! * [`selfcheck`] — the runtime divergence self-check: digest a run's
//!   event sequence, span tree and per-path totals, run it twice from one
//!   seed, and report the first diverging event if reproducibility ever
//!   breaks.
//!
//! Everything is single-threaded and deterministic given a seed: running the
//! same experiment twice produces bit-identical results, which is what makes
//! the figure-regeneration harnesses reproducible.
//!
//! # Example
//!
//! ```
//! use nesc_sim::{ServiceUnit, SimDuration, SimTime};
//!
//! // A serial unit (the VF multiplexer, a host CPU core) answers "work
//! // arriving at `t` finishes when?" without scheduling any event.
//! let mut mux = ServiceUnit::new();
//! let first = mux.serve(SimTime::ZERO, SimDuration::from_micros(2));
//! let second = mux.serve(SimTime::from_nanos(500), SimDuration::from_micros(1));
//! assert_eq!(second.start, first.end); // queued behind the first
//! assert_eq!(second.end.as_nanos(), 3_000);
//! assert_eq!(mux.busy_time(), SimDuration::from_micros(3));
//! ```

pub mod flight;
pub mod gen;
pub mod hash;
pub mod perfmon;
pub mod probe;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod selfcheck;
pub mod stats;
pub mod time;
pub mod trace;

pub use flight::{Exemplar, FlightConfig, FlightHandle, FlightRecorder, FlightSnapshot};
pub use gen::{BurstyArrivals, ZipfLike};
pub use hash::{IntHashBuilder, IntHasher};
pub use perfmon::{AnomalyEvent, Sampler, SeriesId, SeriesKind, SloRule, SloWatchdog, TimeSeries};
pub use probe::{Completion, DeviceStats, Obs, Pass, PathTotals, Probe, Via};
pub use resource::{Pipe, ServiceUnit};
pub use rng::SimRng;
pub use sched::{ReadyTable, RoundRobin};
pub use selfcheck::{Divergence, EventRecord, RunDigest};
pub use stats::{Histogram, Summary, Throughput};
pub use time::{SimDuration, SimTime};
pub use trace::{
    chrome_trace_json, validate_chrome_trace, AttrKey, Attrs, Span, SpanId, SpanKind, SpanTree,
    Tracer, SPAN_ATTRS,
};
