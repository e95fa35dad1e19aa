//! Host-cost benchmark of the NeSC simulator.
//!
//! Measures how much host time the simulator spends per simulated
//! request on four workloads (see `README.md`), and where that time goes
//! by layer. Usage:
//!
//! ```text
//! cargo --config 'build.rustflags=["-Cllvm-args=-align-all-functions=6"]' \
//!     run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload fleet|fleet_250|paper|prune_pressure --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, with `--trace 1` the per-layer ones.

mod calib;
mod fleet;
mod layers;
mod paper;
mod prune;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use nesc_hypervisor::System;

use calib::Clock;
use layers::Layers;

/// What one round of a workload did.
#[derive(Debug, Default)]
pub struct Round {
    /// Simulated requests issued.
    pub requests: u64,
    /// Host nanoseconds spent inside the simulator's calls (input
    /// generation and output checking are excluded).
    pub host_ns: u64,
    /// Host nanoseconds of each request timed on its own.
    pub req_ns: Vec<u64>,
    /// Requests that failed or returned wrong data.
    pub failed: u64,
    /// Whether the round's whole-run invariants held.
    pub correct: bool,
}

/// A benchmark workload: a system plus a seeded input generator that
/// yields statistically alike rounds.
pub trait Workload: Sized {
    /// The layers the workload's own runs turn on; the end-to-end
    /// metrics measure this configuration.
    const BASE: Layers;

    /// Builds the system and the input generator for `seed`.
    fn setup(seed: u64, layers: Layers) -> Self;
    /// Checks, untimed, that the workload still reproduces the run it
    /// models.
    fn check(_seed: u64) -> bool {
        true
    }
    /// Readies the system for the next round, untimed.
    fn prepare(&mut self) {}
    /// Generates and runs the next round of inputs.
    fn round(&mut self) -> Round;
    /// The simulated system.
    fn system(&mut self) -> &mut System;
}

/// Fills `buf` with bytes derived from `tag` (SplitMix64).
pub fn fill(tag: u64, buf: &mut [u8]) {
    let mut s = tag;
    for chunk in buf.chunks_mut(8) {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
}
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()? != 0),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10).max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

/// The result line: correctness, counts, and named metrics with units.
#[derive(Debug, Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn absorb(&mut self, r: &Round) {
        self.attempted += r.requests;
        self.failed += r.failed;
        self.correct &= r.correct;
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Runs one round and, on a traced system, drains its spans inside the
/// timed cost (a tracing user pays for collecting them). Returns the
/// round and the spans it produced.
fn timed_round<W: Workload>(w: &mut W) -> (Round, u64) {
    let mut r = w.round();
    let sys = w.system();
    let mut spans = 0;
    if sys.tracer().is_enabled() {
        let t = Instant::now();
        spans = sys.take_spans().len() as u64;
        r.host_ns += t.elapsed().as_nanos() as u64;
    }
    (r, spans)
}

fn us_per_req(r: &Round) -> f64 {
    r.host_ns as f64 / 1e3 / r.requests.max(1) as f64
}

/// Rounds run at least this many times, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// An end-to-end run sets up at least this many times...
const MIN_SETUPS: usize = 7;
/// ...and goes on setting up until this much set-up time has passed...
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// ...or it has set up this many times.
const MAX_SETUPS: usize = 60;

/// Runs the workload's untimed check and starts a report with its verdict.
fn checked<W: Workload>(args: &Args) -> Report {
    let correct = W::check(args.seed);
    if !correct {
        eprintln!("{}: no longer reproduces the run it models", args.workload);
    }
    Report {
        correct,
        ..Report::default()
    }
}

/// The end-to-end run: set up several times, warm up one round, then
/// run rounds of the base configuration until the time is up. Every time
/// is taken at nominal host speed (see [`calib`]).
fn end_to_end<W: Workload>(args: &Args) -> Report {
    const PER_REQ: usize = 0;
    const P99: usize = 1;
    const SETUP: usize = 2;
    let mut rep = checked::<W>(args);
    let mut clock = Clock::new(3);
    let mut w = None;
    let started = Instant::now();
    let mut setups = 0;
    while setups < MIN_SETUPS || (started.elapsed() < SETUP_BUDGET && setups < MAX_SETUPS) {
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(args.seed, W::BASE));
        clock.record(SETUP, t.elapsed().as_secs_f64());
        clock.calibrate();
        setups += 1;
    }
    let mut w = w.expect("at least one set-up");
    w.prepare();
    let (warm, _) = timed_round(&mut w);
    rep.absorb(&warm);

    clock.calibrate();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        w.prepare();
        let (r, _) = timed_round(&mut w);
        rep.absorb(&r);
        clock.record(PER_REQ, us_per_req(&r));
        let req_us: Vec<f64> = r.req_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        clock.record(P99, quantile(&req_us, 0.99));
        clock.tick();
        rounds += 1;
    }
    clock.calibrate();
    eprintln!(
        "{}: {rounds} rounds, {} requests, {setups} set-ups; host_us_per_req {:.4} as measured, {:.4} at nominal speed; reference job {:.4} ms",
        args.workload,
        rep.attempted,
        median(&clock.raw[PER_REQ]),
        median(&clock.nominal[PER_REQ]),
        median(&clock.reference_ns) / 1e6,
    );
    rep.metrics = vec![
        ("host_us_per_req", median(&clock.nominal[PER_REQ]), "us"),
        ("host_p99_us", median(&clock.nominal[P99]), "us"),
        ("setup_s", median(&clock.nominal[SETUP]), "s"),
    ];
    rep
}

/// Deterministic work counters read off a system.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    btlb_lookups: u64,
    btlb_hits: u64,
    walks: u64,
    miss_irqs: u64,
    windows: u64,
    flight_events: u64,
    /// Filled in per round by the caller: the system does not count them.
    requests: u64,
    spans: u64,
}

impl Counters {
    fn read(sys: &System) -> Counters {
        let s = sys.device().stats();
        let tel = sys.telemetry();
        Counters {
            btlb_lookups: s.btlb_lookups,
            btlb_hits: s.btlb_hits,
            walks: s.walks,
            miss_irqs: s.miss_interrupts,
            windows: tel.map_or(0, |t| t.sampler().closed_windows()),
            flight_events: sys.flight().with(|f| f.total()).unwrap_or(0),
            requests: 0,
            spans: 0,
        }
    }

    /// Adds the growth from `before` to `after` (one round).
    fn add_round(&mut self, before: Counters, after: Counters) {
        self.btlb_lookups += after.btlb_lookups - before.btlb_lookups;
        self.btlb_hits += after.btlb_hits - before.btlb_hits;
        self.walks += after.walks - before.walks;
        self.miss_irqs += after.miss_irqs - before.miss_irqs;
        self.windows += after.windows - before.windows;
        self.flight_events += after.flight_events - before.flight_events;
        self.requests += after.requests;
        self.spans += after.spans;
    }
}

/// The traced run: one system per [`Layers::LADDER`] rung, plus one with
/// the workload's own layers if they are not a rung, fed identical rounds
/// in rotating order until the time is up. A layer's cost is the median
/// over rounds of the per-request difference between the rungs with and
/// without it; counts cover the first [`MIN_ROUNDS`] rounds, so they
/// depend on the seed alone. Times are at nominal host speed, as in
/// [`end_to_end`]; calibrations fall between cycles, so the rounds of one
/// cycle share a factor.
fn per_layer<W: Workload>(args: &Args) -> Report {
    let mut ladder = Layers::LADDER.to_vec();
    if !ladder.iter().any(|(_, l)| *l == W::BASE) {
        ladder.push(("base", W::BASE));
    }
    let rung = |name: &str| ladder.iter().position(|(n, _)| *n == name).expect("rung");
    let base = ladder
        .iter()
        .position(|(_, l)| *l == W::BASE)
        .expect("base layers are a rung");
    let mut rep = checked::<W>(args);
    let mut systems: Vec<W> = ladder
        .iter()
        .map(|(_, l)| W::setup(args.seed, *l))
        .collect();
    for w in &mut systems {
        w.prepare();
        let (warm, _) = timed_round(w);
        rep.absorb(&warm);
    }

    let mut clock = Clock::new(ladder.len());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut counts = vec![Counters::default(); ladder.len()];
    let mut cycle = 0;
    while cycle < MIN_ROUNDS || Instant::now() < deadline {
        for j in 0..ladder.len() {
            let i = (j + cycle) % ladder.len();
            let w = &mut systems[i];
            w.prepare();
            let before = Counters::read(w.system());
            let (r, spans) = timed_round(w);
            if cycle < MIN_ROUNDS {
                let after = Counters {
                    requests: r.requests,
                    spans,
                    ..Counters::read(w.system())
                };
                counts[i].add_round(before, after);
            }
            rep.absorb(&r);
            clock.record(i, us_per_req(&r));
        }
        clock.tick();
        cycle += 1;
    }
    clock.calibrate();
    eprintln!("{}: {cycle} traced cycles", args.workload);

    let per_req = &clock.nominal;
    // Paired per-round difference between two rungs, median over rounds.
    let delta = |with: &str, without: &str| {
        let (a, b) = (&per_req[rung(with)], &per_req[rung(without)]);
        let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        median(&d)
    };
    let per_k = |n: u64, c: Counters| n as f64 * 1e3 / c.requests.max(1) as f64;
    let (bare, tel) = (counts[rung("bare")], counts[rung("telemetry")]);
    let (fl, tr) = (counts[rung("flight")], counts[rung("tracer")]);
    rep.metrics = vec![
        ("system_us_per_req", median(&per_req[base]), "us"),
        ("bare_us_per_req", median(&per_req[rung("bare")]), "us"),
        ("telemetry_us_per_req", delta("telemetry", "bare"), "us"),
        ("watchdog_us_per_req", delta("watchdog", "telemetry"), "us"),
        ("flight_us_per_req", delta("flight", "telemetry"), "us"),
        ("tracer_us_per_req", delta("tracer", "bare"), "us"),
        (
            "btlb_hit_ppm",
            bare.btlb_hits as f64 * 1e6 / bare.btlb_lookups.max(1) as f64,
            "ppm",
        ),
        ("walks_per_kreq", per_k(bare.walks, bare), "count"),
        ("miss_irqs_per_kreq", per_k(bare.miss_irqs, bare), "count"),
        ("windows_per_kreq", per_k(tel.windows, tel), "count"),
        (
            "flight_events_per_req",
            per_k(fl.flight_events, fl) / 1e3,
            "count",
        ),
        ("spans_per_req", per_k(tr.spans, tr) / 1e3, "count"),
    ];
    rep
}

fn run<W: Workload>(args: &Args) -> Report {
    if args.trace {
        per_layer::<W>(args)
    } else {
        end_to_end::<W>(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match args.workload.as_str() {
        "fleet" => run::<fleet::Fleet<1000>>(&args),
        "fleet_250" => run::<fleet::Fleet<250>>(&args),
        "paper" => run::<paper::Paper>(&args),
        "prune_pressure" => run::<prune::Prune>(&args),
        other => {
            eprintln!(
                "hostbench: unknown workload {other} (fleet, fleet_250, paper, prune_pressure)"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", rep.json());
    ExitCode::SUCCESS
}
