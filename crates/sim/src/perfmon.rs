//! Deterministic time-series performance monitoring.
//!
//! The paper's evaluation — and PR 2's spans + metrics — report *aggregate*
//! end-of-run numbers. This module adds the time dimension: a [`Sampler`]
//! closes fixed-width windows of simulated time and records one sample per
//! registered series per window, so a harness can say *when* the BTLB went
//! cold or *which* window a VF starved in, not just what the run mean was.
//!
//! Determinism is structural, not aspirational:
//!
//! * windows are driven entirely by the simulated clock — a window closes
//!   only when its owner reports simulated time reaching its end
//!   ([`Sampler::due`]), which the sampler keeps as a single next-close
//!   time ([`Sampler::next_close`]); no wall clock is ever read (nesc-lint D1);
//! * every stored sample is a `u64` (nanoseconds, bytes, operations, or
//!   parts-per-million for utilizations), so exports are byte-stable and no
//!   float ever feeds back into scheduling (nesc-lint D4);
//! * a series is sampled at most once per closed window and reads 0 in a
//!   window it is not sampled in (a counter keeps its previous raw value),
//!   so an owner samples only what may be non-zero and two same-seed runs
//!   still produce identical series. Only non-zero samples are stored:
//!   one row each in a sampler-wide log, in sampling order, linked to its
//!   series' previous row. Accessors and exporters walk a series' links
//!   back from its newest row and fill in the zeros, so reading the
//!   newest window costs one row.
//!
//! On top of the series sit the [`SloWatchdog`] — declarative threshold
//! rules ("p99 above X for 3 consecutive windows", optionally guarded by a
//! second condition) that emit deterministic [`AnomalyEvent`]s — and the
//! exporters: [`series_json`] / [`series_csv`] for `results/`, and
//! [`merge_counter_tracks`] which renders a `series_json` document (a live
//! sampler's, or the one a forensic dump carries) as Perfetto `ph:"C"`
//! counter tracks appended to an existing Chrome-trace document, so the
//! time series render alongside the span swimlanes.
//!
//! # Example
//!
//! ```
//! use nesc_sim::perfmon::{Sampler, SeriesKind};
//! use nesc_sim::{SimDuration, SimTime};
//!
//! let mut s = Sampler::new(SimDuration::from_micros(10), 64);
//! let ops = s.register("ops", "count", SeriesKind::Counter);
//! let depth = s.register("depth", "entries", SeriesKind::Gauge);
//!
//! // The owner drives the sampler from simulated time: when `due`
//! // returns a window end, snapshot every probe.
//! let mut total_ops = 0u64;
//! for t in [4_000u64, 12_000, 26_000] {
//!     total_ops += 10;
//!     while let Some(_end) = s.due(SimTime::from_nanos(t)) {
//!         s.sample(ops, total_ops);
//!         s.sample(depth, 3);
//!     }
//! }
//! let ring = s.series_by_name("ops").unwrap();
//! // Window 0 closed once time passed 10us; the snapshot taken then had
//! // seen 20 cumulative ops. Window 1 closed at 20us with 10 more.
//! assert_eq!(ring.samples().collect::<Vec<_>>(), vec![(0, 20), (1, 10)]);
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::hash::IntHashBuilder;
use crate::selfcheck::fnv1a;
use crate::time::{SimDuration, SimTime};

/// Handle to one registered series (index into the sampler's table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// How raw probe values become stored samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// The raw value is stored as-is (queue depth, p99 of a window).
    Gauge,
    /// The raw value is a monotonic cumulative counter; the stored sample
    /// is the delta since the previous window's raw value.
    Counter,
}

impl SeriesKind {
    /// Stable lowercase name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::Counter => "counter",
        }
    }
}

/// No row: the end of a series' row chain.
const NO_ROW: u64 = u64::MAX;

/// What sampling one series reads and writes; its identity lives apart,
/// in [`SeriesName`], so a window close touches only these records.
#[derive(Debug, Clone, Copy)]
struct SeriesState {
    kind: SeriesKind,
    /// The first window the series has a sample for (windows closed when
    /// it was registered).
    registered: u64,
    /// Raw value at the previous sample (counter-delta state).
    last_raw: u64,
    /// Row number of the series' newest stored sample (`NO_ROW`: none).
    newest: u64,
    /// The next window the series may be sampled in (at-most-once state).
    #[cfg(debug_assertions)]
    next: u64,
}

/// A series' identity: read by lookups and exporters, never by a sample.
#[derive(Debug)]
struct SeriesName {
    name: String,
    unit: &'static str,
}

/// Name → id of the first series registered under that name, without a
/// second copy of any name: each name's FNV-1a hash maps to the newest
/// series with that hash, which links to the next older one, and a
/// lookup compares the name against the sampler's `names` array along
/// that chain.
#[derive(Debug, Default)]
struct NameIndex {
    heads: HashMap<u64, usize, IntHashBuilder>,
    /// Per series id, the next older indexed series with the same hash.
    next: Vec<Option<usize>>,
}

impl NameIndex {
    fn get(&self, names: &[SeriesName], name: &str) -> Option<SeriesId> {
        self.find(names, fnv1a(name.as_bytes()), name)
    }

    fn find(&self, names: &[SeriesName], hash: u64, name: &str) -> Option<SeriesId> {
        let mut at = self.heads.get(&hash).copied();
        while let Some(id) = at {
            if names[id].name == name {
                return Some(SeriesId(id));
            }
            at = self.next[id];
        }
        None
    }

    /// Takes the next series id (`names.len()`) and indexes it under
    /// `name`, unless an earlier series holds that name.
    fn push(&mut self, names: &[SeriesName], name: &str) {
        self.push_hashed(names, fnv1a(name.as_bytes()), name);
    }

    fn push_hashed(&mut self, names: &[SeriesName], hash: u64, name: &str) {
        debug_assert_eq!(self.next.len(), names.len(), "one link per series");
        let older = match self.find(names, hash, name) {
            None => self.heads.insert(hash, names.len()),
            Some(_) => None,
        };
        self.next.push(older);
    }
}

/// One stored (non-zero) sample in the sampler's row log.
#[derive(Debug, Clone, Copy)]
struct Row {
    window: u64,
    value: u64,
    /// Row number of the same series' previous stored sample (`NO_ROW`:
    /// none). A link to an evicted row ends the chain too.
    prev: u64,
}

/// One series as its sampler sees it: a borrowed view that fills in the
/// zero of every retained window the series holds no sample for.
///
/// The retained windows are the last `capacity` closed windows since the
/// series was registered.
#[derive(Debug, Clone, Copy)]
pub struct TimeSeries<'a> {
    sampler: &'a Sampler,
    id: usize,
}

impl<'a> TimeSeries<'a> {
    /// Series name (e.g. `"core.btlb_hits"`).
    pub fn name(self) -> &'a str {
        &self.sampler.names[self.id].name
    }

    /// Unit label (e.g. `"ops"`, `"ns"`, `"ppm"`).
    pub fn unit(self) -> &'static str {
        self.sampler.names[self.id].unit
    }

    /// Gauge or counter-delta.
    pub fn kind(self) -> SeriesKind {
        self.sampler.series[self.id].kind
    }

    /// Number of windows currently retained (≤ the sampler's capacity).
    pub fn len(self) -> usize {
        (self.sampler.closed - self.first_window()) as usize
    }

    /// Whether no window has closed since the series was registered.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Window index of the oldest retained sample.
    pub fn first_window(self) -> u64 {
        let s = self.sampler;
        let floor = s.closed.saturating_sub(s.capacity as u64);
        s.series[self.id].registered.max(floor)
    }

    /// `(window, value)` of every stored sample, newest first: the
    /// series' row chain. Only retained windows are still in the log.
    fn stored(self) -> impl Iterator<Item = (u64, u64)> + 'a {
        let s = self.sampler;
        let newest = s.row(s.series[self.id].newest);
        std::iter::successors(newest, move |r| s.row(r.prev)).map(|r| (r.window, r.value))
    }

    /// Iterates `(window_index, value)` pairs of every retained window,
    /// oldest first, walking the series' row chain once.
    pub fn samples(self) -> impl Iterator<Item = (u64, u64)> + 'a {
        let mut stored: Vec<(u64, u64)> = self.stored().collect();
        (self.first_window()..self.sampler.closed).map(move |w| {
            let v = stored.pop_if(|&mut (at, _)| at == w).map_or(0, |(_, v)| v);
            (w, v)
        })
    }

    /// The sample for `window`, if still retained: the newest window's
    /// costs one row.
    pub fn value_at(self, window: u64) -> Option<u64> {
        if window < self.first_window() || window >= self.sampler.closed {
            return None;
        }
        let found = self.stored().find(|&(w, _)| w <= window);
        Some(found.filter(|&(w, _)| w == window).map_or(0, |(_, v)| v))
    }

    /// The most recent `(window_index, value)` pair.
    pub fn latest(self) -> Option<(u64, u64)> {
        let w = self.sampler.closed.checked_sub(1)?;
        self.value_at(w).map(|v| (w, v))
    }
}

/// A deterministic windowed sampler.
///
/// The sampler never reads a clock: its owner calls [`due`](Self::due) with
/// the current *simulated* time, and the sampler closes each elapsed
/// window in turn, handing back its end so the owner can snapshot its
/// probes via [`sample`](Self::sample). Window `k` covers simulated time
/// `[k·interval, (k+1)·interval)`; an observation at exactly `k·interval`
/// therefore belongs to window `k` (the close for window `k-1` fires
/// first).
///
/// A series is sampled at most once per closed window, and one left
/// unsampled reads 0 for that window; a counter left unsampled keeps its
/// previous raw value. So a window close costs what its owner samples,
/// not what it registered: only non-zero samples are stored, each as one
/// row appended to a single log.
#[derive(Debug)]
pub struct Sampler {
    interval: SimDuration,
    capacity: usize,
    /// Per series, in registration order: its sampling state ...
    series: Vec<SeriesState>,
    /// ... and its identity.
    names: Vec<SeriesName>,
    /// Name → id of the first series registered under that name.
    index: NameIndex,
    /// Every stored sample of the retained windows, in sampling order.
    rows: VecDeque<Row>,
    /// Row number of `rows[0]` (rows evicted so far).
    first_row: u64,
    /// End of the oldest unclosed window, `window_end(closed)`.
    next_close: SimTime,
    /// Windows closed so far; window `closed - 1` is the one being (or
    /// last) sampled.
    closed: u64,
    /// Series sampled non-zero in window `closed - 1`, in sampling order.
    nonzero_ids: Vec<SeriesId>,
    /// Samples committed so far, zeros included (a report-only work
    /// count).
    committed: u64,
}

impl Sampler {
    /// Creates a sampler closing a window every `interval`, retaining the
    /// most recent `capacity` windows per series.
    ///
    /// A zero interval (a contract violation: windows must advance
    /// simulated time) is widened to one nanosecond, and a zero capacity
    /// retains one window.
    pub fn new(interval: SimDuration, capacity: usize) -> Self {
        debug_assert!(!interval.is_zero(), "sampling interval must be positive");
        debug_assert!(capacity > 0, "ring capacity must be positive");
        let interval = interval.max(SimDuration::from_nanos(1));
        let capacity = capacity.max(1);
        Sampler {
            interval,
            capacity,
            series: Vec::new(),
            names: Vec::new(),
            index: NameIndex::default(),
            rows: VecDeque::new(),
            first_row: 0,
            next_close: SimTime::ZERO + interval,
            closed: 0,
            nonzero_ids: Vec::new(),
            committed: 0,
        }
    }

    /// The window width.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Windows retained per series.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Windows closed so far.
    pub fn closed_windows(&self) -> u64 {
        self.closed
    }

    /// End of the oldest unclosed window: the earliest simulated time at
    /// which [`due`](Self::due) closes one.
    pub fn next_close(&self) -> SimTime {
        self.next_close
    }

    /// Samples committed through [`sample`](Self::sample) so far, zeros
    /// included: the sampler's deterministic work count.
    pub fn samples_committed(&self) -> u64 {
        self.committed
    }

    /// Start of window `w`.
    pub fn window_start(&self, w: u64) -> SimTime {
        SimTime::ZERO + self.interval * w
    }

    /// End of window `w` (exclusive; the instant its close tick fires).
    pub fn window_end(&self, w: u64) -> SimTime {
        SimTime::ZERO + self.interval * (w + 1)
    }

    /// Registers a series. A series registered after windows have already
    /// closed simply starts at the current window (earlier windows have no
    /// sample for it); from then on it reads 0 in every window it is not
    /// sampled in, like every other series. A counter's first sample is
    /// its raw cumulative value, or its delta from a [`rebase`](Self::rebase).
    pub fn register(&mut self, name: &str, unit: &'static str, kind: SeriesKind) -> SeriesId {
        debug_assert!(self.series_id(name).is_none(), "duplicate series {name}");
        self.index.push(&self.names, name);
        let id = SeriesId(self.series.len());
        self.series.push(SeriesState {
            kind,
            registered: self.closed,
            last_raw: 0,
            newest: NO_ROW,
            #[cfg(debug_assertions)]
            next: self.closed,
        });
        self.names.push(SeriesName {
            name: name.to_string(),
            unit,
        });
        id
    }

    /// Sets a counter's previous raw value, so its next sample is the delta
    /// from `raw`: an owner that starts sampling mid-run baselines its
    /// cumulative probes here.
    pub fn rebase(&mut self, id: SeriesId, raw: u64) {
        if let Some(s) = self.series.get_mut(id.0) {
            s.last_raw = raw;
        }
    }

    /// Closes the next due window: if simulated time `now` has reached
    /// (or passed) the end of the oldest unclosed window, that window is
    /// closed (the rows of the window it pushes out of retention are
    /// evicted) and its end time returned; the owner then
    /// [`sample`](Self::sample)s the series that may be non-zero in it
    /// before calling `due` again. Returns `None` when no window end has
    /// been reached.
    ///
    /// Callers drive this in a loop (`while let Some(end) = sampler.due(now)`)
    /// so that an idle stretch spanning several windows closes each of them
    /// in order: counter series record their delta in the first catch-up
    /// window and zeros after; gauges repeat the snapshotted value.
    pub fn due(&mut self, now: SimTime) -> Option<SimTime> {
        let end = Some(self.next_close).filter(|&end| end <= now)?;
        self.next_close = end + self.interval;
        self.closed += 1;
        let floor = self.closed.saturating_sub(self.capacity as u64);
        while self.rows.front().is_some_and(|r| r.window < floor) {
            self.rows.pop_front();
            self.first_row += 1;
        }
        self.nonzero_ids.clear();
        Some(end)
    }

    /// Commits the raw probe value for the window just closed by
    /// [`due`](Self::due) and returns the committed value: gauges commit
    /// `raw`; counters the delta since the previous sample's raw value.
    /// Only a non-zero value is stored.
    ///
    /// A sample outside a window close (a contract violation) is dropped
    /// and returns 0; debug builds assert that each series receives at
    /// most one sample per closed window.
    pub fn sample(&mut self, id: SeriesId, raw: u64) -> u64 {
        debug_assert!(self.closed > 0, "sample() outside a window close");
        let Some(window) = self.closed.checked_sub(1) else {
            return 0;
        };
        let s = &mut self.series[id.0];
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                s.next <= window,
                "series {} must be sampled at most once per closed window",
                self.names[id.0].name
            );
            s.next = window + 1;
        }
        self.committed += 1;
        let value = match s.kind {
            SeriesKind::Gauge => raw,
            SeriesKind::Counter => raw.saturating_sub(s.last_raw),
        };
        s.last_raw = raw;
        if value == 0 {
            return 0;
        }
        let prev = std::mem::replace(&mut s.newest, self.first_row + self.rows.len() as u64);
        self.rows.push_back(Row {
            window,
            value,
            prev,
        });
        self.nonzero_ids.push(id);
        value
    }

    /// Row number `n`, if it is still in the log.
    fn row(&self, n: u64) -> Option<&Row> {
        self.rows
            .get(usize::try_from(n.checked_sub(self.first_row)?).ok()?)
    }

    /// All series, in registration order.
    pub fn series(&self) -> impl Iterator<Item = TimeSeries<'_>> + '_ {
        (0..self.series.len()).map(|id| TimeSeries { sampler: self, id })
    }

    /// The id of the series registered under `name` (the first one, should
    /// a release build register a name twice).
    pub fn series_id(&self, name: &str) -> Option<SeriesId> {
        self.index.get(&self.names, name)
    }

    /// Looks up a series by name.
    pub fn series_by_name(&self, name: &str) -> Option<TimeSeries<'_>> {
        self.series_id(name).and_then(|id| self.get(id))
    }

    fn get(&self, id: SeriesId) -> Option<TimeSeries<'_>> {
        (id.0 < self.series.len()).then_some(TimeSeries {
            sampler: self,
            id: id.0,
        })
    }
}

/// Scales a busy-time delta to parts-per-million utilization of `window`
/// (clamped to 1 000 000) — the integer-only utilization representation
/// every gauge in the telemetry layer stores.
pub fn utilization_ppm(busy: SimDuration, window: SimDuration) -> u64 {
    if window.is_zero() {
        return 0;
    }
    let ppm = (busy.as_nanos() as u128 * 1_000_000) / window.as_nanos() as u128;
    (ppm as u64).min(1_000_000)
}

// ---------------------------------------------------------------------------
// SLO watchdog
// ---------------------------------------------------------------------------

/// Comparison direction of a watchdog condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Fires when the sample is strictly greater than the threshold.
    Above,
    /// Fires when the sample is strictly less than the threshold.
    Below,
}

impl Cmp {
    fn test(self, value: u64, threshold: u64) -> bool {
        match self {
            Cmp::Above => value > threshold,
            Cmp::Below => value < threshold,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Cmp::Above => "above",
            Cmp::Below => "below",
        }
    }
}

/// One threshold test against one series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// Name of the series the condition reads.
    pub series: String,
    /// Comparison direction.
    pub cmp: Cmp,
    /// Threshold in the series' unit.
    pub threshold: u64,
}

impl Condition {
    /// The value of series `id` in `window` if it passes the threshold;
    /// `None` for an unresolved series or a window it has no sample for.
    fn holds(&self, sampler: &Sampler, id: Option<SeriesId>, window: u64) -> Option<u64> {
        let v = sampler.get(id?)?.value_at(window)?;
        self.cmp.test(v, self.threshold).then_some(v)
    }

    /// Whether a window in which the series reads 0 passes the threshold.
    fn holds_on_zero(&self) -> bool {
        self.cmp.test(0, self.threshold)
    }
}

/// A declarative SLO rule: the primary condition must hold for
/// `consecutive` windows in a row (optionally only counting windows where
/// the guard condition also holds) before one anomaly is emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloRule {
    /// Rule name, reported in anomalies (defaults to the parsed text).
    pub name: String,
    /// The condition that must persist.
    pub primary: Condition,
    /// Consecutive windows the condition must hold (≥ 1).
    pub consecutive: u32,
    /// Optional co-condition (`while <series> above|below <M>`).
    pub guard: Option<Condition>,
}

/// Why an [`SloRule`] text failed to parse — the first token that does
/// not fit the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleParseError {
    /// A required token (series name, threshold, window count) was
    /// missing; the payload names which one.
    Missing(&'static str),
    /// A token that should have been `above`/`below` (or `>`/`<`) was
    /// something else (`None` = end of input).
    BadComparator(Option<String>),
    /// A numeric field did not parse; `what` names the field.
    BadNumber {
        /// Which numeric field was malformed.
        what: &'static str,
        /// The offending token.
        text: String,
    },
    /// `for 0`: a rule must watch at least one window.
    ZeroWindowCount,
    /// A keyword position held an unexpected token (`expected` names the
    /// keyword, `found` the token).
    BadKeyword {
        /// The keyword that was expected.
        expected: &'static str,
        /// The token found instead.
        found: String,
    },
    /// Input continued past a complete rule.
    TrailingToken(String),
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleParseError::Missing(what) => write!(f, "missing {what}"),
            RuleParseError::BadComparator(Some(t)) => {
                write!(f, "expected above|below, got {t:?}")
            }
            RuleParseError::BadComparator(None) => {
                write!(f, "expected above|below, got end of input")
            }
            RuleParseError::BadNumber { what, text } => write!(f, "bad {what}: {text:?}"),
            RuleParseError::ZeroWindowCount => write!(f, "window count must be at least 1"),
            RuleParseError::BadKeyword { expected, found } => {
                write!(f, "expected `{expected}`, got {found:?}")
            }
            RuleParseError::TrailingToken(t) => write!(f, "trailing token {t:?}"),
        }
    }
}

impl std::error::Error for RuleParseError {}

impl SloRule {
    /// Parses the rule grammar:
    ///
    /// ```text
    /// <series> above|below <N> for <K> [while <series> above|below <M>]
    /// ```
    ///
    /// e.g. `"hv.vf1.p99_ns above 40000 for 3"` or
    /// `"storage.media_util_ppm below 100000 for 2 while core.ring_depth.f1 above 4"`.
    ///
    /// # Errors
    ///
    /// A [`RuleParseError`] naming the first token that does not fit the
    /// grammar.
    pub fn parse(text: &str) -> Result<SloRule, RuleParseError> {
        fn cond<'a>(
            toks: &mut impl Iterator<Item = &'a str>,
            series_what: &'static str,
            threshold_what: &'static str,
        ) -> Result<Condition, RuleParseError> {
            let series = toks
                .next()
                .ok_or(RuleParseError::Missing(series_what))?
                .to_string();
            let cmp = match toks.next() {
                Some("above") | Some(">") => Cmp::Above,
                Some("below") | Some("<") => Cmp::Below,
                other => return Err(RuleParseError::BadComparator(other.map(str::to_string))),
            };
            let text = toks.next().ok_or(RuleParseError::Missing(threshold_what))?;
            let threshold = text.parse::<u64>().map_err(|_| RuleParseError::BadNumber {
                what: threshold_what,
                text: text.to_string(),
            })?;
            Ok(Condition {
                series,
                cmp,
                threshold,
            })
        }
        let mut toks = text.split_whitespace();
        let primary = cond(&mut toks, "primary series name", "primary threshold")?;
        let consecutive = match toks.next() {
            Some("for") => {
                let text = toks
                    .next()
                    .ok_or(RuleParseError::Missing("window count after `for`"))?;
                let k = text.parse::<u32>().map_err(|_| RuleParseError::BadNumber {
                    what: "window count",
                    text: text.to_string(),
                })?;
                if k == 0 {
                    return Err(RuleParseError::ZeroWindowCount);
                }
                k
            }
            None => 1,
            Some(other) => {
                return Err(RuleParseError::BadKeyword {
                    expected: "for",
                    found: other.to_string(),
                })
            }
        };
        let guard = match toks.next() {
            Some("while") => Some(cond(&mut toks, "guard series name", "guard threshold")?),
            None => None,
            Some(other) => {
                return Err(RuleParseError::BadKeyword {
                    expected: "while",
                    found: other.to_string(),
                })
            }
        };
        if let Some(extra) = toks.next() {
            return Err(RuleParseError::TrailingToken(extra.to_string()));
        }
        Ok(SloRule {
            name: text.to_string(),
            primary,
            consecutive,
            guard,
        })
    }
}

impl fmt::Display for SloRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} for {}",
            self.primary.series,
            self.primary.cmp.as_str(),
            self.primary.threshold,
            self.consecutive
        )?;
        if let Some(g) = &self.guard {
            write!(f, " while {} {} {}", g.series, g.cmp.as_str(), g.threshold)?;
        }
        Ok(())
    }
}

/// One deterministic anomaly: a rule's condition held for its required
/// streak of consecutive windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyEvent {
    /// Name of the firing rule.
    pub rule: String,
    /// Index of the firing rule in the watchdog's registration order —
    /// joins against the `rule` attribute on the `telemetry:anomaly` span
    /// and the flight ring's anomaly marker.
    pub rule_index: usize,
    /// The firing rule's canonical source text
    /// (`<series> above|below <N> for <K> [while ...]`), so consumers
    /// don't have to re-derive which rule fired.
    pub text: String,
    /// The primary series that breached.
    pub series: String,
    /// Index of the window that completed the streak.
    pub window: u64,
    /// Simulated time of that window's end.
    pub at: SimTime,
    /// Simulated start of the streak's first window.
    pub start: SimTime,
    /// The primary series' value in that window.
    pub value: u64,
    /// The primary condition's threshold.
    pub threshold: u64,
    /// Length of the completed streak.
    pub consecutive: u32,
}

/// Evaluates [`SloRule`]s against a [`Sampler`] at every window close,
/// tracking per-rule streaks and emitting [`AnomalyEvent`]s when a streak
/// completes.
///
/// A watchdog evaluates against one sampler. Rule series are resolved to
/// [`SeriesId`]s at the first evaluation and again whenever the sampler's
/// series count has grown or a rule was added since, so a rule may name a
/// series registered later (a disk attached mid-run) and starts matching
/// once it exists; a series that never exists never fires.
///
/// A window costs O(rules it touches), not O(rules): a rule none of whose
/// series was sampled non-zero reads 0 everywhere, so unless it holds on
/// 0 (a `below` primary, say) it fails — and if its streak is already 0,
/// failing changes nothing. Each window evaluates, in rule order, the
/// rules on a series sampled non-zero, the rules with a running streak
/// and the rules that hold on 0.
#[derive(Debug, Clone, Default)]
pub struct SloWatchdog {
    rules: Vec<SloRule>,
    streaks: Vec<u32>,
    /// Per rule, its primary and guard series ids (parallel to `rules`).
    resolved: Vec<RuleIds>,
    /// The sampler's series count when `resolved` was filled; `None`
    /// until the first evaluation and after every `add_rule`.
    resolved_for: Option<usize>,
    /// The rules reading series `id` are
    /// `rule_list[rule_start[id]..rule_start[id + 1]]`, ascending (both
    /// filled with `resolved`).
    rule_start: Vec<usize>,
    rule_list: Vec<usize>,
    /// Rules that hold in a window where their series all read 0.
    zero_holding: Vec<usize>,
    /// Rules whose streak is above 0, ascending.
    streaking: Vec<usize>,
    /// The rules due in the window being evaluated (capacity retained).
    due: Vec<usize>,
    /// Rule evaluations so far (a report-only work count).
    evaluated: u64,
    anomalies: Vec<AnomalyEvent>,
}

/// A rule's series, resolved by name (`None`: not registered).
#[derive(Debug, Clone, Copy)]
struct RuleIds {
    primary: Option<SeriesId>,
    guard: Option<SeriesId>,
}

impl SloWatchdog {
    /// A watchdog with no rules.
    pub fn new() -> Self {
        SloWatchdog::default()
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, rule: SloRule) {
        self.rules.push(rule);
        self.streaks.push(0);
        self.resolved_for = None;
    }

    /// The registered rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Rule evaluations so far: the watchdog's deterministic work count.
    pub fn rules_evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Resolves every rule's series and indexes the rules by series.
    fn resolve(&mut self, sampler: &Sampler) {
        self.resolved = self
            .rules
            .iter()
            .map(|r| RuleIds {
                primary: sampler.series_id(&r.primary.series),
                guard: r.guard.as_ref().and_then(|g| sampler.series_id(&g.series)),
            })
            .collect();
        // (series, rule) per condition, sorted: the index's entries.
        let mut reads = Vec::new();
        for (i, ids) in self.resolved.iter().enumerate() {
            for id in [ids.primary, ids.guard].into_iter().flatten() {
                reads.push((id.0, i));
            }
        }
        reads.sort_unstable();
        self.rule_list = reads.iter().map(|&(_, i)| i).collect();
        self.rule_start = (0..=sampler.series.len())
            .map(|id| reads.partition_point(|&(at, _)| at < id))
            .collect();
        self.zero_holding = (self.rules.iter().enumerate())
            .filter(|(_, r)| {
                r.primary.holds_on_zero() && r.guard.as_ref().is_none_or(Condition::holds_on_zero)
            })
            .map(|(i, _)| i)
            .collect();
        self.resolved_for = Some(sampler.series.len());
    }

    /// Evaluates the rules against the most recently closed window.
    /// Call once per window close, after its series are sampled. When a
    /// rule's streak reaches its `consecutive` target the anomaly is
    /// recorded once (the streak keeps counting, so a second anomaly for
    /// the same rule requires the condition to lapse and persist again)
    /// (the telemetry subsystem reports it to the probe, which records
    /// the `telemetry:anomaly` span over the whole breached stretch).
    pub fn evaluate(&mut self, sampler: &Sampler) {
        let Some(window) = sampler.closed_windows().checked_sub(1) else {
            return;
        };
        let at = sampler.window_end(window);
        if self.resolved_for != Some(sampler.series.len()) {
            self.resolve(sampler);
        }
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        due.append(&mut self.streaking);
        due.extend_from_slice(&self.zero_holding);
        for id in &sampler.nonzero_ids {
            if let Some(&[lo, hi]) = self.rule_start.get(id.0..id.0 + 2) {
                due.extend_from_slice(&self.rule_list[lo..hi]);
            }
        }
        due.sort_unstable();
        // `dedup_by_key`, not `dedup`: nesc-lint's call graph would resolve
        // the latter to `Filesystem::dedup`.
        due.dedup_by_key(|i| *i);
        self.evaluated += due.len() as u64;
        for &i in &due {
            let (rule, ids) = (&self.rules[i], self.resolved[i]);
            let value = rule
                .primary
                .holds(sampler, ids.primary, window)
                .filter(|_| {
                    rule.guard
                        .as_ref()
                        .is_none_or(|g| g.holds(sampler, ids.guard, window).is_some())
                });
            let Some(v) = value else {
                self.streaks[i] = 0;
                continue;
            };
            self.streaks[i] += 1;
            self.streaking.push(i);
            if self.streaks[i] == rule.consecutive {
                self.anomalies.push(AnomalyEvent {
                    rule: rule.name.clone(),
                    rule_index: i,
                    text: rule.to_string(),
                    series: rule.primary.series.clone(),
                    window,
                    at,
                    start: sampler.window_start(window + 1 - u64::from(rule.consecutive)),
                    value: v,
                    threshold: rule.primary.threshold,
                    consecutive: rule.consecutive,
                });
            }
        }
        self.due = due;
    }

    /// All anomalies recorded so far, in emission order.
    pub fn anomalies(&self) -> &[AnomalyEvent] {
        &self.anomalies
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Every series sorted by name — the column order of every exporter.
fn by_name(sampler: &Sampler) -> Vec<TimeSeries<'_>> {
    let mut cols: Vec<TimeSeries<'_>> = sampler.series().collect();
    cols.sort_by(|a, b| a.name().cmp(b.name()));
    cols
}

/// Serializes every series as JSON: the interval, windows closed, and per
/// series (sorted by name) its kind, unit, first retained window and the
/// retained samples. All values are integers, so the output is byte-stable
/// for a deterministic run.
pub fn series_json(sampler: &Sampler) -> serde_json::Value {
    let series: Vec<serde_json::Value> = by_name(sampler)
        .into_iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name(),
                "unit": s.unit(),
                "kind": s.kind().as_str(),
                "first_window": s.first_window(),
                "samples": s.samples().map(|(_, v)| v).collect::<Vec<u64>>(),
            })
        })
        .collect();
    serde_json::json!({
        "interval_ns": sampler.interval().as_nanos(),
        "windows": sampler.closed_windows(),
        "series": series,
    })
}

/// Renders every series as CSV: one row per retained window
/// (`window,end_ns` then one column per series, sorted by name; windows a
/// series no longer retains render as empty cells).
pub fn series_csv(sampler: &Sampler) -> String {
    let cols = by_name(sampler);
    let mut out = String::from("window,end_ns");
    for c in &cols {
        out.push(',');
        out.push_str(c.name());
    }
    out.push('\n');
    let first = cols.iter().map(|c| c.first_window()).min().unwrap_or(0);
    // One cursor per column, each walking its series once.
    let mut cursors: Vec<_> = cols.iter().map(|c| c.samples().peekable()).collect();
    for w in first..sampler.closed_windows() {
        out.push_str(&format!("{w},{}", sampler.window_end(w).as_nanos()));
        for cursor in &mut cursors {
            out.push(',');
            if let Some((_, v)) = cursor.next_if(|&(at, _)| at == w) {
                out.push_str(&v.to_string());
            }
        }
        out.push('\n');
    }
    out
}

/// Appends Perfetto counter tracks (`ph:"C"`) to an existing Chrome-trace
/// document (as produced by [`chrome_trace_json`]) so span swimlanes and
/// telemetry time series open in one Perfetto view: one track per series
/// of `series`, a [`series_json`] document — from a live sampler or
/// carried by a forensic dump — with one event per retained window,
/// timestamped at the window's end. No-op if the document has no
/// `traceEvents` array or `series` is not such a document.
///
/// [`chrome_trace_json`]: crate::trace::chrome_trace_json
pub fn merge_counter_tracks(doc: &mut serde_json::Value, series: &serde_json::Value) {
    let (Some(serde_json::Value::Array(events)), Some(interval), Some(all)) = (
        doc.get_mut("traceEvents"),
        series
            .get("interval_ns")
            .and_then(serde_json::Value::as_u64),
        series.get("series").and_then(serde_json::Value::as_array),
    ) else {
        return;
    };
    for s in all {
        let (Some(name), Some(first), Some(samples)) = (
            s.get("name").and_then(serde_json::Value::as_str),
            s.get("first_window").and_then(serde_json::Value::as_u64),
            s.get("samples").and_then(serde_json::Value::as_array),
        ) else {
            continue;
        };
        for (w, v) in (first..).zip(samples) {
            events.push(serde_json::json!({
                "name": name,
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": ((w + 1) * interval) as f64 / 1_000.0,
                "args": { "value": v },
            }));
        }
    }
}

/// A stable FNV-1a hash over the full JSON export — the section hash the
/// divergence self-check folds in so two same-seed runs must agree on
/// every retained sample of every series.
pub fn digest_hash(sampler: &Sampler) -> u64 {
    let json = serde_json::to_string(&series_json(sampler)).expect("series serialize");
    fnv1a(json.as_bytes())
}

#[cfg(test)]
pub(crate) mod reference {
    //! Reference model for the row log: the sampler as it was with one
    //! ring of `(window, value)` pairs per series, each evicted lazily at
    //! its next push. The tests require the row log to agree with it on
    //! every accessor and exporter.

    use super::{SeriesKind, SimDuration, SimTime};
    use std::collections::VecDeque;

    #[derive(Debug)]
    struct SeriesRing {
        name: String,
        unit: &'static str,
        kind: SeriesKind,
        registered: u64,
        nonzero: VecDeque<(u64, u64)>,
        last_raw: u64,
    }

    /// A borrowed view of one ring.
    #[derive(Debug, Clone, Copy)]
    pub struct TimeSeries<'a> {
        ring: &'a SeriesRing,
        closed: u64,
        capacity: u64,
    }

    impl<'a> TimeSeries<'a> {
        pub fn name(self) -> &'a str {
            &self.ring.name
        }

        pub fn len(self) -> usize {
            (self.closed - self.first_window()) as usize
        }

        pub fn first_window(self) -> u64 {
            let floor = self.closed.saturating_sub(self.capacity);
            self.ring.registered.max(floor)
        }

        pub fn samples(self) -> impl Iterator<Item = (u64, u64)> + 'a {
            let first = self.first_window();
            let mut stored = (self.ring.nonzero.iter())
                .skip_while(move |&&(w, _)| w < first)
                .peekable();
            (first..self.closed).map(move |w| {
                let v = stored.next_if(|&&(at, _)| at == w).map_or(0, |&(_, v)| v);
                (w, v)
            })
        }

        pub fn value_at(self, window: u64) -> Option<u64> {
            if window < self.first_window() || window >= self.closed {
                return None;
            }
            let stored = &self.ring.nonzero;
            let found = stored.binary_search_by_key(&window, |&(w, _)| w);
            Some(found.map_or(0, |i| stored[i].1))
        }

        pub fn latest(self) -> Option<(u64, u64)> {
            let w = self.closed.checked_sub(1)?;
            self.value_at(w).map(|v| (w, v))
        }
    }

    /// The per-series-ring sampler (ids are indices into `series`).
    #[derive(Debug)]
    pub struct Sampler {
        interval: SimDuration,
        capacity: usize,
        series: Vec<SeriesRing>,
        next_close: SimTime,
        closed: u64,
    }

    impl Sampler {
        pub fn new(interval: SimDuration, capacity: usize) -> Self {
            Sampler {
                interval,
                capacity,
                series: Vec::new(),
                next_close: SimTime::ZERO + interval,
                closed: 0,
            }
        }

        pub fn interval(&self) -> SimDuration {
            self.interval
        }

        pub fn closed_windows(&self) -> u64 {
            self.closed
        }

        pub fn register(&mut self, name: &str, unit: &'static str, kind: SeriesKind) -> usize {
            self.series.push(SeriesRing {
                name: name.to_string(),
                unit,
                kind,
                registered: self.closed,
                nonzero: VecDeque::new(),
                last_raw: 0,
            });
            self.series.len() - 1
        }

        pub fn rebase(&mut self, id: usize, raw: u64) {
            self.series[id].last_raw = raw;
        }

        pub fn due(&mut self, now: SimTime) -> Option<SimTime> {
            let end = Some(self.next_close).filter(|&end| end <= now)?;
            self.next_close = end + self.interval;
            self.closed += 1;
            Some(end)
        }

        pub fn sample(&mut self, id: usize, raw: u64) -> u64 {
            let window = self.closed - 1;
            let s = &mut self.series[id];
            let value = match s.kind {
                SeriesKind::Gauge => raw,
                SeriesKind::Counter => raw.saturating_sub(s.last_raw),
            };
            s.last_raw = raw;
            if value == 0 {
                return 0;
            }
            let floor = self.closed.saturating_sub(self.capacity as u64);
            while s.nonzero.front().is_some_and(|&(w, _)| w < floor) {
                s.nonzero.pop_front();
            }
            s.nonzero.push_back((window, value));
            value
        }

        pub fn series(&self) -> impl Iterator<Item = TimeSeries<'_>> + '_ {
            self.series.iter().map(|ring| TimeSeries {
                ring,
                closed: self.closed,
                capacity: self.capacity as u64,
            })
        }

        pub fn get(&self, id: usize) -> TimeSeries<'_> {
            self.series().nth(id).expect("registered series")
        }
    }

    fn by_name(sampler: &Sampler) -> Vec<TimeSeries<'_>> {
        let mut cols: Vec<TimeSeries<'_>> = sampler.series().collect();
        cols.sort_by(|a, b| a.name().cmp(b.name()));
        cols
    }

    pub fn series_json(sampler: &Sampler) -> serde_json::Value {
        let series: Vec<serde_json::Value> = by_name(sampler)
            .into_iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name(),
                    "unit": s.ring.unit,
                    "kind": s.ring.kind.as_str(),
                    "first_window": s.first_window(),
                    "samples": s.samples().map(|(_, v)| v).collect::<Vec<u64>>(),
                })
            })
            .collect();
        serde_json::json!({
            "interval_ns": sampler.interval.as_nanos(),
            "windows": sampler.closed,
            "series": series,
        })
    }

    pub fn series_csv(sampler: &Sampler) -> String {
        let cols = by_name(sampler);
        let mut out = String::from("window,end_ns");
        for c in &cols {
            out.push(',');
            out.push_str(c.name());
        }
        out.push('\n');
        let first = cols.iter().map(|c| c.first_window()).min().unwrap_or(0);
        let mut cursors: Vec<_> = cols.iter().map(|c| c.samples().peekable()).collect();
        for w in first..sampler.closed {
            let end = SimTime::ZERO + sampler.interval * (w + 1);
            out.push_str(&format!("{w},{}", end.as_nanos()));
            for cursor in &mut cursors {
                out.push(',');
                if let Some((_, v)) = cursor.next_if(|&(at, _)| at == w) {
                    out.push_str(&v.to_string());
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::trace::validate_chrome_trace;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn dur(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn windows_close_in_order_from_sim_time() {
        let mut s = Sampler::new(dur(100), 8);
        let g = s.register("g", "n", SeriesKind::Gauge);
        assert_eq!(s.due(t(99)), None, "window 0 not yet over");
        assert_eq!(s.due(t(100)), Some(t(100)), "boundary closes window 0");
        s.sample(g, 7);
        assert_eq!(s.due(t(100)), None, "window 1 runs to 200");
        // A long idle stretch closes several windows, one due() each.
        assert_eq!(s.due(t(450)), Some(t(200)));
        s.sample(g, 8);
        assert_eq!(s.due(t(450)), Some(t(300)));
        s.sample(g, 8);
        assert_eq!(s.due(t(450)), Some(t(400)));
        s.sample(g, 9);
        assert_eq!(s.due(t(450)), None);
        assert_eq!(s.closed_windows(), 4);
        let ring = s.series_by_name("g").unwrap();
        assert_eq!(
            ring.samples().collect::<Vec<_>>(),
            vec![(0, 7), (1, 8), (2, 8), (3, 9)]
        );
    }

    #[test]
    fn counters_store_deltas_and_gauges_store_raw() {
        let mut s = Sampler::new(dur(10), 8);
        let c = s.register("c", "ops", SeriesKind::Counter);
        let g = s.register("g", "n", SeriesKind::Gauge);
        // Each sample returns what it committed.
        for (now, raw, delta) in [(10u64, 5u64, 5u64), (20, 5, 0), (30, 12, 7)] {
            assert!(s.due(t(now)).is_some());
            assert_eq!(s.sample(c, raw), delta);
            assert_eq!(s.sample(g, raw), raw);
        }
        let c = s.series_by_name("c").unwrap();
        assert_eq!(
            c.samples().map(|(_, v)| v).collect::<Vec<_>>(),
            vec![5, 0, 7],
            "counter deltas"
        );
        let g = s.series_by_name("g").unwrap();
        assert_eq!(
            g.samples().map(|(_, v)| v).collect::<Vec<_>>(),
            vec![5, 5, 12],
            "gauge raws"
        );
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_window_indices() {
        let mut s = Sampler::new(dur(10), 3);
        let g = s.register("g", "n", SeriesKind::Gauge);
        for w in 0..5u64 {
            assert!(s.due(t((w + 1) * 10)).is_some());
            s.sample(g, w * 100);
        }
        let ring = s.series_by_name("g").unwrap();
        assert_eq!(ring.first_window(), 2);
        assert_eq!(ring.value_at(1), None, "evicted");
        assert_eq!(ring.value_at(2), Some(200));
        assert_eq!(ring.latest(), Some((4, 400)));
    }

    #[test]
    fn late_registration_starts_at_current_window() {
        let mut s = Sampler::new(dur(10), 8);
        let a = s.register("a", "n", SeriesKind::Gauge);
        for w in 0..2u64 {
            assert!(s.due(t((w + 1) * 10)).is_some());
            s.sample(a, w);
        }
        // Registered after two closed windows: its ring starts at window 2.
        let b = s.register("b", "ops", SeriesKind::Counter);
        assert!(s.due(t(30)).is_some());
        s.sample(a, 2);
        s.sample(b, 40);
        let ring = s.series_by_name("b").unwrap();
        assert_eq!(ring.first_window(), 2);
        assert_eq!(ring.samples().collect::<Vec<_>>(), vec![(2, 40)]);
        assert_eq!(ring.value_at(1), None);
    }

    #[test]
    fn next_close_is_the_end_of_the_oldest_unclosed_window() {
        let mut s = Sampler::new(dur(25), 8);
        assert_eq!(s.next_close(), t(25));
        assert_eq!(s.next_close(), s.window_end(0));
        // A close moves it by one interval; a refused `due` leaves it.
        assert_eq!(s.due(t(24)), None);
        assert_eq!(s.next_close(), t(25));
        assert_eq!(s.due(t(60)), Some(t(25)));
        assert_eq!(s.next_close(), t(50));
        assert_eq!(s.due(t(60)), Some(t(50)));
        assert_eq!(s.due(t(60)), None);
        assert_eq!(s.next_close(), t(75));
        assert_eq!(s.next_close(), s.window_end(s.closed_windows()));
    }

    #[test]
    fn rebase_sets_the_baseline_of_the_next_counter_delta() {
        let mut s = Sampler::new(dur(10), 8);
        let c = s.register("c", "ops", SeriesKind::Counter);
        let g = s.register("g", "n", SeriesKind::Gauge);
        // An owner attaching mid-run: 100 ops happened before it.
        s.rebase(c, 100);
        s.rebase(g, 100);
        assert!(s.due(t(10)).is_some());
        s.sample(c, 130);
        s.sample(g, 7);
        assert!(s.due(t(20)).is_some());
        s.sample(c, 131);
        s.sample(g, 7);
        // A rebase between windows re-anchors the delta.
        s.rebase(c, 200);
        assert!(s.due(t(30)).is_some());
        s.sample(c, 205);
        let counter = s.series_by_name("c").unwrap();
        assert_eq!(
            counter.samples().collect::<Vec<_>>(),
            vec![(0, 30), (1, 1), (2, 5)]
        );
        let gauge = s.series_by_name("g").unwrap();
        assert_eq!(
            gauge.samples().collect::<Vec<_>>(),
            vec![(0, 7), (1, 7), (2, 0)],
            "a gauge stores raw values whatever its baseline"
        );
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn a_next_close_past_the_end_of_time_panics() {
        let mut s = Sampler::new(dur(u64::MAX / 2 + 1), 8);
        // Closing window 0 would schedule window 1's close past u64::MAX.
        let _ = s.due(t(u64::MAX));
    }

    proptest::proptest! {
        /// However far apart the owner's `due` loops run, they close
        /// exactly the windows ended by each `now`, in order, each at
        /// `window_end`, and a counter sampled with one cumulative raw per
        /// loop books the whole delta once.
        #[test]
        fn prop_due_closes_exactly_the_windows_ended_by_now(
            interval in 1u64..300,
            steps in proptest::collection::vec((0u64..900, 0u64..50), 1..40),
        ) {
            let mut s = Sampler::new(dur(interval), 1 << 16);
            let c = s.register("c", "ops", SeriesKind::Counter);
            let (mut now, mut raw, mut last_sampled) = (0u64, 0u64, 0u64);
            for &(gap, ops) in &steps {
                now += gap;
                raw += ops;
                let before = s.closed_windows();
                let mut ends = Vec::new();
                while let Some(end) = s.due(t(now)) {
                    ends.push(end);
                    s.sample(c, raw);
                    last_sampled = raw;
                }
                let after = now / interval;
                proptest::prop_assert_eq!(s.closed_windows(), after);
                let want: Vec<SimTime> = (before..after).map(|w| t((w + 1) * interval)).collect();
                proptest::prop_assert_eq!(ends, want);
                proptest::prop_assert_eq!(s.next_close(), t((after + 1) * interval));
            }
            let booked: u64 = s.series_by_name("c").unwrap().samples().map(|(_, v)| v).sum();
            proptest::prop_assert_eq!(booked, last_sampled);
        }
    }

    #[test]
    fn utilization_ppm_scales_and_clamps() {
        assert_eq!(utilization_ppm(dur(50), dur(100)), 500_000);
        assert_eq!(utilization_ppm(dur(200), dur(100)), 1_000_000, "clamped");
        assert_eq!(utilization_ppm(dur(0), dur(100)), 0);
        assert_eq!(utilization_ppm(dur(1), SimDuration::ZERO), 0);
    }

    #[test]
    fn rule_grammar_round_trips() {
        let r = SloRule::parse("hv.vf1.p99_ns above 40000 for 3").unwrap();
        assert_eq!(r.primary.series, "hv.vf1.p99_ns");
        assert_eq!(r.primary.cmp, Cmp::Above);
        assert_eq!(r.primary.threshold, 40_000);
        assert_eq!(r.consecutive, 3);
        assert!(r.guard.is_none());

        let r = SloRule::parse(
            "storage.media_util_ppm below 100000 for 2 while core.ring_depth.f1 above 4",
        )
        .unwrap();
        assert_eq!(r.consecutive, 2);
        let g = r.guard.as_ref().unwrap();
        assert_eq!(g.series, "core.ring_depth.f1");
        assert_eq!(g.cmp, Cmp::Above);
        assert_eq!(g.threshold, 4);
        assert_eq!(
            r.to_string(),
            "storage.media_util_ppm below 100000 for 2 while core.ring_depth.f1 above 4"
        );

        // `for` defaults to 1 window.
        assert_eq!(SloRule::parse("x above 1").unwrap().consecutive, 1);
        assert!(SloRule::parse("x sideways 1").is_err());
        assert!(SloRule::parse("x above 1 for 0").is_err());
        assert!(SloRule::parse("x above 1 for 2 whilst y above 1").is_err());
        assert!(SloRule::parse("x above nope").is_err());
    }

    #[test]
    fn watchdog_fires_after_consecutive_windows_only() {
        let mut s = Sampler::new(dur(10), 16);
        let g = s.register("lat", "ns", SeriesKind::Gauge);
        let mut wd = SloWatchdog::new();
        wd.add_rule(SloRule::parse("lat above 100 for 3").unwrap());
        // Two hot windows, one cool (streak resets), then three hot.
        let values = [150u64, 150, 50, 200, 200, 200, 200];
        for (w, &v) in values.iter().enumerate() {
            assert!(s.due(t((w as u64 + 1) * 10)).is_some());
            s.sample(g, v);
            wd.evaluate(&s);
        }
        let anomalies = wd.anomalies();
        assert_eq!(anomalies.len(), 1, "fires once per completed streak");
        let a = &anomalies[0];
        assert_eq!(a.window, 5, "third consecutive hot window");
        assert_eq!(a.at, t(60));
        assert_eq!(a.start, t(30), "the streak began with window 3");
        assert_eq!(a.value, 200);
        assert_eq!(a.threshold, 100);
    }

    #[test]
    fn watchdog_guard_must_also_hold() {
        let mut s = Sampler::new(dur(10), 16);
        let util = s.register("util", "ppm", SeriesKind::Gauge);
        let depth = s.register("depth", "n", SeriesKind::Gauge);
        let mut wd = SloWatchdog::new();
        wd.add_rule(SloRule::parse("util below 1000 for 2 while depth above 3").unwrap());
        // Window 0: util low but queue empty -> guard fails, no streak.
        // Windows 1-2: util low AND deep queue -> anomaly at window 2.
        for (w, (u, d)) in [(500u64, 0u64), (500, 8), (500, 8)].iter().enumerate() {
            assert!(s.due(t((w as u64 + 1) * 10)).is_some());
            s.sample(util, *u);
            s.sample(depth, *d);
            wd.evaluate(&s);
        }
        assert_eq!(wd.anomalies().len(), 1);
        assert_eq!(wd.anomalies()[0].window, 2);
    }

    #[test]
    fn watchdog_on_missing_series_never_fires() {
        let mut s = Sampler::new(dur(10), 4);
        let g = s.register("g", "n", SeriesKind::Gauge);
        let mut wd = SloWatchdog::new();
        wd.add_rule(SloRule::parse("nonexistent above 0 for 1").unwrap());
        assert!(s.due(t(10)).is_some());
        s.sample(g, 1);
        wd.evaluate(&s);
        assert!(wd.anomalies().is_empty());
    }

    #[test]
    fn watchdog_matches_series_registered_after_windows_closed() {
        let mut s = Sampler::new(dur(10), 4);
        let a = s.register("a", "n", SeriesKind::Gauge);
        let mut wd = SloWatchdog::new();
        wd.add_rule(SloRule::parse("late above 5 for 1").unwrap());
        for w in 0..2u64 {
            assert!(s.due(t((w + 1) * 10)).is_some());
            s.sample(a, 9);
            wd.evaluate(&s);
        }
        assert!(wd.anomalies().is_empty(), "no series, no anomaly");
        // A disk attaching mid-run registers its series late; the rule
        // installed before it existed starts matching from then on.
        let late = s.register("late", "n", SeriesKind::Gauge);
        assert!(s.due(t(30)).is_some());
        s.sample(a, 9);
        s.sample(late, 9);
        wd.evaluate(&s);
        assert_eq!(wd.anomalies().len(), 1);
        assert_eq!(wd.anomalies()[0].series, "late");
        assert_eq!(wd.anomalies()[0].window, 2);
    }

    #[test]
    fn series_by_name_returns_first_registration() {
        let mut s = Sampler::new(dur(10), 4);
        let first = s.register("dup", "first", SeriesKind::Gauge);
        // Debug builds reject the duplicate before touching the sampler;
        // release builds register it, and lookups keep the first one.
        let dup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.register("dup", "second", SeriesKind::Counter)
        }));
        assert_eq!(dup.is_err(), cfg!(debug_assertions));
        assert_eq!(s.series_id("dup"), Some(first));
        assert_eq!(s.series_by_name("dup").map(TimeSeries::unit), Some("first"));
        assert_eq!(s.series_id("missing"), None);
        // Release builds keep the duplicate as a series of its own, which
        // no lookup reaches; a later name gets the next id.
        let units: Vec<_> = s.series().map(TimeSeries::unit).collect();
        let want: &[&str] = if cfg!(debug_assertions) {
            &["first"]
        } else {
            &["first", "second"]
        };
        assert_eq!(units, want);
        let later = s.register("later", "ns", SeriesKind::Gauge);
        assert_eq!(s.series_id("later"), Some(later));
        assert_eq!(later, SeriesId(want.len()));
    }

    /// Names whose hashes collide share a chain, and each still resolves
    /// to its own first registration.
    #[test]
    fn colliding_names_resolve_along_their_chain() {
        let (mut index, mut names) = (NameIndex::default(), Vec::new());
        for name in ["a", "b", "a", "c"] {
            index.push_hashed(&names, 7, name);
            names.push(SeriesName {
                name: name.into(),
                unit: "ops",
            });
        }
        for (name, id) in [("a", 0), ("b", 1), ("c", 3)] {
            assert_eq!(index.find(&names, 7, name), Some(SeriesId(id)), "{name}");
            assert_eq!(
                index.find(&names, 8, name),
                None,
                "{name} under another hash"
            );
        }
        assert_eq!(index.find(&names, 7, "d"), None);
    }

    /// The hashed index finds each of 20 000 distinct names at its own
    /// id, and no name that was never registered.
    #[test]
    fn the_index_finds_every_registered_name() {
        let mut s = Sampler::new(dur(10), 4);
        let name = |i: usize| {
            format!(
                "hv.vf{}.{}",
                i / 4,
                ["requests", "bytes", "p50_ns", "p99_ns"][i % 4]
            )
        };
        let ids: Vec<_> = (0..20_000)
            .map(|i| s.register(&name(i), "ops", SeriesKind::Counter))
            .collect();
        for (i, id) in ids.into_iter().enumerate() {
            assert_eq!(s.series_id(&name(i)), Some(id));
        }
        assert_eq!(s.series_id(&name(20_000)), None);
        assert_eq!(s.series_id("hv.vf1"), None);
    }

    /// What the reference evaluator reads of a sampler: the row log's or
    /// the reference model's.
    trait Windowed {
        fn closed_windows(&self) -> u64;
        fn interval(&self) -> SimDuration;
        /// Series `series`' value in `window`, found by a scan by name.
        fn value(&self, series: &str, window: u64) -> Option<u64>;
    }

    impl Windowed for Sampler {
        fn closed_windows(&self) -> u64 {
            Sampler::closed_windows(self)
        }

        fn interval(&self) -> SimDuration {
            Sampler::interval(self)
        }

        fn value(&self, series: &str, window: u64) -> Option<u64> {
            self.series().find(|s| s.name() == series)?.value_at(window)
        }
    }

    impl Windowed for reference::Sampler {
        fn closed_windows(&self) -> u64 {
            reference::Sampler::closed_windows(self)
        }

        fn interval(&self) -> SimDuration {
            reference::Sampler::interval(self)
        }

        fn value(&self, series: &str, window: u64) -> Option<u64> {
            self.series().find(|s| s.name() == series)?.value_at(window)
        }
    }

    /// Reference evaluator: the watchdog as it was before rules resolved
    /// to series ids, scanning the series table by name for every
    /// condition in every window.
    #[derive(Default)]
    struct NameScanWatchdog {
        rules: Vec<SloRule>,
        streaks: Vec<u32>,
        anomalies: Vec<AnomalyEvent>,
    }

    impl NameScanWatchdog {
        fn add_rule(&mut self, rule: SloRule) {
            self.rules.push(rule);
            self.streaks.push(0);
        }

        fn holds(sampler: &impl Windowed, c: &Condition, window: u64) -> Option<u64> {
            let v = sampler.value(&c.series, window)?;
            c.cmp.test(v, c.threshold).then_some(v)
        }

        fn evaluate(&mut self, sampler: &impl Windowed) {
            let Some(window) = sampler.closed_windows().checked_sub(1) else {
                return;
            };
            for (i, rule) in self.rules.iter().enumerate() {
                let value = Self::holds(sampler, &rule.primary, window).filter(|_| {
                    rule.guard
                        .as_ref()
                        .is_none_or(|g| Self::holds(sampler, g, window).is_some())
                });
                let Some(v) = value else {
                    self.streaks[i] = 0;
                    continue;
                };
                self.streaks[i] += 1;
                if self.streaks[i] == rule.consecutive {
                    self.anomalies.push(AnomalyEvent {
                        rule: rule.name.clone(),
                        rule_index: i,
                        text: rule.to_string(),
                        series: rule.primary.series.clone(),
                        window,
                        at: SimTime::ZERO + sampler.interval() * (window + 1),
                        start: SimTime::ZERO
                            + sampler.interval() * (window + 1 - u64::from(rule.consecutive)),
                        value: v,
                        threshold: rule.primary.threshold,
                        consecutive: rule.consecutive,
                    });
                }
            }
        }
    }

    /// Series `s0..s7` may be registered; `gone0`/`gone1` never are.
    fn gen_series_name(rng: &mut SimRng) -> String {
        match rng.range(0, 10) {
            k @ 0..=7 => format!("s{k}"),
            k => format!("gone{}", k - 8),
        }
    }

    fn gen_rule(rng: &mut SimRng) -> SloRule {
        let cond = |rng: &mut SimRng| {
            let cmp = if rng.range(0, 2) == 0 {
                "above"
            } else {
                "below"
            };
            format!("{} {cmp} {}", gen_series_name(rng), rng.range(0, 8))
        };
        let mut text = format!("{} for {}", cond(rng), rng.range(1, 4));
        if rng.range(0, 3) == 0 {
            text = format!("{text} while {}", cond(rng));
        }
        SloRule::parse(&text).expect("generated rule parses")
    }

    #[test]
    fn resolved_watchdog_matches_name_lookup() {
        // Which of the cases the generator is meant to reach were reached.
        let (mut guarded, mut late_series, mut late_rule) = (0, 0, 0);
        for seed in 0..64u64 {
            let mut rng = SimRng::seed(seed);
            let mut s = Sampler::new(dur(10), 4);
            let mut wd = SloWatchdog::new();
            let mut reference = NameScanWatchdog::default();
            // Rules come first, as `Telemetry::new` installs them before
            // any disk registers its series.
            let initial_rules = rng.range(0, 6) as usize;
            for _ in 0..initial_rules {
                let rule = gen_rule(&mut rng);
                wd.add_rule(rule.clone());
                reference.add_rule(rule);
            }
            let mut ids = Vec::new();
            let mut registered_at = [None; 8];
            for w in 0..24u64 {
                // Window 0 registers before any window closes; later
                // windows register late, like a disk attached mid-run.
                for (k, at) in registered_at.iter_mut().enumerate() {
                    if at.is_none() && rng.range(0, 4) == 0 {
                        let kind = if rng.range(0, 2) == 0 {
                            SeriesKind::Gauge
                        } else {
                            SeriesKind::Counter
                        };
                        ids.push(s.register(&format!("s{k}"), "n", kind));
                        *at = Some(w);
                    }
                }
                assert!(s.due(t((w + 1) * 10)).is_some());
                for &id in &ids {
                    s.sample(id, rng.range(0, 10));
                }
                if rng.range(0, 5) == 0 {
                    let rule = gen_rule(&mut rng);
                    wd.add_rule(rule.clone());
                    reference.add_rule(rule);
                }
                wd.evaluate(&s);
                reference.evaluate(&s);
                assert_eq!(
                    wd.anomalies(),
                    reference.anomalies,
                    "seed {seed} window {w}"
                );
            }
            for a in wd.anomalies() {
                assert!(a.series.starts_with('s'), "missing series fired: {a:?}");
                let k: usize = a.series[1..].parse().unwrap();
                late_series += usize::from(registered_at[k].is_some_and(|w| w > 0));
                late_rule += usize::from(a.rule_index >= initial_rules);
                guarded += usize::from(wd.rules()[a.rule_index].guard.is_some());
            }
        }
        assert!(guarded > 0, "no guarded rule fired");
        assert!(late_series > 0, "no late-registered series fired");
        assert!(late_rule > 0, "no rule added after evaluation began fired");
    }

    #[test]
    fn sparse_sampling_matches_a_dense_twin() {
        // Which of the cases the generator is meant to reach were reached.
        let (mut late, mut evicted, mut catch_up) = (0, 0, 0);
        let (mut zero_primary, mut zero_guard) = (0, 0);
        for seed in 0..64u64 {
            let mut rng = SimRng::seed(seed);
            // The sparse sampler skips series that read 0; its dense twin
            // gets every series every window, the skipped ones as 0, and
            // is watched by the reference evaluator of every rule.
            let (mut sparse, mut dense) = (Sampler::new(dur(10), 4), Sampler::new(dur(10), 4));
            let mut wd = SloWatchdog::new();
            let mut reference = NameScanWatchdog::default();
            for _ in 0..rng.range(0, 6) {
                let rule = gen_rule(&mut rng);
                wd.add_rule(rule.clone());
                reference.add_rule(rule);
            }
            // Per registered series: id, kind, raw value, registration
            // window, and the raw the sparse sampler last saw; and the
            // value it should read in each window since registration.
            let mut series: Vec<(SeriesId, SeriesKind, u64, u64, u64)> = Vec::new();
            let mut truth: Vec<Vec<u64>> = Vec::new();
            let mut registered = [false; 8];
            let mut now = 0;
            while dense.closed_windows() < 24 {
                for (k, done) in registered.iter_mut().enumerate() {
                    if !*done && rng.range(0, 4) == 0 {
                        let kind = if rng.range(0, 2) == 0 {
                            SeriesKind::Gauge
                        } else {
                            SeriesKind::Counter
                        };
                        let name = format!("s{k}");
                        let id = sparse.register(&name, "n", kind);
                        assert_eq!(dense.register(&name, "n", kind), id);
                        series.push((id, kind, 0, dense.closed_windows(), 0));
                        truth.push(Vec::new());
                        *done = true;
                    }
                }
                // New raws, snapshotted once per poll: half the gauges read
                // 0, half the counters stand still.
                for (_, kind, raw, _, _) in &mut series {
                    let step = if rng.range(0, 2) == 0 {
                        0
                    } else {
                        rng.range(1, 10)
                    };
                    *raw = match kind {
                        SeriesKind::Gauge => step,
                        SeriesKind::Counter => *raw + step,
                    };
                }
                if rng.range(0, 5) == 0 {
                    let rule = gen_rule(&mut rng);
                    wd.add_rule(rule.clone());
                    reference.add_rule(rule);
                }
                // Mostly one window per poll; sometimes an idle stretch
                // closes several.
                now += 10
                    * if rng.range(0, 4) == 0 {
                        rng.range(2, 5)
                    } else {
                        1
                    };
                let mut closed = 0;
                while let Some(end) = sparse.due(t(now)) {
                    assert_eq!(dense.due(t(now)), Some(end));
                    closed += 1;
                    for ((id, kind, raw, _, seen), truth) in series.iter_mut().zip(&mut truth) {
                        dense.sample(*id, *raw);
                        let value = match kind {
                            SeriesKind::Gauge => *raw,
                            SeriesKind::Counter => *raw - *seen,
                        };
                        truth.push(value);
                        // A series that reads 0 may still be sampled.
                        if value != 0 || rng.range(0, 2) == 0 {
                            sparse.sample(*id, *raw);
                            *seen = *raw;
                        }
                    }
                    let fired = wd.anomalies().len();
                    wd.evaluate(&sparse);
                    reference.evaluate(&dense);
                    assert_eq!(wd.anomalies(), reference.anomalies, "seed {seed}");
                    for a in &wd.anomalies()[fired..] {
                        zero_primary += usize::from(a.value == 0);
                        let guard = wd.rules()[a.rule_index].guard.as_ref();
                        let guard = guard.and_then(|g| sparse.series_by_name(&g.series));
                        zero_guard +=
                            usize::from(guard.and_then(|g| g.value_at(a.window)) == Some(0));
                    }
                }
                catch_up += usize::from(closed > 1);
            }
            for (&(id, _, _, at, _), truth) in series.iter().zip(&truth) {
                // The last 4 windows since registration, zeros included.
                let kept = truth.len().saturating_sub(4);
                let first = at + kept as u64;
                let want: Vec<(u64, u64)> = (first..).zip(truth[kept..].iter().copied()).collect();
                let s = sparse.get(id).unwrap();
                assert_eq!(s.samples().collect::<Vec<_>>(), want, "seed {seed}");
                assert_eq!((s.first_window(), s.len()), (first, want.len()));
                assert_eq!(s.latest(), want.last().copied());
                for w in 0..25 {
                    let v = want.iter().find(|&&(at, _)| at == w).map(|&(_, v)| v);
                    assert_eq!(s.value_at(w), v, "seed {seed} window {w}");
                }
                late += usize::from(at > 0 && s.samples().any(|(_, v)| v > 0));
                evicted += usize::from(first > at);
            }
            assert_eq!(series_json(&sparse), series_json(&dense), "seed {seed}");
            assert_eq!(series_csv(&sparse), series_csv(&dense), "seed {seed}");
            assert!(
                sparse.samples_committed() < dense.samples_committed(),
                "seed {seed}: the sparse sampler skipped nothing"
            );
        }
        assert!(late > 0, "no late-registered series held a sample");
        assert!(evicted > 0, "no ring evicted a window");
        assert!(catch_up > 0, "no poll closed several windows");
        assert!(zero_primary > 0, "no rule fired on a primary reading 0");
        assert!(zero_guard > 0, "no rule fired on a guard reading 0");
    }

    proptest::proptest! {
        /// Random sequences of registrations, rebases, rules and polls run
        /// through the row log and the per-series-ring reference; after
        /// every operation both agree on every accessor, both exporters
        /// and the watchdog's anomalies. A poll may close several windows
        /// (an idle stretch); a closing window skips a series or samples
        /// it, a counter standing still (a zero delta) and a gauge reading
        /// 0 included.
        #[test]
        fn prop_row_log_matches_per_series_rings(
            capacity in 1usize..5,
            seed in 0u64..1 << 40,
            ops in proptest::collection::vec((0u8..6, 0u64..16, 0u64..12), 1..80),
        ) {
            let mut rng = SimRng::seed(seed);
            let mut log = Sampler::new(dur(10), capacity);
            let mut model = reference::Sampler::new(dur(10), capacity);
            let (mut wd, mut model_wd) = (SloWatchdog::new(), NameScanWatchdog::default());
            // Per registered series: its id, kind and raw probe value.
            let mut series: Vec<(SeriesId, SeriesKind, u64)> = Vec::new();
            let mut now = 0;
            for &(op, x, y) in &ops {
                match op {
                    0 if series.len() < 8 => {
                        let kind = [SeriesKind::Gauge, SeriesKind::Counter][x as usize % 2];
                        let name = format!("s{}", series.len());
                        let id = log.register(&name, "n", kind);
                        proptest::prop_assert_eq!(model.register(&name, "n", kind), id.0);
                        series.push((id, kind, 0));
                    }
                    1 if !series.is_empty() => {
                        let k = x as usize % series.len();
                        let (id, _, raw) = &mut series[k];
                        *raw = y;
                        log.rebase(*id, y);
                        model.rebase(id.0, y);
                    }
                    2 => {
                        let rule = gen_rule(&mut rng);
                        wd.add_rule(rule.clone());
                        model_wd.add_rule(rule);
                    }
                    _ => {
                        // Mostly within the window or into the next; from
                        // x = 12 on, an idle stretch of 2 to 5 windows.
                        now += if x < 12 { y } else { 10 * (x - 10) + y };
                        while let Some(end) = log.due(t(now)) {
                            proptest::prop_assert_eq!(model.due(t(now)), Some(end));
                            for (id, kind, raw) in &mut series {
                                match (rng.range(0, 4), *kind) {
                                    (0, _) => continue,
                                    (1, SeriesKind::Gauge) => *raw = 0,
                                    (1, SeriesKind::Counter) => {}
                                    (_, SeriesKind::Gauge) => *raw = rng.range(0, 4),
                                    (_, SeriesKind::Counter) => *raw += rng.range(0, 4),
                                }
                                proptest::prop_assert_eq!(log.sample(*id, *raw), model.sample(id.0, *raw));
                            }
                            wd.evaluate(&log);
                            model_wd.evaluate(&model);
                            proptest::prop_assert_eq!(wd.anomalies(), &model_wd.anomalies[..]);
                        }
                        proptest::prop_assert_eq!(model.due(t(now)), None);
                    }
                }
                for &(id, _, _) in &series {
                    let (a, b) = (log.get(id).unwrap(), model.get(id.0));
                    proptest::prop_assert_eq!(
                        a.samples().collect::<Vec<_>>(),
                        b.samples().collect::<Vec<_>>()
                    );
                    proptest::prop_assert_eq!(
                        (a.first_window(), a.len(), a.latest()),
                        (b.first_window(), b.len(), b.latest())
                    );
                    // Every retained window and one past each end.
                    for w in a.first_window().saturating_sub(1)..=log.closed_windows() {
                        proptest::prop_assert_eq!(a.value_at(w), b.value_at(w), "window {}", w);
                    }
                }
                proptest::prop_assert_eq!(
                    serde_json::to_string(&series_json(&log)).unwrap(),
                    serde_json::to_string(&reference::series_json(&model)).unwrap()
                );
                proptest::prop_assert_eq!(series_csv(&log), reference::series_csv(&model));
            }
        }
    }

    #[test]
    fn the_row_log_holds_only_the_non_zero_samples_of_retained_windows() {
        const CAPACITY: u64 = 8;
        let mut s = Sampler::new(dur(10), CAPACITY as usize);
        let gauges: Vec<SeriesId> = (0..6)
            .map(|k| s.register(&format!("g{k}"), "n", SeriesKind::Gauge))
            .collect();
        let counter = s.register("c", "ops", SeriesKind::Counter);
        // A fixed pattern: in every window two gauges read 0, two are left
        // unsampled and two read non-zero; the counter moves every other
        // window. So every 8 retained windows hold 20 non-zero samples.
        let poll = |s: &mut Sampler, w: u64| {
            assert!(s.due(t((w + 1) * 10)).is_some());
            for (k, &id) in (0..).zip(&gauges) {
                match (w + k) % 3 {
                    0 => {}
                    r => {
                        s.sample(id, (r - 1) * (k + 1));
                    }
                }
            }
            s.sample(counter, w / 2);
        };
        let stored = |s: &Sampler| {
            let nonzero = s
                .series()
                .map(|ts| ts.samples().filter(|&(_, v)| v != 0).count());
            nonzero.sum::<usize>()
        };
        let warm = 10 * CAPACITY;
        for w in 0..warm {
            poll(&mut s, w);
        }
        let (rows, room) = (s.rows.len(), s.rows.capacity());
        assert_eq!((rows, stored(&s)), (20, 20));
        for w in warm..warm + 2 * CAPACITY {
            poll(&mut s, w);
            assert_eq!(s.rows.len(), stored(&s), "window {w}");
            assert_eq!(s.rows.len(), rows, "window {w}");
            assert_eq!(s.rows.capacity(), room, "the log grew at window {w}");
        }
    }

    #[test]
    fn json_and_csv_exports_are_deterministic() {
        let mk = || {
            let mut s = Sampler::new(dur(10), 4);
            let b = s.register("b.ops", "ops", SeriesKind::Counter);
            let a = s.register("a.depth", "n", SeriesKind::Gauge);
            for w in 0..3u64 {
                assert!(s.due(t((w + 1) * 10)).is_some());
                s.sample(b, (w + 1) * 4);
                s.sample(a, w);
            }
            s
        };
        let s = mk();
        let json = serde_json::to_string_pretty(&series_json(&s)).unwrap();
        assert_eq!(
            json,
            serde_json::to_string_pretty(&series_json(&mk())).unwrap()
        );
        // Sorted by name: a.depth before b.ops.
        assert!(json.find("a.depth").unwrap() < json.find("b.ops").unwrap());
        assert_eq!(digest_hash(&s), digest_hash(&mk()));

        let csv = series_csv(&s);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("window,end_ns,a.depth,b.ops"));
        assert_eq!(lines.next(), Some("0,10,0,4"));
        assert_eq!(lines.next(), Some("1,20,1,4"));
        assert_eq!(lines.next(), Some("2,30,2,4"));
    }

    #[test]
    fn counter_tracks_merge_into_valid_chrome_trace() {
        let tracer = crate::trace::Tracer::enabled();
        let kind = crate::trace::SpanKind::Device;
        let span = tracer.start(crate::trace::SpanId::NONE, kind, t(0), []);
        tracer.end(span, t(25));
        let mut s = Sampler::new(dur(10), 4);
        let g = s.register("core.depth", "n", SeriesKind::Gauge);
        for w in 0..2u64 {
            assert!(s.due(t((w + 1) * 10)).is_some());
            s.sample(g, w + 1);
        }
        let mut doc = crate::trace::chrome_trace_json(&tracer.take_spans());
        let count = |d: &serde_json::Value| match d.get("traceEvents") {
            Some(serde_json::Value::Array(ev)) => ev.len(),
            _ => panic!("missing traceEvents"),
        };
        let before = count(&doc);
        merge_counter_tracks(&mut doc, &series_json(&s));
        assert_eq!(count(&doc), before + 2);
        validate_chrome_trace(&doc).expect("merged document stays valid");
        let Some(serde_json::Value::Array(events)) = doc.get("traceEvents") else {
            unreachable!()
        };
        let c = events.last().unwrap();
        assert_eq!(c.get("ph"), Some(&serde_json::Value::from("C")));
        assert_eq!(c.get("name"), Some(&serde_json::Value::from("core.depth")));
        // Window 1 ends at 20 ns = 0.02 us and sampled 2.
        assert_eq!(c.get("ts"), Some(&serde_json::Value::from(0.02)));
        assert_eq!(c.get("args"), Some(&serde_json::json!({ "value": 2u64 })));
    }
}
