//! Runtime divergence self-check.
//!
//! The static linter (`nesc-lint`) rules out the known *sources* of
//! nondeterminism; this module is the runtime backstop that catches any
//! that slip through: run the same workload twice from the same seed,
//! digest each run's observable event stream, and report the **first
//! diverging event** instead of a useless "hashes differ".
//!
//! A [`RunDigest`] accumulates three things:
//!
//! * an ordered list of [`EventRecord`]s — one per observable step
//!   (request completion, span emission, ...), each carrying its
//!   simulated time, a label and a payload hash;
//! * rolling checkpoint hashes every `checkpoint_every` records, so two
//!   digests can be compared checkpoint-first and the mismatch localized
//!   to a window before walking records;
//! * named section hashes for whole-run aggregates (span tree shape,
//!   per-path request totals).
//!
//! [`first_divergence`] diffs two digests; [`self_check`] packages the
//! run-twice-and-compare loop. Everything here is pure data plumbing —
//! deterministic by construction, no clocks, no ambient randomness.
//!
//! # Example
//!
//! ```
//! use nesc_sim::selfcheck::{self, RunDigest};
//! use nesc_sim::SimTime;
//!
//! let run = |seed: u64| {
//!     let mut d = RunDigest::new(4);
//!     for i in 0..10 {
//!         d.record(SimTime::from_nanos(i * 100), "op", seed.wrapping_add(i));
//!     }
//!     d
//! };
//! // Same seed twice: identical digests.
//! assert!(selfcheck::self_check(7, run).is_ok());
//! // Different seeds: the first diverging event is pinpointed.
//! let d = selfcheck::first_divergence(&run(1), &run(2)).unwrap();
//! assert!(d.to_string().contains("first diverging event"));
//! ```

use std::fmt;

use crate::probe::PathTotals;
use crate::time::SimTime;
use crate::trace::Span;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice — the workhorse hash for digest payloads.
/// Stable across platforms and runs (unlike the std default hasher).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds a word into an FNV-1a state.
pub fn fnv1a_word(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One observable step of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Position in the run's event order (0-based).
    pub seq: u64,
    /// Simulated time of the event, in nanoseconds.
    pub time_ns: u64,
    /// What the event was (e.g. `"vf1:Read"`, `"span:pcie:dma"`).
    pub label: String,
    /// Hash of the event's payload (data moved, latency, attributes).
    pub payload: u64,
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} `{}` at {}ns (payload {:#018x})",
            self.seq, self.label, self.time_ns, self.payload
        )
    }
}

/// The digest of one run: event records, checkpoint hashes, section
/// hashes.
#[derive(Debug, Clone)]
pub struct RunDigest {
    checkpoint_every: usize,
    records: Vec<EventRecord>,
    /// Rolling hash after records `0..=(k+1)*checkpoint_every-1`.
    checkpoints: Vec<u64>,
    rolling: u64,
    sections: Vec<(String, u64)>,
}

impl RunDigest {
    /// A fresh digest taking a checkpoint every `checkpoint_every`
    /// records.
    ///
    /// A zero cadence (a contract violation) checkpoints every record.
    pub fn new(checkpoint_every: usize) -> Self {
        debug_assert!(checkpoint_every > 0, "checkpoint cadence must be positive");
        RunDigest {
            checkpoint_every: checkpoint_every.max(1),
            records: Vec::new(),
            checkpoints: Vec::new(),
            rolling: FNV_OFFSET,
            sections: Vec::new(),
        }
    }

    /// Appends one event record.
    pub fn record(&mut self, at: SimTime, label: impl Into<String>, payload: u64) {
        let label = label.into();
        let seq = self.records.len() as u64;
        self.rolling = fnv1a_word(self.rolling, at.as_nanos());
        self.rolling = fnv1a_word(self.rolling, fnv1a(label.as_bytes()));
        self.rolling = fnv1a_word(self.rolling, payload);
        self.records.push(EventRecord {
            seq,
            time_ns: at.as_nanos(),
            label,
            payload,
        });
        if self.records.len().is_multiple_of(self.checkpoint_every) {
            self.checkpoints.push(self.rolling);
        }
    }

    /// Appends one record per span, in creation (id) order — the
    /// simulator's event sequence as observed by the tracer.
    pub fn record_spans(&mut self, spans: &[Span]) {
        for s in spans {
            let mut payload = fnv1a_word(FNV_OFFSET, s.id.0);
            payload = fnv1a_word(payload, s.parent.0);
            payload = fnv1a_word(payload, s.end.as_nanos());
            for (k, v) in s.attrs.iter() {
                payload = fnv1a_word(payload, fnv1a(k.as_str().as_bytes()));
                payload = fnv1a_word(payload, v);
            }
            let label = format!("span:{}", s.kind.as_str());
            self.record(s.start, label, payload);
        }
    }

    /// Adds a named whole-run section hash.
    pub fn section(&mut self, name: &str, hash: u64) {
        self.sections.push((name.to_string(), hash));
    }

    /// Hashes the span forest's *shape* (parent links and intervals) into
    /// a `span_tree` section — a cheap structural fingerprint on top of
    /// the per-span records.
    pub fn span_tree_section(&mut self, spans: &[Span]) {
        let mut h = FNV_OFFSET;
        for s in spans {
            h = fnv1a_word(h, s.id.0);
            h = fnv1a_word(h, s.parent.0);
            h = fnv1a_word(h, s.start.as_nanos());
            h = fnv1a_word(h, s.end.as_nanos());
        }
        self.section("span_tree", h);
    }

    /// Hashes per-path request totals (counts, bytes, errors and the
    /// latency histogram's count, extremes, mean and p50/p99), in the
    /// given order, into a `totals` section.
    pub fn totals_section(&mut self, totals: &[PathTotals]) {
        let mut h = FNV_OFFSET;
        for t in totals {
            let lat = &t.latency_ns;
            let (p50, p99) = (lat.percentile(50.0), lat.percentile(99.0));
            let counts = [t.requests, t.bytes, t.errors, lat.count()];
            let shape = [lat.min(), lat.max(), lat.mean().to_bits(), p50, p99];
            for word in counts.into_iter().chain(shape) {
                h = fnv1a_word(h, word);
            }
        }
        self.section("totals", h);
    }

    /// Number of event records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The checkpoint hashes taken so far.
    pub fn checkpoints(&self) -> &[u64] {
        &self.checkpoints
    }

    /// A single hash over everything: records, cadence and sections.
    pub fn final_hash(&self) -> u64 {
        let mut h = fnv1a_word(self.rolling, self.records.len() as u64);
        for (name, v) in &self.sections {
            h = fnv1a_word(h, fnv1a(name.as_bytes()));
            h = fnv1a_word(h, *v);
        }
        h
    }
}

/// Why two digests differ — always pinned to the *first* difference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The runs used different checkpoint cadences (not comparable).
    Cadence {
        /// Run A's cadence.
        a: usize,
        /// Run B's cadence.
        b: usize,
    },
    /// Records differ; both runs have a record at this index.
    Event {
        /// Index of the first differing record.
        index: usize,
        /// Checkpoint window containing it (0-based), for "it was fine
        /// through checkpoint k" reports.
        window: usize,
        /// Run A's record.
        a: EventRecord,
        /// Run B's record.
        b: EventRecord,
    },
    /// One run stopped early; the other's next record is reported.
    Length {
        /// Events in run A.
        a_len: usize,
        /// Events in run B.
        b_len: usize,
        /// The first unmatched record from the longer run.
        next: EventRecord,
    },
    /// Event streams agree, but a whole-run section hash differs.
    Section {
        /// Section name (`"span_tree"`, `"totals"`, ...).
        name: String,
        /// Run A's hash.
        a: u64,
        /// Run B's hash.
        b: u64,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Cadence { a, b } => {
                write!(f, "incomparable digests: checkpoint cadence {a} vs {b}")
            }
            Divergence::Event {
                index,
                window,
                a,
                b,
            } => write!(
                f,
                "first diverging event at index {index} (checkpoint window {window}): \
                 run A {a}, run B {b}"
            ),
            Divergence::Length { a_len, b_len, next } => write!(
                f,
                "event streams diverge in length: run A has {a_len}, run B has {b_len}; \
                 first unmatched event: {next}"
            ),
            Divergence::Section { name, a, b } => write!(
                f,
                "event streams agree but section `{name}` differs: \
                 {a:#018x} vs {b:#018x}"
            ),
        }
    }
}

/// Compares two digests; `None` means identical. The comparison first
/// narrows via checkpoint hashes (cheap), then walks records inside the
/// first bad window to name the exact event, then checks sections.
pub fn first_divergence(a: &RunDigest, b: &RunDigest) -> Option<Divergence> {
    if a.checkpoint_every != b.checkpoint_every {
        return Some(Divergence::Cadence {
            a: a.checkpoint_every,
            b: b.checkpoint_every,
        });
    }
    if a.final_hash() == b.final_hash() && a.records == b.records && a.sections == b.sections {
        return None;
    }
    // Narrow to the first differing checkpoint window.
    let first_bad_window = a
        .checkpoints
        .iter()
        .zip(&b.checkpoints)
        .position(|(x, y)| x != y);
    let scan_from = match first_bad_window {
        Some(w) => w * a.checkpoint_every,
        // All shared checkpoints agree: differences sit in the tail (or
        // lengths/sections differ).
        None => a.checkpoints.len().min(b.checkpoints.len()) * a.checkpoint_every,
    };
    for i in scan_from..a.records.len().min(b.records.len()) {
        if a.records[i] != b.records[i] {
            return Some(Divergence::Event {
                index: i,
                window: i / a.checkpoint_every,
                a: a.records[i].clone(),
                b: b.records[i].clone(),
            });
        }
    }
    if a.records.len() != b.records.len() {
        let longer = if a.records.len() > b.records.len() {
            &a.records
        } else {
            &b.records
        };
        return Some(Divergence::Length {
            a_len: a.records.len(),
            b_len: b.records.len(),
            next: longer[a.records.len().min(b.records.len())].clone(),
        });
    }
    for (name, va) in &a.sections {
        if let Some((_, vb)) = b.sections.iter().find(|(n, _)| n == name) {
            if va != vb {
                return Some(Divergence::Section {
                    name: name.clone(),
                    a: *va,
                    b: *vb,
                });
            }
        }
    }
    // Section *sets* differ (name present in one run only).
    if a.sections != b.sections {
        let name = a
            .sections
            .iter()
            .map(|(n, _)| n)
            .chain(b.sections.iter().map(|(n, _)| n))
            .find(|n| {
                a.sections.iter().filter(|(m, _)| &m == n).count()
                    != b.sections.iter().filter(|(m, _)| &m == n).count()
            })
            .cloned()
            .unwrap_or_default();
        return Some(Divergence::Section { name, a: 0, b: 0 });
    }
    None
}

/// Runs `run` twice with the same `seed` and compares the digests.
/// Returns the common final hash, or the first divergence — which, for a
/// deterministic simulator, means a D1/D2/D3-class bug escaped the
/// static linter.
///
/// # Errors
///
/// The boxed [`Divergence`] pinpointing the first differing event.
pub fn self_check<F>(seed: u64, mut run: F) -> Result<u64, Box<Divergence>>
where
    F: FnMut(u64) -> RunDigest,
{
    let a = run(seed);
    let b = run(seed);
    match first_divergence(&a, &b) {
        None => Ok(a.final_hash()),
        Some(d) => Err(Box::new(d)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn folding_a_word_hashes_its_little_endian_bytes() {
        assert_eq!(fnv1a(&[]), FNV_OFFSET);
        // The published FNV-1a 64 value of "a".
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let word = 0x0102_0304_0506_0708u64;
        let mut bytes = b"prefix".to_vec();
        bytes.extend_from_slice(&word.to_le_bytes());
        assert_eq!(fnv1a_word(fnv1a(b"prefix"), word), fnv1a(&bytes));
        assert_ne!(
            fnv1a_word(FNV_OFFSET, word),
            fnv1a_word(FNV_OFFSET, word.swap_bytes())
        );
    }

    #[test]
    fn identical_runs_match() {
        let mk = || {
            let mut d = RunDigest::new(3);
            for i in 0..10 {
                d.record(t(i * 5), format!("ev{i}"), i * 7);
            }
            d.section("metrics", 42);
            d
        };
        assert_eq!(first_divergence(&mk(), &mk()), None);
        assert_eq!(mk().final_hash(), mk().final_hash());
        assert_eq!(mk().checkpoints().len(), 3);
    }

    #[test]
    fn event_divergence_names_first_index() {
        let mk = |flip: u64| {
            let mut d = RunDigest::new(4);
            for i in 0..12 {
                let payload = if i == 9 { flip } else { i };
                d.record(t(i * 5), "ev", payload);
            }
            d
        };
        match first_divergence(&mk(0), &mk(1)) {
            Some(Divergence::Event { index, window, .. }) => {
                assert_eq!(index, 9);
                assert_eq!(window, 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn length_divergence_reports_next_event() {
        let mk = |n: u64| {
            let mut d = RunDigest::new(4);
            for i in 0..n {
                d.record(t(i), "ev", i);
            }
            d
        };
        match first_divergence(&mk(6), &mk(8)) {
            Some(Divergence::Length { a_len, b_len, next }) => {
                assert_eq!((a_len, b_len), (6, 8));
                assert_eq!(next.seq, 6);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn section_divergence_detected_when_events_agree() {
        let mk = |m: u64| {
            let mut d = RunDigest::new(4);
            d.record(t(1), "ev", 1);
            d.section("metrics", m);
            d
        };
        match first_divergence(&mk(1), &mk(2)) {
            Some(Divergence::Section { name, a, b }) => {
                assert_eq!(name, "metrics");
                assert_ne!(a, b);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn self_check_round_trip() {
        let run = |seed: u64| {
            let mut d = RunDigest::new(2);
            for i in 0..6 {
                d.record(t(i), "op", seed ^ i);
            }
            d
        };
        assert!(self_check(3, run).is_ok());
        assert!(first_divergence(&run(3), &run(4)).is_some());
    }

    #[test]
    fn span_records_and_tree_section() {
        use crate::trace::{SpanId, SpanKind, Tracer};
        let tr = Tracer::enabled();
        let root = tr.start(SpanId::NONE, SpanKind::GuestRequest, t(0), []);
        let child = tr.start(root, SpanKind::DmaRead, t(10), []);
        tr.end(child, t(40));
        tr.end(root, t(100));
        let spans = tr.take_spans();
        let mut d = RunDigest::new(8);
        d.record_spans(&spans);
        d.span_tree_section(&spans);
        assert_eq!(d.len(), 2);
        assert_eq!(d.records[0].label, "span:guest:request");
    }

    #[test]
    fn totals_section_changes_with_any_total() {
        let path = |requests: u64, bytes: u64, errors: u64, latencies: &[u64]| {
            let mut p = PathTotals {
                requests,
                bytes,
                errors,
                ..PathTotals::default()
            };
            latencies.iter().for_each(|&l| p.latency_ns.record(l));
            p
        };
        let digest = |totals: &[PathTotals]| {
            let mut d = RunDigest::new(4);
            d.totals_section(totals);
            d
        };
        let idle = path(0, 0, 0, &[]);
        let base = [path(3, 1536, 1, &[100, 200]), idle.clone()];
        assert_eq!(
            first_divergence(&digest(&base), &digest(&base.clone())),
            None
        );
        let changed = [
            [path(4, 1536, 1, &[100, 200]), idle.clone()],
            [path(3, 2048, 1, &[100, 200]), idle.clone()],
            [path(3, 1536, 2, &[100, 200]), idle.clone()],
            [path(3, 1536, 1, &[100, 900]), idle.clone()],
            [idle.clone(), path(3, 1536, 1, &[100, 200])],
        ];
        for (i, totals) in changed.iter().enumerate() {
            match first_divergence(&digest(&base), &digest(totals)) {
                Some(Divergence::Section { name, .. }) => assert_eq!(name, "totals"),
                other => panic!("change {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn cadence_mismatch_is_flagged() {
        let a = RunDigest::new(2);
        let b = RunDigest::new(3);
        assert!(matches!(
            first_divergence(&a, &b),
            Some(Divergence::Cadence { a: 2, b: 3 })
        ));
    }
}
