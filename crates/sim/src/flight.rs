//! Deterministic flight recorder: a bounded ring of the last span rows
//! plus per-window exemplar retention of the worst-K request span trees.
//!
//! The SLO watchdog ([`crate::perfmon::SloWatchdog`]) says *that* an SLO
//! broke; this module preserves *why*: what the requests, scheduler
//! queues, BTLB walks, rewalks, media and link were doing in the
//! microseconds around the breach, and the full span trees of the
//! requests that actually blew the tail. The design mirrors the perfmon
//! sampler's deferred-fold contract:
//!
//! * **Ring** — the last [`FlightConfig::capacity`] rows of the span log:
//!   the [`Probe`](crate::Probe)'s span log writes a copy of each [`Span`]
//!   it records into the preallocated ring, and a later end or attribute
//!   reaches the copy while the ring retains it. With tracing off the log
//!   keeps no rows of its own, so a recorder-only run still mints span ids
//!   but holds only the ring. Zero allocation in steady state, and the
//!   writes are inside `nesc-lint: hot` regions so rules D7/P2 police
//!   them.
//! * **Exemplars** — the recorder keeps no per-request state. When a
//!   telemetry window closes, the probe splits its tally's window list by
//!   timestamp (a completion at `t` belongs to the window ending at `W`
//!   iff `t < W`, exactly like the sampler) and hands that window's
//!   [`Completion`]s to [`FlightRecorder::close_window`], which keeps the
//!   worst-K by latency and snapshots their span subtrees through the
//!   caller's capture (the probe passes
//!   [`Tracer::subtree`](crate::Tracer::subtree), whose pass starts at the
//!   root, so a capture costs the spans recorded since the request began,
//!   not the whole undrained log) — so the p99-busting requests keep full
//!   traces while everything else stays in the ring.
//! * **Snapshots** — [`FlightRecorder::snapshot`] copies the ring and the
//!   exemplars into a typed [`FlightSnapshot`]; nothing is rendered until
//!   a reader calls [`FlightSnapshot::to_json`], which writes ring rows and
//!   exemplar spans with the one span codec ([`Span::to_json`]).
//!   [`FlightSnapshot::from_json`] beside it reads a rendered dump back, so
//!   a live snapshot and a dump on disk are one model: the forensic
//!   queries (worst exemplar, per-VF rows, the checked phase breakdown,
//!   contention) and the Perfetto export of the exemplar spans are its
//!   methods.
//! * **Determinism** — everything is driven by simulated time and
//!   integer state; the same seed produces a byte-identical
//!   [`FlightSnapshot::to_json`], which is what makes the forensic dump
//!   golden-gateable.
//!
//! # Example
//!
//! ```
//! use nesc_sim::{Completion, FlightConfig, FlightHandle, Obs, Probe, SimTime, SpanId, SpanKind, Tracer};
//!
//! let probe = Probe::new(Tracer::disabled(), FlightHandle::enabled(FlightConfig::default()));
//! let t = SimTime::from_nanos;
//! probe.report(Obs::Rewalk(1, 0, t(10), t(40)));
//! // The recorder keeps the row; tracing stays off.
//! assert!(!probe.tracer().is_enabled() && probe.tracer().take_spans().is_empty());
//! let rec = probe.flight().with(|r| r.snapshot()).unwrap();
//! assert_eq!((rec.total, rec.rows[0].kind), (1, SpanKind::Rewalk));
//! let (t_ns, seq, disk, bytes, latency_ns, root) = (900, 42, 0, 512, 890, SpanId::NONE);
//! let mut window = [Completion { t_ns, seq, disk, bytes, latency_ns, root }];
//! probe.flight().with(|r| r.close_window(0, &mut window, |_| Vec::new()));
//! assert_eq!(probe.flight().with(|r| r.exemplars().len()), Some(1));
//! ```

use std::cell::{Ref, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::probe::Completion;
use crate::selfcheck::fnv1a;
use crate::trace::{
    chrome_trace_json, field, list, uint, AttrKey, Attrs, Span, SpanId, SpanKind, SpanTree,
};

/// Sizing and retention policy for the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Ring rows (preallocated; older rows are overwritten).
    pub capacity: usize,
    /// Worst-K requests per window that keep their full span trees.
    pub exemplar_k: usize,
    /// How many recent windows of exemplars are retained.
    pub exemplar_windows: u64,
}

impl Default for FlightConfig {
    /// 512 rows keep the ring at 40 KiB — one span row is 80 bytes —
    /// which holds the last ~40 requests of a run writing ~12 rows per
    /// request, and keeps the ring's stores near the cache instead of
    /// streaming a larger buffer through it. Forensic deep-dives that
    /// want longer history opt into a bigger ring explicitly.
    fn default() -> Self {
        FlightConfig {
            capacity: 512,
            exemplar_k: 2,
            exemplar_windows: 8,
        }
    }
}

impl FlightConfig {
    /// Sets the ring capacity in rows.
    pub fn capacity(mut self, slots: usize) -> Self {
        self.capacity = slots;
        self
    }

    /// Sets the worst-K exemplar count per window.
    pub fn exemplar_k(mut self, k: usize) -> Self {
        self.exemplar_k = k;
        self
    }

    /// Sets how many recent windows of exemplars are retained.
    pub fn exemplar_windows(mut self, windows: u64) -> Self {
        self.exemplar_windows = windows;
        self
    }
}

/// One retained worst-K request: its identity, its window, and the full
/// span subtree captured at window close.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The window whose close selected this request.
    pub window: u64,
    /// Request sequence id (the first device id it minted).
    pub seq: u64,
    /// Disk index.
    pub disk: u32,
    /// Completion time in nanoseconds.
    pub t_ns: u64,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// The root span's id (0 when tracing was off).
    pub root: u64,
    /// The captured span subtree (root first; empty when tracing was
    /// off).
    pub spans: Vec<Span>,
}

/// The recorder itself: the preallocated ring of span rows plus the
/// exemplar fold state. Usually owned behind a [`FlightHandle`].
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    ring: RefCell<Ring>,
    /// Retained exemplars, oldest window first, rank order within a
    /// window. A deque so the per-window eviction pops stale fronts in
    /// O(evicted) instead of shifting the survivors every window.
    exemplars: RefCell<VecDeque<Exemplar>>,
}

/// The ring's rows in id order, wrapping: the oldest is overwritten
/// first.
#[derive(Debug)]
struct Ring {
    /// Allocated at the capacity, so filling it never reallocates.
    rows: Vec<Span>,
    /// The next slot written.
    head: usize,
    /// Rows ever written (dropped = total - retained).
    total: u64,
}

impl FlightRecorder {
    /// A recorder with its ring preallocated.
    pub fn new(cfg: FlightConfig) -> Self {
        let rows = Vec::with_capacity(cfg.capacity);
        FlightRecorder {
            cfg,
            ring: RefCell::new(Ring {
                rows,
                head: 0,
                total: 0,
            }),
            exemplars: RefCell::new(VecDeque::new()),
        }
    }

    /// Writes one row over the oldest when the ring is full: a store into
    /// the preallocated ring, no allocation.
    // nesc-lint: hot
    pub(crate) fn write(&self, span: Span) {
        let cap = self.cfg.capacity;
        let Ring { rows, head, total } = &mut *self.ring.borrow_mut();
        let filled = rows.len();
        match rows.get_mut(*head) {
            Some(slot) => *slot = span,
            None if filled < cap => rows.push(span),
            None => return,
        }
        *head = if *head + 1 == cap { 0 } else { *head + 1 };
        *total += 1;
    }

    /// Applies `f` to row `id` if the ring retains it. Rows are written in
    /// id order, so its slot is the newest row's, counted back by the
    /// difference of their ids — no division.
    // nesc-lint: hot
    pub(crate) fn update(&self, id: SpanId, f: impl FnOnce(&mut Span)) {
        let Ring { rows, head, .. } = &mut *self.ring.borrow_mut();
        let len = rows.len();
        let newest = head.checked_sub(1).unwrap_or(len.wrapping_sub(1));
        let back = match rows.get(newest) {
            Some(s) if s.id >= id && s.id.0 - id.0 < len as u64 => (s.id.0 - id.0) as usize,
            _ => return,
        };
        let slot = if newest >= back {
            newest - back
        } else {
            newest + len - back
        };
        if let Some(row) = rows.get_mut(slot).filter(|s| s.id == id) {
            f(row);
        }
    }

    /// Folds `done`, the completions of window `window`: keeps the
    /// worst-K by latency (ties broken by earlier sequence id, then by
    /// position in `done`, which it sorts in place), captures each
    /// keeper's span subtree with `subtree(root)`, and evicts exemplar
    /// windows older than the retention horizon.
    pub fn close_window(
        &self,
        window: u64,
        done: &mut [Completion],
        subtree: impl Fn(SpanId) -> Vec<Span>,
    ) {
        // Evict first: windows only advance, so the stale exemplars are a
        // prefix of the deque and popping them is O(evicted). New pushes
        // below carry `window` itself and are always retained.
        let horizon = self.cfg.exemplar_windows;
        let keep = |e: &Exemplar| e.window + horizon > window || horizon == 0 && e.window == window;
        let mut exemplars = self.exemplars.borrow_mut();
        while exemplars.front().is_some_and(|e| !keep(e)) {
            exemplars.pop_front();
        }
        done.sort_by(|x, y| y.latency_ns.cmp(&x.latency_ns).then(x.seq.cmp(&y.seq)));
        for p in done.iter().take(self.cfg.exemplar_k) {
            exemplars.push_back(Exemplar {
                window,
                seq: p.seq,
                disk: p.disk,
                t_ns: p.t_ns,
                latency_ns: p.latency_ns,
                root: p.root.0,
                spans: subtree(p.root),
            });
        }
    }

    /// Ring capacity in rows.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Rows ever written.
    pub fn total(&self) -> u64 {
        self.ring.borrow().total
    }

    /// Rows overwritten by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        let ring = self.ring.borrow();
        ring.total - ring.rows.len() as u64
    }

    /// A copy of the retained rows, oldest first.
    pub fn rows(&self) -> Vec<Span> {
        let Ring { rows, head, .. } = &*self.ring.borrow();
        let (newer, older) = rows.split_at((*head).min(rows.len()));
        [older, newer].concat()
    }

    /// The retained exemplars, oldest window first.
    pub fn exemplars(&self) -> Ref<'_, VecDeque<Exemplar>> {
        self.exemplars.borrow()
    }

    /// Copies the recorder state out: the ring metadata, the retained
    /// rows oldest first and the retained exemplars. The copy is typed
    /// and unrendered; [`FlightSnapshot::to_json`] renders it.
    pub fn snapshot(&self) -> FlightSnapshot {
        FlightSnapshot {
            capacity: self.capacity(),
            total: self.total(),
            dropped: self.dropped(),
            rows: self.rows(),
            exemplars: self.exemplars().iter().cloned().collect(),
        }
    }

    /// Stable FNV-1a hash over the serialized snapshot — the section hash
    /// the divergence self-check folds in.
    pub fn digest_hash(&self) -> u64 {
        let json = serde_json::to_string(&self.snapshot().to_json()).unwrap_or_default();
        fnv1a(json.as_bytes())
    }
}

/// A copy of the recorder state at one instant, kept as typed rows until
/// it is read: taking one copies the ring and the exemplars, and
/// rendering is paid only by [`to_json`](Self::to_json).
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// Ring capacity in rows.
    pub capacity: usize,
    /// Rows ever written.
    pub total: u64,
    /// Rows overwritten by ring wrap-around.
    pub dropped: u64,
    /// The retained rows, oldest first (so in id order).
    pub rows: Vec<Span>,
    /// The retained exemplars, oldest window first.
    pub exemplars: Vec<Exemplar>,
}

impl FlightSnapshot {
    /// Renders the snapshot as deterministic JSON: the ring metadata, the
    /// retained rows and the exemplars with their span subtrees, every
    /// span through [`Span::to_json`].
    pub fn to_json(&self) -> serde_json::Value {
        let spans = |spans: &[Span]| spans.iter().map(Span::to_json).collect::<Vec<_>>();
        let exemplars: Vec<serde_json::Value> = self
            .exemplars
            .iter()
            .map(|x| {
                serde_json::json!({
                    "window": x.window,
                    "seq": x.seq,
                    "disk": x.disk,
                    "t_ns": x.t_ns,
                    "latency_ns": x.latency_ns,
                    "root": x.root,
                    "spans": spans(&x.spans),
                })
            })
            .collect();
        serde_json::json!({
            "capacity": self.capacity,
            "total": self.total,
            "dropped": self.dropped,
            "rows": spans(&self.rows),
            "exemplars": exemplars,
        })
    }

    /// Reads back a document [`to_json`](Self::to_json) rendered, so
    /// `from_json(&s.to_json())` re-renders byte-identically.
    ///
    /// # Errors
    ///
    /// The first malformed part: a missing key, a field that is not a
    /// non-negative integer, or a malformed span ([`Span::from_json`]).
    pub fn from_json(doc: &serde_json::Value) -> Result<FlightSnapshot, String> {
        let int = |v: &serde_json::Value, key: &str| uint(field(v, key)?, key);
        let spans = |v: &serde_json::Value, key: &str| {
            let rows = list(field(v, key)?, key)?.iter().map(Span::from_json);
            rows.collect::<Result<Vec<_>, String>>()
        };
        let exemplar = |x: &serde_json::Value| {
            Ok(Exemplar {
                window: int(x, "window")?,
                seq: int(x, "seq")?,
                disk: narrow(int(x, "disk")?, "disk")?,
                t_ns: int(x, "t_ns")?,
                latency_ns: int(x, "latency_ns")?,
                root: int(x, "root")?,
                spans: spans(x, "spans")?,
            })
        };
        let exemplars = list(field(doc, "exemplars")?, "exemplars")?.iter();
        Ok(FlightSnapshot {
            capacity: narrow(int(doc, "capacity")?, "capacity")?,
            total: int(doc, "total")?,
            dropped: int(doc, "dropped")?,
            rows: spans(doc, "rows")?,
            exemplars: exemplars.map(exemplar).collect::<Result<_, String>>()?,
        })
    }

    /// The worst exemplar: highest latency, ties to the earlier sequence
    /// number (the recorder's fold order).
    pub fn worst_exemplar(&self) -> Option<&Exemplar> {
        self.exemplars
            .iter()
            .min_by(|a, b| b.latency_ns.cmp(&a.latency_ns).then(a.seq.cmp(&b.seq)))
    }

    /// The retained row `id`.
    fn row(&self, id: SpanId) -> Option<&Span> {
        let i = self.rows.binary_search_by_key(&id, |s| s.id).ok()?;
        self.rows.get(i)
    }

    /// The function a row is attributed to: its own `func` (a VF's device
    /// span, a rewalk), else that of the device span it is or runs under
    /// (a PF device span carries none and reads 0). `None` for rows
    /// outside a device span, and for rows whose parent left the ring.
    fn func_of(&self, s: &Span) -> Option<u64> {
        let device = |s: &&Span| matches!(s.kind, SpanKind::Device | SpanKind::DeviceResume);
        let device = Some(s)
            .filter(device)
            .or_else(|| self.row(s.parent).filter(device));
        s.attr(AttrKey::Func)
            .or_else(|| device.map(|d| d.attr(AttrKey::Func).unwrap_or(0)))
    }

    /// The retained rows attributed to function `vf`, oldest first: its
    /// device spans, the passes under them and its rewalks.
    pub fn vf_rows(&self, vf: u32) -> Vec<&Span> {
        let vf = Some(u64::from(vf));
        self.rows.iter().filter(|s| self.func_of(s) == vf).collect()
    }

    /// Why `ex` was slow: its phases, the durations of its root's children
    /// grouped by kind ([`SpanTree::child_breakdown`]). Two derivations of
    /// its latency must agree: the children tile the root
    /// ([`SpanTree::check_partition`]), and their durations sum to the
    /// latency the tally timed from its issue and finish.
    ///
    /// # Errors
    ///
    /// Naming the request: it has no span tree (tracing was off), its
    /// children leave a gap or overlap, or the phases do not sum to the
    /// tallied latency.
    pub fn checked_breakdown(&self, ex: &Exemplar) -> Result<Vec<(&'static str, u64)>, String> {
        let tree = SpanTree::new(ex.spans.clone());
        let root = SpanId(ex.root);
        let phases: Vec<(&'static str, u64)> = tree
            .child_breakdown(root)
            .into_iter()
            .map(|(kind, ns)| (kind.name(), ns))
            .collect();
        if phases.is_empty() {
            return Err(format!("request {} has no span tree", ex.seq));
        }
        tree.check_partition(root)
            .map_err(|e| format!("request {}: {e}", ex.seq))?;
        let total: u64 = phases.iter().map(|&(_, ns)| ns).sum();
        if total != ex.latency_ns {
            return Err(format!(
                "request {}: phases sum to {total} ns but it took {} ns",
                ex.seq, ex.latency_ns
            ));
        }
        Ok(phases)
    }

    /// Per-function busy time from the media passes and DMA passes under
    /// device spans: `(func, media_ns, link_ns)`, largest total first
    /// (ties to the lower function id), at most `k` rows.
    pub fn contention_top_k(&self, k: usize) -> Vec<(u64, u64, u64)> {
        let mut per_func: Vec<(u64, u64, u64)> = Vec::new();
        for s in &self.rows {
            let (media, link) = match s.kind {
                SpanKind::Media => (s.duration_ns(), 0),
                SpanKind::DmaRead | SpanKind::DmaWrite => (0, s.duration_ns()),
                _ => continue,
            };
            // A descriptor fetch runs under no device span: left out.
            let Some(func) = self.func_of(s) else {
                continue;
            };
            match per_func.iter_mut().find(|(f, _, _)| *f == func) {
                Some(slot) => (slot.1, slot.2) = (slot.1 + media, slot.2 + link),
                None => per_func.push((func, media, link)),
            }
        }
        per_func.sort_by(|a, b| (b.1 + b.2).cmp(&(a.1 + a.2)).then(a.0.cmp(&b.0)));
        per_func.truncate(k);
        per_func
    }

    /// The exemplar spans as one Chrome/Perfetto trace
    /// ([`chrome_trace_json`]), each span tagged with its request's
    /// `exemplar_seq` ahead of its own attributes. The probe's exemplar
    /// spans carry at most 4, so the tag always fits; a span read from
    /// elsewhere that fills every slot keeps the tag and drops its last.
    pub fn exemplar_trace_json(&self) -> serde_json::Value {
        let spans: Vec<Span> = self
            .exemplars
            .iter()
            .flat_map(|x| {
                x.spans.iter().map(|s| {
                    let mut attrs = Attrs::from([(AttrKey::ExemplarSeq, x.seq)]);
                    for (k, v) in s.attrs.iter() {
                        let _ = attrs.push(k, v);
                    }
                    let mut s = *s;
                    s.attrs = attrs;
                    s
                })
            })
            .collect();
        chrome_trace_json(&spans)
    }
}

/// `v` narrowed to the field's type; `what` names it in the error.
fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("`{what}` {v} is out of range"))
}

/// A cheaply cloneable recorder handle, mirroring [`Tracer`](crate::Tracer):
/// disabled (the default) it holds no allocation and every
/// operation is a no-op behind one branch; enabled, all clones share one
/// recorder.
#[derive(Debug, Clone, Default)]
pub struct FlightHandle {
    inner: Option<Rc<FlightRecorder>>,
}

impl FlightHandle {
    /// A recording handle with a freshly preallocated ring.
    pub fn enabled(cfg: FlightConfig) -> Self {
        FlightHandle {
            inner: Some(Rc::new(FlightRecorder::new(cfg))),
        }
    }

    /// A no-op handle (the default).
    pub fn disabled() -> Self {
        FlightHandle::default()
    }

    /// Whether rows are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` against the recorder, if enabled.
    pub fn with<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> Option<R> {
        self.inner.as_deref().map(f)
    }

    /// The shared recorder, if enabled: what a span log writes its rows
    /// into.
    pub(crate) fn ring(&self) -> Option<Rc<FlightRecorder>> {
        self.inner.clone()
    }

    /// Stable hash of the recorder state (0 when disabled).
    pub fn digest_hash(&self) -> u64 {
        self.with(FlightRecorder::digest_hash).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::trace::{AttrKey as A, SpanKind as K, Tracer, SPAN_ATTRS};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn done(t_ns: u64, seq: u64, latency_ns: u64, root: SpanId) -> Completion {
        let (disk, bytes) = (0, 512);
        Completion {
            t_ns,
            seq,
            disk,
            bytes,
            latency_ns,
            root,
        }
    }

    /// A recorder of `capacity` rows and a tracer whose log writes into it.
    fn recording(capacity: usize) -> (Rc<FlightRecorder>, Tracer) {
        let rec = Rc::new(FlightRecorder::new(
            FlightConfig::default().capacity(capacity),
        ));
        let tracer = Tracer::enabled().recording_into(Some(Rc::clone(&rec)));
        (rec, tracer)
    }

    fn ids(rows: &[Span]) -> Vec<u64> {
        rows.iter().map(|s| s.id.0).collect()
    }

    #[test]
    fn disabled_handle_is_noop() {
        let h = FlightHandle::disabled();
        assert!(!h.is_enabled());
        assert_eq!(h.with(|r| r.total()), None);
        assert!(h.with(FlightRecorder::snapshot).is_none());
        assert_eq!(h.digest_hash(), 0);
    }

    #[test]
    fn ring_wraps_and_reports_drops() {
        let (r, tracer) = recording(4);
        for i in 0..6u64 {
            tracer.span(SpanId::NONE, K::Walk, t(i), t(i + 1), []);
        }
        assert_eq!((r.total(), r.dropped()), (6, 2));
        assert_eq!(
            ids(&r.rows()),
            [3, 4, 5, 6],
            "the oldest rows are overwritten"
        );
        // Draining the log leaves the ring as it was.
        assert_eq!(tracer.take_spans().len(), 6);
        assert_eq!(ids(&r.rows()), [3, 4, 5, 6]);
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let (r, tracer) = recording(0);
        let id = tracer.start(SpanId::NONE, K::Doorbell, t(1), []);
        tracer.end(id, t(2));
        assert_eq!(r.total(), 0);
        assert!(r.rows().is_empty());
    }

    /// An end or an attribute reaches a row while the ring retains it,
    /// after a drain too, and misses one the ring overwrote.
    #[test]
    fn a_retained_row_takes_later_ends_and_attributes() {
        let (r, tracer) = recording(3);
        let first = tracer.start(SpanId::NONE, K::GuestRequest, t(0), []);
        let second = tracer.start(first, K::Device, t(1), []);
        tracer.take_spans();
        tracer.attr(second, A::Stalled, 1);
        tracer.end(second, t(5));
        for i in 0..2 {
            tracer.span(first, K::Walk, t(i), t(i), []);
        }
        tracer.end(first, t(9));
        let rows = r.rows();
        assert_eq!(ids(&rows), [2, 3, 4], "the root left the ring");
        assert_eq!((rows[0].end, rows[0].attr(A::Stalled)), (t(5), Some(1)));
        assert_eq!(tracer.len(), 2, "the log holds what came after the drain");
    }

    /// A log that only feeds the ring reads as a disabled tracer but
    /// mints ids.
    #[test]
    fn a_ring_only_log_keeps_no_rows_of_its_own() {
        let rec = Rc::new(FlightRecorder::new(FlightConfig::default()));
        let tracer = Tracer::disabled().recording_into(Some(Rc::clone(&rec)));
        assert!(!tracer.is_enabled() && tracer.records());
        let id = tracer.span(SpanId::NONE, K::Rewalk, t(1), t(2), [(A::Func, 3)]);
        assert_eq!(id, SpanId(1));
        assert!(tracer.take_spans().is_empty() && tracer.subtree(id).is_empty());
        assert_eq!(ids(&rec.rows()), [1]);
        assert!(!Tracer::disabled().recording_into(None).records());
    }

    #[test]
    fn worst_k_fold_selects_by_latency_then_seq() {
        let r = FlightRecorder::new(FlightConfig::default().exemplar_k(2));
        let none = SpanId::NONE;
        let mut w0 = [
            done(10, 1, 500, none),
            done(20, 3, 900, none),
            done(30, 2, 900, none),
        ];
        r.close_window(0, &mut w0, |_| Vec::new());
        let kept: Vec<u64> = r.exemplars().iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![2, 3], "ties break toward the earlier request");
        r.close_window(1, &mut [done(150, 4, 9999, none)], |_| Vec::new());
        assert_eq!(r.exemplars().len(), 3);
        assert_eq!(r.exemplars()[2].seq, 4);
        assert_eq!(r.exemplars()[2].window, 1);
    }

    #[test]
    fn exemplar_windows_are_evicted_past_the_horizon() {
        let r = FlightRecorder::new(FlightConfig::default().exemplar_windows(2));
        for w in 0..5u64 {
            let mut window = [done(w * 100 + 10, w, 100, SpanId::NONE)];
            r.close_window(w, &mut window, |_| Vec::new());
        }
        let windows: Vec<u64> = r.exemplars().iter().map(|e| e.window).collect();
        assert_eq!(windows, vec![3, 4], "only the retention horizon survives");
    }

    #[test]
    fn exemplars_capture_span_subtrees() {
        let tracer = Tracer::enabled();
        let root = tracer.start(SpanId::NONE, K::GuestRequest, t(0), []);
        tracer.span(root, K::Device, t(10), t(90), [(A::Blocks, 4)]);
        tracer.end(root, t(100));
        // An unrelated root must not leak into the subtree.
        tracer.span(SpanId::NONE, K::GuestRequest, t(200), t(300), []);
        let r = FlightRecorder::new(FlightConfig::default());
        r.close_window(0, &mut [done(100, 7, 100, root)], |root| {
            tracer.subtree(root)
        });
        let x = &r.exemplars()[0];
        assert_eq!(x.root, root.0);
        assert_eq!(x.spans.len(), 2);
        assert_eq!(x.spans[0].name(), "request");
        assert_eq!(x.spans[1].attr(A::Blocks), Some(4));
        // Capture does not drain: the tracer still holds every span.
        assert_eq!(tracer.len(), 3);
    }

    /// One request's tree, tiling its root as the probe opens it: `(root,
    /// kind, start, end)` rows under a `guest:request` from 1000 to 5000
    /// (ids from 1), then the rows a VF 3 device span and a PF one add.
    fn request(tracer: &Tracer) -> SpanId {
        let root = tracer.start(SpanId::NONE, K::GuestRequest, t(1000), []);
        tracer.span(root, K::GuestSubmit, t(1000), t(1200), []);
        tracer.span(root, K::Doorbell, t(1200), t(1300), []);
        let wait = tracer.start(root, K::DeviceWait, t(1300), []);
        tracer.span(wait, K::DmaRead, t(1300), t(1350), [(A::Bytes, 64)]);
        let vf = [(A::Func, 3), (A::Blocks, 4)];
        let dev = tracer.start(wait, K::Device, t(1350), vf);
        tracer.span(dev, K::Media, t(1400), t(1600), [(A::Blocks, 4)]);
        tracer.span(dev, K::DmaWrite, t(1600), t(1650), [(A::Blocks, 4)]);
        tracer.end(dev, t(2000));
        tracer.span(wait, K::Rewalk, t(2000), t(3000), [(A::Func, 3)]);
        let pf = tracer.start(SpanId::NONE, K::Device, t(3000), [(A::Blocks, 1)]);
        tracer.span(pf, K::Media, t(3000), t(3100), []);
        tracer.end(pf, t(3100));
        tracer.end(wait, t(4600));
        tracer.span(root, K::GuestComplete, t(4600), t(5000), []);
        tracer.end(root, t(5000));
        root
    }

    /// A snapshot of [`request`]'s rows, keeping the request as an
    /// exemplar that took 4000 ns, in a ring of `capacity`.
    fn request_snapshot(capacity: usize) -> FlightSnapshot {
        let (r, tracer) = recording(capacity);
        let root = request(&tracer);
        let mut window = [done(5000, 7, 4000, root), done(120, 8, 20, SpanId::NONE)];
        r.close_window(0, &mut window, |root| tracer.subtree(root));
        r.snapshot()
    }

    #[test]
    fn snapshot_is_deterministic() {
        let a = serde_json::to_string(&request_snapshot(8).to_json()).unwrap();
        assert_eq!(
            a,
            serde_json::to_string(&request_snapshot(8).to_json()).unwrap()
        );
    }

    #[test]
    fn the_worst_exemplar_is_the_slowest_then_the_earliest() {
        let exemplar = |seq, latency_ns| Exemplar {
            window: 0,
            seq,
            disk: 0,
            t_ns: 1_000,
            latency_ns,
            root: 0,
            spans: Vec::new(),
        };
        let mut snap = request_snapshot(16);
        snap.exemplars = vec![
            exemplar(5, 300),
            exemplar(4, 900),
            exemplar(2, 900),
            exemplar(1, 100),
        ];
        assert_eq!(snap.worst_exemplar().map(|x| x.seq), Some(2));
        snap.exemplars.clear();
        assert!(snap.worst_exemplar().is_none());
    }

    #[test]
    fn vf_rows_are_its_device_spans_their_passes_and_its_rewalks() {
        let snap = request_snapshot(32);
        let kinds = |vf| snap.vf_rows(vf).iter().map(|s| s.kind).collect::<Vec<_>>();
        assert_eq!(kinds(3), [K::Device, K::Media, K::DmaWrite, K::Rewalk]);
        assert_eq!(kinds(0), [K::Device, K::Media], "a PF device span reads 0");
        assert!(kinds(7).is_empty());
    }

    #[test]
    fn contention_sums_busy_time_per_func() {
        let snap = request_snapshot(32);
        // The descriptor fetch runs under no device span and is left out.
        assert_eq!(snap.contention_top_k(10), [(3, 200, 50), (0, 100, 0)]);
        assert_eq!(snap.contention_top_k(1), [(3, 200, 50)]);
        // A pass whose device span left the ring has no function.
        let short = request_snapshot(5);
        assert!(short.contention_top_k(10).iter().all(|&(f, ..)| f == 0));
    }

    #[test]
    fn the_exemplar_trace_tags_each_span_with_its_request() {
        let mut snap = request_snapshot(8);
        snap.exemplars[0].seq = 42;
        let doc = snap.exemplar_trace_json();
        let Some(serde_json::Value::Array(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        let spans: Vec<&serde_json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 10, "the PF device span is not the request's");
        for s in &spans {
            let args = s.get("args").unwrap();
            assert_eq!(args.get("exemplar_seq").and_then(|v| v.as_u64()), Some(42));
        }
        let fetch = spans[4].get("args").unwrap();
        assert_eq!(fetch.get("bytes").and_then(|v| v.as_u64()), Some(64));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = request_snapshot(4);
        assert_eq!(snap.dropped, 8, "the ring wrapped");
        assert!(snap.exemplars[1].spans.is_empty());
        let doc = snap.to_json();
        let back = FlightSnapshot::from_json(&doc).unwrap();
        assert_eq!(back.rows, snap.rows);
        assert_eq!(back.exemplars[0].spans, snap.exemplars[0].spans);
        assert_eq!(
            serde_json::to_string_pretty(&back.to_json()).unwrap(),
            serde_json::to_string_pretty(&doc).unwrap()
        );
    }

    /// `doc` with the first ring row's `key` set to `value`, read back.
    fn with_row_field(
        doc: &serde_json::Value,
        key: &str,
        value: serde_json::Value,
    ) -> Result<FlightSnapshot, String> {
        let mut d = doc.clone();
        let Some(serde_json::Value::Array(rows)) = d.get_mut("rows") else {
            panic!("no rows array")
        };
        *rows[0].get_mut(key).unwrap() = value;
        FlightSnapshot::from_json(&d)
    }

    #[test]
    fn reader_rejects_malformed_rows() {
        let doc = request_snapshot(4).to_json();
        let err = |key, value| with_row_field(&doc, key, value).unwrap_err();
        let negative = err("start_ns", serde_json::json!(-3));
        assert_eq!(negative, "`start_ns` is not a non-negative integer");
        let text = err("parent", serde_json::json!("a"));
        assert_eq!(text, "`parent` is not a non-negative integer");
        let pair = err("attrs", serde_json::json!([[1, 2, 3]]));
        assert_eq!(pair, "attr has 3 fields, want 2");
        let mut missing = doc.clone();
        let serde_json::Value::Object(pairs) = &mut missing else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "dropped");
        let err = FlightSnapshot::from_json(&missing).unwrap_err();
        assert_eq!(err, "missing `dropped`");
    }

    /// A dump names only the kinds and keys of the tables: any other
    /// string is an error naming the span, not a new name.
    #[test]
    fn reader_rejects_an_unknown_kind_or_attribute_key() {
        let doc = request_snapshot(4).to_json();
        // The ring's oldest row is span 9, a rewalk.
        let err = |key, value| with_row_field(&doc, key, value).unwrap_err();
        let kind = err("name", serde_json::json!("warp"));
        assert_eq!(kind, "span 9 has unknown kind hypervisor:warp");
        let layer = err("layer", serde_json::json!("guest"));
        assert_eq!(layer, "span 9 has unknown kind guest:rewalk");
        let key = err("attrs", serde_json::json!([["color", 1]]));
        assert_eq!(key, "span 9 has unknown attr key color");
    }

    #[test]
    fn reader_rejects_a_span_wider_than_the_inline_attrs() {
        let doc = request_snapshot(4).to_json();
        let keys = ["disk", "bytes", "write", "failed", "rule", "window"];
        let with_attrs = |n: usize| {
            let attrs = keys[..n].iter().map(|k| serde_json::json!([k, 1]));
            with_row_field(&doc, "attrs", serde_json::Value::Array(attrs.collect()))
        };
        let full = with_attrs(SPAN_ATTRS).unwrap();
        assert_eq!(full.rows[0].attrs.iter().count(), SPAN_ATTRS);
        let err = with_attrs(SPAN_ATTRS + 1).unwrap_err();
        assert_eq!(err, "span 9 has more than 5 attrs");
    }

    #[test]
    fn checked_breakdown_needs_both_derivations_to_agree_and_tile() {
        let snap = request_snapshot(4);
        let ex = snap.exemplars[0].clone();
        let phases = snap.checked_breakdown(&ex).unwrap();
        let want = [
            ("guest_submit", 200),
            ("doorbell", 100),
            ("device_wait", 3300),
            ("guest_complete", 400),
        ];
        assert_eq!(phases, want);
        let mut slow = ex.clone();
        slow.latency_ns = 4001;
        let err = snap.checked_breakdown(&slow).unwrap_err();
        assert_eq!(err, "request 7: phases sum to 4000 ns but it took 4001 ns");
        // The completion starting 1 ns late leaves a gap.
        let mut late = ex.clone();
        let complete = late.spans.iter_mut().rfind(|s| s.kind == K::GuestComplete);
        complete.unwrap().start = t(4601);
        let err = snap.checked_breakdown(&late).unwrap_err();
        assert!(
            err.starts_with("request 7: child 12 (guest:guest_complete)"),
            "{err}"
        );
        let untraced = &snap.exemplars[1];
        let err = snap.checked_breakdown(untraced).unwrap_err();
        assert_eq!(err, "request 8 has no span tree");
    }
}
