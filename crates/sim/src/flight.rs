//! Deterministic flight recorder: a bounded ring of compact integer-only
//! events plus per-window exemplar retention of the worst-K request span
//! trees.
//!
//! The SLO watchdog ([`crate::perfmon::SloWatchdog`]) says *that* an SLO
//! broke; this module preserves *why*: what the scheduler, BTLB, media and
//! link were doing in the microseconds around the breach, and the full
//! span trees of the requests that actually blew the tail. The design
//! mirrors the perfmon sampler's deferred-fold contract:
//!
//! * **Ring** — [`FlightRecorder::append`] writes one fixed-size
//!   [`FlightEvent`] into a preallocated ring by index. Zero allocation in
//!   steady state, one branch when disabled, and the write is inside a
//!   `nesc-lint: hot` region so rules D7/P2 police it.
//! * **Exemplars** — the recorder keeps no per-request state. When a
//!   telemetry window closes, the [`Probe`](crate::Probe) splits its
//!   tally's window list by timestamp (a completion at `t` belongs to the
//!   window ending at `W` iff `t < W`, exactly like the sampler) and
//!   hands that window's [`Completion`]s to
//!   [`FlightRecorder::close_window`], which keeps the worst-K by latency
//!   and snapshots their span subtrees through the caller's capture (the
//!   probe passes [`Tracer::subtree`](crate::Tracer::subtree), whose pass
//!   starts at the root, so a capture costs the spans recorded since the
//!   request began, not the whole undrained log) — so the p99-busting
//!   requests keep full traces while everything else stays coarse.
//! * **Snapshots** — [`FlightRecorder::snapshot`] copies the ring and the
//!   exemplars into a typed [`FlightSnapshot`]; nothing is rendered until
//!   a reader calls [`FlightSnapshot::to_json`], the one renderer of
//!   flight rows and exemplar spans.
//! * **Determinism** — everything is driven by simulated time and
//!   integer state; the same seed produces a byte-identical
//!   [`FlightSnapshot::to_json`], which is what makes the forensic dump
//!   golden-gateable.
//!
//! # Example
//!
//! ```
//! use nesc_sim::{Completion, FlightConfig, FlightEventKind, FlightRecorder, SimTime, SpanId};
//!
//! let rec = FlightRecorder::new(FlightConfig::default());
//! rec.append(SimTime::from_nanos(10), FlightEventKind::Doorbell, 1, 42, 0);
//! let (t_ns, seq, disk, bytes, latency_ns, root) = (900, 42, 0, 512, 890, SpanId::NONE);
//! let mut window = [Completion { t_ns, seq, disk, bytes, latency_ns, root }];
//! rec.close_window(0, &mut window, |_| Vec::new());
//! assert_eq!(rec.total(), 1);
//! assert_eq!(rec.exemplars().len(), 1);
//! ```

use std::cell::{Cell, Ref, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::probe::Completion;
use crate::selfcheck::fnv1a;
use crate::time::SimTime;
use crate::trace::{Span, SpanId};

/// What one ring slot records. The discriminant is the integer stored in
/// the serialized dump; [`FlightEventKind::from_u8`] decodes it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightEventKind {
    /// A guest issued a request (`func` = VF, `a` = request id,
    /// `b` = disk index).
    RequestStart = 0,
    /// The posted doorbell write landed on the device (`a` = request id,
    /// `b` = submit time in ns — the start of the doorbell interval).
    Doorbell = 1,
    /// A request entered its function's command queue (`a` = request id,
    /// `b` = queue depth after the push).
    QueueEnter = 2,
    /// The multiplexer popped a request off its queue (`a` = request id,
    /// `b` = arrival time in ns).
    QueueExit = 3,
    /// The scheduler dispatched the request into the translation pipeline
    /// (`a` = request id, `b` = block count).
    SchedDispatch = 4,
    /// A BTLB lookup missed and a tree walk resolved it (`func` = the
    /// nesting level that missed, `a` = vLBA byte offset, `b` = walk
    /// levels).
    BtlbMiss = 5,
    /// The hypervisor's miss handler serviced a rewalk (`a` = interrupt
    /// time in ns, `b` = disk index).
    Rewalk = 6,
    /// One batched media pass finished (`a` = first block's arrival at
    /// the medium in ns, `b` = blocks; the event time is the last block's
    /// media completion).
    MediaService = 7,
    /// One batched PCIe data pass finished (`a` = pass start in ns,
    /// `b` = blocks).
    LinkService = 8,
    /// The guest observed the completion (`a` = request id, `b` = device
    /// completion time in ns — the start of the guest_complete interval).
    RequestComplete = 9,
    /// The SLO watchdog fired (`a` = rule index, `b` = breaching window).
    Anomaly = 10,
}

impl FlightEventKind {
    /// Stable display name (used by `nesc-inspect` timelines).
    pub fn as_str(self) -> &'static str {
        match self {
            FlightEventKind::RequestStart => "request_start",
            FlightEventKind::Doorbell => "doorbell",
            FlightEventKind::QueueEnter => "queue_enter",
            FlightEventKind::QueueExit => "queue_exit",
            FlightEventKind::SchedDispatch => "sched_dispatch",
            FlightEventKind::BtlbMiss => "btlb_miss",
            FlightEventKind::Rewalk => "rewalk",
            FlightEventKind::MediaService => "media_service",
            FlightEventKind::LinkService => "link_service",
            FlightEventKind::RequestComplete => "request_complete",
            FlightEventKind::Anomaly => "anomaly",
        }
    }

    /// Decodes a serialized discriminant.
    pub fn from_u8(v: u8) -> Option<FlightEventKind> {
        Some(match v {
            0 => FlightEventKind::RequestStart,
            1 => FlightEventKind::Doorbell,
            2 => FlightEventKind::QueueEnter,
            3 => FlightEventKind::QueueExit,
            4 => FlightEventKind::SchedDispatch,
            5 => FlightEventKind::BtlbMiss,
            6 => FlightEventKind::Rewalk,
            7 => FlightEventKind::MediaService,
            8 => FlightEventKind::LinkService,
            9 => FlightEventKind::RequestComplete,
            10 => FlightEventKind::Anomaly,
            _ => return None,
        })
    }
}

/// One fixed-size, integer-only ring slot. The meaning of `a` and `b` is
/// per-kind (see [`FlightEventKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated time of the event, in nanoseconds.
    pub t_ns: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// The function (VF) the event is attributed to (0 = PF / global).
    pub func: u32,
    /// First per-kind payload word.
    pub a: u64,
    /// Second per-kind payload word.
    pub b: u64,
}

impl Default for FlightEvent {
    fn default() -> Self {
        FlightEvent {
            t_ns: 0,
            kind: FlightEventKind::RequestStart,
            func: 0,
            a: 0,
            b: 0,
        }
    }
}

/// Sizing and retention policy for the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Ring slots (preallocated; older events are overwritten).
    pub capacity: usize,
    /// Worst-K requests per window that keep their full span trees.
    pub exemplar_k: usize,
    /// How many recent windows of exemplars are retained.
    pub exemplar_windows: u64,
}

impl Default for FlightConfig {
    /// 512 slots keep the ring at 16 KiB — one `FlightEvent` is 32
    /// bytes — so the hot-path stores stay L1-resident instead of
    /// streaming a larger buffer through the cache and evicting the
    /// simulator's working set (measured at several percent of request
    /// cost for a 128 KiB ring). Forensic deep-dives that want longer
    /// history opt into a bigger ring explicitly.
    fn default() -> Self {
        FlightConfig {
            capacity: 512,
            exemplar_k: 2,
            exemplar_windows: 8,
        }
    }
}

impl FlightConfig {
    /// Sets the ring capacity in slots.
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
    /// Request sequence id (joins against `request_*` ring events).
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

/// The recorder itself: the preallocated event ring plus the exemplar
/// fold state. Usually owned behind a [`FlightHandle`].
///
/// The ring uses `Cell` interior mutability so the hot-path
/// [`append`](Self::append) takes `&self` — no `RefCell` borrow flag to
/// maintain per event, and no panic path. The colder exemplar state
/// (a per-window fold) stays behind `RefCell`s.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    /// The ring; `head` is the next write target.
    buf: Vec<Cell<FlightEvent>>,
    /// Next write slot (always `total % capacity`, maintained as a
    /// wrapping cursor so the hot append never divides).
    head: Cell<usize>,
    /// Events ever appended (dropped = total - retained).
    total: Cell<u64>,
    /// Retained exemplars, oldest window first, rank order within a
    /// window. A deque so the per-window eviction pops stale fronts in
    /// O(evicted) instead of shifting the survivors every window.
    exemplars: RefCell<VecDeque<Exemplar>>,
}

impl FlightRecorder {
    /// A recorder with its ring preallocated.
    pub fn new(cfg: FlightConfig) -> Self {
        let buf = vec![Cell::new(FlightEvent::default()); cfg.capacity];
        FlightRecorder {
            cfg,
            buf,
            head: Cell::new(0),
            total: Cell::new(0),
            exemplars: RefCell::new(VecDeque::new()),
        }
    }

    /// Appends one event, overwriting the oldest slot when full. This is
    /// the hot-path write: a `Cell` store into the preallocated ring, no
    /// allocation, no borrow flag, no panic path.
    // nesc-lint: hot
    #[inline]
    pub fn append(&self, t: SimTime, kind: FlightEventKind, func: u32, a: u64, b: u64) {
        let slot = self.head.get();
        if let Some(ev) = self.buf.get(slot) {
            ev.set(FlightEvent {
                t_ns: t.as_nanos(),
                kind,
                func,
                a,
                b,
            });
            let next = slot + 1;
            self.head.set(if next == self.buf.len() { 0 } else { next });
            self.total.set(self.total.get() + 1);
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

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Events ever appended.
    pub fn total(&self) -> u64 {
        self.total.get()
    }

    /// Events overwritten by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.total.get().saturating_sub(self.buf.len() as u64)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = FlightEvent> + '_ {
        let cap = self.buf.len() as u64;
        let total = self.total.get();
        let len = if cap == 0 { 0 } else { total.min(cap) };
        let start = total - len;
        (start..total).filter_map(move |i| self.buf.get((i % cap.max(1)) as usize).map(Cell::get))
    }

    /// The retained exemplars, oldest window first.
    pub fn exemplars(&self) -> Ref<'_, VecDeque<Exemplar>> {
        self.exemplars.borrow()
    }

    /// Copies the recorder state out: the ring metadata, the retained
    /// events oldest first and the retained exemplars. The copy is typed
    /// and unrendered; [`FlightSnapshot::to_json`] renders it.
    pub fn snapshot(&self) -> FlightSnapshot {
        FlightSnapshot {
            capacity: self.capacity(),
            total: self.total(),
            dropped: self.dropped(),
            events: self.events().collect(),
            exemplars: self.exemplars().iter().cloned().collect(),
        }
    }

    /// The recorder state as deterministic JSON (see
    /// [`FlightSnapshot::to_json`]).
    pub fn snapshot_json(&self) -> serde_json::Value {
        self.snapshot().to_json()
    }

    /// Stable FNV-1a hash over the serialized snapshot — the section hash
    /// the divergence self-check folds in.
    pub fn digest_hash(&self) -> u64 {
        let json = serde_json::to_string(&self.snapshot_json()).unwrap_or_default();
        fnv1a(json.as_bytes())
    }
}

/// A copy of the recorder state at one instant, kept as typed rows until
/// it is read: taking one copies the ring and the exemplars, and
/// rendering is paid only by [`to_json`](Self::to_json).
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// Ring capacity in slots.
    pub capacity: usize,
    /// Events ever appended.
    pub total: u64,
    /// Events overwritten by ring wrap-around.
    pub dropped: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// The retained exemplars, oldest window first.
    pub exemplars: Vec<Exemplar>,
}

impl FlightSnapshot {
    /// Renders the snapshot as deterministic JSON: the ring metadata,
    /// every retained event as a compact `[t_ns, kind, func, a, b]`
    /// integer row, and the exemplars with their span subtrees. The one
    /// renderer of flight rows and exemplar spans.
    pub fn to_json(&self) -> serde_json::Value {
        let events: Vec<serde_json::Value> = self
            .events
            .iter()
            .map(|e| serde_json::json!([e.t_ns, e.kind as u8, e.func, e.a, e.b]))
            .collect();
        let exemplars: Vec<serde_json::Value> = self
            .exemplars
            .iter()
            .map(|x| {
                let spans: Vec<serde_json::Value> = x
                    .spans
                    .iter()
                    .map(|s| {
                        let attrs: Vec<serde_json::Value> = s
                            .attrs
                            .iter()
                            .map(|(k, v)| serde_json::json!([k, v]))
                            .collect();
                        serde_json::json!({
                            "id": s.id.0,
                            "parent": s.parent.0,
                            "layer": s.layer,
                            "name": s.name,
                            "start_ns": s.start.as_nanos(),
                            "end_ns": s.end.as_nanos(),
                            "attrs": attrs,
                        })
                    })
                    .collect();
                serde_json::json!({
                    "window": x.window,
                    "seq": x.seq,
                    "disk": x.disk,
                    "t_ns": x.t_ns,
                    "latency_ns": x.latency_ns,
                    "root": x.root,
                    "spans": spans,
                })
            })
            .collect();
        serde_json::json!({
            "capacity": self.capacity,
            "total": self.total,
            "dropped": self.dropped,
            "events": events,
            "exemplars": exemplars,
        })
    }
}

/// A cheaply cloneable recorder handle, mirroring [`Tracer`](crate::Tracer):
/// disabled (the default) it holds no allocation and every
/// operation is a no-op behind one branch; enabled, all clones record
/// into the same ring.
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

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` against the recorder, if enabled.
    pub fn with<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> Option<R> {
        self.recorder().map(f)
    }

    /// The recorder, if enabled.
    #[inline]
    pub(crate) fn recorder(&self) -> Option<&FlightRecorder> {
        self.inner.as_deref()
    }

    /// The serialized recorder state, if enabled.
    pub fn snapshot_json(&self) -> Option<serde_json::Value> {
        self.with(FlightRecorder::snapshot_json)
    }

    /// Stable hash of the recorder state (0 when disabled).
    pub fn digest_hash(&self) -> u64 {
        self.with(FlightRecorder::digest_hash).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn disabled_handle_is_noop() {
        let h = FlightHandle::disabled();
        assert!(!h.is_enabled());
        assert_eq!(h.with(|r| r.total()), None);
        assert_eq!(h.snapshot_json(), None);
        assert_eq!(h.digest_hash(), 0);
    }

    #[test]
    fn ring_wraps_and_reports_drops() {
        let r = FlightRecorder::new(FlightConfig::default().capacity(4));
        for i in 0..6u64 {
            r.append(t(i), FlightEventKind::QueueEnter, 1, i, 0);
        }
        assert_eq!(r.total(), 6);
        assert_eq!(r.dropped(), 2);
        let got: Vec<u64> = r.events().map(|e| e.a).collect();
        assert_eq!(got, vec![2, 3, 4, 5], "oldest events are overwritten");
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let r = FlightRecorder::new(FlightConfig::default().capacity(0));
        r.append(t(1), FlightEventKind::Doorbell, 0, 0, 0);
        assert_eq!(r.total(), 0);
        assert_eq!(r.events().count(), 0);
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
        use crate::trace::Tracer;
        let tracer = Tracer::enabled();
        let root = tracer.start(SpanId::NONE, "guest", "request", t(0));
        let child = tracer.span(root, "core", "device", t(10), t(90));
        tracer.attr(child, "blocks", 4);
        tracer.end(root, t(100));
        // An unrelated root must not leak into the subtree.
        tracer.span(SpanId::NONE, "guest", "request", t(200), t(300));
        let r = FlightRecorder::new(FlightConfig::default());
        r.close_window(0, &mut [done(100, 7, 100, root)], |root| {
            tracer.subtree(root)
        });
        let x = &r.exemplars()[0];
        assert_eq!(x.root, root.0);
        assert_eq!(x.spans.len(), 2);
        assert_eq!(x.spans[0].name, "request");
        assert_eq!(x.spans[1].attr("blocks"), Some(4));
        // Capture does not drain: the tracer still holds every span.
        assert_eq!(tracer.len(), 3);
    }

    #[test]
    fn snapshot_is_deterministic_and_integer_only_events() {
        let run = || {
            let r = FlightRecorder::new(FlightConfig::default().capacity(8));
            r.append(t(5), FlightEventKind::RequestStart, 1, 42, 0);
            r.append(t(9), FlightEventKind::Doorbell, 1, 42, 5);
            r.close_window(0, &mut [done(50, 42, 45, SpanId::NONE)], |_| Vec::new());
            serde_json::to_string(&r.snapshot_json()).unwrap()
        };
        let a = run();
        assert_eq!(a, run(), "same inputs, byte-identical snapshot");
        // Every ring event serializes as a 5-wide integer row.
        let r = FlightRecorder::new(FlightConfig::default().capacity(8));
        r.append(t(5), FlightEventKind::RequestStart, 1, 42, 0);
        r.append(t(9), FlightEventKind::Doorbell, 1, 42, 5);
        let snapshot = r.snapshot_json();
        let Some(serde_json::Value::Array(events)) = snapshot.get("events") else {
            panic!("snapshot has no events array");
        };
        assert_eq!(events.len(), 2);
        for ev in events {
            let serde_json::Value::Array(row) = ev else {
                panic!("event row is not an array");
            };
            assert_eq!(row.len(), 5);
            assert!(row.iter().all(|x| matches!(
                x,
                serde_json::Value::Number(serde_json::Number::UInt(_) | serde_json::Number::Int(_))
            )));
        }
    }

    #[test]
    fn kind_roundtrips_through_u8() {
        for k in 0..=10u8 {
            let kind = FlightEventKind::from_u8(k).unwrap();
            assert_eq!(kind as u8, k);
            assert!(!kind.as_str().is_empty());
        }
        assert_eq!(FlightEventKind::from_u8(11), None);
    }
}
