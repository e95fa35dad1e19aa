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
//!   flight rows and exemplar spans. [`FlightSnapshot::from_json`] beside
//!   it reads a rendered dump back, so a live snapshot and a dump on disk
//!   are one model: the forensic queries (worst exemplar, per-VF events,
//!   the checked phase breakdown, contention) and the Perfetto export of
//!   the exemplar spans are its methods.
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
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::{Mutex, PoisonError};

use crate::probe::Completion;
use crate::selfcheck::fnv1a;
use crate::time::SimTime;
use crate::trace::{chrome_trace_json, Attrs, Span, SpanId, SpanTree, SPAN_ATTRS};

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

    /// Reads back a document [`to_json`](Self::to_json) rendered, so
    /// `from_json(&s.to_json())` re-renders byte-identically. Span layers,
    /// names and attribute keys are interned.
    ///
    /// # Errors
    ///
    /// The first malformed part: a missing key, a field that is not a
    /// non-negative integer (or string, for names), an event row without
    /// exactly 5 fields, an unknown event kind, or a span with more
    /// attributes than [`SPAN_ATTRS`] (named by its id).
    pub fn from_json(doc: &serde_json::Value) -> Result<FlightSnapshot, String> {
        let int = |v: &serde_json::Value, key: &str| uint(field(v, key)?, key);
        let name = |v: &serde_json::Value, key: &str| text(field(v, key)?, key);
        let event = |row: &serde_json::Value| {
            let row = list(row, "event")?;
            let [t_ns, kind, func, a, b] = row else {
                return Err(format!("event has {} fields, want 5", row.len()));
            };
            let kind = uint(kind, "kind")?;
            Ok(FlightEvent {
                t_ns: uint(t_ns, "t_ns")?,
                kind: u8::try_from(kind)
                    .ok()
                    .and_then(FlightEventKind::from_u8)
                    .ok_or_else(|| format!("unknown event kind {kind}"))?,
                func: narrow(uint(func, "func")?, "func")?,
                a: uint(a, "a")?,
                b: uint(b, "b")?,
            })
        };
        let span = |s: &serde_json::Value| {
            let id = int(s, "id")?;
            let mut attrs = Attrs::default();
            for kv in list(field(s, "attrs")?, "attrs")? {
                let (k, v) = match list(kv, "attr")? {
                    [k, v] => (text(k, "attr key")?, uint(v, "attr value")?),
                    kv => return Err(format!("attr has {} fields, want 2", kv.len())),
                };
                if !attrs.push(k, v) {
                    return Err(format!("span {id} has more than {SPAN_ATTRS} attrs"));
                }
            }
            // nesc-lint::allow(D5): rebuilds spans the tracer recorded, ids
            // and parents as the dump carries them.
            Ok(Span {
                id: SpanId(id),
                parent: SpanId(int(s, "parent")?),
                layer: name(s, "layer")?,
                name: name(s, "name")?,
                start: SimTime::from_nanos(int(s, "start_ns")?),
                end: SimTime::from_nanos(int(s, "end_ns")?),
                attrs,
            })
        };
        let exemplar = |x: &serde_json::Value| {
            let spans = list(field(x, "spans")?, "spans")?.iter().map(span);
            Ok(Exemplar {
                window: int(x, "window")?,
                seq: int(x, "seq")?,
                disk: narrow(int(x, "disk")?, "disk")?,
                t_ns: int(x, "t_ns")?,
                latency_ns: int(x, "latency_ns")?,
                root: int(x, "root")?,
                spans: spans.collect::<Result<_, String>>()?,
            })
        };
        let events = list(field(doc, "events")?, "events")?.iter().map(event);
        let exemplars = list(field(doc, "exemplars")?, "exemplars")?.iter();
        Ok(FlightSnapshot {
            capacity: narrow(int(doc, "capacity")?, "capacity")?,
            total: int(doc, "total")?,
            dropped: int(doc, "dropped")?,
            events: events.collect::<Result<_, String>>()?,
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

    /// The retained events attributed to VF `vf`, oldest first. A
    /// `BtlbMiss` carries a nesting level in `func`, not a VF, and is
    /// left out.
    pub fn vf_events(&self, vf: u32) -> Vec<&FlightEvent> {
        self.events
            .iter()
            .filter(|e| e.func == vf && e.kind != FlightEventKind::BtlbMiss)
            .collect()
    }

    /// Phase breakdown of request `seq` from its ring events alone, by
    /// the `RequestStart`/`Doorbell`/`RequestComplete` payload contract:
    ///
    /// * `guest_submit` — request start to the doorbell write's start
    /// * `doorbell` — the doorbell MMIO itself
    /// * `device_wait` — doorbell landed to device completion
    /// * `guest_complete` — completion processing in the guest
    ///
    /// `None` if any of the three anchors fell out of the ring.
    pub fn breakdown_from_events(&self, seq: u64) -> Option<Vec<(&'static str, u64)>> {
        let find =
            |kind: FlightEventKind| self.events.iter().find(|e| e.kind == kind && e.a == seq);
        let start = find(FlightEventKind::RequestStart)?;
        let doorbell = find(FlightEventKind::Doorbell)?;
        let complete = find(FlightEventKind::RequestComplete)?;
        Some(vec![
            ("guest_submit", doorbell.b.saturating_sub(start.t_ns)),
            ("doorbell", doorbell.t_ns.saturating_sub(doorbell.b)),
            ("device_wait", complete.b.saturating_sub(doorbell.t_ns)),
            ("guest_complete", complete.t_ns.saturating_sub(complete.b)),
        ])
    }

    /// Why `ex` was slow: its phases derived from the ring
    /// ([`breakdown_from_events`](Self::breakdown_from_events)) and from
    /// its span tree ([`SpanTree::child_breakdown`] of the root), which
    /// must agree phase by phase and sum to the request's latency — the
    /// ring and the spans are two folds of one probe report.
    ///
    /// # Errors
    ///
    /// The anchors fell out of the ring, the two derivations disagree,
    /// or the phases do not sum to the latency.
    pub fn checked_breakdown(&self, ex: &Exemplar) -> Result<Vec<(&'static str, u64)>, String> {
        let events = self.breakdown_from_events(ex.seq).ok_or_else(|| {
            format!(
                "request {}'s anchor events fell out of the ring (capacity {})",
                ex.seq, self.capacity
            )
        })?;
        let spans: Vec<(&'static str, u64)> = SpanTree::new(ex.spans.clone())
            .child_breakdown(SpanId(ex.root))
            .into_iter()
            .map(|(name, _, ns)| (name, ns))
            .collect();
        if events != spans {
            return Err(format!(
                "request {}: event-derived phases {events:?} != span-derived {spans:?}",
                ex.seq
            ));
        }
        let total: u64 = events.iter().map(|&(_, ns)| ns).sum();
        if total != ex.latency_ns {
            return Err(format!(
                "request {}: phases sum to {total} ns but it took {} ns",
                ex.seq, ex.latency_ns
            ));
        }
        Ok(events)
    }

    /// Per-function busy time from `MediaService`/`LinkService` events:
    /// `(func, media_ns, link_ns)`, largest total first (ties to the lower
    /// function id), at most `k` rows.
    pub fn contention_top_k(&self, k: usize) -> Vec<(u32, u64, u64)> {
        let mut per_func: Vec<(u32, u64, u64)> = Vec::new();
        for e in &self.events {
            let busy = e.t_ns.saturating_sub(e.a);
            let (media, link) = match e.kind {
                FlightEventKind::MediaService => (busy, 0),
                FlightEventKind::LinkService => (0, busy),
                _ => continue,
            };
            match per_func.iter_mut().find(|(f, _, _)| *f == e.func) {
                Some(slot) => (slot.1, slot.2) = (slot.1 + media, slot.2 + link),
                None => per_func.push((e.func, media, link)),
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
                    let mut attrs = Attrs::from([("exemplar_seq", x.seq)]);
                    for &(k, v) in s.attrs.iter() {
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

/// `v[key]`, or an error naming the missing key.
fn field<'a>(v: &'a serde_json::Value, key: &str) -> Result<&'a serde_json::Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

/// `v` as a non-negative integer; `what` names it in the error.
fn uint(v: &serde_json::Value, what: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("`{what}` is not a non-negative integer"))
}

/// `v` as an array; `what` names it in the error.
fn list<'a>(v: &'a serde_json::Value, what: &str) -> Result<&'a [serde_json::Value], String> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| format!("`{what}` is not an array"))
}

/// `v` as an interned string; `what` names it in the error.
fn text(v: &serde_json::Value, what: &str) -> Result<&'static str, String> {
    v.as_str()
        .map(intern)
        .ok_or_else(|| format!("`{what}` is not a string"))
}

/// `v` narrowed to the field's type; `what` names it in the error.
fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("`{what}` {v} is out of range"))
}

/// The `'static` copy of `s`. Each distinct string is leaked once per
/// process: a dump names a few dozen layers, span names and attribute
/// keys, which [`Span`] holds as `&'static str`. Every insert leaves the
/// pool valid, so a lock poisoned by a panicking reader is still usable.
fn intern(s: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&interned) = pool.get(s) {
        return interned;
    }
    let interned: &'static str = Box::leak(s.into());
    pool.insert(interned);
    interned
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
        assert!(h.with(FlightRecorder::snapshot).is_none());
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
        let root = tracer.start(SpanId::NONE, "guest", "request", t(0), []);
        tracer.span(root, "core", "device", t(10), t(90), [("blocks", 4)]);
        tracer.end(root, t(100));
        // An unrelated root must not leak into the subtree.
        tracer.span(SpanId::NONE, "guest", "request", t(200), t(300), []);
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
            serde_json::to_string(&r.snapshot().to_json()).unwrap()
        };
        let a = run();
        assert_eq!(a, run(), "same inputs, byte-identical snapshot");
        // Every ring event serializes as a 5-wide integer row.
        let r = FlightRecorder::new(FlightConfig::default().capacity(8));
        r.append(t(5), FlightEventKind::RequestStart, 1, 42, 0);
        r.append(t(9), FlightEventKind::Doorbell, 1, 42, 5);
        let snapshot = r.snapshot().to_json();
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

    fn exemplar(seq: u64, latency_ns: u64, spans: Vec<Span>) -> Exemplar {
        Exemplar {
            window: 0,
            seq,
            disk: 0,
            t_ns: 1_000,
            latency_ns,
            root: spans.first().map_or(0, |s| s.id.0),
            spans,
        }
    }

    fn snapshot(events: Vec<FlightEvent>, exemplars: Vec<Exemplar>) -> FlightSnapshot {
        FlightSnapshot {
            capacity: 16,
            total: events.len() as u64,
            dropped: 0,
            events,
            exemplars,
        }
    }

    #[test]
    fn the_worst_exemplar_is_the_slowest_then_the_earliest() {
        let snap = snapshot(
            Vec::new(),
            vec![
                exemplar(5, 300, Vec::new()),
                exemplar(4, 900, Vec::new()),
                exemplar(2, 900, Vec::new()),
                exemplar(1, 100, Vec::new()),
            ],
        );
        assert_eq!(snap.worst_exemplar().map(|x| x.seq), Some(2));
        assert!(snapshot(Vec::new(), Vec::new()).worst_exemplar().is_none());
    }

    #[test]
    fn vf_events_leave_out_btlb_misses() {
        let ev = |t_ns, kind, func| FlightEvent {
            t_ns,
            kind,
            func,
            a: 0,
            b: 0,
        };
        let snap = snapshot(
            vec![
                ev(1, FlightEventKind::RequestStart, 2),
                ev(2, FlightEventKind::BtlbMiss, 2),
                ev(3, FlightEventKind::Doorbell, 1),
                ev(4, FlightEventKind::RequestComplete, 2),
            ],
            Vec::new(),
        );
        let times: Vec<u64> = snap.vf_events(2).iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![1, 4], "a miss's func is a nesting level");
        assert!(snap.vf_events(7).is_empty());
    }

    #[test]
    fn the_exemplar_trace_tags_each_span_with_its_request() {
        use crate::trace::Tracer;
        let tracer = Tracer::enabled();
        let root = tracer.start(SpanId::NONE, "guest", "request", t(0), []);
        tracer.span(root, "core", "device", t(10), t(90), [("blocks", 4)]);
        tracer.end(root, t(100));
        let snap = snapshot(Vec::new(), vec![exemplar(42, 100, tracer.subtree(root))]);
        let doc = snap.exemplar_trace_json();
        let Some(serde_json::Value::Array(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        let spans: Vec<&serde_json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        for s in &spans {
            let args = s.get("args").unwrap();
            assert_eq!(args.get("exemplar_seq").and_then(|v| v.as_u64()), Some(42));
        }
        let device = spans[1].get("args").unwrap();
        assert_eq!(device.get("blocks").and_then(|v| v.as_u64()), Some(4));
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

    /// A snapshot with a wrapped ring, an exemplar with spans and one
    /// captured with tracing off.
    fn synthetic_snapshot() -> FlightSnapshot {
        use crate::trace::Tracer;
        let tracer = Tracer::enabled();
        let root = tracer.start(SpanId::NONE, "guest", "request", t(0), []);
        let attrs = [("blocks", 4), ("disk", 1)];
        tracer.span(root, "core", "device_wait", t(10), t(90), attrs);
        tracer.end(root, t(100));
        let r = FlightRecorder::new(FlightConfig::default().capacity(4));
        for i in 0..6u64 {
            r.append(t(i), FlightEventKind::from_u8(i as u8).unwrap(), 3, i, 7);
        }
        let mut done = [done(100, 7, 100, root), done(120, 8, 20, SpanId::NONE)];
        r.close_window(0, &mut done, |root| tracer.subtree(root));
        r.snapshot()
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = synthetic_snapshot();
        assert_eq!(snap.dropped, 2, "the ring wrapped");
        assert!(snap.exemplars[1].spans.is_empty());
        let doc = snap.to_json();
        let back = FlightSnapshot::from_json(&doc).unwrap();
        assert_eq!(back.events, snap.events);
        assert_eq!(back.exemplars[0].spans, snap.exemplars[0].spans);
        assert_eq!(
            serde_json::to_string_pretty(&back.to_json()).unwrap(),
            serde_json::to_string_pretty(&doc).unwrap()
        );
    }

    #[test]
    fn reader_rejects_malformed_rows() {
        let doc = synthetic_snapshot().to_json();
        let with_events = |events: serde_json::Value| {
            let mut d = doc.clone();
            *d.get_mut("events").unwrap() = events;
            FlightSnapshot::from_json(&d).unwrap_err()
        };
        let short = with_events(serde_json::json!([[1, 2, 3, 4]]));
        assert_eq!(short, "event has 4 fields, want 5");
        let kind = with_events(serde_json::json!([[1, 11, 3, 4, 5]]));
        assert_eq!(kind, "unknown event kind 11");
        let wide_kind = with_events(serde_json::json!([[1, 257, 3, 4, 5]]));
        assert_eq!(wide_kind, "unknown event kind 257");
        let negative = with_events(serde_json::json!([[1, 2, -3, 4, 5]]));
        assert_eq!(negative, "`func` is not a non-negative integer");
        let text = with_events(serde_json::json!([[1, 2, 3, "a", 5]]));
        assert_eq!(text, "`a` is not a non-negative integer");
        let mut missing = doc.clone();
        let serde_json::Value::Object(pairs) = &mut missing else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "dropped");
        let err = FlightSnapshot::from_json(&missing).unwrap_err();
        assert_eq!(err, "missing `dropped`");
    }

    #[test]
    fn reader_rejects_a_span_wider_than_the_inline_attrs() {
        let doc = synthetic_snapshot().to_json();
        // The second span of the first exemplar (id 2), with `n` attrs.
        let with_attrs = |n: u64| {
            use serde_json::Value::Array;
            let mut d = doc.clone();
            let Some(Array(exemplars)) = d.get_mut("exemplars") else {
                panic!("no exemplars array")
            };
            let Some(Array(spans)) = exemplars[0].get_mut("spans") else {
                panic!("no spans array")
            };
            let span = &mut spans[1];
            assert_eq!(span.get("id"), Some(&serde_json::Value::from(2u64)));
            let keys = ["a", "b", "c", "d", "e", "f"];
            let attrs = (0..n).map(|i| serde_json::json!([keys[i as usize], i]));
            *span.get_mut("attrs").unwrap() = Array(attrs.collect());
            FlightSnapshot::from_json(&d)
        };
        let full = with_attrs(SPAN_ATTRS as u64).unwrap();
        assert_eq!(full.exemplars[0].spans[1].attrs.len(), SPAN_ATTRS);
        let err = with_attrs(SPAN_ATTRS as u64 + 1).unwrap_err();
        assert_eq!(err, "span 2 has more than 5 attrs");
    }

    #[test]
    fn contention_sums_busy_time_per_func() {
        let mk = |kind, func, a, t_ns| FlightEvent {
            t_ns,
            kind,
            func,
            a,
            b: 1,
        };
        let snap = FlightSnapshot {
            capacity: 16,
            total: 4,
            dropped: 0,
            events: vec![
                mk(FlightEventKind::MediaService, 1, 100, 300),
                mk(FlightEventKind::LinkService, 1, 300, 350),
                mk(FlightEventKind::MediaService, 2, 400, 450),
                mk(FlightEventKind::Doorbell, 3, 0, 10),
            ],
            exemplars: Vec::new(),
        };
        assert_eq!(snap.contention_top_k(10), vec![(1, 200, 50), (2, 50, 0)]);
        assert_eq!(snap.contention_top_k(1), vec![(1, 200, 50)]);
    }

    #[test]
    fn event_breakdown_follows_the_payload_contract() {
        let mk = |t_ns, kind, b| FlightEvent {
            t_ns,
            kind,
            func: 1,
            a: 7,
            b,
        };
        let snap = FlightSnapshot {
            capacity: 16,
            total: 3,
            dropped: 0,
            events: vec![
                mk(1000, FlightEventKind::RequestStart, 0),
                mk(1300, FlightEventKind::Doorbell, 1200),
                mk(5000, FlightEventKind::RequestComplete, 4600),
            ],
            exemplars: Vec::new(),
        };
        assert_eq!(
            snap.breakdown_from_events(7),
            Some(vec![
                ("guest_submit", 200),
                ("doorbell", 100),
                ("device_wait", 3300),
                ("guest_complete", 400),
            ])
        );
        assert_eq!(snap.breakdown_from_events(8), None);
    }

    #[test]
    fn checked_breakdown_needs_both_derivations_to_agree_and_tile() {
        use crate::trace::Tracer;
        let tracer = Tracer::enabled();
        let root = tracer.start(SpanId::NONE, "guest", "request", t(1000), []);
        tracer.span(root, "guest", "guest_submit", t(1000), t(1200), []);
        tracer.span(root, "pcie", "doorbell", t(1200), t(1300), []);
        tracer.span(root, "core", "device_wait", t(1300), t(4600), []);
        tracer.span(root, "guest", "guest_complete", t(4600), t(5000), []);
        tracer.end(root, t(5000));
        let r = FlightRecorder::new(FlightConfig::default());
        r.append(t(1000), FlightEventKind::RequestStart, 1, 7, 0);
        r.append(t(1300), FlightEventKind::Doorbell, 1, 7, 1200);
        r.append(t(5000), FlightEventKind::RequestComplete, 1, 7, 4600);
        r.close_window(0, &mut [done(5000, 7, 4000, root)], |root| {
            tracer.subtree(root)
        });
        let mut snap = r.snapshot();
        let ex = snap.exemplars[0].clone();
        let phases = snap.checked_breakdown(&ex).unwrap();
        assert_eq!(phases.iter().map(|&(_, ns)| ns).sum::<u64>(), 4000);
        let mut short = ex.clone();
        short.latency_ns = 3999;
        assert!(snap
            .checked_breakdown(&short)
            .unwrap_err()
            .contains("sum to 4000"));
        let mut pruned = ex.clone();
        pruned.spans.pop();
        assert!(snap.checked_breakdown(&pruned).unwrap_err().contains("!="));
        snap.events.remove(1);
        assert!(snap
            .checked_breakdown(&ex)
            .unwrap_err()
            .contains("fell out"));
    }
}
