//! Hierarchical span tracing.
//!
//! The NeSC paper's argument is about *where latency lives*: replicated
//! software layers (guest stack, vmexits, host backend) versus a
//! hardware-traversed translation path. A flat per-request latency number
//! cannot attribute time to layers; spans can. This module provides a
//! deterministic, simulation-time span tracer that every layer of the
//! model (guest syscall, hypervisor stack, virtio ring, PCIe link,
//! translation unit, media service) reports into, through the
//! [`Probe`](crate::Probe)'s fold:
//!
//! * [`Span`] — one timed interval on one layer, named by its
//!   [`SpanKind`], with a parent link and up to [`SPAN_ATTRS`]
//!   [`AttrKey`]`=value` [`Attrs`] stored inline, forming a tree per
//!   request. A span is an 80-byte `Copy` row of integers that owns no
//!   heap memory, so recording one is a fixed-size append and copying
//!   one (exemplar capture) is a fixed-size move. [`SpanKind::as_str`]
//!   and [`AttrKey::as_str`] are the one table every exporter maps back
//!   through, and [`Span::to_json`] / [`Span::from_json`] the one codec;
//! * [`Tracer`] — a cheaply cloneable handle shared by all layers. A
//!   disabled tracer is a `None` and every operation is a no-op, so the
//!   hot path pays only a branch when tracing is off. Enabled, a span is
//!   written whole, with the attributes known when it opens, under one
//!   borrow of the log;
//! * [`SpanTree`] — an index over a drained span list for breakdown
//!   harnesses and invariant checks;
//! * [`chrome_trace_json`] — Chrome/Perfetto `traceEvents` export.
//!
//! Span ids are assigned sequentially in creation order. Because the
//! simulator is single-threaded and deterministic, the same seed and
//! workload always produce the identical span list — which is what makes
//! golden-trace testing possible.
//!
//! # Example
//!
//! ```
//! use nesc_sim::{AttrKey, SimTime, SpanId, SpanKind, Tracer};
//!
//! let t = SimTime::from_nanos;
//! let tracer = Tracer::enabled();
//! let root = tracer.start(SpanId::NONE, SpanKind::GuestRequest, t(0), [(AttrKey::Bytes, 4096)]);
//! tracer.span(root, SpanKind::Doorbell, t(10), t(30), []);
//! // A late attribute, known only when the request finishes.
//! tracer.attr(root, AttrKey::Failed, 0);
//! tracer.end(root, t(100));
//! let spans = tracer.take_spans();
//! assert_eq!(spans.len(), 2);
//! assert_eq!((spans[0].layer(), spans[1].name()), ("guest", "doorbell"));
//! let attrs: Vec<_> = spans[0].attrs.iter().collect();
//! assert_eq!(attrs, [(AttrKey::Bytes, 4096), (AttrKey::Failed, 0)]);
//! assert_eq!(spans[1].parent, spans[0].id);
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::flight::FlightRecorder;
use crate::hash::IntHashBuilder;
use crate::time::SimTime;

/// Identity of one span. `SpanId::NONE` (0) means "no span" — it is what a
/// disabled tracer returns, what root spans use as their parent, and the
/// default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id: no parent / tracing disabled.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id names a real span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Declares a one-byte enum, `ALL` (its variants in declaration order)
/// and `as_str`, the text each variant exports as.
macro_rules! named {
    ($(#[$doc:meta])* $name:ident { $($variant:ident = $text:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum $name {
            $(#[doc = concat!("`", $text, "`")] $variant,)*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];

            /// The text exporters write for this variant.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)*
                }
            }
        }
    };
}

named! {
    /// What a span times: its `layer:name`, one of the pairs the
    /// [`Probe`](crate::Probe) opens.
    SpanKind {
        GuestRequest = "guest:request",
        HostRequest = "hypervisor:request",
        GuestSubmit = "guest:guest_submit",
        HostSubmit = "hypervisor:host_submit",
        Doorbell = "pcie:doorbell",
        DeviceWait = "core:device_wait",
        Kick = "virtio:kick",
        TrapEmulate = "hypervisor:trap_emulate",
        HostBackend = "hypervisor:host_backend",
        GuestComplete = "guest:guest_complete",
        HostComplete = "hypervisor:host_complete",
        Device = "core:device",
        DeviceResume = "core:device_resume",
        Queue = "core:queue",
        Translate = "core:translate",
        Walk = "extent:walk",
        Media = "storage:media",
        DmaRead = "pcie:dma_read",
        DmaWrite = "pcie:dma_write",
        Anomaly = "telemetry:anomaly",
        Rewalk = "hypervisor:rewalk",
    }
}

named! {
    /// The key of one span attribute.
    AttrKey {
        Disk = "disk",
        Bytes = "bytes",
        Write = "write",
        Failed = "failed",
        Rule = "rule",
        RuleTextHash = "rule_text_hash",
        Window = "window",
        Value = "value",
        Threshold = "threshold",
        Func = "func",
        Blocks = "blocks",
        Stalled = "stalled",
        Run = "run",
        Levels = "levels",
        Transfers = "transfers",
        ExemplarSeq = "exemplar_seq",
    }
}

impl SpanKind {
    /// The layer the time was spent in (`guest`, `hypervisor`, `virtio`,
    /// `core`, `extent`, `pcie`, `storage`, `telemetry`).
    pub fn layer(self) -> &'static str {
        self.as_str().split_once(':').map_or("", |(layer, _)| layer)
    }

    /// What happened (`request`, `doorbell`, `translate`, ...).
    pub fn name(self) -> &'static str {
        self.as_str().split_once(':').map_or("", |(_, name)| name)
    }
}

/// The most attributes one span holds: the widest spans carry 5 —
/// `telemetry:anomaly`, and a request root's 4 plus the `exemplar_seq`
/// the exemplar trace export puts ahead of them.
pub const SPAN_ATTRS: usize = 5;

/// A span's `key=value` attributes, stored inline: at most
/// [`SPAN_ATTRS`], so a span owns no heap memory. [`iter`](Self::iter)
/// yields those set, in the order they were added.
///
/// An array wider than the capacity does not compile:
///
/// ```compile_fail
/// use nesc_sim::AttrKey::*;
/// let kv = [(Disk, 1), (Bytes, 2), (Write, 3), (Failed, 4), (Rule, 5), (Window, 6)];
/// let _ = nesc_sim::Attrs::from(kv);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Attrs {
    /// The keys set, in order; the slots after them are `None`.
    keys: [Option<AttrKey>; SPAN_ATTRS],
    /// The values as native-endian bytes, 0 where unset: byte arrays
    /// leave the struct unaligned, so a [`Span`] packs its kind beside it
    /// with no padding.
    values: [[u8; 8]; SPAN_ATTRS],
}

/// Compile-time proof that `N` attributes fit in a span.
struct Fits<const N: usize>;

impl<const N: usize> Fits<N> {
    const OK: () = assert!(N <= SPAN_ATTRS, "more attributes than a span holds");
}

impl Attrs {
    /// Appends `key=value`. Returns `false`, leaving the list as it was,
    /// when all [`SPAN_ATTRS`] slots are taken.
    #[must_use]
    pub fn push(&mut self, key: AttrKey, value: u64) -> bool {
        let mut slots = self.keys.iter_mut().zip(&mut self.values);
        let Some((k, v)) = slots.find(|(k, _)| k.is_none()) else {
            return false;
        };
        (*k, *v) = (Some(key), value.to_ne_bytes());
        true
    }

    /// The attributes set, in the order they were added.
    pub fn iter(&self) -> impl Iterator<Item = (AttrKey, u64)> + '_ {
        let slots = self.keys.iter().zip(&self.values);
        slots.map_while(|(&k, &v)| Some((k?, u64::from_ne_bytes(v))))
    }
}

/// The attributes of an array, in order; an array wider than
/// [`SPAN_ATTRS`] does not compile.
impl<const N: usize> From<[(AttrKey, u64); N]> for Attrs {
    fn from(kv: [(AttrKey, u64); N]) -> Self {
        let () = Fits::<N>::OK;
        let mut attrs = Attrs::default();
        let slots = attrs.keys.iter_mut().zip(&mut attrs.values);
        for ((k, v), (key, value)) in slots.zip(kv) {
            (*k, *v) = (Some(key), value.to_ne_bytes());
        }
        attrs
    }
}

impl fmt::Debug for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One recorded interval in the span tree: ids, times, attributes and
/// kind, 80 bytes of integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id (sequential from 1, in creation order).
    pub id: SpanId,
    /// Parent span, or [`SpanId::NONE`] for a request root.
    pub parent: SpanId,
    /// Simulated start time.
    pub start: SimTime,
    /// Simulated end time (equals `start` until [`Tracer::end`] is called).
    pub end: SimTime,
    /// `key=value` attributes: those given when the span opened, then
    /// any added by [`Tracer::attr`].
    pub attrs: Attrs,
    /// What the span times.
    pub kind: SpanKind,
}

impl Span {
    /// The layer the time was spent in.
    pub fn layer(&self) -> &'static str {
        self.kind.layer()
    }

    /// What happened.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end.saturating_since(self.start).as_nanos()
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: AttrKey) -> Option<u64> {
        self.attrs.iter().find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    /// The row as a JSON object: ids, `layer`, `name`, times and
    /// `[key, value]` attribute pairs. The one renderer of span rows.
    pub fn to_json(&self) -> serde_json::Value {
        let attrs: Vec<serde_json::Value> = self
            .attrs
            .iter()
            .map(|(k, v)| serde_json::json!([k.as_str(), v]))
            .collect();
        serde_json::json!({
            "id": self.id.0,
            "parent": self.parent.0,
            "layer": self.layer(),
            "name": self.name(),
            "start_ns": self.start.as_nanos(),
            "end_ns": self.end.as_nanos(),
            "attrs": attrs,
        })
    }

    /// Reads back a row [`to_json`](Self::to_json) rendered, so
    /// `from_json(&s.to_json())` is `s`.
    ///
    /// # Errors
    ///
    /// The first malformed part: a missing key, a field that is not a
    /// non-negative integer (or a string, for names), or, naming the
    /// span's id, an unknown kind or attribute key or more attributes
    /// than [`SPAN_ATTRS`].
    pub fn from_json(row: &serde_json::Value) -> Result<Span, String> {
        let int = |key: &str| uint(field(row, key)?, key);
        let text = |v: &'_ serde_json::Value, what: &str| {
            let text = v.as_str().map(str::to_string);
            text.ok_or_else(|| format!("`{what}` is not a string"))
        };
        let id = int("id")?;
        let layer = text(field(row, "layer")?, "layer")?;
        let name = text(field(row, "name")?, "name")?;
        let mut kinds = SpanKind::ALL.iter().copied();
        let kind = kinds.find(|k| (k.layer(), k.name()) == (&*layer, &*name));
        let kind = kind.ok_or_else(|| format!("span {id} has unknown kind {layer}:{name}"))?;
        let mut attrs = Attrs::default();
        for kv in list(field(row, "attrs")?, "attrs")? {
            let (key, value) = match list(kv, "attr")? {
                [k, v] => (text(k, "attr key")?, uint(v, "attr value")?),
                kv => return Err(format!("attr has {} fields, want 2", kv.len())),
            };
            let k = AttrKey::ALL.iter().copied().find(|k| k.as_str() == key);
            let k = k.ok_or_else(|| format!("span {id} has unknown attr key {key}"))?;
            if !attrs.push(k, value) {
                return Err(format!("span {id} has more than {SPAN_ATTRS} attrs"));
            }
        }
        Ok(Span {
            id: SpanId(id),
            parent: SpanId(int("parent")?),
            start: SimTime::from_nanos(int("start_ns")?),
            end: SimTime::from_nanos(int("end_ns")?),
            attrs,
            kind,
        })
    }
}

/// `v[key]`, or an error naming the missing key.
pub(crate) fn field<'a>(
    v: &'a serde_json::Value,
    key: &str,
) -> Result<&'a serde_json::Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

/// `v` as a non-negative integer; `what` names it in the error.
pub(crate) fn uint(v: &serde_json::Value, what: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("`{what}` is not a non-negative integer"))
}

/// `v` as an array; `what` names it in the error.
pub(crate) fn list<'a>(
    v: &'a serde_json::Value,
    what: &str,
) -> Result<&'a [serde_json::Value], String> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| format!("`{what}` is not an array"))
}

/// Spans per segment of the span log (2.5 MiB of spans): more than a
/// traced run usually records between drains, so a drain usually hands
/// back its one segment without a copy. Half as many made a traced
/// 1000-VF run's tracer cost about 0.2 µs more per request.
const SEGMENT_SPANS: usize = 1 << 15;

#[derive(Debug, Default)]
struct TraceLog {
    /// The recorded spans in id order, in segments of [`SEGMENT_SPANS`]
    /// allocated at full size and never grown, so recording a span never
    /// moves the ones before it; only the last segment has free room.
    segments: Vec<Vec<Span>>,
    /// Whether the log keeps its rows in `segments` for
    /// [`Tracer::take_spans`]: false for a log that only feeds a ring.
    keep: bool,
    /// The flight recorder a copy of each row goes to, if one is on.
    ring: Option<Rc<FlightRecorder>>,
    next_id: u64,
    /// Ids `1..=drained` were taken by earlier [`Tracer::take_spans`]
    /// calls, or by the tracers this one continues after; mutations of
    /// the log aimed at them are ignored.
    drained: u64,
}

impl TraceLog {
    fn len(&self) -> usize {
        self.segments.last().map_or(0, |last| {
            (self.segments.len() - 1) * SEGMENT_SPANS + last.len()
        })
    }

    /// The log's position of span `id`, if it was not drained.
    fn index(&self, id: SpanId) -> Option<usize> {
        (id.0 > self.drained).then(|| (id.0 - self.drained - 1) as usize)
    }

    /// Applies `f` to span `id`: the log's row, if not drained, and the
    /// ring's copy, while retained.
    fn update(&mut self, id: SpanId, f: impl Fn(&mut Span)) {
        if let Some(ring) = &self.ring {
            ring.update(id, &f);
        }
        let Some(i) = self.index(id) else {
            return;
        };
        let segment = self.segments.get_mut(i / SEGMENT_SPANS);
        if let Some(span) = segment.and_then(|seg| seg.get_mut(i % SEGMENT_SPANS)) {
            f(span);
        }
    }

    /// The spans from log position `i` on, in id order.
    fn spans_from(&self, i: usize) -> impl Iterator<Item = &Span> {
        let skip = i % SEGMENT_SPANS;
        self.segments
            .iter()
            .skip(i / SEGMENT_SPANS)
            .enumerate()
            .flat_map(move |(j, seg)| seg.get(if j == 0 { skip } else { 0 }..).unwrap_or_default())
    }

    /// Records a span under the next id: appends it to the log if the log
    /// keeps rows, and writes it into the ring if one is on.
    fn record(
        &mut self,
        parent: SpanId,
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
        attrs: Attrs,
    ) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        let span = Span {
            id,
            parent,
            start,
            end,
            attrs,
            kind,
        };
        if let Some(ring) = &self.ring {
            ring.write(span);
        }
        if !self.keep {
            return id;
        }
        match self.segments.last_mut() {
            Some(last) if last.len() < SEGMENT_SPANS => last.push(span),
            _ => {
                let mut segment = Vec::with_capacity(SEGMENT_SPANS);
                segment.push(span);
                self.segments.push(segment);
            }
        }
        id
    }
}

/// A cheaply cloneable tracing handle shared by every simulated layer.
///
/// Disabled (the default) it holds no allocation and every method is a
/// no-op returning [`SpanId::NONE`]; enabled it appends to a shared span
/// log. Handles cloned from one enabled tracer all record into the same
/// log; the [`Probe`](crate::Probe) is what every layer reports through.
/// The probe's log also writes each row into the flight recorder's ring
/// when one is on; with tracing off, that log keeps no rows of its own
/// and reads as disabled.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceLog>>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer::enabled_after(0)
    }

    /// A recording tracer whose ids continue after the `minted` ones
    /// earlier tracers handed out: its first span gets id `minted + 1`,
    /// and ids up to `minted` read as drained. A tracer re-enabled this
    /// way never gives a second span an id a stale reference still holds.
    pub fn enabled_after(minted: u64) -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceLog {
                keep: true,
                next_id: minted + 1,
                drained: minted,
                ..TraceLog::default()
            }))),
        }
    }

    /// This log, writing a copy of each row it records from now on into
    /// `ring`, or into no ring. A disabled tracer given a ring becomes a
    /// log that keeps no rows of its own, its ids continuing after
    /// `minted`.
    pub(crate) fn recording_into(self, ring: Option<Rc<FlightRecorder>>, minted: u64) -> Tracer {
        match self.inner {
            Some(inner) if inner.borrow().keep => {
                inner.borrow_mut().ring = ring;
                Tracer { inner: Some(inner) }
            }
            _ => Tracer {
                inner: ring.map(|ring| {
                    Rc::new(RefCell::new(TraceLog {
                        ring: Some(ring),
                        next_id: minted + 1,
                        drained: minted,
                        ..TraceLog::default()
                    }))
                }),
            },
        }
    }

    /// A no-op tracer (the default).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether spans are being recorded for [`take_spans`](Self::take_spans).
    pub fn is_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|inner| inner.borrow().keep)
    }

    /// Whether spans are minted: tracing or a flight ring is on.
    pub(crate) fn records(&self) -> bool {
        self.inner.is_some()
    }

    /// Span ids handed out so far, those this tracer continues after
    /// included; 0 when disabled.
    pub fn minted(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().next_id - 1)
    }

    /// Opens a span with the attributes known at `at`. Returns
    /// [`SpanId::NONE`] when disabled.
    // nesc-lint: hot
    pub fn start<const N: usize>(
        &self,
        parent: SpanId,
        kind: SpanKind,
        at: SimTime,
        attrs: [(AttrKey, u64); N],
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let attrs = Attrs::from(attrs);
        inner.borrow_mut().record(parent, kind, at, at, attrs)
    }

    /// Closes a span at `at`.
    ///
    /// Span intervals must be monotonic; closing before the recorded start
    /// is a recording bug and debug-asserts.
    pub fn end(&self, id: SpanId, at: SimTime) {
        let Some(inner) = &self.inner else {
            return;
        };
        inner.borrow_mut().update(id, |span| {
            debug_assert!(
                at >= span.start,
                "span {} ends at {at} before it started at {}",
                span.kind.as_str(),
                span.start
            );
            span.end = at;
        });
    }

    /// Records a complete span in one call, with its attributes.
    // nesc-lint: hot
    pub fn span<const N: usize>(
        &self,
        parent: SpanId,
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
        attrs: [(AttrKey, u64); N],
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        debug_assert!(
            end >= start,
            "span {} ends at {end} before it started at {start}",
            kind.as_str()
        );
        let attrs = Attrs::from(attrs);
        inner.borrow_mut().record(parent, kind, start, end, attrs)
    }

    /// Attaches a `key=value` attribute known only after the span opened.
    /// A span already holding [`SPAN_ATTRS`] is left as it was (and
    /// debug-asserts).
    // nesc-lint: hot
    pub fn attr(&self, id: SpanId, key: AttrKey, value: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        inner.borrow_mut().update(id, |span| {
            let fits = span.attrs.push(key, value);
            debug_assert!(
                fits,
                "span {} has no room for attribute {}",
                span.kind.as_str(),
                key.as_str()
            );
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.borrow().len(),
            None => 0,
        }
    }

    /// Whether no spans have been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains all recorded spans, in creation (id) order. Id assignment
    /// continues from where it left off, so ids stay unique across drains.
    /// Drained spans can no longer be ended or annotated, so drain only at
    /// quiescent points.
    pub fn take_spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => {
                let mut log = inner.borrow_mut();
                log.drained = log.next_id - 1;
                // The first segment becomes the result; only later ones
                // are copied.
                std::mem::take(&mut log.segments)
                    .into_iter()
                    .reduce(|mut spans, segment| {
                        spans.extend(segment);
                        spans
                    })
                    .unwrap_or_default()
            }
            None => Vec::new(),
        }
    }

    /// Copies the subtree rooted at `root` — the root span plus every
    /// not-yet-drained descendant, in creation (id) order — *without*
    /// draining the log. This is what the flight recorder's exemplar
    /// capture uses: the worst-K requests get their full trees copied out
    /// while the log keeps recording (and a later [`take_spans`]
    /// (Self::take_spans) still returns everything).
    ///
    /// Spans are stored in id order and parents always precede their
    /// children, so the root's descendants all come after it: the pass
    /// starts at the root and costs O(spans recorded since the root), not
    /// O(log) — at a window close, about one window's worth.
    ///
    /// Returns an empty vector when disabled, when `root` is
    /// [`SpanId::NONE`], or when the root was already drained.
    pub fn subtree(&self, root: SpanId) -> Vec<Span> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let log = inner.borrow();
        let Some(first) = log.index(root).filter(|_| root.is_some()) else {
            return Vec::new();
        };
        // `keep[i]`: whether span `root + i` is in the subtree.
        let mut keep = Vec::with_capacity(log.len().saturating_sub(first));
        let mut out = Vec::new();
        for s in log.spans_from(first) {
            let kept = keep.is_empty()
                || s.parent.0 >= root.0
                    && keep
                        .get((s.parent.0 - root.0) as usize)
                        .copied()
                        .unwrap_or(false);
            if kept {
                out.push(*s);
            }
            keep.push(kept);
        }
        out
    }
}

/// An index over a drained span list: children per parent, roots, and the
/// structural invariants the observability tests assert.
#[derive(Debug)]
pub struct SpanTree {
    spans: Vec<Span>,
    /// `spans` indices of the roots, in creation order.
    roots: Vec<usize>,
    /// Parent span id -> `spans` indices of its children, creation order.
    children: HashMap<u64, Vec<usize>, IntHashBuilder>,
    /// Span id -> `spans` index of the first span with that id.
    index: HashMap<u64, usize, IntHashBuilder>,
}

impl SpanTree {
    /// Builds the index.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut roots = Vec::new();
        let mut children: HashMap<u64, Vec<usize>, IntHashBuilder> = HashMap::default();
        let mut index: HashMap<u64, usize, IntHashBuilder> = HashMap::default();
        for (i, s) in spans.iter().enumerate() {
            index.entry(s.id.0).or_insert(i);
            if s.parent.is_some() {
                children.entry(s.parent.0).or_default().push(i);
            } else {
                roots.push(i);
            }
        }
        SpanTree {
            spans,
            roots,
            children,
            index,
        }
    }

    /// The span with id `id`, if the forest has one.
    fn get(&self, id: SpanId) -> Option<&Span> {
        self.index.get(&id.0).and_then(|&i| self.spans.get(i))
    }

    /// All spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The root spans (no parent), in creation order.
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.roots.iter().map(|&i| &self.spans[i])
    }

    /// Direct children of `id`, in creation order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.children
            .get(&id.0)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&i| &self.spans[i])
    }

    /// Checks structural sanity of the whole forest: every child's
    /// interval is contained in its parent's, every parent id refers to an
    /// earlier span, and every span ends at or after it starts. Returns a
    /// description of the first violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the offending span.
    pub fn check_nesting(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end < s.start {
                let (id, kind) = (s.id.0, s.kind.as_str());
                return Err(format!(
                    "span {id} ({kind}) ends at {} before start {}",
                    s.end, s.start
                ));
            }
            if s.parent.is_some() {
                if s.parent.0 >= s.id.0 {
                    return Err(format!(
                        "span {} has non-causal parent {}",
                        s.id.0, s.parent.0
                    ));
                }
                let Some(p) = self.get(s.parent) else {
                    return Err(format!(
                        "span {} has dangling parent {}",
                        s.id.0, s.parent.0
                    ));
                };
                if s.start < p.start || s.end > p.end {
                    let (id, kind) = (s.id.0, s.kind.as_str());
                    return Err(format!(
                        "span {id} ({kind}) [{}, {}] escapes parent {} [{}, {}]",
                        s.start, s.end, p.id.0, p.start, p.end
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks that the direct children of `root` *partition* its interval:
    /// the first child starts exactly at the root's start, each subsequent
    /// child starts where its predecessor ended, and the last child ends
    /// exactly at the root's end — so the children's durations sum to the
    /// root's end-to-end duration with nothing unattributed. Roots without
    /// children trivially pass.
    ///
    /// # Errors
    ///
    /// A description of the first gap or overlap.
    pub fn check_partition(&self, root: SpanId) -> Result<(), String> {
        let Some(r) = self.get(root) else {
            return Err(format!("no span {}", root.0));
        };
        let kids: Vec<&Span> = self.children(root).collect();
        if kids.is_empty() {
            return Ok(());
        }
        let mut cursor = r.start;
        for k in &kids {
            if k.start != cursor {
                let (id, kind) = (k.id.0, k.kind.as_str());
                let (at, want) = (k.start.as_nanos(), cursor.as_nanos());
                return Err(format!(
                    "child {id} ({kind}) of span {} starts at {at} ns, expected {want} ns \
                     (children must tile the parent)",
                    root.0
                ));
            }
            cursor = k.end;
        }
        if cursor != r.end {
            let (at, want) = (cursor.as_nanos(), r.end.as_nanos());
            return Err(format!(
                "children of span {} end at {at} ns, parent ends at {want} ns",
                root.0
            ));
        }
        Ok(())
    }

    /// Sums the durations of `root`'s direct children grouped by span
    /// kind, in first-appearance order — the per-layer breakdown the
    /// latency harness prints.
    pub fn child_breakdown(&self, root: SpanId) -> Vec<(SpanKind, u64)> {
        let mut out: Vec<(SpanKind, u64)> = Vec::new();
        for k in self.children(root) {
            match out.iter_mut().find(|(kind, _)| *kind == k.kind) {
                Some((_, total)) => *total += k.duration_ns(),
                None => out.push((k.kind, k.duration_ns())),
            }
        }
        out
    }
}

/// Serializes spans as a Chrome/Perfetto trace-event JSON document
/// (`chrome://tracing` "JSON Array Format" wrapped in an object with a
/// `traceEvents` key, complete `ph:"X"` events, microsecond timestamps).
/// Layers map to Perfetto threads of one process, so the trace opens as a
/// per-layer swimlane view; span attributes land in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> serde_json::Value {
    // Deterministic layer -> tid mapping, in first-appearance order.
    let mut layers: Vec<&'static str> = Vec::new();
    for s in spans {
        if !layers.contains(&s.layer()) {
            layers.push(s.layer());
        }
    }
    let mut events: Vec<serde_json::Value> = Vec::new();
    for (tid, layer) in layers.iter().enumerate() {
        events.push(serde_json::json!({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid + 1,
            "args": { "name": *layer },
        }));
    }
    for s in spans {
        let tid = layers.iter().position(|&l| l == s.layer()).unwrap_or(0) + 1;
        let mut args: Vec<(String, serde_json::Value)> = vec![
            ("span".to_string(), serde_json::Value::from(s.id.0)),
            ("parent".to_string(), serde_json::Value::from(s.parent.0)),
        ];
        for (k, v) in s.attrs.iter() {
            args.push((k.as_str().to_string(), serde_json::Value::from(v)));
        }
        events.push(serde_json::json!({
            "name": s.name(),
            "cat": s.layer(),
            "ph": "X",
            "ts": s.start.as_nanos() as f64 / 1_000.0,
            "dur": s.duration_ns() as f64 / 1_000.0,
            "pid": 1,
            "tid": tid,
            "args": serde_json::Value::Object(args),
        }));
    }
    serde_json::json!({
        "traceEvents": events,
        "displayTimeUnit": "ns",
    })
}

/// Structurally validates a Chrome trace-event document produced by
/// [`chrome_trace_json`] (or anything claiming the same format): a
/// `traceEvents` array whose entries carry the mandatory `name`/`ph`/
/// `pid`/`tid` fields, with `ts` and `dur` present and non-negative on
/// every complete (`"X"`) event.
///
/// # Errors
///
/// A description of the first malformed event.
pub fn validate_chrome_trace(doc: &serde_json::Value) -> Result<usize, String> {
    let Some(serde_json::Value::Array(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    for (i, ev) in events.iter().enumerate() {
        for field in ["name", "ph", "pid", "tid"] {
            if ev.get(field).is_none() {
                return Err(format!("event {i} missing {field}"));
            }
        }
        let ph = match ev.get("ph") {
            Some(serde_json::Value::String(s)) => s.clone(),
            _ => return Err(format!("event {i} has non-string ph")),
        };
        if ph == "X" {
            for field in ["ts", "dur"] {
                match ev.get(field) {
                    Some(serde_json::Value::Number(_)) => {}
                    _ => return Err(format!("event {i} (ph=X) missing numeric {field}")),
                }
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use AttrKey as A;
    use SpanKind as K;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_is_noop() {
        let tr = Tracer::disabled();
        assert!(!tr.is_enabled());
        let id = tr.start(SpanId::NONE, K::GuestRequest, t(0), []);
        assert_eq!(id, SpanId::NONE);
        tr.end(id, t(10));
        tr.attr(id, A::Value, 1);
        assert!(tr.take_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_ids_are_sequential() {
        let tr = Tracer::enabled();
        let root = tr.start(SpanId::NONE, K::GuestRequest, t(0), []);
        let a = tr.start(root, K::Device, t(10), []);
        tr.end(a, t(50));
        tr.end(root, t(60));
        let spans = tr.take_spans();
        assert_eq!(spans[0].id, SpanId(1));
        assert_eq!(spans[1].id, SpanId(2));
        assert_eq!(spans[1].parent, SpanId(1));
        let tree = SpanTree::new(spans);
        tree.check_nesting().unwrap();
    }

    #[test]
    fn partition_check_catches_gaps() {
        let tr = Tracer::enabled();
        let root = tr.start(SpanId::NONE, K::GuestRequest, t(0), []);
        tr.span(root, K::GuestSubmit, t(0), t(10), []);
        tr.span(root, K::Device, t(10), t(90), []);
        tr.end(root, t(100));
        let tree = SpanTree::new(tr.take_spans());
        let err = tree.check_partition(SpanId(1)).unwrap_err();
        assert!(err.contains("end at"), "{err}");
    }

    #[test]
    fn partition_check_accepts_tiling() {
        let tr = Tracer::enabled();
        let root = tr.start(SpanId::NONE, K::GuestRequest, t(5), []);
        tr.span(root, K::GuestSubmit, t(5), t(10), []);
        tr.span(root, K::Device, t(10), t(90), []);
        tr.span(root, K::GuestComplete, t(90), t(100), []);
        tr.end(root, t(100));
        let tree = SpanTree::new(tr.take_spans());
        tree.check_partition(SpanId(1)).unwrap();
        let bd = tree.child_breakdown(SpanId(1));
        assert_eq!(bd.len(), 3);
        assert_eq!(bd.iter().map(|(_, d)| d).sum::<u64>(), 95);
    }

    #[test]
    fn chrome_export_validates() {
        let tr = Tracer::enabled();
        let root = tr.start(SpanId::NONE, K::GuestRequest, t(0), []);
        let dev = tr.start(root, K::Device, t(100), [(A::Blocks, 4)]);
        tr.end(dev, t(900));
        tr.end(root, t(1000));
        let doc = chrome_trace_json(&tr.take_spans());
        // 2 thread-name metadata events + 2 span events.
        assert_eq!(validate_chrome_trace(&doc).unwrap(), 4);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\": \"X\""));
    }

    #[test]
    fn attrs_readable_back() {
        let tr = Tracer::enabled();
        let s = tr.start(SpanId::NONE, K::Device, t(0), [(A::Blocks, 8)]);
        tr.attr(s, A::Stalled, 1);
        tr.end(s, t(10));
        tr.span(s, K::Translate, t(0), t(5), [(A::Run, 64), (A::Levels, 2)]);
        let spans = tr.take_spans();
        let attrs: Vec<_> = spans[0].attrs.iter().collect();
        assert_eq!(attrs, [(A::Blocks, 8), (A::Stalled, 1)]);
        assert_eq!(spans[1].attr(A::Run), Some(64));
        assert_eq!(spans[1].attr(A::Window), None);
    }

    #[test]
    fn attrs_compare_and_print_only_what_is_set() {
        let mut a = Attrs::from([(A::Disk, 1)]);
        let b = Attrs::from([(A::Disk, 1)]);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[(Disk, 1)]");
        assert_eq!(Attrs::default(), Attrs::from([]));
        assert!(a.push(A::Bytes, 2));
        assert_ne!(a, b);
        // A full list refuses the next attribute and keeps what it had.
        let mut full = Attrs::from([
            (A::Disk, 1),
            (A::Bytes, 2),
            (A::Write, 3),
            (A::Failed, 4),
            (A::Rule, 5),
        ]);
        let before = full;
        assert!(!full.push(A::Window, 6));
        assert_eq!(full, before);
        assert_eq!(full.iter().count(), SPAN_ATTRS);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no room for attribute window")]
    fn attr_past_capacity_debug_asserts() {
        let tr = Tracer::enabled();
        let kv = [
            (A::Disk, 1),
            (A::Bytes, 2),
            (A::Write, 3),
            (A::Failed, 4),
            (A::Rule, 5),
        ];
        let s = tr.start(SpanId::NONE, K::Anomaly, t(0), kv);
        tr.attr(s, A::Window, 6);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn attr_past_capacity_leaves_the_span_as_it_was() {
        let tr = Tracer::enabled();
        let kv = [
            (A::Disk, 1),
            (A::Bytes, 2),
            (A::Write, 3),
            (A::Failed, 4),
            (A::Rule, 5),
        ];
        let s = tr.start(SpanId::NONE, K::Anomaly, t(0), kv);
        tr.attr(s, A::Window, 6);
        assert_eq!(tr.take_spans()[0].attrs, Attrs::from(kv));
    }

    #[test]
    fn span_is_one_record_like_start_then_end() {
        let (a, b) = (Tracer::enabled(), Tracer::enabled());
        a.span(SpanId::NONE, K::DmaRead, t(3), t(9), [(A::Bytes, 512)]);
        let s = b.start(SpanId::NONE, K::DmaRead, t(3), [(A::Bytes, 512)]);
        b.end(s, t(9));
        assert_eq!(a.take_spans(), b.take_spans());
    }

    #[test]
    fn a_tracer_enabled_after_others_continues_their_ids() {
        let old = Tracer::enabled();
        let stale = old.start(SpanId::NONE, K::GuestRequest, t(0), []);
        old.span(stale, K::Doorbell, t(0), t(5), []);
        assert_eq!(old.minted(), 2);
        let tr = Tracer::enabled_after(old.minted());
        let root = tr.start(SpanId::NONE, K::GuestRequest, t(10), []);
        assert_eq!(root, SpanId(3), "ids continue after the earlier tracer's");
        // The stale root reads as drained: no subtree, no mutation.
        assert!(tr.subtree(stale).is_empty());
        tr.attr(stale, A::Failed, 1);
        tr.end(stale, t(99));
        tr.end(root, t(20));
        assert_eq!(tr.subtree(root).len(), 1);
        assert_eq!(tr.minted(), 3);
        let spans = tr.take_spans();
        assert_eq!((spans.len(), spans[0].id, spans[0].end), (1, root, t(20)));
        assert_eq!(Tracer::disabled().minted(), 0);
    }

    #[test]
    fn nesting_check_reports_a_dangling_parent() {
        let tr = Tracer::enabled();
        let root = tr.start(SpanId::NONE, K::GuestRequest, t(0), []);
        tr.span(root, K::Device, t(10), t(20), []);
        tr.end(root, t(30));
        let mut spans = tr.take_spans();
        SpanTree::new(spans.clone()).check_nesting().unwrap();
        spans.remove(0);
        let err = SpanTree::new(spans).check_nesting().unwrap_err();
        assert_eq!(err, "span 2 has dangling parent 1");
    }

    /// The undrained log, read without draining it.
    fn undrained(tr: &Tracer) -> (Vec<Span>, u64) {
        let log = tr.inner.as_ref().expect("enabled").borrow();
        (log.segments.concat(), log.drained)
    }

    /// The full-log reference pass: one forward pass over every undrained
    /// span, keeping the root and every span whose parent is kept.
    fn reference_subtree(spans: &[Span], root: SpanId) -> Vec<Span> {
        let mut kept = BTreeSet::new();
        let mut out = Vec::new();
        for s in spans {
            if s.id == root || kept.contains(&s.parent) {
                kept.insert(s.id);
                out.push(*s);
            }
        }
        out
    }

    /// The cases a query can hit; the property requires each one.
    #[derive(Debug, Default)]
    struct Reached {
        interleaved: bool,
        first_after_drain: bool,
        last_span: bool,
        non_root: bool,
        drained_root: bool,
        none: bool,
    }

    /// Compares `subtree` with the reference for `SpanId::NONE` and every
    /// id handed out so far, noting which cases the queries hit.
    fn check_every_root(tr: &Tracer, reached: &mut Reached) -> Result<(), TestCaseError> {
        let (spans, drained) = undrained(tr);
        let last = drained + spans.len() as u64;
        for id in 0..=last {
            let root = SpanId(id);
            let got = tr.subtree(root);
            prop_assert_eq!(&got, &reference_subtree(&spans, root), "root {}", id);
            let live = spans.iter().find(|s| s.id == root);
            reached.none |= id == 0;
            reached.drained_root |= id != 0 && id <= drained;
            reached.first_after_drain |= drained > 0 && id == drained + 1 && live.is_some();
            reached.last_span |= id == last && live.is_some();
            reached.non_root |= live.is_some_and(|s| s.parent.is_some());
            if let (Some(first), Some(end)) = (got.first(), got.last()) {
                reached.interleaved |= end.id.0 - first.id.0 + 1 > got.len() as u64;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// `subtree` starts at the root yet returns exactly what a pass
        /// over the whole undrained log keeps, over generated forests:
        /// interleaved request trees whose spans hang off recent spans
        /// (drained ones included), with drains between them.
        #[test]
        fn prop_subtree_matches_a_full_log_pass(
            ops in collection::vec((0u8..8, any::<u64>()), 150..300)
        ) {
            let tr = Tracer::enabled();
            let mut reached = Reached::default();
            let mut next = 1u64;
            for (i, &(action, pick)) in ops.iter().enumerate() {
                if action == 0 {
                    // Query the pre-drain state, then drain.
                    check_every_root(&tr, &mut reached)?;
                    tr.take_spans();
                    continue;
                }
                // A quarter of the spans open a request; the rest hang off
                // one of the eight most recent spans.
                let back = (pick / 4) % 8;
                let parent = if pick % 4 == 0 || back >= next - 1 {
                    SpanId::NONE
                } else {
                    SpanId(next - 1 - back)
                };
                tr.start(parent, K::GuestRequest, t(i as u64), [(A::Value, i as u64)]);
                next += 1;
            }
            check_every_root(&tr, &mut reached)?;
            let Reached { interleaved, first_after_drain, last_span, non_root, drained_root, none } =
                reached;
            prop_assert!(interleaved, "no interleaved trees");
            prop_assert!(first_after_drain, "no root right after a drain");
            prop_assert!(last_span, "no root as the last span");
            prop_assert!(non_root, "no non-root span as the root");
            prop_assert!(drained_root, "no drained root");
            prop_assert!(none, "no SpanId::NONE root");
        }
    }

    /// A log longer than one segment reads, annotates and drains as one
    /// sequence: a root at a segment's last slot keeps the children
    /// recorded in the next segment.
    #[test]
    fn a_log_spanning_segments_reads_as_one_sequence() {
        let tr = Tracer::enabled();
        let n = 2 * SEGMENT_SPANS + 10;
        let mut root = SpanId::NONE;
        for i in 0..n {
            let id = tr.start(SpanId::NONE, K::GuestRequest, t(i as u64), []);
            if i == SEGMENT_SPANS - 1 {
                root = id;
            }
        }
        // Children of the straddling root land in the next segments.
        let kids: Vec<SpanId> = (0..3)
            .map(|_| tr.start(root, K::Device, t(n as u64), []))
            .collect();
        tr.end(root, t(n as u64 + 1));
        tr.attr(kids[2], A::Value, 7);
        tr.attr(SpanId(n as u64), A::Failed, 1);
        let (spans, _) = undrained(&tr);
        assert_eq!(tr.len(), n + 3);
        let sub = tr.subtree(root);
        assert_eq!(sub, reference_subtree(&spans, root));
        assert_eq!(sub.len(), 4);
        assert_eq!(sub[0].end, t(n as u64 + 1));
        assert_eq!(sub[3].attr(A::Value), Some(7));
        let drained = tr.take_spans();
        assert_eq!(drained, spans);
        assert!(drained
            .iter()
            .enumerate()
            .all(|(i, s)| s.id == SpanId(i as u64 + 1)));
        assert_eq!(drained[n - 1].attr(A::Failed), Some(1));
        assert!(tr.is_empty());
        let next = tr.start(SpanId::NONE, K::GuestRequest, t(0), []);
        assert_eq!(next, SpanId(n as u64 + 4));
        assert_eq!(tr.subtree(next).len(), 1);
    }

    #[test]
    fn a_span_is_an_80_byte_row() {
        assert!(std::mem::size_of::<Span>() <= 80);
    }

    #[test]
    fn every_kind_and_key_reads_back_from_its_text() {
        let tr = Tracer::enabled();
        for (i, &kind) in SpanKind::ALL.iter().enumerate() {
            let key = AttrKey::ALL[i % AttrKey::ALL.len()];
            tr.span(
                SpanId::NONE,
                kind,
                t(i as u64),
                t(i as u64 + 5),
                [(key, i as u64)],
            );
        }
        for span in tr.take_spans() {
            assert_eq!(Span::from_json(&span.to_json()), Ok(span));
        }
        assert_eq!(
            (K::DeviceWait.layer(), K::DeviceWait.name()),
            ("core", "device_wait")
        );
    }

    #[test]
    fn draining_preserves_id_continuity() {
        let tr = Tracer::enabled();
        tr.span(SpanId::NONE, K::GuestRequest, t(0), t(1), []);
        let first = tr.take_spans();
        tr.span(SpanId::NONE, K::GuestRequest, t(2), t(3), []);
        let second = tr.take_spans();
        assert_eq!(first[0].id, SpanId(1));
        assert_eq!(second[0].id, SpanId(2));
    }
}
