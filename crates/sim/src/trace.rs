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
//! * [`Span`] — one timed interval on one layer, with a parent link and
//!   up to [`SPAN_ATTRS`] `key=value` [`Attrs`] stored inline, forming a
//!   tree per request. A span is `Copy` and owns no heap memory, so
//!   recording one is a fixed-size append and copying one (exemplar
//!   capture) is a fixed-size move;
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
//! use nesc_sim::{SimTime, Tracer, SpanId};
//!
//! let t = SimTime::from_nanos;
//! let tracer = Tracer::enabled();
//! let root = tracer.start(SpanId::NONE, "guest", "request", t(0), [("bytes", 4096)]);
//! tracer.span(root, "pcie", "doorbell", t(10), t(30), []);
//! // A late attribute, known only when the request finishes.
//! tracer.attr(root, "failed", 0);
//! tracer.end(root, t(100));
//! let spans = tracer.take_spans();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].layer, "guest");
//! assert_eq!(*spans[0].attrs, [("bytes", 4096), ("failed", 0)]);
//! assert_eq!(spans[1].parent, spans[0].id);
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

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

/// The most attributes one span holds: the widest spans carry 5 —
/// `telemetry:anomaly`, and a request root's 4 plus the `exemplar_seq`
/// the exemplar trace export puts ahead of them.
pub const SPAN_ATTRS: usize = 5;

/// A span's `key=value` attributes, stored inline: at most
/// [`SPAN_ATTRS`], so a span owns no heap memory. Derefs to the
/// attributes set, in the order they were added; equality and `Debug`
/// see only those.
///
/// An array wider than the capacity does not compile:
///
/// ```compile_fail
/// let kv = [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5), ("f", 6)];
/// let _ = nesc_sim::Attrs::from(kv);
/// ```
#[derive(Clone, Copy, Default)]
pub struct Attrs {
    len: usize,
    slots: [(&'static str, u64); SPAN_ATTRS],
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
    pub fn push(&mut self, key: &'static str, value: u64) -> bool {
        let Some(slot) = self.slots.get_mut(self.len) else {
            return false;
        };
        *slot = (key, value);
        self.len += 1;
        true
    }
}

/// The attributes of an array, in order; an array wider than
/// [`SPAN_ATTRS`] does not compile.
impl<const N: usize> From<[(&'static str, u64); N]> for Attrs {
    fn from(kv: [(&'static str, u64); N]) -> Self {
        let () = Fits::<N>::OK;
        let mut slots = [("", 0); SPAN_ATTRS];
        for (slot, kv) in slots.iter_mut().zip(kv) {
            *slot = kv;
        }
        Attrs { len: N, slots }
    }
}

impl Deref for Attrs {
    type Target = [(&'static str, u64)];

    fn deref(&self) -> &Self::Target {
        self.slots.get(..self.len).unwrap_or_default()
    }
}

impl PartialEq for Attrs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Attrs {}

impl fmt::Debug for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One recorded interval in the span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id (sequential from 1, in creation order).
    pub id: SpanId,
    /// Parent span, or [`SpanId::NONE`] for a request root.
    pub parent: SpanId,
    /// The layer the time was spent in (`guest`, `hypervisor`, `virtio`,
    /// `core`, `extent`, `pcie`, `storage`).
    pub layer: &'static str,
    /// What happened (`request`, `doorbell`, `translate`, ...).
    pub name: &'static str,
    /// Simulated start time.
    pub start: SimTime,
    /// Simulated end time (equals `start` until [`Tracer::end`] is called).
    pub end: SimTime,
    /// `key=value` attributes: those given when the span opened, then
    /// any added by [`Tracer::attr`].
    pub attrs: Attrs,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end.saturating_since(self.start).as_nanos()
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Spans per segment of the span log (3 MiB of spans): more than a
/// traced run usually records between drains, so a drain usually hands
/// back its one segment without a copy.
const SEGMENT_SPANS: usize = 16384;

#[derive(Debug, Default)]
struct TraceLog {
    /// The recorded spans in id order, in segments of [`SEGMENT_SPANS`]
    /// allocated at full size and never grown, so recording a span never
    /// moves the ones before it; only the last segment has free room.
    segments: Vec<Vec<Span>>,
    next_id: u64,
    /// Ids `1..=drained` were taken by earlier [`Tracer::take_spans`]
    /// calls, or by the tracers this one continues after; mutations aimed
    /// at them are ignored.
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

    fn span_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        let i = self.index(id)?;
        self.segments
            .get_mut(i / SEGMENT_SPANS)?
            .get_mut(i % SEGMENT_SPANS)
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

    /// Appends a span under the next id.
    fn record(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        attrs: Attrs,
    ) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        let span = Span {
            id,
            parent,
            layer,
            name,
            start,
            end,
            attrs,
        };
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
                next_id: minted + 1,
                drained: minted,
                ..TraceLog::default()
            }))),
        }
    }

    /// A no-op tracer (the default).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
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
        layer: &'static str,
        name: &'static str,
        at: SimTime,
        attrs: [(&'static str, u64); N],
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let attrs = Attrs::from(attrs);
        inner
            .borrow_mut()
            .record(parent, layer, name, at, at, attrs)
    }

    /// Closes a span at `at`.
    ///
    /// Span intervals must be monotonic; closing before the recorded start
    /// is a recording bug and debug-asserts.
    pub fn end(&self, id: SpanId, at: SimTime) {
        let Some(inner) = &self.inner else {
            return;
        };
        if let Some(span) = inner.borrow_mut().span_mut(id) {
            debug_assert!(
                at >= span.start,
                "span {}:{} ends at {at} before it started at {}",
                span.layer,
                span.name,
                span.start
            );
            span.end = at;
        }
    }

    /// Records a complete span in one call, with its attributes.
    // nesc-lint: hot
    pub fn span<const N: usize>(
        &self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        attrs: [(&'static str, u64); N],
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        debug_assert!(
            end >= start,
            "span {layer}:{name} ends at {end} before it started at {start}"
        );
        let attrs = Attrs::from(attrs);
        inner
            .borrow_mut()
            .record(parent, layer, name, start, end, attrs)
    }

    /// Attaches a `key=value` attribute known only after the span opened.
    /// A span already holding [`SPAN_ATTRS`] is left as it was (and
    /// debug-asserts).
    // nesc-lint: hot
    pub fn attr(&self, id: SpanId, key: &'static str, value: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        if let Some(span) = inner.borrow_mut().span_mut(id) {
            let fits = span.attrs.push(key, value);
            debug_assert!(
                fits,
                "span {}:{} has no room for attribute {key}",
                span.layer, span.name
            );
        }
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
                return Err(format!(
                    "span {} ({}:{}) ends at {} before start {}",
                    s.id.0, s.layer, s.name, s.end, s.start
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
                    return Err(format!(
                        "span {} ({}:{}) [{}, {}] escapes parent {} [{}, {}]",
                        s.id.0, s.layer, s.name, s.start, s.end, p.id.0, p.start, p.end
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
                return Err(format!(
                    "child {} ({}:{}) of span {} starts at {}, expected {} \
                     (children must tile the parent)",
                    k.id.0, k.layer, k.name, root.0, k.start, cursor
                ));
            }
            cursor = k.end;
        }
        if cursor != r.end {
            return Err(format!(
                "children of span {} end at {}, parent ends at {}",
                root.0, cursor, r.end
            ));
        }
        Ok(())
    }

    /// Sums the durations of `root`'s direct children grouped by span
    /// name, in first-appearance order — the per-layer breakdown the
    /// latency harness prints.
    pub fn child_breakdown(&self, root: SpanId) -> Vec<(&'static str, &'static str, u64)> {
        let mut out: Vec<(&'static str, &'static str, u64)> = Vec::new();
        for k in self.children(root) {
            match out.iter_mut().find(|(n, _, _)| *n == k.name) {
                Some((_, _, total)) => *total += k.duration_ns(),
                None => out.push((k.name, k.layer, k.duration_ns())),
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
        if !layers.contains(&s.layer) {
            layers.push(s.layer);
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
        let tid = layers.iter().position(|l| l == &s.layer).unwrap_or(0) + 1;
        let mut args: Vec<(String, serde_json::Value)> = vec![
            ("span".to_string(), serde_json::Value::from(s.id.0)),
            ("parent".to_string(), serde_json::Value::from(s.parent.0)),
        ];
        for (k, v) in s.attrs.iter() {
            args.push((k.to_string(), serde_json::Value::from(*v)));
        }
        events.push(serde_json::json!({
            "name": s.name,
            "cat": s.layer,
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

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_is_noop() {
        let tr = Tracer::disabled();
        assert!(!tr.is_enabled());
        let id = tr.start(SpanId::NONE, "guest", "request", t(0), []);
        assert_eq!(id, SpanId::NONE);
        tr.end(id, t(10));
        tr.attr(id, "k", 1);
        assert!(tr.take_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_ids_are_sequential() {
        let tr = Tracer::enabled();
        let root = tr.start(SpanId::NONE, "guest", "request", t(0), []);
        let a = tr.start(root, "core", "device", t(10), []);
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
        let root = tr.start(SpanId::NONE, "guest", "request", t(0), []);
        tr.span(root, "guest", "submit", t(0), t(10), []);
        tr.span(root, "core", "device", t(10), t(90), []);
        tr.end(root, t(100));
        let tree = SpanTree::new(tr.take_spans());
        let err = tree.check_partition(SpanId(1)).unwrap_err();
        assert!(err.contains("end at"), "{err}");
    }

    #[test]
    fn partition_check_accepts_tiling() {
        let tr = Tracer::enabled();
        let root = tr.start(SpanId::NONE, "guest", "request", t(5), []);
        tr.span(root, "guest", "submit", t(5), t(10), []);
        tr.span(root, "core", "device", t(10), t(90), []);
        tr.span(root, "guest", "complete", t(90), t(100), []);
        tr.end(root, t(100));
        let tree = SpanTree::new(tr.take_spans());
        tree.check_partition(SpanId(1)).unwrap();
        let bd = tree.child_breakdown(SpanId(1));
        assert_eq!(bd.len(), 3);
        assert_eq!(bd.iter().map(|(_, _, d)| d).sum::<u64>(), 95);
    }

    #[test]
    fn chrome_export_validates() {
        let tr = Tracer::enabled();
        let root = tr.start(SpanId::NONE, "guest", "request", t(0), []);
        let dev = tr.start(root, "core", "device", t(100), [("blocks", 4)]);
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
        let s = tr.start(SpanId::NONE, "core", "device", t(0), [("blocks", 8)]);
        tr.attr(s, "stalled", 1);
        tr.end(s, t(10));
        tr.span(
            s,
            "core",
            "translate",
            t(0),
            t(5),
            [("run", 64), ("levels", 2)],
        );
        let spans = tr.take_spans();
        assert_eq!(*spans[0].attrs, [("blocks", 8), ("stalled", 1)]);
        assert_eq!(spans[1].attr("run"), Some(64));
        assert_eq!(spans[1].attr("missing"), None);
    }

    #[test]
    fn attrs_compare_and_print_only_what_is_set() {
        let mut a = Attrs::from([("x", 1)]);
        let b = Attrs::from([("x", 1)]);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), r#"[("x", 1)]"#);
        assert_eq!(Attrs::default(), Attrs::from([]));
        assert!(a.push("y", 2));
        assert_ne!(a, b);
        // A full list refuses the next attribute and keeps what it had.
        let mut full = Attrs::from([("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)]);
        let before = full;
        assert!(!full.push("f", 6));
        assert_eq!(full, before);
        assert_eq!(full.len(), SPAN_ATTRS);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no room for attribute f")]
    fn attr_past_capacity_debug_asserts() {
        let tr = Tracer::enabled();
        let kv = [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)];
        let s = tr.start(SpanId::NONE, "telemetry", "anomaly", t(0), kv);
        tr.attr(s, "f", 6);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn attr_past_capacity_leaves_the_span_as_it_was() {
        let tr = Tracer::enabled();
        let kv = [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)];
        let s = tr.start(SpanId::NONE, "telemetry", "anomaly", t(0), kv);
        tr.attr(s, "f", 6);
        assert_eq!(*tr.take_spans()[0].attrs, kv);
    }

    #[test]
    fn span_is_one_record_like_start_then_end() {
        let (a, b) = (Tracer::enabled(), Tracer::enabled());
        a.span(
            SpanId::NONE,
            "pcie",
            "dma_read",
            t(3),
            t(9),
            [("bytes", 512)],
        );
        let s = b.start(SpanId::NONE, "pcie", "dma_read", t(3), [("bytes", 512)]);
        b.end(s, t(9));
        assert_eq!(a.take_spans(), b.take_spans());
    }

    #[test]
    fn a_tracer_enabled_after_others_continues_their_ids() {
        let old = Tracer::enabled();
        let stale = old.start(SpanId::NONE, "guest", "request", t(0), []);
        old.span(stale, "pcie", "doorbell", t(0), t(5), []);
        assert_eq!(old.minted(), 2);
        let tr = Tracer::enabled_after(old.minted());
        let root = tr.start(SpanId::NONE, "guest", "request", t(10), []);
        assert_eq!(root, SpanId(3), "ids continue after the earlier tracer's");
        // The stale root reads as drained: no subtree, no mutation.
        assert!(tr.subtree(stale).is_empty());
        tr.attr(stale, "failed", 1);
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
        let root = tr.start(SpanId::NONE, "guest", "request", t(0), []);
        tr.span(root, "core", "device", t(10), t(20), []);
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
                tr.start(parent, "guest", "op", t(i as u64), [("op", i as u64)]);
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
            let id = tr.start(SpanId::NONE, "guest", "op", t(i as u64), []);
            if i == SEGMENT_SPANS - 1 {
                root = id;
            }
        }
        // Children of the straddling root land in the next segments.
        let kids: Vec<SpanId> = (0..3)
            .map(|_| tr.start(root, "core", "kid", t(n as u64), []))
            .collect();
        tr.end(root, t(n as u64 + 1));
        tr.attr(kids[2], "k", 7);
        tr.attr(SpanId(n as u64), "last", 1);
        let (spans, _) = undrained(&tr);
        assert_eq!(tr.len(), n + 3);
        let sub = tr.subtree(root);
        assert_eq!(sub, reference_subtree(&spans, root));
        assert_eq!(sub.len(), 4);
        assert_eq!(sub[0].end, t(n as u64 + 1));
        assert_eq!(sub[3].attr("k"), Some(7));
        let drained = tr.take_spans();
        assert_eq!(drained, spans);
        assert!(drained
            .iter()
            .enumerate()
            .all(|(i, s)| s.id == SpanId(i as u64 + 1)));
        assert_eq!(drained[n - 1].attr("last"), Some(1));
        assert!(tr.is_empty());
        let next = tr.start(SpanId::NONE, "guest", "op", t(0), []);
        assert_eq!(next, SpanId(n as u64 + 4));
        assert_eq!(tr.subtree(next).len(), 1);
    }

    #[test]
    fn draining_preserves_id_continuity() {
        let tr = Tracer::enabled();
        tr.span(SpanId::NONE, "guest", "a", t(0), t(1), []);
        let first = tr.take_spans();
        tr.span(SpanId::NONE, "guest", "b", t(2), t(3), []);
        let second = tr.take_spans();
        assert_eq!(first[0].id, SpanId(1));
        assert_eq!(second[0].id, SpanId(2));
    }
}
