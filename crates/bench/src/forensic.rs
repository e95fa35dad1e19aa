//! Forensic-dump parsing and query helpers shared by the `forensics`
//! trigger harness and the `nesc-inspect` CLI.
//!
//! The workspace `serde_json` is a deliberately minimal *serialization*
//! shim — it has no deserializer — so this module carries a small
//! recursive-descent JSON parser that reads a forensic dump back into
//! shim [`serde_json::Value`]s, a typed view of the dump
//! ([`ForensicDump`]), and the query logic `nesc-inspect` exposes:
//! per-VF timelines, the "why was this request slow" breakdown (derived
//! two independent ways — from flight events and from the exemplar's
//! span tree — which must agree exactly), and top-K per-function
//! media/link contention attribution.

use nesc_sim::{FlightEvent, FlightEventKind};

// ---------------------------------------------------------------------------
// JSON parser (the shim has none)
// ---------------------------------------------------------------------------

/// Parses a JSON document into a shim [`serde_json::Value`].
///
/// Supports the full JSON grammar the dump writer emits: objects (order
/// preserved), arrays, strings with the standard escapes, integers
/// (`u64`/`i64`), floats, booleans, and `null`.
pub fn parse_json(input: &str) -> Result<serde_json::Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected '{}' at byte {}, got {:?}",
                b as char,
                self.pos.saturating_sub(1),
                got.map(|g| g as char)
            )),
        }
    }

    fn literal(&mut self, word: &str, v: serde_json::Value) -> Result<serde_json::Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<serde_json::Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(serde_json::Value::String(self.string()?)),
            Some(b't') => self.literal("true", serde_json::Value::Bool(true)),
            Some(b'f') => self.literal("false", serde_json::Value::Bool(false)),
            Some(b'n') => self.literal("null", serde_json::Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<serde_json::Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(serde_json::Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(serde_json::Value::Object(entries)),
                got => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos.saturating_sub(1),
                        got.map(|g| g as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<serde_json::Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(serde_json::Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(serde_json::Value::Array(items)),
                got => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos.saturating_sub(1),
                        got.map(|g| g as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")? as char;
                            code = code * 16 + d.to_digit(16).ok_or("bad hex in \\u escape")?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Re-assemble a UTF-8 multi-byte sequence.
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = (start + len).min(self.bytes.len());
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|e| format!("invalid UTF-8 in string at byte {start}: {e}"))?,
                    );
                    self.pos = end;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<serde_json::Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| format!("non-UTF-8 number: {e}"))?;
        if float {
            let f: f64 = text.parse().map_err(|e| format!("bad float {text}: {e}"))?;
            Ok(serde_json::Value::Number(serde_json::Number::Float(f)))
        } else if text.starts_with('-') {
            let i: i64 = text.parse().map_err(|e| format!("bad int {text}: {e}"))?;
            Ok(serde_json::Value::Number(serde_json::Number::Int(i)))
        } else {
            let u: u64 = text.parse().map_err(|e| format!("bad uint {text}: {e}"))?;
            Ok(serde_json::Value::Number(serde_json::Number::UInt(u)))
        }
    }
}

// ---------------------------------------------------------------------------
// Value accessors (the shim has only `get`)
// ---------------------------------------------------------------------------

/// Reads a non-negative integer out of a shim [`serde_json::Value`].
pub fn as_u64(v: &serde_json::Value) -> Option<u64> {
    match v {
        serde_json::Value::Number(serde_json::Number::UInt(u)) => Some(*u),
        serde_json::Value::Number(serde_json::Number::Int(i)) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// Reads an array slice out of a shim [`serde_json::Value`].
pub fn as_array(v: &serde_json::Value) -> Option<&[serde_json::Value]> {
    match v {
        serde_json::Value::Array(items) => Some(items),
        _ => None,
    }
}

/// Reads a string slice out of a shim [`serde_json::Value`].
pub fn as_str(v: &serde_json::Value) -> Option<&str> {
    match v {
        serde_json::Value::String(s) => Some(s),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Typed dump model
// ---------------------------------------------------------------------------

/// A span as stored in a dump exemplar (owned strings: the dump is data,
/// not `&'static str` interned names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpSpan {
    /// Span id (tracer numbering from the recording run).
    pub id: u64,
    /// Parent span id (0 = none).
    pub parent: u64,
    /// Layer label (`hv`, `core`, ...).
    pub layer: String,
    /// Span name (`device_wait`, `doorbell`, ...).
    pub name: String,
    /// Start, nanoseconds.
    pub start_ns: u64,
    /// End, nanoseconds.
    pub end_ns: u64,
    /// Integer attributes in recording order.
    pub attrs: Vec<(String, u64)>,
}

impl DumpSpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A worst-K exemplar from a dump: identity, latency, and the span
/// subtree captured at window close.
#[derive(Debug, Clone)]
pub struct DumpExemplar {
    /// Telemetry window the request completed in.
    pub window: u64,
    /// Device-wide request sequence number.
    pub seq: u64,
    /// Disk id.
    pub disk: u32,
    /// Completion time, nanoseconds.
    pub t_ns: u64,
    /// End-to-end latency, nanoseconds.
    pub latency_ns: u64,
    /// Root span id (0 when tracing was off).
    pub root: u64,
    /// Captured span subtree (root first).
    pub spans: Vec<DumpSpan>,
}

/// A parsed forensic dump: the triggering anomaly, the flight ring, the
/// exemplars, and the raw window series (kept as JSON for re-export).
#[derive(Debug, Clone)]
pub struct ForensicDump {
    /// Rule source text of the anomaly that triggered the dump.
    pub anomaly_text: String,
    /// Series the rule watched.
    pub anomaly_series: String,
    /// Window index the rule fired in.
    pub anomaly_window: u64,
    /// Ring capacity in slots.
    pub capacity: u64,
    /// Total events ever appended (≥ retained count when wrapped).
    pub total: u64,
    /// Events the ring overwrote.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Worst-K exemplars across retained windows.
    pub exemplars: Vec<DumpExemplar>,
    /// The `series` subdocument (perfmon `series_json` shape), verbatim.
    pub series: serde_json::Value,
}

impl ForensicDump {
    /// Parses a forensic dump document (as written by the `forensics`
    /// harness / `Telemetry::forensic_dump`).
    pub fn parse(text: &str) -> Result<ForensicDump, String> {
        let doc = parse_json(text)?;
        let anomaly = doc.get("anomaly").ok_or("dump has no `anomaly`")?;
        let flight = doc.get("flight").ok_or("dump has no `flight`")?;
        let series = doc
            .get("series")
            .cloned()
            .unwrap_or(serde_json::Value::Null);
        let field = |v: &serde_json::Value, k: &str| -> Result<u64, String> {
            v.get(k).and_then(as_u64).ok_or(format!("missing `{k}`"))
        };
        let mut events = Vec::new();
        for ev in as_array(flight.get("events").ok_or("flight has no `events`")?)
            .ok_or("`events` is not an array")?
        {
            let f = as_array(ev).ok_or("event is not an array")?;
            if f.len() != 5 {
                return Err(format!("event has {} fields, want 5", f.len()));
            }
            let kind_raw = as_u64(&f[1]).ok_or("event kind not an integer")? as u8;
            events.push(FlightEvent {
                t_ns: as_u64(&f[0]).ok_or("event t_ns not an integer")?,
                kind: FlightEventKind::from_u8(kind_raw)
                    .ok_or(format!("unknown event kind {kind_raw}"))?,
                func: as_u64(&f[2]).ok_or("event func not an integer")? as u32,
                a: as_u64(&f[3]).ok_or("event a not an integer")?,
                b: as_u64(&f[4]).ok_or("event b not an integer")?,
            });
        }
        let mut exemplars = Vec::new();
        for ex in as_array(flight.get("exemplars").ok_or("flight has no `exemplars`")?)
            .ok_or("`exemplars` is not an array")?
        {
            let mut spans = Vec::new();
            for sp in as_array(ex.get("spans").ok_or("exemplar has no `spans`")?)
                .ok_or("`spans` is not an array")?
            {
                let mut attrs = Vec::new();
                for kv in as_array(sp.get("attrs").ok_or("span has no `attrs`")?)
                    .ok_or("`attrs` is not an array")?
                {
                    let pair = as_array(kv).ok_or("attr is not a pair")?;
                    attrs.push((
                        as_str(&pair[0]).ok_or("attr key not a string")?.to_string(),
                        as_u64(&pair[1]).ok_or("attr value not an integer")?,
                    ));
                }
                spans.push(DumpSpan {
                    id: field(sp, "id")?,
                    parent: field(sp, "parent")?,
                    layer: as_str(sp.get("layer").ok_or("span has no `layer`")?)
                        .ok_or("`layer` not a string")?
                        .to_string(),
                    name: as_str(sp.get("name").ok_or("span has no `name`")?)
                        .ok_or("`name` not a string")?
                        .to_string(),
                    start_ns: field(sp, "start_ns")?,
                    end_ns: field(sp, "end_ns")?,
                    attrs,
                });
            }
            exemplars.push(DumpExemplar {
                window: field(ex, "window")?,
                seq: field(ex, "seq")?,
                disk: field(ex, "disk")? as u32,
                t_ns: field(ex, "t_ns")?,
                latency_ns: field(ex, "latency_ns")?,
                root: field(ex, "root")?,
                spans,
            });
        }
        Ok(ForensicDump {
            anomaly_text: as_str(anomaly.get("text").ok_or("anomaly has no `text`")?)
                .ok_or("`text` not a string")?
                .to_string(),
            anomaly_series: as_str(anomaly.get("series").ok_or("anomaly has no `series`")?)
                .ok_or("`series` not a string")?
                .to_string(),
            anomaly_window: field(anomaly, "window")?,
            capacity: field(flight, "capacity")?,
            total: field(flight, "total")?,
            dropped: field(flight, "dropped")?,
            events,
            exemplars,
            series,
        })
    }

    /// The retained events attributed to one VF (`func` field), oldest
    /// first. Walk/translation events carry a level rather than a VF in
    /// `func` and are excluded.
    pub fn vf_events(&self, vf: u32) -> Vec<&FlightEvent> {
        self.events
            .iter()
            .filter(|e| e.func == vf && !matches!(e.kind, FlightEventKind::BtlbMiss))
            .collect()
    }

    /// The worst exemplar (highest latency; ties break to the earlier
    /// sequence number, matching the recorder's fold order).
    pub fn worst_exemplar(&self) -> Option<&DumpExemplar> {
        self.exemplars
            .iter()
            .min_by(|a, b| b.latency_ns.cmp(&a.latency_ns).then(a.seq.cmp(&b.seq)))
    }

    /// Phase breakdown of request `seq` derived purely from flight
    /// events — the contract the `RequestStart`/`Doorbell`/
    /// `RequestComplete` payloads encode for the direct path:
    ///
    /// * `guest_submit` — request start to doorbell write begin
    /// * `doorbell`     — the doorbell MMIO itself
    /// * `device_wait`  — doorbell done to device completion
    /// * `guest_complete` — completion processing in the guest
    ///
    /// Returns `None` if any of the three anchor events fell out of the
    /// ring.
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

    /// Phase breakdown of an exemplar derived from its captured span
    /// subtree: the root's direct children, durations summed by name in
    /// first-appearance order (the same contract as
    /// `SpanTree::child_breakdown`).
    pub fn breakdown_from_spans(ex: &DumpExemplar) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for s in ex.spans.iter().filter(|s| s.parent == ex.root) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += s.duration_ns(),
                None => out.push((s.name.clone(), s.duration_ns())),
            }
        }
        out
    }

    /// Per-function busy-time attribution from `MediaService` /
    /// `LinkService` events: `(func, media_ns, link_ns)` sorted by total
    /// descending (ties to the lower function id), truncated to `k`.
    pub fn contention_top_k(&self, k: usize) -> Vec<(u32, u64, u64)> {
        let mut per_func: Vec<(u32, u64, u64)> = Vec::new();
        for e in &self.events {
            let busy = e.t_ns.saturating_sub(e.a);
            let slot = match per_func.iter_mut().find(|(f, _, _)| *f == e.func) {
                Some(s) => s,
                None => {
                    if !matches!(
                        e.kind,
                        FlightEventKind::MediaService | FlightEventKind::LinkService
                    ) {
                        continue;
                    }
                    per_func.push((e.func, 0, 0));
                    per_func.last_mut().expect("just pushed")
                }
            };
            match e.kind {
                FlightEventKind::MediaService => slot.1 += busy,
                FlightEventKind::LinkService => slot.2 += busy,
                _ => {}
            }
        }
        per_func.sort_by(|a, b| (b.1 + b.2).cmp(&(a.1 + a.2)).then(a.0.cmp(&b.0)));
        per_func.truncate(k);
        per_func
    }

    /// Re-exports the dump as a Chrome/Perfetto trace document: every
    /// exemplar span as a complete (`ph:"X"`) event on per-layer
    /// swimlanes, plus one counter track per window series, so the
    /// forensic evidence opens as one merged Perfetto view.
    pub fn perfetto_json(&self) -> serde_json::Value {
        let mut layers: Vec<&str> = Vec::new();
        for ex in &self.exemplars {
            for s in &ex.spans {
                if !layers.contains(&s.layer.as_str()) {
                    layers.push(&s.layer);
                }
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
        for ex in &self.exemplars {
            for s in &ex.spans {
                let tid = layers.iter().position(|l| *l == s.layer).unwrap_or(0) + 1;
                let mut args: Vec<(String, serde_json::Value)> = vec![
                    ("span".to_string(), serde_json::Value::from(s.id)),
                    ("parent".to_string(), serde_json::Value::from(s.parent)),
                    ("exemplar_seq".to_string(), serde_json::Value::from(ex.seq)),
                ];
                for (k, v) in &s.attrs {
                    args.push((k.clone(), serde_json::Value::from(*v)));
                }
                events.push(serde_json::json!({
                    "name": s.name.clone(),
                    "cat": s.layer.clone(),
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1_000.0,
                    "dur": s.duration_ns() as f64 / 1_000.0,
                    "pid": 1,
                    "tid": tid,
                    "args": serde_json::Value::Object(args),
                }));
            }
        }
        // Counter tracks from the dump's window series (perfmon
        // `series_json` shape: interval_ns + per-series samples).
        if let (Some(interval), Some(series)) = (
            self.series.get("interval_ns").and_then(as_u64),
            self.series.get("series").and_then(as_array),
        ) {
            for s in series {
                let (Some(name), Some(first), Some(samples)) = (
                    s.get("name").and_then(as_str),
                    s.get("first_window").and_then(as_u64),
                    s.get("samples").and_then(as_array),
                ) else {
                    continue;
                };
                for (i, v) in samples.iter().enumerate() {
                    let Some(v) = as_u64(v) else { continue };
                    let end_ns = (first + i as u64 + 1) * interval;
                    events.push(serde_json::json!({
                        "name": name,
                        "ph": "C",
                        "pid": 1,
                        "tid": 0,
                        "ts": end_ns as f64 / 1_000.0,
                        "args": { "value": v },
                    }));
                }
            }
        }
        serde_json::json!({
            "traceEvents": events,
            "displayTimeUnit": "ns",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_the_shim_writer() {
        let doc = serde_json::json!({
            "s": "a\"b\\c\nd",
            "u": 18446744073709551615u64,
            "i": -42,
            "f": 1.5,
            "t": true,
            "n": serde_json::Value::Null,
            "arr": [1, [2, 3], {"k": "v"}],
        });
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back = parse_json(&text).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&doc).unwrap()
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn parser_handles_unicode_strings() {
        let doc = serde_json::json!({ "s": "héllo→🚀" });
        let text = serde_json::to_string(&doc).unwrap();
        let back = parse_json(&text).unwrap();
        assert_eq!(as_str(back.get("s").unwrap()), Some("héllo→🚀"));
        let escaped = parse_json("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(as_str(&escaped), Some("Aé"));
    }

    #[test]
    fn contention_sums_busy_time_per_func() {
        let mk = |kind, func, a, t| FlightEvent {
            t_ns: t,
            kind,
            func,
            a,
            b: 1,
        };
        let dump = ForensicDump {
            anomaly_text: String::new(),
            anomaly_series: String::new(),
            anomaly_window: 0,
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
            series: serde_json::Value::Null,
        };
        let top = dump.contention_top_k(10);
        assert_eq!(top, vec![(1, 200, 50), (2, 50, 0)]);
    }

    #[test]
    fn event_breakdown_follows_the_payload_contract() {
        let dump = ForensicDump {
            anomaly_text: String::new(),
            anomaly_series: String::new(),
            anomaly_window: 0,
            capacity: 16,
            total: 3,
            dropped: 0,
            events: vec![
                FlightEvent {
                    t_ns: 1000,
                    kind: FlightEventKind::RequestStart,
                    func: 1,
                    a: 7,
                    b: 0,
                },
                FlightEvent {
                    t_ns: 1300,
                    kind: FlightEventKind::Doorbell,
                    func: 1,
                    a: 7,
                    b: 1200,
                },
                FlightEvent {
                    t_ns: 5000,
                    kind: FlightEventKind::RequestComplete,
                    func: 1,
                    a: 7,
                    b: 4600,
                },
            ],
            exemplars: Vec::new(),
            series: serde_json::Value::Null,
        };
        assert_eq!(
            dump.breakdown_from_events(7),
            Some(vec![
                ("guest_submit", 200),
                ("doorbell", 100),
                ("device_wait", 3300),
                ("guest_complete", 400),
            ])
        );
        assert_eq!(dump.breakdown_from_events(8), None);
    }

    /// The ring and the span tree are two folds of one probe report, so
    /// every exemplar in the committed dump — not only the worst, which
    /// `nesc-inspect why` shows — must get the same phase breakdown from
    /// both.
    #[test]
    fn committed_dump_breakdowns_agree_for_every_exemplar() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/forensic_dump.json"
        );
        let text = std::fs::read_to_string(path).unwrap();
        let dump = ForensicDump::parse(&text).unwrap();
        assert!(!dump.exemplars.is_empty());
        for ex in &dump.exemplars {
            let events = dump.breakdown_from_events(ex.seq).unwrap_or_else(|| {
                panic!("request {}'s anchor events fell out of the ring", ex.seq)
            });
            let events: Vec<(String, u64)> = events
                .into_iter()
                .map(|(n, ns)| (n.to_string(), ns))
                .collect();
            assert_eq!(
                events,
                ForensicDump::breakdown_from_spans(ex),
                "request {}",
                ex.seq
            );
        }
    }
}
