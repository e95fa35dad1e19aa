//! Reading a forensic dump back: a small JSON text parser, which the
//! golden diff also uses, and [`ForensicDump`], a thin reader of the
//! dump's three sections. The flight section reads back into the typed
//! [`FlightSnapshot`] the dump was written from, and the queries
//! `nesc-inspect` and the `forensics` harness ask — the worst exemplar,
//! per-VF rows, the checked phase breakdown, contention — are methods of
//! that one model.

use nesc_sim::{perfmon, FlightSnapshot};

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
// The dump's sections
// ---------------------------------------------------------------------------

/// A forensic dump as `Telemetry::forensic_dump` renders it: the
/// triggering anomaly, the flight snapshot, and the window series.
#[derive(Debug, Clone)]
pub struct ForensicDump {
    /// Rule source text of the anomaly that triggered the dump.
    pub anomaly_text: String,
    /// Series the rule watched.
    pub anomaly_series: String,
    /// Window index the rule fired in.
    pub anomaly_window: u64,
    /// The flight ring's span rows and the exemplars.
    pub flight: FlightSnapshot,
    /// The `series` section (perfmon `series_json` shape), verbatim.
    pub series: serde_json::Value,
}

impl ForensicDump {
    /// Parses a forensic dump document.
    ///
    /// # Errors
    ///
    /// The text is not JSON, a section is missing, or its fields are
    /// malformed ([`FlightSnapshot::from_json`]).
    pub fn parse(text: &str) -> Result<ForensicDump, String> {
        let doc = parse_json(text)?;
        let section = |k: &str| doc.get(k).ok_or(format!("dump has no `{k}`"));
        let anomaly = section("anomaly")?;
        let text = |k: &str| {
            let v = anomaly.get(k).and_then(serde_json::Value::as_str);
            v.map(str::to_string)
                .ok_or(format!("anomaly `{k}` is not a string"))
        };
        Ok(ForensicDump {
            anomaly_text: text("text")?,
            anomaly_series: text("series")?,
            anomaly_window: anomaly
                .get("window")
                .and_then(serde_json::Value::as_u64)
                .ok_or("anomaly `window` is not an integer")?,
            flight: FlightSnapshot::from_json(section("flight")?)?,
            series: section("series")?.clone(),
        })
    }
}

/// The forensic window as one Perfetto trace: the exemplar span trees on
/// per-layer swimlanes ([`FlightSnapshot::exemplar_trace_json`]) with one
/// counter track per window series merged in.
pub fn window_trace(flight: &FlightSnapshot, series: &serde_json::Value) -> serde_json::Value {
    let mut trace = flight.exemplar_trace_json();
    perfmon::merge_counter_tracks(&mut trace, series);
    trace
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
        assert_eq!(back.get("s").unwrap().as_str(), Some("héllo→🚀"));
        let escaped = parse_json("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(escaped.as_str(), Some("Aé"));
    }

    fn committed(name: &str) -> String {
        let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).unwrap()
    }

    /// The reader is the writer's inverse on the committed dump: its
    /// flight section reads into a `FlightSnapshot` that renders back
    /// byte-identically.
    #[test]
    fn committed_flight_section_rerenders_byte_identically() {
        let doc = parse_json(&committed("forensic_dump.json")).unwrap();
        let flight = doc.get("flight").unwrap();
        let snap = FlightSnapshot::from_json(flight).unwrap();
        assert!(!snap.rows.is_empty() && !snap.exemplars.is_empty());
        assert_eq!(
            serde_json::to_string_pretty(&snap.to_json()).unwrap(),
            serde_json::to_string_pretty(flight).unwrap()
        );
    }

    /// Every exemplar in the committed dump — not only the worst, which
    /// `nesc-inspect why` shows — passes the checked breakdown: its span
    /// rows tile its root and sum to its tallied latency.
    #[test]
    fn committed_dump_breakdowns_agree_for_every_exemplar() {
        let dump = ForensicDump::parse(&committed("forensic_dump.json")).unwrap();
        assert!(!dump.flight.exemplars.is_empty());
        for ex in &dump.flight.exemplars {
            dump.flight.checked_breakdown(ex).unwrap();
        }
    }

    #[test]
    fn dump_without_a_section_is_rejected() {
        let err = ForensicDump::parse(r#"{"flight": {}, "series": {}}"#).unwrap_err();
        assert_eq!(err, "dump has no `anomaly`");
    }
}
