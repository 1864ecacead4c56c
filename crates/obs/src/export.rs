//! Snapshot serialization: a restricted JSON document, with a parser
//! so snapshots round-trip exactly — tests and `scripts/check.sh` rely
//! on `parse_json(to_json(s)) == s`.

use crate::snapshot::{HistogramSnapshot, MetricValue, Snapshot};
use std::fmt::Write as _;

/// Error produced by the snapshot parser: a message plus the byte
/// offset where parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset into the document.
    pub position: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}", self.message, self.position)
    }
}

impl std::error::Error for ParseError {}

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats `v` so `str::parse::<f64>` recovers it exactly (shortest
/// round-trip representation).
fn format_f64(v: f64) -> String {
    format!("{v:?}")
}

/// Serializes a snapshot as a JSON object keyed by metric name, values
/// tagged with a `"type"` field. Names are emitted in sorted order, so
/// equal snapshots produce byte-identical documents.
#[must_use]
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for (name, value) in &snapshot.metrics {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        escape_json(name, &mut out);
        out.push_str(": ");
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{{\"type\": \"counter\", \"value\": {v}}}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(
                    out,
                    "{{\"type\": \"gauge\", \"value\": {}}}",
                    format_f64(*v)
                );
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"buckets\": [",
                    h.count, h.sum
                );
                for (i, (bound, n)) in h.buckets.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "[{bound}, {n}]");
                }
                out.push_str("]}");
            }
        }
    }
    out.push_str("\n}\n");
    out
}

/// A parsed JSON value. Numbers keep their raw text so `u64` values
/// round-trip without passing through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Str(String),
    Num(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            position: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b) if b == b'-' || b.is_ascii_digit() || b == b'N' || b == b'i' => {
                self.parse_number()
            }
            _ => self.err("expected a value"),
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    s.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(chunk) => s.push_str(chunk),
                        Err(_) => return self.err("invalid utf-8 in string"),
                    }
                }
                None => return self.err("unterminated string"),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        // Accept the f64 Debug vocabulary too: NaN, inf, -inf.
        while self.bytes.get(self.pos).is_some_and(|&b| {
            b.is_ascii_digit()
                || matches!(
                    b,
                    b'-' | b'+' | b'.' | b'e' | b'E' | b'N' | b'a' | b'i' | b'n' | b'f'
                )
        }) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a number");
        }
        match std::str::from_utf8(&self.bytes[start..self.pos]) {
            Ok(text) => Ok(Json::Num(text.to_owned())),
            Err(_) => self.err("invalid number"),
        }
    }

    fn parse_array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a top-level JSON document (object of name → tagged value).
/// Exposed for the schema module, which shares the same wire format.
pub(crate) fn parse_json_object(text: &str) -> Result<Vec<(String, Json)>, ParseError> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after document");
    }
    match value {
        Json::Obj(fields) => Ok(fields),
        _ => Err(ParseError {
            message: "top-level value must be an object".into(),
            position: 0,
        }),
    }
}

fn num_u64(j: &Json, what: &str) -> Result<u64, ParseError> {
    match j {
        Json::Num(text) => text.parse().map_err(|_| ParseError {
            message: format!("{what}: not a u64: {text}"),
            position: 0,
        }),
        _ => Err(ParseError {
            message: format!("{what}: expected a number"),
            position: 0,
        }),
    }
}

fn num_f64(j: &Json, what: &str) -> Result<f64, ParseError> {
    match j {
        Json::Num(text) => text.parse().map_err(|_| ParseError {
            message: format!("{what}: not an f64: {text}"),
            position: 0,
        }),
        _ => Err(ParseError {
            message: format!("{what}: expected a number"),
            position: 0,
        }),
    }
}

fn field<'a>(fields: &'a [(String, Json)], key: &str, name: &str) -> Result<&'a Json, ParseError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| ParseError {
            message: format!("metric {name}: missing field {key}"),
            position: 0,
        })
}

/// Parses a document produced by [`to_json`] back into a [`Snapshot`].
pub fn parse_json(text: &str) -> Result<Snapshot, ParseError> {
    let mut snapshot = Snapshot::new();
    for (name, value) in parse_json_object(text)? {
        let Json::Obj(fields) = value else {
            return Err(ParseError {
                message: format!("metric {name}: expected an object"),
                position: 0,
            });
        };
        let kind = match field(&fields, "type", &name)? {
            Json::Str(k) => k.clone(),
            _ => {
                return Err(ParseError {
                    message: format!("metric {name}: type must be a string"),
                    position: 0,
                })
            }
        };
        let parsed = match kind.as_str() {
            "counter" => MetricValue::Counter(num_u64(field(&fields, "value", &name)?, &name)?),
            "gauge" => MetricValue::Gauge(num_f64(field(&fields, "value", &name)?, &name)?),
            "histogram" => {
                let count = num_u64(field(&fields, "count", &name)?, &name)?;
                let sum = num_u64(field(&fields, "sum", &name)?, &name)?;
                let Json::Arr(raw) = field(&fields, "buckets", &name)? else {
                    return Err(ParseError {
                        message: format!("metric {name}: buckets must be an array"),
                        position: 0,
                    });
                };
                let mut buckets = Vec::with_capacity(raw.len());
                for pair in raw {
                    let Json::Arr(pair) = pair else {
                        return Err(ParseError {
                            message: format!("metric {name}: bucket must be [bound, count]"),
                            position: 0,
                        });
                    };
                    if pair.len() != 2 {
                        return Err(ParseError {
                            message: format!("metric {name}: bucket must be [bound, count]"),
                            position: 0,
                        });
                    }
                    buckets.push((num_u64(&pair[0], &name)?, num_u64(&pair[1], &name)?));
                }
                MetricValue::Histogram(HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                })
            }
            other => {
                return Err(ParseError {
                    message: format!("metric {name}: unknown type {other}"),
                    position: 0,
                })
            }
        };
        snapshot.metrics.insert(name, parsed);
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter("sim.engine.events_processed").add(12345);
        reg.gauge("sim.engine.peak_queue_depth").set(87.5);
        let h = reg.histogram("analysis.report.duration_ns");
        for v in [0u64, 1, 3, 900, 65_000, u64::MAX / 3] {
            h.observe(v);
        }
        reg.snapshot()
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample_snapshot();
        let text = to_json(&snap);
        let back = parse_json(&text).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn json_output_is_deterministic() {
        let snap = sample_snapshot();
        assert_eq!(to_json(&snap), to_json(&snap.clone()));
    }

    #[test]
    fn gauge_values_round_trip_through_json() {
        for v in [0.0, -1.5, 1.0 / 3.0, 1e300, f64::MIN_POSITIVE] {
            let reg = Registry::new();
            reg.gauge("g").set(v);
            let snap = reg.snapshot();
            assert_eq!(parse_json(&to_json(&snap)).unwrap().gauge("g"), Some(v));
        }
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("not json").is_err());
        assert!(parse_json("{\"a\": {\"type\": \"counter\"}}").is_err());
        assert!(parse_json("{\"a\": {\"type\": \"nope\", \"value\": 1}}").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn json_escapes_odd_names() {
        let reg = Registry::new();
        reg.counter("weird\"name\\with\tescapes").add(7);
        let snap = reg.snapshot();
        let back = parse_json(&to_json(&snap)).expect("parses");
        assert_eq!(back, snap);
    }
}
