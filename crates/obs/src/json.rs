//! Minimal JSON value model, writer, and parser.
//!
//! The telemetry sink emits line-framed JSON and `pup report-telemetry`
//! parses it back; the build environment has no serde, so this module
//! hand-rolls the subset of JSON the schema needs (objects, arrays,
//! strings with escapes, IEEE-754 numbers, booleans, null). Numbers are
//! written with Rust's shortest-round-trip `Display`, so a value survives
//! a write/parse cycle bit-exactly. Non-finite numbers serialize as
//! `null` (JSON has no NaN/Inf) and parse back as `NaN`.

use std::fmt::Write as _;

/// A parsed or to-be-serialized JSON value. Object keys keep insertion
/// order so serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered key/value list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build a number value; non-finite floats map to `Null`.
    pub fn num(v: f64) -> Value {
        if v.is_finite() {
            Value::Num(v)
        } else {
            Value::Null
        }
    }

    /// Build a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view; `Null` reads as `NaN` (the writer's non-finite encoding).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Non-negative integer view (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // pup-lint: allow(float-eq) — exact integrality test, not a tolerance bug.
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9.007_199_254_740_992e15 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Serialize to compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // pup-lint: allow(as-cast-truncation) — char to u32 is lossless
            c if (c as u32) < 0x20 => {
                // pup-lint: allow(as-cast-truncation) — char to u32 is lossless
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn require(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number bytes at {start}"))?;
        text.parse::<f64>().map(Value::Num).map_err(|_| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always a valid boundary-to-boundary step).
                    let rest = &self.bytes[self.pos..];
                    let step = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..step.min(rest.len())])
                        .map_err(|_| format!("invalid utf-8 at byte {}", self.pos))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.require(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.require(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.require(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let v = Value::Obj(vec![
            ("t".to_string(), Value::str("span")),
            ("id".to_string(), Value::num(7.0)),
            ("parent".to_string(), Value::Null),
            ("ok".to_string(), Value::Bool(true)),
            ("xs".to_string(), Value::Arr(vec![Value::num(1.5), Value::str("a\"b\\c\nd")])),
        ]);
        let text = v.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, 1e-300, -0.0, 12345.0] {
            let text = Value::Num(x).render();
            let back = Value::parse(&text).unwrap();
            match back {
                Value::Num(y) => assert!(y == x || (x == 0.0 && y == 0.0), "{text}"),
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_serializes_as_null_and_reads_as_nan() {
        assert_eq!(Value::num(f64::NAN), Value::Null);
        assert_eq!(Value::num(f64::INFINITY).render(), "null");
        let parsed = Value::parse("null").unwrap();
        assert!(parsed.as_f64().unwrap().is_nan());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("\"open").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("nul").is_err());
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let v = Value::str("héllo → wörld\t\u{1} \"q\" \\ \n");
        let back = Value::parse(&v.render()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn object_get_and_views() {
        let v = Value::parse(r#"{"name":"epoch","n":3,"x":1.5}"#).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("epoch"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("x").and_then(Value::as_u64), None);
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(1.5));
        assert!(v.get("missing").is_none());
    }
}
