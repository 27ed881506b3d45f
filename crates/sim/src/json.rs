//! Minimal in-tree JSON value parser (hermetic replacement for `serde_json`).
//!
//! The repo emits several JSON-lines artifacts — telemetry exports, bench
//! reports, chaos replay files — and needs to read them back in-tree: the
//! telemetry schema validator, the `bench_compare` CI gate and the
//! `chaos_replay` tool all parse one object per line. This module is the
//! single parser behind all of them: a strict recursive-descent JSON
//! parser producing a [`Json`] value tree.
//!
//! Strictness matches the writers: no trailing garbage, no NaN/Infinity
//! literals, no comments, and no arrays or objects nested more than
//! [`MAX_DEPTH`] deep (the writers emit flat objects; the cap keeps
//! hostile input from exhausting the stack of this recursive parser).
//! Numbers are carried as `f64`, which is exact for every integer the
//! exporters emit below 2^53 (sim times in picoseconds, counters, byte
//! counts); [`Json::as_u64`] refuses values outside that
//! exactly-representable range rather than silently rounding.
//!
//! ```
//! use cim_sim::json::{parse, Json};
//!
//! let v = parse(r#"{"component":"noc","value":3,"tags":["a","b"]}"#).unwrap();
//! assert_eq!(v.get("component").and_then(Json::as_str), Some("noc"));
//! assert_eq!(v.get("value").and_then(Json::as_u64), Some(3));
//! assert!(parse("{\"k\":1} trailing").is_err());
//! ```

use std::fmt;

/// The deepest array/object nesting [`parse`] accepts; deeper input is
/// a parse error.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Object members are kept as an ordered `Vec` of `(key, value)` pairs —
/// insertion order is preserved (the writers emit deterministic key
/// orders and round-trip tests rely on it), duplicate keys are rejected
/// at parse time.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64` (exact for integers up to 2^53).
    Number(f64),
    /// A string with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source key order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer.
    ///
    /// `None` unless this is a number that is non-negative, integral and
    /// within `f64`'s exactly-representable integer range (< 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => write!(f, "{n}"),
            Json::String(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Object(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::String(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses a complete JSON document (one value, no trailing garbage).
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with
/// a byte offset into `input`.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => self.parse_string().map(Json::String),
            Some(b't') => self.parse_literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.parse_literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.parse_literal("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(format!(
                "expected a JSON value at byte {}, found {:?}",
                self.pos,
                other.map(|c| c as char)
            )),
        }
    }

    /// Parses one array or object a level deeper, refusing to recurse
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key \"{key}\""));
            }
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Consume one UTF-8 scalar at a time so multi-byte runs pass
            // through unchanged (the input is a &str, so they are valid).
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err("unpaired high surrogate".to_owned());
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_owned());
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| "bad surrogate pair".to_owned())?
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err("unpaired low surrogate".to_owned());
                            } else {
                                char::from_u32(cp).ok_or_else(|| "bad \\u code point".to_owned())?
                            };
                            s.push(c);
                            continue; // parse_hex4 already advanced
                        }
                        other => {
                            return Err(format!(
                                "bad escape at byte {}: {:?}",
                                self.pos,
                                other.map(|c| c as char)
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte {b:#04x} in string"));
                }
                Some(b) if b < 0x80 => {
                    s.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = text
                        .chars()
                        .next()
                        .ok_or_else(|| "truncated UTF-8".to_owned())?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let mut cp = 0u32;
        for _ in 0..4 {
            match self.peek() {
                Some(h) if h.is_ascii_hexdigit() => {
                    cp = cp * 16 + (h as char).to_digit(16).expect("hex digit");
                    self.pos += 1;
                }
                _ => return Err(format!("bad \\u escape at byte {}", self.pos)),
            }
        }
        Ok(cp)
    }

    fn parse_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("bad fraction at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("bad exponent at byte {}", self.pos));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("unparsable number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-3.5e2").unwrap(), Json::Number(-350.0));
        assert_eq!(
            parse(r#"[1,"a",{"k":null}]"#).unwrap(),
            Json::Array(vec![
                Json::Number(1.0),
                Json::String("a".to_owned()),
                Json::Object(vec![("k".to_owned(), Json::Null)]),
            ])
        );
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = parse(r#"{"bench":"g/n","median_ns":1250,"frac":0.5}"#).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("g/n"));
        assert_eq!(v.get("median_ns").and_then(Json::as_u64), Some(1250));
        assert_eq!(v.get("frac").and_then(Json::as_u64), None, "non-integral");
        assert_eq!(v.get("frac").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} x",
            "\"unterminated",
            "01e",
            "1.",
            "nul",
            "{\"a\":1,\"a\":2}",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn decodes_escapes_and_surrogates() {
        let v = parse(r#""a\n\t\"\\\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\A\u{1F600}"));
    }

    #[test]
    fn display_round_trips() {
        let src = r#"{"component":"a/b","metric":"m","value":1.5,"tags":["x","y"],"ok":true}"#;
        let v = parse(src).unwrap();
        let printed = v.to_string();
        assert_eq!(parse(&printed).unwrap(), v);
        assert_eq!(
            printed, src,
            "canonical writers round-trip byte-identically"
        );
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let nest = |open: &str, leaf: &str, close: &str, depth: usize| {
            format!("{}{leaf}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, leaf, close) in [("[", "", "]"), ("{\"a\":", "1", "}")] {
            assert!(parse(&nest(open, leaf, close, MAX_DEPTH)).is_ok());
            let err = parse(&nest(open, leaf, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
            // Deep enough to overflow the stack of an uncapped parser.
            assert!(parse(&nest(open, leaf, close, 100_000)).is_err());
            // An unclosed run fails the same way.
            assert!(parse(&open.repeat(100_000)).is_err());
        }
    }

    #[test]
    fn exact_integer_boundary() {
        assert_eq!(
            parse("9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
