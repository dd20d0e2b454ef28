//! A small, dependency-free JSON document model with serializer and parser.
//!
//! The measurement tool "writes the results to a JSON file" (§3.1); since
//! `serde_json` is not on this project's dependency allow-list, this module
//! implements the subset of JSON the tool needs — which is all of JSON,
//! minus any exotic number formats on output (numbers serialize as i64 or
//! shortest-round-trip f64).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects use ordered maps so output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer (kept exact, separate from floats).
    Int(i64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with deterministic key order.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer value (also accepts exactly-integral floats).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// Float value (accepts ints too).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Bool value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Serialises to a compact string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_float(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends one JSON float to `out` exactly as the document model would:
/// shortest-round-trip formatting with a `.0` suffix when the rendering
/// would otherwise re-parse as an integer, `null` for non-finite values.
/// Shared by [`Json::to_string_compact`] and the streaming record writer so
/// the two paths are byte-identical by construction.
pub fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        let _ = write!(out, "{f}");
        // Ensure floats stay floats on re-parse (e.g. 3 -> 3.0).
        if !out.ends_with(|c: char| !c.is_ascii_digit() && c != '-')
            && !out.contains_last_token_dot_or_exp()
        {
            out.push_str(".0");
        }
    } else {
        out.push_str("null"); // JSON has no NaN/Inf
    }
}

/// Appends one JSON string literal (quotes and escapes included) to `out`.
/// Shared by the document model and the streaming record writer.
pub fn write_str(out: &mut String, s: &str) {
    write_escaped(out, s);
}

/// Helper trait so `write` above can check whether the last numeric token
/// already contains a '.' or exponent (to append `.0` only when needed).
trait LastTokenCheck {
    fn contains_last_token_dot_or_exp(&self) -> bool;
}

impl LastTokenCheck for String {
    fn contains_last_token_dot_or_exp(&self) -> bool {
        // Scan the trailing numeric token in reverse without building a
        // temporary string — this runs once per float on the hot
        // serialization path.
        for &b in self.as_bytes().iter().rev() {
            match b {
                b'.' | b'e' | b'E' => return true,
                b'0'..=b'9' | b'-' | b'+' => continue,
                _ => return false,
            }
        }
        false
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// Description.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > 128 {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':', "expected ':'")?;
                    let val = self.value(depth + 1)?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(map));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let c = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let s =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let n = u32::from_str_radix(s, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: decode \uD800-\uDBFF + low.
                            let ch = if (0xD800..0xDC00).contains(&n) {
                                if self.b.get(self.pos) == Some(&b'\\')
                                    && self.b.get(self.pos + 1) == Some(&b'u')
                                {
                                    let hex2 = self
                                        .b
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or_else(|| self.err("bad surrogate"))?;
                                    let s2 = std::str::from_utf8(hex2)
                                        .map_err(|_| self.err("bad surrogate"))?;
                                    let lo = u32::from_str_radix(s2, 16)
                                        .map_err(|_| self.err("bad surrogate"))?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad surrogate"));
                                    }
                                    self.pos += 6;
                                    0x10000 + ((n - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&n) {
                                return Err(self.err("lone surrogate"));
                            } else {
                                n
                            };
                            out.push(char::from_u32(ch).ok_or_else(|| self.err("bad codepoint"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("control char in string")),
                c => {
                    // Re-assemble UTF-8 multibyte sequences.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let len = if c >= 0xF0 {
                            4
                        } else if c >= 0xE0 {
                            3
                        } else {
                            2
                        };
                        let bytes = self
                            .b
                            .get(start..start + len)
                            .ok_or_else(|| self.err("bad utf-8"))?;
                        let s = std::str::from_utf8(bytes).map_err(|_| self.err("bad utf-8"))?;
                        out.push_str(s);
                        self.pos = start + len;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.b[start..self.pos]).map_err(|_| self.err("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .or_else(|_| text.parse::<f64>().map(Json::Float))
                .map_err(|_| self.err("bad number"))
        }
    }
}

/// Parses a complete JSON document (rejecting trailing garbage).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        b: input.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
        ] {
            assert_eq!(parse(text).unwrap(), v);
            assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
        }
    }

    #[test]
    fn floats_round_trip_and_stay_floats() {
        let v = Json::Float(3.0);
        let s = v.to_string_compact();
        assert_eq!(s, "3.0");
        assert_eq!(parse(&s).unwrap(), v);
        let v = Json::Float(12.345678);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
        let v = Json::Float(1.5e-9);
        assert_eq!(
            parse(&v.to_string_compact()).unwrap().as_f64(),
            Some(1.5e-9)
        );
    }

    #[test]
    fn nan_serialises_as_null() {
        assert_eq!(Json::Float(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let cases = [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "line\nbreak\ttab",
            "unicode: ünïcødé 漢字",
            "control:\u{1}",
        ];
        for s in cases {
            let v = Json::Str(s.to_string());
            assert_eq!(parse(&v.to_string_compact()).unwrap(), v, "case {s:?}");
        }
    }

    #[test]
    fn surrogate_pair_parses() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err(), "lone surrogate rejected");
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a": [1, 2.5, {"b": null}], "c": {"d": true}, "e": "x"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        // Round trip.
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn object_builder_and_accessors() {
        let v = Json::object([
            ("name", Json::Str("dns.google".into())),
            ("rtt", Json::Float(12.5)),
            ("ok", Json::Bool(true)),
            ("count", Json::Int(3)),
        ]);
        assert_eq!(v.get("name").unwrap().as_str(), Some("dns.google"));
        assert_eq!(v.get("rtt").unwrap().as_f64(), Some(12.5));
        assert_eq!(v.get("count").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn deterministic_output() {
        let v = Json::object([("z", Json::Int(1)), ("a", Json::Int(2))]);
        // BTreeMap sorts keys.
        assert_eq!(v.to_string_compact(), r#"{"a":2,"z":1}"#);
    }

    #[test]
    fn errors_have_positions() {
        let e = parse("{\"a\": }").unwrap_err();
        assert!(e.at > 0);
        assert!(parse("[1, 2").is_err());
        assert!(parse("12 34").is_err(), "trailing garbage");
        assert!(parse("").is_err());
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push('[');
        }
        assert!(parse(&s).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n} ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }
}
