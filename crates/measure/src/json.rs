//! A small, dependency-free JSON document model with serializer and parser.
//!
//! The measurement tool "writes the results to a JSON file" (§3.1); since
//! `serde_json` is not on this project's dependency allow-list, this module
//! implements the subset of JSON the tool needs — which is all of JSON,
//! minus any exotic number formats on output (numbers serialize as i64 or
//! shortest-round-trip f64).
//!
//! A simulated time is an exact `u64` of nanoseconds and is written as
//! decimal milliseconds without passing through a float: [`write_millis`]
//! produces, by integer arithmetic, the bytes [`write_float`] would, on
//! the two domains where that can be argued, and calls it elsewhere.
//! `write_float` stays for what is a float, for the tree writer — which
//! is thereby the record writer's oracle in every golden and differential
//! test — and as that fallback.
//!
//! [`LineReader`] is the other direction of the direct writers: the token
//! readers that the strict record reader and the checkpoint readers
//! (manifest and cell file) are built from, each agreeing with [`parse`]
//! on what it accepts.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use detlint_macros::deny_alloc;

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
            Json::Str(s) => write_str(out, s),
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
                    write_str(out, k);
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
/// For what really is a float (cell-file moments and sketches, the
/// [`Json`] tree); a simulated time goes through [`write_millis`].
pub fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        let start = out.len();
        let _ = write!(out, "{f}");
        // Ensure floats stay floats on re-parse (e.g. 3 -> 3.0).
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null"); // JSON has no NaN/Inf
    }
}

/// Below this many nanoseconds (11.5 days) [`write_millis`] is exact:
/// domain (a).
const EXACT_NANOS: u64 = 1_000_000_000_000_000;
/// Below this many *whole* milliseconds (15 years) it is exact too:
/// domain (b).
const EXACT_WHOLE_MS: u64 = 500_000_000_000;
// What the argument in `write_millis` rests on: (a) 15-digit decimals are
// sparser than doubles, (b) the odd part of `ms · 10^6` fits a mantissa.
const _: () = assert!(EXACT_NANOS < 1 << 52 && (EXACT_WHOLE_MS - 1) * 15_625 < 1 << 53);

/// Whether `ms`.`frac` milliseconds (`frac` in nanoseconds, below 10^6) is
/// in one of the two domains where decimal milliseconds and integer
/// nanoseconds convert exactly without a float — see [`write_millis`].
pub(crate) fn millis_are_exact(ms: u64, frac: u64) -> bool {
    ms < EXACT_NANOS / 1_000_000 || (frac == 0 && ms < EXACT_WHOLE_MS)
}

/// Appends `nanos` nanoseconds as JSON decimal milliseconds: the integer
/// part, `.`, and up to six fraction digits with trailing zeros trimmed
/// (`.0` when there are none) — by integer arithmetic alone, and byte for
/// byte what `write_float(out, nanos as f64 / 1e6)` writes:
///
/// * (a) `nanos < 10^15` — every duration the simulator produces. Below
///   2^53 the conversion to `f64` is exact, so the IEEE quotient is the
///   double nearest the exact decimal `nanos / 10^6`. That decimal has at
///   most 15 significant digits, and no two decimals of ≤ 15 digits share
///   a nearest double (10^15 < 2^52), so it is the one shortest decimal
///   that reads back to its double — what `Display` prints, never with an
///   exponent.
/// * (b) a whole number of milliseconds below 5·10^11 — every `ts_ms`,
///   rounds being scheduled on whole seconds. `ms · 2^6 · 5^6` has an odd
///   part below 2^53: conversion and quotient are both exact and the
///   rendering is `ms` followed by `.0`.
///
/// Anywhere else (above 2^53 `nanos as f64` itself rounds, whatever the
/// digit count) the float path is the definition and is what runs.
#[deny_alloc]
pub fn write_millis(out: &mut String, nanos: u64) {
    let (ms, mut frac) = (nanos / 1_000_000, nanos % 1_000_000);
    if !millis_are_exact(ms, frac) {
        return write_float(out, nanos as f64 / 1e6);
    }
    // Right to left: ≤ 12 integer digits, the point, ≤ 6 fraction digits.
    let mut buf = [0u8; 19];
    let mut at = buf.len();
    let mut width = 6;
    while width > 1 && frac % 10 == 0 {
        frac /= 10;
        width -= 1;
    }
    for _ in 0..width {
        at -= 1;
        buf[at] = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    at -= 1;
    buf[at] = b'.';
    let mut int = ms;
    loop {
        at -= 1;
        buf[at] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// Appends one JSON string literal (quotes and escapes included) to `out`:
/// each run of characters that need no escape — for a label or a key, the
/// whole string — is pushed in one piece. Shared by the document model and
/// the streaming record writer.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Everything escaped is ASCII, so a byte index here is a char boundary.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// A cursor over compact JSON as this crate's direct writers emit it: the
/// token readers of the strict record reader
/// ([`ProbeRecord::read_json_line`](crate::ProbeRecord::read_json_line))
/// and checkpoint readers ([`Manifest::decode`](crate::Manifest::decode),
/// [`ShardCells::decode`](crate::ShardCells::decode)).
/// Each accepts what the writers write and agrees with [`parse`] on every
/// token it accepts; a miss is `None`.
pub(crate) struct LineReader<'a> {
    pub(crate) s: &'a str,
    pub(crate) pos: usize,
}

impl<'a> LineReader<'a> {
    pub(crate) fn new(s: &'a str) -> LineReader<'a> {
        LineReader { s, pos: 0 }
    }

    pub(crate) fn try_eat(&mut self, lit: &str) -> bool {
        let hit = self.s.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    pub(crate) fn eat(&mut self, lit: &str) -> Option<()> {
        self.try_eat(lit).then_some(())
    }

    /// One of the `,"key":` literals, without its comma when `first`.
    pub(crate) fn try_key(&mut self, first: bool, lit: &str) -> bool {
        self.try_eat(&lit[usize::from(first)..])
    }

    pub(crate) fn key(&mut self, first: bool, lit: &str) -> Option<()> {
        self.try_key(first, lit).then_some(())
    }

    pub(crate) fn boolean(&mut self) -> Option<bool> {
        if self.try_eat("true") {
            Some(true)
        } else {
            self.eat("false").map(|()| false)
        }
    }

    /// The token `parse` takes for a number: a digit or `-`, then every
    /// following digit, `.`, `e`, `E`, `+` and `-`.
    pub(crate) fn number_token(&mut self) -> Option<(&'a str, bool)> {
        let b = self.s.as_bytes();
        let start = self.pos;
        if !matches!(b.get(start), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        let mut end = start + 1;
        let mut is_float = false;
        while let Some(&c) = b.get(end) {
            match c {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            end += 1;
        }
        self.pos = end;
        Some((&self.s[start..end], is_float))
    }

    /// A number as `parse` → [`Json::as_f64`] reads it: an integer token
    /// goes through `i64` first.
    pub(crate) fn number(&mut self) -> Option<f64> {
        let (text, is_float) = self.number_token()?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Some(i as f64);
            }
        }
        text.parse::<f64>().ok()
    }

    /// An integer token (the writers never render a count as a float).
    pub(crate) fn int(&mut self) -> Option<i64> {
        match self.number_token()? {
            (text, false) => text.parse().ok(),
            _ => None,
        }
    }

    /// A string literal: borrowed from the input unless it holds an
    /// escape. A raw control character is rejected, as `parse` does.
    pub(crate) fn string(&mut self) -> Option<Cow<'a, str>> {
        self.eat("\"")?;
        let rest = &self.s[self.pos..];
        let mut escaped = false;
        let mut bytes = rest.bytes().enumerate();
        let end = loop {
            match bytes.next()? {
                (i, b'"') => break i,
                (_, b'\\') => {
                    escaped = true;
                    bytes.next()?;
                }
                (_, c) if c < 0x20 => return None,
                _ => {}
            }
        };
        self.pos += end + 1;
        let raw = &rest[..end];
        if escaped {
            unescape(raw).map(Cow::Owned)
        } else {
            Some(Cow::Borrowed(raw))
        }
    }
}

/// Undoes the escapes [`write_str`] emits (`\"`, `\\`, `\n`, `\r`, `\t`,
/// `\u00XX` for the other control characters); any other escape is
/// `None`.
fn unescape(raw: &str) -> Option<String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next()? {
                '"' => '"',
                '\\' => '\\',
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let (hex, rest) = chars.as_str().split_at_checked(4)?;
                    chars = rest.chars();
                    let code = u32::from_str_radix(hex, 16).ok()?;
                    char::from_u32(code).filter(|_| code < 0x20)?
                }
                _ => return None,
            },
            c => c,
        });
    }
    Some(out)
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
///
/// No engine path reads through it: records, manifests and cell files
/// have their strict readers. It stays as the oracle those readers are
/// held to (`tests/line_reader_differential.rs`,
/// `tests/checkpoint_proptests.rs`, `tests/json_proptests.rs`) and for the
/// benchmark's replay rows (`benchmark/`).
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

/// The nanosecond values the codec's equivalence tests walk, writer and
/// reader alike: every n < 2·10^6; 10^k and 10^k ± 1 up to `u64::MAX`;
/// d·10^k shapes (trailing-zero trimming); whole-second timestamps for
/// every day of a 133-day and a 5,000-day campaign; 10^5 seeded n per
/// decade; both sides of each domain guard; seeded n above 2^53.
#[cfg(test)]
pub(crate) fn millis_cases(mut visit: impl FnMut(u64)) {
    (0..2_000_000).for_each(&mut visit);
    let mut state = 0x5eed_0014;
    let mut seeded = |lo: u64, span: u64| lo + netsim::rng::splitmix64(&mut state) % span;
    for k in 0..20 {
        let p = 10u64.pow(k);
        [p - 1, p, p + 1].into_iter().for_each(&mut visit);
        for d in [
            1, 2, 5, 9, 12, 25, 101, 999, 1_001, 123_456, 999_999, 1_000_001,
        ] {
            p.checked_mul(d).into_iter().for_each(&mut visit);
        }
        let span = p.checked_mul(9).unwrap_or(u64::MAX - p);
        (0..100_000).for_each(|_| visit(seeded(p, span)));
    }
    visit(u64::MAX);
    for day in 0..5_000 {
        for second in [0, 1, 3_599, 43_200, 86_399] {
            visit((day * 86_400 + second) * 1_000_000_000);
        }
    }
    for edge in [EXACT_NANOS, EXACT_WHOLE_MS * 1_000_000, 1 << 53] {
        [edge - 1_000_000, edge - 1, edge, edge + 1, edge + 1_000_000]
            .into_iter()
            .for_each(&mut visit);
    }
    (0..100_000).for_each(|_| visit(seeded(1 << 53, u64::MAX - (1 << 53))));
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

    /// `write_millis` against its definition, `write_float(n as f64 / 1e6)`,
    /// and inside the two domains against plain decimal arithmetic.
    #[test]
    fn write_millis_is_write_float_of_the_quotient() {
        let (mut got, mut want) = (String::new(), String::new());
        let (mut exact, mut fallback_only) = (0u64, 0u64);
        millis_cases(|n| {
            got.clear();
            want.clear();
            write_millis(&mut got, n);
            write_float(&mut want, n as f64 / 1e6);
            assert_eq!(got, want, "n = {n}");
            // Six fraction digits, trailing zeros dropped, one always kept.
            let decimal = format!("{}.{:06}", n / 1_000_000, n % 1_000_000);
            let kept = decimal.trim_end_matches('0').len().max(decimal.len() - 5);
            let plain = &decimal[..kept];
            if millis_are_exact(n / 1_000_000, n % 1_000_000) {
                assert_eq!(got, plain, "n = {n}");
                exact += 1;
            } else {
                fallback_only += u64::from(got != plain);
            }
        });
        // Past the guards the decimal digits of n are not what the float
        // path prints: the fallback is needed, not decoration.
        assert!(
            exact > 3_000_000 && fallback_only > 100_000,
            "{exact} {fallback_only}"
        );
    }

    #[test]
    fn millis_guards_sit_where_the_argument_puts_them() {
        // (a) ends at 10^15 ns, (b) at 5·10^11 whole ms.
        assert!(millis_are_exact(999_999_999, 999_999));
        assert!(!millis_are_exact(1_000_000_000, 1));
        assert!(millis_are_exact(1_000_000_000, 0));
        assert!(millis_are_exact(499_999_999_999, 0));
        assert!(!millis_are_exact(499_999_999_999, 1));
        assert!(!millis_are_exact(500_000_000_000, 0));
    }

    #[test]
    fn clean_strings_are_pushed_whole_and_escapes_split_the_runs() {
        for (s, want) in [
            ("", r#""""#),
            ("dns.google", r#""dns.google""#),
            ("ünïcødé 漢字", r#""ünïcødé 漢字""#),
            ("\"", r#""\"""#),
            ("a\"b\\c", r#""a\"b\\c""#),
            ("\n\r\t", r#""\n\r\t""#),
            ("é\u{1}漢\u{1f}", r#""é\u0001漢\u001f""#),
            ("tail\\", r#""tail\\""#),
        ] {
            let mut out = String::new();
            write_str(&mut out, s);
            assert_eq!(out, want, "{s:?}");
            assert_eq!(parse(&out).unwrap(), Json::Str(s.to_string()));
        }
    }
}
