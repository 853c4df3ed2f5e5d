//! A minimal JSON value: parser and renderer.
//!
//! The wire protocol ships small JSON objects (a few hundred bytes of
//! control, plus query index arrays); the build environment is offline, so
//! rather than gating the crate on `serde` this module implements the
//! subset of JSON the protocol needs — objects, arrays, strings with
//! escapes, finite numbers, booleans, null — as one recursive-descent
//! parser over bytes. Object keys keep sorted order ([`std::collections::BTreeMap`])
//! so rendering is deterministic: the same message always serializes to the
//! same bytes, which is what lets CI diff session transcripts.
//!
//! The [`Json`] tree is the client's, the introspection surfaces' and the
//! reference codec. The server skips it: its typed codec in
//! [`crate::proto`] drives this module's lexer and scalar writers
//! directly, and tests hold the two paths byte-identical.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has one number type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is sorted, so rendering is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    /// Builds a number value from anything convertible to `f64`.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// The value under `key` if this is an object holding one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is a whole number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().and_then(f64_as_usize)
    }

    /// This value as an `i64`, if it is a whole number in range.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().and_then(f64_as_i64)
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders to the canonical (sorted-key, minimal-whitespace) form.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out);
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    /// Appends the canonical form to `out`.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => write_bool(*b, out),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => write_array(out, items, Json::write),
            Json::Obj(map) => {
                out.push(b'{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(k, out);
                    out.push(b':');
                    v.write(out);
                }
                out.push(b'}');
            }
        }
    }
}

/// `v` as a non-negative integer, if it is a whole number up to
/// `u32::MAX` (what [`Json::as_usize`] accepts).
pub(crate) fn f64_as_usize(v: f64) -> Option<usize> {
    if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 {
        Some(v as usize)
    } else {
        None
    }
}

/// `v` as an `i64`, if it is a whole number in range (what
/// [`Json::as_i64`] accepts).
pub(crate) fn f64_as_i64(v: f64) -> Option<i64> {
    if v.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&v) {
        Some(v as i64)
    } else {
        None
    }
}

fn write_bool(b: bool, out: &mut Vec<u8>) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Writes a number: whole values below 10^15 as integers (through a stack
/// digit buffer), everything else in Rust's shortest round-trip form.
pub(crate) fn write_num(v: f64, out: &mut Vec<u8>) {
    // JSON has no NaN/Inf; callers must not put them in.
    debug_assert!(v.is_finite(), "non-finite number in JSON");
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let n = v as i64;
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut m = n.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        if n < 0 {
            out.push(b'-');
        }
        out.extend_from_slice(&digits[at..]);
    } else {
        write!(out, "{v}").expect("writing to a Vec cannot fail");
    }
}

/// Writes `s` as a JSON string, copying the runs between the bytes that
/// need escaping (`"`, `\` and the control bytes below 0x20).
pub(crate) fn write_escaped(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        if short.is_empty() {
            out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ]);
        } else {
            out.extend_from_slice(short);
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Writes `items` as an array, each element through `item`.
pub(crate) fn write_array<T>(
    out: &mut Vec<u8>,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(T, &mut Vec<u8>),
) {
    out.push(b'[');
    for (i, v) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        item(v, out);
    }
    out.push(b']');
}

/// Renders one object with its keys in ascending order, straight into a
/// byte buffer: the typed encoders' counterpart of a sorted [`Json::Obj`].
pub(crate) struct ObjectWriter<'o> {
    out: &'o mut Vec<u8>,
    last: Option<&'static str>,
}

impl<'o> ObjectWriter<'o> {
    /// Opens the object.
    pub(crate) fn open(out: &'o mut Vec<u8>) -> Self {
        out.push(b'{');
        ObjectWriter { out, last: None }
    }

    /// Writes `key:` and returns the buffer for its value. Keys must come
    /// in ascending byte order, as a [`BTreeMap`] renders them, and must
    /// need no escaping.
    pub(crate) fn key(&mut self, key: &'static str) -> &mut Vec<u8> {
        debug_assert!(self.last < Some(key), "keys out of order at {key:?}");
        if self.last.is_some() {
            self.out.push(b',');
        }
        self.last = Some(key);
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
        self.out
    }

    /// Writes a string field.
    pub(crate) fn str(&mut self, key: &'static str, v: &str) {
        write_escaped(v, self.key(key));
    }

    /// Writes a number field.
    pub(crate) fn num(&mut self, key: &'static str, v: f64) {
        write_num(v, self.key(key));
    }

    /// Writes a bool field.
    pub(crate) fn bool(&mut self, key: &'static str, v: bool) {
        write_bool(v, self.key(key));
    }

    /// Writes a string field when `v` is given.
    pub(crate) fn opt_str(&mut self, key: &'static str, v: Option<&str>) {
        if let Some(v) = v {
            self.str(key, v);
        }
    }

    /// Closes the object.
    pub(crate) fn close(self) {
        self.out.push(b'}');
    }
}

/// A JSON parse failure: byte offset plus what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What the parser expected or found.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    document(text, |p| p.value(0))
}

/// Runs `root` over the one value of `text`, with the surrounding
/// whitespace and trailing-bytes rules of [`parse`].
pub(crate) fn document<'a, T>(
    text: &'a str,
    root: impl FnOnce(&mut Parser<'a>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = root(&mut p)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after the value"));
    }
    Ok(v)
}

/// Nesting depth cap: deeper input is rejected rather than recursed into
/// (an adversarial client must not be able to overflow the stack).
const MAX_DEPTH: usize = 32;

/// The lexer behind [`parse`]. Typed decoders walk a document with
/// [`Parser::object`], [`Parser::array`], [`Parser::string`] and
/// [`Parser::number`], and [`Parser::skip_value`] past what they do not
/// read. Each reader fails on a value of another type; on its own type it
/// accepts, rejects and consumes exactly what [`Parser::value`] would.
pub(crate) struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn err(&self, detail: &str) -> JsonError {
        JsonError {
            at: self.pos,
            detail: detail.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn lit(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    /// Parses one value into a tree.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null").map(|()| Json::Null),
            Some(b't') => self.lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.lit("false").map(|()| Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(depth, |p, d| {
                    items.push(p.value(d)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(depth, |p, key, d| {
                    let val = p.value(d)?;
                    map.insert(key.into_owned(), val);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Json::Num),
            Some(c) => Err(self.err(&format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Checks one value, as [`Parser::value`] would, without building it.
    pub(crate) fn skip_value(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null"),
            Some(b't') => self.lit("true"),
            Some(b'f') => self.lit("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.array(depth, Parser::skip_value),
            Some(b'{') => self.object(depth, |p, _, d| p.skip_value(d)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(drop),
            Some(c) => Err(self.err(&format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Walks an array at `depth`; `item` reads each element, which sits
    /// at the depth it is handed.
    pub(crate) fn array(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Walks an object at `depth`; `field` reads the value of each key in
    /// document order (duplicates included), which sits at the depth it is
    /// handed.
    pub(crate) fn object(
        &mut self,
        depth: usize,
        mut field: impl FnMut(&mut Self, Cow<'a, str>, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            field(self, key, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Reads a string, borrowed from the input when it holds no escapes.
    /// As RFC 8259 requires, a control byte (below 0x20) is accepted only
    /// as an escape.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        // Copy whole runs up to the next quote, backslash or control byte.
        // All are ASCII, so a run ends on a char boundary of the (already
        // valid UTF-8) input.
        let run_end = |p: &Self| {
            let rest = &p.bytes[p.pos..];
            p.pos
                + rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .unwrap_or(rest.len())
        };
        let start = self.pos;
        let end = run_end(self);
        if self.bytes.get(end) == Some(&b'"') {
            self.pos = end + 1;
            return Ok(Cow::Borrowed(&self.text[start..end]));
        }
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("unescaped control byte in string")),
                Some(_) => {
                    let end = run_end(self);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    /// Decodes the `\u` escape whose `u` is at the cursor, leaving the
    /// cursor on its last hex digit. A high surrogate directly followed by
    /// a `\u` low surrogate is one scalar; a lone surrogate is U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4(self.pos)?;
        self.pos += 4;
        if (0xD800..0xDC00).contains(&hi) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            if let Ok(lo @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 2) {
                self.pos += 6;
                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(c).expect("a surrogate pair is a scalar"));
            }
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits after the `u` at `at`: exactly four, no sign.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(at + 1..at + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        hex.iter().try_fold(0, |acc, &b| {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            Ok(acc << 4 | digit)
        })
    }

    /// Reads a number in RFC 8259's grammar: an optional `-`, then `0` or
    /// a digit run without a leading zero, then optionally `.` and digits,
    /// then optionally `e`/`E`, a sign and digits. A token of an optional
    /// `-` and at most 15 digits is exact in `f64` and is accumulated
    /// directly; every other token goes through `str::parse`.
    pub(crate) fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut m = 0u64;
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            m = m.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        let n_digits = self.pos - digits;
        if n_digits == 0 {
            return Err(self.err("expected a number"));
        }
        if n_digits > 1 && self.bytes[digits] == b'0' {
            return Err(self.err("leading zero in a number"));
        }
        let int_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("a digit after '.'")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("a digit in the exponent")?;
        }
        if self.pos == int_end && n_digits <= 15 {
            // Negating keeps `-0` as −0.0, as `str::parse` does.
            let v = m as f64;
            return Ok(if negative { -v } else { v });
        }
        let text = &self.text[start..self.pos];
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(&format!("bad number {text:?}")))?;
        if !v.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(v)
    }

    /// Consumes a run of at least one digit.
    fn digits(&mut self, expected: &str) -> Result<(), JsonError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(&format!("expected {expected}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_values() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "-3",
            "2.5",
            "\"hi\"",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null]}",
            "{}",
            "[]",
        ];
        for c in cases {
            let v = parse(c).unwrap_or_else(|e| panic!("{c}: {e}"));
            assert_eq!(v.render(), c, "canonical form of {c}");
            assert_eq!(parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn control_bytes_only_as_escapes() {
        for c in ['\u{0}', '\n', '\t', '\u{1f}'] {
            let raw = format!("\"a{c}b\"");
            assert!(parse(&raw).is_err(), "raw {c:?} must be rejected");
            let escaped = Json::str(&format!("a{c}b")).render();
            assert_eq!(parse(&escaped).unwrap(), Json::str(&format!("a{c}b")));
        }
        assert_eq!(parse("\"\u{7f}é\"").unwrap(), Json::str("\u{7f}é"));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::str("line\nquote\" slash\\ tab\t");
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::str("A"));
    }

    #[test]
    fn number_edges_parse_and_render() {
        // (input, parsed value, canonical rendering)
        let cases: [(&str, f64, &str); 11] = [
            ("999999999999999", 999_999_999_999_999.0, "999999999999999"),
            (
                "-999999999999999",
                -999_999_999_999_999.0,
                "-999999999999999",
            ),
            ("1000000000000000", 1e15, "1000000000000000"),
            ("1e15", 1e15, "1000000000000000"),
            (
                "9007199254740993",
                9_007_199_254_740_992.0,
                "9007199254740992",
            ),
            (
                "-9223372036854775808",
                i64::MIN as f64,
                "-9223372036854776000",
            ),
            (
                "9223372036854775807",
                i64::MAX as f64,
                "9223372036854776000",
            ),
            ("0.1", 0.1, "0.1"),
            ("1e-7", 1e-7, "0.0000001"),
            ("2.0", 2.0, "2"),
            ("-0.5E+2", -50.0, "-50"),
        ];
        for (text, want, canon) in cases {
            let v = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(v, Json::Num(want), "{text}");
            assert_eq!(v.render(), canon, "{text}");
        }
        // RFC 8259 spellings only: no leading zero, a digit after `.` and
        // in the exponent, no `+` or bare `-`.
        for text in [
            "01", "1.", "-01", "00", "-", "-.5", ".5", "+1", "1e", "1e+", "1.e1", "--1", "1.5.2",
            "0x10",
        ] {
            assert!(parse(text).is_err(), "{text:?} must be rejected");
        }
        // −0 keeps its sign through the exact fast path, like `str::parse`.
        for text in ["-0", "-0.0"] {
            let v = parse(text).unwrap().as_f64().unwrap();
            assert!(v == 0.0 && v.is_sign_negative(), "{text}");
        }
        assert_eq!(Json::num(-0.0).render(), "0");
        // Whole numbers go through the digit buffer, others through `{}`.
        for v in [0.0, 7.0, -7.0, 1e14, -1e14 + 1.0, 0.5, -2.25, 1e300, 1e15] {
            let mut out = Vec::new();
            write_num(v, &mut out);
            let reference = if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{}", v as i64)
            } else {
                format!("{v}")
            };
            assert_eq!(String::from_utf8(out).unwrap(), reference, "{v}");
        }
        for n in [i64::MIN, i64::MAX] {
            let v = parse(&n.to_string()).unwrap();
            assert_eq!(v.as_i64(), Some(n), "{n}");
        }
        assert_eq!(parse("1e1").unwrap().as_usize(), Some(10));
    }

    #[test]
    fn every_control_byte_escapes_and_roundtrips() {
        for b in 0u8..0x20 {
            let s = format!("a{}b", b as char);
            let rendered = Json::str(&s).render();
            let want = match b {
                b'\n' => "\"a\\nb\"".to_owned(),
                b'\r' => "\"a\\rb\"".to_owned(),
                b'\t' => "\"a\\tb\"".to_owned(),
                _ => format!("\"a\\u{:04x}b\"", b),
            };
            assert_eq!(rendered, want, "byte {b:#04x}");
            assert_eq!(parse(&rendered).unwrap(), Json::str(&s), "byte {b:#04x}");
        }
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let decoded = |text: &str| parse(text).map(|v| v.as_str().map(str::to_owned));
        // Python's default `json.dumps("r😀")`.
        assert_eq!(
            decoded("\"r\\ud83d\\ude00\"").unwrap().as_deref(),
            Some("r😀")
        );
        assert_eq!(
            decoded("\"\\uD83D\\uDE00\"").unwrap().as_deref(),
            Some("😀")
        );
        // Lone surrogates, either half, map to U+FFFD; what follows a lone
        // high surrogate decodes on its own.
        for (text, want) in [
            ("\"\\ud83d\"", "\u{fffd}"),
            ("\"\\ude00\"", "\u{fffd}"),
            ("\"\\ud83dx\"", "\u{fffd}x"),
            ("\"\\ud83d\\u0041\"", "\u{fffd}A"),
            ("\"\\ud83d\\ud83d\\ude00\"", "\u{fffd}😀"),
            ("\"\\ude00\\ud83d\"", "\u{fffd}\u{fffd}"),
        ] {
            assert_eq!(decoded(text).unwrap().as_deref(), Some(want), "{text}");
        }
        // Exactly four hex digits: no sign, no short or bad digits, and a
        // bad escape after a high surrogate is still an error.
        for bad in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u00g1\"",
            "\"\\u004\"",
            "\"\\ud83d\\u+e00\"",
            "\"\\ud83d\\ude0\"",
        ] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn object_keys_render_sorted() {
        let v = parse("{\"b\":1,\"a\":2}").unwrap();
        assert_eq!(v.render(), "{\"a\":2,\"b\":1}");
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in [
            "", "{", "[1,", "\"open", "tru", "{\"a\"}", "[1 2]", "nul", "+1", "1e999", "{\"a\":}",
            "]", ",",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.detail.contains("deep"), "{err}");
    }

    #[test]
    fn accessors() {
        let v = parse("{\"n\":3,\"s\":\"x\",\"b\":true,\"a\":[1]}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("2.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
    }

    /// A frame-sized string parses in linear time: one string of multi-byte
    /// characters just under the frame cap round-trips.
    #[test]
    fn frame_sized_multibyte_string_roundtrips() {
        let max = crate::proto::DEFAULT_MAX_FRAME;
        let text = "é☃\u{1F600}".repeat((max - 64) / 9);
        let v = Json::obj(vec![("s", Json::str(&text))]);
        let rendered = v.render();
        assert!(rendered.len() > max - 64 && rendered.len() <= max);
        let back = parse(&rendered).unwrap();
        assert_eq!(back.get("s").and_then(Json::as_str), Some(text.as_str()));
        assert_eq!(back, v);
    }

    #[test]
    fn unicode_passes_through() {
        let v = parse("\"héllo ☃\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ☃"));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }
}
