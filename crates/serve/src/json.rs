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

use std::collections::BTreeMap;
use std::fmt;

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
        let v = self.as_f64()?;
        if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 {
            Some(v as usize)
        } else {
            None
        }
    }

    /// This value as an `i64`, if it is a whole number in range.
    pub fn as_i64(&self) -> Option<i64> {
        let v = self.as_f64()?;
        if v.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&v) {
            Some(v as i64)
        } else {
            None
        }
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
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                // JSON has no NaN/Inf; callers must not put them in.
                debug_assert!(v.is_finite(), "non-finite number in JSON");
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    out.push_str(&format!("{}", *v as i64));
                } else {
                    out.push_str(&format!("{v}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
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
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after the value"));
    }
    Ok(v)
}

/// Nesting depth cap: deeper input is rejected rather than recursed into
/// (an adversarial client must not be able to overflow the stack).
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: &str) -> JsonError {
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

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.bytes[self.pos + 1..self.pos + 5];
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by the protocol;
                            // lone surrogates map to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a char boundary of
                    // the (already valid UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(&format!("bad number {text:?}")))?;
        if !v.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(v))
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
    fn escapes_roundtrip() {
        let v = Json::str("line\nquote\" slash\\ tab\t");
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::str("A"));
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
