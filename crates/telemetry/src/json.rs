//! The workspace's one JSON layer: a value type with a deterministic
//! encoder and a parser.
//!
//! Every document the reproduction writes goes through here: artifacts,
//! cache entries, manifests and run reports (as [`Value`]s), and metrics
//! sidecars and Perfetto traces (the trace exporter streams through the
//! same string escaper and float writer instead of building a `Value`
//! per event). Object keys keep insertion order and floats render via
//! Rust's shortest-roundtrip formatter, so the byte encoding itself is
//! content-hashable: artifact digests are hashes of [`Value::encode`].

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer. 128 bits hold every `u64` counter and seed and the
    /// `u128` histogram sums without loss; a value in `i64` range has
    /// the same decimal text as that `i64`, which artifact digests pin.
    Int(i128),
    /// A double-precision float.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved (and hashed).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an empty object.
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Inserts or replaces `key` in an object value, keeping insertion
    /// order for fresh keys.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        let Value::Object(entries) = self else {
            panic!("Value::set on non-object");
        };
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
    }

    /// Fetches a field of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => i64::try_from(*i).ok(),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Encodes the value as compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => write_f64(*f, out),
            Value::Str(s) => write_str(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

/// Appends `s` as a JSON string literal (with quotes): the one string
/// escaper of the workspace.
pub(crate) fn write_str(s: &str, out: &mut String) {
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

/// Appends a float: the one float writer of the workspace. `{}` on f64
/// is shortest-roundtrip (stable, lossless); an integral value keeps a
/// `.0` so it parses back as a float, and non-finite values, which JSON
/// cannot represent, become `null`.
pub(crate) fn write_f64(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i128::from(i))
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Value {
        Value::Int(i128::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i as i128)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i128::from(i))
    }
}
impl From<u128> for Value {
    /// Exact up to `i128::MAX`; beyond it (a sum of more than 2^63
    /// maximal `u64` samples) the nearest float.
    fn from(i: u128) -> Value {
        i128::try_from(i).map_or(Value::Float(i as f64), Value::Int)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// A JSON parse failure with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            pos: self.pos,
            message: message.to_string(),
        }
    }

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

    fn eat(&mut self, expect: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expect) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expect as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
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
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // encoder; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: the leading byte fixes the
                    // sequence length, so validate just that window —
                    // validating the whole remaining input here made
                    // parsing quadratic in document size.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8")),
                    };
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("invalid UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    self.pos = end;
                    out.push(c);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() {
            return Err(self.err("expected a value"));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_shapes() {
        let mut obj = Value::object();
        obj.set("name", "fig4");
        obj.set("n", 42u64);
        obj.set("ratio", 0.375);
        obj.set("ok", true);
        obj.set("none", Value::Null);
        obj.set("xs", vec![1i64, 2, 3]);
        let text = obj.encode();
        let back = Value::parse(&text).expect("parse");
        assert_eq!(back, obj);
        // Deterministic encoding: same value, same bytes.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\té — ▁█".to_string());
        let back = Value::parse(&v.encode()).expect("parse");
        assert_eq!(back, v);
    }

    #[test]
    fn float_encoding_is_lossless() {
        for f in [0.1, 1.0 / 3.0, 1e-12, 6.02e23, -0.0, 123456.0] {
            let v = Value::Float(f);
            let back = Value::parse(&v.encode()).expect("parse");
            assert_eq!(back.as_f64().expect("float"), f);
        }
        // Integral floats keep a fraction; JSON has no NaN.
        assert_eq!(Value::Float(123456.0).encode(), "123456.0");
        assert_eq!(Value::Float(f64::NAN).encode(), "null");
    }

    #[test]
    fn integers_keep_their_decimal_text() {
        // Everything that fits in i64 encodes as it always has.
        for i in [0i64, -1, 42, i64::MIN, i64::MAX] {
            assert_eq!(Value::from(i).encode(), i.to_string());
        }
        // u64 values past i64::MAX are written as themselves, not wrapped
        // negative, and read back exactly.
        let v = Value::from(u64::MAX);
        assert_eq!(v.encode(), "18446744073709551615");
        let back = Value::parse(&v.encode()).expect("parse");
        assert_eq!(back.as_u64(), Some(u64::MAX));
        assert_eq!(back.as_i64(), None);
        assert_eq!(Value::from(-3i64).as_u64(), None);
        // u128 sums are exact as long as they fit in i128.
        let sum = u128::from(u64::MAX) * 5;
        assert_eq!(Value::from(sum).encode(), sum.to_string());
        assert_eq!(Value::parse(&sum.to_string()), Ok(Value::Int(sum as i128)));
        assert!(matches!(Value::from(u128::MAX), Value::Float(_)));
    }

    #[test]
    fn set_replaces_in_place() {
        let mut obj = Value::object();
        obj.set("a", 1i64);
        obj.set("b", 2i64);
        obj.set("a", 3i64);
        assert_eq!(obj.encode(), r#"{"a":3,"b":2}"#);
        assert_eq!(obj.get("a").and_then(Value::as_i64), Some(3));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("nul").is_err());
    }
}
