//! JSON rendering and parsing over the in-workspace serde subset.
//!
//! Source-compatible with the `serde_json` calls this workspace makes:
//! [`to_string`], [`to_string_pretty`], [`from_str`], [`to_value`],
//! [`from_value`] and the [`Value`] re-export.
//!
//! Numbers are written with Rust's shortest-round-trip float formatting, so
//! `serialize → parse` reproduces every finite `f64` bit-exactly. JSON has no
//! literal for non-finite floats; they are written as the strings
//! `"Infinity"`, `"-Infinity"` and `"NaN"`, which the serde subset's `f64`
//! deserializer accepts symmetrically.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub use serde::Value;

use serde::{Deserialize, Serialize};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Serialize a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize a value to a pretty-printed JSON string (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Reconstruct a typed value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value).map_err(Error::from)
}

/// Parse a JSON document into a typed value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse(s)?;
    T::from_value(&v).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_block(out, indent, depth, '[', ']', items.len(), |out, i| {
            write_value(out, &items[i], indent, depth + 1)
        }),
        Value::Map(entries) => {
            write_block(out, indent, depth, '{', '}', entries.len(), |out, i| {
                write_string(out, &entries[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, &entries[i].1, indent, depth + 1)
            })
        }
    }
}

fn write_block(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn write_float(out: &mut String, f: f64) {
    if f.is_nan() {
        out.push_str("\"NaN\"");
    } else if f.is_infinite() {
        out.push_str(if f > 0.0 {
            "\"Infinity\""
        } else {
            "\"-Infinity\""
        });
    } else {
        // Rust's Display for f64 is the shortest string that parses back to
        // the same bits; keep a trailing `.0` so the value re-parses as a
        // float rather than an integer (harmless either way, since numeric
        // deserializers coerce).
        let s = f.to_string();
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so hostile input (a frame of 50k `[`) must become a typed
/// error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

/// Parse a JSON document into a [`Value`] tree. Nesting deeper than
/// [`MAX_DEPTH`] is an error.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        Error::new(format!("JSON parse error at line {line}: {msg}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for this
                            // workspace's data; reject rather than corrupt.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    // The Some(_) arm guarantees at least one byte remains.
                    let Some(c) = s.chars().next() else {
                        unreachable!("peeked byte vanished from the input")
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Only ASCII digits, signs, dots and exponents were consumed.
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            unreachable!("number span is pure ASCII")
        };
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::UInt(u))
        } else {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"a\"b").unwrap(), r#""a\"b""#);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
    }

    #[test]
    fn float_bits_survive() {
        for &x in &[0.1f64, 1.0 / 3.0, 1e-300, 123456.789e12, -0.0] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {s}");
        }
    }

    #[test]
    fn nonfinite_floats() {
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "\"Infinity\"");
        let back: f64 = from_str("\"-Infinity\"").unwrap();
        assert!(back.is_infinite() && back < 0.0);
        let back: f64 = from_str(&to_string(&f64::NAN).unwrap()).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn containers() {
        let v = vec![1u32, 2, 3];
        assert_eq!(to_string(&v).unwrap(), "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>("[1, 2,\n3]").unwrap(), v);
        let m: Value = parse(r#"{"a": [true, null], "b": {"c": 1e3}}"#).unwrap();
        assert_eq!(m.get("a").unwrap().as_seq().unwrap().len(), 2);
        assert_eq!(m.get("b").unwrap().get("c"), Some(&Value::Float(1000.0)));
    }

    #[test]
    fn pretty_printing_nests() {
        let v = Value::Map(vec![
            ("x".into(), Value::Seq(vec![Value::Int(1), Value::Int(2)])),
            ("y".into(), Value::Map(vec![])),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"x\": [\n    1,\n    2\n  ],\n  \"y\": {}\n}");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        let e = parse("{\n\"a\": }").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn string_escapes() {
        let s: String = from_str(r#""tab\there A""#).unwrap();
        assert_eq!(s, "tab\there A");
        let round = to_string(&"line\nbreak\u{1}").unwrap();
        assert_eq!(from_str::<String>(&round).unwrap(), "line\nbreak\u{1}");
    }

    /// Run `f` on a 256 KiB stack, so a parser that recurses without bound
    /// overflows here rather than only on hostile production input.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn nesting_ladder_is_capped_at_max_depth() {
        on_small_stack(|| {
            let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
            let objects = |n: usize| format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n));
            for ladder in [arrays, objects] {
                for n in [1, 127, 128] {
                    let v = parse(&ladder(n)).unwrap();
                    assert_eq!(parse(&to_string(&v).unwrap()).unwrap(), v);
                }
                for n in [129, 50_000] {
                    let e = parse(&ladder(n)).unwrap_err();
                    assert!(e.to_string().contains("nesting deeper than 128"), "{e}");
                }
            }
            // Unterminated: the cap fires before the missing brackets do.
            let e = parse(&"[".repeat(50_000)).unwrap_err();
            assert!(e.to_string().contains("nesting"), "{e}");
        });
    }
}
