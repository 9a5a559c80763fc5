//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`] and [`from_str`], over the value
//! tree of the vendored `serde` shim.
//!
//! The emitted text is plain JSON. Object keys keep insertion order, so
//! repeated serializations of equal data are byte-identical — the
//! determinism guarantee the scheduler reports rely on. Floats print via
//! Rust's shortest-round-trip `Display`, integers as integers; `NaN` and
//! infinities are rejected (JSON has no encoding for them).

#![forbid(unsafe_code)]

use std::fmt::{self, Write as _};

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Serialization or parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize(), None, 0)?;
    Ok(out)
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize(), Some(2), 0)?;
    Ok(out)
}

/// Parses JSON text into `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse(text)?;
    T::deserialize(&value).map_err(|e| Error::new(e.to_string()))
}

fn write_value(
    out: &mut String,
    v: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(u) => write!(out, "{u}").expect("writing to a String cannot fail"),
        Value::I64(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
        Value::F64(f) => {
            if !f.is_finite() {
                return Err(Error::new("non-finite float is not representable in JSON"));
            }
            out.push_str(&f.to_string());
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(elems) => {
            if elems.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, elem) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, elem, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (key, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

/// Writes `s` as a JSON string literal. Runs of bytes that need no
/// escaping are copied whole; every escapable byte is ASCII, so the
/// runs always split `s` at character boundaries.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::new(format!("unexpected byte at {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut elems = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(elems));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }

    /// Parses a string literal. Runs between escapes are copied whole
    /// (they end at an ASCII `"` or `\`, so at character boundaries);
    /// a string with no escape is one slice of the input.
    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += run;
            out.push_str(&self.text[start..self.pos]);
            let closing = self.bytes[self.pos] == b'"';
            self.pos += 1;
            if closing {
                return Ok(out);
            }
            // A backslash: decode one escape.
            let esc = self
                .peek()
                .ok_or_else(|| Error::new("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let code = self.hex4()?;
                    // Surrogate pairs: read the low half if present.
                    let c = if (0xD800..0xDC00).contains(&code) {
                        if self.peek() == Some(b'\\') {
                            self.pos += 1;
                            self.expect(b'u')?;
                            let low = self.hex4()?;
                            let combined = 0x10000
                                + ((code - 0xD800) << 10)
                                + (low.wrapping_sub(0xDC00) & 0x3FF);
                            char::from_u32(combined)
                        } else {
                            None
                        }
                    } else {
                        char::from_u32(code)
                    };
                    out.push(c.unwrap_or('\u{FFFD}'));
                }
                other => return Err(Error::new(format!("invalid escape `\\{}`", other as char))),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let text = std::str::from_utf8(chunk).map_err(|_| Error::new("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if let Some(digits) = text.strip_prefix('-') {
            digits
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Value::I64)
                .or_else(|| text.parse::<f64>().ok().map(Value::F64))
                .ok_or_else(|| Error::new(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .or_else(|_| text.parse::<f64>().map(Value::F64))
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_round_trip() {
        let value = vec![(1u64, -2i64), (3, 4)];
        let compact = to_string(&value).unwrap();
        assert_eq!(compact, "[[1,-2],[3,4]]");
        let back: Vec<(u64, i64)> = from_str(&compact).unwrap();
        assert_eq!(back, value);
        let pretty = to_string_pretty(&value).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<(u64, i64)> = from_str(&pretty).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "say \"hi\"\nüñî".to_owned();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
        let uni: String = from_str(r#""Aé""#).unwrap();
        assert_eq!(uni, "Aé");
    }

    #[test]
    fn floats_survive() {
        let xs = vec![1.0f64, -0.25, 633.4, 1e-9];
        let text = to_string(&xs).unwrap();
        let back: Vec<f64> = from_str(&text).unwrap();
        assert_eq!(back, xs);
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<u64>("[1").is_err());
        assert!(from_str::<u64>("1 2").is_err());
        assert!(from_str::<u64>("nul").is_err());
    }
}
