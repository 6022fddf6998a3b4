//! A small JSON value with a writer and a parser: result sets are written,
//! read back by `--compare`, and exchanged between the suite and its child
//! processes. No dependency resolves offline, so it is hand-rolled; objects
//! keep insertion order so files diff cleanly.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has one number type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

/// Why a document failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Nesting limit: result files are a few levels deep, and input comes from
/// disk, so recursion must be bounded.
const MAX_DEPTH: usize = 32;

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes on one line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let newline = |out: &mut String, level: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * level));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` prints the shortest text that reads back to the same
            // f64: every digit measured, nothing invented. JSON has no
            // NaN/inf; a metric that is one is a bug worth seeing as null.
            Value::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline(out, level + 1);
                    item.write(out, indent, level + 1);
                }
                if !items.is_empty() {
                    newline(out, level);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline(out, level + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent, level + 1);
                }
                if !pairs.is_empty() {
                    newline(out, level);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns the offset and reason of the first violation.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
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
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
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
    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let end = self.pos + literal.len();
        if self.bytes.get(self.pos..end) == Some(literal.as_bytes()) {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':'"));
                    }
                    self.skip_ws();
                    pairs.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(pairs));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                // The slice is ASCII by construction of the loop above.
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid number"))?;
                text.parse()
                    .map(Value::Num)
                    .map_err(|_| self.err("invalid number"))
            }
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            hex
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    self.pos += 1;
                    out.extend_from_slice(escaped.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::obj([
            ("name", Value::str("fig1 \"merge\"\n")),
            ("value", Value::Num(1.2034567891234)),
            ("count", Value::Num(128.0)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "runs",
                Value::Arr(vec![Value::Num(-0.5), Value::Num(1e-9), Value::Arr(vec![])]),
            ),
            ("empty", Value::obj::<String>([])),
        ])
    }

    #[test]
    fn write_then_parse_round_trips() {
        let v = sample();
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        assert_eq!(Value::parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 0.1 + 0.2;
        let text = Value::Num(x).to_json();
        assert_eq!(text, "0.30000000000000004");
        assert_eq!(Value::parse(&text).unwrap().as_f64(), Some(x));
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn accessors_select_by_type() {
        let v = sample();
        assert_eq!(v.get("count").and_then(Value::as_f64), Some(128.0));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("runs").and_then(Value::as_arr).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("fig1 \"merge\"\n")
        );
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_obj().map(<[_]>::len), Some(7));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "\"abc",
            "[1 2]",
            "{\"a\":1} x",
            "\"\\u12\"",
            "-",
            "\"\\q\"",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(Value::parse(&deep).unwrap_err().what, "nested too deeply");
    }
}
