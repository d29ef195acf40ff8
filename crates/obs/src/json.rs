//! A minimal JSON document model.
//!
//! The workspace has no external dependencies, so manifests, metrics
//! events, and bench artifacts render through this model instead of
//! serde. Two renderers and one parser cover every need:
//!
//! * [`JsonValue::to_string_compact`] — one line, for JSON-lines events;
//! * [`JsonValue::to_string_pretty`] — objects expand to one field per
//!   line (arrays stay inline), so manifests diff line-by-line.
//! * [`JsonValue::parse`] — a strict parser, used to read sweep
//!   journals back. Integral numbers become [`JsonValue::U64`] /
//!   [`JsonValue::I64`], so values this crate writes round-trip
//!   byte-identically through parse → compact render (the property the
//!   journal's per-line integrity checks rely on).
//!
//! Floats that must survive a round trip bit for bit — NaN included,
//! which JSON cannot spell — travel as strings of exactly 16 hex digits
//! ([`f64_bits_hex`] / [`f64_from_bits_hex`]).

use std::fmt::{self, Write as _};

/// A JSON value with insertion-ordered object fields.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float; non-finite values render as `null` (JSON has no NaN).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; fields keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

/// A parse failure from [`JsonValue::parse`]: what went wrong and the
/// byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, keeping order.
    pub fn object<I>(fields: I) -> JsonValue
    where
        I: IntoIterator<Item = (String, JsonValue)>,
    {
        JsonValue::Object(fields.into_iter().collect())
    }

    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error. Object field order is preserved; duplicate keys are kept.
    ///
    /// Non-negative integrals parse as [`JsonValue::U64`], negative
    /// integrals as [`JsonValue::I64`], everything else numeric as
    /// [`JsonValue::F64`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] locating the first malformed byte.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlc_obs::json::JsonValue;
    ///
    /// let v = JsonValue::parse(r#"{"a":1,"b":[true,null,"x"]}"#).unwrap();
    /// assert_eq!(v.get("a"), Some(&JsonValue::U64(1)));
    /// assert_eq!(v.to_string_compact(), r#"{"a":1,"b":[true,null,"x"]}"#);
    /// assert!(JsonValue::parse("{oops").is_err());
    /// ```
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after document"));
        }
        Ok(v)
    }

    /// Looks up a field of an object; `None` for missing fields and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value's array items, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders on a single line with no whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation: one object field per line,
    /// arrays inline. A trailing newline is included so the output is a
    /// well-formed text file on its own.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { ", " } else { "," });
                    }
                    // Arrays render inline even in pretty mode so each
                    // object field stays on a single diffable line.
                    item.render(out, None, depth);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(step) = indent {
                        out.push('\n');
                        out.push_str(&" ".repeat(step * (depth + 1)));
                    }
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.render(out, indent, depth + 1);
                }
                if let Some(step) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(step * depth));
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

/// Nesting depth bound for the parser: journals and manifests nest two
/// or three levels, so anything deeper is hostile input, not data.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over a plain UTF-8 run.
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                if self.peek().is_some_and(|b| b < 0x20) {
                    return Err(self.err("unescaped control character in string"));
                }
                self.pos += 1;
            }
            if start < self.pos {
                // The input is a &str, so any slice between ASCII
                // delimiters is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("input came from a &str"),
                );
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => unreachable!("loop above stops only at delimiters"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected four hex digits")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected fraction digits"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digits"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if integral {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(JsonValue::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::U64(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| self.err("number out of range"))
    }
}

/// Renders `v`'s IEEE-754 bit pattern as 16 lowercase hex digits.
pub fn f64_bits_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parses a bit pattern written by [`f64_bits_hex`]: exactly 16 hex
/// digits (either case), nothing else — no sign, no `0x` prefix.
pub fn f64_from_bits_hex(s: &str) -> Option<f64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = JsonValue::object([
            ("a".into(), JsonValue::U64(1)),
            ("b".into(), JsonValue::Array(vec![1u64.into(), 2u64.into()])),
            ("c".into(), "x\"y".into()),
        ]);
        assert_eq!(v.to_string_compact(), r#"{"a":1,"b":[1,2],"c":"x\"y"}"#);
    }

    #[test]
    fn pretty_puts_one_field_per_line_with_inline_arrays() {
        let v = JsonValue::object([
            ("a".into(), JsonValue::U64(1)),
            (
                "nested".into(),
                JsonValue::object([("b".into(), JsonValue::Array(vec![1u64.into(), 2u64.into()]))]),
            ),
        ]);
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": 1,\n  \"nested\": {\n    \"b\": [1, 2]\n  }\n}\n"
        );
    }

    #[test]
    fn escapes_control_characters() {
        let v: JsonValue = "a\n\tb\u{1}".into();
        assert_eq!(v.to_string_compact(), "\"a\\n\\tb\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::F64(f64::NAN).to_string_compact(), "null");
        assert_eq!(JsonValue::F64(f64::INFINITY).to_string_compact(), "null");
        assert_eq!(JsonValue::F64(1.5).to_string_compact(), "1.5");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::Object(vec![]).to_string_compact(), "{}");
        assert_eq!(JsonValue::Array(vec![]).to_string_compact(), "[]");
    }

    #[test]
    fn parse_round_trips_compact_documents() {
        let docs = [
            r#"{"a":1,"b":[1,2],"c":"x\"y"}"#,
            r#"{"schema":"mlc-journal/1","row":3,"total":[18446744073709551615,0]}"#,
            r#"[null,true,false,-7,1.5,"s"]"#,
            "{}",
            "[]",
            r#""plain""#,
            "0",
            "-0.5",
        ];
        for doc in docs {
            let v = JsonValue::parse(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            assert_eq!(v.to_string_compact(), doc, "round trip of {doc}");
        }
    }

    #[test]
    fn parse_number_types() {
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::U64(42));
        assert_eq!(
            JsonValue::parse("18446744073709551615").unwrap(),
            JsonValue::U64(u64::MAX)
        );
        assert_eq!(JsonValue::parse("-42").unwrap(), JsonValue::I64(-42));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::F64(1000.0));
        assert_eq!(JsonValue::parse("0.25").unwrap(), JsonValue::F64(0.25));
    }

    #[test]
    fn parse_decodes_escapes() {
        let v = JsonValue::parse(r#""a\n\tA😀""#).unwrap();
        assert_eq!(v, JsonValue::Str("a\n\tA\u{1f600}".into()));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "01",
            "1.",
            "1e",
            "tru",
            r#""unterminated"#,
            r#""bad \q escape""#,
            r#""\ud800""#,
            "[1] trailing",
            "nullx",
            "\u{1}",
        ] {
            let e = JsonValue::parse(bad);
            assert!(e.is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(JsonValue::parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"s":"x","n":3,"a":[1]}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(|a| a.len()),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("x"), None);
    }
}
