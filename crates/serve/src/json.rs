//! A minimal hand-rolled JSON tree: parser and accessors.
//!
//! The daemon speaks line-delimited JSON but, like `mkss-obs`, must stay
//! free of external dependencies, so this module implements the subset
//! of RFC 8259 the protocol needs. Two deliberate simplifications:
//!
//! * objects are vectors of `(key, value)` pairs in document order (no
//!   hash maps — lookup is linear, and protocol objects are tiny);
//! * nesting depth is capped at [`MAX_DEPTH`] so a hostile request line
//!   cannot overflow the parser's stack.

use std::fmt;

/// Maximum nesting depth accepted by [`parse`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: JSON has exactly these value kinds; a parser consumer must match them all"
)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`; protocol integers are small
    /// enough to be exact).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object: `(key, value)` pairs in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member of an object, by key (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects fractions, negatives, and magnitudes beyond
    /// 2^53 where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Error from [`parse`]: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require the paired low
                                // surrogate escape.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(unit)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    let scalar = &self.bytes[start..self.pos];
                    #[expect(
                        clippy::expect_used,
                        reason = "slicing a &str-backed byte range on scalar boundaries"
                    )]
                    out.push_str(std::str::from_utf8(scalar).expect("valid UTF-8"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut unit = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.err("expected four hex digits")),
            };
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let digits = &self.bytes[start..self.pos];
        #[expect(
            clippy::expect_used,
            reason = "the scanned range is ASCII digits/signs by construction"
        )]
        let text = std::str::from_utf8(digits).expect("ASCII by construction");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => Err(JsonError {
                offset: start,
                message: format!("invalid number '{text}'"),
            }),
        }
    }
}

/// Append a float that always parses as a JSON number (non-finite values
/// clamp to 0, matching the `mkss-obs` exporter's convention).
pub fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        out.push_str(&format!("{value}"));
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Num(42.0));
        assert_eq!(parse("-2.5e1").unwrap(), JsonValue::Num(-25.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("c"));
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""line\nquote\"u\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("line\nquote\"uA\u{e9}"));
        // Surrogate pair → astral scalar.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Raw multi-byte UTF-8 passes through.
        let v = parse("\"héllo\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{,}",
            "01x",
            "\"\\q\"",
            "nan",
            "1e999",
            "\"\\ud800\"",
            "\u{1}",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_rejects_deep_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn u64_accessor_is_exact_only() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn writer_helpers_escape_and_clamp() {
        let mut out = String::new();
        mkss_obs::push_json_string(&mut out, "a\"b\\c\n\u{1}");
        assert_eq!(out, r#""a\"b\\c\n\u0001""#);
        let mut out = String::new();
        push_json_f64(&mut out, 2.5);
        push_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "2.50");
    }
}
