//! Minimal JSON support: string escaping and float formatting for the
//! JSON-lines exporter, plus a small validating parser used by the obs
//! smoke gate in CI (and by tests) to prove every exported line is
//! well-formed — all without external dependencies.

use std::collections::BTreeMap;
use std::fmt;

/// Escapes a string as a JSON string literal, including the quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal, including the quotes:
/// [`escape`] into a caller's buffer.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Formats a float as a valid JSON number (JSON has no NaN/Infinity;
/// those render as `null`).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on an integral f64 prints without a dot; that is still
        // valid JSON, so pass it through.
        s
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted keys).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Looks up a key on an object; `None` for other kinds or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of the failure.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a limit a line of `[`s from disk or a
/// socket would overflow the stack; every artifact this workspace writes
/// nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; trailing non-whitespace is an
/// error, and so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.num(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
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

    fn string(&mut self) -> Result<String, JsonError> {
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
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are replaced; the exporter never
                            // emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one UTF-8 character, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn num(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number"))?;
        text.parse::<f64>().map(Value::Number).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parse() {
        for s in ["plain", "with \"quotes\"", "tab\there", "null\u{0}byte", "unicode ω"] {
            let escaped = escape(s);
            let parsed = parse(&escaped).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "escaping {s:?}");
        }
    }

    #[test]
    fn parses_objects_arrays_numbers() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":true,"d":null},"e":"x"}"#).unwrap();
        assert_eq!(v.get("e").and_then(Value::as_str), Some("x"));
        let a = match v.get("a") {
            Some(Value::Array(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "123abc", "{} extra"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_escaped_strings() {
        let v = parse(r#"{"k":"a\"b\\c\/d\b\f\n\r\t","u":"Aé☃"}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some("a\"b\\c/d\u{8}\u{c}\n\r\t"));
        assert_eq!(v.get("u").and_then(Value::as_str), Some("Aé☃"));
        // Invalid escapes are rejected with a useful offset.
        for bad in [r#""\x""#, r#""\u12""#, r#""\u12zz""#, "\"\\\""] {
            let err = parse(bad).expect_err(bad);
            assert!(err.offset <= bad.len(), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_deeply_nested_objects_on_one_line() {
        let line = r#"{"a":{"b":{"c":{"d":[{"e":1},{"f":[2,3,{"g":"h"}]}]}},"tail":true}}"#;
        let v = parse(line).unwrap();
        let d =
            v.get("a").and_then(|x| x.get("b")).and_then(|x| x.get("c")).and_then(|x| x.get("d"));
        let items = match d {
            Some(Value::Array(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(items[0].get("e").and_then(Value::as_f64), Some(1.0));
        let f = match items[1].get("f") {
            Some(Value::Array(f)) => f,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(f[2].get("g").and_then(Value::as_str), Some("h"));
        assert_eq!(v.get("a").and_then(|x| x.get("tail")), Some(&Value::Bool(true)));
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let too_deep = format!("[{deepest}]");
        let err = parse(&too_deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Hostile lines: 100k openers, unterminated, as a socket might
        // deliver them. Each is a typed error, not a stack overflow.
        for hostile in ["[".repeat(100_000), r#"{"a":"#.repeat(100_000)] {
            let err = parse(&hostile).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        for bad in ["{} extra", "{\"a\":1}{\"b\":2}", "[1,2] ,", "true false", "1 2", "null,"] {
            let err = parse(bad).expect_err(bad);
            assert!(err.message.contains("trailing") || err.offset > 0, "{bad}: {err}");
        }
        // Leading/trailing whitespace alone is fine.
        assert!(parse("  {\"a\":1}  \n").is_ok());
    }

    #[test]
    fn number_formats_are_json_safe() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        // Integral floats print without an exponent and parse back.
        let n = number(1024.0);
        assert_eq!(parse(&n).unwrap().as_f64(), Some(1024.0));
    }
}
