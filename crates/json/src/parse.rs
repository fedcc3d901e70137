//! Strict recursive-descent JSON parser.

use crate::Value;

/// Maximum nesting depth; deeper documents are rejected rather than
/// risking a stack overflow on hostile input.
const MAX_DEPTH: usize = 128;

/// Errors from [`Value::parse`] and [`crate::FromJson`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed syntax at a byte offset.
    Syntax {
        /// Byte offset into the input where parsing failed.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A structurally valid document that doesn't fit the target type.
    Type {
        /// What the converting type expected.
        message: String,
    },
}

impl JsonError {
    /// A [`JsonError::Type`] with the given message (used by `FromJson`
    /// impls and the `json_struct!` macro).
    pub fn type_error(message: impl Into<String>) -> Self {
        JsonError::Type { message: message.into() }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::Type { message } => write!(f, "JSON type error: {message}"),
        }
    }
}

impl std::error::Error for JsonError {}

pub(crate) fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError::Syntax { offset: self.pos, message: message.into() }
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
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
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if !(self.eat(b'\\').is_ok() && self.eat(b'u').is_ok()) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("lone surrogate"))?
                            };
                            out.push(ch);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits")),
            };
            v = v << 4 | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[start + negative as usize] == b'0' {
            return Err(self.err("leading zero in number"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(if i == 0 { Value::UInt(0) } else { Value::Int(i) });
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("number out of range"))
    }

    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digits"));
        }
        Ok(self.pos - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::UInt(42));
        assert_eq!(parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(parse("-0").unwrap(), Value::UInt(0));
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("2e3").unwrap(), Value::Float(2000.0));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::UInt(u64::MAX));
        assert_eq!(parse(r#""hi""#).unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn integer_overflow_falls_back_to_float() {
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Value::Float(18446744073709551616.0)
        );
    }

    #[test]
    fn escapes_and_unicode() {
        assert_eq!(
            parse(r#""a\n\t\"\\\u0041""#).unwrap(),
            Value::Str("a\n\t\"\\A".into())
        );
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(parse("\"héllo\"").unwrap(), Value::Str("héllo".into()));
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a":[1,{"b":null},-2.5],"c":{}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].get("b"), Some(&Value::Null));
        assert_eq!(v.get("c").unwrap().as_object().unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "01", "1.", "+1", "nul", "\"abc", "\"\u{1}\"",
            "[1] trailing", "{'a':1}", "[1,]", "--1", "\"\\q\"", "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    /// Hostile text returns `Ok` or `Err`, never panics: random bytes
    /// drawn half from the JSON alphabet, truncations and one-byte
    /// mutations of valid documents (lossily decoded to `&str`).
    #[test]
    fn prop_parse_never_panics() {
        use sc_util::prop::{check, vec_of};
        let docs = [
            r#"{"a":[1,-2.5e3,true,null],"b":{"c":"x\u00e9\n"},"d":18446744073709551616}"#,
            r#"[{"k":"\ud83d\ude00"},0.0,-0,"",[[]],{}]"#,
        ];
        const ALPHABET: &[u8] = b"{}[],:\"\\u0123456789.eE+-truefalsenull ";
        let parse_bytes = |bytes: &[u8]| {
            let _ = Value::parse(&String::from_utf8_lossy(bytes));
        };
        check("json_parse_random_bytes", 512, |rng| {
            parse_bytes(&vec_of(rng, 0..512, |r| {
                if r.gen_bool(0.5) {
                    ALPHABET[r.gen_range(0..ALPHABET.len())]
                } else {
                    r.gen_range(0u8..=255)
                }
            }));
        });
        check("json_parse_truncations", 512, |rng| {
            for doc in docs {
                parse_bytes(&doc.as_bytes()[..rng.gen_range(0..doc.len() + 1)]);
            }
        });
        check("json_parse_one_byte_mutations", 512, |rng| {
            for doc in docs {
                let mut bytes = doc.as_bytes().to_vec();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0u8..=255);
                parse_bytes(&bytes);
            }
        });
    }
}
