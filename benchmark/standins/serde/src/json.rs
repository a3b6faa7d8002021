//! The JSON reader and string writer behind the stand-in traits.

use std::fmt;

/// A JSON syntax or data error, with the byte offset where it was seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    offset: Option<usize>,
}

impl Error {
    pub fn message(message: String) -> Self {
        Error {
            message,
            offset: None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} at byte {}", self.message, offset),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for Error {}

/// Append `text` as a JSON string literal (the escapes `serde_json`
/// emits: `\" \\ \b \f \n \r \t`, other control bytes as `\u00XX`).
pub fn write_string(text: &str, out: &mut String) {
    out.push('"');
    let mut plain_from = 0;
    for (i, byte) in text.bytes().enumerate() {
        let escape: Option<&str> = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.push_str(&text[plain_from..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                use fmt::Write;
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        plain_from = i + 1;
    }
    out.push_str(&text[plain_from..]);
    out.push('"');
}

/// A pull parser over JSON text.
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    pub fn new(text: &'a str) -> Self {
        Parser { text, pos: 0 }
    }

    pub fn error(&self, message: String) -> Error {
        Error {
            message,
            offset: Some(self.pos),
        }
    }

    pub fn byte_offset(&self) -> usize {
        self.pos
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        self.skip_ws();
        if self.text[self.pos..].starts_with(literal) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    /// Whether only whitespace remains.
    pub fn at_end(&mut self) -> bool {
        self.peek().is_none()
    }

    /// Consume `null` if it is next.
    pub fn parse_null(&mut self) -> Result<bool, Error> {
        Ok(self.eat_literal("null"))
    }

    pub fn parse_bool(&mut self) -> Result<bool, Error> {
        if self.eat_literal("true") {
            Ok(true)
        } else if self.eat_literal("false") {
            Ok(false)
        } else {
            Err(self.error("expected a boolean".into()))
        }
    }

    /// The text of the number that is next.
    pub fn number_text(&mut self) -> Result<&'a str, Error> {
        self.skip_ws();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        while matches!(
            bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected a number".into()));
        }
        Ok(&self.text[start..self.pos])
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape".into()))?;
        let code =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape".into()))?;
        self.pos += 4;
        Ok(code)
    }

    pub fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        let mut plain_from = self.pos;
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.error("unterminated string".into())),
                Some(b'"') => {
                    out.push_str(&self.text[plain_from..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[plain_from..self.pos]);
                    self.pos += 1;
                    let escape = *bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape".into()))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code)
                                && self.text[self.pos..].starts_with("\\u")
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                code = 0x10000
                                    + ((code - 0xD800) << 10)
                                    + (low.wrapping_sub(0xDC00) & 0x3FF);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point".into()))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape".into())),
                    }
                    plain_from = self.pos;
                }
                Some(0x00..=0x1f) => return Err(self.error("control character in string".into())),
                Some(_) => self.pos += 1,
            }
        }
    }

    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.expect(b'{')
    }

    /// The next key of the object being read (its `:` consumed), or
    /// `None` once the closing brace has been consumed.
    pub fn next_key(&mut self, first: &mut bool) -> Result<Option<String>, Error> {
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(None);
        }
        if !*first {
            self.expect(b',')?;
        }
        *first = false;
        let key = self.parse_string()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.expect(b'[')
    }

    /// Whether another element follows in the array being read; the
    /// closing bracket is consumed when none does.
    pub fn next_element(&mut self, first: &mut bool) -> Result<bool, Error> {
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(false);
        }
        if !*first {
            self.expect(b',')?;
        }
        *first = false;
        Ok(true)
    }

    /// Skip one value of any type.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.parse_string().map(drop),
            Some(b'{') => {
                self.begin_object()?;
                let mut first = true;
                while self.next_key(&mut first)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut first = true;
                while self.next_element(&mut first)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b't' | b'f') => self.parse_bool().map(drop),
            Some(b'n') => {
                if self.parse_null()? {
                    Ok(())
                } else {
                    Err(self.error("expected `null`".into()))
                }
            }
            Some(_) => self.number_text().map(drop),
            None => Err(self.error("unexpected end of input".into())),
        }
    }
}
