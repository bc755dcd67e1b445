//! The hand-rolled JSON machinery behind every `netan.*` document
//! schema.
//!
//! The workspace builds fully offline (no serde), so documents are
//! rendered by hand and parsed back by the recursive-descent parser
//! here. Two properties make that round trip *byte-exact* for any
//! document our own sinks produced, which is what checkpoint
//! resume-equality and the service-protocol guarantees rest on:
//!
//! * renderers use Rust's shortest round-trip `f64` formatting and emit
//!   `null` for non-finite values ([`write_f64`]), and [`Json::as_f64`]
//!   reads `null` back as the NaN it was rendered from;
//! * [`Json::Num`] keeps the raw number token, so integers larger than
//!   an exact `f64` (a full-range `u64` seed) survive parsing.
//!
//! [`parse_lot_json`](crate::report::parse_lot_json) consumes this for
//! the `netan.lot.v4` family; the `netan-serve` job protocol
//! (`netan.job.v1`) reuses the same machinery for its request,
//! progress and result frames.
//!
//! Parsing never panics: every malformed input, nesting deeper than
//! [`MAX_DEPTH`] included, is a typed [`ReportParseError`] carrying the
//! byte offset where the parser stopped.

/// Error from parsing a `netan.*` JSON document: what went wrong and
/// the byte offset in the document where the parser detected it (0 for
/// document-level interpretation failures, e.g. a missing field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportParseError {
    /// Byte offset into the document text.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl ReportParseError {
    /// An error detected at byte `offset`.
    pub fn at(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }

    /// A document-level interpretation error (offset 0): the JSON was
    /// well-formed but did not mean what the schema requires.
    pub fn doc(message: impl Into<String>) -> Self {
        Self::at(0, message)
    }
}

impl std::fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "document invalid at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ReportParseError {}

/// A constructor's typed rejection of values a well-formed document
/// carries (an inverted mask point, a non-escalating stage list) is a
/// document-level interpretation error.
impl From<crate::NetanError> for ReportParseError {
    fn from(e: crate::NetanError) -> Self {
        Self::doc(e.to_string())
    }
}

/// A parsed JSON value. Numbers keep their raw token so integers larger
/// than an exact `f64` (e.g. a full-range `u64` seed) survive, and so
/// `f64` fields round-trip through `str::parse` — the exact inverse of
/// the shortest-round-trip formatting the renderers use.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` — the rendering of every non-finite number.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: fields in document order (duplicate keys keep the
    /// first occurrence when looked up via [`Json::field`]).
    Obj(Vec<(String, Json)>),
}

/// The deepest array/object nesting [`Json::parse`] accepts. Every
/// `netan.*` document nests fewer than 8 levels; the cap keeps the
/// recursive descent from overflowing the stack on hostile input.
pub const MAX_DEPTH: usize = 128;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn fail<T>(&self, message: impl Into<String>) -> Result<T, ReportParseError> {
        Err(ReportParseError::at(self.pos, message))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ReportParseError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(format!("expected {:?}", b as char))
        }
    }

    /// Parses one value nested inside `depth` open arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, ReportParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => {
                self.fail(format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.fail("expected a JSON value"),
        }
    }

    fn string(&mut self) -> Result<String, ReportParseError> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    self.pos += 4;
                                    c
                                }
                                None => return self.fail("bad \\u escape"),
                            }
                        }
                        _ => return self.fail("bad escape"),
                    };
                    s.push(esc);
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    s.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8. When the input came in as a
                    // `&str` the sequence is valid by construction;
                    // still, a torn sequence is a typed error, not a
                    // panic.
                    match std::str::from_utf8(&self.bytes[self.pos..])
                        .ok()
                        .and_then(|rest| rest.chars().next())
                    {
                        Some(c) => {
                            s.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return self.fail("invalid UTF-8 in string"),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ReportParseError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // The accepted byte set is pure ASCII, so the token is always
        // valid UTF-8; a failure here is still a typed error.
        let Ok(token) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return Err(ReportParseError::at(start, "non-ASCII number token"));
        };
        if token.parse::<f64>().is_err() {
            return Err(ReportParseError::at(start, format!("bad number {token:?}")));
        }
        Ok(Json::Num(token.to_string()))
    }

    fn array(&mut self, depth: usize) -> Result<Json, ReportParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            self.expect_byte(b',')?;
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ReportParseError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(fields));
            }
            self.expect_byte(b',')?;
        }
    }
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace
    /// content is an error.
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] on malformed JSON, with the byte offset
    /// where the parser stopped. Never panics, whatever the input.
    pub fn parse(text: &str) -> Result<Json, ReportParseError> {
        let mut parser = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let doc = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return parser.fail("trailing content after the document");
        }
        Ok(doc)
    }

    /// Looks up a required object field.
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] if `self` is not an object or lacks `key`.
    pub fn field(&self, key: &str) -> Result<&Json, ReportParseError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| ReportParseError::doc(format!("missing field {key:?}"))),
            _ => Err(ReportParseError::doc(format!(
                "expected an object with field {key:?}"
            ))),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] if the value is not an array.
    pub fn as_arr(&self) -> Result<&[Json], ReportParseError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(ReportParseError::doc("expected an array")),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] if the value is not a string.
    pub fn as_str(&self) -> Result<&str, ReportParseError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(ReportParseError::doc("expected a string")),
        }
    }

    /// The value as a boolean.
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] if the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, ReportParseError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(ReportParseError::doc("expected a boolean")),
        }
    }

    /// A number as `f64`; `null` reads back as the NaN it was rendered
    /// from (the renderers emit `null` for every non-finite value).
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] if the value is neither a number nor `null`.
    pub fn as_f64(&self) -> Result<f64, ReportParseError> {
        match self {
            Json::Null => Ok(f64::NAN),
            Json::Num(token) => token
                .parse()
                .map_err(|_| ReportParseError::doc(format!("bad number {token:?}"))),
            _ => Err(ReportParseError::doc("expected a number or null")),
        }
    }

    /// A number as any `FromStr` integer type; `what` names the field
    /// in the error message.
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] if the value is not a number token parsing
    /// cleanly as `T`.
    pub fn as_int<T: std::str::FromStr>(&self, what: &str) -> Result<T, ReportParseError> {
        match self {
            Json::Num(token) => token
                .parse()
                .map_err(|_| ReportParseError::doc(format!("bad {what}: {token}"))),
            _ => Err(ReportParseError::doc(format!("expected an integer {what}"))),
        }
    }
}

/// Appends `v` in the canonical `netan.*` number rendering: Rust's
/// shortest round-trip `f64` formatting, `null` for non-finite values.
pub fn write_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string with canonical escaping
/// (`\"`, `\\`, `\n`, `\r`, `\t`, `\u00XX` for the remaining control
/// bytes) — the inverse of the parser's unescaping, so a rendered
/// string re-renders byte-identically after a parse round trip.
pub fn write_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
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
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(
            Json::parse("-1.5e3").unwrap(),
            Json::Num(String::from("-1.5e3"))
        );
        let doc = Json::parse(r#"{"a":[1,2],"b":"x"}"#).unwrap();
        assert_eq!(doc.field("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.field("b").unwrap().as_str().unwrap(), "x");
        assert!(doc.field("c").is_err());
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for bad in ["", "{", "[1,", "\"unterminated", "{\"k\" 1}", "1 2", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Json::parse("[1,@]").unwrap_err();
        assert_eq!(err.offset, 3);
        assert!(err.to_string().contains("byte 3"));
    }

    #[test]
    fn nesting_beyond_the_cap_is_a_typed_error() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut rendered = String::new();
        let original = "a\"b\\c\nd\te\u{1}f — ünïcode";
        write_str(&mut rendered, original);
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.as_str().unwrap(), original);
        // Canonical escaping: render(parse(render(x))) == render(x).
        let mut again = String::new();
        write_str(&mut again, parsed.as_str().unwrap());
        assert_eq!(again, rendered);
    }

    #[test]
    fn numbers_keep_their_raw_token() {
        // u64::MAX is not exactly representable as f64; the raw token
        // must survive so integer fields round-trip.
        let doc = Json::parse("18446744073709551615").unwrap();
        assert_eq!(doc.as_int::<u64>("seed").unwrap(), u64::MAX);
    }

    #[test]
    fn null_reads_back_as_nan() {
        assert!(Json::parse("null").unwrap().as_f64().unwrap().is_nan());
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }
}
