//! A minimal, byte-stable JSON value tree, renderer and parser.
//!
//! The golden-file regression layer compares serialized campaign results
//! *byte for byte* between runs and between thread counts, so the writer
//! must be deterministic down to the last character:
//!
//! - objects keep their insertion order (no hash-map reordering),
//! - floats render with Rust's shortest-round-trip formatting (`{:?}`),
//!   which is a pure function of the bit pattern,
//! - non-finite floats render as `null` (JSON has no NaN/Infinity),
//! - no locale, no platform-dependent whitespace.
//!
//! [`Json::parse`] is the matching reader: it accepts RFC 8259 documents
//! (the serving layer's request protocol) and round-trips the renderer —
//! `parse(render(v)) == v` for every finite tree, which
//! `crates/campaign/tests/json_roundtrip.rs` pins as a property.
//! [`Json::canonicalize`] produces the ordered-key form the serving
//! layer's content-addressed result cache hashes, and
//! [`Json::render_canonical`] renders that form in one pass without
//! building it.

use std::fmt::Write as _;

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer (rendered without a decimal point).
    Int(i64),
    /// Float (shortest-round-trip decimal; non-finite renders as `null`).
    Float(f64),
    /// String (escaped per RFC 8259).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with newlines and `indent`-space indentation — the format
    /// used for golden fixtures, where reviewable diffs matter.
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let pad = |out: &mut String, level: usize| {
            if let Some(w) = indent {
                out.push('\n');
                for _ in 0..w * level {
                    out.push(' ');
                }
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    pad(out, depth);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (k, (key, value)) in pairs.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    pad(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// A syntax error produced by [`Json::parse`], pointing at the byte
/// offset where parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// 0-based byte offset of the offending input position.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Maximum container nesting [`Json::parse`] accepts. The serving layer
/// feeds the parser untrusted request lines; a fixed depth cap turns a
/// deeply-nested bomb into a typed error instead of a stack overflow.
pub const MAX_PARSE_DEPTH: usize = 128;

impl Json {
    /// Parses an RFC 8259 JSON document.
    ///
    /// Numbers without a fraction, exponent or overflow parse as
    /// [`Json::Int`]; everything else numeric parses as [`Json::Float`].
    /// Object keys keep their document order (duplicates included), so
    /// rendering the result reproduces the writer's byte-stable form:
    /// `parse(render(v)) == v` for every tree with finite floats.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] carrying the byte offset of the first
    /// syntax error, trailing garbage, or a container nested deeper than
    /// [`MAX_PARSE_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// The canonical form of this value: every object's keys sorted
    /// (bytewise ascending, later duplicates dropped), recursively.
    ///
    /// Rendering the canonical form compactly gives the cache key string
    /// the serving layer hashes: two requests that differ only in key
    /// order or duplicate keys address the same cache entry.
    #[must_use]
    pub fn canonicalize(&self) -> Json {
        match self {
            Json::Array(items) => Json::Array(items.iter().map(Json::canonicalize).collect()),
            Json::Object(pairs) => {
                let mut sorted: Vec<(String, Json)> = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let canon = v.canonicalize();
                    match sorted.binary_search_by(|(sk, _)| sk.as_str().cmp(k)) {
                        // Later duplicates win, matching the common
                        // last-key-wins object semantics.
                        Ok(i) => sorted[i].1 = canon,
                        Err(i) => sorted.insert(i, (k.clone(), canon)),
                    }
                }
                Json::Object(sorted)
            }
            other => other.clone(),
        }
    }

    /// Renders the canonical form compactly, byte for byte
    /// `self.canonicalize().render()`, in one pass over the borrowed tree:
    /// each object's members are sorted by reference, a later duplicate
    /// key wins, and strings escape straight into the output. Top-level
    /// members named `omit` are left out (nested ones are kept).
    pub fn render_canonical(&self, omit: Option<&str>) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out, omit);
        out
    }

    fn write_canonical(&self, out: &mut String, omit: Option<&str>) {
        match self {
            Json::Array(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out, None);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                let mut sorted: Vec<&(String, Json)> = pairs
                    .iter()
                    .filter(|(k, _)| Some(k.as_str()) != omit)
                    .collect();
                // Stable: duplicates keep their document order, so the
                // last of each run of equal keys is the one that counts.
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                out.push('{');
                let mut first = true;
                for (i, (key, value)) in sorted.iter().enumerate() {
                    if sorted.get(i + 1).is_some_and(|next| next.0 == *key) {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    write_escaped(out, key);
                    out.push(':');
                    value.write_canonical(out, None);
                }
                out.push('}');
            }
            scalar => scalar.write(out, None, 0),
        }
    }

    /// Looks up a key in an object. With duplicate keys the last
    /// occurrence wins, as in [`Json::canonicalize`], so a reader sees the
    /// member the canonical form keeps. `None` when the value is not an
    /// object or lacks the key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable twin of [`Json::get`] (last occurrence).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Object(pairs) => pairs
                .iter_mut()
                .rev()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The integer payload, when this is a [`Json::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload as `f64` ([`Json::Int`] or [`Json::Float`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }
}

/// Recursive-descent parser state over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
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
            Err(self.err(format!("expected {:?}", char::from(b))))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_PARSE_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", char::from(c)))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                                // Surrogate pair: a \uXXXX low half must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("invalid escape \\{}", char::from(other))))
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // boundaries are already valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| (b & 0xc0) == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits after \\u"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Err(self.err("expected a digit"));
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(self.err("expected a digit after '.'"));
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(self.err("expected a digit in exponent"));
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans ascii bytes");
        if integral {
            // Integers wider than i64 fall back to the float
            // representation rather than erroring.
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(format!("malformed number {text:?}")))?;
        Ok(Json::Float(v))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}
impl From<u8> for Json {
    fn from(v: u8) -> Json {
        Json::Int(i64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Writes `s` as a quoted RFC 8259 string, copying each run of bytes
/// that needs no escape in one piece.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // Only ASCII bytes need an escape, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_matches_expectation() {
        let v = Json::obj([
            ("a", Json::Int(1)),
            ("b", Json::Array(vec![Json::Float(0.5), Json::Null])),
            ("c", Json::from("x\"y")),
        ]);
        assert_eq!(v.render(), r#"{"a":1,"b":[0.5,null],"c":"x\"y"}"#);
    }

    #[test]
    fn floats_render_shortest_roundtrip() {
        assert_eq!(Json::Float(1.0).render(), "1.0");
        assert_eq!(Json::Float(0.1).render(), "0.1");
        assert_eq!(Json::Float(-0.0).render(), "-0.0");
        assert_eq!(Json::Float(1e-9).render(), "1e-9");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn pretty_rendering_is_stable_and_parsable_shape() {
        let v = Json::obj([("k", Json::Array(vec![Json::Int(1), Json::Int(2)]))]);
        let pretty = v.render_pretty(2);
        assert_eq!(pretty, "{\n  \"k\": [\n    1,\n    2\n  ]\n}\n");
    }

    #[test]
    fn empty_containers_render_tight() {
        assert_eq!(Json::Array(vec![]).render_pretty(2), "[]\n");
        assert_eq!(Json::Object(vec![]).render(), "{}");
    }

    #[test]
    fn control_characters_escape() {
        assert_eq!(Json::from("a\u{1}b\tc").render(), "\"a\\u0001b\\tc\"");
    }

    #[test]
    fn object_order_is_insertion_order() {
        let v = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Float(0.5));
        assert_eq!(Json::parse("1e-9").unwrap(), Json::Float(1e-9));
        assert_eq!(Json::parse("-0.0").unwrap(), Json::Float(-0.0));
        assert_eq!(Json::parse(r#""x\"y""#).unwrap(), Json::from("x\"y"));
    }

    #[test]
    fn parse_nested_structures_and_whitespace() {
        let v = Json::parse("{\n  \"a\": [1, 2.5, null],\n  \"b\": {\"c\": \"d\"}\n}").unwrap();
        assert_eq!(
            v,
            Json::obj([
                (
                    "a",
                    Json::Array(vec![Json::Int(1), Json::Float(2.5), Json::Null])
                ),
                ("b", Json::obj([("c", Json::from("d"))])),
            ])
        );
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            Json::parse(r#""a\u0001b\tc\n\r\b\f\/\\""#).unwrap(),
            Json::from("a\u{1}b\tc\n\r\u{8}\u{c}/\\")
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::from("\u{1f600}")
        );
        // Non-ascii passes through unescaped.
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::from("héllo"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "nulll",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\"1}",
            "01x",
            "1.",
            "1e",
            "\"\\q\"",
            "\"\u{1}\"",
            "\"unterminated",
            "[1] tail",
            r#""\ud83d""#,
            r#""\ud83d\u0020""#,
            "--1",
            "+1",
            ".5",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_reports_error_offsets() {
        let e = Json::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"), "{e}");
    }

    #[test]
    fn parse_enforces_depth_cap() {
        let deep = "[".repeat(MAX_PARSE_DEPTH + 2) + &"]".repeat(MAX_PARSE_DEPTH + 2);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        let ok = "[".repeat(MAX_PARSE_DEPTH) + &"]".repeat(MAX_PARSE_DEPTH);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn parse_keeps_duplicate_keys_in_order() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.render(), r#"{"a":1,"a":2}"#);
    }

    #[test]
    fn oversized_integers_fall_back_to_float() {
        let v = Json::parse("99999999999999999999").unwrap();
        assert_eq!(v, Json::Float(1e20));
        assert_eq!(
            Json::parse(&i64::MAX.to_string()).unwrap(),
            Json::Int(i64::MAX)
        );
        assert_eq!(
            Json::parse(&i64::MIN.to_string()).unwrap(),
            Json::Int(i64::MIN)
        );
    }

    #[test]
    fn canonicalize_sorts_keys_recursively_and_dedups() {
        let v = Json::parse(r#"{"z":{"b":1,"a":2},"a":[{"y":0,"x":1}],"z":3}"#).unwrap();
        assert_eq!(v.canonicalize().render(), r#"{"a":[{"x":1,"y":0}],"z":3}"#);
        assert_eq!(v.render_canonical(None), v.canonicalize().render());
        // Canonicalization is idempotent.
        assert_eq!(v.canonicalize().canonicalize(), v.canonicalize());
    }

    #[test]
    fn duplicate_keys_read_last_wins() {
        let mut v = Json::parse(r#"{"k":1,"j":0,"k":2}"#).unwrap();
        assert_eq!(v.get("k"), Some(&Json::Int(2)));
        assert_eq!(v.canonicalize().get("k"), v.get("k"));
        *v.get_mut("k").unwrap() = Json::Int(3);
        assert_eq!(v.render(), r#"{"k":1,"j":0,"k":3}"#);
        assert_eq!(Json::Null.get_mut("k"), None);
    }

    #[test]
    fn accessors_read_objects() {
        let v = Json::parse(r#"{"k":"s","n":3,"f":0.5}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some("s"));
        assert_eq!(v.get("n").and_then(Json::as_int), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn render_parse_round_trips_the_escape_corpus() {
        for v in [
            Json::from("a\u{1}b\tc"),
            Json::from("x\"y\\z"),
            Json::from("line\nbreak\rtab\t"),
            Json::obj([("k", Json::Array(vec![Json::Int(1), Json::Int(2)]))]),
            Json::Array(vec![]),
            Json::Object(vec![]),
            Json::Float(1e-9),
            Json::Float(-0.0),
        ] {
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{}", v.render());
            assert_eq!(Json::parse(&v.render_pretty(2)).unwrap(), v);
        }
    }
}
