//! Minimal JSON layer shared by report export and the `tn-server` API.
//!
//! The hermetic-build policy (DESIGN.md §6) keeps `serde` out of the
//! tree, so both directions are hand-rolled here:
//!
//! * **writing** — the `push_json_*` helpers append escaped fragments to
//!   a `String`; they started life in [`crate::report`] and moved here so
//!   the HTTP server and the report exporter share one escaping policy;
//! * **parsing** — [`parse`] is a recursive-descent parser producing the
//!   [`Json`] tree, used by the server to decode request bodies;
//! * **canonicalisation** — [`Json::to_canonical_string`] re-serialises a
//!   tree with object keys sorted and numbers in a fixed form, so two
//!   textually different but semantically identical requests map to the
//!   same cache key.
//!
//! Escaping covers *every* control character below `U+0020` (the common
//! ones as the two-character escapes `\n`, `\r`, `\t`, `\b`, `\f`; the
//! rest as `\u00XX`). Non-finite numbers have no JSON encoding and are
//! written as `null`; the parser consequently never produces a NaN or
//! infinity, which keeps round-trips total.

use std::fmt::{self, Write as _};

#[cfg(test)]
#[path = "json_oracle.rs"]
mod oracle;

/// Appends a JSON string literal (with escaping) to `out`. Runs of bytes
/// that need no escape are copied in one step; every escaped byte is
/// ASCII, so the run boundaries are always `char` boundaries.
pub fn push_json_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape.len() > 2 {
            // `\u00` takes the byte's two hex digits.
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends a JSON number in scientific notation (the report format);
/// non-finite values (e.g. an unbounded upper confidence limit) have no
/// JSON encoding and are emitted as `null`.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v:e}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Appends a JSON number in canonical form: integral values in the exact
/// `i64` range print without exponent or fraction, everything else falls
/// back to [`push_json_f64`]. `-0.0` canonicalises to `0`.
pub fn push_json_num(out: &mut String, v: f64) {
    // 2^53: above this, f64 no longer represents every integer, so the
    // integer rendering would suggest more precision than the value has.
    if v.is_finite() && v == v.trunc() && v.abs() <= 9.007_199_254_740_992e15 {
        write!(out, "{}", v as i64).expect("writing to a String cannot fail");
    } else {
        push_json_f64(out, v);
    }
}

/// A parsed JSON value.
///
/// Object member order is preserved as parsed; lookups are linear, which
/// is fine for the request-sized documents this crate handles. Numbers
/// are stored as `f64` — JSON has a single number type — so integers are
/// exact up to 2⁵³ (see [`Json::as_u64`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks a key up in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer: present only if
    /// this is a non-negative number with no fractional part within the
    /// exactly-representable range (≤ 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v)
                if *v >= 0.0 && v.trunc() == *v && *v <= 9.007_199_254_740_992e15 =>
            {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialises with object keys sorted lexicographically and numbers
    /// in canonical form — the cache-key representation: two requests
    /// that parse to the same tree always canonicalise to the same
    /// string, regardless of member order or number spelling.
    pub fn to_canonical_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true);
        out
    }

    fn write(&self, out: &mut String, canonical: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                if canonical {
                    push_json_num(out, *v);
                } else {
                    push_json_f64(out, *v);
                }
            }
            Json::Str(s) => push_json_str(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out, canonical);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                if canonical {
                    // Sorted member references; a stable sort keeps
                    // duplicate keys in document order, and the last of
                    // each run wins (what a map insert would keep).
                    let mut sorted: Vec<&(String, Json)> = members.iter().collect();
                    sorted.sort_by(|a, b| a.0.cmp(&b.0));
                    let mut first = true;
                    for (i, (k, v)) in sorted.iter().enumerate() {
                        if sorted.get(i + 1).is_some_and(|next| next.0 == *k) {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        push_json_str(out, k);
                        out.push(':');
                        v.write(out, canonical);
                    }
                } else {
                    for (i, (k, v)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        push_json_str(out, k);
                        out.push(':');
                        v.write(out, canonical);
                    }
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    /// Serialises in document order (numbers in the report's scientific
    /// notation); use [`Json::to_canonical_string`] for cache keys.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, false);
        f.write_str(&out)
    }
}

/// A parse failure: byte offset into the input plus a human-readable
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
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

/// Maximum container nesting the parser accepts; documents deeper than
/// this are hostile, not data.
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document (one value plus optional whitespace).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 64 levels"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
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
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    /// Decodes a string literal. Each run of plain bytes up to the next
    /// `"`, `\` or control byte is appended in one step: the stop bytes
    /// are ASCII, so every run ends on a `char` boundary of the input.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let b = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            other => {
                self.pos -= 1;
                return Err(self.error(format!("unknown escape `\\{}`", other as char)));
            }
        })
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        let code = if (0xd800..=0xdbff).contains(&first) {
            // High surrogate: must pair with a following \uDC00..\uDFFF.
            if self.peek() != Some(b'\\') {
                return Err(self.error("unpaired high surrogate"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.error("unpaired high surrogate"));
            }
            self.pos += 1;
            let second = self.hex4()?;
            if !(0xdc00..=0xdfff).contains(&second) {
                return Err(self.error("invalid low surrogate"));
            }
            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
        } else if (0xdc00..=0xdfff).contains(&first) {
            return Err(self.error("unpaired low surrogate"));
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.error("non-hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        let v: f64 = text
            .parse()
            .map_err(|_| self.error(format!("unparseable number `{text}`")))?;
        Ok(Json::Num(v))
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }
}

/// Serialises documents as JSONL: one canonical line per document, each
/// terminated by `\n`.
///
/// This framing is sound because [`push_json_str`] escapes *every*
/// control character below `0x20` — a string containing a raw newline is
/// written as `\n` (two bytes), so a canonical line can never span more
/// than one physical line.
pub fn to_jsonl(docs: &[Json]) -> String {
    let mut out = String::with_capacity(docs.len() * 64);
    for doc in docs {
        out.push_str(&doc.to_canonical_string());
        out.push('\n');
    }
    out
}

/// Parses JSONL text: one document per non-blank line.
///
/// Blank lines (empty or whitespace-only) are skipped, so snapshots
/// survive trailing newlines and hand edits. A malformed line fails the
/// whole parse with its 1-based line number in the error message.
pub fn parse_jsonl(input: &str) -> Result<Vec<Json>, JsonError> {
    let mut docs = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| JsonError {
            message: format!("line {}: {}", i + 1, e.message),
            offset: e.offset,
        })?;
        docs.push(doc);
    }
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adversarial documents for the JSONL round-trip: embedded
    /// newlines and carriage returns in strings (both as keys and as
    /// values), every other sub-0x20 control character, and deep-ish
    /// nesting — everything that could break line framing.
    fn adversarial_docs() -> Vec<Json> {
        let all_controls: String = (0u8..0x20).map(|b| b as char).collect();
        vec![
            Json::Object(vec![
                ("plain".into(), Json::Str("line one\nline two".into())),
                ("crlf".into(), Json::Str("a\r\nb".into())),
                ("key\nwith newline".into(), Json::Num(1.0)),
            ]),
            Json::Str(all_controls),
            Json::Array(vec![
                Json::Str("\n".into()),
                Json::Str("\u{85}\u{2028}\u{2029}".into()),
                Json::Null,
            ]),
            Json::Object(vec![(
                "nested".into(),
                Json::Array(vec![Json::Object(vec![(
                    "\t".into(),
                    Json::Str("\0".into()),
                )])]),
            )]),
            Json::Num(-0.0),
            Json::Bool(false),
        ]
    }

    #[test]
    fn jsonl_lines_never_contain_raw_newlines() {
        let text = to_jsonl(&adversarial_docs());
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines emitted");
            assert!(!line.contains('\r'), "no raw CR inside a line: {line:?}");
        }
        // One physical line per document, despite the embedded newlines.
        assert_eq!(text.lines().count(), adversarial_docs().len());
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn jsonl_round_trip_reaches_canonical_fixed_point() {
        let docs = adversarial_docs();
        let first = to_jsonl(&docs);
        let parsed = parse_jsonl(&first).expect("written JSONL parses");
        assert_eq!(parsed.len(), docs.len());
        // write -> parse -> write is the identity on the text: canonical
        // serialisation is a fixed point.
        let second = to_jsonl(&parsed);
        assert_eq!(first, second);
        // And the values survive semantically (keys get sorted by the
        // canonical form, so compare through a second parse).
        for (a, b) in parsed.iter().zip(&parse_jsonl(&second).unwrap()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn jsonl_skips_blank_lines_and_reports_bad_ones() {
        let text = "\n{\"a\":1}\n   \n\n\"two\"\n\t\n";
        let docs = parse_jsonl(text).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(docs[1].as_str(), Some("two"));
        assert_eq!(parse_jsonl("").unwrap(), Vec::new());

        let err = parse_jsonl("{\"ok\":true}\n{oops\n").unwrap_err();
        assert!(err.message.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-0.5e2").unwrap(), Json::Num(-50.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_containers() {
        let doc = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let a = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a[2].get("b").unwrap().is_null());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "}", "[1,]", "{\"a\":}", "{\"a\" 1}", "nul", "tru", "01",
            "1.", "1e", "+1", "\"\\x\"", "\"unterminated", "{\"a\":1} extra",
            "[\"\u{1}\"]", "\"\\ud800\"", "\"\\udc00 alone\"",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1f600}".into())
        );
    }

    #[test]
    fn every_control_char_round_trips() {
        // The satellite requirement: *all* chars < 0x20 escape and
        // re-parse to the original string, not just \n/\t/\"/\\.
        let original: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let mut encoded = String::new();
        push_json_str(&mut encoded, &original);
        assert!(
            !encoded.chars().any(|c| (c as u32) < 0x20),
            "no raw control characters may survive escaping: {encoded:?}"
        );
        assert_eq!(parse(&encoded).unwrap(), Json::Str(original));
    }

    #[test]
    fn writer_output_round_trips_through_the_parser() {
        for v in [0.0, -0.0, 1.0, 2.5e-10, 6.02e23, -17.25, 9.0e15] {
            let mut out = String::new();
            push_json_f64(&mut out, v);
            assert_eq!(parse(&out).unwrap(), Json::Num(v), "report form of {v}");
            let mut out = String::new();
            push_json_num(&mut out, v);
            assert_eq!(parse(&out).unwrap().as_f64(), Some(v), "canonical form of {v}");
        }
        for s in ["", "plain", "a\"b\\c\nd\u{1}e\u{8}f\u{c}g", "ünïcode \u{1f600}"] {
            let mut out = String::new();
            push_json_str(&mut out, s);
            assert_eq!(parse(&out).unwrap(), Json::Str(s.into()), "string {s:?}");
        }
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut out = String::new();
            push_json_f64(&mut out, v);
            assert_eq!(out, "null");
            let mut out = String::new();
            push_json_num(&mut out, v);
            assert_eq!(out, "null");
            // ... and therefore round-trip to Json::Null, never NaN.
            assert!(parse(&out).unwrap().is_null());
        }
    }

    #[test]
    fn canonicalisation_sorts_keys_and_normalises_numbers() {
        let a = parse(r#"{"z": 1e0, "a": {"y": 2.0, "x": 3}}"#).unwrap();
        let b = parse(r#"{"a":{"x":3.0,"y":2},"z":1}"#).unwrap();
        assert_eq!(a.to_canonical_string(), b.to_canonical_string());
        assert_eq!(a.to_canonical_string(), r#"{"a":{"x":3,"y":2},"z":1}"#);
    }

    #[test]
    fn display_preserves_document_order() {
        let doc = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(doc.to_string(), r#"{"z":1e0,"a":2e0}"#);
    }

    #[test]
    fn accessors_are_type_safe() {
        let doc = parse(r#"{"n": 7, "s": "x", "b": true, "f": 1.5, "neg": -1}"#).unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("f").and_then(Json::as_u64), None);
        assert_eq!(doc.get("neg").and_then(Json::as_u64), None);
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }

    /// The largest request body the server accepts (`tn_server`'s
    /// `MAX_BODY_BYTES`): the longest document a client can make the
    /// service parse.
    const MAX_BODY_BYTES: usize = 1024 * 1024;

    /// A generous wall-clock bound for one pass over a maximal body. A
    /// linear pass takes milliseconds even unoptimised; the quadratic
    /// string scan took ~25 s on one maximal string.
    const LINEAR_BOUND: std::time::Duration = std::time::Duration::from_secs(1);

    #[test]
    fn maximal_documents_parse_and_canonicalise_in_linear_time() {
        // One string filling the whole body (with multi-byte characters),
        // and 10⁵ short strings.
        let fill = "plain ascii, é, €, \u{1f600} ".repeat(MAX_BODY_BYTES / 40);
        let one = format!("\"{fill}\"");
        let many = format!("[{}]", vec!["\"ab\""; 100_000].join(","));
        for (name, text) in [("one string", &one), ("10^5 strings", &many)] {
            assert!(text.len() <= MAX_BODY_BYTES, "{name}: {} bytes", text.len());
            let started = std::time::Instant::now();
            let doc = parse(text).expect("valid document");
            let canonical = doc.to_canonical_string();
            let elapsed = started.elapsed();
            assert_eq!(&canonical, text, "{name}: already canonical");
            assert!(elapsed < LINEAR_BOUND, "{name}: {elapsed:?}");
        }
        assert_eq!(parse(&one).unwrap().as_str(), Some(fill.as_str()));
    }

    /// Numbers the writer and parser must treat exactly: signed zero,
    /// the edges of the exact-integer range (±2⁵³, and ±(2⁵³+2), the
    /// first even integers past it), subnormals and the top of the
    /// finite range.
    const SPECIAL_NUMBERS: [f64; 16] = [
        0.0,
        -0.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        -9_007_199_254_740_994.0,
        9_007_199_254_740_991.0,
        5e-324,
        -5e-324,
        1.0e-310,
        2.225_073_858_507_201e-308,
        1.7e308,
        -1.7e308,
        f64::MAX,
        0.1,
        -17.25,
    ];

    /// Random JSON trees and textual spellings of them, from one tn-rng
    /// stream.
    struct DocGen {
        rng: tn_rng::Rng,
    }

    impl DocGen {
        fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
            &items[self.rng.gen_range(0..items.len())]
        }

        fn char(&mut self) -> char {
            match self.rng.gen_range(0..8u32) {
                0 => char::from(self.rng.gen_range(0..0x20u8)),
                1 => *self.pick(&['"', '\\', '/', '\u{7f}']),
                2 => *self.pick(&[
                    'é',
                    'ß',
                    '€',
                    '\u{2028}',
                    '\u{ffff}',
                    '\u{1f600}',
                    '\u{10ffff}',
                ]),
                _ => char::from(self.rng.gen_range(0x20..0x7fu8)),
            }
        }

        fn string(&mut self) -> String {
            let len = self.rng.gen_range(0..12usize);
            (0..len).map(|_| self.char()).collect()
        }

        fn number(&mut self) -> f64 {
            match self.rng.gen_range(0..4u32) {
                0 => *self.pick(&SPECIAL_NUMBERS),
                1 => self.rng.gen_range(-1_000_000..1_000_000i64) as f64,
                2 => (self.rng.gen_f64() - 0.5) * 10f64.powi(self.rng.gen_range(-30..30i32)),
                _ => loop {
                    let v = f64::from_bits(self.rng.next_u64());
                    if v.is_finite() {
                        break v;
                    }
                },
            }
        }

        fn value(&mut self, depth: usize) -> Json {
            let kinds = if depth >= 4 { 4 } else { 6 };
            match self.rng.gen_range(0..kinds) {
                0 => Json::Null,
                1 => Json::Bool(self.rng.gen_bool(0.5)),
                2 => Json::Num(self.number()),
                3 => Json::Str(self.string()),
                4 => {
                    let len = self.rng.gen_range(0..5usize);
                    Json::Array((0..len).map(|_| self.value(depth + 1)).collect())
                }
                _ => {
                    // Keys from a small pool, so duplicates are common.
                    let len = self.rng.gen_range(0..7usize);
                    let members = (0..len)
                        .map(|_| {
                            let key = if self.rng.gen_bool(0.7) {
                                (*self.pick(&["a", "b", "id", "é", "\u{1}", ""])).to_string()
                            } else {
                                self.string()
                            };
                            (key, self.value(depth + 1))
                        })
                        .collect();
                    Json::Object(members)
                }
            }
        }

        fn ws(&mut self, out: &mut String) {
            while self.rng.gen_bool(0.2) {
                out.push(*self.pick(&[' ', '\t', '\n', '\r']));
            }
        }

        /// A JSON spelling of `c` inside a string literal: raw where
        /// allowed, otherwise (or at random) escaped — short escapes,
        /// `\u` in either hex case, surrogate pairs for astral chars.
        fn spell_char(&mut self, c: char, out: &mut String) {
            let must_escape = c == '"' || c == '\\' || (c as u32) < 0x20;
            if !must_escape && self.rng.gen_bool(0.7) {
                out.push(c);
                return;
            }
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            if let Some(esc) = short.filter(|_| self.rng.gen_bool(0.5)) {
                out.push_str(esc);
                return;
            }
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                if self.rng.gen_bool(0.5) {
                    out.push_str(&format!("\\u{unit:04x}"));
                } else {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }

        fn spell_number(&mut self, v: f64, out: &mut String) {
            let text = match self.rng.gen_range(0..4u32) {
                0 => format!("{v:e}"),
                1 => format!("{v:E}"),
                2 => format!("{v:?}"),
                _ => format!("{v}"),
            };
            out.push_str(&text);
        }

        fn spell(&mut self, doc: &Json, out: &mut String) {
            self.ws(out);
            match doc {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(v) => self.spell_number(*v, out),
                Json::Str(s) => self.spell_str(s, out),
                Json::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        self.spell(item, out);
                    }
                    self.ws(out);
                    out.push(']');
                }
                Json::Object(members) => {
                    out.push('{');
                    for (i, (k, v)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        self.ws(out);
                        self.spell_str(k, out);
                        self.ws(out);
                        out.push(':');
                        self.spell(v, out);
                    }
                    self.ws(out);
                    out.push('}');
                }
            }
            self.ws(out);
        }

        fn spell_str(&mut self, s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                self.spell_char(c, out);
            }
            out.push('"');
        }

        /// Damages a document: truncates it or splices in a fragment
        /// that is invalid somewhere (raw control bytes, bad or
        /// unpaired escapes, stray structure), at a random char boundary.
        fn damage(&mut self, text: &str) -> String {
            let bounds: Vec<usize> = (0..=text.len())
                .filter(|&i| text.is_char_boundary(i))
                .collect();
            let at = *self.pick(&bounds);
            if self.rng.gen_bool(0.25) {
                return text[..at].to_string();
            }
            let fragment = if self.rng.gen_bool(0.3) {
                char::from(self.rng.gen_range(0..0x20u8)).to_string()
            } else {
                (*self.pick(&[
                    "\"",
                    "\\",
                    "\\u",
                    "\\u12",
                    "\\ud83d",
                    "\\udc00",
                    "\\ud83d\\u0041",
                    "\\ud83d\\ude00",
                    "\\x",
                    "\\uzzzz",
                    ",",
                    "]",
                    "}",
                    ":",
                    "1e",
                    "-",
                    "01",
                    "tru",
                    "é",
                    "\u{1f600}",
                    " ",
                ]))
                .to_string()
            };
            format!("{}{fragment}{}", &text[..at], &text[at..])
        }
    }

    /// Parse results compared through `Debug`, so `-0.0` and `0.0` (equal
    /// under `PartialEq`) must match bit for bit too.
    fn parse_both(text: &str) -> (String, String) {
        (
            format!("{:?}", parse(text)),
            format!("{:?}", oracle::parse(text)),
        )
    }

    fn oracle_text(doc: &Json, canonical: bool) -> String {
        let mut out = String::new();
        oracle::write(doc, &mut out, canonical);
        out
    }

    #[test]
    fn parser_and_writer_match_the_reference_on_generated_documents() {
        let mut gen = DocGen {
            rng: tn_rng::Rng::seed_from_u64(0x15_0a1e).fork(1),
        };
        let (mut parsed_ok, mut parse_errors, mut duplicate_keys) = (0, 0, 0);
        let mut controls = [false; 0x20];
        let mut specials = [false; SPECIAL_NUMBERS.len()];
        let (mut multibyte, mut surrogate_pairs, mut unpaired_surrogates) = (0, 0, 0);
        for round in 0..1_000 {
            let doc = gen.value(0);
            let canonical = doc.to_canonical_string();
            assert_eq!(
                canonical,
                oracle_text(&doc, true),
                "round {round}: canonical {doc:?}"
            );
            assert_eq!(
                doc.to_string(),
                oracle_text(&doc, false),
                "round {round}: display"
            );
            multibyte += usize::from(canonical.bytes().any(|b| b >= 0x80));

            let mut text = String::new();
            gen.spell(&doc, &mut text);
            let damaged = gen.damage(&text);
            for candidate in [&text, &damaged] {
                let (new, reference) = parse_both(candidate);
                assert_eq!(new, reference, "round {round}: parse of {candidate:?}");
                match parse(candidate) {
                    Ok(reparsed) => {
                        parsed_ok += 1;
                        assert_eq!(
                            reparsed.to_canonical_string(),
                            oracle_text(&reparsed, true),
                            "round {round}: canonical of the parse of {candidate:?}"
                        );
                    }
                    Err(_) => parse_errors += 1,
                }
                surrogate_pairs +=
                    usize::from(candidate.to_ascii_lowercase().contains("\\ud83d\\ude00"));
                unpaired_surrogates += usize::from(
                    candidate.contains("\\udc00") || candidate.contains("\\ud83d\\u0041"),
                );
            }
            // `text` spells `doc` exactly.
            assert_eq!(
                format!("{:?}", parse(&text)),
                format!("{:?}", Ok::<_, JsonError>(doc.clone()))
            );

            let mut stack = vec![&doc];
            while let Some(node) = stack.pop() {
                match node {
                    Json::Num(v) => {
                        for (seen, special) in specials.iter_mut().zip(SPECIAL_NUMBERS) {
                            *seen |= v.to_bits() == special.to_bits();
                        }
                    }
                    Json::Str(s) => {
                        for b in s.bytes().filter(|b| *b < 0x20) {
                            controls[usize::from(b)] = true;
                        }
                    }
                    Json::Array(items) => stack.extend(items),
                    Json::Object(members) => {
                        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                        keys.sort_unstable();
                        duplicate_keys += usize::from(keys.windows(2).any(|w| w[0] == w[1]));
                        stack.extend(members.iter().map(|(_, v)| v));
                    }
                    _ => {}
                }
            }
        }
        // The loop must have exercised what it claims to.
        assert!(
            parsed_ok > 1_000 && parse_errors > 300,
            "{parsed_ok} ok, {parse_errors} errors"
        );
        assert!(
            duplicate_keys > 50,
            "{duplicate_keys} objects with duplicate keys"
        );
        assert!(
            controls.iter().all(|&c| c),
            "every control byte: {controls:?}"
        );
        assert!(
            specials.iter().all(|&s| s),
            "every special number: {specials:?}"
        );
        assert!(
            multibyte > 50,
            "{multibyte} documents with multi-byte UTF-8"
        );
        assert!(
            surrogate_pairs > 20 && unpaired_surrogates > 20,
            "{surrogate_pairs} / {unpaired_surrogates}"
        );
    }

    #[test]
    fn canonical_duplicate_keys_keep_the_last_value() {
        let doc = parse(r#"{"b":1,"a":2,"b":3,"a":{"z":0,"z":[]},"c":4}"#).unwrap();
        assert_eq!(doc.to_canonical_string(), r#"{"a":{"z":[]},"b":3,"c":4}"#);
        assert_eq!(doc.to_canonical_string(), oracle_text(&doc, true));
    }
}
