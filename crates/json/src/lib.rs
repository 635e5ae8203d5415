//! # dlbench-json
//!
//! A small, dependency-free JSON value type with a pretty writer and a
//! strict parser. The build environment has no reachable cargo
//! registry, so report serialization cannot rely on `serde_json`; this
//! crate covers exactly what the suite needs: serializing
//! [`ExperimentReport`](https://docs.rs)-shaped data and re-parsing it
//! in integration tests.
//!
//! The pretty writer mirrors `serde_json::to_string_pretty`: two-space
//! indentation and `": "` key separators, so downstream consumers (and
//! the suite's own golden assertions) see the familiar shape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup for objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation (serde_json pretty style).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => out.push_str(&write_number(*n)),
            JsonValue::String(s) => write_escaped(s, out),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// Indexing sugar mirroring `serde_json::Value`: `value["key"]`.
///
/// # Panics
///
/// Panics if the value is not an object containing `key` (matching the
/// strictness the integration tests want — a missing field is a bug).
impl std::ops::Index<&str> for JsonValue {
    type Output = JsonValue;

    fn index(&self, key: &str) -> &JsonValue {
        self.get(key).unwrap_or_else(|| panic!("no member `{key}` in {self:?}"))
    }
}

impl PartialEq<&str> for JsonValue {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<f64> for JsonValue {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

impl From<f32> for JsonValue {
    /// Widens through the shortest decimal representation so an `f32`
    /// like `99.22` serializes as `99.22`, not `99.22000122070312`.
    fn from(n: f32) -> Self {
        JsonValue::Number(format!("{n}").parse().unwrap_or(n as f64))
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Formats a finite number the way serde_json does (`1.0` stays `1.0`
/// via Rust's shortest-roundtrip float formatting; integers print bare).
fn write_number(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no non-finite literals; null matches serde_json's
        // lossy modes and keeps the output parseable.
        return "null".to_string();
    }
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion to a [`JsonValue`] tree (the writer-side trait reports
/// implement instead of `serde::Serialize`).
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> JsonValue;
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

/// Parse error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where parsing failed.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum object/array nesting depth the parser accepts.
///
/// The parser is recursive-descent, so each nesting level consumes
/// stack; without a cap a hostile document (`[[[[…`) overflows the
/// stack and aborts the whole process instead of returning an error.
/// Spec files are untrusted input, so the cap is a structured
/// [`ParseError`], far below any real document's depth.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// Beyond grammar errors, parsing rejects with a structured error:
/// * nesting deeper than [`MAX_DEPTH`] (stack-overflow bomb),
/// * non-finite number literals (`1e999` — JSON has no Inf/NaN, and a
///   silently saturated value would poison downstream arithmetic),
/// * duplicate object keys (previously last-key-wins, silently —
///   ambiguous input for spec files).
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting exceeds {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by the
                            // suite's writers; map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str,
                    // so boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n = text.parse::<f64>().map_err(|_| self.err(format!("invalid number `{text}`")))?;
        if !n.is_finite() {
            return Err(self.err(format!("non-finite number literal `{text}`")));
        }
        Ok(JsonValue::Number(n))
    }
}

/// Error from [`interpolate`]: an unknown variable, an unterminated
/// `${…` reference, or an empty variable name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpolateError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for InterpolateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpolation error: {}", self.message)
    }
}

impl std::error::Error for InterpolateError {}

/// Substitutes `${name}` references in a string through `lookup`.
///
/// `$${name}` escapes to the literal `${name}`. An unknown variable,
/// an empty name, or an unterminated `${` is an error — experiment
/// specs must fail loudly, not silently carry a `${typo}` into a cell
/// label. Returns `Ok(None)` when the string contains no references
/// (callers can keep the original allocation).
pub fn interpolate_str(
    s: &str,
    lookup: &dyn Fn(&str) -> Option<String>,
) -> Result<Option<String>, InterpolateError> {
    if !s.contains('$') {
        return Ok(None);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('$') {
        out.push_str(&rest[..i]);
        let tail = &rest[i..];
        if let Some(escaped) = tail.strip_prefix("$${") {
            // `$${name}` → literal `${name}`.
            let end = escaped.find('}').ok_or_else(|| InterpolateError {
                message: format!("unterminated `$${{` escape in `{s}`"),
            })?;
            out.push_str("${");
            out.push_str(&escaped[..=end]);
            rest = &escaped[end + 1..];
        } else if let Some(reference) = tail.strip_prefix("${") {
            let end = reference.find('}').ok_or_else(|| InterpolateError {
                message: format!("unterminated `${{` reference in `{s}`"),
            })?;
            let name = &reference[..end];
            if name.is_empty() {
                return Err(InterpolateError { message: format!("empty `${{}}` name in `{s}`") });
            }
            let value = lookup(name).ok_or_else(|| InterpolateError {
                message: format!("unknown variable `{name}` in `{s}`"),
            })?;
            out.push_str(&value);
            rest = &reference[end + 1..];
        } else {
            // A bare `$` with no brace is literal.
            out.push('$');
            rest = &tail[1..];
        }
    }
    out.push_str(rest);
    Ok(Some(out))
}

/// Recursively applies [`interpolate_str`] to every string in a value
/// tree — string scalars *and* object keys. Non-string scalars pass
/// through untouched.
pub fn interpolate(
    value: &JsonValue,
    lookup: &dyn Fn(&str) -> Option<String>,
) -> Result<JsonValue, InterpolateError> {
    Ok(match value {
        JsonValue::String(s) => match interpolate_str(s, lookup)? {
            Some(replaced) => JsonValue::String(replaced),
            None => value.clone(),
        },
        JsonValue::Array(items) => JsonValue::Array(
            items.iter().map(|v| interpolate(v, lookup)).collect::<Result<_, _>>()?,
        ),
        JsonValue::Object(members) => JsonValue::Object(
            members
                .iter()
                .map(|(k, v)| {
                    let key = interpolate_str(k, lookup)?.unwrap_or_else(|| k.clone());
                    Ok((key, interpolate(v, lookup)?))
                })
                .collect::<Result<_, _>>()?,
        ),
        other => other.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = JsonValue::Object(vec![
            ("id".into(), JsonValue::from("fig_1")),
            ("count".into(), JsonValue::from(3.0)),
            ("half".into(), JsonValue::from(0.5)),
            ("ok".into(), JsonValue::from(true)),
            ("nothing".into(), JsonValue::Null),
            (
                "rows".into(),
                JsonValue::Array(vec![JsonValue::from("a\"quote"), JsonValue::Number(-12.25)]),
            ),
            ("empty".into(), JsonValue::Array(vec![])),
        ]);
        let text = doc.pretty();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn pretty_uses_serde_json_layout() {
        let doc = JsonValue::Object(vec![("id".into(), JsonValue::from("x"))]);
        assert_eq!(doc.pretty(), "{\n  \"id\": \"x\"\n}");
    }

    #[test]
    fn index_and_eq_sugar() {
        let parsed = parse("{\"id\": \"table_i\", \"n\": 2}").unwrap();
        assert_eq!(parsed["id"], "table_i");
        assert_eq!(parsed["n"], 2.0);
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let parsed = parse("\"line\\nbreak \\u0041 caf\u{e9}\"").unwrap();
        assert_eq!(parsed.as_str(), Some("line\nbreak A café"));
    }

    #[test]
    fn integers_print_bare_and_floats_keep_fraction() {
        assert_eq!(write_number(3.0), "3");
        assert_eq!(write_number(68.51), "68.51");
        assert_eq!(write_number(f64::NAN), "null");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_bomb_returns_an_error_not_a_stack_overflow() {
        // Far beyond MAX_DEPTH: a recursive parser without a cap
        // aborts the process here instead of returning.
        for bomb in ["[".repeat(100_000), "{\"k\":".repeat(100_000)] {
            let err = parse(&bomb).unwrap_err();
            assert!(err.message.contains("nesting exceeds"), "{err}");
        }
        // Mixed nesting trips the same cap.
        let mixed: String = "[{\"k\":".repeat(50_000);
        assert!(parse(&mixed).unwrap_err().message.contains("nesting exceeds"));
    }

    #[test]
    fn nesting_inside_the_cap_parses() {
        let depth = MAX_DEPTH - 1;
        let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&doc).is_ok());
        let over = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
        // Depth is nesting, not sibling count: a wide flat array is fine.
        let wide = format!("[{}]", vec!["0"; 10_000].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn rejects_non_finite_number_literals() {
        let err = parse("1e999").unwrap_err();
        assert!(err.message.contains("non-finite"), "{err}");
        assert!(parse("[-1e999]").is_err());
        // Large-but-finite still parses.
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
    }

    #[test]
    fn rejects_duplicate_object_keys() {
        let err = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert!(err.message.contains("duplicate object key `a`"), "{err}");
        // Same key at different depths is fine.
        assert!(parse("{\"a\": {\"a\": 1}}").is_ok());
    }

    #[test]
    fn interpolates_variables_and_escapes() {
        let lookup = |name: &str| match name {
            "fw" => Some("caffe".to_string()),
            "ds" => Some("mnist".to_string()),
            _ => None,
        };
        assert_eq!(interpolate_str("no refs", &lookup).unwrap(), None);
        assert_eq!(
            interpolate_str("${fw} on ${ds}", &lookup).unwrap().as_deref(),
            Some("caffe on mnist")
        );
        assert_eq!(
            interpolate_str("$${fw} costs $5", &lookup).unwrap().as_deref(),
            Some("${fw} costs $5")
        );
        assert!(interpolate_str("${missing}", &lookup).unwrap_err().message.contains("missing"));
        assert!(interpolate_str("${", &lookup).is_err());
        assert!(interpolate_str("${}", &lookup).is_err());
    }

    #[test]
    fn interpolates_value_trees_including_keys() {
        let lookup = |name: &str| (name == "fw").then(|| "torch".to_string());
        let doc = parse("{\"${fw}_row\": [\"${fw}\", 1, true]}").unwrap();
        let out = interpolate(&doc, &lookup).unwrap();
        assert_eq!(out["torch_row"].as_array().unwrap()[0], "torch");
        assert!(interpolate(&parse("[\"${nope}\"]").unwrap(), &lookup).is_err());
    }
}
