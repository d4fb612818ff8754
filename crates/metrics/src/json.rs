//! Minimal JSON document model: build, render, parse.
//!
//! The workspace carries no serialization dependency, so the sweep runner's
//! `--json` output goes through this hand-rolled module instead. Two design
//! points matter for the experiment pipeline:
//!
//! * **Deterministic rendering** — object members keep insertion order and
//!   floats use Rust's shortest-roundtrip `Display`, so the same results
//!   always serialize to the same bytes (the sweep determinism tests compare
//!   emitted documents bitwise).
//! * **Non-finite floats become `null`** — JSON has no NaN/∞; a metric that
//!   produced no samples serializes as `null` rather than poisoning the
//!   document.
//!
//! The parser accepts standard JSON (objects, arrays, strings with the
//! common escapes, numbers, booleans, null) and exists so tests and tools
//! can validate emitted documents without external dependencies.

use std::fmt;

/// A JSON value. Objects preserve member insertion order.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`; non-finite renders as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a member; builder-style.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Adds (or replaces) a member in place. Panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(members) => {
                let value = value.into();
                match members.iter_mut().find(|(k, _)| k == key) {
                    Some((_, v)) => *v = value,
                    None => members.push((key.to_string(), value)),
                }
            }
            other => panic!("set {key:?} on non-object {other:?}"),
        }
    }

    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Two-space-indented multi-line rendering (for humans and git diffs).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Integral values render without a fractional part so counts stay
        // readable as integers to downstream tools.
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn write_str(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
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
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Parses a JSON document. Errors carry a byte offset and a short message.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // The run up to the next quote or escape: both are ASCII,
                // so it ends on a char boundary of the &str input.
                let mut runs = bytes[*pos..].split(|&b| b == b'"' || b == b'\\');
                let run = std::str::from_utf8(runs.next().unwrap_or_default());
                let run = run.map_err(|_| "invalid UTF-8 in string")?;
                out.push_str(run);
                *pos += run.len();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_render() {
        let doc = Json::obj()
            .with("name", "fig4")
            .with("seed", 404u64)
            .with("ok", true)
            .with("items", vec![Json::Num(1.5), Json::Null]);
        assert_eq!(
            doc.render(),
            r#"{"name":"fig4","seed":404,"ok":true,"items":[1.5,null]}"#
        );
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let doc = Json::obj()
            .with("mean", 1.23456789)
            .with("counts", vec![Json::Num(3.0), Json::Num(4.0)])
            .with("label", "a \"quoted\"\nstring");
        let parsed = parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        let pretty = parse(&doc.render_pretty()).unwrap();
        assert_eq!(pretty, doc);
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let doc = parse(r#" { "a" : [ 1 , 2.5e1 , -3 ] , "b" : { } , "c": "A" } "#).unwrap();
        assert_eq!(
            doc.get("a").unwrap().items().unwrap()[1].as_f64(),
            Some(25.0)
        );
        assert_eq!(doc.get("c").unwrap().as_str(), Some("A"));
        let text = parse(r#""→ é\"x\n""#).unwrap();
        assert_eq!(text.as_str(), Some("→ é\"x\n"));
    }

    #[test]
    fn set_replaces_existing_member() {
        let mut doc = Json::obj().with("x", 1u64);
        doc.set("x", 2u64);
        assert_eq!(doc.render(), r#"{"x":2}"#);
    }
}
