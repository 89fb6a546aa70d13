//! Minimal JSON value model, writer and parser.
//!
//! The workspace is fully offline with zero external dependencies, so the
//! observability artifacts (`trace.jsonl`, `metrics.json`) are produced and
//! consumed by this hand-rolled module. It covers exactly the JSON subset
//! the artifacts use: objects (with insertion order preserved — object keys
//! in artifacts are either BTreeMap-sorted or schema-fixed, so order is
//! deterministic), arrays, strings, integers, floats, booleans and null.

use std::fmt::Write as _;

/// A JSON value. `Obj` keeps insertion order; callers that need sorted keys
/// insert them sorted (metric maps come from `BTreeMap`s).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers are kept distinct from floats so counters round-trip exactly.
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Render to a compact single-line string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_str(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Look up a key in an object; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric accessor: accepts both `Int` and `Num` (a float field whose
    /// value happens to be integral parses back as `Int`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Floats use Rust's shortest-roundtrip `Display`; JSON has no NaN/Inf, so
/// non-finite values degrade to `null` (they never occur in well-formed
/// artifacts, but a crash half-way through a metric update must not produce
/// an unparseable file).
fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let s = format!("{x}");
        // `Display` prints integral floats without a decimal point; keep the
        // JSON type unambiguous so readers don't reinterpret gauges as ints.
        let needs_point = !s.contains('.') && !s.contains('e') && !s.contains('E');
        out.push_str(&s);
        if needs_point {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Deepest nesting of arrays and objects [`parse_json`] accepts. The
/// deepest artifact the repo writes, `metrics.json`, nests 6 levels; trace,
/// ledger and Chrome-trace lines nest 4 or fewer. The parser recurses once
/// per level, so without this bound a line of nested brackets would
/// overflow the stack instead of returning an error.
const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document. Trailing non-whitespace, and arrays and
/// objects nested more than 64 levels deep, are errors.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
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

/// Parses one value nested inside `depth` open arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad float {text:?}: {e}"))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|e| format!("bad integer {text:?}: {e}"))
    }
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
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
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Artifacts never emit surrogate pairs; map lone
                        // surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Bulk-copy the run up to the next quote or escape. Multi-byte
                // UTF-8 scalars contain no `"`/`\` bytes (continuation bytes
                // are >= 0x80), so scanning bytewise never splits a scalar —
                // and validating only the chunk keeps large strings linear
                // instead of re-validating the whole tail per character.
                let start = *pos;
                while matches!(bytes.get(*pos), Some(b) if *b != b'"' && *b != b'\\') {
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(chunk);
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if !matches!(bytes.get(*pos), Some(b'"')) {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if !matches!(bytes.get(*pos), Some(b':')) {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-7", "1.5", "\"hi\""] {
            let v = parse_json(text).unwrap();
            assert_eq!(v.render(), text, "roundtrip of {text}");
        }
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(Json::Num(3.0).render(), "3.0");
        assert_eq!(Json::Num(-2.0).render(), "-2.0");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a":[1,2.5,{"b":"x\ny"}],"c":null}"#;
        let v = parse_json(text).unwrap();
        assert_eq!(v.render(), text);
    }

    #[test]
    fn string_escapes() {
        let v = Json::Str("a\"b\\c\nd\u{1}".into());
        let rendered = v.render();
        assert_eq!(rendered, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse_json(&rendered).unwrap(), v);
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(parse_json(r#""é""#).unwrap(), Json::Str("\u{e9}".into()));
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_with_its_offset() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&deepest).is_ok(), "{MAX_DEPTH} levels parse");
        let over = format!("{{\"a\":{deepest}}}");
        let err = format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            MAX_DEPTH + 4
        );
        assert_eq!(parse_json(&over), Err(err));
        // Deep enough to overflow the stack of an unbounded recursive parser.
        let err = format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}");
        assert_eq!(parse_json(&"[".repeat(200_000)), Err(err));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("\"open").is_err());
    }

    #[test]
    fn accessors() {
        let v = parse_json(r#"{"n":3,"x":1.5,"s":"t"}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(v.get("missing"), None);
    }
}
