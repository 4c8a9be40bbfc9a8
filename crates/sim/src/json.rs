//! Minimal zero-dependency JSON support for the machine-readable results
//! layer.
//!
//! The workspace is deliberately hermetic (no external crates), so this
//! module provides the small slice of JSON the experiment drivers need:
//!
//! * a [`Json`] value type with **insertion-ordered** object keys, so
//!   serialized output is deterministic and diffs are stable;
//! * a pretty serializer ([`Json::to_pretty`]) whose float formatting is
//!   Rust's shortest round-trip `Display` (deterministic across platforms;
//!   non-finite floats serialize as `null`);
//! * a strict recursive-descent parser ([`parse`]) used by the `json_check`
//!   validator and the round-trip tests.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (serialized without a decimal point).
    Int(i64),
    /// An unsigned integer (serialized without a decimal point).
    UInt(u64),
    /// A float; non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Starts an object builder.
    pub fn obj() -> ObjBuilder {
        ObjBuilder(Vec::new())
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (Int/UInt/Float) as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned-integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes compactly with object keys **sorted** (recursively).
    ///
    /// This is the canonical form the content-addressed run cache digests
    /// ([`crate::digest`]): two values differing only in field insertion
    /// order canonicalize to identical bytes. [`Json::to_pretty`], in
    /// contrast, preserves insertion order for human-facing output.
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                let mut sorted: Vec<&(String, Json)> = fields.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                out.push('{');
                for (i, (k, v)) in sorted.into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_canonical(out);
                }
                out.push('}');
            }
        }
    }

    /// Appends the [`Json::to_pretty`] form of `self` as a value nested
    /// `indent` levels deep, without the trailing newline, so a writer can
    /// stream a large document one element at a time.
    pub(crate) fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Builder for insertion-ordered objects: `Json::obj().field("a", 1).build()`.
pub struct ObjBuilder(Vec<(String, Json)>);

impl ObjBuilder {
    /// Appends a field.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> ObjBuilder {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Appends a field only when `value` is `Some`.
    pub fn field_opt(self, key: &str, value: Option<impl Into<Json>>) -> ObjBuilder {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.0)
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
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
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
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes a float using Rust's shortest round-trip `Display`. Integral
/// values gain a `.0` suffix so they parse back as floats; non-finite
/// values become `null` (JSON has no NaN/inf).
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Parses a JSON document. Strict: rejects trailing garbage, trailing
/// commas, and unescaped control characters. Numbers parse as `Int`/`UInt`
/// when they have no fraction or exponent, `Float` otherwise.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogates are not produced by our serializer;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                b if b < 0x20 => {
                    return Err(format!("raw control byte {b:#x} in string"));
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multibyte: walk back one byte and decode the full
                    // char. Validate at most 4 bytes — validating the whole
                    // remaining input here would make parsing quadratic.
                    self.pos -= 1;
                    let end = (self.pos + 4).min(self.bytes.len());
                    let window = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(window) {
                        Ok(s) => s,
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&window[..e.valid_up_to()]).expect("validated")
                        }
                        Err(e) => return Err(format!("invalid UTF-8 in string: {e}")),
                    };
                    let c = valid.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_deterministically_in_insertion_order() {
        let v = Json::obj()
            .field("b", 1u64)
            .field("a", 2u64)
            .field("nested", Json::obj().field("x", 1.5).build())
            .field("arr", vec![Json::from(true), Json::Null])
            .build();
        let expected = "{\n  \"b\": 1,\n  \"a\": 2,\n  \"nested\": {\n    \"x\": 1.5\n  },\n  \"arr\": [\n    true,\n    null\n  ]\n}\n";
        assert_eq!(v.to_pretty(), expected);
        // Serialization is a pure function of the value.
        assert_eq!(v.to_pretty(), v.to_pretty());
    }

    #[test]
    fn floats_round_trip_and_nonfinite_becomes_null() {
        let v = Json::Arr(vec![
            Json::Float(0.1),
            Json::Float(3.0),
            Json::Float(1e-9),
            Json::Float(f64::NAN),
            Json::Float(f64::INFINITY),
        ]);
        let text = v.to_pretty();
        assert!(text.contains("0.1"));
        assert!(text.contains("3.0"), "integral floats keep a .0: {text}");
        // Rust's shortest-roundtrip Display never uses exponent notation,
        // so tiny magnitudes serialize as plain decimals.
        assert!(text.contains("0.000000001"), "{text}");
        let back = parse(&text).unwrap();
        let arr = back.as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(0.1));
        assert_eq!(arr[1].as_f64(), Some(3.0));
        assert_eq!(arr[2].as_f64(), Some(1e-9));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(arr[4], Json::Null);
    }

    #[test]
    fn canonical_form_sorts_keys_and_is_compact() {
        let a = Json::obj()
            .field("b", 1u64)
            .field("a", Json::obj().field("y", 2u64).field("x", 3u64).build())
            .build();
        let b = Json::obj()
            .field("a", Json::obj().field("x", 3u64).field("y", 2u64).build())
            .field("b", 1u64)
            .build();
        // Insertion order differs, canonical bytes do not.
        assert_eq!(a.to_canonical(), b.to_canonical());
        assert_eq!(a.to_canonical(), "{\"a\":{\"x\":3,\"y\":2},\"b\":1}");
        // Arrays keep element order (positions carry meaning).
        let arr = Json::Arr(vec![Json::from(2u64), Json::from(1u64)]);
        assert_eq!(arr.to_canonical(), "[2,1]");
        // Floats use the same shortest round-trip form as to_pretty.
        assert_eq!(Json::Float(3.0).to_canonical(), "3.0");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}µ".to_string());
        let text = v.to_pretty();
        assert!(text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parser_round_trips_serializer_output() {
        let v = Json::obj()
            .field("name", "fig09")
            .field("count", 42u64)
            .field("delta", -3i64)
            .field("ratio", 1.0471975511965976)
            .field("flag", false)
            .field(
                "rows",
                vec![
                    Json::obj().field("k", "v").build(),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ],
            )
            .build();
        let text = v.to_pretty();
        assert_eq!(parse(&text).unwrap(), v);
        // Re-serializing the parse yields identical bytes (fixpoint).
        assert_eq!(parse(&text).unwrap().to_pretty(), text);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn getters_navigate_objects() {
        let v = Json::obj()
            .field("summary", Json::obj().field("gmean", 1.25).build())
            .field_opt("absent", None::<f64>)
            .field_opt("present", Some(7u64))
            .build();
        assert_eq!(
            v.get("summary")
                .and_then(|s| s.get("gmean"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        assert!(v.get("absent").is_none());
        assert_eq!(v.get("present").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("missing"), None);
    }
}
