//! Registry-free shim for the subset of `serde_json` this workspace uses:
//! `to_string`, `from_str`, `to_writer`, `from_reader`, `Error`, `Value`,
//! and the `json!` macro.
//!
//! Numbers render through Rust's shortest-round-trip float formatting, so
//! every finite `f64` survives `to_string` → `from_str` exactly (the
//! behaviour the real crate's `float_roundtrip` feature guarantees).
//! Non-finite floats serialise as `null` and parse back as `NaN` via the
//! serde shim's `f64` impl.

#![forbid(unsafe_code)]

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

/// JSON (de)serialisation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Self::new(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Self::new(e.to_string())
    }
}

// ----------------------------------------------------------------- output

/// Serialises a value to a compact JSON string.
///
/// # Errors
/// Never fails for the shim data model; the `Result` mirrors the real
/// crate's signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serialises a value as JSON into a writer.
///
/// # Errors
/// Propagates I/O failures from the writer.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let text = to_string(value)?;
    writer.write_all(text.as_bytes())?;
    Ok(())
}

// ------------------------------------------------------------------ input

/// Parses a value from a JSON string.
///
/// # Errors
/// Malformed JSON or a shape mismatching `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_complete(text)?;
    Ok(T::from_value(&value)?)
}

/// Parses a value from a reader (buffers the full input first).
///
/// # Errors
/// I/O failures, malformed JSON, or a shape mismatching `T`.
pub fn from_reader<R: std::io::Read, T: Deserialize>(mut reader: R) -> Result<T, Error> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    from_str(&text)
}

/// Deepest array/object nesting the parser accepts (the real crate's
/// default recursion limit). The parser recurses once per level, so the
/// cap bounds its stack use on hostile input.
const MAX_DEPTH: usize = 128;

fn parse_value_complete(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing data at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value; `depth` counts the arrays/objects enclosing it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(Error::new(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )));
    }
    match bytes.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::new(format!("expected , or ] at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::new(format!("expected : at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(Error::new(format!("expected , or }} at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Value,
) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(Error::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::new("unterminated string")),
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| Error::new("bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::new("bad \\u escape"))?;
                        // Surrogate pairs are not needed by this workspace's
                        // data (ASCII identifiers and numbers only).
                        out.push(
                            char::from_u32(code).ok_or_else(|| Error::new("bad \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    other => return Err(Error::new(format!("bad escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape,
                // validating it once. Both delimiters are ASCII, so the
                // run never splits a UTF-8 code point.
                let rest = &bytes[*pos..];
                let run = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                let text =
                    std::str::from_utf8(&rest[..run]).map_err(|_| Error::new("invalid UTF-8"))?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

/// Scans one JSON number token starting at `bytes[*pos]` and advances
/// `pos` past it. Integer tokens become `I64`, then `U64` when they do
/// not fit, and everything else `F64`. The generic parser and the serve
/// crate's direct `Tick` decoder share this scanner, so both read every
/// number to the same bits.
///
/// # Errors
/// No number at `pos`, or a token Rust's float parser rejects.
pub fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
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
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::new("invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(Error::new(format!("expected number at byte {start}")));
    }
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::I64(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::U64(u));
        }
    }
    text.parse::<f64>()
        .map(Value::F64)
        .map_err(|_| Error::new(format!("malformed number {text:?}")))
}

// ------------------------------------------------------------------ extras

#[doc(hidden)]
pub use ::serde as __serde;

/// Builds a [`Value`] from JSON-like syntax. Supports `null`, one level
/// of object/array literal, and arbitrary serialisable expressions as
/// values — the forms this workspace uses (no recursive literal nesting).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![
            $( $crate::__serde::Serialize::to_value(&$item) ),*
        ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::__serde::Serialize::to_value(&$val)) ),*
        ])
    };
    ($other:expr) => {
        $crate::__serde::Serialize::to_value(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_basic_document() {
        let text = r#"{"a":1,"b":[true,null,2.5],"c":"hi\n","d":{"e":-3}}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[test]
    fn float_round_trip_exact() {
        for &f in &[0.1, 1.0 / 3.0, 1e-300, 123456.789, f64::MAX, -0.0] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {text}");
        }
    }

    #[test]
    fn nan_becomes_null_and_back() {
        let text = to_string(&f64::NAN).unwrap();
        assert_eq!(text, "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn large_u64_precise() {
        let big: u64 = u64::MAX - 3;
        let text = to_string(&big).unwrap();
        let back: u64 = from_str(&text).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn whole_floats_keep_float_syntax() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    }

    #[test]
    fn json_macro_object() {
        let v = json!({ "unit": 3usize, "db": 1usize, "ok": true });
        assert_eq!(v.to_string(), r#"{"unit":3,"db":1,"ok":true}"#);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{\"a\":}").is_err());
        assert!(from_str::<Value>("[1,2").is_err());
        assert!(from_str::<Value>("12x").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // far past the cap, unterminated, inside an object: an error, not
        // a stack overflow
        let hostile = format!("{{\"Stats\":{}", "[".repeat(200_000));
        assert!(from_str::<Value>(&hostile).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<Value>(&objects).is_err());
    }

    #[test]
    fn strings_with_escapes_and_multibyte_text() {
        let text = r#"["plain","a\"b\\c\/d\n","héllo ✓ 𝄞","éx",""]"#;
        let v: Vec<String> = from_str(text).unwrap();
        assert_eq!(v, ["plain", "a\"b\\c/d\n", "héllo ✓ 𝄞", "éx", ""]);
    }

    #[test]
    fn invalid_utf8_in_string_is_an_error() {
        // `from_str` only sees valid `&str`; the byte-level parser must
        // still refuse a run that is not UTF-8.
        for bytes in [&b"\"ab\xffcd\""[..], b"\"\xc3\"", b"\"ok\\n\xe2\x82\""] {
            let mut pos = 0;
            let err = parse_value(bytes, &mut pos, 0).unwrap_err();
            assert_eq!(err.to_string(), "json error: invalid UTF-8", "{bytes:?}");
        }
    }

    #[test]
    fn number_tokens_keep_integer_width() {
        let scan = |text: &str| {
            let mut pos = 0;
            let v = parse_number(text.as_bytes(), &mut pos).unwrap();
            (v, pos)
        };
        assert_eq!(scan("-0,"), (Value::I64(0), 2));
        assert_eq!(scan("18446744073709551615]"), (Value::U64(u64::MAX), 20));
        assert_eq!(
            scan("18446744073709551616"),
            (Value::F64(1.8446744073709552e19), 20)
        );
        assert_eq!(scan("2.5e-3"), (Value::F64(0.0025), 6));
        assert!(parse_number(b"-", &mut 0).is_err());
        assert!(parse_number(b"x", &mut 0).is_err());
    }

    /// The renderings the writers must keep byte for byte: `{}` plus a
    /// trailing `.0` for floats, `{}` for integers, and the per-char
    /// escape table for strings.
    fn reference_float(f: f64) -> String {
        if !f.is_finite() {
            return "null".to_string();
        }
        let mut text = format!("{f}");
        if !text.contains(['.', 'e', 'E']) {
            text.push_str(".0");
        }
        text
    }

    fn reference_string(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    proptest! {
        /// Floats render exactly as the reference and re-parse to the same
        /// bits: random bit patterns plus subnormals, `-0.0`, the extremes
        /// and integer-valued floats.
        #[test]
        fn floats_render_like_display_and_round_trip_bitwise(
            bits in any::<u64>(),
            pick in 0usize..8,
        ) {
            let sign = if bits >> 63 == 1 { -1.0 } else { 1.0 };
            let f = match pick {
                0 => -0.0,
                1 => f64::MAX * sign,
                2 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff), // subnormal
                3 => (bits % (1 << 53)) as f64 * sign,             // integer-valued
                4 => ((bits % 1_000_000) as f64) * sign,           // small integer
                _ => f64::from_bits(bits),
            };
            let rendered = to_string(&f).unwrap();
            prop_assert_eq!(&rendered, &reference_float(f));
            if f.is_finite() {
                let back: f64 = from_str(&rendered).unwrap();
                prop_assert_eq!(back.to_bits(), f.to_bits(), "{} via {}", f, rendered);
            }
        }

        /// Integers render as `{}` at full 64-bit width in both variants.
        #[test]
        fn integers_render_like_display(bits in any::<u64>()) {
            prop_assert_eq!(to_string(&(bits as i64)).unwrap(), (bits as i64).to_string());
            prop_assert_eq!(to_string(&bits).unwrap(), bits.to_string());
        }

        /// Strings escape exactly as the per-char reference, escapes and
        /// multibyte text mixed in any order, and parse back unchanged.
        #[test]
        fn strings_render_like_the_escape_table(
            picks in prop::collection::vec(0usize..14, 0..40),
        ) {
            const POOL: [&str; 14] = [
                "a", "plain run ", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}",
                "é", "€", "𝄞", "/", "\u{7f}",
            ];
            let s: String = picks.iter().map(|&i| POOL[i]).collect();
            let rendered = to_string(&s).unwrap();
            prop_assert_eq!(&rendered, &reference_string(&s));
            prop_assert_eq!(from_str::<String>(&rendered).unwrap(), s);
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let data = vec![(1u64, 2.5f64), (3, 4.5)];
        let mut buf = Vec::new();
        to_writer(&mut buf, &data).unwrap();
        let back: Vec<(u64, f64)> = from_reader(buf.as_slice()).unwrap();
        assert_eq!(back, data);
    }
}
