//! Registry-free shim for the subset of `serde` this workspace uses.
//!
//! Unlike real serde's zero-copy visitor architecture, this shim routes
//! everything through an owned JSON-like [`Value`] tree: `Serialize`
//! means "convert to a `Value`", `Deserialize` means "convert from a
//! `Value`". The in-tree `serde_json` shim renders and parses that tree.
//! The `#[derive(Serialize, Deserialize)]` macros come from the sibling
//! `serde_derive` proc-macro shim and target these traits.
//!
//! Format notes (mirroring serde_json's defaults where it matters):
//! * structs serialise as objects, field order preserved;
//! * unit enum variants serialise as strings, data-carrying variants as
//!   single-key objects (`{"Variant": …}`);
//! * non-finite floats serialise as `null`, and `null` deserialises to
//!   `f64::NAN` — the detector's verdict scores use NaN as a sentinel;
//! * integers keep full 64-bit precision (no round trip through f64).

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;

/// An owned JSON-like data tree — the shim's entire data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (JSON number without fraction/exponent).
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion order preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Numeric view widened to `f64` (integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::I64(i) => Some(i as f64),
            Value::U64(u) => Some(u as f64),
            Value::F64(f) => Some(f),
            _ => None,
        }
    }

    /// Renders compact JSON into `out`. Lives here (rather than in the
    /// `serde_json` shim) because the orphan rule requires `Display for
    /// Value` in the defining crate.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            // Writing into a `String` cannot fail.
            Value::I64(i) => {
                let _ = write!(out, "{i}");
            }
            Value::U64(u) => {
                let _ = write!(out, "{u}");
            }
            Value::F64(f) => write_json_f64(*f, out),
            Value::Str(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (key, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    val.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_json_f64(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // `{}` is Rust's shortest round-trip rendering; keep a trailing `.0`
    // so the value re-parses as a float, matching serde_json. Formatting
    // straight into `out` and checking only the appended bytes avoids a
    // temporary `String` per number.
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    // Each escape-free run is found with one scan and copied with one
    // `push_str`. Every byte that needs escaping is ASCII, so the split
    // always falls on a char boundary and multibyte text passes through.
    while let Some(at) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        let (run, tail) = rest.split_at(at);
        out.push_str(run);
        let mut chars = tail.chars();
        match chars.next() {
            Some('"') => out.push_str("\\\""),
            Some('\\') => out.push_str("\\\\"),
            Some('\n') => out.push_str("\\n"),
            Some('\r') => out.push_str("\\r"),
            Some('\t') => out.push_str("\\t"),
            Some(c) => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            None => {}
        }
        rest = chars.as_str();
    }
    out.push_str(rest);
    out.push('"');
}

impl std::fmt::Display for Value {
    /// Renders compact JSON (`{}` interpolation of `json!` results).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_json(&mut out);
        write!(f, "{out}")
    }
}

/// A (de)serialisation failure with a breadcrumb path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// A new error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Prefixes the error with a location breadcrumb (`Type.field`).
    #[must_use]
    pub fn context(self, location: &str) -> Self {
        Self {
            message: format!("{location}: {}", self.message),
        }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the shim data model.
pub trait Serialize {
    /// Renders `self` as a [`Value`] tree.
    fn to_value(&self) -> Value;

    /// Appends `self` as compact JSON to `out`: exactly the bytes of
    /// [`Value::write_json`] on [`Serialize::to_value`], which is the
    /// default. Derived named structs write field by field, and a type
    /// with a large direct rendering overrides it to skip the tree.
    fn write_json(&self, out: &mut String) {
        self.to_value().write_json(out);
    }
}

/// Conversion out of the shim data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    ///
    /// # Errors
    /// Returns a [`DeError`] describing the first mismatch found.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------- scalars

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match *value {
                    Value::I64(i) => <$t>::try_from(i)
                        .map_err(|_| DeError::new(format!("{i} out of range"))),
                    Value::U64(u) => <$t>::try_from(u)
                        .map_err(|_| DeError::new(format!("{u} out of range"))),
                    ref other => Err(DeError::new(format!(
                        "expected integer, found {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                match i64::try_from(wide) {
                    Ok(i) => Value::I64(i),
                    Err(_) => Value::U64(wide),
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match *value {
                    Value::I64(i) => <$t>::try_from(i)
                        .map_err(|_| DeError::new(format!("{i} out of range"))),
                    Value::U64(u) => <$t>::try_from(u)
                        .map_err(|_| DeError::new(format!("{u} out of range"))),
                    ref other => Err(DeError::new(format!(
                        "expected integer, found {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::F64(*self)
        } else {
            Value::Null // serde_json convention for NaN / infinities
        }
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match *value {
            Value::Null => Ok(f64::NAN),
            ref v => v
                .as_f64()
                .ok_or_else(|| DeError::new(format!("expected number, found {v:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        (f64::from(*self)).to_value()
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(f64::from_value(value)? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::new(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let s = String::from_value(value)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::new("expected single-character string")),
        }
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_array()
            .ok_or_else(|| DeError::new("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Vec::<T>::from_value(value)?.into())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items = Vec::<T>::from_value(value)?;
        let found = items.len();
        items
            .try_into()
            .map_err(|_| DeError::new(format!("expected {N}-element array, found {found}")))
    }
}

impl<T: Serialize> Serialize for std::ops::Range<T> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("start".to_string(), self.start.to_value()),
            ("end".to_string(), self.end.to_value()),
        ])
    }
}

impl<T: Deserialize> Deserialize for std::ops::Range<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let start = value
            .get("start")
            .ok_or_else(|| DeError::new("range missing start"))?;
        let end = value
            .get("end")
            .ok_or_else(|| DeError::new("range missing end"))?;
        Ok(T::from_value(start).map_err(|e| e.context("Range.start"))?
            ..T::from_value(end).map_err(|e| e.context("Range.end"))?)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Box::new(T::from_value(value)?))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<K: Serialize + ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + std::str::FromStr + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| DeError::new("expected object"))?;
        entries
            .iter()
            .map(|(k, v)| {
                let key = k
                    .parse::<K>()
                    .map_err(|_| DeError::new(format!("bad map key {k:?}")))?;
                Ok((key, V::from_value(v)?))
            })
            .collect()
    }
}

impl<K: Serialize + ToString, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort entries by rendered key.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + std::str::FromStr + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| DeError::new("expected object"))?;
        entries
            .iter()
            .map(|(k, v)| {
                let key = k
                    .parse::<K>()
                    .map_err(|_| DeError::new(format!("bad map key {k:?}")))?;
                Ok((key, V::from_value(v)?))
            })
            .collect()
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let items = value
                    .as_array()
                    .ok_or_else(|| DeError::new("expected tuple array"))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(DeError::new(format!(
                        "expected {expected}-tuple, found {} items",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        Value::write_json(self, out);
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_precision_survives() {
        let big: u64 = (1 << 60) + 7;
        let v = big.to_value();
        assert_eq!(u64::from_value(&v).unwrap(), big);
    }

    #[test]
    fn nan_round_trips_as_null() {
        let v = f64::NAN.to_value();
        assert_eq!(v, Value::Null);
        assert!(f64::from_value(&v).unwrap().is_nan());
    }

    #[test]
    fn option_distinguishes_null() {
        assert_eq!(Option::<bool>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<bool>::from_value(&Value::Bool(true)).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn nested_containers_round_trip() {
        let data: Vec<(u64, f64, usize)> = vec![(1, 2.5, 3), (4, 5.5, 6)];
        let v = data.to_value();
        let back = Vec::<(u64, f64, usize)>::from_value(&v).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn vecdeque_round_trips() {
        let dq: VecDeque<f64> = vec![1.0, 2.0, 3.0].into();
        let back = VecDeque::<f64>::from_value(&dq.to_value()).unwrap();
        assert_eq!(back, dq);
    }

    #[test]
    fn type_mismatch_reports_error() {
        assert!(bool::from_value(&Value::I64(3)).is_err());
        assert!(String::from_value(&Value::Bool(false)).is_err());
        assert!(u8::from_value(&Value::I64(300)).is_err());
    }
}
