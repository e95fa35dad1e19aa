//! Minimal, dependency-free stand-in for the `serde_json` crate.
//!
//! The workspace builds in network-restricted environments where crates-io
//! is unreachable. The repo only uses `serde_json` to build result objects
//! with the `json!` macro and serialize them with `to_string_pretty`, so
//! this shim implements exactly that: a [`Value`] tree (object keys kept in
//! insertion order so emitted files are deterministic) with the real
//! crate's `get`/`as_u64`/`as_str`/`as_array` accessors, `From`
//! conversions for the primitive types the benches use, a recursive
//! `json!` macro, and a pretty printer with 2-space indentation and
//! standard JSON string escaping. There is no deserialization and no
//! serde `Serialize` bridge.

use std::fmt;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (stored as f64 plus a flag for integer formatting).
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object. Keys keep insertion order for deterministic output.
    Object(Vec<(String, Value)>),
}

/// A JSON number: integers render without a decimal point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (kept separate so u64 > i64::MAX round-trips).
    UInt(u64),
    /// Floating point.
    Float(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(v) => write!(f, "{v}"),
            Number::UInt(v) => write!(f, "{v}"),
            Number::Float(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        // Match serde_json: whole floats print as "1.0".
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // serde_json forbids non-finite floats; emit null.
                    write!(f, "null")
                }
            }
        }
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::Int(v as i64))
            }
        })*
    };
}
from_int!(i8, i16, i32, i64, isize, u8, u16, u32);

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Number(Number::UInt(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Number(Number::UInt(v as u64))
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::Float(v as f64))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::Float(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(v: [T; N]) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

impl Value {
    /// Object lookup by key; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable object lookup by key; `None` for non-objects or missing keys.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Number(Number::UInt(u)) => Some(u),
            Value::Number(Number::Int(i)) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The string slice, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        const STEP: usize = 2;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
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
                    push_indent(out, indent + STEP);
                    item.write_pretty(out, indent + STEP);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + STEP);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + STEP);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push(' ');
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// By-reference conversion into [`Value`], mirroring how the real `json!`
/// macro serializes expression values via `to_value(&expr)` — so call sites
/// can embed `series[0]` or other non-`Copy` places without moving them.
pub trait ToValue {
    /// Builds a [`Value`] from a borrow of `self`.
    fn to_value(&self) -> Value;
}

macro_rules! to_value_via_from {
    ($($t:ty),*) => {
        $(impl ToValue for $t {
            fn to_value(&self) -> Value {
                Value::from(*self)
            }
        })*
    };
}
to_value_via_from!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64, bool);

impl ToValue for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToValue for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToValue for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: ToValue> ToValue for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToValue::to_value).collect())
    }
}

impl<T: ToValue> ToValue for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToValue::to_value).collect())
    }
}

impl<T: ToValue, const N: usize> ToValue for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToValue::to_value).collect())
    }
}

impl<T: ToValue> ToValue for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: ToValue + ?Sized> ToValue for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Converts any [`ToValue`] borrow into an owned [`Value`].
pub fn to_value<T: ToValue + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serialization error type (kept for API parity; serialization here is
/// infallible).
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json shim serialization error")
    }
}

impl std::error::Error for Error {}

/// Serializes a [`Value`] with 2-space indentation.
pub fn to_string_pretty<T: AsValue>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.as_value().write_pretty(&mut out, 0);
    Ok(out)
}

/// Serializes a [`Value`] compactly.
pub fn to_string<T: AsValue>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.as_value().write_compact(&mut out);
    Ok(out)
}

/// Borrow-as-`Value` bridge so `to_string_pretty(&value)` works on both
/// `&Value` and `&&Value` call shapes.
pub trait AsValue {
    /// The underlying value.
    fn as_value(&self) -> &Value;
}

impl AsValue for Value {
    fn as_value(&self) -> &Value {
        self
    }
}

impl AsValue for &Value {
    fn as_value(&self) -> &Value {
        self
    }
}

/// Builds a [`Value`] from JSON-like syntax: objects (string-literal keys),
/// arrays, `null`, and any expression with an `Into<Value>` conversion.
/// Object and array bodies are consumed by tt-munchers so values may be
/// arbitrary Rust expressions (`bs / 1024`, `cfg.link.bandwidth()`) or
/// nested `{...}`/`[...]` literals.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {
        $crate::Value::Array($crate::json_items!(@items [] $($tt)*))
    };
    ({ $($tt:tt)* }) => {
        $crate::Value::Object($crate::json_pairs!(@pairs [] $($tt)*))
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Internal: munches `key: value` pairs of a `json!` object body into a
/// `Vec<(String, Value)>`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_pairs {
    (@pairs [$($acc:tt)*]) => { ::std::vec![$($acc)*] };
    (@pairs [$($acc:tt)*] $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::json_pairs!(@pairs
            [$($acc)* (::std::string::String::from($key), $crate::Value::Null),]
            $($($rest)*)?)
    };
    (@pairs [$($acc:tt)*] $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_pairs!(@pairs
            [$($acc)* (::std::string::String::from($key), $crate::json!({ $($inner)* })),]
            $($($rest)*)?)
    };
    (@pairs [$($acc:tt)*] $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_pairs!(@pairs
            [$($acc)* (::std::string::String::from($key), $crate::json!([ $($inner)* ])),]
            $($($rest)*)?)
    };
    (@pairs [$($acc:tt)*] $key:literal : $val:expr $(, $($rest:tt)*)?) => {
        $crate::json_pairs!(@pairs
            [$($acc)* (::std::string::String::from($key), $crate::to_value(&$val)),]
            $($($rest)*)?)
    };
}

/// Internal: munches the elements of a `json!` array body into a
/// `Vec<Value>`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    (@items [$($acc:tt)*]) => { ::std::vec![$($acc)*] };
    (@items [$($acc:tt)*] null $(, $($rest:tt)*)?) => {
        $crate::json_items!(@items [$($acc)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@items [$($acc:tt)*] { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_items!(@items [$($acc)* $crate::json!({ $($inner)* }),] $($($rest)*)?)
    };
    (@items [$($acc:tt)*] [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_items!(@items [$($acc)* $crate::json!([ $($inner)* ]),] $($($rest)*)?)
    };
    (@items [$($acc:tt)*] $val:expr $(, $($rest:tt)*)?) => {
        $crate::json_items!(@items [$($acc)* $crate::to_value(&$val),] $($($rest)*)?)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(to_string(&json!(null)).unwrap(), "null");
        assert_eq!(to_string(&json!(true)).unwrap(), "true");
        assert_eq!(to_string(&json!(42u64)).unwrap(), "42");
        assert_eq!(to_string(&json!(-3i64)).unwrap(), "-3");
        assert_eq!(to_string(&json!(1.5f64)).unwrap(), "1.5");
        assert_eq!(to_string(&json!(2.0f64)).unwrap(), "2.0");
        assert_eq!(to_string(&json!("hi\n")).unwrap(), "\"hi\\n\"");
    }

    #[test]
    fn nested_object_and_array() {
        let rows = vec![vec![1u64, 2], vec![3, 4]];
        let label = String::from("seq");
        let v = json!({
            "name": "fig10",
            "config": { "depth": 3, "qos": true },
            "rows": rows,
            "label": label,
            "sizes": [512, 1024],
        });
        let s = to_string(&v).unwrap();
        assert_eq!(
            s,
            "{\"name\":\"fig10\",\"config\":{\"depth\":3,\"qos\":true},\
             \"rows\":[[1,2],[3,4]],\"label\":\"seq\",\"sizes\":[512,1024]}"
        );
    }

    #[test]
    fn pretty_output_is_indented_and_ordered() {
        let v = json!({ "b": 1, "a": [true] });
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"b\": 1,\n  \"a\": [\n    true\n  ]\n}");
    }

    #[test]
    fn value_variables_embed() {
        let inner: Value = json!([1, 2]);
        let v = json!({ "inner": inner, "opt": Option::<u64>::None });
        assert_eq!(v.get("inner"), Some(&json!([1, 2])));
        assert_eq!(v.get("opt"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn accessors_follow_serde_json() {
        let v = json!({ "u": 7u64, "i": 3i64, "neg": -1i64, "f": 1.0f64, "s": "x", "a": [1, 2] });
        let get = |k: &str| v.get(k).unwrap();
        assert_eq!(get("u").as_u64(), Some(7));
        assert_eq!(get("i").as_u64(), Some(3));
        assert_eq!(get("neg").as_u64(), None);
        assert_eq!(get("f").as_u64(), None);
        assert_eq!(get("s").as_str(), Some("x"));
        assert_eq!(get("u").as_str(), None);
        assert_eq!(get("a").as_array(), Some(&vec![json!(1), json!(2)]));
        assert_eq!(get("s").as_array(), None);
    }

    #[test]
    fn multi_token_expression_values() {
        struct Cfg {
            depth: u64,
        }
        impl Cfg {
            fn bw(&self) -> f64 {
                2.5
            }
        }
        let cfg = Cfg { depth: 4 };
        let series = [vec![1u64], vec![2]];
        let bs = 65536u64;
        let v = json!({
            "block_kb": bs / 1024,
            "depth": cfg.depth + 1,
            "bw": cfg.bw(),
            "first": series[0].clone(),
        });
        assert_eq!(
            to_string(&v).unwrap(),
            "{\"block_kb\":64,\"depth\":5,\"bw\":2.5,\"first\":[1]}"
        );
    }

    #[test]
    fn float_vectors_convert() {
        let v = json!(vec![vec![1.0f64, 2.5], vec![3.0]]);
        assert_eq!(to_string(&v).unwrap(), "[[1.0,2.5],[3.0]]");
    }
}
