//! Value and type system for the storage engine.
//!
//! Values are small, owned, and hashable so they can serve directly as join
//! and index keys. Floats hash and compare by their bit pattern via
//! [`f64::total_cmp`], giving us a total order (NaN equals NaN), which is the
//! pragmatic choice for an engine whose workloads are dominated by integers
//! and text.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A runtime value stored in a row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, totally ordered via `total_cmp`.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The [`DataType`] this value inhabits, or `None` for NULL (NULL types
    /// as anything).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow the text content, if this is a `Text` value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Extract an integer, if this is an `Int` value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a float, widening `Int` if needed.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extract a boolean, if this is a `Bool` value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render for human display: NULL renders as `∅`, text unquoted.
    pub fn display_plain(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            other => other.to_string(),
        }
    }

    /// Render as a SQL literal (text quoted and escaped).
    pub fn display_sql(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => format!("{x}"),
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: Null < Bool < Int/Float (numeric, interleaved) < Text.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Int(_), Text(_)) | (Float(_), Text(_)) => Ordering::Less,
            (Text(_), Int(_)) | (Text(_), Float(_)) => Ordering::Greater,
            (Text(a), Text(b)) => a.cmp(b),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that are numerically equal may hash differently;
            // joins in this engine are always same-typed, so this is fine,
            // and we document it: never mix Int and Float join keys.
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(x) => {
                3u8.hash(state);
                x.to_bits().hash(state);
            }
            Value::Text(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// The [`Value::display_plain`] rendering, written straight into the
/// formatter (no intermediate `String`).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("∅"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn data_type_of_values() {
        assert_eq!(Value::from(3).data_type(), Some(DataType::Int));
        assert_eq!(Value::from("x").data_type(), Some(DataType::Text));
        assert_eq!(Value::from(1.5).data_type(), Some(DataType::Float));
        assert_eq!(Value::from(true).data_type(), Some(DataType::Bool));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn equality_and_hash_agree_for_text() {
        let a = Value::from("george clooney");
        let b = Value::from("george clooney");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_equals_nan_under_total_order() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn ordering_is_total_across_types() {
        let mut vals = [
            Value::from("zz"),
            Value::from(3),
            Value::Null,
            Value::from(false),
            Value::from(2.5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::from(false));
        // numeric interleave: 2.5 < 3
        assert_eq!(vals[2], Value::from(2.5));
        assert_eq!(vals[3], Value::from(3));
        assert_eq!(vals[4], Value::from("zz"));
    }

    #[test]
    fn int_float_numeric_comparison() {
        assert_eq!(Value::from(2), Value::Float(2.0));
        assert!(Value::from(2) < Value::Float(2.5));
    }

    #[test]
    fn sql_display_escapes_quotes() {
        assert_eq!(Value::from("o'brien").display_sql(), "'o''brien'");
        assert_eq!(Value::Null.display_sql(), "NULL");
        assert_eq!(Value::from(true).display_sql(), "TRUE");
    }

    #[test]
    fn plain_display_per_variant() {
        for (v, want) in [
            (Value::Null, "∅"),
            (Value::from(-7), "-7"),
            (Value::Float(2.5), "2.5"),
            (Value::Float(3.0), "3"),
            (Value::from("o'brien"), "o'brien"),
            (Value::from(false), "false"),
        ] {
            assert_eq!(v.display_plain(), want);
            assert_eq!(format!("{v}"), want);
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from(7).as_int(), Some(7));
        assert_eq!(Value::from(7).as_float(), Some(7.0));
        assert_eq!(Value::from("a").as_text(), Some("a"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from("a").as_int(), None);
    }
}
