//! Values taken by data items.
//!
//! The paper is agnostic about the domain of data items ("we do not fix a
//! specific granularity for data items"); in practice its examples use
//! numbers (salaries, balances, limits) and strings (phone numbers,
//! names). [`Value`] covers those plus booleans (for auxiliary CM data
//! such as the `Flag` item of §6.3) and a distinguished [`Value::Null`]
//! denoting *absence*: the exists-predicate `E(X)` of §6.2 is true
//! exactly when an item's value is non-null.

use std::cmp::Ordering;
use std::fmt;

/// A value stored in a data item, carried by an event, or bound to a rule
/// parameter.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absence of a value. A data item whose value is `Null` does not
    /// exist in its database (`E(X)` is false).
    Null,
    /// Boolean, used mainly for auxiliary CM data (`Flag` in §6.3).
    Bool(bool),
    /// 64-bit integer (salaries, balances, demarcation limits…).
    Int(i64),
    /// Double-precision float (used by the conditional-notify example,
    /// `|b − a| > 0.1·a`).
    Float(f64),
    /// UTF-8 string (phone numbers, employee names…).
    Str(String),
}

impl Value {
    /// `true` when the value is anything other than [`Value::Null`]；
    /// this is the paper's `E(X)` exists-predicate applied to a value.
    #[must_use]
    pub fn exists(&self) -> bool {
        !matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one. Integers widen to `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric addition; integers stay integers, mixed arithmetic widens
    /// to float. Returns `None` for non-numeric operands.
    #[must_use]
    pub fn add(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.wrapping_add(*b))),
            _ => Some(Value::Float(self.as_f64()? + other.as_f64()?)),
        }
    }

    /// Numeric subtraction with the same widening rules as [`Value::add`].
    #[must_use]
    pub fn sub(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.wrapping_sub(*b))),
            _ => Some(Value::Float(self.as_f64()? - other.as_f64()?)),
        }
    }

    /// Numeric multiplication with the same widening rules as [`Value::add`].
    #[must_use]
    pub fn mul(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.wrapping_mul(*b))),
            _ => Some(Value::Float(self.as_f64()? * other.as_f64()?)),
        }
    }

    /// Absolute value of a numeric value.
    #[must_use]
    pub fn abs(&self) -> Option<Value> {
        match self {
            Value::Int(i) => Some(Value::Int(i.wrapping_abs())),
            Value::Float(f) => Some(Value::Float(f.abs())),
            _ => None,
        }
    }

    /// Ordering comparison used by conditions such as `X <= Y`. Numeric
    /// values compare numerically across `Int`/`Float`; strings compare
    /// lexicographically; other cross-type comparisons are undefined.
    #[must_use]
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => Some(self.as_f64()?.total_cmp(&other.as_f64()?)),
        }
    }
}

/// Equality treats `Int(2)` and `Float(2.0)` as equal (a copy constraint
/// between a relational column and a flat-file field should not fail on
/// representation); NaN equals NaN so that [`Value`] can key maps.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64).total_cmp(b) == Ordering::Equal
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

/// A *total* order across all values, used only where a deterministic
/// arrangement is needed (sorted item lists, map keys). Cross-type
/// comparisons order by variant (`Null < Bool < numeric < Str`); for
/// semantic comparisons inside conditions use [`Value::compare`], which
/// refuses cross-type comparisons instead of inventing them.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            _ if rank(self) == 2 && rank(other) == 2 => {
                // Mixed numeric; both as_f64 succeed for Int/Float.
                self.as_f64()
                    .expect("numeric")
                    .total_cmp(&other.as_f64().expect("numeric"))
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Integers and integral floats must hash alike because they
            // compare equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_does_not_exist() {
        assert!(!Value::Null.exists());
        assert!(Value::Int(0).exists());
        assert!(Value::Str(String::new()).exists());
    }

    #[test]
    fn int_float_cross_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
    }

    #[test]
    fn nan_is_self_equal() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn arithmetic_widens() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Some(Value::Int(5)));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)),
            Some(Value::Float(2.5))
        );
        assert_eq!(Value::Str("x".into()).add(&Value::Int(1)), None);
    }

    #[test]
    fn subtraction_and_abs() {
        assert_eq!(Value::Int(2).sub(&Value::Int(5)), Some(Value::Int(-3)));
        assert_eq!(Value::Int(-3).abs(), Some(Value::Int(3)));
        assert_eq!(Value::Float(-1.5).abs(), Some(Value::Float(1.5)));
        assert_eq!(Value::Null.abs(), None);
    }

    #[test]
    fn comparisons() {
        use Ordering::*;
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Less));
        assert_eq!(Value::Int(3).compare(&Value::Float(2.5)), Some(Greater));
        assert_eq!(
            Value::Str("abc".into()).compare(&Value::Str("abd".into())),
            Some(Less)
        );
        assert_eq!(Value::Str("a".into()).compare(&Value::Int(1)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
    }
}
