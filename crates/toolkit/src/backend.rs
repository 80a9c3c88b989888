//! The inside of a CM-Translator: the adapter trait over native RISIs.
//!
//! A [`RisBackend`] owns one raw store and performs four duties, always
//! through the store's **native** interface (command strings for the
//! relational source, paths for the file store, …):
//!
//! 1. apply *spontaneous* application operations, returning the changes
//!    to tracked items **only when the store has a native change feed**
//!    (relational triggers, kv watches) — poll-only stores return
//!    nothing, and the translator must discover changes by reading;
//! 2. perform CM-requested writes (a write of [`Value::Null`] deletes);
//! 3. read current values ([`Value::Null`] = absent);
//! 4. enumerate every ground item of one base, for periodic
//!    interfaces, initial-state capture and the CMI's `Enumerate`
//!    request. A backend filters by base alone: where a template
//!    narrows the items further, the translator matches each one
//!    against it through `hcm_rulelang::slots`.

use crate::msg::SpontaneousOp;
use hcm_core::{ItemId, SimTime, Sym, Value};
use hcm_ris::RisError;

/// A change to a tracked item, observed through a native change feed.
#[derive(Debug, Clone, PartialEq)]
pub struct Change {
    /// The item affected.
    pub item: ItemId,
    /// Prior value (`None` when unknown, `Some(Null)` when absent).
    pub old: Option<Value>,
    /// New value (`Null` for deletion).
    pub new: Value,
}

/// Adapter over one raw store. See the module docs.
pub trait RisBackend {
    /// Whether the store has a *native* change feed (triggers,
    /// watches). When `false`, the changes returned by
    /// [`RisBackend::apply_spontaneous`] are ground truth for the
    /// recorded trace only — the translator must NOT base notify
    /// interfaces on them (it could not have observed them in a real
    /// deployment; it polls instead).
    fn has_change_feed(&self) -> bool;

    /// Apply a native application operation at time `now`.
    fn apply_spontaneous(
        &mut self,
        op: &SpontaneousOp,
        now: SimTime,
    ) -> Result<Vec<Change>, RisError>;

    /// Perform a CM-requested write; returns the old value when the
    /// native interface exposes it. `Err(ConstraintViolation)` when a
    /// local constraint rejects the write (demarcation relies on this).
    fn write(
        &mut self,
        item: &ItemId,
        value: &Value,
        now: SimTime,
    ) -> Result<Option<Value>, RisError>;

    /// Read the current value of an item (`Null` when absent).
    fn read(&self, item: &ItemId) -> Result<Value, RisError>;

    /// Every ground item of `base` the store currently holds; none
    /// for a base it does not map.
    fn enumerate(&self, base: Sym) -> Vec<ItemId>;
}

/// The error a backend returns for a spontaneous operation shaped for
/// another kind of store; the translator counts it in
/// `translator.spontaneous_errors`.
pub(crate) fn wrong_op(store: &str, op: &SpontaneousOp) -> RisError {
    RisError::Unsupported(format!("{store} RIS takes no {op:?}"))
}

/// Render a value in the plain-text form the file store and whois
/// directory hold.
#[must_use]
pub(crate) fn value_to_text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Null => String::new(),
        other => other.to_string(),
    }
}

/// Parse plain text into a typed value according to a CM-RID
/// `type = int|float|str|bool` mapping property (default `str`).
#[must_use]
pub(crate) fn text_to_value(text: &str, ty: Option<&str>) -> Value {
    match ty.unwrap_or("str") {
        "int" => text.trim().parse::<i64>().map_or(Value::Null, Value::Int),
        "float" => text.trim().parse::<f64>().map_or(Value::Null, Value::Float),
        "bool" => match text.trim() {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::Null,
        },
        _ => Value::Str(text.to_owned()),
    }
}

/// A single-parameter native-name pattern such as `phone/$p0` or
/// `/phones/$p0.txt`: render an item parameter into a native key, or
/// extract the parameter back out of one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPattern {
    prefix: String,
    suffix: String,
    has_param: bool,
}

impl KeyPattern {
    /// Parse a pattern containing exactly one `$p0` placeholder, or a
    /// constant pattern (no placeholder — an unparameterized item).
    #[must_use]
    pub(crate) fn parse(pattern: &str) -> KeyPattern {
        match pattern.split_once("$p0") {
            Some((pre, suf)) => KeyPattern {
                prefix: pre.to_owned(),
                suffix: suf.to_owned(),
                has_param: true,
            },
            None => KeyPattern {
                prefix: pattern.to_owned(),
                suffix: String::new(),
                has_param: false,
            },
        }
    }

    /// Build the item for `base` from a native key's extracted
    /// parameter: parameterized patterns yield `base(param)`, constant
    /// patterns yield the plain `base`.
    #[must_use]
    pub(crate) fn item_for(&self, base: Sym, param: &str) -> crate::ItemIdAlias {
        if self.has_param {
            hcm_core::ItemId::with(base, [hcm_core::Value::from(param)])
        } else {
            hcm_core::ItemId::plain(base)
        }
    }

    /// Render a native key for a parameter (pass `""` for constant
    /// patterns).
    #[must_use]
    pub(crate) fn render(&self, param: &str) -> String {
        format!("{}{}{}", self.prefix, param, self.suffix)
    }

    /// Extract the parameter from a native key, if it matches.
    #[must_use]
    pub(crate) fn extract<'a>(&self, key: &'a str) -> Option<&'a str> {
        key.strip_prefix(&self.prefix)?.strip_suffix(&self.suffix)
    }
}

/// Resolve the single string parameter of an item (most mapped stores
/// namespace by one key). Items with no parameters use `""`.
pub(crate) fn single_param(item: &ItemId) -> Result<String, RisError> {
    match item.params.len() {
        0 => Ok(String::new()),
        1 => Ok(value_to_text(&item.params[0])),
        n => Err(RisError::Unsupported(format!(
            "store mapping supports at most 1 item parameter, `{item}` has {n}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips() {
        assert_eq!(text_to_value("42", Some("int")), Value::Int(42));
        assert_eq!(text_to_value(" 2.5 ", Some("float")), Value::Float(2.5));
        assert_eq!(text_to_value("true", Some("bool")), Value::Bool(true));
        assert_eq!(text_to_value("hi", None), Value::Str("hi".into()));
        assert_eq!(text_to_value("junk", Some("int")), Value::Null);
        assert_eq!(value_to_text(&Value::Int(7)), "7");
        assert_eq!(value_to_text(&Value::Str("x".into())), "x");
        assert_eq!(value_to_text(&Value::Null), "");
    }

    #[test]
    fn key_patterns() {
        let p = KeyPattern::parse("/phones/$p0.txt");
        assert_eq!(p.render("ann"), "/phones/ann.txt");
        assert_eq!(p.extract("/phones/ann.txt"), Some("ann"));
        assert_eq!(p.extract("/other/ann.txt"), None);
        assert_eq!(p.extract("/phones/ann.csv"), None);
        let constant = KeyPattern::parse("config");
        assert_eq!(constant.render(""), "config");
        assert_eq!(constant.extract("config"), Some(""));
    }

    #[test]
    fn single_param_rules() {
        assert_eq!(single_param(&ItemId::plain("X")).unwrap(), "");
        assert_eq!(
            single_param(&ItemId::with("p", [Value::from("ann")])).unwrap(),
            "ann"
        );
        assert!(single_param(&ItemId::with("p", [Value::Int(1), Value::Int(2)])).is_err());
    }
}
