//! Data-item names.
//!
//! The paper deliberately leaves the granularity of a "data item" open —
//! a single object, a tuple, a whole relation — and supports
//! *parameterized* names such as `phone(n)` denoting the phone number of
//! employee `n` (§3.1.1). [`ItemId`] is a concrete (fully ground) name:
//! a base identifier plus zero or more parameter values. [`ItemPattern`]
//! is its template counterpart, where parameters may be variables or
//! wild-cards, and is what interface and strategy rules mention.

use crate::intern::Sym;
use crate::template::{Bindings, Term};
use crate::value::Value;
use std::fmt;

/// A ground data-item name: `base(p1, …, pk)`. `salary1("e42")` and
/// `balance(17)` are items; `X` (no parameters) is an item too.
///
/// The base name is an interned [`Sym`]: equality, hashing and routing
/// on items are O(1) on a `u32` symbol, and the string is only touched
/// when formatting.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId {
    /// The interned base name, e.g. `salary1`.
    pub base: Sym,
    /// Ground parameter values, empty for unparameterized items.
    pub params: Vec<Value>,
}

impl ItemId {
    /// An unparameterized item, e.g. `ItemId::plain("X")`.
    #[must_use]
    pub fn plain(base: impl Into<Sym>) -> Self {
        ItemId {
            base: base.into(),
            params: Vec::new(),
        }
    }

    /// A parameterized item, e.g. `ItemId::with("salary1", ["e42"])`.
    #[must_use]
    pub fn with(base: impl Into<Sym>, params: impl IntoIterator<Item = Value>) -> Self {
        ItemId {
            base: base.into(),
            params: params.into_iter().collect(),
        }
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        if !self.params.is_empty() {
            write!(f, "(")?;
            for (i, p) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A data-item pattern as written in rules: `salary1(n)` where `n` is a
/// rule variable, `phone(*)` with a wild-card, or the ground `X`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPattern {
    /// The interned base name; must match the item's base exactly.
    pub base: Sym,
    /// Parameter terms (variables, constants, wild-cards).
    pub params: Vec<Term>,
}

impl ItemPattern {
    /// An unparameterized pattern.
    #[must_use]
    pub fn plain(base: impl Into<Sym>) -> Self {
        ItemPattern {
            base: base.into(),
            params: Vec::new(),
        }
    }

    /// A parameterized pattern.
    #[must_use]
    pub fn with(base: impl Into<Sym>, params: impl IntoIterator<Item = Term>) -> Self {
        ItemPattern {
            base: base.into(),
            params: params.into_iter().collect(),
        }
    }

    /// Try to match a ground item against this pattern, extending
    /// `bindings` (the matching interpretation). Fails without modifying
    /// the bindings' observable state if the base differs, the arity
    /// differs, or a variable would need two different values.
    pub fn match_item(&self, item: &ItemId, bindings: &mut Bindings) -> bool {
        if self.base != item.base || self.params.len() != item.params.len() {
            return false;
        }
        let checkpoint = bindings.checkpoint();
        for (term, value) in self.params.iter().zip(&item.params) {
            if !term.unify(value, bindings) {
                bindings.rollback(checkpoint);
                return false;
            }
        }
        true
    }

    /// Instantiate the pattern into a ground [`ItemId`] using `bindings`.
    /// Returns `None` if some variable is unbound.
    #[must_use]
    pub fn instantiate(&self, bindings: &Bindings) -> Option<ItemId> {
        let mut params = Vec::with_capacity(self.params.len());
        for t in &self.params {
            params.push(t.instantiate(bindings)?);
        }
        Some(ItemId {
            base: self.base,
            params,
        })
    }
}

impl fmt::Display for ItemPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        if !self.params.is_empty() {
            write!(f, "(")?;
            for (i, p) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl From<ItemId> for ItemPattern {
    fn from(item: ItemId) -> Self {
        ItemPattern {
            base: item.base,
            params: item.params.into_iter().map(Term::Const).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(ItemId::plain("X").to_string(), "X");
        assert_eq!(
            ItemId::with("salary1", [Value::from("e42")]).to_string(),
            "salary1(\"e42\")"
        );
        let pat = ItemPattern::with("phone", [Term::var("n")]);
        assert_eq!(pat.to_string(), "phone(n)");
    }

    #[test]
    fn match_binds_variables() {
        let pat = ItemPattern::with("salary1", [Term::var("n")]);
        let item = ItemId::with("salary1", [Value::from("e42")]);
        let mut b = Bindings::new();
        assert!(pat.match_item(&item, &mut b));
        assert_eq!(b.get("n"), Some(&Value::from("e42")));
    }

    #[test]
    fn match_respects_existing_bindings() {
        let pat = ItemPattern::with("salary1", [Term::var("n")]);
        let item = ItemId::with("salary1", [Value::from("e42")]);
        let mut b = Bindings::new();
        b.bind("n", Value::from("e99"));
        assert!(!pat.match_item(&item, &mut b));
        // Unchanged after failure.
        assert_eq!(b.get("n"), Some(&Value::from("e99")));
    }

    #[test]
    fn match_rejects_base_and_arity_mismatch() {
        let mut b = Bindings::new();
        let pat = ItemPattern::with("salary1", [Term::var("n")]);
        assert!(!pat.match_item(&ItemId::with("salary2", [Value::from("e1")]), &mut b));
        assert!(!pat.match_item(&ItemId::plain("salary1"), &mut b));
    }

    #[test]
    fn wildcard_matches_anything_without_binding() {
        let pat = ItemPattern::with("phone", [Term::Wild]);
        let mut b = Bindings::new();
        assert!(pat.match_item(&ItemId::with("phone", [Value::Int(5)]), &mut b));
        assert!(b.is_empty());
    }

    #[test]
    fn instantiate_round_trips() {
        let pat = ItemPattern::with("salary2", [Term::var("n")]);
        let mut b = Bindings::new();
        b.bind("n", Value::from("e42"));
        assert_eq!(
            pat.instantiate(&b),
            Some(ItemId::with("salary2", [Value::from("e42")]))
        );
        let unbound = ItemPattern::with("salary2", [Term::var("m")]);
        assert_eq!(unbound.instantiate(&b), None);
    }

    #[test]
    fn failed_partial_match_rolls_back() {
        // First param binds n, second param contradicts it: n must be
        // rolled back.
        let pat = ItemPattern::with("pair", [Term::var("n"), Term::var("n")]);
        let item = ItemId::with("pair", [Value::Int(1), Value::Int(2)]);
        let mut b = Bindings::new();
        assert!(!pat.match_item(&item, &mut b));
        assert!(b.is_empty());
    }
}
