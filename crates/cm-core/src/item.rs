//! Data-item names.
//!
//! The paper deliberately leaves the granularity of a "data item" open —
//! a single object, a tuple, a whole relation — and supports
//! *parameterized* names such as `phone(n)` denoting the phone number of
//! employee `n` (§3.1.1). [`ItemId`] is a concrete (fully ground) name:
//! a base identifier plus zero or more parameter values. [`ItemPattern`]
//! is its template counterpart, where parameters may be variables or
//! wild-cards, and is what interface and strategy rules mention.
//!
//! An item's parameters are an immutable shared slice (`Arc<[Value]>`):
//! one item name travels through an event descriptor, its trace record,
//! a CMI message, a pending write and a log record, and each of those
//! copies is a reference-count bump. Every constructor builds the slice
//! in one allocation (none for an unparameterized item), and equality,
//! ordering, hashing, `Display` and `Debug` look only at the content,
//! never at which allocation holds it.

use crate::intern::Sym;
use crate::template::Term;
use crate::value::Value;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A ground data-item name: `base(p1, …, pk)`. `salary1("e42")` and
/// `balance(17)` are items; `X` (no parameters) is an item too.
///
/// The base name is an interned [`Sym`]: equality, hashing and routing
/// on items are O(1) on a `u32` symbol, and the string is only touched
/// when formatting. Cloning an item copies the symbol and bumps the
/// parameters' reference count.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId {
    /// The interned base name, e.g. `salary1`.
    pub base: Sym,
    /// Ground parameter values, empty for unparameterized items;
    /// shared by every clone of the item.
    pub params: Arc<[Value]>,
}

/// The parameters of every unparameterized item: one shared empty
/// slice, so naming `X` allocates nothing.
fn no_params() -> Arc<[Value]> {
    static EMPTY: OnceLock<Arc<[Value]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new([])))
}

impl ItemId {
    /// An unparameterized item, e.g. `ItemId::plain("X")`.
    #[must_use]
    pub fn plain(base: impl Into<Sym>) -> Self {
        ItemId {
            base: base.into(),
            params: no_params(),
        }
    }

    /// A parameterized item, e.g. `ItemId::with("salary1", ["e42"])`.
    /// An iterator of known exact length (an array, a `Vec`, a mapped
    /// slice or range) fills the shared slice in one allocation.
    #[must_use]
    pub fn with(base: impl Into<Sym>, params: impl IntoIterator<Item = Value>) -> Self {
        let params = params.into_iter();
        ItemId {
            base: base.into(),
            params: if params.size_hint().1 == Some(0) {
                no_params()
            } else {
                params.collect()
            },
        }
    }

    /// `base(v1, …, vk)` where `param` resolves each of `terms` to its
    /// value `vi`; `None` when one does not resolve. Every term is
    /// resolved before anything is built, so the parameters take one
    /// allocation and an item that does not resolve takes none.
    #[must_use]
    pub fn resolve<'v, T>(
        base: Sym,
        terms: &'v [T],
        param: impl Fn(&'v T) -> Option<&'v Value>,
    ) -> Option<ItemId> {
        if !terms.iter().all(|t| param(t).is_some()) {
            return None;
        }
        let values = terms.iter().map(|t| param(t).expect("resolved above"));
        Some(ItemId::with(base, values.cloned()))
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
    fn identity_is_by_content() {
        use std::cmp::Ordering;
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |item: &ItemId| {
            let mut h = DefaultHasher::new();
            item.hash(&mut h);
            h.finish()
        };
        let cases = [
            ("salary1", vec![Value::from("e42")], r#"salary1("e42")"#),
            ("balance", vec![Value::Int(17)], "balance(17)"),
            (
                "pair",
                vec![Value::from("a"), Value::Int(2)],
                r#"pair("a", 2)"#,
            ),
            ("X", vec![], "X"),
        ];
        let debug = [
            r#"ItemId { base: "salary1", params: [Str("e42")] }"#,
            r#"ItemId { base: "balance", params: [Int(17)] }"#,
            r#"ItemId { base: "pair", params: [Str("a"), Int(2)] }"#,
            r#"ItemId { base: "X", params: [] }"#,
        ];
        let other = ItemId::with("m", [Value::Int(0)]);
        for ((base, params, shown), debug) in cases.into_iter().zip(debug) {
            let shared = ItemId::with(base, params.clone());
            let cloned = shared.clone();
            let fresh = ItemId::with(base, params);
            // The clone shares the parameters; the fresh item does not
            // (every unparameterized item shares the one empty slice).
            assert!(Arc::ptr_eq(&cloned.params, &shared.params));
            assert_eq!(
                Arc::ptr_eq(&fresh.params, &shared.params),
                fresh.params.is_empty()
            );
            assert_eq!(cloned, fresh);
            assert_eq!(cloned.cmp(&fresh), Ordering::Equal);
            assert_eq!(cloned.cmp(&other), fresh.cmp(&other));
            assert_eq!(hash(&cloned), hash(&fresh));
            assert_eq!(cloned.to_string(), shown);
            assert_eq!(fresh.to_string(), shown);
            assert_eq!(format!("{cloned:?}"), debug);
            assert_eq!(format!("{fresh:?}"), debug);
        }
        assert_eq!(ItemId::plain("X"), ItemId::with("X", []));
    }
}
