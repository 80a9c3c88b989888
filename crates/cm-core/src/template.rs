//! Terms and event templates.
//!
//! Appendix A of the paper defines an *event template* as "an event
//! descriptor in which some of the components are parameterized or
//! wild-carded", and a *matching interpretation* `mi(E, 𝓔)` as the
//! variable assignment under which template `𝓔` yields event `E`.
//! [`Term`] is a template component and [`TemplateDesc`] mirrors
//! [`EventDesc`](crate::event::EventDesc) with terms in value
//! positions.
//!
//! This module holds templates as rules are written. Matching, in
//! every form, is done once, by the slot-compiled rules of
//! `hcm_rulelang::slots`, which the CM-Shell, the CM-Translator and the
//! checker share: matching an event builds its interpretation, and
//! matching a bare data item against a template's item pattern serves
//! the translator's interface lookup and its filter over enumerated
//! items.
//!
//! The special `false` template `𝓕` ([`TemplateDesc::False`]) matches no
//! event; it is how the *no-spontaneous-write* interface is written:
//! `Ws(X, b) → 𝓕`.

use crate::item::ItemPattern;
use crate::value::Value;
use std::fmt;

/// A component of a template: a named variable, a constant, or a
/// wild-card (`*` in the paper — "a parameter whose name is not
/// important").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A rule variable such as `b` in `WR(X, b)`. Lower-case by the
    /// paper's convention, though this is not enforced.
    Var(String),
    /// A ground constant.
    Const(Value),
    /// The wild-card `*`: matches anything, binds nothing.
    Wild,
}

impl Term {
    /// Convenience constructor for a variable term.
    #[must_use]
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::Wild => write!(f, "*"),
        }
    }
}

/// An event template: the descriptor set of Appendix A with terms in
/// value positions. See [`EventDesc`](crate::event::EventDesc) for the
/// event-side meaning of each variant.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateDesc {
    /// Spontaneous write `Ws(X, a, b)`. The paper's two-argument
    /// `Ws(X, b)` form is sugar for `Ws(X, *, b)`; `old` is `None` in
    /// that case.
    Ws {
        /// Item pattern being written.
        item: ItemPattern,
        /// Old-value term (`None` ⇢ wild-carded, the `Ws(X, b)` sugar).
        old: Option<Term>,
        /// New-value term.
        new: Term,
    },
    /// Generated write `W(X, b)`: the database performs `X ← b`.
    W {
        /// Item pattern being written.
        item: ItemPattern,
        /// Written-value term.
        value: Term,
    },
    /// Write request `WR(X, b)`: the database receives `X ← b` from the CM.
    Wr {
        /// Item pattern.
        item: ItemPattern,
        /// Requested-value term.
        value: Term,
    },
    /// Read request `RR(X)`: the database receives a read request.
    Rr {
        /// Item pattern.
        item: ItemPattern,
    },
    /// Read response `R(X, b)`: the CM receives the current value of `X`.
    R {
        /// Item pattern.
        item: ItemPattern,
        /// Value term.
        value: Term,
    },
    /// Notification `N(X, b)`: the CM learns that `X` now holds `b`.
    N {
        /// Item pattern.
        item: ItemPattern,
        /// Value term.
        value: Term,
    },
    /// Periodic event `P(p)`: occurs every `p` by definition.
    P {
        /// Period term (constant in every practical rule).
        period: Term,
    },
    /// Protocol-specific event `name(args…)`; the paper notes the
    /// descriptor set "can be expanded by adding new templates and their
    /// semantics" — the demarcation protocol's limit-change requests use
    /// this.
    Custom {
        /// Event name.
        name: String,
        /// Argument terms.
        args: Vec<Term>,
    },
    /// The false template `𝓕`: matches no event, used as the RHS of
    /// prohibition interfaces such as *no spontaneous writes*.
    False,
}

impl TemplateDesc {
    /// The item pattern this template concerns, if any (`P` and `𝓕` have
    /// none; `Custom` events are not item-addressed).
    #[must_use]
    pub fn item_pattern(&self) -> Option<&ItemPattern> {
        match self {
            TemplateDesc::Ws { item, .. }
            | TemplateDesc::W { item, .. }
            | TemplateDesc::Wr { item, .. }
            | TemplateDesc::Rr { item }
            | TemplateDesc::R { item, .. }
            | TemplateDesc::N { item, .. } => Some(item),
            _ => None,
        }
    }
}

impl fmt::Display for TemplateDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateDesc::Ws { item, old, new } => match old {
                Some(o) => write!(f, "Ws({item}, {o}, {new})"),
                None => write!(f, "Ws({item}, {new})"),
            },
            TemplateDesc::W { item, value } => write!(f, "W({item}, {value})"),
            TemplateDesc::Wr { item, value } => write!(f, "WR({item}, {value})"),
            TemplateDesc::Rr { item } => write!(f, "RR({item})"),
            TemplateDesc::R { item, value } => write!(f, "R({item}, {value})"),
            TemplateDesc::N { item, value } => write!(f, "N({item}, {value})"),
            TemplateDesc::P { period } => write!(f, "P({period})"),
            TemplateDesc::Custom { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            TemplateDesc::False => write!(f, "false"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let t = TemplateDesc::N {
            item: ItemPattern::with("salary1", [Term::var("n")]),
            value: Term::var("b"),
        };
        assert_eq!(t.to_string(), "N(salary1(n), b)");
        assert_eq!(TemplateDesc::False.to_string(), "false");
        let ws = TemplateDesc::Ws {
            item: ItemPattern::plain("X"),
            old: Some(Term::var("a")),
            new: Term::var("b"),
        };
        assert_eq!(ws.to_string(), "Ws(X, a, b)");
    }
}
