//! Terms and event templates.
//!
//! Appendix A of the paper defines an *event template* as "an event
//! descriptor in which some of the components are parameterized or
//! wild-carded", and a *matching interpretation* `mi(E, 𝓔)` as the
//! variable assignment under which template `𝓔` yields event `E`.
//! [`Term`] is a template component and [`TemplateDesc`] mirrors
//! [`EventDesc`] (`crate::event::EventDesc`) with terms in value
//! positions.
//!
//! This module holds templates as rules are written. Matching that
//! builds an interpretation, and instantiating templates under one, is
//! done once, by the slot-compiled rules of `hcm_rulelang::slots`,
//! which the CM-Shell, the CM-Translator and the checker share. What
//! stays here is the yes-or-no test [`TemplateDesc::matches`]: does an
//! event match a template under a fresh interpretation. Interest
//! filters, interface lookup and the rule index's tests ask only that.
//!
//! The special `false` template `𝓕` ([`TemplateDesc::False`]) matches no
//! event; it is how the *no-spontaneous-write* interface is written:
//! `Ws(X, b) → 𝓕`.

use crate::event::EventDesc;
use crate::item::{consistent, zipped, ItemPattern};
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
/// value positions. See [`EventDesc`] for the event-side meaning of each
/// variant.
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

/// What matching an event against a template compares: the term/value
/// pairs [`TemplateDesc::matches`] unifies, in order.
enum Pairs<'a> {
    /// The item's parameter terms (or a custom event's argument terms)
    /// beside the event's values, then up to two value terms.
    Terms(&'a [Term], &'a [Value], [Option<(&'a Term, &'a Value)>; 2]),
    /// A `P` template's period term and the event's period in
    /// milliseconds.
    Period(&'a Term, Value),
}

impl TemplateDesc {
    /// The pairs to unify with `desc`; `None` when the kind, item base,
    /// custom name or arity differs, or when an explicit old-value term
    /// meets an unrecorded old value (which only `*` matches).
    fn pairs<'a>(&'a self, desc: &'a EventDesc) -> Option<Pairs<'a>> {
        let (item, i, extra) = match (self, desc) {
            (
                TemplateDesc::Ws { item, old, new },
                EventDesc::Ws {
                    item: i,
                    old: o,
                    new: n,
                },
            ) => {
                let old = match (old, o) {
                    (None, _) | (Some(Term::Wild), None) => None,
                    (Some(term), Some(ov)) => Some((term, ov)),
                    (Some(_), None) => return None,
                };
                (item, i, [old, Some((new, n))])
            }
            (TemplateDesc::W { item, value }, EventDesc::W { item: i, value: v })
            | (TemplateDesc::Wr { item, value }, EventDesc::Wr { item: i, value: v })
            | (TemplateDesc::R { item, value }, EventDesc::R { item: i, value: v })
            | (TemplateDesc::N { item, value }, EventDesc::N { item: i, value: v }) => {
                (item, i, [Some((value, v)), None])
            }
            (TemplateDesc::Rr { item }, EventDesc::Rr { item: i }) => (item, i, [None, None]),
            (TemplateDesc::P { period }, EventDesc::P { period: p }) => {
                return Some(Pairs::Period(period, Value::Int(p.as_millis() as i64)));
            }
            (TemplateDesc::Custom { name, args }, EventDesc::Custom { name: n, args: a }) => {
                let same = name == n && args.len() == a.len();
                return same.then_some(Pairs::Terms(args, a, [None, None]));
            }
            _ => return None,
        };
        let same = item.base == i.base && item.params.len() == i.params.len();
        same.then_some(Pairs::Terms(&item.params, &i.params, extra))
    }

    /// Whether `desc` matches this template under an empty matching
    /// interpretation, answered yes or no without building one. A
    /// variable that occurs twice (`N(x(n), n)`) must see equal values,
    /// a `*` matches anything, and an explicit old-value term matches
    /// an unrecorded old value only when it is `*`.
    #[must_use]
    pub fn matches(&self, desc: &EventDesc) -> bool {
        match self.pairs(desc) {
            Some(Pairs::Terms(terms, values, extra)) => consistent(zipped(terms, values, extra)),
            Some(Pairs::Period(t, ms)) => !matches!(t, Term::Const(c) if *c != ms),
            None => false,
        }
    }

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
    use crate::item::ItemId;
    use crate::time::SimDuration;

    // Matching that binds an interpretation is tested where it lives,
    // in `hcm_rulelang::slots`; these pin the yes-or-no `matches`.

    fn x() -> ItemPattern {
        ItemPattern::plain("X")
    }

    #[test]
    fn kind_mismatch_fails_cleanly() {
        let t = TemplateDesc::N {
            item: x(),
            value: Term::var("b"),
        };
        let e = EventDesc::W {
            item: ItemId::plain("X"),
            value: Value::Int(42),
        };
        assert!(!t.matches(&e));
        let n = EventDesc::N {
            item: ItemId::plain("X"),
            value: Value::Int(42),
        };
        assert!(t.matches(&n));
    }

    #[test]
    fn ws_sugar_ignores_old_value() {
        let t = TemplateDesc::Ws {
            item: x(),
            old: None,
            new: Term::var("b"),
        };
        for old in [Some(Value::Int(1)), None] {
            let e = EventDesc::Ws {
                item: ItemId::plain("X"),
                old,
                new: Value::Int(2),
            };
            assert!(t.matches(&e));
        }
        // Old value required but unrecorded: only `*` may match.
        let unrecorded = EventDesc::Ws {
            item: ItemId::plain("X"),
            old: None,
            new: Value::Int(2),
        };
        let with_old = |old| TemplateDesc::Ws {
            item: x(),
            old: Some(old),
            new: Term::var("b"),
        };
        assert!(!with_old(Term::var("a")).matches(&unrecorded));
        assert!(with_old(Term::Wild).matches(&unrecorded));
    }

    #[test]
    fn false_template_never_matches() {
        let e = EventDesc::Ws {
            item: ItemId::plain("X"),
            old: None,
            new: Value::Int(2),
        };
        assert!(!TemplateDesc::False.matches(&e));
    }

    #[test]
    fn periodic_template() {
        let t = TemplateDesc::P {
            period: Term::Const(Value::Int(300_000)),
        };
        let e = EventDesc::P {
            period: SimDuration::from_secs(300),
        };
        assert!(t.matches(&e));
        let wrong = EventDesc::P {
            period: SimDuration::from_secs(60),
        };
        assert!(!t.matches(&wrong));
        let any = TemplateDesc::P {
            period: Term::var("p"),
        };
        assert!(any.matches(&wrong));
    }

    #[test]
    fn custom_template() {
        let t = TemplateDesc::Custom {
            name: "LimitChangeReq".into(),
            args: vec![Term::var("amt")],
        };
        let e = EventDesc::Custom {
            name: "LimitChangeReq".into(),
            args: vec![Value::Int(50)],
        };
        assert!(t.matches(&e));
        let other = EventDesc::Custom {
            name: "Other".into(),
            args: vec![Value::Int(50)],
        };
        assert!(!t.matches(&other));
        let arity = EventDesc::Custom {
            name: "LimitChangeReq".into(),
            args: vec![Value::Int(50), Value::Int(1)],
        };
        assert!(!t.matches(&arity));
    }

    #[test]
    fn display_forms() {
        let t = TemplateDesc::N {
            item: ItemPattern::with("salary1", [Term::var("n")]),
            value: Term::var("b"),
        };
        assert_eq!(t.to_string(), "N(salary1(n), b)");
        assert_eq!(TemplateDesc::False.to_string(), "false");
        let ws = TemplateDesc::Ws {
            item: x(),
            old: Some(Term::var("a")),
            new: Term::var("b"),
        };
        assert_eq!(ws.to_string(), "Ws(X, a, b)");
    }
}
