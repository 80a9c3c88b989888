//! Terms, bindings, and event templates.
//!
//! Appendix A of the paper defines an *event template* as "an event
//! descriptor in which some of the components are parameterized or
//! wild-carded", and a *matching interpretation* `mi(E, 𝓔)` as the
//! variable assignment under which template `𝓔` yields event `E`.
//! [`Term`] is a template component, [`Bindings`] is the matching
//! interpretation, and [`TemplateDesc`] mirrors [`EventDesc`]
//! (`crate::event::EventDesc`) with terms in value positions.
//!
//! The special `false` template `𝓕` ([`TemplateDesc::False`]) matches no
//! event; it is how the *no-spontaneous-write* interface is written:
//! `Ws(X, b) → 𝓕`.

use crate::event::EventDesc;
use crate::item::{consistent, zipped, ItemPattern};
use crate::value::Value;
use std::collections::BTreeMap;
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

    /// Unify the term with a concrete value, extending `bindings`.
    /// A variable already bound must agree with its binding.
    pub(crate) fn unify(&self, value: &Value, bindings: &mut Bindings) -> bool {
        match self {
            Term::Wild => true,
            Term::Const(c) => c == value,
            Term::Var(name) => match bindings.get(name) {
                Some(bound) => bound == value,
                None => {
                    bindings.bind(name.clone(), value.clone());
                    true
                }
            },
        }
    }

    /// Resolve the term to a value under `bindings`. Wild-cards and
    /// unbound variables yield `None`.
    #[must_use]
    pub(crate) fn resolve<'b>(&'b self, bindings: &'b Bindings) -> Option<&'b Value> {
        match self {
            Term::Const(c) => Some(c),
            Term::Var(name) => bindings.get(name),
            Term::Wild => None,
        }
    }

    /// [`Term::resolve`], cloned.
    #[must_use]
    pub(crate) fn instantiate(&self, bindings: &Bindings) -> Option<Value> {
        self.resolve(bindings).cloned()
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

/// The matching interpretation: an assignment of rule variables to
/// values, built up during template matching and consumed when
/// instantiating right-hand sides. Insertion order is irrelevant
/// (`BTreeMap` keeps iteration deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bindings {
    map: BTreeMap<String, Value>,
    log: Vec<String>,
}

impl Bindings {
    /// The empty assignment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a variable.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.map.get(name)
    }

    /// Bind a variable. Overwrites silently; unification (not this
    /// method) is responsible for consistency checks.
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        let name = name.into();
        if self.map.insert(name.clone(), value).is_none() {
            self.log.push(name);
        }
    }

    /// `true` when no variable is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A checkpoint for [`Bindings::rollback`]: unification of a
    /// multi-component template may bind some variables and then fail on
    /// a later component, in which case the paper's semantics require no
    /// match (and hence no residual bindings).
    #[must_use]
    pub fn checkpoint(&self) -> usize {
        self.log.len()
    }

    /// Undo every binding made after `checkpoint` was taken.
    pub fn rollback(&mut self, checkpoint: usize) {
        while self.log.len() > checkpoint {
            let name = self.log.pop().expect("log length checked");
            self.map.remove(&name);
        }
    }

    /// Iterate over `(variable, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Drop every binding (keeping the log's allocation), so one
    /// `Bindings` can serve as a scratch buffer across match attempts.
    pub fn clear(&mut self) {
        self.map.clear();
        self.log.clear();
    }
}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
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
/// pairs both [`TemplateDesc::match_desc`] and
/// [`TemplateDesc::matches`] unify, in order.
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

    /// Match an event descriptor against this template, extending
    /// `bindings` with the matching interpretation. On failure the
    /// bindings are rolled back to their state at entry.
    pub fn match_desc(&self, desc: &EventDesc, bindings: &mut Bindings) -> bool {
        let checkpoint = bindings.checkpoint();
        let ok = match self.pairs(desc) {
            Some(Pairs::Terms(terms, values, extra)) => {
                zipped(terms, values, extra).all(|(t, v)| t.unify(v, bindings))
            }
            Some(Pairs::Period(t, ms)) => t.unify(&ms, bindings),
            None => false,
        };
        if !ok {
            bindings.rollback(checkpoint);
        }
        ok
    }

    /// Whether `desc` matches this template under an empty matching
    /// interpretation — [`TemplateDesc::match_desc`] with fresh
    /// [`Bindings`], answering yes or no without building them. A
    /// variable that occurs twice (`N(x(n), n)`) must see equal values.
    #[must_use]
    pub fn matches(&self, desc: &EventDesc) -> bool {
        match self.pairs(desc) {
            Some(Pairs::Terms(terms, values, extra)) => consistent(zipped(terms, values, extra)),
            Some(Pairs::Period(t, ms)) => !matches!(t, Term::Const(c) if *c != ms),
            None => false,
        }
    }

    /// Instantiate the template into a ground event descriptor using
    /// `bindings`. Returns `None` when a needed variable is unbound or
    /// the template is `𝓕` (which denotes no event).
    #[must_use]
    pub fn instantiate(&self, bindings: &Bindings) -> Option<EventDesc> {
        match self {
            TemplateDesc::Ws { item, old, new } => Some(EventDesc::Ws {
                item: item.instantiate(bindings)?,
                old: match old {
                    Some(t) => Some(t.instantiate(bindings)?),
                    None => None,
                },
                new: new.instantiate(bindings)?,
            }),
            TemplateDesc::W { item, value } => Some(EventDesc::W {
                item: item.instantiate(bindings)?,
                value: value.instantiate(bindings)?,
            }),
            TemplateDesc::Wr { item, value } => Some(EventDesc::Wr {
                item: item.instantiate(bindings)?,
                value: value.instantiate(bindings)?,
            }),
            TemplateDesc::Rr { item } => Some(EventDesc::Rr {
                item: item.instantiate(bindings)?,
            }),
            TemplateDesc::R { item, value } => Some(EventDesc::R {
                item: item.instantiate(bindings)?,
                value: value.instantiate(bindings)?,
            }),
            TemplateDesc::N { item, value } => Some(EventDesc::N {
                item: item.instantiate(bindings)?,
                value: value.instantiate(bindings)?,
            }),
            TemplateDesc::P { period } => {
                let v = period.instantiate(bindings)?;
                let ms = v.as_int()?;
                (ms >= 0).then(|| EventDesc::P {
                    period: crate::time::SimDuration::from_millis(ms as u64),
                })
            }
            TemplateDesc::Custom { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.instantiate(bindings)?);
                }
                Some(EventDesc::Custom {
                    name: name.clone(),
                    args: vals,
                })
            }
            TemplateDesc::False => None,
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

    fn x() -> ItemPattern {
        ItemPattern::plain("X")
    }

    #[test]
    fn term_unification() {
        let mut b = Bindings::new();
        assert!(Term::Wild.unify(&Value::Int(1), &mut b));
        assert!(b.is_empty());
        assert!(Term::Const(Value::Int(1)).unify(&Value::Int(1), &mut b));
        assert!(!Term::Const(Value::Int(1)).unify(&Value::Int(2), &mut b));
        assert!(Term::var("v").unify(&Value::Int(7), &mut b));
        assert!(Term::var("v").unify(&Value::Int(7), &mut b));
        assert!(!Term::var("v").unify(&Value::Int(8), &mut b));
    }

    #[test]
    fn bindings_rollback() {
        let mut b = Bindings::new();
        b.bind("a", Value::Int(1));
        let cp = b.checkpoint();
        b.bind("c", Value::Int(3));
        b.bind("d", Value::Int(4));
        b.rollback(cp);
        assert_eq!(b.get("a"), Some(&Value::Int(1)));
        assert_eq!(b.get("c"), None);
        assert_eq!(b.get("d"), None);
    }

    #[test]
    fn notify_template_matches_and_binds() {
        let t = TemplateDesc::N {
            item: x(),
            value: Term::var("b"),
        };
        let e = EventDesc::N {
            item: ItemId::plain("X"),
            value: Value::Int(42),
        };
        let mut b = Bindings::new();
        assert!(t.match_desc(&e, &mut b));
        assert_eq!(b.get("b"), Some(&Value::Int(42)));
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
        let mut b = Bindings::new();
        assert!(!t.match_desc(&e, &mut b));
        assert!(b.is_empty());
    }

    #[test]
    fn ws_sugar_ignores_old_value() {
        let t = TemplateDesc::Ws {
            item: x(),
            old: None,
            new: Term::var("b"),
        };
        let e = EventDesc::Ws {
            item: ItemId::plain("X"),
            old: Some(Value::Int(1)),
            new: Value::Int(2),
        };
        let mut b = Bindings::new();
        assert!(t.match_desc(&e, &mut b));
        assert_eq!(b.get("b"), Some(&Value::Int(2)));
    }

    #[test]
    fn ws_three_arg_binds_old_and_new() {
        let t = TemplateDesc::Ws {
            item: x(),
            old: Some(Term::var("a")),
            new: Term::var("b"),
        };
        let e = EventDesc::Ws {
            item: ItemId::plain("X"),
            old: Some(Value::Int(1)),
            new: Value::Int(2),
        };
        let mut b = Bindings::new();
        assert!(t.match_desc(&e, &mut b));
        assert_eq!(b.get("a"), Some(&Value::Int(1)));
        assert_eq!(b.get("b"), Some(&Value::Int(2)));
        // Old value required but unrecorded: only `*` may match.
        let e2 = EventDesc::Ws {
            item: ItemId::plain("X"),
            old: None,
            new: Value::Int(2),
        };
        let mut b2 = Bindings::new();
        assert!(!t.match_desc(&e2, &mut b2));
        assert!(b2.is_empty());
    }

    #[test]
    fn false_template_never_matches() {
        let e = EventDesc::Ws {
            item: ItemId::plain("X"),
            old: None,
            new: Value::Int(2),
        };
        let mut b = Bindings::new();
        assert!(!TemplateDesc::False.match_desc(&e, &mut b));
        assert_eq!(TemplateDesc::False.instantiate(&b), None);
    }

    #[test]
    fn periodic_template() {
        let t = TemplateDesc::P {
            period: Term::Const(Value::Int(300_000)),
        };
        let e = EventDesc::P {
            period: SimDuration::from_secs(300),
        };
        let mut b = Bindings::new();
        assert!(t.match_desc(&e, &mut b));
        let wrong = EventDesc::P {
            period: SimDuration::from_secs(60),
        };
        assert!(!t.match_desc(&wrong, &mut b));
    }

    #[test]
    fn parameterized_round_trip() {
        // N(salary1(n), b) matched, then WR(salary2(n), b) instantiated —
        // the §4.2 strategy in miniature.
        let lhs = TemplateDesc::N {
            item: ItemPattern::with("salary1", [Term::var("n")]),
            value: Term::var("b"),
        };
        let rhs = TemplateDesc::Wr {
            item: ItemPattern::with("salary2", [Term::var("n")]),
            value: Term::var("b"),
        };
        let e = EventDesc::N {
            item: ItemId::with("salary1", [Value::from("e42")]),
            value: Value::Int(90_000),
        };
        let mut b = Bindings::new();
        assert!(lhs.match_desc(&e, &mut b));
        let out = rhs.instantiate(&b).expect("all variables bound");
        assert_eq!(
            out,
            EventDesc::Wr {
                item: ItemId::with("salary2", [Value::from("e42")]),
                value: Value::Int(90_000),
            }
        );
    }

    #[test]
    fn instantiate_fails_on_unbound() {
        let rhs = TemplateDesc::Wr {
            item: x(),
            value: Term::var("zz"),
        };
        assert_eq!(rhs.instantiate(&Bindings::new()), None);
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
        let mut b = Bindings::new();
        assert!(t.match_desc(&e, &mut b));
        assert_eq!(b.get("amt"), Some(&Value::Int(50)));
        let other = EventDesc::Custom {
            name: "Other".into(),
            args: vec![Value::Int(50)],
        };
        assert!(!t.match_desc(&other, &mut b));
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
