//! AST for the rule language.
//!
//! Conditions (`C` in `E₁ ∧ C →δ E₂`) read rule parameters, bound by
//! the matching interpretation of the LHS event, and data items, read
//! from whatever local state the evaluating component can see — "the
//! condition `C` can refer to data at the site of the right-hand side
//! event only" (§3.2). They are evaluated in their compiled form, by
//! [`crate::slots`].

use hcm_core::{ItemPattern, SimDuration, SimTime, TemplateDesc, Value};
use std::fmt;

/// Comparison operators of the condition and guarantee languages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to two values; `None` when incomparable.
    #[must_use]
    pub fn apply(self, a: &Value, b: &Value) -> Option<bool> {
        match self {
            CmpOp::Eq => Some(a == b),
            CmpOp::Ne => Some(a != b),
            _ => {
                let ord = a.compare(b)?;
                Some(match self {
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                    CmpOp::Eq | CmpOp::Ne => unreachable!(),
                })
            }
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A value-level expression in a condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A (possibly parameterized) local data item, e.g. `Cx` or
    /// `salary1(n)`.
    Item(ItemPattern),
    /// A rule parameter bound by the matching interpretation.
    Var(String),
    /// A literal.
    Lit(Value),
    /// Unary negation.
    Neg(Box<Expr>),
    /// `abs(e)`.
    Abs(Box<Expr>),
    /// `a + b`.
    Add(Box<Expr>, Box<Expr>),
    /// `a - b`.
    Sub(Box<Expr>, Box<Expr>),
    /// `a * b`.
    Mul(Box<Expr>, Box<Expr>),
    /// `a / b`.
    Div(Box<Expr>, Box<Expr>),
}

/// One input a condition or expression reads, as [`Cond::visit`]
/// yields it.
#[derive(Debug, Clone, Copy)]
pub enum Mention<'a> {
    /// A data item: an `Expr::Item` read or a `Cond::Exists` test.
    Item(&'a ItemPattern),
    /// A rule parameter or data variable (`Expr::Var`).
    Var(&'a str),
}

impl Expr {
    /// Call `f` on every item pattern and variable the expression
    /// reads, left to right.
    pub(crate) fn visit<'a>(&'a self, f: &mut impl FnMut(Mention<'a>)) {
        match self {
            Expr::Item(p) => f(Mention::Item(p)),
            Expr::Var(v) => f(Mention::Var(v)),
            Expr::Lit(_) => {}
            Expr::Neg(a) | Expr::Abs(a) => a.visit(f),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.visit(f);
                b.visit(f);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Item(p) => write!(f, "{p}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Neg(e) => write!(f, "-{e}"),
            Expr::Abs(e) => write!(f, "abs({e})"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

/// A boolean condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Always true (omitted condition).
    True,
    /// Comparison between two expressions.
    Cmp(Expr, CmpOp, Expr),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
    /// The paper's exists-predicate `E(X)` (§6.2): the item is present
    /// (non-null) in its database.
    Exists(ItemPattern),
}

impl Cond {
    /// Call `f` on every item pattern and variable the condition reads,
    /// left to right.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(Mention<'a>)) {
        match self {
            Cond::True => {}
            Cond::Cmp(a, _, b) => {
                a.visit(f);
                b.visit(f);
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Cond::Not(c) => c.visit(f),
            Cond::Exists(p) => f(Mention::Item(p)),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::True => write!(f, "true"),
            Cond::Cmp(a, op, b) => write!(f, "{a} {op} {b}"),
            Cond::And(a, b) => write!(f, "{a} and {b}"),
            Cond::Or(a, b) => write!(f, "({a} or {b})"),
            Cond::Not(c) => write!(f, "not ({c})"),
            Cond::Exists(p) => write!(f, "exists({p})"),
        }
    }
}

/// An interface statement `E₁ ∧ C →δ E₂` (§3.1): if an event matching
/// `lhs` occurs at `t` and `cond` holds at `t`, the database guarantees
/// an event matching `rhs` within `[t, t + bound]`.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceStmt {
    /// Triggering event template.
    pub lhs: TemplateDesc,
    /// Condition evaluated when the LHS event occurs (`Cond::True` if
    /// omitted).
    pub cond: Cond,
    /// Promised event template (`TemplateDesc::False` for prohibition
    /// interfaces).
    pub rhs: TemplateDesc,
    /// The time bound δ. Meaningless (zero) when `rhs` is `False`.
    pub bound: SimDuration,
}

impl fmt::Display for InterfaceStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.lhs)?;
        if self.cond != Cond::True {
            write!(f, " when {}", self.cond)?;
        }
        write!(f, " -> {}", self.rhs)?;
        if self.rhs != TemplateDesc::False {
            write!(f, " within {}", self.bound)?;
        }
        Ok(())
    }
}

/// One step of a strategy rule's sequenced right-hand side: `Cᵢ?Eᵢ`.
#[derive(Debug, Clone, PartialEq)]
pub struct RhsStep {
    /// Condition evaluated at the step's firing time, at the RHS site
    /// (`Cond::True` if omitted). If false, the step's event does not
    /// occur, but later steps still execute.
    pub cond: Cond,
    /// The event to generate.
    pub event: TemplateDesc,
}

/// A strategy rule `E₀ ∧ C₀ →δ C₁?E₁; …; Cₖ?Eₖ` (§3.2, Appendix A.1).
/// All RHS events are at the same site (the paper's footnote 7); steps
/// execute in order within the bound.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRule {
    /// Triggering event template.
    pub lhs: TemplateDesc,
    /// LHS condition, evaluated at the trigger's site and time.
    pub cond: Cond,
    /// Sequenced right-hand side.
    pub steps: Vec<RhsStep>,
    /// The overall bound δ for completing all steps.
    pub bound: SimDuration,
}

impl fmt::Display for StrategyRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.lhs)?;
        if self.cond != Cond::True {
            write!(f, " when {}", self.cond)?;
        }
        write!(f, " -> ")?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, " ; ")?;
            }
            if s.cond != Cond::True {
                write!(f, "if {} then {}", s.cond, s.event)?;
            } else {
                write!(f, "{}", s.event)?;
            }
        }
        write!(f, " within {}", self.bound)
    }
}

/// A time expression in a guarantee: a variable, an absolute constant,
/// or a variable offset by a constant (`t - 10s`).
#[derive(Debug, Clone, PartialEq)]
pub enum TimeExpr {
    /// A universally/existentially quantified time variable.
    Var(String),
    /// An absolute instant.
    Const(SimTime),
    /// `var + offset_ms` (offset may be negative).
    Offset(String, i64),
}

impl TimeExpr {
    /// Time variables mentioned.
    #[must_use]
    pub(crate) fn vars(&self) -> Vec<&str> {
        match self {
            TimeExpr::Const(_) => vec![],
            TimeExpr::Var(v) | TimeExpr::Offset(v, _) => vec![v.as_str()],
        }
    }
}

impl fmt::Display for TimeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeExpr::Var(v) => write!(f, "{v}"),
            TimeExpr::Const(t) => write!(f, "{}ms", t.as_millis()),
            TimeExpr::Offset(v, off) => {
                if *off >= 0 {
                    write!(f, "{v} + {off}ms")
                } else {
                    write!(f, "{v} - {}ms", -off)
                }
            }
        }
    }
}

/// An atomic guarantee clause.
#[derive(Debug, Clone, PartialEq)]
pub enum GAtom {
    /// `(cond) @ t` — the state condition holds at instant `t`.
    At(Cond, TimeExpr),
    /// `(cond) @@ [a, b]` — holds at *every* instant of `[a, b]`
    /// (the paper's `@@` in the §6.3 monitor guarantee).
    Throughout(Cond, TimeExpr, TimeExpr),
    /// `(cond) @? [a, b]` — holds at *some* instant of `[a, b]`
    /// (the §6.2 "within 24 hours" referential-integrity form).
    Sometime(Cond, TimeExpr, TimeExpr),
    /// Comparison between time expressions, e.g. `t2 < t1`.
    TimeCmp(TimeExpr, CmpOp, TimeExpr),
}

impl GAtom {
    /// Time variables mentioned by this atom.
    #[must_use]
    pub fn time_vars(&self) -> Vec<&str> {
        match self {
            GAtom::At(_, t) => t.vars(),
            GAtom::Throughout(_, a, b) | GAtom::Sometime(_, a, b) => {
                let mut v = a.vars();
                v.extend(b.vars());
                v
            }
            GAtom::TimeCmp(a, _, b) => {
                let mut v = a.vars();
                v.extend(b.vars());
                v
            }
        }
    }
}

impl fmt::Display for GAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GAtom::At(c, t) => write!(f, "({c}) @ {t}"),
            GAtom::Throughout(c, a, b) => write!(f, "({c}) @@ [{a}, {b}]"),
            GAtom::Sometime(c, a, b) => write!(f, "({c}) @? [{a}, {b}]"),
            GAtom::TimeCmp(a, op, b) => write!(f, "{a} {op} {b}"),
        }
    }
}

/// A guarantee `LHS ⇒ RHS` (§3.3): variables on the left of `⇒` are
/// universally quantified, those appearing only on the right are
/// existentially quantified. An empty LHS means the RHS must hold
/// unconditionally.
#[derive(Debug, Clone, PartialEq)]
pub struct Guarantee {
    /// Name used in reports.
    pub name: String,
    /// Antecedent atoms (conjoined).
    pub lhs: Vec<GAtom>,
    /// Consequent atoms (conjoined).
    pub rhs: Vec<GAtom>,
}

impl fmt::Display for Guarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        for (i, a) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{a}")?;
        }
        if !self.lhs.is_empty() {
            write!(f, " => ")?;
        }
        for (i, a) in self.rhs.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::{Matcher, RuleCompiler};
    use hcm_core::{EventDesc, Term};
    use std::borrow::Cow;

    /// Whether `c` holds once `vars` are bound by matching an event
    /// and data items are read from `items` by display name: the
    /// condition compiled to slots, as every engine component and the
    /// checker evaluate it.
    fn holds(c: &Cond, vars: &[(&str, Value)], items: &[(&str, Value)]) -> bool {
        let lhs = TemplateDesc::Custom {
            name: "vars".into(),
            args: vars.iter().map(|(n, _)| Term::var(*n)).collect(),
        };
        let event = EventDesc::Custom {
            name: "vars".into(),
            args: vars.iter().map(|(_, v)| v.clone()).collect(),
        };
        let mut compiler = RuleCompiler::default();
        let r = compiler.rule(&lhs, c, &[]);
        let rules = compiler.finish();
        let mut m = Matcher::new(&rules);
        assert!(m.matches(&rules.rule(r).lhs, &event));
        m.holds(&rules.rule(r).cond, |item| {
            let name = item.to_string();
            let found = items.iter().find(|(n, _)| *n == name);
            found.map(|(_, v)| Cow::Owned(v.clone()))
        })
    }

    /// Whether `e` evaluates to `v`.
    fn value_is(e: &Expr, v: Value, vars: &[(&str, Value)]) -> bool {
        holds(&Cond::Cmp(e.clone(), CmpOp::Eq, Expr::Lit(v)), vars, &[])
    }

    /// Whether `e` has no value: neither `e = e` nor `e != e` holds.
    fn missing(e: &Expr, vars: &[(&str, Value)]) -> bool {
        let cmp = |op| holds(&Cond::Cmp(e.clone(), op, e.clone()), vars, &[]);
        !cmp(CmpOp::Eq) && !cmp(CmpOp::Ne)
    }

    #[test]
    fn visit_yields_items_and_vars_in_order() {
        let item = |n: &str| Expr::Item(ItemPattern::plain(n));
        let var = |n: &str| Expr::Var(n.into());
        let lit = |v: i64| Expr::Lit(Value::Int(v));
        // Every Cond and Expr variant appears once.
        let sum = Expr::Add(
            Box::new(Expr::Sub(Box::new(lit(1)), Box::new(var("b")))),
            Box::new(Expr::Mul(
                Box::new(Expr::Div(Box::new(item("B")), Box::new(lit(2)))),
                Box::new(var("c")),
            )),
        );
        let cond = Cond::Not(Box::new(Cond::And(
            Box::new(Cond::Cmp(
                Expr::Neg(Box::new(item("A"))),
                CmpOp::Lt,
                Expr::Abs(Box::new(var("a"))),
            )),
            Box::new(Cond::Or(
                Box::new(Cond::Cmp(sum, CmpOp::Eq, var("d"))),
                Box::new(Cond::And(
                    Box::new(Cond::True),
                    Box::new(Cond::Exists(ItemPattern::with("C", [Term::var("i")]))),
                )),
            )),
        )));
        let mut seen = Vec::new();
        cond.visit(&mut |m| {
            seen.push(match m {
                Mention::Item(p) => format!("item {p}"),
                Mention::Var(v) => format!("var {v}"),
            });
        });
        assert_eq!(
            seen,
            [
                "item A",
                "var a",
                "var b",
                "item B",
                "var c",
                "var d",
                "item C(i)"
            ]
        );
    }

    #[test]
    fn expr_arithmetic() {
        let e = Expr::Add(
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::Mul(
                Box::new(Expr::Lit(Value::Int(2))),
                Box::new(Expr::Var("b".into())),
            )),
        );
        let vars = [("a", Value::Int(1)), ("b", Value::Int(3))];
        assert!(value_is(&e, Value::Int(7), &vars));
        assert!(!value_is(&e, Value::Int(8), &vars));
    }

    #[test]
    fn expr_abs_neg_div() {
        let vars = [("a", Value::Int(-4))];
        let a = || Box::new(Expr::Var("a".into()));
        assert!(value_is(&Expr::Abs(a()), Value::Int(4), &vars));
        assert!(value_is(&Expr::Neg(a()), Value::Int(4), &vars));
        let half = Expr::Div(a(), Box::new(Expr::Lit(Value::Int(8))));
        assert!(value_is(&half, Value::Float(-0.5), &vars));
        let by_zero = Expr::Div(
            Box::new(Expr::Lit(Value::Int(1))),
            Box::new(Expr::Lit(Value::Int(0))),
        );
        assert!(missing(&by_zero, &vars));
    }

    #[test]
    fn item_lookup_with_params() {
        let pat = ItemPattern::with("salary1", [Term::var("n")]);
        let c = Cond::Cmp(Expr::Item(pat), CmpOp::Eq, Expr::Lit(Value::Int(90)));
        let items = [("salary1(\"e1\")", Value::Int(90))];
        assert!(holds(&c, &[("n", Value::from("e1"))], &items));
        assert!(!holds(&c, &[("n", Value::from("e2"))], &items));
    }

    #[test]
    fn cond_eval_basics() {
        let vars = [("b", Value::Int(5))];
        let items = [("Cx", Value::Int(4))];
        let c = Cond::Cmp(
            Expr::Item(ItemPattern::plain("Cx")),
            CmpOp::Ne,
            Expr::Var("b".into()),
        );
        assert!(holds(&c, &vars, &items));
        let c_eq = Cond::Cmp(
            Expr::Item(ItemPattern::plain("Cx")),
            CmpOp::Eq,
            Expr::Lit(Value::Int(4)),
        );
        assert!(holds(&c_eq, &vars, &items));
        assert!(!holds(&Cond::Not(Box::new(Cond::True)), &vars, &items));
        let either = Cond::Or(Box::new(c.clone()), Box::new(Cond::Not(Box::new(c_eq))));
        assert!(holds(&either, &vars, &items));
        let both = Cond::And(Box::new(c), Box::new(Cond::Not(Box::new(Cond::True))));
        assert!(!holds(&both, &vars, &items));
    }

    #[test]
    fn missing_inputs_make_comparisons_false() {
        let c = Cond::Cmp(Expr::Var("zz".into()), CmpOp::Eq, Expr::Lit(Value::Int(1)));
        assert!(!holds(&c, &[], &[]));
        // …and Not flips that, by design: Not(unknown=1) is true.
        assert!(holds(&Cond::Not(Box::new(c)), &[], &[]));
        let unread = Cond::Cmp(
            Expr::Item(ItemPattern::plain("Q")),
            CmpOp::Ne,
            Expr::Lit(Value::Int(1)),
        );
        assert!(!holds(&unread, &[], &[]));
    }

    #[test]
    fn exists_predicate() {
        let items = [("P", Value::Int(1)), ("Q", Value::Null)];
        assert!(holds(&Cond::Exists(ItemPattern::plain("P")), &[], &items));
        assert!(!holds(&Cond::Exists(ItemPattern::plain("Q")), &[], &items));
        assert!(!holds(&Cond::Exists(ItemPattern::plain("R")), &[], &items));
    }

    #[test]
    fn cmp_op_apply() {
        assert_eq!(CmpOp::Le.apply(&Value::Int(2), &Value::Int(2)), Some(true));
        assert_eq!(
            CmpOp::Gt.apply(&Value::Str("b".into()), &Value::Str("a".into())),
            Some(true)
        );
        assert_eq!(
            CmpOp::Lt.apply(&Value::Str("b".into()), &Value::Int(1)),
            None
        );
        assert_eq!(CmpOp::Ne.apply(&Value::Int(1), &Value::Int(2)), Some(true));
    }

    #[test]
    fn displays() {
        let stmt = InterfaceStmt {
            lhs: TemplateDesc::Wr {
                item: ItemPattern::plain("X"),
                value: Term::var("b"),
            },
            cond: Cond::True,
            rhs: TemplateDesc::W {
                item: ItemPattern::plain("X"),
                value: Term::var("b"),
            },
            bound: SimDuration::from_secs(1),
        };
        assert_eq!(stmt.to_string(), "WR(X, b) -> W(X, b) within 1.000s");
        let g = Guarantee {
            name: "y_follows_x".into(),
            lhs: vec![GAtom::At(
                Cond::Cmp(
                    Expr::Item(ItemPattern::plain("Y")),
                    CmpOp::Eq,
                    Expr::Var("y".into()),
                ),
                TimeExpr::Var("t1".into()),
            )],
            rhs: vec![
                GAtom::At(
                    Cond::Cmp(
                        Expr::Item(ItemPattern::plain("X")),
                        CmpOp::Eq,
                        Expr::Var("y".into()),
                    ),
                    TimeExpr::Var("t2".into()),
                ),
                GAtom::TimeCmp(
                    TimeExpr::Var("t2".into()),
                    CmpOp::Lt,
                    TimeExpr::Var("t1".into()),
                ),
            ],
        };
        assert_eq!(
            g.to_string(),
            "y_follows_x: (Y = y) @ t1 => (X = y) @ t2 and t2 < t1"
        );
    }

    #[test]
    fn gatom_time_vars() {
        let a = GAtom::Throughout(
            Cond::True,
            TimeExpr::Var("s".into()),
            TimeExpr::Offset("t".into(), -5),
        );
        assert_eq!(a.time_vars(), vec!["s", "t"]);
    }
}
