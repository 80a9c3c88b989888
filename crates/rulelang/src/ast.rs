//! AST and evaluation for the rule language.
//!
//! Conditions (`C` in `E₁ ∧ C →δ E₂`) are evaluated against a
//! [`CondEnv`]: rule-parameter bindings come from the matching
//! interpretation of the LHS event, and data-item reads come from
//! whatever local state the evaluating component can see — "the
//! condition `C` can refer to data at the site of the right-hand side
//! event only" (§3.2).

use hcm_core::{Bindings, ItemId, ItemPattern, SimDuration, SimTime, TemplateDesc, Value};
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

    /// Apply to two time points.
    #[must_use]
    pub fn apply_time(self, a: SimTime, b: SimTime) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
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

/// One input a condition or expression reads, as [`Cond::visit`] and
/// [`Expr::visit`] yield it.
#[derive(Debug, Clone, Copy)]
pub enum Mention<'a> {
    /// A data item: an `Expr::Item` read or a `Cond::Exists` test.
    Item(&'a ItemPattern),
    /// A rule parameter or data variable (`Expr::Var`).
    Var(&'a str),
}

/// Where conditions get their inputs: parameter bindings and local
/// data-item state.
pub trait CondEnv {
    /// The value of a local data item, `None` if unknown/unreadable.
    fn item(&self, item: &ItemId) -> Option<Value>;
    /// The value of a rule parameter, `None` if unbound.
    fn var(&self, name: &str) -> Option<Value>;
}

/// A [`CondEnv`] over a [`Bindings`] plus a state-lookup closure —
/// the common case in the CM-Shell.
pub struct BindingsEnv<'a, F: Fn(&ItemId) -> Option<Value>> {
    /// Parameter bindings from the matching interpretation.
    pub bindings: &'a Bindings,
    /// Local state lookup.
    pub lookup: F,
}

impl<F: Fn(&ItemId) -> Option<Value>> CondEnv for BindingsEnv<'_, F> {
    fn item(&self, item: &ItemId) -> Option<Value> {
        (self.lookup)(item)
    }
    fn var(&self, name: &str) -> Option<Value> {
        self.bindings.get(name).cloned()
    }
}

impl Expr {
    /// Evaluate the expression; `None` when some input is missing or an
    /// operation is undefined (non-numeric arithmetic, division by
    /// zero). A condition whose expression fails evaluates to false —
    /// conservative for enforcement.
    pub fn eval(&self, env: &dyn CondEnv) -> Option<Value> {
        match self {
            Expr::Lit(v) => Some(v.clone()),
            Expr::Var(name) => env.var(name),
            Expr::Item(pat) => {
                // Parameter terms inside the item pattern resolve
                // through the same environment.
                let mut params = Vec::with_capacity(pat.params.len());
                for t in &pat.params {
                    let v = match t {
                        hcm_core::Term::Const(c) => c.clone(),
                        hcm_core::Term::Var(n) => env.var(n)?,
                        hcm_core::Term::Wild => return None,
                    };
                    params.push(v);
                }
                env.item(&ItemId {
                    base: pat.base,
                    params,
                })
            }
            Expr::Neg(e) => Value::Int(0).sub(&e.eval(env)?),
            Expr::Abs(e) => e.eval(env)?.abs(),
            Expr::Add(a, b) => a.eval(env)?.add(&b.eval(env)?),
            Expr::Sub(a, b) => a.eval(env)?.sub(&b.eval(env)?),
            Expr::Mul(a, b) => a.eval(env)?.mul(&b.eval(env)?),
            Expr::Div(a, b) => {
                let bv = b.eval(env)?.as_f64()?;
                if bv == 0.0 {
                    None
                } else {
                    Some(Value::Float(a.eval(env)?.as_f64()? / bv))
                }
            }
        }
    }

    /// Call `f` on every item pattern and variable the expression
    /// reads, left to right.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(Mention<'a>)) {
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
    /// Evaluate under `env`. Missing inputs make comparisons false (not
    /// errors): an unreadable item cannot justify firing a rule.
    pub fn eval(&self, env: &dyn CondEnv) -> bool {
        match self {
            Cond::True => true,
            Cond::Cmp(a, op, b) => match (a.eval(env), b.eval(env)) {
                (Some(va), Some(vb)) => op.apply(&va, &vb).unwrap_or(false),
                _ => false,
            },
            Cond::And(a, b) => a.eval(env) && b.eval(env),
            Cond::Or(a, b) => a.eval(env) || b.eval(env),
            Cond::Not(c) => !c.eval(env),
            Cond::Exists(pat) => Expr::Item(pat.clone())
                .eval(env)
                .is_some_and(|v| v.exists()),
        }
    }

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

    /// Conjoin two conditions, simplifying `True`.
    #[must_use]
    pub fn and(self, other: Cond) -> Cond {
        match (self, other) {
            (Cond::True, c) | (c, Cond::True) => c,
            (a, b) => Cond::And(Box::new(a), Box::new(b)),
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
    /// Resolve under an assignment of time variables.
    #[must_use]
    pub fn resolve(&self, lookup: &dyn Fn(&str) -> Option<SimTime>) -> Option<SimTime> {
        match self {
            TimeExpr::Const(t) => Some(*t),
            TimeExpr::Var(v) => lookup(v),
            TimeExpr::Offset(v, off) => {
                let base = lookup(v)?.as_millis() as i64;
                let ms = base + off;
                (ms >= 0).then(|| SimTime::from_millis(ms as u64))
            }
        }
    }

    /// Time variables mentioned.
    #[must_use]
    pub fn vars(&self) -> Vec<&str> {
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
    use hcm_core::Term;

    fn env(pairs: &[(&str, Value)], items: &[(&str, Value)]) -> impl CondEnv {
        struct E {
            vars: Vec<(String, Value)>,
            items: Vec<(String, Value)>,
        }
        impl CondEnv for E {
            fn item(&self, item: &ItemId) -> Option<Value> {
                self.items
                    .iter()
                    .find(|(n, _)| *n == item.to_string())
                    .map(|(_, v)| v.clone())
            }
            fn var(&self, name: &str) -> Option<Value> {
                self.vars
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v.clone())
            }
        }
        E {
            vars: pairs
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
            items: items
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        }
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
        let env = env(&[("a", Value::Int(1)), ("b", Value::Int(3))], &[]);
        assert_eq!(e.eval(&env), Some(Value::Int(7)));
    }

    #[test]
    fn expr_abs_neg_div() {
        let env = env(&[("a", Value::Int(-4))], &[]);
        assert_eq!(
            Expr::Abs(Box::new(Expr::Var("a".into()))).eval(&env),
            Some(Value::Int(4))
        );
        assert_eq!(
            Expr::Neg(Box::new(Expr::Var("a".into()))).eval(&env),
            Some(Value::Int(4))
        );
        assert_eq!(
            Expr::Div(
                Box::new(Expr::Lit(Value::Int(1))),
                Box::new(Expr::Lit(Value::Int(0)))
            )
            .eval(&env),
            None
        );
    }

    #[test]
    fn item_lookup_with_params() {
        let pat = ItemPattern::with("salary1", [Term::var("n")]);
        let env = env(
            &[("n", Value::from("e1"))],
            &[("salary1(\"e1\")", Value::Int(90))],
        );
        assert_eq!(Expr::Item(pat).eval(&env), Some(Value::Int(90)));
    }

    #[test]
    fn cond_eval_basics() {
        let env = env(&[("b", Value::Int(5))], &[("Cx", Value::Int(4))]);
        let c = Cond::Cmp(
            Expr::Item(ItemPattern::plain("Cx")),
            CmpOp::Ne,
            Expr::Var("b".into()),
        );
        assert!(c.eval(&env));
        let c_eq = Cond::Cmp(
            Expr::Item(ItemPattern::plain("Cx")),
            CmpOp::Eq,
            Expr::Lit(Value::Int(4)),
        );
        assert!(c_eq.eval(&env));
        assert!(!Cond::Not(Box::new(Cond::True)).eval(&env));
        assert!(Cond::True.and(c_eq.clone()) == c_eq);
    }

    #[test]
    fn missing_inputs_make_comparisons_false() {
        let env = env(&[], &[]);
        let c = Cond::Cmp(Expr::Var("zz".into()), CmpOp::Eq, Expr::Lit(Value::Int(1)));
        assert!(!c.eval(&env));
        // …and Not flips that, by design: Not(unknown=1) is true.
        assert!(Cond::Not(Box::new(c)).eval(&env));
    }

    #[test]
    fn exists_predicate() {
        let env = env(&[], &[("P", Value::Int(1)), ("Q", Value::Null)]);
        assert!(Cond::Exists(ItemPattern::plain("P")).eval(&env));
        assert!(!Cond::Exists(ItemPattern::plain("Q")).eval(&env));
        assert!(!Cond::Exists(ItemPattern::plain("R")).eval(&env));
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
        assert!(CmpOp::Lt.apply_time(SimTime::from_secs(1), SimTime::from_secs(2)));
    }

    #[test]
    fn time_expr_resolution() {
        let lookup = |n: &str| (n == "t").then(|| SimTime::from_secs(100));
        assert_eq!(
            TimeExpr::Var("t".into()).resolve(&lookup),
            Some(SimTime::from_secs(100))
        );
        assert_eq!(
            TimeExpr::Offset("t".into(), -10_000).resolve(&lookup),
            Some(SimTime::from_secs(90))
        );
        assert_eq!(
            TimeExpr::Offset("t".into(), 5_000).resolve(&lookup),
            Some(SimTime::from_secs(105))
        );
        // Negative absolute time: unresolvable.
        let early = |_: &str| Some(SimTime::from_secs(1));
        assert_eq!(TimeExpr::Offset("t".into(), -10_000).resolve(&early), None);
        assert_eq!(TimeExpr::Var("u".into()).resolve(&lookup), None);
        assert_eq!(
            TimeExpr::Const(SimTime::from_secs(5)).resolve(&lookup),
            Some(SimTime::from_secs(5))
        );
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
