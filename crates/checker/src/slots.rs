//! Conditions and expressions compiled to slots, shared by the validity
//! checker and the guarantee evaluator.
//!
//! A compiled condition names each variable by a slot number and each
//! item pattern by its place in a table, both assigned by the caller's
//! [`SlotMap`]; evaluation reads them through a [`SlotEnv`]. No name is
//! looked up and no item name is built while a condition is read.

use hcm_core::{ItemPattern, Value};
use hcm_rulelang::{CmpOp, Cond, Expr};
use std::borrow::Cow;

/// An [`Expr`] over variable slots and an item table.
pub(crate) enum SlotExpr {
    Item(usize),
    Var(usize),
    Lit(Value),
    Abs(Box<SlotExpr>),
    Op(
        fn(&Value, &Value) -> Option<Value>,
        Box<SlotExpr>,
        Box<SlotExpr>,
    ),
}

/// A [`Cond`] over variable slots and an item table.
pub(crate) enum SlotCond {
    True,
    Cmp(SlotExpr, CmpOp, SlotExpr),
    And(Box<SlotCond>, Box<SlotCond>),
    Or(Box<SlotCond>, Box<SlotCond>),
    Not(Box<SlotCond>),
    Exists(usize),
}

/// How a compiler names what a condition reads.
pub(crate) trait SlotMap<'c> {
    /// The slot of variable `name`.
    fn var(&mut self, name: &'c str) -> usize;
    /// The item-table entry of `pattern`, added when it is read.
    fn item(&mut self, pattern: &'c ItemPattern) -> usize;
}

/// Where a compiled expression reads its inputs.
pub(crate) trait SlotEnv<'v> {
    /// The value bound to slot `s`, `None` when it is unbound.
    fn var(&self, s: usize) -> Option<&'v Value>;
    /// The value of item-table entry `item`, `None` when it is unknown.
    fn item(&self, item: usize) -> Option<&'v Value>;
}

impl SlotCond {
    /// Compile `c`, naming its inputs through `map`.
    pub(crate) fn compile<'c>(c: &'c Cond, map: &mut impl SlotMap<'c>) -> SlotCond {
        match c {
            Cond::True => SlotCond::True,
            Cond::Cmp(a, op, b) => {
                let a = SlotExpr::compile(a, map);
                SlotCond::Cmp(a, *op, SlotExpr::compile(b, map))
            }
            Cond::And(a, b) => {
                let a = Box::new(SlotCond::compile(a, map));
                SlotCond::And(a, Box::new(SlotCond::compile(b, map)))
            }
            Cond::Or(a, b) => {
                let a = Box::new(SlotCond::compile(a, map));
                SlotCond::Or(a, Box::new(SlotCond::compile(b, map)))
            }
            Cond::Not(c) => SlotCond::Not(Box::new(SlotCond::compile(c, map))),
            Cond::Exists(p) => SlotCond::Exists(map.item(p)),
        }
    }

    /// Whether the condition holds under `env`, exactly as
    /// [`Cond::eval`]: a comparison with a missing input is false.
    pub(crate) fn holds<'v>(&'v self, env: &impl SlotEnv<'v>) -> bool {
        match self {
            SlotCond::True => true,
            SlotCond::Cmp(a, op, b) => match (a.value(env), b.value(env)) {
                (Some(va), Some(vb)) => op.apply(&va, &vb).unwrap_or(false),
                _ => false,
            },
            SlotCond::And(a, b) => a.holds(env) && b.holds(env),
            SlotCond::Or(a, b) => a.holds(env) || b.holds(env),
            SlotCond::Not(c) => !c.holds(env),
            SlotCond::Exists(item) => env.item(*item).is_some_and(Value::exists),
        }
    }
}

impl SlotExpr {
    /// Compile `e`, naming its inputs through `map`.
    pub(crate) fn compile<'c>(e: &'c Expr, map: &mut impl SlotMap<'c>) -> SlotExpr {
        let (op, a, b): (fn(&Value, &Value) -> Option<Value>, _, _) = match e {
            Expr::Item(p) => return SlotExpr::Item(map.item(p)),
            Expr::Var(v) => return SlotExpr::Var(map.var(v)),
            Expr::Lit(v) => return SlotExpr::Lit(v.clone()),
            Expr::Abs(a) => return SlotExpr::Abs(Box::new(SlotExpr::compile(a, map))),
            Expr::Neg(a) => (
                Value::sub,
                SlotExpr::Lit(Value::Int(0)),
                Self::compile(a, map),
            ),
            Expr::Add(a, b) => (Value::add, Self::compile(a, map), Self::compile(b, map)),
            Expr::Sub(a, b) => (Value::sub, Self::compile(a, map), Self::compile(b, map)),
            Expr::Mul(a, b) => (Value::mul, Self::compile(a, map), Self::compile(b, map)),
            Expr::Div(a, b) => (div, Self::compile(a, map), Self::compile(b, map)),
        };
        SlotExpr::Op(op, Box::new(a), Box::new(b))
    }

    /// The expression's value under `env`, `None` when an input is
    /// missing or an operation is undefined (as [`Expr::eval`]).
    pub(crate) fn value<'v>(&'v self, env: &impl SlotEnv<'v>) -> Option<Cow<'v, Value>> {
        Some(match self {
            SlotExpr::Item(item) => Cow::Borrowed(env.item(*item)?),
            SlotExpr::Var(s) => Cow::Borrowed(env.var(*s)?),
            SlotExpr::Lit(v) => Cow::Borrowed(v),
            SlotExpr::Abs(a) => Cow::Owned(a.value(env)?.abs()?),
            SlotExpr::Op(op, a, b) => {
                let (a, b) = (a.value(env)?, b.value(env)?);
                Cow::Owned(op(&a, &b)?)
            }
        })
    }
}

/// `a / b` as [`Expr::eval`] computes it: in floating point, `None` for
/// a zero or non-numeric divisor.
fn div(a: &Value, b: &Value) -> Option<Value> {
    let b = b.as_f64()?;
    (b != 0.0).then_some(Value::Float(a.as_f64()? / b))
}
