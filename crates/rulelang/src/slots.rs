//! Rules compiled to slots: the one rule interpreter that the CM-Shell,
//! the CM-Translator and the checker share.
//!
//! Appendix A gives rule matching one meaning. A *matching
//! interpretation* `mi(E, 𝓔)` binds the variables of template `𝓔` so
//! that it yields event `E`; the LHS condition may extend it; the RHS
//! steps are instantiated under it. This module is that meaning,
//! compiled once per rule by a [`RuleCompiler`] into [`SlotRules`]:
//!
//! * each rule's variables get slots `0..`, in order of first
//!   occurrence;
//! * each template becomes a [`SlotTemplate`]: its kind, its item base,
//!   and its parameter and value terms as ranges of one term table
//!   shared by every rule;
//! * each condition becomes a [`SlotCond`] over the slots and a table
//!   of the item patterns it reads.
//!
//! A [`Matcher`] binds slots to values borrowed from the matched event
//! and remembers their order, so a failed match, or an extension tried
//! and given up, undoes exactly its own. A variable that occurs twice
//! must match equal values, and a `*` matches anything and binds
//! nothing. [`Matcher::matches_item`] matches a bare data item against
//! a template's item pattern the same way: the CM-Translator's
//! interface lookup and its filter over a backend's enumerated items.
//! This is the workspace's only matcher.
//! [`Matcher::holds_binding`] evaluates a rule's LHS condition after
//! binding each variable that an `item = var` equality under `and`
//! determines. [`SlotRules::instantiate`] builds a step's ground event
//! from slot values; a `*` or an unbound variable yields no event.
//!
//! Conditions read data items through a lookup the caller supplies: a
//! shell's private data, a translator's backend, or the state of a
//! recorded trace at one instant. A comparison with a missing input is
//! false, so an unreadable item never justifies firing a rule.
//! Arithmetic on non-numbers and division by zero are missing inputs
//! too. No variable name is looked up and no matching interpretation is
//! built while an event is matched.

use crate::ast::{CmpOp, Cond, Expr, InterfaceStmt, RhsStep};
use hcm_core::{EventDesc, ItemId, ItemPattern, SimDuration, Sym, TemplateDesc, Term, Value};
use std::borrow::Cow;
use std::ops::Range;

/// An [`Expr`] over variable slots and an item table.
#[derive(Debug)]
pub enum SlotExpr {
    /// The value of an item-table entry.
    Item(usize),
    /// The value bound to a variable slot.
    Var(usize),
    /// A literal.
    Lit(Value),
    /// `abs(e)`.
    Abs(Box<SlotExpr>),
    /// A binary operation; negation is `0 - e`.
    Op(
        fn(&Value, &Value) -> Option<Value>,
        Box<SlotExpr>,
        Box<SlotExpr>,
    ),
}

/// A [`Cond`] over variable slots and an item table.
#[derive(Debug)]
pub enum SlotCond {
    /// Always true.
    True,
    /// A comparison.
    Cmp(SlotExpr, CmpOp, SlotExpr),
    /// Conjunction.
    And(Box<SlotCond>, Box<SlotCond>),
    /// Disjunction.
    Or(Box<SlotCond>, Box<SlotCond>),
    /// Negation.
    Not(Box<SlotCond>),
    /// `exists(X)`: the item-table entry has a non-null value.
    Exists(usize),
}

/// How a compiler names what a condition reads.
pub trait SlotMap<'c> {
    /// The slot of variable `name`.
    fn var(&mut self, name: &'c str) -> usize;
    /// The item-table entry of `pattern`, added when it is read.
    fn item(&mut self, pattern: &'c ItemPattern) -> usize;
}

/// Where a compiled condition reads its inputs.
pub trait SlotEnv<'v> {
    /// The value bound to slot `s`, `None` when it is unbound.
    fn var(&self, s: usize) -> Option<&'v Value>;
    /// The value of item-table entry `item`, `None` when it is unknown.
    fn item(&self, item: usize) -> Option<Cow<'v, Value>>;
}

impl SlotCond {
    /// Compile `c`, naming its inputs through `map`.
    pub fn compile<'c>(c: &'c Cond, map: &mut impl SlotMap<'c>) -> SlotCond {
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

    /// Whether the condition holds under `env`. A comparison with a
    /// missing input is false, and `not` flips that.
    pub fn holds<'v>(&'v self, env: &impl SlotEnv<'v>) -> bool {
        match self {
            SlotCond::True => true,
            SlotCond::Cmp(a, op, b) => match (a.value(env), b.value(env)) {
                (Some(va), Some(vb)) => op.apply(&va, &vb).unwrap_or(false),
                _ => false,
            },
            SlotCond::And(a, b) => a.holds(env) && b.holds(env),
            SlotCond::Or(a, b) => a.holds(env) || b.holds(env),
            SlotCond::Not(c) => !c.holds(env),
            SlotCond::Exists(item) => env.item(*item).is_some_and(|v| v.exists()),
        }
    }
}

impl SlotExpr {
    /// Compile `e`, naming its inputs through `map`.
    pub fn compile<'c>(e: &'c Expr, map: &mut impl SlotMap<'c>) -> SlotExpr {
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
    /// missing or an operation is undefined (non-numeric arithmetic,
    /// division by zero).
    pub fn value<'v>(&'v self, env: &impl SlotEnv<'v>) -> Option<Cow<'v, Value>> {
        Some(match self {
            SlotExpr::Item(item) => env.item(*item)?,
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

/// `a / b` in floating point, `None` for a zero or non-numeric divisor.
fn div(a: &Value, b: &Value) -> Option<Value> {
    let b = b.as_f64()?;
    (b != 0.0).then_some(Value::Float(a.as_f64()? / b))
}

/// A template component compiled to a slot of its rule.
#[derive(Debug)]
enum SlotTerm {
    Var(usize),
    Const(Value),
    Wild,
}

/// The descriptor kind a compiled template matches.
#[derive(Debug)]
enum Shape {
    /// `old` when the template has an explicit old-value term.
    Ws {
        old: bool,
    },
    W,
    Wr,
    Rr,
    R,
    N,
    P,
    Custom(Box<str>),
    False,
}

/// A [`TemplateDesc`] compiled to slots: its item's base and parameter
/// terms, then its value terms (a `Ws`'s old value before its new one,
/// a `P`'s period, a custom event's arguments), as ranges of the term
/// table of its [`SlotRules`].
#[derive(Debug)]
pub struct SlotTemplate {
    shape: Shape,
    base: Option<Sym>,
    params: Range<usize>,
    values: Range<usize>,
}

/// An item pattern a condition reads: its base and parameter terms.
#[derive(Debug)]
struct SlotItem {
    base: Sym,
    params: Range<usize>,
}

/// A compiled RHS step `C?E`.
#[derive(Debug)]
pub struct SlotStep {
    /// The event template `E`.
    pub event: SlotTemplate,
    /// The step condition `C`.
    pub cond: SlotCond,
    /// The item-table entries `cond` reads.
    items: Range<usize>,
}

/// A compiled rule: an interface statement or a strategy rule.
#[derive(Debug)]
pub struct SlotRule {
    /// The LHS template.
    pub lhs: SlotTemplate,
    /// The LHS condition.
    pub cond: SlotCond,
    /// The condition's `item = var` equalities under `and`, in
    /// condition order, as a range of [`SlotRules`]' bind table.
    binds: Range<usize>,
    steps: Range<usize>,
    vars: usize,
}

impl SlotRule {
    /// How many variable slots the rule has.
    #[must_use]
    pub fn vars(&self) -> usize {
        self.vars
    }
}

/// Rules compiled to slots, in the order they were compiled. Every
/// table is shared by all rules.
#[derive(Debug, Default)]
pub struct SlotRules {
    rules: Vec<SlotRule>,
    steps: Vec<SlotStep>,
    terms: Vec<SlotTerm>,
    items: Vec<SlotItem>,
    /// (item entry, variable slot) of each `item = var` equality.
    binds: Vec<(usize, usize)>,
    /// The most variables of any rule.
    vars: usize,
}

/// A table of slot values: what instantiation and condition reads
/// consult.
pub trait Slots {
    /// The value bound to slot `s`, `None` when it is unbound.
    fn get(&self, s: usize) -> Option<&Value>;
}

impl Slots for [Option<Value>] {
    fn get(&self, s: usize) -> Option<&Value> {
        self[s].as_ref()
    }
}

impl SlotRules {
    /// The rule compiled `r`-th.
    #[must_use]
    pub fn rule(&self, r: usize) -> &SlotRule {
        &self.rules[r]
    }

    /// The steps of `rule`, in order.
    #[must_use]
    pub fn steps(&self, rule: &SlotRule) -> &[SlotStep] {
        &self.steps[rule.steps.clone()]
    }

    /// The item bases `step`'s condition reads.
    pub fn bases_read<'s>(&'s self, step: &SlotStep) -> impl Iterator<Item = Sym> + 's {
        self.items[step.items.clone()].iter().map(|i| i.base)
    }

    fn term<'v>(&'v self, t: &'v SlotTerm, slots: &'v (impl Slots + ?Sized)) -> Option<&'v Value> {
        match t {
            SlotTerm::Var(s) => slots.get(*s),
            SlotTerm::Const(c) => Some(c),
            SlotTerm::Wild => None,
        }
    }

    /// `base(v1, …, vk)` with each parameter term resolved under
    /// `slots`; `None` when one is a `*` or unbound.
    fn item(
        &self,
        base: Sym,
        params: &Range<usize>,
        slots: &(impl Slots + ?Sized),
    ) -> Option<ItemId> {
        ItemId::resolve(base, &self.terms[params.clone()], |t| self.term(t, slots))
    }

    /// The ground event `t` denotes under `slots`; `None` when a term
    /// is a `*` or an unbound variable, when a period is negative, and
    /// for the false template `𝓕`, which denotes no event.
    #[must_use]
    pub fn instantiate(
        &self,
        t: &SlotTemplate,
        slots: &(impl Slots + ?Sized),
    ) -> Option<EventDesc> {
        let values = &self.terms[t.values.clone()];
        let value = |i: usize| self.term(&values[i], slots).cloned();
        let item = || self.item(t.base?, &t.params, slots);
        Some(match &t.shape {
            Shape::Ws { old } => EventDesc::Ws {
                item: item()?,
                old: if *old { Some(value(0)?) } else { None },
                new: value(values.len() - 1)?,
            },
            Shape::W => EventDesc::W {
                item: item()?,
                value: value(0)?,
            },
            Shape::Wr => EventDesc::Wr {
                item: item()?,
                value: value(0)?,
            },
            Shape::Rr => EventDesc::Rr { item: item()? },
            Shape::R => EventDesc::R {
                item: item()?,
                value: value(0)?,
            },
            Shape::N => EventDesc::N {
                item: item()?,
                value: value(0)?,
            },
            Shape::P => {
                let ms = u64::try_from(value(0)?.as_int()?).ok()?;
                EventDesc::P {
                    period: SimDuration::from_millis(ms),
                }
            }
            Shape::Custom(name) => EventDesc::Custom {
                name: name.to_string(),
                args: (0..values.len()).map(value).collect::<Option<_>>()?,
            },
            Shape::False => return None,
        })
    }

    /// Whether `cond` holds with variables read from `slots` and data
    /// items from `items`.
    pub fn holds<'v>(
        &'v self,
        cond: &'v SlotCond,
        slots: &'v (impl Slots + ?Sized),
        items: impl Fn(&ItemId) -> Option<Cow<'v, Value>>,
    ) -> bool {
        cond.holds(&State {
            rules: self,
            slots,
            items,
        })
    }
}

/// Slots read beside a data-item lookup.
struct State<'v, S: ?Sized, F> {
    rules: &'v SlotRules,
    slots: &'v S,
    items: F,
}

impl<'v, S, F> SlotEnv<'v> for State<'v, S, F>
where
    S: Slots + ?Sized,
    F: Fn(&ItemId) -> Option<Cow<'v, Value>>,
{
    fn var(&self, s: usize) -> Option<&'v Value> {
        self.slots.get(s)
    }

    fn item(&self, item: usize) -> Option<Cow<'v, Value>> {
        let SlotItem { base, params } = &self.rules.items[item];
        (self.items)(&self.rules.item(*base, params, self.slots)?)
    }
}

/// Compiles rules into [`SlotRules`], naming each rule's variables.
#[derive(Default)]
pub struct RuleCompiler<'c> {
    out: SlotRules,
    /// The current rule's variables; slot `i` is `names[i]`.
    names: Vec<&'c str>,
}

impl<'c> RuleCompiler<'c> {
    /// A compiler with room for `rules` rules.
    #[must_use]
    pub fn with_capacity(rules: usize) -> Self {
        let mut c = RuleCompiler::default();
        c.out.rules.reserve(rules);
        c
    }

    /// Compile a strategy rule `lhs ∧ cond → steps`, or a rule of the
    /// checker's uniform view, returning its position.
    pub fn rule(&mut self, lhs: &'c TemplateDesc, cond: &'c Cond, steps: &'c [RhsStep]) -> usize {
        let steps = steps.iter().map(|s| (Some(&s.cond), &s.event));
        self.push(lhs, cond, steps)
    }

    /// Compile an interface statement as a rule of one unconditional
    /// step, returning its position.
    pub fn interface(&mut self, stmt: &'c InterfaceStmt) -> usize {
        self.push(&stmt.lhs, &stmt.cond, [(None, &stmt.rhs)])
    }

    /// The compiled rules.
    #[must_use]
    pub fn finish(self) -> SlotRules {
        self.out
    }

    fn push(
        &mut self,
        lhs: &'c TemplateDesc,
        cond: &'c Cond,
        steps: impl IntoIterator<Item = (Option<&'c Cond>, &'c TemplateDesc)>,
    ) -> usize {
        let lhs = self.template(lhs);
        let slot_cond = SlotCond::compile(cond, self);
        let start = self.out.binds.len();
        self.binds(cond);
        let binds = start..self.out.binds.len();
        let start = self.out.steps.len();
        for (cond, event) in steps {
            let event = self.template(event);
            let items = self.out.items.len();
            let cond = cond.map_or(SlotCond::True, |c| SlotCond::compile(c, self));
            let items = items..self.out.items.len();
            self.out.steps.push(SlotStep { event, cond, items });
        }
        let steps = start..self.out.steps.len();
        let vars = self.names.len();
        self.names.clear();
        self.out.vars = self.out.vars.max(vars);
        self.out.rules.push(SlotRule {
            lhs,
            cond: slot_cond,
            binds,
            steps,
            vars,
        });
        self.out.rules.len() - 1
    }

    fn term(&mut self, t: &'c Term) {
        let t = match t {
            Term::Var(v) => SlotTerm::Var(self.var(v)),
            Term::Const(c) => SlotTerm::Const(c.clone()),
            Term::Wild => SlotTerm::Wild,
        };
        self.out.terms.push(t);
    }

    fn terms(&mut self, ts: impl IntoIterator<Item = &'c Term>) -> Range<usize> {
        let start = self.out.terms.len();
        ts.into_iter().for_each(|t| self.term(t));
        start..self.out.terms.len()
    }

    fn template(&mut self, t: &'c TemplateDesc) -> SlotTemplate {
        let (shape, item, values): (_, _, &[Option<&Term>]) = match t {
            TemplateDesc::Ws { item, old, new } => (
                Shape::Ws { old: old.is_some() },
                Some(item),
                &[old.as_ref(), Some(new)],
            ),
            TemplateDesc::W { item, value } => (Shape::W, Some(item), &[Some(value)]),
            TemplateDesc::Wr { item, value } => (Shape::Wr, Some(item), &[Some(value)]),
            TemplateDesc::Rr { item } => (Shape::Rr, Some(item), &[]),
            TemplateDesc::R { item, value } => (Shape::R, Some(item), &[Some(value)]),
            TemplateDesc::N { item, value } => (Shape::N, Some(item), &[Some(value)]),
            TemplateDesc::P { period } => (Shape::P, None, &[Some(period)]),
            TemplateDesc::Custom { name, args } => {
                let values = self.terms(args);
                return SlotTemplate {
                    shape: Shape::Custom(name.as_str().into()),
                    base: None,
                    params: values.start..values.start,
                    values,
                };
            }
            TemplateDesc::False => (Shape::False, None, &[]),
        };
        let params = self.terms(item.iter().flat_map(|p| &p.params));
        SlotTemplate {
            shape,
            base: item.map(|p| p.base),
            params,
            values: self.terms(values.iter().flatten().copied()),
        }
    }

    /// The `item = var` and `var = item` equalities of a condition that
    /// may bind a variable the match left unbound: those joined by
    /// `and` only.
    fn binds(&mut self, c: &'c Cond) {
        match c {
            Cond::And(a, b) => {
                self.binds(a);
                self.binds(b);
            }
            Cond::Cmp(Expr::Item(p), CmpOp::Eq, Expr::Var(v))
            | Cond::Cmp(Expr::Var(v), CmpOp::Eq, Expr::Item(p)) => {
                let entry = (self.item(p), self.var(v));
                self.out.binds.push(entry);
            }
            _ => {}
        }
    }
}

impl<'c> SlotMap<'c> for RuleCompiler<'c> {
    fn var(&mut self, name: &'c str) -> usize {
        self.names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            })
    }

    fn item(&mut self, pattern: &'c ItemPattern) -> usize {
        let params = self.terms(&pattern.params);
        self.out.items.push(SlotItem {
            base: pattern.base,
            params,
        });
        self.out.items.len() - 1
    }
}

/// Matches compiled templates against events, binding a rule's slots to
/// values borrowed from the events (or a `P` event's period) and
/// remembering the order of the bindings, so that a failed match, or an
/// extension tried and given up, undoes exactly its own.
///
/// A slot is bound at most once between undos, so each bound slot keeps
/// the slot bound just before it: the bindings form a stack threaded
/// through the slots. A matcher allocates nothing but its slot table,
/// and that only at its first binding.
pub struct Matcher<'a, 't> {
    rules: &'a SlotRules,
    /// Each bound slot's value and the slot bound before it.
    slots: Vec<Option<(Cow<'t, Value>, usize)>>,
    /// How many slots are bound, and which was bound last.
    bound: usize,
    last: usize,
}

impl Slots for Matcher<'_, '_> {
    fn get(&self, s: usize) -> Option<&Value> {
        self.slots.get(s)?.as_ref().map(|(v, _)| &**v)
    }
}

impl<'a, 't> Matcher<'a, 't> {
    /// A matcher over `rules` with every slot unbound.
    #[must_use]
    pub fn new(rules: &'a SlotRules) -> Self {
        Matcher {
            rules,
            slots: Vec::new(),
            bound: 0,
            last: 0,
        }
    }

    /// The first `rule.vars()` slot values, owned: what a rule firing
    /// carries to its RHS site.
    #[must_use]
    pub fn owned(&self, rule: &SlotRule) -> Vec<Option<Value>> {
        (0..rule.vars).map(|s| self.get(s).cloned()).collect()
    }

    /// How many bindings stand; [`Matcher::undo`] returns to this.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.bound
    }

    /// Unbind every slot bound since `mark` bindings stood.
    pub fn undo(&mut self, mark: usize) {
        while self.bound > mark {
            let (_, before) = self.slots[self.last]
                .take()
                .expect("the last binding stands");
            self.last = before;
            self.bound -= 1;
        }
    }

    fn bind(&mut self, s: usize, v: Cow<'t, Value>) {
        if self.slots.is_empty() {
            self.slots.resize(self.rules.vars, None);
        }
        self.slots[s] = Some((v, self.last));
        self.last = s;
        self.bound += 1;
    }

    /// A bound variable must agree; an unbound one binds.
    fn unify(&mut self, term: &SlotTerm, value: Cow<'t, Value>) -> bool {
        match term {
            SlotTerm::Wild => true,
            SlotTerm::Const(c) => *c == *value,
            SlotTerm::Var(s) => match self.get(*s) {
                Some(bound) => *bound == *value,
                None => {
                    self.bind(*s, value);
                    true
                }
            },
        }
    }

    /// Match `desc` against `t`: extend the slots with the matching
    /// interpretation, or leave them as they were.
    pub fn matches(&mut self, t: &SlotTemplate, desc: &'t EventDesc) -> bool {
        self.or_undo(|m| m.match_inner(t, desc))
    }

    /// Match `item` against the item pattern of `t`, ignoring its kind
    /// and value terms: extend the slots with the matching
    /// interpretation, or leave them as they were. A template without
    /// an item (`P`, a custom event, `𝓕`) matches no item.
    pub fn matches_item(&mut self, t: &SlotTemplate, item: &'t ItemId) -> bool {
        self.or_undo(|m| m.match_item(t, item))
    }

    /// Run `f`, undoing the bindings it made when it fails.
    fn or_undo(&mut self, f: impl FnOnce(&mut Self) -> bool) -> bool {
        let mark = self.mark();
        let ok = f(self);
        if !ok {
            self.undo(mark);
        }
        ok
    }

    fn match_inner(&mut self, t: &SlotTemplate, desc: &'t EventDesc) -> bool {
        let rules: &'a SlotRules = self.rules;
        let values = &rules.terms[t.values.clone()];
        let (item, value) = match (&t.shape, desc) {
            (Shape::Ws { old }, EventDesc::Ws { item, old: o, new }) => {
                let old_ok = |m: &mut Self| match (old, o) {
                    (false, _) => true,
                    (true, Some(ov)) => m.unify(&values[0], Cow::Borrowed(ov)),
                    // An explicit old-value term cannot match a write
                    // whose old value is unrecorded; only `*` may.
                    (true, None) => matches!(values[0], SlotTerm::Wild),
                };
                return self.match_item(t, item)
                    && old_ok(self)
                    && self.unify(&values[values.len() - 1], Cow::Borrowed(new));
            }
            (Shape::W, EventDesc::W { item, value })
            | (Shape::Wr, EventDesc::Wr { item, value })
            | (Shape::R, EventDesc::R { item, value })
            | (Shape::N, EventDesc::N { item, value }) => (item, Some(value)),
            (Shape::Rr, EventDesc::Rr { item }) => (item, None),
            (Shape::P, EventDesc::P { period }) => {
                let ms = Value::Int(period.as_millis() as i64);
                return self.unify(&values[0], Cow::Owned(ms));
            }
            (Shape::Custom(name), EventDesc::Custom { name: n, args }) => {
                return **name == **n
                    && values.len() == args.len()
                    && (values.iter().zip(args)).all(|(t, v)| self.unify(t, Cow::Borrowed(v)));
            }
            _ => return false,
        };
        self.match_item(t, item) && value.is_none_or(|v| self.unify(&values[0], Cow::Borrowed(v)))
    }

    fn match_item(&mut self, t: &SlotTemplate, item: &'t ItemId) -> bool {
        let rules: &'a SlotRules = self.rules;
        let params = &rules.terms[t.params.clone()];
        t.base == Some(item.base)
            && params.len() == item.params.len()
            && (params.iter().zip(item.params.iter())).all(|(p, v)| self.unify(p, Cow::Borrowed(v)))
    }

    /// Whether `cond` holds under the current slots, reading data items
    /// from `items`.
    pub fn holds<'v>(
        &'v self,
        cond: &'v SlotCond,
        items: impl Fn(&ItemId) -> Option<Cow<'v, Value>>,
    ) -> bool {
        self.rules.holds(cond, self, items)
    }

    /// Bind the variables `rule`'s condition determines, then evaluate
    /// the condition; both read data items from `items`. Only
    /// `item = var` and `var = item` equalities under `and` bind, each
    /// a variable still unbound when it is reached, to the item's value
    /// (the read interface's `X = b` binds `b` to the current value of
    /// `X`). The bindings stay.
    pub fn holds_binding(
        &mut self,
        rule: &SlotRule,
        items: impl Fn(&ItemId) -> Option<Cow<'t, Value>>,
    ) -> bool {
        let rules: &'a SlotRules = self.rules;
        for &(item, var) in &rules.binds[rule.binds.clone()] {
            if self.get(var).is_none() {
                let SlotItem { base, params } = &rules.items[item];
                let value = rules.item(*base, params, self);
                if let Some(v) = value.and_then(|i| items(&i)) {
                    self.bind(var, v);
                }
            }
        }
        self.holds(&rule.cond, |i| items(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_interface;

    fn x() -> ItemPattern {
        ItemPattern::plain("X")
    }

    /// `lhs` compiled as the LHS of one rule with unconditional `steps`.
    fn compile(lhs: &TemplateDesc, steps: &[TemplateDesc]) -> SlotRules {
        let steps: Vec<RhsStep> = (steps.iter())
            .map(|event| RhsStep {
                cond: Cond::True,
                event: event.clone(),
            })
            .collect();
        let mut compiler = RuleCompiler::default();
        compiler.rule(lhs, &Cond::True, &steps);
        compiler.finish()
    }

    fn custom(name: &str, args: impl IntoIterator<Item = Term>) -> TemplateDesc {
        TemplateDesc::Custom {
            name: name.into(),
            args: args.into_iter().collect(),
        }
    }

    fn event(name: &str, args: impl IntoIterator<Item = i64>) -> EventDesc {
        EventDesc::Custom {
            name: name.into(),
            args: args.into_iter().map(Value::Int).collect(),
        }
    }

    fn bound<'m>(m: &'m Matcher<'_, '_>, s: usize) -> Option<&'m Value> {
        m.get(s)
    }

    #[test]
    fn term_unification() {
        let one = Term::Const(Value::Int(1));
        let t = custom("t", [Term::Wild, one, Term::var("v"), Term::var("v")]);
        let rules = compile(&t, &[]);
        // A wild-card and a constant take no slot.
        assert_eq!(rules.rule(0).vars(), 1);
        let lhs = &rules.rule(0).lhs;
        let mut m = Matcher::new(&rules);
        let (hit, disagree, other) = (
            event("t", [9, 1, 7, 7]),
            event("t", [9, 1, 7, 8]),
            event("t", [9, 2, 7, 7]),
        );
        assert!(m.matches(lhs, &hit));
        assert_eq!(bound(&m, 0), Some(&Value::Int(7)));
        // A bound variable must agree.
        m.undo(0);
        assert!(!m.matches(lhs, &disagree));
        // A constant must equal its value.
        assert!(!m.matches(lhs, &other));
        assert_eq!(bound(&m, 0), None);
    }

    #[test]
    fn bindings_rollback() {
        let one = |v: &str| custom("one", [Term::var(v)]);
        let lhs = custom("vars", ["a", "c", "d"].map(Term::var));
        let rules = compile(&lhs, &[one("a"), one("c"), one("d")]);
        let steps = rules.steps(rules.rule(0));
        let events = [event("one", [1]), event("one", [3]), event("one", [4])];
        let mut m = Matcher::new(&rules);
        assert!(m.matches(&steps[0].event, &events[0]));
        let mark = m.mark();
        assert!(m.matches(&steps[1].event, &events[1]));
        assert!(m.matches(&steps[2].event, &events[2]));
        m.undo(mark);
        assert_eq!(bound(&m, 0), Some(&Value::Int(1)));
        assert_eq!(bound(&m, 1), None);
        assert_eq!(bound(&m, 2), None);
    }

    #[test]
    fn notify_template_matches_and_binds() {
        let t = TemplateDesc::N {
            item: x(),
            value: Term::var("b"),
        };
        let rules = compile(&t, &[]);
        let mut m = Matcher::new(&rules);
        let e = EventDesc::N {
            item: ItemId::plain("X"),
            value: Value::Int(42),
        };
        assert!(m.matches(&rules.rule(0).lhs, &e));
        assert_eq!(bound(&m, 0), Some(&Value::Int(42)));
        // Another kind matches nothing and binds nothing.
        m.undo(0);
        let w = EventDesc::W {
            item: ItemId::plain("X"),
            value: Value::Int(42),
        };
        assert!(!m.matches(&rules.rule(0).lhs, &w));
        assert_eq!(bound(&m, 0), None);
    }

    #[test]
    fn ws_three_arg_binds_old_and_new() {
        let t = TemplateDesc::Ws {
            item: x(),
            old: Some(Term::var("a")),
            new: Term::var("b"),
        };
        let sugar = TemplateDesc::Ws {
            item: x(),
            old: None,
            new: Term::var("b"),
        };
        let ws = |old| EventDesc::Ws {
            item: ItemId::plain("X"),
            old,
            new: Value::Int(2),
        };
        let (recorded, unrecorded) = (ws(Some(Value::Int(1))), ws(None));
        let rules = compile(&t, &[sugar]);
        let mut m = Matcher::new(&rules);
        assert!(m.matches(&rules.rule(0).lhs, &recorded));
        assert_eq!(bound(&m, 0), Some(&Value::Int(1)));
        assert_eq!(bound(&m, 1), Some(&Value::Int(2)));
        // Old value required but unrecorded: only `*` may match.
        m.undo(0);
        assert!(!m.matches(&rules.rule(0).lhs, &unrecorded));
        assert_eq!((bound(&m, 0), bound(&m, 1)), (None, None));
        // The two-argument sugar ignores the old value.
        let sugar = &rules.steps(rules.rule(0))[0].event;
        assert!(m.matches(sugar, &unrecorded));
        assert_eq!((bound(&m, 0), bound(&m, 1)), (None, Some(&Value::Int(2))));
    }

    #[test]
    fn match_rejects_base_and_arity_mismatch() {
        let pat = ItemPattern::with("salary1", [Term::var("n")]);
        let rules = compile(&TemplateDesc::Rr { item: pat }, &[]);
        let lhs = &rules.rule(0).lhs;
        let e1 = Value::from("e1");
        let items = [
            ItemId::with("salary1", [e1.clone()]),
            ItemId::with("salary2", [e1.clone()]),
            ItemId::plain("salary1"),
            ItemId::with("salary1", [e1.clone(), e1.clone()]),
        ];
        let mut m = Matcher::new(&rules);
        assert!(m.matches_item(lhs, &items[0]));
        assert_eq!(bound(&m, 0), Some(&e1));
        m.undo(0);
        for item in &items[1..] {
            assert!(!m.matches_item(lhs, item), "{item}");
            assert_eq!(m.mark(), 0);
        }
        // A template without an item matches no item.
        let period = compile(&TemplateDesc::P { period: Term::Wild }, &[]);
        assert!(!Matcher::new(&period).matches_item(&period.rule(0).lhs, &items[0]));
    }

    #[test]
    fn wildcard_matches_anything_without_binding() {
        // A `*` never constrains a later position the way a repeated
        // variable does, and binds nothing.
        let pair = |a, b| ItemId::with("pair", [Value::Int(a), Value::Int(b)]);
        let wild = ItemPattern::with("pair", [Term::Wild, Term::Wild]);
        let repeated = ItemPattern::with("pair", [Term::var("n"), Term::var("n")]);
        let rules = compile(
            &TemplateDesc::Rr { item: wild },
            &[TemplateDesc::Rr { item: repeated }],
        );
        let (five_six, five_five) = (pair(5, 6), pair(5, 5));
        let mut m = Matcher::new(&rules);
        assert!(m.matches_item(&rules.rule(0).lhs, &five_six));
        assert_eq!(m.mark(), 0);
        let repeated = &rules.steps(rules.rule(0))[0].event;
        assert!(!m.matches_item(repeated, &five_six));
        assert_eq!(bound(&m, 0), None);
        assert!(m.matches_item(repeated, &five_five));
        assert_eq!(bound(&m, 0), Some(&Value::Int(5)));
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
        let rules = compile(&lhs, &[rhs]);
        let e = EventDesc::N {
            item: ItemId::with("salary1", [Value::from("e42")]),
            value: Value::Int(90_000),
        };
        let mut m = Matcher::new(&rules);
        assert!(m.matches(&rules.rule(0).lhs, &e));
        let step = &rules.steps(rules.rule(0))[0];
        let out = rules.instantiate(&step.event, &m);
        assert_eq!(
            out,
            Some(EventDesc::Wr {
                item: ItemId::with("salary2", [Value::from("e42")]),
                value: Value::Int(90_000),
            })
        );
        // The owned slot values carry the same interpretation.
        let owned = m.owned(rules.rule(0));
        assert_eq!(rules.instantiate(&step.event, &owned[..]), out);
    }

    #[test]
    fn instantiate_fails_on_unbound() {
        let rhs = TemplateDesc::Wr {
            item: x(),
            value: Term::var("zz"),
        };
        let wild = TemplateDesc::Rr {
            item: ItemPattern::with("X", [Term::Wild]),
        };
        let rules = compile(&rhs, &[wild, TemplateDesc::False]);
        let unbound: [Option<Value>; 1] = [None];
        assert_eq!(rules.instantiate(&rules.rule(0).lhs, &unbound[..]), None);
        // A wild-card and the false template denote no event.
        for step in rules.steps(rules.rule(0)) {
            assert_eq!(rules.instantiate(&step.event, &unbound[..]), None);
        }
    }

    #[test]
    fn match_binds_variables() {
        let pat = ItemPattern::with("salary1", [Term::var("n")]);
        let rules = compile(&TemplateDesc::Rr { item: pat }, &[]);
        let rr = EventDesc::Rr {
            item: ItemId::with("salary1", [Value::from("e42")]),
        };
        let mut m = Matcher::new(&rules);
        assert!(m.matches(&rules.rule(0).lhs, &rr));
        assert_eq!(bound(&m, 0), Some(&Value::from("e42")));
    }

    #[test]
    fn match_respects_existing_bindings() {
        let rr = |n: &str| EventDesc::Rr {
            item: ItemId::with("salary1", [Value::from(n)]),
        };
        let pat = || TemplateDesc::Rr {
            item: ItemPattern::with("salary1", [Term::var("n")]),
        };
        let rules = compile(&pat(), &[pat()]);
        let (e99, e42) = (rr("e99"), rr("e42"));
        let mut m = Matcher::new(&rules);
        assert!(m.matches(&rules.rule(0).lhs, &e99));
        let step = &rules.steps(rules.rule(0))[0];
        assert!(!m.matches(&step.event, &e42));
        // Unchanged after failure.
        assert_eq!(bound(&m, 0), Some(&Value::from("e99")));
        assert!(m.matches(&step.event, &e99));
    }

    #[test]
    fn instantiate_round_trips() {
        let lhs = custom("vars", [Term::var("n"), Term::var("m")]);
        let rr = |p: &str| TemplateDesc::Rr {
            item: ItemPattern::with("salary2", [Term::var(p)]),
        };
        let rules = compile(&lhs, &[rr("n"), rr("m")]);
        let slots = [Some(Value::from("e42")), None];
        let steps = rules.steps(rules.rule(0));
        assert_eq!(
            rules.instantiate(&steps[0].event, &slots[..]),
            Some(EventDesc::Rr {
                item: ItemId::with("salary2", [Value::from("e42")])
            })
        );
        assert_eq!(rules.instantiate(&steps[1].event, &slots[..]), None);
    }

    #[test]
    fn failed_partial_match_rolls_back() {
        // First param binds n, second param contradicts it: n must be
        // rolled back.
        let pat = ItemPattern::with("pair", [Term::var("n"), Term::var("n")]);
        let rules = compile(&TemplateDesc::Rr { item: pat }, &[]);
        let rr = EventDesc::Rr {
            item: ItemId::with("pair", [Value::Int(1), Value::Int(2)]),
        };
        let mut m = Matcher::new(&rules);
        assert!(!m.matches(&rules.rule(0).lhs, &rr));
        assert_eq!(bound(&m, 0), None);
        assert_eq!(m.mark(), 0);
    }

    #[test]
    fn custom_template() {
        let t = custom("LimitChangeReq", [Term::var("amt")]);
        let rules = compile(&t, &[]);
        let (req, other) = (event("LimitChangeReq", [50]), event("Other", [50]));
        let mut m = Matcher::new(&rules);
        assert!(m.matches(&rules.rule(0).lhs, &req));
        assert_eq!(bound(&m, 0), Some(&Value::Int(50)));
        m.undo(0);
        assert!(!m.matches(&rules.rule(0).lhs, &other));
        assert_eq!(
            rules.instantiate(&rules.rule(0).lhs, &[Some(Value::Int(7))][..]),
            Some(event("LimitChangeReq", [7]))
        );
    }

    #[test]
    fn periodic_template_binds_the_period_in_milliseconds() {
        let t = TemplateDesc::P {
            period: Term::var("p"),
        };
        let rules = compile(&t, &[]);
        let mut m = Matcher::new(&rules);
        let p = EventDesc::P {
            period: SimDuration::from_secs(300),
        };
        assert!(m.matches(&rules.rule(0).lhs, &p));
        assert_eq!(bound(&m, 0), Some(&Value::Int(300_000)));
        assert_eq!(rules.instantiate(&rules.rule(0).lhs, &m), Some(p));
        let negative = [Some(Value::Int(-1))];
        assert_eq!(rules.instantiate(&rules.rule(0).lhs, &negative[..]), None);
    }

    #[test]
    fn holds_binding_binds_equalities_under_and_only() {
        let read = |item: &ItemId| match item.base.as_str() {
            "X" => Some(Cow::Owned(Value::Int(5))),
            "Y" => Some(Cow::Owned(Value::Int(6))),
            _ => None,
        };
        let rr = EventDesc::Rr {
            item: ItemId::plain("X"),
        };
        let fire = |text: &str| {
            let stmt = parse_interface(text).unwrap();
            let mut compiler = RuleCompiler::default();
            compiler.interface(&stmt);
            let rules = compiler.finish();
            let mut m = Matcher::new(&rules);
            assert!(m.matches(&rules.rule(0).lhs, &rr));
            let holds = m.holds_binding(rules.rule(0), read);
            let slots = m.owned(rules.rule(0));
            (holds, slots)
        };
        let (five, six) = (Some(Value::Int(5)), Some(Value::Int(6)));
        // `X = b` and `c = Y` bind; `b` is then compared, not rebound.
        let (holds, slots) = fire("RR(X) when X = b and c = Y and b < c -> R(X, b) within 1s");
        assert!(holds);
        assert_eq!(slots, [five.clone(), six]);
        // A variable bound by the match is compared.
        let (holds, _) = fire("RR(X) when X = b and Y = b -> R(X, b) within 1s");
        assert!(!holds);
        // Under `or` and `not` nothing binds, so the comparison fails.
        let (holds, slots) = fire("RR(X) when (X = b or Y = b) -> R(X, b) within 1s");
        assert!(!holds);
        assert_eq!(slots, [None]);
        let (holds, _) = fire("RR(X) when not (X = b) -> R(X, b) within 1s");
        assert!(holds);
    }
}
