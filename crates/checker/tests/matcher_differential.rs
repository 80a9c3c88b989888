//! Differential suite: the slot-compiled rule interpreter of
//! `hcm_rulelang::slots`, which the CM-Shell, the CM-Translator and the
//! validity checker share, against the name-keyed interpreter of
//! `reference/mod.rs`.
//!
//! A SplitMix64 generator (the same in-file pattern as the other
//! suites — deterministic, dependency-free) draws rules, events and
//! data-item states from small pools, so that matches, condition
//! bindings and their failures are all frequent. Templates repeat
//! variables, give a `Ws` an explicit old-value term, use wild-cards,
//! `P` periods and custom events of arity 0 to 3. Conditions use `and`,
//! `or`, `not`, `exists`, arithmetic and the `item = var` equalities
//! that bind. For each case both interpreters must agree on
//!
//! 1. whether the event matches the rule's LHS;
//! 2. whether the LHS condition holds after its equalities bind;
//! 3. which variables end up bound, and to what, condition-bound ones
//!    included: every variable gets a one-argument probe step, which
//!    instantiates exactly when it is bound;
//! 4. every RHS step's instance and the truth of its condition.
//!
//! A second case matches bare data items, as the CM-Translator's
//! interface lookup and its filter over enumerated items do:
//! `Matcher::matches_item` against the reference's `match_item`, on
//! patterns with constants, `*` and repeated variables, items of
//! another base or arity, and variables bound before the item is
//! matched.

mod reference;

use hcm_core::{EventDesc, ItemId, ItemPattern, SimDuration, TemplateDesc, Term, Value};
use hcm_rulelang::slots::{Matcher, RuleCompiler};
use hcm_rulelang::{CmpOp, Cond, Expr, RhsStep};
use reference::{bind_from_cond, eval_cond, instantiate, match_desc, match_item, Bindings};
use std::borrow::Cow;
use std::collections::HashMap;

/// SplitMix64: tiny, deterministic, well-distributed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize].clone()
    }

    fn value(&mut self) -> Value {
        match self.below(8) {
            0 => Value::from("a"),
            1 => Value::Null,
            _ => Value::Int(self.below(3) as i64),
        }
    }

    /// A variable: the LHS ones (`u`, `v`, `w`) and one only a
    /// condition or a step mentions (`c`).
    fn var(&mut self) -> &'static str {
        self.pick(&VARS)
    }

    fn term(&mut self) -> Term {
        match self.below(5) {
            0 => Term::Wild,
            1 => Term::Const(self.value()),
            _ => Term::var(self.pick(&VARS[..3])),
        }
    }

    fn terms(&mut self, most: u64) -> Vec<Term> {
        (0..self.below(most + 1)).map(|_| self.term()).collect()
    }

    fn pattern(&mut self, bases: &[&str]) -> ItemPattern {
        ItemPattern::with(self.pick(bases), self.terms(1))
    }

    fn template(&mut self) -> TemplateDesc {
        let item = self.pattern(&["x", "y"]);
        match self.below(9) {
            0 => TemplateDesc::Ws {
                item,
                old: (!self.one_in(2)).then(|| self.term()),
                new: self.term(),
            },
            1 => TemplateDesc::W {
                item,
                value: self.term(),
            },
            2 => TemplateDesc::Wr {
                item,
                value: self.term(),
            },
            3 => TemplateDesc::Rr { item },
            4 => TemplateDesc::R {
                item,
                value: self.term(),
            },
            5 => TemplateDesc::N {
                item,
                value: self.term(),
            },
            6 => TemplateDesc::P {
                period: match self.below(3) {
                    0 => Term::Const(Value::Int(1 + self.below(2) as i64)),
                    1 => Term::Wild,
                    _ => Term::var(self.pick(&VARS[..3])),
                },
            },
            7 => TemplateDesc::Custom {
                name: self.pick(&["c", "d"]).into(),
                args: self.terms(3),
            },
            _ => TemplateDesc::False,
        }
    }

    /// An event: usually an instance of `lhs` under random values, so
    /// that matches are frequent, else any pool event.
    fn event(&mut self, lhs: &TemplateDesc) -> EventDesc {
        if !self.one_in(4) {
            let mut b = Bindings::default();
            for v in VARS {
                b.bind(v, self.value());
            }
            if let Some(e) = instantiate(lhs, &b) {
                return e;
            }
        }
        let item = ItemId::with(
            self.pick(&["x", "y"]),
            (0..self.below(2)).map(|_| self.value()),
        );
        match self.below(8) {
            0 => EventDesc::Ws {
                item,
                old: (!self.one_in(2)).then(|| self.value()),
                new: self.value(),
            },
            1 => EventDesc::W {
                item,
                value: self.value(),
            },
            2 => EventDesc::Wr {
                item,
                value: self.value(),
            },
            3 => EventDesc::Rr { item },
            4 => EventDesc::R {
                item,
                value: self.value(),
            },
            5 => EventDesc::N {
                item,
                value: self.value(),
            },
            6 => EventDesc::P {
                period: SimDuration::from_millis(1 + self.below(2)),
            },
            _ => EventDesc::Custom {
                name: self.pick(&["c", "d"]).into(),
                args: (0..self.below(4)).map(|_| self.value()).collect(),
            },
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        let leaf = depth == 0 || self.one_in(2);
        if leaf {
            return match self.below(3) {
                0 => Expr::Item(self.pattern(&["X", "Y"])),
                1 => Expr::Var(self.var().into()),
                _ => Expr::Lit(self.value()),
            };
        }
        let mut sub = || Box::new(self.expr(depth - 1));
        let (a, b) = (sub(), sub());
        match self.below(6) {
            0 => Expr::Neg(a),
            1 => Expr::Abs(a),
            2 => Expr::Add(a, b),
            3 => Expr::Sub(a, b),
            4 => Expr::Mul(a, b),
            _ => Expr::Div(a, b),
        }
    }

    fn cond(&mut self, depth: u32) -> Cond {
        if depth == 0 || self.one_in(3) {
            let (item, var) = (self.pattern(&["X", "Y"]), self.var().into());
            return match self.below(6) {
                0 => Cond::True,
                1 => Cond::Exists(item),
                // The binding equalities, both ways round.
                2 => Cond::Cmp(Expr::Item(item), CmpOp::Eq, Expr::Var(var)),
                3 => Cond::Cmp(Expr::Var(var), CmpOp::Eq, Expr::Item(item)),
                _ => {
                    let op = self.pick(&OPS);
                    Cond::Cmp(self.expr(2), op, self.expr(2))
                }
            };
        }
        let kind = self.below(5);
        let mut sub = || Box::new(self.cond(depth - 1));
        match kind {
            0 => Cond::Not(sub()),
            1 => Cond::Or(sub(), sub()),
            _ => Cond::And(sub(), sub()),
        }
    }

    /// Values of the data items conditions read.
    fn state(&mut self) -> HashMap<ItemId, Value> {
        let mut state = HashMap::new();
        for base in ["X", "Y"] {
            state.insert(ItemId::plain(base), self.value());
            for p in 0..3 {
                if !self.one_in(3) {
                    state.insert(ItemId::with(base, [Value::Int(p)]), self.value());
                }
            }
            state.insert(ItemId::with(base, [Value::from("a")]), self.value());
        }
        state
    }
}

const VARS: [&str; 4] = ["u", "v", "w", "c"];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A step writing variable `v` alone: it instantiates exactly when `v`
/// is bound, to `v`'s value.
fn probe(v: &str) -> RhsStep {
    RhsStep {
        cond: Cond::True,
        event: TemplateDesc::Custom {
            name: format!("probe_{v}"),
            args: vec![Term::var(v)],
        },
    }
}

#[test]
fn shared_matcher_agrees_with_reference_interpreter() {
    let mut g = Gen(0x5107_D1FF);
    let (mut matched, mut held, mut cond_bound, mut instances) = (0, 0, 0, 0);
    for case in 0..20_000 {
        let lhs = g.template();
        let cond = g.cond(3);
        let mut steps: Vec<RhsStep> = (0..g.below(3))
            .map(|_| RhsStep {
                cond: if g.one_in(2) { Cond::True } else { g.cond(2) },
                event: g.template(),
            })
            .collect();
        steps.extend(VARS.map(probe));
        let event = g.event(&lhs);
        let state = g.state();
        let ctx = format!("case {case}: {lhs} when {cond} on {event:?}");

        let mut compiler = RuleCompiler::default();
        compiler.rule(&lhs, &cond, &steps);
        let rules = compiler.finish();
        let rule = rules.rule(0);
        let read = |item: &ItemId| state.get(item).map(Cow::Borrowed);
        let mut m = Matcher::new(&rules);
        let ok = m.matches(&rule.lhs, &event);

        let lookup = |item: &ItemId| state.get(item).cloned();
        let mut b = Bindings::default();
        assert_eq!(ok, match_desc(&lhs, &event, &mut b), "{ctx}: match");
        if ok {
            matched += 1;
            let before = b.iter().count();
            let holds = m.holds_binding(rule, read);
            bind_from_cond(&cond, &mut b, &lookup);
            assert_eq!(holds, eval_cond(&cond, &b, &lookup), "{ctx}: condition");
            held += usize::from(holds);
            cond_bound += usize::from(b.iter().count() > before);
        }
        for (step, slot_step) in steps.iter().zip(rules.steps(rule)) {
            let got = rules.instantiate(&slot_step.event, &m);
            let want = instantiate(&step.event, &b);
            assert_eq!(got, want, "{ctx}: instance of {}", step.event);
            instances += usize::from(got.is_some());
            let holds = rules.holds(&slot_step.cond, &m, read);
            let want = eval_cond(&step.cond, &b, &lookup);
            assert_eq!(holds, want, "{ctx}: step condition {}", step.cond);
        }
    }
    // Every outcome occurs often enough to mean something.
    assert!(
        matched > 5_000 && held > 1_000 && cond_bound > 500 && instances > 10_000,
        "{matched} {held} {cond_bound} {instances}"
    );
}

#[test]
fn matches_item_agrees_with_reference_match_item() {
    let mut g = Gen(0x17E3_5EED);
    let (mut matched, mut missed) = (0, 0);
    for case in 0..20_000 {
        let pattern = ItemPattern::with(g.pick(&["x", "y"]), g.terms(2));
        // Usually an item the pattern names under random variable
        // values, so that matches are frequent; else any pool item.
        let item = if g.one_in(4) {
            let params = (0..g.below(3)).map(|_| g.value()).collect::<Vec<_>>();
            ItemId::with(g.pick(&["x", "y"]), params)
        } else {
            let mut values = Bindings::default();
            for v in VARS {
                values.bind(v, g.value());
            }
            let param = |t: &Term| match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => values.get(v).cloned().unwrap(),
                Term::Wild => g.value(),
            };
            ItemId::with(
                pattern.base,
                pattern.params.iter().map(param).collect::<Vec<_>>(),
            )
        };
        // Half the cases bind `u` before the item is matched.
        let pre = g.one_in(2).then(|| EventDesc::Custom {
            name: "pre".into(),
            args: vec![g.value()],
        });
        let ctx = format!("case {case}: {pattern} on {item} after {pre:?}");

        let lhs = TemplateDesc::Custom {
            name: "pre".into(),
            args: vec![Term::var("u")],
        };
        let mut steps = vec![RhsStep {
            cond: Cond::True,
            event: TemplateDesc::Rr {
                item: pattern.clone(),
            },
        }];
        steps.extend(VARS.map(probe));
        let mut compiler = RuleCompiler::default();
        compiler.rule(&lhs, &Cond::True, &steps);
        let rules = compiler.finish();
        let rule = rules.rule(0);
        let slot_steps = rules.steps(rule);
        let mut m = Matcher::new(&rules);
        let mut b = Bindings::default();
        if let Some(event @ EventDesc::Custom { args, .. }) = &pre {
            assert!(m.matches(&rule.lhs, event), "{ctx}");
            b.bind("u", args[0].clone());
        }
        let mark = m.mark();
        let ok = m.matches_item(&slot_steps[0].event, &item);
        assert_eq!(ok, match_item(&pattern, &item, &mut b), "{ctx}: match");
        if !ok {
            missed += 1;
            assert_eq!(m.mark(), mark, "{ctx}: a failed match undoes its bindings");
            continue;
        }
        matched += 1;
        for (step, slot_step) in steps.iter().zip(slot_steps).skip(1) {
            let got = rules.instantiate(&slot_step.event, &m);
            assert_eq!(got, instantiate(&step.event, &b), "{ctx}: {}", step.event);
        }
    }
    // Both outcomes occur often enough to mean something.
    assert!(matched > 10_000 && missed > 3_000, "{matched} {missed}");
}
