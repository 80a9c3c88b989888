//! Differential suite: the one-pass validity checker against the
//! property-by-property reference in `reference/mod.rs`.
//!
//! A SplitMix64 generator (the same in-file pattern as the other
//! suites — deterministic, dependency-free) builds random rule sets
//! over a few sites and random traces that exercise every property:
//! firings whose triggers are picked out of order so their effects
//! invert within and across related rules (property 7), out-of-order
//! pushes (property 1), wrong old values (property 2), unknown rules
//! and dangling, self, future or mismatched triggers (property 5), step
//! conditions over items written inside the window, prohibitions and
//! `WriteRejected` refusals up the trigger chain (property 6). Values
//! are integers and strings; items take up to two parameters; a
//! template may repeat a variable (`W(X(n), n)`), give a `Ws` an
//! explicit old value, or match a two-argument custom event; conditions
//! use `or`, arithmetic and binding equalities under `and`. Every
//! report must equal the reference's exactly: the same violations in
//! the same order, and the same obligation count.

mod reference;

use hcm_checker::RuleSet;
use hcm_core::{
    EventDesc, EventId, ItemId, ItemPattern, RuleId, SimDuration, SimTime, SiteId, TemplateDesc,
    Term, Trace, Value,
};
use hcm_rulelang::{parse_strategy_rule, CmpOp, Cond, Expr, InterfaceStmt, RhsStep, StrategyRule};
use reference::{checked, instantiate, match_desc, Bindings};
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

    /// `true` with probability 1/n.
    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    /// A small base pool so rules, events and conditions collide.
    fn base(&mut self) -> &'static str {
        ["X", "Y", "Z"][self.below(3) as usize]
    }

    /// Mostly small integers, sometimes strings, which compare with
    /// neither integers nor arithmetic.
    fn value(&mut self) -> Value {
        if self.one_in(4) {
            Value::Str(["u", "v"][self.below(2) as usize].into())
        } else {
            Value::Int(self.below(3) as i64)
        }
    }

    fn item(&mut self) -> ItemId {
        let base = self.base();
        match self.below(4) {
            0 | 1 => ItemId::plain(base),
            2 => ItemId::with(base, [self.value()]),
            _ => ItemId::with(base, [self.value(), self.value()]),
        }
    }

    /// A value term. `n` and `m` are also item parameters, so a
    /// template can repeat a variable, as in `W(X(n), n)`.
    fn term(&mut self) -> Term {
        match self.below(5) {
            0 | 1 => Term::var(["b", "c"][self.below(2) as usize]),
            2 => Term::var(["n", "m"][self.below(2) as usize]),
            3 => Term::Const(self.value()),
            _ => Term::Wild,
        }
    }

    fn param(&mut self) -> Term {
        match self.below(4) {
            0 | 1 => Term::var("n"),
            2 => Term::var("m"),
            _ => Term::Const(self.value()),
        }
    }

    fn pattern(&mut self) -> ItemPattern {
        let base = self.base();
        match self.below(4) {
            0 | 1 => ItemPattern::plain(base),
            2 => ItemPattern::with(base, [self.param()]),
            _ => ItemPattern::with(base, [self.param(), self.param()]),
        }
    }

    fn custom_args(&mut self) -> Vec<Term> {
        (0..1 + self.below(2)).map(|_| self.term()).collect()
    }

    fn lhs(&mut self) -> TemplateDesc {
        match self.below(7) {
            0 => TemplateDesc::Ws {
                item: self.pattern(),
                // An explicit old-value term matches only writes that
                // record their old value (unless it is a `*`).
                old: self.one_in(2).then(|| self.term()),
                new: self.term(),
            },
            1 => TemplateDesc::W {
                item: self.pattern(),
                value: self.term(),
            },
            2 => TemplateDesc::Wr {
                item: self.pattern(),
                value: self.term(),
            },
            3 => TemplateDesc::P {
                period: Term::Const(Value::Int(100)),
            },
            4 => TemplateDesc::Custom {
                name: "Grant".into(),
                args: self.custom_args(),
            },
            _ => TemplateDesc::N {
                item: self.pattern(),
                value: self.term(),
            },
        }
    }

    fn step_event(&mut self) -> TemplateDesc {
        match self.below(14) {
            0 => TemplateDesc::False,
            12 => TemplateDesc::Custom {
                name: "Grant".into(),
                args: self.custom_args(),
            },
            13 => TemplateDesc::R {
                item: self.pattern(),
                value: self.term(),
            },
            1..=3 => TemplateDesc::W {
                item: self.pattern(),
                value: self.term(),
            },
            4..=6 => TemplateDesc::N {
                item: self.pattern(),
                value: self.term(),
            },
            _ => TemplateDesc::Wr {
                item: self.pattern(),
                value: self.term(),
            },
        }
    }

    /// An arithmetic expression over an item and a variable.
    fn arith(&mut self) -> Expr {
        let item = Box::new(Expr::Item(self.pattern()));
        let var = Box::new(Expr::Var(["b", "n"][self.below(2) as usize].into()));
        match self.below(6) {
            0 => Expr::Add(item, var),
            1 => Expr::Sub(var, item),
            2 => Expr::Mul(item, Box::new(Expr::Lit(Value::Int(2)))),
            3 => Expr::Div(item, var),
            4 => Expr::Neg(item),
            _ => Expr::Abs(Box::new(Expr::Sub(item, var))),
        }
    }

    fn cond(&mut self) -> Cond {
        let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge][self.below(4) as usize];
        match self.below(11) {
            8 => Cond::Or(Box::new(self.cond()), Box::new(self.cond())),
            9 => Cond::Cmp(self.arith(), op, Expr::Lit(self.value())),
            // A binding equality under `and`, then a test of the bound
            // variable.
            10 => Cond::And(
                Box::new(Cond::Cmp(
                    Expr::Var("c".into()),
                    CmpOp::Eq,
                    Expr::Item(self.pattern()),
                )),
                Box::new(Cond::Cmp(self.arith(), op, Expr::Var("c".into()))),
            ),
            0..=2 => Cond::True,
            3 => Cond::Cmp(Expr::Item(self.pattern()), op, Expr::Lit(self.value())),
            // `item = var` binds an unbound variable (the read
            // interface's shape).
            4 => Cond::Cmp(Expr::Item(self.pattern()), CmpOp::Eq, Expr::Var("c".into())),
            5 => Cond::Cmp(Expr::Var("b".into()), op, Expr::Lit(self.value())),
            6 => Cond::Not(Box::new(Cond::Exists(self.pattern()))),
            _ => Cond::And(
                Box::new(Cond::Cmp(
                    Expr::Item(self.pattern()),
                    op,
                    Expr::Item(self.pattern()),
                )),
                Box::new(Cond::Cmp(
                    Expr::Item(self.pattern()),
                    CmpOp::Ne,
                    Expr::Var("b".into()),
                )),
            ),
        }
    }

    fn bound(&mut self) -> SimDuration {
        SimDuration::from_millis(50 + self.below(1_500))
    }

    fn rule_set(&mut self, sites: u64) -> RuleSet {
        let mut rs = RuleSet::new();
        for id in 0..1 + self.below(7) as u32 {
            let lhs_site = SiteId::new(self.below(sites) as u32);
            if self.one_in(4) {
                let stmt = InterfaceStmt {
                    lhs: self.lhs(),
                    cond: self.cond(),
                    rhs: self.step_event(),
                    bound: self.bound(),
                };
                rs.add_interface(RuleId(id), lhs_site, &stmt);
            } else {
                // Few RHS sites, so groups of related rules are common.
                let rhs_site = SiteId::new(self.below(sites.min(2)) as u32);
                let rule = StrategyRule {
                    lhs: self.lhs(),
                    cond: self.cond(),
                    steps: (0..1 + self.below(2))
                        .map(|_| RhsStep {
                            cond: self.cond(),
                            event: self.step_event(),
                        })
                        .collect(),
                    bound: self.bound(),
                };
                rs.add_strategy(RuleId(id), lhs_site, rhs_site, &rule);
            }
        }
        rs
    }

    /// A descriptor generated by rule `r` from the trigger: usually an
    /// instance of one of its steps, so obligations can be fulfilled.
    fn generated(&mut self, rules: &RuleSet, r: usize, trigger: &EventDesc) -> EventDesc {
        if self.one_in(8) {
            return EventDesc::Custom {
                name: "WriteRejected".into(),
                args: vec![self.value()],
            };
        }
        let rule = &rules.rules()[r];
        let mut b = Bindings::default();
        if !self.one_in(6) && match_desc(&rule.lhs, trigger, &mut b) {
            for v in ["b", "c", "n", "m"] {
                if b.get(v).is_none() {
                    b.bind(v, self.value());
                }
            }
            let step = &rule.steps[self.below(rule.steps.len() as u64) as usize];
            if let Some(desc) = instantiate(&step.event, &b) {
                return desc;
            }
        }
        EventDesc::Wr {
            item: self.item(),
            value: self.value(),
        }
    }

    fn trace(&mut self, rules: &RuleSet, sites: u64) -> Trace {
        let mut tr = Trace::new();
        let mut state: HashMap<ItemId, Value> = HashMap::new();
        for _ in 0..self.below(4) {
            let (item, v) = (self.item(), self.value());
            tr.set_initial(item.clone(), v.clone());
            state.insert(item, v);
        }
        let mut now = 0u64;
        for _ in 0..8 + self.below(40) {
            now += self.below(250);
            // An occasional push back in time (property 1).
            let time = if self.one_in(20) {
                now.saturating_sub(self.below(800))
            } else {
                now
            };
            let site = SiteId::new(self.below(sites) as u32);
            let len = tr.len() as u64;
            let (site, desc, rule, trigger) = match self.below(10) {
                _ if len == 0 || rules.rules().is_empty() => (site, self.spontaneous(), None, None),
                0..=3 => (site, self.spontaneous(), None, None),
                _ => {
                    // A firing from a random earlier trigger: picking
                    // triggers out of order inverts effects.
                    let pos = self.below(len) as usize;
                    let r = self.below(rules.rules().len() as u64) as usize;
                    let desc = self.generated(rules, r, &tr.events()[pos].desc);
                    let rule_id = if self.one_in(25) {
                        RuleId(99)
                    } else {
                        rules.rules()[r].id
                    };
                    let trigger = match self.below(30) {
                        0 => EventId(len + 1),
                        1 => EventId(len),
                        2 => EventId(999),
                        _ => tr.events()[pos].id,
                    };
                    let site = if self.one_in(5) {
                        site
                    } else {
                        rules.rules()[r].rhs_site
                    };
                    (site, desc, Some(rule_id), Some(trigger))
                }
            };
            let old = desc.write_effect().and_then(|(item, _)| {
                if self.one_in(15) {
                    Some(Value::Int(-1))
                } else {
                    state.get(item).cloned()
                }
            });
            if let Some((item, v)) = desc.write_effect() {
                state.insert(item.clone(), v.clone());
            }
            tr.push(SimTime::from_millis(time), site, desc, old, rule, trigger);
        }
        tr
    }

    fn spontaneous(&mut self) -> EventDesc {
        match self.below(8) {
            0 => EventDesc::P {
                period: SimDuration::from_millis(100),
            },
            1 => EventDesc::Custom {
                name: "Grant".into(),
                args: (0..1 + self.below(2)).map(|_| self.value()).collect(),
            },
            2 => EventDesc::N {
                item: self.item(),
                value: self.value(),
            },
            _ => EventDesc::Ws {
                item: self.item(),
                old: self.one_in(2).then(|| self.value()),
                new: self.value(),
            },
        }
    }
}

#[test]
fn random_traces_match_the_reference() {
    let mut g = Gen(0x7A11_DA7E);
    let mut seen = [0usize; 8];
    for _ in 0..600 {
        let sites = 1 + g.below(3);
        let rules = g.rule_set(sites);
        let trace = g.trace(&rules, sites);
        let report = checked(&trace, &rules);
        for v in &report.violations {
            seen[v.property as usize] += 1;
        }
    }
    // The generator reaches every property the checker can flag
    // (property 3 holds by construction of the event encoding).
    for p in [1, 2, 4, 5, 6, 7] {
        assert!(seen[p] > 0, "no property-{p} violation generated: {seen:?}");
    }
}

const A: SiteId = SiteId::new(0);
const B: SiteId = SiteId::new(1);

/// One rule `N(X, b) -> if <cond> then WR(Y, b) within 5s` from A to B,
/// and a trace where `N(X, value)` at 1 s goes unanswered while `Flag`
/// takes the given values at the given milliseconds.
fn step_condition_case(cond: &str, value: i64, flag: &[(u64, i64)]) -> hcm_checker::ValidityReport {
    let mut rs = RuleSet::new();
    let rule = format!("N(X, b) -> if {cond} then WR(Y, b) within 5s");
    rs.add_strategy(RuleId(0), A, B, &parse_strategy_rule(&rule).unwrap());
    let mut tr = Trace::new();
    tr.set_initial(ItemId::plain("Flag"), Value::Int(0));
    tr.push(
        SimTime::from_secs(1),
        A,
        EventDesc::N {
            item: ItemId::plain("X"),
            value: Value::Int(value),
        },
        None,
        None,
        None,
    );
    let mut old = Value::Int(0);
    for &(ms, v) in flag {
        tr.push(
            SimTime::from_millis(ms),
            B,
            EventDesc::Ws {
                item: ItemId::plain("Flag"),
                old: None,
                new: Value::Int(v),
            },
            Some(old),
            None,
            None,
        );
        old = Value::Int(v);
    }
    checked(&tr, &rs)
}

fn unfulfilled(report: &hcm_checker::ValidityReport) -> bool {
    report
        .of_property(6)
        .iter()
        .any(|v| v.msg.contains("unfulfilled"))
}

#[test]
fn step_condition_true_only_inside_the_window_does_not_discharge() {
    // The window is [1 s, 6 s]; Flag = 1 only during [3.0 s, 3.2 s).
    let report = step_condition_case("Flag = 1", 5, &[(3_000, 1), (3_200, 0)]);
    assert!(unfulfilled(&report), "{:#?}", report.violations);
    // Never true in the window: the skipped step is legitimate.
    let report = step_condition_case("Flag = 1", 5, &[(500, 1), (900, 0), (7_000, 1)]);
    assert!(!unfulfilled(&report), "{:#?}", report.violations);
}

#[test]
fn step_condition_true_exactly_at_window_end_does_not_discharge() {
    let report = step_condition_case("Flag = 1", 5, &[(6_000, 1)]);
    assert!(unfulfilled(&report), "{:#?}", report.violations);
    // One millisecond later is outside the window.
    let report = step_condition_case("Flag = 1", 5, &[(6_001, 1)]);
    assert!(!unfulfilled(&report), "{:#?}", report.violations);
}

#[test]
fn step_condition_on_bound_variables_only() {
    let report = step_condition_case("b > 3", 5, &[(2_000, 1)]);
    assert!(unfulfilled(&report), "{:#?}", report.violations);
    let report = step_condition_case("b > 3", 2, &[(2_000, 1)]);
    assert!(!unfulfilled(&report), "{:#?}", report.violations);
}
