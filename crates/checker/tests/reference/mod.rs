//! Reference validity checker: the direct transcription of Appendix
//! A.2 that `hcm_checker::check_validity` must reproduce exactly.
//!
//! It walks rules × events for property 6, re-filters the whole trace
//! per related-rule pair for property 7, and probes step conditions at
//! every millisecond of the window — quadratic, but obviously faithful
//! to the appendix. The production checker computes the same report
//! (same violations, same order, same obligation count) in one indexed
//! pass; the differential suites compare the two. Shared between
//! `crates/checker/tests/` and the root `tests/` via `#[path]`.
//!
//! It also keeps its own rule interpreter, keyed by variable name and
//! written straight from the appendix's definitions: [`Bindings`] is a
//! matching interpretation, [`match_desc`] extends one so that a
//! template yields an event, [`instantiate`] substitutes one into a
//! template, and [`eval_cond`] reads a condition under one. Production
//! code matches through the slot-compiled `hcm_rulelang::slots`; this
//! interpreter shares nothing with it, so the differential suites
//! compare two independent readings of one meaning.

#![allow(dead_code)] // each test binary uses a different subset

use hcm_checker::{RuleSet, StateIndex, ValidityReport, Violation};
use hcm_core::{
    Event, EventDesc, ItemId, ItemPattern, RuleId, SimDuration, SimTime, TemplateDesc, Term, Trace,
    Value,
};
use hcm_rulelang::{CmpOp, Cond, Expr};
use std::collections::{BTreeMap, HashMap};

/// A matching interpretation: rule variables by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings(BTreeMap<String, Value>);

impl Bindings {
    /// The value bound to `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.get(name)
    }

    /// Bind `name`, replacing any earlier value.
    pub fn bind(&mut self, name: &str, value: Value) {
        self.0.insert(name.to_owned(), value);
    }

    /// Every binding, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A bound variable must agree; an unbound one binds.
fn unify(term: &Term, value: &Value, b: &mut Bindings) -> bool {
    match term {
        Term::Wild => true,
        Term::Const(c) => c == value,
        Term::Var(name) => match b.get(name) {
            Some(bound) => bound == value,
            None => {
                b.bind(name, value.clone());
                true
            }
        },
    }
}

fn unify_all<'a>(pairs: impl IntoIterator<Item = (&'a Term, &'a Value)>, b: &mut Bindings) -> bool {
    pairs.into_iter().all(|(t, v)| unify(t, v, b))
}

/// Extend `b` so that pattern `p` names `item`; on failure `b` may
/// keep the bindings made before the mismatch.
pub fn match_item(p: &ItemPattern, item: &ItemId, b: &mut Bindings) -> bool {
    p.base == item.base
        && p.params.len() == item.params.len()
        && unify_all(p.params.iter().zip(item.params.iter()), b)
}

/// Extend `b` so that template `t` yields event `desc`; on failure `b`
/// is left as it was.
pub fn match_desc(t: &TemplateDesc, desc: &EventDesc, b: &mut Bindings) -> bool {
    let mut ext = b.clone();
    let ok = match (t, desc) {
        (
            TemplateDesc::Ws { item, old, new },
            EventDesc::Ws {
                item: i,
                old: o,
                new: n,
            },
        ) => {
            let old_ok = match (old, o) {
                (None, _) | (Some(Term::Wild), None) => true,
                (Some(term), Some(ov)) => unify(term, ov, &mut ext),
                (Some(_), None) => false,
            };
            match_item(item, i, &mut ext) && old_ok && unify(new, n, &mut ext)
        }
        (TemplateDesc::W { item, value }, EventDesc::W { item: i, value: v })
        | (TemplateDesc::Wr { item, value }, EventDesc::Wr { item: i, value: v })
        | (TemplateDesc::R { item, value }, EventDesc::R { item: i, value: v })
        | (TemplateDesc::N { item, value }, EventDesc::N { item: i, value: v }) => {
            match_item(item, i, &mut ext) && unify(value, v, &mut ext)
        }
        (TemplateDesc::Rr { item }, EventDesc::Rr { item: i }) => match_item(item, i, &mut ext),
        (TemplateDesc::P { period }, EventDesc::P { period: p }) => {
            unify(period, &Value::Int(p.as_millis() as i64), &mut ext)
        }
        (TemplateDesc::Custom { name, args }, EventDesc::Custom { name: n, args: a }) => {
            name == n && args.len() == a.len() && unify_all(args.iter().zip(a), &mut ext)
        }
        _ => false,
    };
    if ok {
        *b = ext;
    }
    ok
}

fn term_value<'b>(t: &'b Term, b: &'b Bindings) -> Option<&'b Value> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(name) => b.get(name),
        Term::Wild => None,
    }
}

fn instantiate_item(p: &ItemPattern, b: &Bindings) -> Option<ItemId> {
    let params: Option<Vec<Value>> = p.params.iter().map(|t| term_value(t, b).cloned()).collect();
    Some(ItemId::with(p.base, params?))
}

/// The ground event template `t` denotes under `b`; `None` when a term
/// is a `*` or unbound, and for `𝓕`.
pub fn instantiate(t: &TemplateDesc, b: &Bindings) -> Option<EventDesc> {
    let v = |t: &Term| term_value(t, b).cloned();
    Some(match t {
        TemplateDesc::Ws { item, old, new } => EventDesc::Ws {
            item: instantiate_item(item, b)?,
            old: match old {
                Some(t) => Some(v(t)?),
                None => None,
            },
            new: v(new)?,
        },
        TemplateDesc::W { item, value } => EventDesc::W {
            item: instantiate_item(item, b)?,
            value: v(value)?,
        },
        TemplateDesc::Wr { item, value } => EventDesc::Wr {
            item: instantiate_item(item, b)?,
            value: v(value)?,
        },
        TemplateDesc::Rr { item } => EventDesc::Rr {
            item: instantiate_item(item, b)?,
        },
        TemplateDesc::R { item, value } => EventDesc::R {
            item: instantiate_item(item, b)?,
            value: v(value)?,
        },
        TemplateDesc::N { item, value } => EventDesc::N {
            item: instantiate_item(item, b)?,
            value: v(value)?,
        },
        TemplateDesc::P { period } => {
            let ms = v(period)?.as_int()?;
            EventDesc::P {
                period: SimDuration::from_millis(u64::try_from(ms).ok()?),
            }
        }
        TemplateDesc::Custom { name, args } => EventDesc::Custom {
            name: name.clone(),
            args: args.iter().map(v).collect::<Option<_>>()?,
        },
        TemplateDesc::False => return None,
    })
}

/// An expression's value under `b` with data items read from `item`;
/// `None` when an input is missing or an operation undefined.
pub fn eval_expr(e: &Expr, b: &Bindings, item: &dyn Fn(&ItemId) -> Option<Value>) -> Option<Value> {
    let ev = |e: &Expr| eval_expr(e, b, item);
    match e {
        Expr::Lit(v) => Some(v.clone()),
        Expr::Var(name) => b.get(name).cloned(),
        Expr::Item(p) => item(&instantiate_item(p, b)?),
        Expr::Neg(a) => Value::Int(0).sub(&ev(a)?),
        Expr::Abs(a) => ev(a)?.abs(),
        Expr::Add(x, y) => ev(x)?.add(&ev(y)?),
        Expr::Sub(x, y) => ev(x)?.sub(&ev(y)?),
        Expr::Mul(x, y) => ev(x)?.mul(&ev(y)?),
        Expr::Div(x, y) => {
            let d = ev(y)?.as_f64()?;
            if d == 0.0 {
                None
            } else {
                Some(Value::Float(ev(x)?.as_f64()? / d))
            }
        }
    }
}

/// Whether `c` holds under `b` with data items read from `item`: a
/// comparison with a missing input is false.
pub fn eval_cond(c: &Cond, b: &Bindings, item: &dyn Fn(&ItemId) -> Option<Value>) -> bool {
    match c {
        Cond::True => true,
        Cond::Cmp(x, op, y) => match (eval_expr(x, b, item), eval_expr(y, b, item)) {
            (Some(vx), Some(vy)) => op.apply(&vx, &vy).unwrap_or(false),
            _ => false,
        },
        Cond::And(x, y) => eval_cond(x, b, item) && eval_cond(y, b, item),
        Cond::Or(x, y) => eval_cond(x, b, item) || eval_cond(y, b, item),
        Cond::Not(x) => !eval_cond(x, b, item),
        Cond::Exists(p) => eval_expr(&Expr::Item(p.clone()), b, item).is_some_and(|v| v.exists()),
    }
}

/// Bind each variable an `item = var` equality under `and` determines
/// and that is still unbound when it is reached.
pub fn bind_from_cond(c: &Cond, b: &mut Bindings, item: &dyn Fn(&ItemId) -> Option<Value>) {
    match c {
        Cond::And(x, y) => {
            bind_from_cond(x, b, item);
            bind_from_cond(y, b, item);
        }
        Cond::Cmp(Expr::Item(p), CmpOp::Eq, Expr::Var(v))
        | Cond::Cmp(Expr::Var(v), CmpOp::Eq, Expr::Item(p))
            if b.get(v).is_none() =>
        {
            if let Some(val) = instantiate_item(p, b).and_then(|i| item(&i)) {
                b.bind(v, val);
            }
        }
        _ => {}
    }
}

fn at(idx: &StateIndex, t: SimTime) -> impl Fn(&ItemId) -> Option<Value> + '_ {
    move |item| idx.value_at(item, t).cloned()
}

fn eval_at(cond: &Cond, idx: &StateIndex, t: SimTime, bindings: &Bindings) -> bool {
    eval_cond(cond, bindings, &at(idx, t))
}

fn bind_at(cond: &Cond, idx: &StateIndex, t: SimTime, bindings: &mut Bindings) {
    bind_from_cond(cond, bindings, &at(idx, t));
}

/// Run the production checker, assert that its report equals this
/// reference's (the same violations in the same order, and the same
/// obligation count), and return it.
pub fn checked(trace: &Trace, rules: &RuleSet) -> ValidityReport {
    let fast = hcm_checker::check_validity(trace, rules);
    let slow = check_validity(trace, rules);
    assert_eq!(
        fast.violations, slow.violations,
        "violations differ from the reference"
    );
    assert_eq!(
        fast.obligations_checked, slow.obligations_checked,
        "obligation counts differ from the reference"
    );
    fast
}

/// The seven-property check, property by property.
#[must_use]
pub fn check_validity(trace: &Trace, rules: &RuleSet) -> ValidityReport {
    let mut report = ValidityReport::default();
    let idx = StateIndex::build(trace);
    let events = trace.events();

    // ---- Property 1: time ordering -------------------------------------
    for w in events.windows(2) {
        if w[1].time < w[0].time {
            report.violations.push(Violation {
                property: 1,
                event: Some(w[1].id.0),
                msg: format!("event at {} after event at {}", w[1].time, w[0].time),
            });
        }
    }

    // ---- Properties 2 & 3: write semantics + frame axiom ----------------
    let mut state: HashMap<ItemId, Value> = trace
        .initial_values()
        .map(|(item, v)| (item.clone(), v.clone()))
        .collect();
    for e in events {
        if let Some((item, new)) = e.desc.write_effect() {
            let current = state.get(item);
            if let Some(recorded_old) = &e.old_value {
                if let Some(current) = current {
                    if current != recorded_old {
                        report.violations.push(Violation {
                            property: 2,
                            event: Some(e.id.0),
                            msg: format!(
                                "write of {item} records old={recorded_old} but state was {current}"
                            ),
                        });
                    }
                }
            }
            state.insert(item.clone(), new.clone());
        }
    }

    // ---- Property 4: spontaneity ----------------------------------------
    for e in events {
        if e.desc.is_spontaneous_kind() {
            if e.rule.is_some() || e.trigger.is_some() {
                report.violations.push(Violation {
                    property: 4,
                    event: Some(e.id.0),
                    msg: format!("spontaneous event {} carries rule/trigger", e.desc),
                });
            }
        } else if !matches!(e.desc, EventDesc::Custom { .. })
            && (e.rule.is_none() || e.trigger.is_none())
        {
            report.violations.push(Violation {
                property: 4,
                event: Some(e.id.0),
                msg: format!("generated event {} lacks rule/trigger", e.desc),
            });
        }
    }

    // ---- Property 5: causality -------------------------------------------
    for e in events {
        let (Some(rule_id), Some(trigger_id)) = (e.rule, e.trigger) else {
            continue;
        };
        let Some(rule) = rules.rules().iter().find(|r| r.id == rule_id) else {
            report.violations.push(Violation {
                property: 5,
                event: Some(e.id.0),
                msg: format!("unknown rule {rule_id}"),
            });
            continue;
        };
        let Some(trigger) = trace.get(trigger_id) else {
            report.violations.push(Violation {
                property: 5,
                event: Some(e.id.0),
                msg: format!("missing trigger {trigger_id}"),
            });
            continue;
        };
        if trace.index_of(trigger.id) >= trace.index_of(e.id) {
            report.violations.push(Violation {
                property: 5,
                event: Some(e.id.0),
                msg: "trigger does not precede event".into(),
            });
            continue;
        }
        let mut bindings = Bindings::default();
        if !match_desc(&rule.lhs, &trigger.desc, &mut bindings) {
            report.violations.push(Violation {
                property: 5,
                event: Some(e.id.0),
                msg: format!("trigger {} does not match LHS of {rule_id}", trigger.desc),
            });
            continue;
        }
        let refusal = matches!(&e.desc, EventDesc::Custom { name, .. } if name == "WriteRejected");
        let mut template_matched = refusal;
        let mut explained = refusal;
        for step in &rule.steps {
            let mut b = bindings.clone();
            if !match_desc(&step.event, &e.desc, &mut b) {
                continue;
            }
            template_matched = true;
            bind_at(&rule.cond, &idx, trigger.time, &mut b);
            if eval_at(&rule.cond, &idx, trigger.time, &b) {
                explained = true;
                break;
            }
        }
        if !template_matched {
            report.violations.push(Violation {
                property: 5,
                event: Some(e.id.0),
                msg: format!(
                    "event {} is not an instance of any RHS template of {rule_id}",
                    e.desc
                ),
            });
        } else if !explained {
            report.violations.push(Violation {
                property: 5,
                event: Some(e.id.0),
                msg: format!("LHS condition of {rule_id} false at trigger time"),
            });
        }
        if e.time > trigger.time + rule.bound {
            report.violations.push(Violation {
                property: 5,
                event: Some(e.id.0),
                msg: format!(
                    "event at {} exceeds bound {} after trigger at {}",
                    e.time, rule.bound, trigger.time
                ),
            });
        }
    }

    // ---- Property 6: obligations ------------------------------------------
    for rule in rules.rules() {
        for (trigger_pos, trigger) in events.iter().enumerate() {
            if trigger.site != rule.lhs_site {
                continue;
            }
            let mut bindings = Bindings::default();
            if !match_desc(&rule.lhs, &trigger.desc, &mut bindings) {
                continue;
            }
            bind_at(&rule.cond, &idx, trigger.time, &mut bindings);
            if !eval_at(&rule.cond, &idx, trigger.time, &bindings) {
                continue;
            }
            report.obligations_checked += 1;
            let window_end = trigger.time + rule.bound;
            for step in &rule.steps {
                if step.event == TemplateDesc::False {
                    report.violations.push(Violation {
                        property: 6,
                        event: Some(trigger.id.0),
                        msg: format!(
                            "prohibited event {} occurred (rule {})",
                            trigger.desc, rule.id
                        ),
                    });
                    continue;
                }
                let fulfilled = events[trigger_pos + 1..].iter().any(|e| {
                    if e.time > window_end {
                        return false;
                    }
                    if e.rule != Some(rule.id) || e.trigger != Some(trigger.id) {
                        return false;
                    }
                    let mut b = bindings.clone();
                    same_kind(&e.desc, &step.event) && match_desc(&step.event, &e.desc, &mut b)
                });
                if fulfilled {
                    continue;
                }
                // The step condition, probed at every millisecond of
                // the window.
                if step.cond != Cond::True {
                    let mut any_true = false;
                    let mut t = trigger.time;
                    loop {
                        if eval_at(&step.cond, &idx, t, &bindings) {
                            any_true = true;
                            break;
                        }
                        if t >= window_end {
                            break;
                        }
                        t = SimTime::from_millis((t.as_millis() + 1).min(window_end.as_millis()));
                    }
                    if !any_true {
                        continue;
                    }
                }
                let refused = events[trigger_pos + 1..].iter().any(|e| {
                    e.time <= window_end
                        && e.rule.is_some()
                        && matches!(&e.desc, EventDesc::Custom { name, .. } if name == "WriteRejected")
                        && related_refusal(trace, e, trigger.id.0)
                });
                if refused {
                    continue;
                }
                report.violations.push(Violation {
                    property: 6,
                    event: Some(trigger.id.0),
                    msg: format!(
                        "rule {} fired by {} at {}: step `{}` unfulfilled by {}",
                        rule.id, trigger.desc, trigger.time, step.event, window_end
                    ),
                });
            }
        }
    }

    // ---- Property 7: in-order related rules --------------------------------
    // Both directions of every related pair: a firing of either rule
    // may hold the earlier trigger.
    for (ra, rb) in rules.related_pairs() {
        let fa = firings(events, ra);
        let fb = firings(events, rb);
        inversions(trace, &fa, &fb, ra, rb, &mut report);
        if ra != rb {
            inversions(trace, &fb, &fa, rb, ra, &mut report);
        }
    }

    report
}

/// Every event generated by rule `r` (with a trigger), in trace order.
fn firings(events: &[Event], r: RuleId) -> Vec<&Event> {
    events
        .iter()
        .filter(|e| e.rule == Some(r) && e.trigger.is_some())
        .collect()
}

/// Report each `e4` of `f4` whose trigger is strictly later than some
/// `e2` of `f2`'s but whose effect is strictly earlier.
fn inversions(
    trace: &Trace,
    f2: &[&Event],
    f4: &[&Event],
    r2: RuleId,
    r4: RuleId,
    report: &mut ValidityReport,
) {
    for e2 in f2 {
        let t1 = trace.get(e2.trigger.expect("filtered")).map(|t| t.time);
        for e4 in f4 {
            if e2.id == e4.id {
                continue;
            }
            let t3 = trace.get(e4.trigger.expect("filtered")).map(|t| t.time);
            if let (Some(t1), Some(t3)) = (t1, t3) {
                if t1 < t3 && e4.time < e2.time {
                    report.violations.push(Violation {
                        property: 7,
                        event: Some(e4.id.0),
                        msg: format!(
                            "related rules {r2}/{r4} processed out of order: \
                             triggers at {t1} < {t3} but effects at {} > {}",
                            e2.time, e4.time
                        ),
                    });
                }
            }
        }
    }
}

fn related_refusal(trace: &Trace, e: &Event, trigger_id: u64) -> bool {
    let mut cur = e.trigger;
    for _ in 0..8 {
        match cur {
            None => return false,
            Some(id) if id.0 == trigger_id => return true,
            Some(id) => cur = trace.get(id).and_then(|t| t.trigger),
        }
    }
    false
}

fn same_kind(d: &EventDesc, t: &TemplateDesc) -> bool {
    matches!(
        (d, t),
        (EventDesc::Ws { .. }, TemplateDesc::Ws { .. })
            | (EventDesc::W { .. }, TemplateDesc::W { .. })
            | (EventDesc::Wr { .. }, TemplateDesc::Wr { .. })
            | (EventDesc::Rr { .. }, TemplateDesc::Rr { .. })
            | (EventDesc::R { .. }, TemplateDesc::R { .. })
            | (EventDesc::N { .. }, TemplateDesc::N { .. })
            | (EventDesc::P { .. }, TemplateDesc::P { .. })
            | (EventDesc::Custom { .. }, TemplateDesc::Custom { .. })
    )
}
