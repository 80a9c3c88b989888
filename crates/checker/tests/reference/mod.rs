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

use hcm_checker::{RuleSet, StateIndex, ValidityReport, Violation};
use hcm_core::{Bindings, Event, EventDesc, ItemId, RuleId, SimTime, TemplateDesc, Trace, Value};
use hcm_rulelang::{CmpOp, Cond, CondEnv, Expr};
use std::collections::HashMap;

struct StateEnv<'a> {
    idx: &'a StateIndex,
    t: SimTime,
    bindings: &'a Bindings,
}

impl CondEnv for StateEnv<'_> {
    fn item(&self, item: &ItemId) -> Option<Value> {
        self.idx.value_at(item, self.t).cloned()
    }
    fn var(&self, name: &str) -> Option<&Value> {
        self.bindings.get(name)
    }
}

fn eval_cond(cond: &Cond, idx: &StateIndex, t: SimTime, bindings: &Bindings) -> bool {
    cond.eval(&StateEnv { idx, t, bindings })
}

fn bind_from_cond(cond: &Cond, idx: &StateIndex, t: SimTime, bindings: &mut Bindings) {
    match cond {
        Cond::And(a, b) => {
            bind_from_cond(a, idx, t, bindings);
            bind_from_cond(b, idx, t, bindings);
        }
        Cond::Cmp(Expr::Item(p), CmpOp::Eq, Expr::Var(v))
        | Cond::Cmp(Expr::Var(v), CmpOp::Eq, Expr::Item(p))
            if bindings.get(v).is_none() =>
        {
            if let Some(item) = p.instantiate(bindings) {
                if let Some(val) = idx.value_at(&item, t) {
                    bindings.bind(v.clone(), val.clone());
                }
            }
        }
        _ => {}
    }
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
        let mut bindings = Bindings::new();
        if !rule.lhs.match_desc(&trigger.desc, &mut bindings) {
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
            if !step.event.match_desc(&e.desc, &mut b) {
                continue;
            }
            template_matched = true;
            bind_from_cond(&rule.cond, &idx, trigger.time, &mut b);
            if eval_cond(&rule.cond, &idx, trigger.time, &b) {
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
            let mut bindings = Bindings::new();
            if !rule.lhs.match_desc(&trigger.desc, &mut bindings) {
                continue;
            }
            bind_from_cond(&rule.cond, &idx, trigger.time, &mut bindings);
            if !eval_cond(&rule.cond, &idx, trigger.time, &bindings) {
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
                    same_kind(&e.desc, &step.event) && step.event.match_desc(&e.desc, &mut b)
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
                        if eval_cond(&step.cond, &idx, t, &bindings) {
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
