//! The valid-execution checker — Appendix A.2, properties 1–7.
//!
//! Given a recorded [`Trace`] and the [`RuleSet`] in force, verify:
//!
//! 1. **Time order** — events sorted by nondecreasing time.
//! 2. **Write semantics** — a write's recorded old value matches the
//!    state just before it (the `new = old − {X=a} ∪ {X=b}` clause).
//! 3. **Frame axiom** — only writes change state (holds by
//!    construction of our event encoding; re-derived via replay).
//! 4. **Spontaneity** — spontaneous-kind events (`Ws`, `P`) carry no
//!    rule/trigger; all others carry both.
//! 5. **Causality** — a generated event's trigger exists, precedes it,
//!    matches its rule's LHS (with some matching interpretation that
//!    extends to the RHS template), the LHS condition held at the
//!    trigger, and the event lies within the rule's time bound.
//! 6. **Obligation** — whenever an event matches a rule's LHS (at the
//!    rule's site, condition satisfied), each RHS step's event occurs
//!    within the bound, unless the step condition was false throughout
//!    the window, the RHS is `𝓕` (a prohibition — then the *trigger
//!    itself* is the violation), or the database refused the write and
//!    recorded `WriteRejected` (the conditional-write discharge used by
//!    the demarcation protocol).
//! 7. **In-order related rules** — firings of related rules (same LHS
//!    site, same RHS site) are processed in trigger order: strict
//!    inversions `t1 < t3` but `t4 < t2` are violations, whichever of
//!    the two rules holds the earlier trigger.
//!
//! The check is one indexed pass. The rule set is first compiled to
//! slots by `hcm_rulelang::slots`, the one rule interpreter the
//! CM-Shell and the CM-Translator also run on: each rule's variables
//! get slots, its LHS and step templates become slot matchers, and its
//! condition a slot condition over an item table. Matching an event
//! binds slots to values borrowed from the trace and logs each binding,
//! so a failed match, or a step tried and done, undoes exactly its own;
//! a repeated variable must match an equal value. No matching
//! interpretation is built or cloned per event. Conditions read the
//! trace's [`StateIndex`] at the instant they are evaluated. A pre-pass
//! over the trace records which events each trigger generated and which
//! `WriteRejected` refusals descend from each event, in flat `u32`
//! tables indexed by trace position (event ids are positions; past
//! `u32::MAX` events the check panics), and sorts the firings of each
//! group of related rules. Property 6 then probes, per event, the same
//! [`RuleIndex`] the CM-Shell dispatches through, evaluating step
//! conditions only at the state change points inside each window;
//! property 7 sweeps each group. The cost is O(n log n) in the trace
//! length plus the size of the report.
//! `tests/reference/mod.rs` keeps the direct property-by-property
//! transcription, over its own name-keyed interpreter that shares
//! nothing with the slot compiler, and the differential suites pin
//! this checker's report, and the slot interpreter itself, to it.
//!
//! Deviations from the appendix, documented in `DESIGN.md`: sequenced
//! RHS steps may share an instant (the engine executes them in one
//! handler), so step ordering is checked by trace order rather than
//! strict time; condition checks are evaluated against reconstructed
//! global state, which includes CM-private items because the engine
//! records their writes.

use crate::ruleset::RuleSet;
use hcm_core::{
    Event, EventDesc, ItemId, RuleIndex, SimTime, SiteId, StateIndex, TemplateDesc, Trace, Value,
};
use hcm_rulelang::slots::{Matcher, RuleCompiler, SlotRules, SlotStep};
use hcm_rulelang::Cond;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::Bound::{Excluded, Unbounded};

/// One violation of a validity property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which appendix property (1–7).
    pub property: u8,
    /// Index of the offending event in the trace (when applicable).
    pub event: Option<u64>,
    /// Description.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "property {}: {}", self.property, self.msg)?;
        if let Some(e) = self.event {
            write!(f, " (event e{e})")?;
        }
        Ok(())
    }
}

/// The checker's verdict.
#[derive(Debug, Clone, Default)]
pub struct ValidityReport {
    /// All violations found.
    pub violations: Vec<Violation>,
    /// Number of rule obligations checked (property 6 instantiations).
    pub obligations_checked: usize,
}

impl ValidityReport {
    /// `true` when the execution satisfies all seven properties.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one property.
    #[must_use]
    pub fn of_property(&self, p: u8) -> Vec<&Violation> {
        self.violations.iter().filter(|v| v.property == p).collect()
    }
}

/// Run the seven-property check.
#[must_use]
pub fn check_validity(trace: &Trace, rules: &RuleSet) -> ValidityReport {
    let mut report = ValidityReport::default();
    let idx = trace.index();
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
    // Replay: running state must match each write's recorded old value.
    let mut state: HashMap<&ItemId, &Value> = trace.initial_values().collect();
    for e in events {
        if let Some((item, new)) = e.desc.write_effect() {
            let current = state.get(item);
            if let Some(recorded_old) = &e.old_value {
                if let Some(current) = current {
                    if *current != recorded_old {
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
            state.insert(item, new);
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
            // Custom events may be injected by protocol drivers
            // (spontaneous from the CM's standpoint); all core
            // generated kinds must carry provenance.
            report.violations.push(Violation {
                property: 4,
                event: Some(e.id.0),
                msg: format!("generated event {} lacks rule/trigger", e.desc),
            });
        }
    }

    // ---- Property 5: causality -------------------------------------------
    let mut compiler = RuleCompiler::with_capacity(rules.rules().len());
    for rule in rules.rules() {
        compiler.rule(&rule.lhs, &rule.cond, &rule.steps);
    }
    let compiled = compiler.finish();
    let mut cx = Matcher::new(&compiled);
    for e in events {
        let (Some(rule_id), Some(trigger_id)) = (e.rule, e.trigger) else {
            continue;
        };
        let Some(r) = rules.position(rule_id) else {
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
        // Ids are trace positions, so this is "precedes".
        if trigger.id >= e.id {
            report.violations.push(Violation {
                property: 5,
                event: Some(e.id.0),
                msg: "trigger does not precede event".into(),
            });
            continue;
        }
        let rule = compiled.rule(r);
        // The trigger must match the rule's LHS.
        if !cx.matches(&rule.lhs, &trigger.desc) {
            report.violations.push(Violation {
                property: 5,
                event: Some(e.id.0),
                msg: format!("trigger {} does not match LHS of {rule_id}", trigger.desc),
            });
            continue;
        }
        // The event must be an instance of some RHS step template under
        // an *extension* of the matching interpretation (appendix: "I
        // can be extended to an interpretation I′ such that substituting
        // using I′ in a RHS event template gives E"), and under that
        // extension the LHS condition must have held at the trigger —
        // parameterized periodic interfaces (`P(p) ∧ wphone(n) = b →
        // N(wphone(n), b)`) bind `n` and `b` only through the generated
        // event. Each extension is made in place and undone.
        let refusal = is_refusal(&e.desc);
        let (mut template_matched, mut explained) = (refusal, refusal);
        if !refusal {
            for step in compiled.steps(rule) {
                let mark = cx.mark();
                if !cx.matches(&step.event, &e.desc) {
                    continue;
                }
                template_matched = true;
                explained = cx.holds_binding(rule, at(idx, trigger.time));
                cx.undo(mark);
                if explained {
                    break;
                }
            }
        }
        cx.undo(0);
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
        // Metric part: within the bound.
        let bound = rules.rules()[r].bound;
        if e.time > trigger.time + bound {
            report.violations.push(Violation {
                property: 5,
                event: Some(e.id.0),
                msg: format!(
                    "event at {} exceeds bound {} after trigger at {}",
                    e.time, bound, trigger.time
                ),
            });
        }
    }

    // ---- Property 6: obligations ------------------------------------------
    let firings = Firings::build(trace, rules);
    report.obligations_checked = check_obligations(
        trace,
        rules,
        &compiled,
        &mut cx,
        &firings,
        &mut report.violations,
    );

    // ---- Property 7: in-order related rules --------------------------------
    check_related_order(events, rules, &firings.groups, &mut report.violations);

    report
}

/// One rule firing: a generated event and the time of its trigger.
struct Firing {
    /// Its rule's group of related rules.
    group: u32,
    trigger_time: SimTime,
    /// Trace position of the generated event.
    pos: u32,
    /// Position of its rule in [`RuleSet::rules`].
    rule: usize,
}

/// Trace positions listed per trace position, in compressed rows: the
/// list of position `p` is `values[offsets[p]..offsets[p + 1]]`, none without pairs.
struct Rows {
    offsets: Vec<u32>,
    values: Vec<u32>,
}

impl Rows {
    /// Rows over `n` positions from `(row, value)` pairs, each row
    /// keeping its pairs' order.
    fn new(n: usize, pairs: &[(u32, u32)]) -> Rows {
        assert!(u32::try_from(pairs.len()).is_ok(), "pairs past u32");
        let mut offsets = vec![0; if pairs.is_empty() { 0 } else { n + 1 }];
        for &(row, _) in pairs {
            offsets[row as usize + 1] += 1;
        }
        for p in 1..offsets.len() {
            offsets[p] += offsets[p - 1];
        }
        let mut next = offsets.clone();
        let mut values = vec![0; pairs.len()];
        for &(row, v) in pairs {
            values[next[row as usize] as usize] = v;
            next[row as usize] += 1;
        }
        Rows { offsets, values }
    }

    fn row(&self, p: usize) -> &[u32] {
        let at = |k: usize| self.offsets.get(k).map_or(0, |&o| o as usize);
        &self.values[at(p)..at(p + 1)]
    }
}

/// What one pass over the trace learns about rule firings. Event ids
/// are trace positions, so every table is indexed by position.
struct Firings {
    /// Trigger → positions of the events it generated, ascending.
    generated: Rows,
    /// Ancestor → positions of the `WriteRejected` refusals up to
    /// [`REFUSAL_HOPS`] trigger links below it, ascending.
    refusals: Rows,
    /// Every firing of a known rule with a trigger in the trace, by
    /// group, then by trigger time, then in trace order: the groups of
    /// related rules of property 7.
    groups: Vec<Firing>,
}

/// How far up the trigger chain a refusal discharges an obligation:
/// the write request may sit a few rule firings below the trigger.
const REFUSAL_HOPS: usize = 8;

impl Firings {
    fn build(trace: &Trace, rules: &RuleSet) -> Firings {
        let n = trace.len();
        assert!(u32::try_from(n).is_ok(), "{n} events: positions past u32");
        let position = |id: Option<_>| Some(trace.index_of(id?)? as u32);
        // Each rule's group of related rules (same LHS site, same RHS
        // site), numbered in order of first appearance.
        let mut ids: HashMap<(SiteId, SiteId), u32> = HashMap::new();
        let group_of: Vec<u32> = (rules.rules().iter())
            .map(|r| {
                let n = ids.len() as u32;
                *ids.entry((r.lhs_site, r.rhs_site)).or_insert(n)
            })
            .collect();
        let (mut generated, mut refusals, mut groups) = (Vec::new(), Vec::new(), Vec::new());
        for (pos, e) in (0..).zip(trace.events()) {
            let Some(trigger) = position(e.trigger) else {
                continue;
            };
            generated.push((trigger, pos));
            let Some(rule_id) = e.rule else {
                continue;
            };
            if is_refusal(&e.desc) {
                let mut cur = Some(trigger);
                for _ in 0..REFUSAL_HOPS {
                    let Some(p) = cur else {
                        break;
                    };
                    refusals.push((p, pos));
                    cur = position(trace.events()[p as usize].trigger);
                }
            }
            if let Some(rule) = rules.position(rule_id) {
                groups.push(Firing {
                    group: group_of[rule],
                    trigger_time: trace.events()[trigger as usize].time,
                    pos,
                    rule,
                });
            }
        }
        // Stable: within a group, equal trigger times keep trace order.
        groups.sort_by_key(|f| (f.group, f.trigger_time));
        Firings {
            generated: Rows::new(n, &generated),
            refusals: Rows::new(n, &refusals),
            groups,
        }
    }
}

fn is_refusal(desc: &EventDesc) -> bool {
    matches!(desc, EventDesc::Custom { name, .. } if name == "WriteRejected")
}

/// The events at `positions` (ascending) that come after trace position
/// `after` and occur by `end`.
fn later_by<'a, 'p>(
    events: &'a [Event],
    positions: &'p [u32],
    after: usize,
    end: SimTime,
) -> impl Iterator<Item = &'a Event> + use<'a, 'p> {
    positions[positions.partition_point(|&p| p as usize <= after)..]
        .iter()
        .map(move |&p| &events[p as usize])
        .filter(move |e| e.time <= end)
}

/// Property 6, event-major: each event probes its site's rule index,
/// so only rules whose LHS can match it are unified. Returns the number
/// of obligations checked; violations come out rule-major, then by
/// trigger, then by step.
fn check_obligations<'t>(
    trace: &'t Trace,
    rules: &RuleSet,
    compiled: &SlotRules,
    cx: &mut Matcher<'_, 't>,
    firings: &Firings,
    out: &mut Vec<Violation>,
) -> usize {
    let (events, idx) = (trace.events(), trace.index());
    // Rule positions grouped by LHS site, ascending within a site.
    let mut by_site: Vec<(SiteId, usize)> = (rules.rules().iter().enumerate())
        .map(|(i, r)| (r.lhs_site, i))
        .collect();
    by_site.sort_unstable();
    let indexes: HashMap<SiteId, RuleIndex> = by_site
        .chunk_by(|a, b| a.0 == b.0)
        .map(|site| {
            let lhs = site.iter().map(|&(_, i)| (i, &rules.rules()[i].lhs));
            (site[0].0, RuleIndex::build(lhs))
        })
        .collect();

    let mut obligations = 0;
    let mut found: Vec<(usize, Violation)> = Vec::new();
    for (trigger_pos, trigger) in events.iter().enumerate() {
        let Some(index) = indexes.get(&trigger.site) else {
            continue;
        };
        for r in index.candidates(&trigger.desc) {
            let (rule, slot_rule) = (&rules.rules()[r], compiled.rule(r));
            if !cx.matches(&slot_rule.lhs, &trigger.desc) {
                continue;
            }
            if !cx.holds_binding(slot_rule, at(idx, trigger.time)) {
                cx.undo(0);
                continue;
            }
            obligations += 1;
            let window_end = trigger.time + rule.bound;
            let steps = rule.steps.iter().zip(compiled.steps(slot_rule));
            for (step, slot_step) in steps {
                let msg = if step.event == TemplateDesc::False {
                    // Prohibition: the trigger itself violates it.
                    format!(
                        "prohibited event {} occurred (rule {})",
                        trigger.desc, rule.id
                    )
                } else {
                    // Discharged when a matching generated event exists
                    // in the window…
                    let generated = firings.generated.row(trigger_pos);
                    let fulfilled = later_by(events, generated, trigger_pos, window_end).any(|e| {
                        let mark = cx.mark();
                        let hit = e.rule == Some(rule.id) && cx.matches(&slot_step.event, &e.desc);
                        cx.undo(mark);
                        hit
                    });
                    if fulfilled {
                        continue;
                    }
                    // …or the step condition was false throughout the
                    // window…
                    if step.cond != Cond::True
                        && !holds_sometime(compiled, cx, idx, slot_step, trigger.time, window_end)
                    {
                        continue;
                    }
                    // …or the database refused the write
                    // (conditional-write discharge).
                    let refusals = firings.refusals.row(trigger_pos);
                    if later_by(events, refusals, trigger_pos, window_end)
                        .next()
                        .is_some()
                    {
                        continue;
                    }
                    format!(
                        "rule {} fired by {} at {}: step `{}` unfulfilled by {}",
                        rule.id, trigger.desc, trigger.time, step.event, window_end
                    )
                };
                found.push((
                    r,
                    Violation {
                        property: 6,
                        event: Some(trigger.id.0),
                        msg,
                    },
                ));
            }
            cx.undo(0);
        }
    }
    // Stable: within a rule, triggers and steps are already in order.
    found.sort_by_key(|(r, _)| *r);
    out.extend(found.into_iter().map(|(_, v)| v));
    obligations
}

/// The state of the trace at `t`, as conditions read it.
fn at<'t>(idx: &'t StateIndex, t: SimTime) -> impl Fn(&ItemId) -> Option<Cow<'t, Value>> + 't {
    move |item| idx.value_at(item, t).map(Cow::Borrowed)
}

/// Whether `step`'s condition holds at some instant of `[from, to]`
/// under `cx`'s slots. Item values change only at [`StateIndex`]
/// change points, so probing `from` and every change point of the
/// condition's item bases inside `(from, to]` visits every state the
/// window passes through.
fn holds_sometime(
    compiled: &SlotRules,
    cx: &Matcher<'_, '_>,
    idx: &StateIndex,
    step: &SlotStep,
    from: SimTime,
    to: SimTime,
) -> bool {
    let holds = |t| cx.holds(&step.cond, at(idx, t));
    holds(from)
        || compiled.bases_read(step).any(|base| {
            let bps = idx.breakpoints_by_base(base);
            bps[bps.partition_point(|&t| t <= from)..]
                .iter()
                .take_while(|&&t| t <= to)
                .any(|&t| holds(t))
        })
}

/// Property 7 by sort and sweep. Within a group of related rules, an
/// inversion is a pair of firings whose triggers are strictly ordered
/// one way and whose effects strictly the other way, whichever rule
/// each belongs to. Sorting a group by trigger time and carrying the
/// latest effect among strictly earlier triggers finds whether it has
/// one; only groups that do enumerate their inverted pairs. Violations
/// come out ordered as the related pairs of [`RuleSet::related_pairs`],
/// the pair's own direction before its mirror, then by the
/// earlier-triggered event, then by the offending event.
fn check_related_order(
    events: &[Event],
    rules: &RuleSet,
    firings: &[Firing],
    out: &mut Vec<Violation>,
) {
    let mut found = Vec::new();
    for group in firings.chunk_by(|a, b| a.group == b.group) {
        let effect = |f: &Firing| events[f.pos as usize].time;
        let runs = || group.chunk_by(|a, b| a.trigger_time == b.trigger_time);
        let mut latest: Option<SimTime> = None;
        let inverted = runs().any(|run| {
            let hit = latest.is_some_and(|l| run.iter().any(|f| effect(f) < l));
            latest = latest.max(run.iter().map(effect).max());
            hit
        });
        if !inverted {
            continue;
        }
        // (effect time, index into `group`) of every strictly earlier
        // trigger; a range query yields exactly the later effects.
        let mut earlier: BTreeSet<(SimTime, usize)> = BTreeSet::new();
        let mut start = 0;
        for run in runs() {
            for f4 in run {
                let e4 = &events[f4.pos as usize];
                let later = (Excluded((e4.time, usize::MAX)), Unbounded);
                for &(_, i) in earlier.range(later) {
                    let f2 = &group[i];
                    let e2 = &events[f2.pos as usize];
                    let key = (
                        f2.rule.min(f4.rule),
                        f2.rule.max(f4.rule),
                        f2.rule > f4.rule,
                    );
                    let (ra, rb) = (rules.rules()[f2.rule].id, rules.rules()[f4.rule].id);
                    let (t1, t3) = (f2.trigger_time, f4.trigger_time);
                    found.push((
                        (key, f2.pos, f4.pos),
                        Violation {
                            property: 7,
                            event: Some(e4.id.0),
                            msg: format!(
                                "related rules {ra}/{rb} processed out of order: \
                                 triggers at {t1} < {t3} but effects at {} > {}",
                                e2.time, e4.time
                            ),
                        },
                    ));
                }
            }
            earlier.extend(run.iter().enumerate().map(|(k, f)| (effect(f), start + k)));
            start += run.len();
        }
    }
    found.sort_by_key(|(key, _)| *key);
    out.extend(found.into_iter().map(|(_, v)| v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_core::{EventId, RuleId};
    use hcm_rulelang::{parse_interface, parse_strategy_rule};

    const A: SiteId = SiteId::new(0);
    const B: SiteId = SiteId::new(1);

    /// Rule set of the §4.2 salary scenario, unparameterized:
    /// r0: notify interface at A, r1: write interface at B,
    /// r2: propagation strategy A→B.
    fn salary_rules() -> RuleSet {
        let mut rs = RuleSet::new();
        rs.add_interface(
            RuleId(0),
            A,
            &parse_interface("Ws(X, b) -> N(X, b) within 2s").unwrap(),
        );
        rs.add_interface(
            RuleId(1),
            B,
            &parse_interface("WR(Y, b) -> W(Y, b) within 1s").unwrap(),
        );
        rs.add_strategy(
            RuleId(2),
            A,
            B,
            &parse_strategy_rule("N(X, b) -> WR(Y, b) within 5s").unwrap(),
        );
        rs
    }

    fn x() -> ItemId {
        ItemId::plain("X")
    }
    fn y() -> ItemId {
        ItemId::plain("Y")
    }

    /// A fully valid propagation chain.
    fn valid_trace() -> Trace {
        let mut tr = Trace::new();
        tr.set_initial(x(), Value::Int(0));
        tr.set_initial(y(), Value::Int(0));
        let ws = tr.push(
            SimTime::from_secs(10),
            A,
            EventDesc::Ws {
                item: x(),
                old: Some(Value::Int(0)),
                new: Value::Int(5),
            },
            Some(Value::Int(0)),
            None,
            None,
        );
        let n = tr.push(
            SimTime::from_millis(10_500),
            A,
            EventDesc::N {
                item: x(),
                value: Value::Int(5),
            },
            None,
            Some(RuleId(0)),
            Some(ws),
        );
        let wr = tr.push(
            SimTime::from_millis(11_000),
            B,
            EventDesc::Wr {
                item: y(),
                value: Value::Int(5),
            },
            None,
            Some(RuleId(2)),
            Some(n),
        );
        tr.push(
            SimTime::from_millis(11_300),
            B,
            EventDesc::W {
                item: y(),
                value: Value::Int(5),
            },
            Some(Value::Int(0)),
            Some(RuleId(1)),
            Some(wr),
        );
        tr
    }

    #[test]
    fn valid_chain_passes_all_properties() {
        let report = check_validity(&valid_trace(), &salary_rules());
        assert!(report.is_valid(), "{:#?}", report.violations);
        assert!(report.obligations_checked >= 3);
    }

    #[test]
    fn p1_time_order_violation() {
        let mut tr = valid_trace();
        tr.push(
            SimTime::from_secs(1), // earlier than the last event
            A,
            EventDesc::Ws {
                item: x(),
                old: None,
                new: Value::Int(9),
            },
            None,
            None,
            None,
        );
        let report = check_validity(&tr, &salary_rules());
        assert!(!report.of_property(1).is_empty());
    }

    #[test]
    fn p2_wrong_old_value() {
        let mut tr = valid_trace();
        // Claims X was 42 before, but it was 5.
        tr.push(
            SimTime::from_secs(20),
            A,
            EventDesc::Ws {
                item: x(),
                old: Some(Value::Int(42)),
                new: Value::Int(6),
            },
            Some(Value::Int(42)),
            None,
            None,
        );
        let report = check_validity(&tr, &salary_rules());
        assert!(!report.of_property(2).is_empty());
    }

    #[test]
    fn p4_spontaneous_with_rule() {
        let mut tr = Trace::new();
        tr.push(
            SimTime::from_secs(1),
            A,
            EventDesc::Ws {
                item: x(),
                old: None,
                new: Value::Int(1),
            },
            None,
            Some(RuleId(0)), // spontaneous events must not carry a rule
            None,
        );
        let report = check_validity(&tr, &salary_rules());
        assert!(!report.of_property(4).is_empty());
    }

    #[test]
    fn p4_generated_without_provenance() {
        let mut tr = Trace::new();
        tr.push(
            SimTime::from_secs(1),
            A,
            EventDesc::N {
                item: x(),
                value: Value::Int(1),
            },
            None,
            None,
            None,
        );
        let report = check_validity(&tr, &salary_rules());
        // The orphan N violates both spontaneity (4) and, because it is
        // unexplained, shows up nowhere else.
        assert!(!report.of_property(4).is_empty());
    }

    #[test]
    fn p5_bound_exceeded() {
        let mut tr = Trace::new();
        tr.set_initial(x(), Value::Int(0));
        let ws = tr.push(
            SimTime::from_secs(10),
            A,
            EventDesc::Ws {
                item: x(),
                old: Some(Value::Int(0)),
                new: Value::Int(5),
            },
            Some(Value::Int(0)),
            None,
            None,
        );
        // Notification 7s later: the 2s notify bound is blown.
        tr.push(
            SimTime::from_secs(17),
            A,
            EventDesc::N {
                item: x(),
                value: Value::Int(5),
            },
            None,
            Some(RuleId(0)),
            Some(ws),
        );
        let report = check_validity(&tr, &salary_rules());
        assert!(report
            .of_property(5)
            .iter()
            .any(|v| v.msg.contains("exceeds bound")));
        // The late event *also* leaves the obligation formally
        // unfulfilled inside the window.
        assert!(!report.of_property(6).is_empty());
    }

    #[test]
    fn p5_trigger_mismatch() {
        let mut tr = Trace::new();
        let ws = tr.push(
            SimTime::from_secs(10),
            A,
            EventDesc::Ws {
                item: x(),
                old: None,
                new: Value::Int(5),
            },
            None,
            None,
            None,
        );
        // N reports value 7, but the trigger wrote 5 — not an instance
        // of the rule's RHS under the matching interpretation.
        tr.push(
            SimTime::from_millis(10_500),
            A,
            EventDesc::N {
                item: x(),
                value: Value::Int(7),
            },
            None,
            Some(RuleId(0)),
            Some(ws),
        );
        let report = check_validity(&tr, &salary_rules());
        assert!(report
            .of_property(5)
            .iter()
            .any(|v| v.msg.contains("not an instance")));
    }

    #[test]
    fn p5_dangling_and_future_trigger() {
        let mut tr = Trace::new();
        tr.push(
            SimTime::from_secs(1),
            A,
            EventDesc::N {
                item: x(),
                value: Value::Int(1),
            },
            None,
            Some(RuleId(0)),
            Some(EventId(99)),
        );
        let report = check_validity(&tr, &salary_rules());
        assert!(report
            .of_property(5)
            .iter()
            .any(|v| v.msg.contains("missing trigger")));
    }

    #[test]
    fn p6_missing_notification() {
        let mut tr = Trace::new();
        tr.set_initial(x(), Value::Int(0));
        tr.push(
            SimTime::from_secs(10),
            A,
            EventDesc::Ws {
                item: x(),
                old: Some(Value::Int(0)),
                new: Value::Int(5),
            },
            Some(Value::Int(0)),
            None,
            None,
        );
        // No N follows: the notify interface's obligation is broken.
        let report = check_validity(&tr, &salary_rules());
        assert!(report
            .of_property(6)
            .iter()
            .any(|v| v.msg.contains("unfulfilled")));
    }

    #[test]
    fn p6_prohibition() {
        let mut rs = salary_rules();
        rs.add_interface(RuleId(3), B, &parse_interface("Ws(Y, b) -> false").unwrap());
        let mut tr = Trace::new();
        tr.push(
            SimTime::from_secs(5),
            B,
            EventDesc::Ws {
                item: y(),
                old: None,
                new: Value::Int(1),
            },
            None,
            None,
            None,
        );
        let report = check_validity(&tr, &rs);
        assert!(report
            .of_property(6)
            .iter()
            .any(|v| v.msg.contains("prohibited")));
    }

    #[test]
    fn p6_step_condition_false_discharges() {
        // Cached propagation: Cx = b already, so the WR step is
        // legitimately skipped.
        let mut rs = RuleSet::new();
        rs.add_strategy(
            RuleId(0),
            A,
            A,
            &parse_strategy_rule("N(X, b) -> if Cx != b then WR(X, b) within 5s").unwrap(),
        );
        let mut tr = Trace::new();
        tr.set_initial(ItemId::plain("Cx"), Value::Int(5));
        let ws = tr.push(
            SimTime::from_secs(1),
            A,
            EventDesc::Ws {
                item: x(),
                old: None,
                new: Value::Int(5),
            },
            None,
            None,
            None,
        );
        tr.push(
            SimTime::from_secs(2),
            A,
            EventDesc::N {
                item: x(),
                value: Value::Int(5),
            },
            None,
            None,
            None,
        );
        let _ = ws;
        let report = check_validity(&tr, &rs);
        // The hand-built N lacks provenance (property 4 flags it, by
        // design of the minimal trace); what matters here is that the
        // skipped step raises no obligation violation.
        assert!(report.of_property(6).is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn p6_write_rejected_discharges() {
        let mut tr = Trace::new();
        tr.set_initial(y(), Value::Int(0));
        let wr = tr.push(
            SimTime::from_secs(10),
            B,
            EventDesc::Wr {
                item: y(),
                value: Value::Int(5),
            },
            None,
            None,
            None,
        );
        tr.push(
            SimTime::from_millis(10_200),
            B,
            EventDesc::Custom {
                name: "WriteRejected".into(),
                args: vec![Value::Str("Y".into()), Value::Int(5)],
            },
            None,
            Some(RuleId(1)),
            Some(wr),
        );
        let report = check_validity(&tr, &salary_rules());
        // Minimal trace: the WR lacks provenance (property 4), but the
        // refused write must discharge the write-interface obligation.
        assert!(report.of_property(6).is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn p7_inversion_detected() {
        let mut rs = RuleSet::new();
        rs.add_strategy(
            RuleId(0),
            A,
            B,
            &parse_strategy_rule("N(X, b) -> WR(Y, b) within 60s").unwrap(),
        );
        let mut tr = Trace::new();
        // Two firings of the same rule, effects inverted.
        let n1 = tr.push(
            SimTime::from_secs(1),
            A,
            EventDesc::N {
                item: x(),
                value: Value::Int(1),
            },
            None,
            None,
            None,
        );
        let n2 = tr.push(
            SimTime::from_secs(2),
            A,
            EventDesc::N {
                item: x(),
                value: Value::Int(2),
            },
            None,
            None,
            None,
        );
        // Effect of n2 lands before effect of n1.
        tr.push(
            SimTime::from_secs(3),
            B,
            EventDesc::Wr {
                item: y(),
                value: Value::Int(2),
            },
            None,
            Some(RuleId(0)),
            Some(n2),
        );
        tr.push(
            SimTime::from_secs(4),
            B,
            EventDesc::Wr {
                item: y(),
                value: Value::Int(1),
            },
            None,
            Some(RuleId(0)),
            Some(n1),
        );
        let report = check_validity(&tr, &rs);
        assert!(!report.of_property(7).is_empty());
    }

    #[test]
    fn p7_in_order_passes() {
        let mut rs = RuleSet::new();
        rs.add_strategy(
            RuleId(0),
            A,
            B,
            &parse_strategy_rule("N(X, b) -> WR(Y, b) within 60s").unwrap(),
        );
        let mut tr = Trace::new();
        let n1 = tr.push(
            SimTime::from_secs(1),
            A,
            EventDesc::N {
                item: x(),
                value: Value::Int(1),
            },
            None,
            None,
            None,
        );
        let n2 = tr.push(
            SimTime::from_secs(2),
            A,
            EventDesc::N {
                item: x(),
                value: Value::Int(2),
            },
            None,
            None,
            None,
        );
        tr.push(
            SimTime::from_secs(3),
            B,
            EventDesc::Wr {
                item: y(),
                value: Value::Int(1),
            },
            None,
            Some(RuleId(0)),
            Some(n1),
        );
        tr.push(
            SimTime::from_secs(4),
            B,
            EventDesc::Wr {
                item: y(),
                value: Value::Int(2),
            },
            None,
            Some(RuleId(0)),
            Some(n2),
        );
        let report = check_validity(&tr, &rs);
        assert!(report.of_property(7).is_empty());
    }

    #[test]
    fn p7_inversion_across_mirrored_pair_detected() {
        // Rule 1 holds the earlier trigger but the later effect: the
        // inversion lies in the pair's mirrored direction.
        let mut rs = RuleSet::new();
        for id in 0..2 {
            rs.add_strategy(
                RuleId(id),
                A,
                B,
                &parse_strategy_rule("N(X, b) -> WR(Y, b) within 60s").unwrap(),
            );
        }
        let mut tr = Trace::new();
        let n = |tr: &mut Trace, secs: u64| {
            tr.push(
                SimTime::from_secs(secs),
                A,
                EventDesc::N {
                    item: x(),
                    value: Value::Int(secs as i64),
                },
                None,
                None,
                None,
            )
        };
        let n1 = n(&mut tr, 1);
        let n2 = n(&mut tr, 2);
        let wr = |tr: &mut Trace, secs: u64, v: i64, rule: u32, trigger: EventId| {
            tr.push(
                SimTime::from_secs(secs),
                B,
                EventDesc::Wr {
                    item: y(),
                    value: Value::Int(v),
                },
                None,
                Some(RuleId(rule)),
                Some(trigger),
            )
        };
        let early = wr(&mut tr, 3, 2, 0, n2);
        wr(&mut tr, 4, 1, 1, n1);
        let report = check_validity(&tr, &rs);
        let p7 = report.of_property(7);
        assert_eq!(p7.len(), 1, "{:#?}", report.violations);
        assert_eq!(p7[0].event, Some(early.0));
        assert_eq!(
            p7[0].msg,
            "related rules r1/r0 processed out of order: \
             triggers at t=1.000s < t=2.000s but effects at t=4.000s > t=3.000s"
        );
    }
}
