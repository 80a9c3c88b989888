//! E10 — the valid-execution checker (Appendix A.2) against the live
//! engine.
//!
//! (a) Every trace the engine produces, across seeds and workloads, is
//! a valid execution. (b) Each seeded corruption of a valid trace is
//! caught by the property the corruption targets. Together these give
//! the checker the adversarial calibration the paper's hand proofs got
//! from the proof rules. Every report here — on engine traces and on
//! each corruption — is also pinned to the reference checker's.

mod common;
#[path = "../crates/checker/tests/reference/mod.rs"]
mod reference;

use common::{employees_db, rule_set_of, RID_DST, RID_SRC};
use hcm::core::{EventId, ItemId, SimDuration, SimTime, Trace, Value};
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::workload::PoissonWriter;
use hcm::toolkit::{Scenario, ScenarioBuilder};
use reference::checked as check_validity;

const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B
[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s
"#;

fn run_scenario(seed: u64) -> Scenario {
    let mut sc = ScenarioBuilder::new(seed)
        .site(
            "A",
            RawStore::Relational(employees_db(&[("e1", 1000), ("e2", 2000), ("e3", 3000)])),
            RID_SRC,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees_db(&[("e1", 1000), ("e2", 2000), ("e3", 3000)])),
            RID_DST,
        )
        .unwrap()
        .strategy(STRATEGY)
        .build()
        .unwrap();
    let target = sc.site("A").translator;
    sc.add_actor(Box::new(PoissonWriter::sql_updates(
        target,
        SimDuration::from_secs(20),
        SimTime::from_secs(900),
        "employees",
        "salary",
        "empid",
        vec!["e1".into(), "e2".into(), "e3".into()],
        (1, 100_000),
    )));
    sc.run_to_quiescence();
    sc
}

#[test]
fn engine_traces_are_valid_across_seeds() {
    for seed in [11, 22, 33, 44] {
        let sc = run_scenario(seed);
        let trace = sc.trace();
        assert!(trace.len() > 40, "seed {seed}: workload too small");
        let report = check_validity(&trace, &rule_set_of(&sc));
        assert!(report.is_valid(), "seed {seed}: {:#?}", report.violations);
        assert!(report.obligations_checked > 20);
    }
}

/// Rebuild a trace with one surgical corruption applied by `f` to the
/// event at `idx` (f returns the replacement fields).
fn corrupt(trace: &Trace, idx: usize, f: impl Fn(&hcm::core::Event) -> hcm::core::Event) -> Trace {
    let mut out = Trace::new();
    for (item, v) in trace.initial_values() {
        out.set_initial(item.clone(), v.clone());
    }
    for (i, e) in trace.events().iter().enumerate() {
        let e = if i == idx { f(e) } else { e.clone() };
        out.push(
            e.time,
            e.site,
            e.desc.clone(),
            e.old_value.clone(),
            e.rule,
            e.trigger,
        );
    }
    out
}

#[test]
fn seeded_corruptions_are_each_caught() {
    let sc = run_scenario(55);
    let trace = sc.trace();
    let rules = rule_set_of(&sc);
    assert!(check_validity(&trace, &rules).is_valid());

    // Find interesting event positions.
    let n_pos = trace
        .events()
        .iter()
        .position(|e| e.desc.tag() == "N")
        .unwrap();
    let w_pos = trace
        .events()
        .iter()
        .position(|e| e.desc.tag() == "W")
        .unwrap();
    let ws_pos = trace
        .events()
        .iter()
        .position(|e| e.desc.tag() == "Ws")
        .unwrap();

    // P2: lie about a write's old value.
    let t2 = corrupt(&trace, w_pos, |e| {
        let mut e = e.clone();
        e.old_value = Some(Value::Int(-999));
        e
    });
    assert!(!check_validity(&t2, &rules).of_property(2).is_empty());

    // P4: give a spontaneous write a rule.
    let t4 = corrupt(&trace, ws_pos, |e| {
        let mut e = e.clone();
        e.rule = Some(hcm::core::RuleId(0));
        e.trigger = Some(EventId(0));
        e
    });
    let r4 = check_validity(&t4, &rules);
    assert!(!r4.of_property(4).is_empty());

    // P5: point an N at the wrong trigger (a W event cannot match the
    // notify interface's Ws LHS).
    let t5 = corrupt(&trace, n_pos.max(w_pos), |e| {
        let mut e = e.clone();
        if e.desc.tag() == "N" || e.desc.tag() == "W" {
            e.trigger = Some(EventId(0));
        }
        e
    });
    // Either a template mismatch or an instance mismatch must fire.
    let r5 = check_validity(&t5, &rules);
    assert!(
        !r5.of_property(5).is_empty() || !r5.of_property(6).is_empty(),
        "retargeted trigger must be caught"
    );

    // P5 metric: push a generated event past its bound.
    let late = corrupt(&trace, n_pos, |e| {
        let mut e = e.clone();
        e.time += SimDuration::from_secs(3600);
        e
    });
    // (This also breaks P1 ordering and the obligation P6 — all fair.)
    let r_late = check_validity(&late, &rules);
    assert!(!r_late.violations.is_empty());
    assert!(
        r_late
            .violations
            .iter()
            .any(|v| v.property == 5 || v.property == 1),
        "{:#?}",
        r_late.violations
    );

    // P6: drop the N entirely — the notify obligation goes unfulfilled.
    let mut dropped = Trace::new();
    for (item, v) in trace.initial_values() {
        dropped.set_initial(item.clone(), v.clone());
    }
    for (i, e) in trace.events().iter().enumerate() {
        if i == n_pos {
            continue;
        }
        // Retarget triggers that pointed at skipped/renumbered events:
        // keep ids stable by re-pushing descriptors only when safe.
        dropped.push(
            e.time,
            e.site,
            e.desc.clone(),
            e.old_value.clone(),
            e.rule,
            e.trigger,
        );
    }
    let r6 = check_validity(&dropped, &rules);
    assert!(
        !r6.violations.is_empty(),
        "dropped notification must be caught"
    );
}

#[test]
fn prohibition_violations_are_caught_end_to_end() {
    // Site B promised no spontaneous writes; a rogue application
    // violates it. The checker flags property 6 on the real trace.
    let mut sc = ScenarioBuilder::new(66)
        .site(
            "A",
            RawStore::Relational(employees_db(&[("e1", 1000)])),
            RID_SRC,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees_db(&[("e1", 1000)])),
            RID_DST,
        )
        .unwrap()
        .strategy(STRATEGY)
        .build()
        .unwrap();
    sc.inject(
        SimTime::from_secs(10),
        "B",
        hcm::toolkit::SpontaneousOp::Sql(
            "update employees set salary = 1 where empid = 'e1'".into(),
        ),
    );
    sc.run_to_quiescence();
    let trace = sc.trace();
    let report = check_validity(&trace, &rule_set_of(&sc));
    assert!(report
        .of_property(6)
        .iter()
        .any(|v| v.msg.contains("prohibited")));
}

#[test]
fn checker_is_deterministic() {
    let sc = run_scenario(77);
    let trace = sc.trace();
    let rules = rule_set_of(&sc);
    let a = check_validity(&trace, &rules);
    let b = check_validity(&trace, &rules);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.obligations_checked, b.obligations_checked);
}

#[test]
fn dropped_initial_state_detected_as_p2() {
    let sc = run_scenario(88);
    let trace = sc.trace();
    // Strip the initial interpretation and shift a value: replay
    // mismatch on old values appears once states are known.
    let mut stripped = Trace::new();
    for e in trace.events() {
        stripped.push(
            e.time,
            e.site,
            e.desc.clone(),
            e.old_value.clone(),
            e.rule,
            e.trigger,
        );
    }
    // Without initials, the first write of each item is unchecked
    // (state unknown) — subsequent ones still are. Corrupt the second
    // Ws *of the same item*.
    let mut seen: Vec<ItemId> = Vec::new();
    let mut later_ws = None;
    for e in stripped.events() {
        if e.desc.tag() == "Ws" {
            let item = e.desc.item().cloned().expect("Ws has an item");
            if seen.contains(&item) {
                later_ws = Some(e.id.0 as usize);
                break;
            }
            seen.push(item);
        }
    }
    if let Some(pos) = later_ws {
        let doctored = corrupt(&stripped, pos, |e| {
            let mut e = e.clone();
            e.old_value = Some(Value::Int(-1));
            e
        });
        let rules = rule_set_of(&sc);
        let r = check_validity(&doctored, &rules);
        assert!(!r.of_property(2).is_empty());
    }
}
