//! Causal-chain reconstruction, differentially validated against the
//! checker's rule-causality property (Appendix property 5).
//!
//! `hcm::obs::causal_chain` walks an event's trigger links back to a
//! spontaneous root, re-checking the structural half of property 5 on
//! the way. On a valid E1 execution the two must agree: the checker
//! reports no property-5 violations, and *every* non-spontaneous event
//! reconstructs a chain ending in a spontaneous root. On a tampered
//! trace both must flag the same defect.

mod common;

use common::{employees_db, rule_set_of, RID_DST, RID_SRC};
use hcm::checker::check_validity;
use hcm::core::{EventDesc, EventId, ItemId, RuleId, SimTime, SiteId, Trace, Value};
use hcm::obs::{causal_chain, render_chain};
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::{ScenarioBuilder, SpontaneousOp};

const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s
"#;

fn e1_trace() -> (Trace, hcm::checker::RuleSet) {
    let rows = [("e0", 1000i64)];
    let mut sc = ScenarioBuilder::new(11)
        .site("A", RawStore::Relational(employees_db(&rows)), RID_SRC)
        .unwrap()
        .site("B", RawStore::Relational(employees_db(&rows)), RID_DST)
        .unwrap()
        .strategy(STRATEGY)
        .build()
        .unwrap();
    for (i, v) in [1500i64, 1700, 2100].iter().enumerate() {
        sc.inject(
            SimTime::from_secs(10 + 30 * i as u64),
            "A",
            SpontaneousOp::Sql(format!(
                "update employees set salary = {v} where empid = 'e0'"
            )),
        );
    }
    sc.run_to_quiescence();
    let rules = rule_set_of(&sc);
    (sc.trace(), rules)
}

/// On a valid execution, every triggered event walks back to a
/// spontaneous root, and the checker agrees there is nothing to flag.
#[test]
fn every_triggered_e1_event_reaches_a_spontaneous_root() {
    let (trace, rules) = e1_trace();
    let report = check_validity(&trace, &rules);
    assert!(
        report.of_property(5).is_empty(),
        "checker found causality violations: {:?}",
        report.of_property(5)
    );

    let mut walked = 0;
    for e in trace.events() {
        if e.is_spontaneous() {
            continue;
        }
        let chain = causal_chain(&trace, e.id);
        assert!(
            chain.rooted,
            "event {} did not reach a spontaneous root:\n{}",
            e.id,
            render_chain(&trace, &chain)
        );
        let root = trace.get(chain.root().unwrap()).unwrap();
        assert!(
            root.is_spontaneous(),
            "chain root {} is not spontaneous",
            root.id
        );
        // Chains are consequence-first and time-monotone backwards.
        for pair in chain.ids.windows(2) {
            let (later, earlier) = (trace.get(pair[0]).unwrap(), trace.get(pair[1]).unwrap());
            assert!(earlier.time <= later.time);
        }
        walked += 1;
    }
    assert!(walked > 0, "E1 produced no triggered events to walk");
}

/// The full propagation chain W ⇐ WR ⇐ N ⇐ Ws appears in the rendering
/// of the final write's chain.
#[test]
fn salary_copy_chain_renders_end_to_end() {
    let (trace, _) = e1_trace();
    let w = trace
        .events()
        .iter()
        .rfind(|e| e.desc.tag() == "W")
        .expect("a W landed at B");
    let chain = causal_chain(&trace, w.id);
    assert!(chain.rooted);
    assert_eq!(
        chain.ids.len(),
        4,
        "expected W ⇐ WR ⇐ N ⇐ Ws:\n{}",
        render_chain(&trace, &chain)
    );
    let tags: Vec<&str> = chain
        .ids
        .iter()
        .map(|id| trace.get(*id).unwrap().desc.tag())
        .collect();
    assert_eq!(tags, ["W", "WR", "N", "Ws"]);
    assert!(render_chain(&trace, &chain).contains("[spontaneous root]"));
}

/// Tampering with trigger links breaks the chain walk and trips the
/// checker's property 5 in the same way.
#[test]
fn tampered_trace_breaks_chain_and_property_5() {
    let item = ItemId::plain("X");
    let mut tr = Trace::new();
    let ws = tr.push(
        SimTime::from_millis(10),
        SiteId::new(0),
        EventDesc::Ws {
            item: item.clone(),
            old: None,
            new: Value::Int(1),
        },
        None,
        None,
        None,
    );
    // A notification whose trigger points past the end of the trace.
    let dangling = tr.push(
        SimTime::from_millis(20),
        SiteId::new(0),
        EventDesc::N {
            item: item.clone(),
            value: Value::Int(1),
        },
        None,
        Some(RuleId(0)),
        Some(EventId(999)),
    );
    // And one whose trigger is *later* than the event itself.
    let backwards = tr.push(
        SimTime::from_millis(5),
        SiteId::new(0),
        EventDesc::N {
            item,
            value: Value::Int(1),
        },
        None,
        Some(RuleId(0)),
        Some(ws),
    );

    let c = causal_chain(&tr, dangling);
    assert!(!c.rooted);
    assert!(c.broken.as_deref().unwrap().contains("dangling trigger"));

    let c = causal_chain(&tr, backwards);
    assert!(!c.rooted);
    assert!(c
        .broken
        .as_deref()
        .unwrap()
        .contains("later than its consequence"));

    let report = check_validity(&tr, &hcm::checker::RuleSet::new());
    assert!(
        !report.of_property(5).is_empty(),
        "checker should flag the tampered trigger links too"
    );
}
