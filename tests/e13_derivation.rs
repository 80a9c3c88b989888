//! E13 — mechanical guarantee derivation (the paper's §3 future work:
//! "we also plan to extend the toolkit so that it can help the system
//! designer derive new guarantees for different interfaces and
//! strategies").
//!
//! Soundness: every guarantee the derivation engine emits for an
//! interface/strategy pair holds on simulated executions of that pair.
//! Tightness: shrinking the derived κ below the real propagation path
//! produces a formula the same traces refute — the computed bound is
//! doing real work.

mod common;

use common::{assert_all_hold, deployed_copy_guarantees, employees_db, RID_DST, RID_SRC};
use hcm::checker::{check_validity, guarantee::check_guarantee, RuleSet};
use hcm::core::{EventDesc, ItemId, RuleId, SimDuration, SimTime, SiteId, Trace, Value};
use hcm::rulelang::{parse_guarantee, parse_interface, parse_strategy_rule};
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::menu::{derive, guarantees};
use hcm::toolkit::workload::PoissonWriter;
use hcm::toolkit::{Scenario, ScenarioBuilder};

const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B
[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s
"#;

fn run(seed: u64) -> Scenario {
    let mut sc = ScenarioBuilder::new(seed)
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
    let target = sc.site("A").translator;
    sc.add_actor(Box::new(PoissonWriter::sql_updates(
        target,
        SimDuration::from_secs(25),
        SimTime::from_secs(600),
        "employees",
        "salary",
        "empid",
        vec!["e1".into()],
        (1, 100_000),
    )));
    sc.run_to_quiescence();
    sc
}

#[test]
fn derived_guarantees_hold_on_real_executions() {
    // Derive from the very interface statements and rules the scenario
    // deploys.
    let sc = run(21);
    let derived = deployed_copy_guarantees(&sc, "salary1(n)", "salary2(n)");
    let names: Vec<_> = derived.iter().map(|d| d.name).collect();
    assert_eq!(
        names,
        ["follows", "leads", "strictly_follows", "follows_metric"],
        "notify+write derives all four copy guarantees"
    );
    assert_all_hold(&sc.trace(), &derived);
}

#[test]
fn derived_kappa_is_not_trivially_loose() {
    let sc = run(22);
    let trace = sc.trace();
    // The derivation yields κ = 2s + 5s + 1s + 1ms = 8.001s. The actual
    // propagation path here is ~0.43s, so the derived bound holds with
    // margin — but a κ below the *service* path must fail, showing the
    // formula isn't vacuous.
    let derived = deployed_copy_guarantees(&sc, "salary1(n)", "salary2(n)");
    let kappa = derived.iter().find_map(|d| d.kappa);
    assert_eq!(kappa, Some(SimDuration::from_millis(8_001)));
    let tight = parse_guarantee(
        "too_tight",
        "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 100ms < t2 and t2 <= t1",
    )
    .unwrap();
    let r = check_guarantee(&trace, &tight, None);
    assert!(
        !r.holds,
        "κ = 100ms is inside the real propagation latency and must fail"
    );
}

#[test]
fn derivation_matches_menu_suggestions() {
    // The menu's `propagate` suggestion carries exactly the guarantees
    // derived from the deployed specification's rule: the menu's rule
    // text and the spec's rule agree.
    let sc = run(23);
    let suggestions = hcm::toolkit::menu::suggest_copy_strategies(
        "salary1(n)",
        "salary2(n)",
        &sc.site("A").rid.interfaces,
        &sc.site("B").rid.interfaces,
        SimDuration::from_secs(60),
        SimDuration::from_secs(5),
    );
    let propagate = suggestions.iter().find(|s| s.name == "propagate").unwrap();
    assert_eq!(
        propagate.guarantees,
        deployed_copy_guarantees(&sc, "salary1(n)", "salary2(n)")
    );
}

/// The derived κ is exact at the clock's resolution: on a valid trace
/// where every event lands exactly at its rule's bound, the derived
/// metric guarantee holds and the same formula one tick tighter fails.
#[test]
fn derived_kappa_is_tight_at_the_bounds() {
    let notify = parse_interface("Ws(X, b) -> N(X, b) within 2s").unwrap();
    let propagate = parse_strategy_rule("N(X, b) -> WR(Y, b) within 5s").unwrap();
    let write = parse_interface("WR(Y, b) -> W(Y, b) within 1s").unwrap();
    let derived = derive::copy_guarantees(
        "X",
        "Y",
        std::slice::from_ref(&notify),
        std::slice::from_ref(&write),
        std::slice::from_ref(&propagate),
    );
    let kappa = derived.iter().find_map(|d| d.kappa).unwrap();
    assert_eq!(kappa, SimDuration::from_millis(8_001));

    let (a, b) = (SiteId::new(0), SiteId::new(1));
    let (notify_id, propagate_id, write_id) = (RuleId(0), RuleId(1), RuleId(2));
    let mut rules = RuleSet::new();
    rules.add_interface(notify_id, a, &notify);
    rules.add_strategy(propagate_id, a, b, &propagate);
    rules.add_interface(write_id, b, &write);

    // X takes 1 at 1000 ms and 2 at 1001 ms; each value's N, WR and W
    // follow exactly at their rules' bounds, each triggered by the
    // previous event of the same value.
    type Event = fn(ItemId, Value) -> EventDesc;
    let stages: [(u64, SiteId, Option<RuleId>, &str, Event); 4] = [
        (1_000, a, None, "X", |item, new| EventDesc::Ws {
            item,
            old: None,
            new,
        }),
        (3_000, a, Some(notify_id), "X", |item, value| EventDesc::N {
            item,
            value,
        }),
        (8_000, b, Some(propagate_id), "Y", |item, value| {
            EventDesc::Wr { item, value }
        }),
        (9_000, b, Some(write_id), "Y", |item, value| EventDesc::W {
            item,
            value,
        }),
    ];
    let mut trace = Trace::new();
    trace.set_initial(ItemId::plain("X"), Value::Int(0));
    trace.set_initial(ItemId::plain("Y"), Value::Int(0));
    let mut triggers = [None, None];
    for (ms, site, rule, item, event) in stages {
        for (i, trigger) in triggers.iter_mut().enumerate() {
            let v = i as i64 + 1;
            let desc = event(ItemId::plain(item), Value::Int(v));
            // Writes record the value they replace.
            let old = matches!(desc, EventDesc::Ws { .. } | EventDesc::W { .. });
            let old = old.then_some(Value::Int(v - 1));
            let at = SimTime::from_millis(ms + i as u64);
            *trigger = Some(trace.push(at, site, desc, old, rule, *trigger));
        }
    }
    let report = check_validity(&trace, &rules);
    assert!(report.is_valid(), "{:#?}", report.violations);

    let holds = |kappa| {
        let text = guarantees::follows_metric("X", "Y", kappa);
        let g = parse_guarantee("follows_metric", &text).unwrap();
        check_guarantee(&trace, &g, None).holds
    };
    assert!(holds(kappa), "the derived κ must hold at the bounds");
    let one_tick_less = SimDuration::from_millis(kappa.as_millis() - 1);
    assert!(!holds(one_tick_less), "κ − 1 ms must fail at the bounds");
}
