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

use common::{employees_db, RID_DST, RID_SRC};
use hcm::checker::guarantee::check_guarantee;
use hcm::core::{SimDuration, SimTime};
use hcm::rulelang::parse_guarantee;
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::menu::derive;
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
    // Derive from the very interface statements the scenario deploys.
    let sc = run(21);
    let src = &sc.site("A").rid.interfaces;
    let dst = &sc.site("B").rid.interfaces;
    let derived = derive::propagation_guarantees(
        "salary1(n)",
        "salary2(n)",
        src,
        dst,
        SimDuration::from_secs(5),
    );
    assert_eq!(
        derived.len(),
        4,
        "notify+write derives all four copy guarantees"
    );
    let trace = sc.trace();
    for d in &derived {
        let g = parse_guarantee(d.name, &d.formula).unwrap();
        let r = check_guarantee(&trace, &g, None);
        assert!(
            r.holds,
            "derived `{}` violated: {:#?}",
            d.name, r.violations
        );
    }
}

#[test]
fn derived_kappa_is_not_trivially_loose() {
    let sc = run(22);
    let trace = sc.trace();
    // The derivation yields κ = 2s + 5s + 1s + 0.5s = 8.5s. The actual
    // propagation path here is ~0.43s, so the derived bound holds with
    // margin — but a κ below the *service* path must fail, showing the
    // formula isn't vacuous.
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
    // The suggestion engine (which strategies apply) and the derivation
    // engine (which guarantees, with what bounds) agree on the
    // guarantee names for the same interfaces.
    let sc = run(23);
    let src = &sc.site("A").rid.interfaces;
    let dst = &sc.site("B").rid.interfaces;
    let suggestions = hcm::toolkit::menu::suggest_copy_strategies(
        "salary1(n)",
        "salary2(n)",
        src,
        dst,
        SimDuration::from_secs(60),
        SimDuration::from_secs(5),
    );
    let propagate = suggestions.iter().find(|s| s.name == "propagate").unwrap();
    let derived = derive::propagation_guarantees(
        "salary1(n)",
        "salary2(n)",
        src,
        dst,
        SimDuration::from_secs(5),
    );
    let derived_names: Vec<_> = derived.iter().map(|d| d.name).collect();
    for g in &propagate.valid_guarantees {
        assert!(
            derived_names.contains(g),
            "menu promises `{g}`, derivation omits it"
        );
    }
}
