//! E1 — the §4.2 salary copy constraint with Notify(A) + Write(B) and
//! the update-propagation strategy.
//!
//! Paper claim (§4.2.3): with these interfaces and this strategy,
//! guarantees (1) "Y follows X", (2) "X leads Y", (3) "Y strictly
//! follows X" and the metric form (4) are all valid.
//!
//! This test runs the scenario end-to-end through the simulated
//! toolkit, then (a) verifies the recorded execution against the seven
//! appendix validity properties, and (b) mechanically checks all four
//! guarantees on the trace.

mod common;

use common::{employees_db, rule_set_of, RID_DST, RID_SRC};
use hcm::checker::{check_validity, guarantee::check_guarantee};
use hcm::core::{ItemId, SimDuration, SimTime, Value};
use hcm::rulelang::parse_guarantee;
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::menu::guarantees;
use hcm::toolkit::workload::PoissonWriter;
use hcm::toolkit::{ScenarioBuilder, SpontaneousOp};

const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s
"#;

/// The four §3.3.1 copy guarantees, as the menu writes them (κ = 10s
/// comfortably covers the 5s rule bound + 1s write bound + network).
fn copy_guarantees() -> Vec<hcm::rulelang::Guarantee> {
    let (x, y) = ("salary1(n)", "salary2(n)");
    [
        ("follows", guarantees::follows(x, y)),
        ("leads", guarantees::leads(x, y)),
        ("strictly_follows", guarantees::strictly_follows(x, y)),
        (
            "follows_metric",
            guarantees::follows_metric(x, y, SimDuration::from_secs(10)),
        ),
    ]
    .into_iter()
    .map(|(name, text)| parse_guarantee(name, &text).unwrap())
    .collect()
}

fn build(seed: u64) -> hcm::toolkit::Scenario {
    build_with(seed, &[("e1", 90_000), ("e2", 70_000)])
}

fn build_with(seed: u64, rows: &[(&str, i64)]) -> hcm::toolkit::Scenario {
    ScenarioBuilder::new(seed)
        .site("A", RawStore::Relational(employees_db(rows)), RID_SRC)
        .unwrap()
        .site("B", RawStore::Relational(employees_db(rows)), RID_DST)
        .unwrap()
        .strategy(STRATEGY)
        .build()
        .unwrap()
}

#[test]
fn scripted_updates_satisfy_all_four_guarantees() {
    let mut sc = build(1);
    for (t, id, v) in [
        (10u64, "e1", 95_000i64),
        (40, "e2", 71_000),
        (70, "e1", 99_000),
    ] {
        sc.inject(
            SimTime::from_secs(t),
            "A",
            SpontaneousOp::Sql(format!(
                "update employees set salary = {v} where empid = '{id}'"
            )),
        );
    }
    sc.run_to_quiescence();
    let trace = sc.trace();

    // The execution is valid per Appendix A.
    let report = check_validity(&trace, &rule_set_of(&sc));
    assert!(
        report.is_valid(),
        "validity violations: {:#?}",
        report.violations
    );
    assert!(
        report.obligations_checked >= 9,
        "expected ≥3 obligations per update"
    );

    // All four §3.3.1 guarantees hold.
    for g in copy_guarantees() {
        let r = check_guarantee(&trace, &g, None);
        assert!(
            r.holds,
            "guarantee `{}` violated: {:#?}",
            g.name, r.violations
        );
        assert!(r.instantiations > 0, "guarantee `{}` was vacuous", g.name);
    }

    // And the databases really agree at the end.
    for id in ["e1", "e2"] {
        let a = trace.value_at(
            &ItemId::with("salary1", [Value::from(id)]),
            trace.end_time(),
        );
        let b = trace.value_at(
            &ItemId::with("salary2", [Value::from(id)]),
            trace.end_time(),
        );
        assert_eq!(a, b, "databases diverge for {id}");
    }
}

/// The menu's four guarantees hold on the smallest E1 trace: one
/// employee, one update. Strict `t2 < t1` / `t2 > t1` forms fail here,
/// on the initial value both copies share at t1 = 0 and on the value
/// still current when the trace ends.
#[test]
fn menu_guarantees_hold_on_a_single_update() {
    let mut sc = build_with(1, &[("e1", 90_000)]);
    sc.inject(
        SimTime::from_secs(10),
        "A",
        SpontaneousOp::Sql("update employees set salary = 95000 where empid = 'e1'".into()),
    );
    sc.run_to_quiescence();
    let trace = sc.trace();
    for g in copy_guarantees() {
        let r = check_guarantee(&trace, &g, None);
        assert!(
            r.holds,
            "guarantee `{}` violated: {:#?}",
            g.name, r.violations
        );
        assert!(r.instantiations > 0, "guarantee `{}` was vacuous", g.name);
    }
}

#[test]
fn poisson_workload_satisfies_guarantees() {
    let mut sc = build(7);
    let target = sc.site("A").translator;
    sc.add_actor(Box::new(PoissonWriter::sql_updates(
        target,
        SimDuration::from_secs(30),
        SimTime::from_secs(600),
        "employees",
        "salary",
        "empid",
        vec!["e1".into(), "e2".into()],
        (50_000, 120_000),
    )));
    sc.run_to_quiescence();
    let trace = sc.trace();
    assert!(
        trace.len() > 20,
        "workload too small: {} events",
        trace.len()
    );

    let report = check_validity(&trace, &rule_set_of(&sc));
    assert!(
        report.is_valid(),
        "validity violations: {:#?}",
        report.violations
    );

    for g in copy_guarantees() {
        let r = check_guarantee(&trace, &g, None);
        assert!(
            r.holds,
            "guarantee `{}` violated: {:#?}",
            g.name, r.violations
        );
    }
}

#[test]
fn per_update_propagation_latency_within_bounds() {
    let mut sc = build(3);
    sc.inject(
        SimTime::from_secs(10),
        "A",
        SpontaneousOp::Sql("update employees set salary = 95000 where empid = 'e1'".into()),
    );
    sc.run_to_quiescence();
    let trace = sc.trace();
    let ws = &trace.events()[0];
    let w = trace
        .events()
        .iter()
        .find(|e| e.desc.tag() == "W")
        .expect("propagated write");
    let latency = w.time - ws.time;
    // 2s notify bound + 5s strategy bound + 1s write bound is the
    // theoretical worst case; with 200ms service delays and campus
    // network latency the real chain is well under a second.
    assert!(latency < SimDuration::from_secs(8), "latency {latency}");
    assert!(
        latency >= SimDuration::from_millis(400),
        "latency implausibly low: {latency}"
    );
}
