//! E2 — the §4.2.3 interface change: site A withdraws its notify
//! interface and offers only a read interface, forcing the polling
//! strategy
//!
//! ```text
//! P(60s) -> RR(X) within 1s
//! R(X, b) -> WR(Y, b) within 5s
//! ```
//!
//! Paper claims: guarantees (1), (3), (4) remain valid; guarantee (2)
//! "X leads Y" is **not** valid, because "it is possible for us to
//! 'miss' updates when two or more updates occur in the same polling
//! interval".

mod common;

use common::{employees_db, rule_set_of};
use hcm::checker::{check_validity, guarantee::check_guarantee};
use hcm::core::{SimDuration, SimTime, Value};
use hcm::rulelang::parse_guarantee;
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::menu::{derive, guarantees, interfaces};
use hcm::toolkit::{Scenario, ScenarioBuilder, SpontaneousOp};

/// A relational CM-RID for `base` over the employees table, offering
/// `interfaces` (menu text).
fn salary_rid(base: &str, interfaces: &[String]) -> String {
    format!(
        "ris = relational\nservice = 200ms\n[interface]\n{}\n\
         [command write {base}]\nupdate employees set salary = $value where empid = $p0\n\
         [command insert {base}]\ninsert into employees values ($p0, $value)\n\
         [command read {base}]\nselect salary from employees where empid = $p0\n\
         [map {base}]\ntable = employees\nkey = empid\ncol = salary\n",
        interfaces.join("\n")
    )
}

/// Site A now offers only the read interface (no notify).
fn rid_src_readonly() -> String {
    salary_rid(
        "salary1",
        &[interfaces::read("salary1(n)", SimDuration::from_secs(1))],
    )
}

/// Site B accepts CM writes and promises no spontaneous ones.
fn rid_dst() -> String {
    salary_rid(
        "salary2",
        &[
            interfaces::write("salary2(n)", SimDuration::from_secs(1)),
            interfaces::no_spontaneous_write("salary2(n)"),
        ],
    )
}

const POLLING_STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
P(60s) -> RR(salary1("e1")) within 1s
R(salary1(n), b) -> WR(salary2(n), b) within 5s
"#;

fn build(seed: u64, horizon_secs: u64) -> Scenario {
    ScenarioBuilder::new(seed)
        .site(
            "A",
            RawStore::Relational(employees_db(&[("e1", 90_000)])),
            &rid_src_readonly(),
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees_db(&[("e1", 90_000)])),
            &rid_dst(),
        )
        .unwrap()
        .strategy(POLLING_STRATEGY)
        .stop_periodics_at(SimTime::from_secs(horizon_secs))
        .build()
        .unwrap()
}

fn update(sc: &mut Scenario, t: u64, v: i64) {
    sc.inject(
        SimTime::from_secs(t),
        "A",
        SpontaneousOp::Sql(format!(
            "update employees set salary = {v} where empid = 'e1'"
        )),
    );
}

/// (2) "X leads Y", as the menu writes it.
fn leads() -> hcm::rulelang::Guarantee {
    parse_guarantee("leads", &guarantees::leads("salary1(n)", "salary2(n)")).unwrap()
}

#[test]
fn polling_keeps_follows_and_order_but_loses_leads() {
    let mut sc = build(5, 600);
    // Two updates inside one 60s polling interval: 95k at 70s, 99k at
    // 80s. The 120s poll only sees 99k — 95k is missed. A later lone
    // update (101k at 130s) is picked up by the 180s poll.
    update(&mut sc, 70, 95_000);
    update(&mut sc, 80, 99_000);
    update(&mut sc, 130, 101_000);
    sc.run_to_quiescence();
    let trace = sc.trace();

    // The execution is still valid — polling breaks a guarantee, not
    // the rule semantics.
    let report = check_validity(&trace, &rule_set_of(&sc));
    assert!(report.is_valid(), "{:#?}", report.violations);

    // (1) follows, (3) strictly follows and (4) metric follows — the
    // guarantees the menu derives for polling, with κ = poll period +
    // the bounds along the path (72.5s) — hold.
    let derived = derive::polling_guarantees(
        "salary1(n)",
        "salary2(n)",
        &sc.site("A").rid.interfaces,
        &sc.site("B").rid.interfaces,
        SimDuration::from_secs(60),
        SimDuration::from_secs(5),
    );
    let names: Vec<_> = derived.iter().map(|d| d.name).collect();
    assert_eq!(names, ["follows", "strictly_follows", "follows_metric"]);
    for d in &derived {
        let g = parse_guarantee(d.name, &d.formula).unwrap();
        let r = check_guarantee(&trace, &g, None);
        assert!(r.holds, "`{}`: {:#?}", d.name, r.violations);
    }

    // (2) leads: VIOLATED — 95k never reaches Y.
    let r = check_guarantee(&trace, &leads(), None);
    assert!(
        !r.holds,
        "guarantee (2) must fail under polling with intra-interval updates"
    );
    assert!(r
        .violations
        .iter()
        .any(|v| v.instantiation.contains("95000")));

    // Sanity: the slow lone update did make it.
    let y_vals = trace
        .timeline(&hcm::core::ItemId::with("salary2", [Value::from("e1")]))
        .values_taken();
    assert!(y_vals.contains(&Value::Int(99_000)));
    assert!(y_vals.contains(&Value::Int(101_000)));
    assert!(!y_vals.contains(&Value::Int(95_000)), "95k must be skipped");
}

#[test]
fn leads_survives_when_updates_are_slower_than_polling() {
    let mut sc = build(6, 600);
    // One update per interval: nothing is missed.
    update(&mut sc, 70, 95_000);
    update(&mut sc, 140, 99_000);
    sc.run_to_quiescence();
    let trace = sc.trace();
    let r = check_guarantee(&trace, &leads(), None);
    assert!(r.holds, "{:#?}", r.violations);
}

/// Miss-rate sweep: fraction of X's values that never reach Y, as a
/// function of updates per polling interval. This is the quantitative
/// shape behind the paper's qualitative claim — the bench
/// `polling_sweep` reports the full series.
#[test]
fn miss_rate_grows_with_update_rate() {
    let miss_rate = |gap_secs: u64| -> f64 {
        let mut sc = build(9, 1200);
        let mut t = 65;
        let mut v = 90_001;
        while t < 1100 {
            update(&mut sc, t, v);
            t += gap_secs;
            v += 1;
        }
        sc.run_to_quiescence();
        let trace = sc.trace();
        let x_vals = trace
            .timeline(&hcm::core::ItemId::with("salary1", [Value::from("e1")]))
            .values_taken();
        let y_vals = trace
            .timeline(&hcm::core::ItemId::with("salary2", [Value::from("e1")]))
            .values_taken();
        let missed = x_vals.iter().filter(|v| !y_vals.contains(v)).count();
        missed as f64 / x_vals.len() as f64
    };
    let slow = miss_rate(90); // slower than the 60s poll
    let fast = miss_rate(15); // 4 updates per poll interval
    assert!(slow < 0.15, "slow workload should rarely miss (got {slow})");
    assert!(
        fast > 0.5,
        "fast workload should miss most values (got {fast})"
    );
    assert!(fast > slow);
}
