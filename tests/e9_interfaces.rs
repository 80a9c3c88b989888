//! E9 — the interface menu of §3.1.1, exercised end-to-end.
//!
//! * **Conditional notify** ("a notification … only when the update
//!   changes the value of X by more than 10%") reduces notification
//!   traffic; the constraint weakens accordingly.
//! * **Periodic notify** (`P(p) ∧ X = b →ε N(X, b)`) bounds staleness
//!   by `p + ε` without any trigger facility at the source.

mod common;

use common::{employees_db, rule_set_of, RID_DST};
use hcm::checker::{check_validity, guarantee::check_guarantee};
use hcm::core::{ItemId, SimDuration, SimTime, Value};
use hcm::rulelang::parse_guarantee;
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::menu::{guarantees, interfaces};
use hcm::toolkit::{ScenarioBuilder, SpontaneousOp};

/// Site A with a *conditional* notify interface: only >10% changes are
/// reported.
fn rid_src_conditional() -> String {
    format!(
        "ris = relational\nservice = 200ms\n[interface]\n{}\n{}\n\
         [command read salary1]\nselect salary from employees where empid = $p0\n\
         [map salary1]\ntable = employees\nkey = empid\ncol = salary\n",
        interfaces::conditional_notify("salary1(n)", 0.1, SimDuration::from_secs(2)),
        interfaces::read("salary1(n)", SimDuration::from_secs(1)),
    )
}

/// Site A (a whois directory!) with a periodic notify interface: the
/// phone directory is dumped every 60s. No triggers, no SQL — the
/// weakest realistic source.
fn rid_src_periodic_whois() -> String {
    format!(
        "ris = whois\nservice = 100ms\n[interface]\n{}\n[map wphone]\nfield = phone\n",
        interfaces::periodic_notify(
            "wphone(n)",
            SimDuration::from_secs(60),
            SimDuration::from_secs(1)
        ),
    )
}

const PROPAGATE: &str = r#"
[locate]
salary1 = A
salary2 = B
[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s
"#;

#[test]
fn conditional_notify_suppresses_small_changes() {
    let mut sc = ScenarioBuilder::new(1)
        .site(
            "A",
            RawStore::Relational(employees_db(&[("e1", 100_000)])),
            &rid_src_conditional(),
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees_db(&[("e1", 100_000)])),
            RID_DST,
        )
        .unwrap()
        .strategy(PROPAGATE)
        .build()
        .unwrap();
    // +5% (suppressed), then +20% (notified), then -1% (suppressed).
    for (t, v) in [(10u64, 105_000i64), (20, 126_000), (30, 124_700)] {
        sc.inject(
            SimTime::from_secs(t),
            "A",
            SpontaneousOp::Sql(format!(
                "update employees set salary = {v} where empid = 'e1'"
            )),
        );
    }
    sc.run_to_quiescence();
    assert_eq!(sc.counter("A", "translator.notifications"), 1);
    assert_eq!(sc.counter("A", "translator.suppressed"), 2);
    let trace = sc.trace();
    // Only the big change propagated.
    let item2 = ItemId::with("salary2", [Value::from("e1")]);
    assert_eq!(
        trace.timeline(&item2).values_taken(),
        vec![Value::Int(100_000), Value::Int(126_000)]
    );
    // The execution is valid: the interface's own condition discharges
    // the suppressed obligations.
    let report = check_validity(&trace, &rule_set_of(&sc));
    assert!(report.is_valid(), "{:#?}", report.violations);
    // "leads" cannot hold (suppression loses values); "follows" can.
    let follows =
        parse_guarantee("follows", &guarantees::follows("salary1(n)", "salary2(n)")).unwrap();
    let fr = check_guarantee(&trace, &follows, None);
    assert!(fr.holds, "violations {:#?}\ntrace:\n{trace}", fr.violations);
    let leads = parse_guarantee("leads", &guarantees::leads("salary1(n)", "salary2(n)")).unwrap();
    assert!(!check_guarantee(&trace, &leads, None).holds);
}

/// Destination CM-RID for the whois scenario: phone numbers in a
/// writable relational mirror.
const RID_DST_PHONES: &str = r#"
ris = relational
service = 100ms
[interface]
WR(mphone(n), b) -> W(mphone(n), b) within 1s
[command write mphone]
update phones set phone = $value where name = $p0
[command insert mphone]
insert into phones values ($p0, $value)
[command read mphone]
select phone from phones where name = $p0
[map mphone]
table = phones
key = name
col = phone
"#;

const WHOIS_STRATEGY: &str = r#"
[locate]
wphone = A
mphone = B
[strategy]
N(wphone(n), b) -> WR(mphone(n), b) within 5s
"#;

#[test]
fn periodic_notify_bounds_staleness_by_period() {
    let mut dir = hcm::ris::whois::WhoisDir::new();
    dir.admin_set("ann", "phone", "555-0100");
    let mut phones = hcm::ris::relational::Database::new();
    phones.create_table("phones", &["name", "phone"]).unwrap();
    phones
        .execute("insert into phones values ('ann', '555-0100')")
        .unwrap();

    let mut sc = ScenarioBuilder::new(2)
        .site("A", RawStore::Whois(dir), &rid_src_periodic_whois())
        .unwrap()
        .site("B", RawStore::Relational(phones), RID_DST_PHONES)
        .unwrap()
        .strategy(WHOIS_STRATEGY)
        .stop_periodics_at(SimTime::from_secs(400))
        .build()
        .unwrap();

    // The administrator changes Ann's number at t = 75s — between the
    // 60s and 120s dumps.
    sc.inject(
        SimTime::from_secs(75),
        "A",
        SpontaneousOp::WhoisSet {
            name: "ann".into(),
            field: "phone".into(),
            value: "555-0199".into(),
        },
    );
    sc.run_to_quiescence();
    let trace = sc.trace();

    // The mirror got the new number shortly after the 120s dump.
    let mirror = ItemId::with("mphone", [Value::from("ann")]);
    let update_event = trace
        .events()
        .iter()
        .find(|e| {
            matches!(&e.desc, hcm::core::EventDesc::W { item, value }
                if *item == mirror && *value == Value::from("555-0199"))
        })
        .expect("mirror updated");
    assert!(update_event.time >= SimTime::from_secs(120));
    assert!(
        update_event.time <= SimTime::from_secs(128),
        "staleness must be bounded by period + bounds, got {}",
        update_event.time
    );

    // Metric guarantee with κ = period + slack (70s) holds; κ smaller
    // than the period cannot.
    let wide = parse_guarantee(
        "mirror_fresh",
        "(mphone(n) = y) @ t1 => (wphone(n) = y) @ t2 and t1 - 70s < t2 and t2 <= t1",
    )
    .unwrap();
    let r = check_guarantee(&trace, &wide, None);
    assert!(r.holds, "{:#?}", r.violations);

    // Every periodic dump produced a notification (ann exists): at
    // least 6 polls in 400s.
    let n_count = trace.tag_counts().get("N").copied().unwrap_or(0);
    assert!(n_count >= 6, "got {n_count} notifications");
    let p_count = trace.tag_counts().get("P").copied().unwrap_or(0);
    assert!(p_count >= 6);
}

#[test]
fn periodic_notify_trace_is_valid() {
    let mut dir = hcm::ris::whois::WhoisDir::new();
    dir.admin_set("ann", "phone", "1");
    let mut phones = hcm::ris::relational::Database::new();
    phones.create_table("phones", &["name", "phone"]).unwrap();
    let mut sc = ScenarioBuilder::new(3)
        .site("A", RawStore::Whois(dir), &rid_src_periodic_whois())
        .unwrap()
        .site("B", RawStore::Relational(phones), RID_DST_PHONES)
        .unwrap()
        .strategy(WHOIS_STRATEGY)
        .stop_periodics_at(SimTime::from_secs(200))
        .build()
        .unwrap();
    sc.run_to_quiescence();
    let trace = sc.trace();
    let report = check_validity(&trace, &rule_set_of(&sc));
    assert!(report.is_valid(), "{:#?}", report.violations);
    assert!(report.obligations_checked > 0);
}
