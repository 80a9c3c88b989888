//! A corrupt or stale `RemoteFire` must degrade, not kill the engine.
//!
//! A shell that receives a rule id it does not know (a stale message
//! from before a strategy change, or plain corruption), or slot values
//! that do not fit the rule they name, records a degradation instead
//! of panicking: the shell counts `shell.unknown_rule`, records a
//! spontaneous `UnknownRuleFire` custom event (no generating rule, no
//! trigger — the provenance is by definition unknown), and carries on
//! serving well-formed traffic.

mod common;

use common::{employees_db, RID_DST, RID_SRC};
use hcm::core::{EventDesc, EventId, RuleId, SimTime, Value};
use hcm::obs::Scope;
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::{CmMsg, Scenario, ScenarioBuilder, SpontaneousOp};

const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s

[guarantee leads]
(salary1(n) = x) @ t1 => (salary2(n) = x) @ t2 and t2 >= t1
"#;

fn build(seed: u64) -> Scenario {
    ScenarioBuilder::new(seed)
        .site(
            "A",
            RawStore::Relational(employees_db(&[("e1", 100)])),
            RID_SRC,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees_db(&[("e1", 100)])),
            RID_DST,
        )
        .unwrap()
        .strategy(STRATEGY)
        .build()
        .unwrap()
}

#[test]
fn unknown_remote_fire_degrades_to_counter_and_event() {
    let mut sc = build(7);
    // A well-formed update rides along to prove the shell stays alive.
    sc.inject(
        SimTime::from_secs(10),
        "A",
        SpontaneousOp::Sql("update employees set salary = 250 where empid = 'e1'".into()),
    );
    // Rule id 9999 exists nowhere in the registry.
    let shell_b = sc.site("B").shell;
    sc.sim.inject_at(
        SimTime::from_secs(5),
        shell_b,
        CmMsg::RemoteFire {
            rule: RuleId(9999),
            trigger: EventId(0),
            slots: Vec::new(),
        },
    );
    sc.run_to_quiescence();

    let site_b = sc.site("B").site;
    assert_eq!(
        sc.obs
            .metrics
            .counter(Scope::Site(site_b.index()), "shell.unknown_rule"),
        1,
        "the bogus fire must be counted"
    );
    // The degradation left a first-class event in the trace.
    assert_eq!(
        unknown_fires(&sc, site_b.index(), "r9999"),
        1,
        "exactly one UnknownRuleFire event recorded"
    );
    // The legitimate rule still fired: the propagation completed.
    assert_eq!(
        sc.obs
            .metrics
            .counter(Scope::Site(site_b.index()), "shell.unknown_rule"),
        1
    );
    let pm = hcm::harness::post_mortem(&sc);
    assert!(
        pm.guarantees.iter().all(|g| g.holds),
        "the well-formed traffic must still satisfy the guarantee"
    );
}

/// `UnknownRuleFire` events naming `rule` recorded at `site`.
fn unknown_fires(sc: &Scenario, site: u32, rule: &str) -> usize {
    sc.recorder.with(|t| {
        t.events()
            .iter()
            .filter(|e| {
                matches!(&e.desc, EventDesc::Custom { name, args }
                    if name == "UnknownRuleFire"
                        && args.first() == Some(&Value::Int(i64::from(site)))
                        && args.get(1) == Some(&Value::Str(rule.into())))
            })
            .count()
    })
}

#[test]
fn remote_fire_with_misfit_slots_degrades_to_counter_and_event() {
    let mut sc = build(7);
    sc.inject(
        SimTime::from_secs(10),
        "A",
        SpontaneousOp::Sql("update employees set salary = 250 where empid = 'e1'".into()),
    );
    // The strategy rule exists, but its two variables (`n`, `b`) do not
    // fit one slot value, nor three.
    let rule = sc.strategy.rules[0].id;
    let shell_b = sc.site("B").shell;
    for (at, slots) in [
        (5, vec![Some(Value::Str("e1".into()))]),
        (6, vec![None, Some(Value::Int(1)), Some(Value::Int(2))]),
    ] {
        sc.sim.inject_at(
            SimTime::from_secs(at),
            shell_b,
            CmMsg::RemoteFire {
                rule,
                trigger: EventId(0),
                slots,
            },
        );
    }
    sc.run_to_quiescence();

    let site_b = sc.site("B").site;
    let metrics = &sc.obs.metrics;
    assert_eq!(
        metrics.counter(Scope::Site(site_b.index()), "shell.unknown_rule"),
        2,
        "each misfit fire must be counted"
    );
    assert_eq!(unknown_fires(&sc, site_b.index(), &rule.to_string()), 2);
    // Only the well-formed firing ran its RHS.
    assert_eq!(
        metrics.counter(Scope::Site(site_b.index()), "shell.firings"),
        1
    );
    let pm = hcm::harness::post_mortem(&sc);
    assert!(
        pm.guarantees.iter().all(|g| g.holds),
        "the well-formed traffic must still satisfy the guarantee"
    );
}
