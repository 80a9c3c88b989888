//! Observability determinism regression: a metrics snapshot is a pure
//! function of (scenario, seed).
//!
//! The registry orders everything with `BTreeMap`s and timestamps
//! records with sim-time only, so running the same scenario twice with
//! the same seed must yield **byte-identical** JSON-lines snapshots —
//! the property that makes snapshots diffable across refactors. E1
//! (salary propagation) covers the toolkit path, with E7 (overload and
//! lossy crash) and E16 (durable crash and recovery) cells on the same
//! deployment covering failure injection and write-ahead-log replay;
//! E3 (demarcation) covers the protocol agents. The E7/E16 cells
//! compare the recorded trace and the guarantee verdicts as well.

mod common;

use common::{employees_db, RID_DST, RID_SRC};
use hcm::core::{SimDuration, SimTime};
use hcm::protocols::demarcation::{self, DemarcConfig, GrantPolicy};
use hcm::simkit::SimRng;
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::shell::FailureConfig;
use hcm::toolkit::workload::PoissonWriter;
use hcm::toolkit::{Durability, Scenario, ScenarioBuilder, SpontaneousOp, StoreSetup};

const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s
"#;

/// Run the E1 salary-copy deployment and return its (jsonl, table)
/// snapshot pair.
fn e1_snapshot(seed: u64) -> (String, String) {
    let rows = [("e0", 1000i64), ("e1", 2000)];
    let mut sc = ScenarioBuilder::new(seed)
        .site("A", RawStore::Relational(employees_db(&rows)), RID_SRC)
        .unwrap()
        .site("B", RawStore::Relational(employees_db(&rows)), RID_DST)
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
        vec!["e0".into(), "e1".into()],
        (1, 9_999),
    )));
    sc.run_to_quiescence();
    (sc.metrics_jsonl(), sc.metrics_table())
}

/// The E1 deployment with the E16 guarantee pair and a 5s/30s failure
/// detector, one update at 10s; `durability` picks the crash regime.
fn e1_failure_base(seed: u64, durability: Durability) -> Scenario {
    let mut sc = ScenarioBuilder::new(seed)
        .site(
            "A",
            RawStore::Relational(employees_db(&[("e1", 90_000)])),
            RID_SRC,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees_db(&[("e1", 90_000)])),
            RID_DST,
        )
        .unwrap()
        .strategy(GUARANTEED_STRATEGY)
        .failure_config(FailureConfig {
            deadline: SimDuration::from_secs(5),
            escalation: SimDuration::from_secs(30),
            heartbeat: None,
        })
        .durability(durability)
        .build()
        .unwrap();
    sc.inject(
        SimTime::from_secs(10),
        "A",
        salary_update(95_000 + seed as i64),
    );
    sc
}

const GUARANTEED_STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s

[guarantee follows]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1

[guarantee leads]
(salary1(n) = x) @ t1 => (salary2(n) = x) @ t2 and t2 >= t1
"#;

fn salary_update(v: i64) -> SpontaneousOp {
    SpontaneousOp::Sql(format!(
        "update employees set salary = {v} where empid = 'e1'"
    ))
}

/// E7 cell: an overload window (metric failure) and a lossy crash
/// (logical failure) at B while updates keep flowing.
fn e7_cell(seed: u64) -> Scenario {
    let mut sc = e1_failure_base(seed, Durability::MessageOnly);
    sc.overload(
        "B",
        SimTime::from_secs(20),
        SimTime::from_secs(60),
        SimDuration::from_secs(20),
    );
    sc.inject(SimTime::from_secs(30), "A", salary_update(96_000));
    sc.crash("B", SimTime::from_secs(80), true);
    sc.inject(SimTime::from_secs(90), "A", salary_update(97_000));
    sc.run_until(SimTime::from_secs(300));
    sc
}

/// E16 cell: a lossy crash of B's durable translator lands inside the
/// accept-to-perform window; the write-ahead log replays it after
/// recovery.
fn e16_cell(seed: u64) -> Scenario {
    let mut sc = e1_failure_base(seed, Durability::Durable(StoreSetup::default()));
    sc.crash("B", SimTime::from_secs(21), true);
    sc.recover("B", SimTime::from_secs(40));
    sc.inject(SimTime::from_secs(50), "A", salary_update(96_000));
    sc.run_until(SimTime::from_secs(200));
    sc
}

/// Metrics snapshot, recorded trace and guarantee verdicts of a run.
fn observables(sc: &Scenario) -> (String, String, String) {
    let verdicts = hcm::harness::post_mortem(sc)
        .guarantees
        .iter()
        .map(|g| format!("{}:{}:{}", g.name, g.holds, g.instantiations))
        .collect::<Vec<_>>()
        .join(";");
    let trace = sc.recorder.with(|t| format!("{:?}", t.events()));
    (sc.metrics_jsonl(), trace, verdicts)
}

/// Run the E3 demarcation deployment and return its jsonl snapshot.
fn e3_snapshot(seed: u64) -> String {
    let mut rng = SimRng::seeded(seed ^ 0x0B5E_D15E);
    let mut d = demarcation::build(DemarcConfig {
        seed,
        x0: 0,
        y0: 400,
        line: 200,
        policy: GrantPolicy::Requested,
    });
    let mut t = SimTime::from_secs(5);
    for _ in 0..60 {
        t += SimDuration::from_secs(rng.int_in(5, 40) as u64);
        d.try_update(t, rng.chance(0.5), rng.int_in(1, 15));
    }
    d.run();
    d.scenario.metrics_jsonl()
}

#[test]
fn e1_same_seed_snapshots_are_byte_identical() {
    let (jsonl_a, table_a) = e1_snapshot(42);
    let (jsonl_b, table_b) = e1_snapshot(42);
    assert!(!jsonl_a.is_empty());
    assert!(
        jsonl_a.contains("shell.firings"),
        "snapshot missing shell metrics:\n{jsonl_a}"
    );
    assert!(
        jsonl_a.contains("net.delivery_latency"),
        "snapshot missing net metrics"
    );
    assert_eq!(jsonl_a.as_bytes(), jsonl_b.as_bytes());
    assert_eq!(table_a.as_bytes(), table_b.as_bytes());

    for seed in [2u64, 6] {
        let a = observables(&e7_cell(seed));
        assert!(a.0.contains("sim.crash"), "E7 cell never crashed B");
        assert!(
            a.0.contains("shell.metric_failures_detected"),
            "E7 overload went undetected"
        );
        assert_eq!(a, observables(&e7_cell(seed)), "E7 replay at seed {seed}");
    }
    for seed in [4u64, 12] {
        let a = observables(&e16_cell(seed));
        assert!(a.0.contains("store.replayed"), "E16 cell never replayed");
        assert_eq!(a, observables(&e16_cell(seed)), "E16 replay at seed {seed}");
    }
}

#[test]
fn e1_different_seeds_produce_different_snapshots() {
    // Sanity that the snapshot really captures run-dependent state:
    // different Poisson arrivals must show up in the histograms.
    let (jsonl_a, _) = e1_snapshot(42);
    let (jsonl_b, _) = e1_snapshot(43);
    assert_ne!(jsonl_a, jsonl_b);
}

#[test]
fn e3_same_seed_snapshots_are_byte_identical() {
    let a = e3_snapshot(7);
    let b = e3_snapshot(7);
    assert!(!a.is_empty());
    assert!(
        a.contains("demarc.attempts"),
        "snapshot missing demarcation metrics:\n{a}"
    );
    assert_eq!(a.as_bytes(), b.as_bytes());
}
