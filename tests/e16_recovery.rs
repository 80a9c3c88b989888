//! E16 — durable state and crash recovery (§5).
//!
//! The paper's crash taxonomy turns on memory: "crashes can be mapped
//! to metric failures if the database … can remember messages". This
//! experiment runs the same lossy-crash schedule under the three
//! durability regimes and shows the promotion/demotion:
//!
//! * `Durability::LoseState` — a lossy translator crash destroys an
//!   accepted-but-unperformed write: the obligation is gone, the
//!   failure escalates to *logical*, and only a reset restores
//!   guarantees.
//! * `Durability::Durable` — the same crash schedule, but the
//!   translator write-ahead-logged the accepted write; recovery
//!   replays it, the write lands late, and the failure stays *metric*
//!   (detected, then cleared) — delayed, never lost.
//! * Shells recover their CM-private data and guarantee registry
//!   exactly, by replaying their whole log.
//! * A crash that wipes an actor cancels the timers it had pending:
//!   recovery re-arms what the replayed state calls for, and nothing
//!   fires twice.
//!
//! `Durability::MessageOnly` (the default) is the historical behaviour
//! exercised by E7 and stays bit-for-bit unchanged.

mod common;

use common::{employees_db, rule_set_of, RID_SRC};
use hcm::checker::{check_validity, guarantee::check_guarantee};
use hcm::core::{ItemId, SimDuration, SimTime, Value};
use hcm::obs::Scope;
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::shell::FailureConfig;
use hcm::toolkit::{
    Durability, GuaranteeStatus, Scenario, ScenarioBuilder, SpontaneousOp, StoreSetup,
};
use std::collections::BTreeMap;

/// Site B with a deliberately slow database (2s service time) so a
/// crash can land inside the accept-to-perform window of a write.
const RID_DST_SLOW: &str = r#"
ris = relational
service = 2s
[interface]
WR(salary2(n), b) -> W(salary2(n), b) within 10s
Ws(salary2(n), b) -> false
[command write salary2]
update employees set salary = $value where empid = $p0
[command insert salary2]
insert into employees values ($p0, $value)
[command read salary2]
select salary from employees where empid = $p0
[map salary2]
table = employees
key = empid
col = salary
"#;

const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s

[guarantee follows]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1

[guarantee follows_metric]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 10s < t2 and t2 <= t1
"#;

fn build(seed: u64, durability: Durability) -> Scenario {
    ScenarioBuilder::new(seed)
        .site(
            "A",
            RawStore::Relational(employees_db(&[("e1", 90_000)])),
            RID_SRC,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees_db(&[("e1", 90_000)])),
            RID_DST_SLOW,
        )
        .unwrap()
        .strategy(STRATEGY)
        .failure_config(FailureConfig {
            deadline: SimDuration::from_secs(5),
            escalation: SimDuration::from_secs(30),
            heartbeat: None,
        })
        .durability(durability)
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

/// The crash schedule shared by the regime-comparison tests: the write
/// is accepted by B's slow translator around t≈40.2s and would be
/// performed at ≈42.2s; the lossy crash at 41s lands in between.
fn crash_schedule(sc: &mut Scenario) {
    update(sc, 40, 95_000);
    sc.crash("B", SimTime::from_secs(41), true);
    sc.recover("B", SimTime::from_secs(60));
}

fn salary2_at_end(sc: &Scenario) -> Option<Value> {
    let trace = sc.trace();
    let item = ItemId::with("salary2", [Value::from("e1")]);
    trace.value_at(&item, trace.end_time())
}

#[test]
fn durable_translator_demotes_lossy_crash_to_metric_failure() {
    let mut sc = build(16, Durability::Durable(StoreSetup::default()));
    crash_schedule(&mut sc);
    sc.run_to_quiescence();

    // The accepted write survived the crash and landed after recovery.
    assert_eq!(salary2_at_end(&sc), Some(Value::Int(95_000)));
    assert_eq!(
        sc.obs
            .metrics
            .counter(Scope::Site(1), "translator.writes_recovered"),
        1,
        "the pending write must come back from the log"
    );

    // §5 demotion: detected as metric (the deadline passed while B was
    // down), then cleared by the late response — never logical.
    assert_eq!(sc.counter("B", "shell.metric_failures_detected"), 1);
    assert_eq!(
        sc.counter("B", "shell.logical_failures_detected"),
        0,
        "durable crash is metric"
    );
    assert_eq!(sc.counter("B", "shell.failures_cleared"), 1);
    assert_eq!(
        sc.site("B").registry.borrow().status("follows"),
        Some(GuaranteeStatus::Valid)
    );

    // Post-mortem: the non-metric guarantee verdict matches a
    // crash-free run (holds); the metric guarantee was genuinely
    // violated *during the outage* — that is what "demoted to a metric
    // failure" means on the trace.
    let trace = sc.trace();
    let follows = hcm::rulelang::parse_guarantee(
        "follows",
        "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1",
    )
    .unwrap();
    assert!(check_guarantee(&trace, &follows, None).holds);
    let metric = hcm::rulelang::parse_guarantee(
        "follows_metric",
        "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 10s < t2 and t2 <= t1",
    )
    .unwrap();
    assert!(
        !check_guarantee(&trace, &metric, None).holds,
        "the ~22s recovery delay must break the 10s κ bound"
    );

    // The store actually worked for a living.
    let t_scope = Scope::Actor(3); // translator B = actor n + 1 = 3
    assert!(sc.obs.metrics.counter(t_scope, "store.appends") > 0);
    assert_eq!(sc.obs.metrics.counter(t_scope, "store.recoveries"), 1);
    assert_eq!(sc.obs.metrics.counter(t_scope, "store.truncations"), 0);
}

#[test]
fn lossy_crash_without_store_loses_the_write_for_good() {
    let mut sc = build(16, Durability::LoseState);
    crash_schedule(&mut sc);
    sc.run_until(SimTime::from_secs(300));

    // The write vanished with the crash: salary2 is stale forever.
    assert_eq!(salary2_at_end(&sc), Some(Value::Int(90_000)));
    assert_eq!(
        sc.obs
            .metrics
            .counter(Scope::Site(1), "translator.writes_lost"),
        1
    );
    assert_eq!(
        sc.obs
            .metrics
            .counter(Scope::Site(1), "translator.writes_recovered"),
        0
    );

    // §5 promotion: never served, the metric failure escalates to
    // logical, voiding even non-metric guarantees until a reset.
    assert_eq!(sc.counter("B", "shell.metric_failures_detected"), 1);
    assert_eq!(
        sc.counter("B", "shell.logical_failures_detected"),
        1,
        "lost state is logical"
    );
    assert_eq!(
        sc.site("B").registry.borrow().status("follows"),
        Some(GuaranteeStatus::SuspendedLogical)
    );
    assert_eq!(
        sc.site("A").registry.borrow().status("follows"),
        Some(GuaranteeStatus::SuspendedLogical),
        "suspension propagates to every shell"
    );
}

/// The same schedule under the two regimes, side by side: identical
/// failure detection, opposite outcomes — that is the paper's demotion
/// claim in one assert.
#[test]
fn durability_is_the_only_difference_between_metric_and_logical() {
    let mut durable = build(17, Durability::Durable(StoreSetup::default()));
    let mut lossy = build(17, Durability::LoseState);
    for sc in [&mut durable, &mut lossy] {
        crash_schedule(sc);
        sc.run_until(SimTime::from_secs(300));
    }
    // Both detect the outage the same way…
    assert_eq!(
        durable.counter("B", "shell.metric_failures_detected"),
        lossy.counter("B", "shell.metric_failures_detected"),
    );
    // …but only the storeless run escalates and loses data.
    assert_eq!(durable.counter("B", "shell.logical_failures_detected"), 0);
    assert_eq!(lossy.counter("B", "shell.logical_failures_detected"), 1);
    assert_ne!(salary2_at_end(&durable), salary2_at_end(&lossy));
}

/// A reset is a logged transition like a failure: a durable shell that
/// crashes after one replays the failures and then the reset, and
/// comes back with its guarantees valid.
#[test]
fn durable_shell_replays_a_reset() {
    let mut sc = build(21, Durability::Durable(StoreSetup::default()));
    // B's database goes down for good: the request for the update at
    // 40s is never answered, and B's shell escalates to logical.
    sc.crash("B", SimTime::from_secs(30), true);
    update(&mut sc, 40, 95_000);
    sc.run_until(SimTime::from_secs(100));
    let follows = |sc: &Scenario| sc.site("B").registry.borrow().status("follows");
    assert_eq!(follows(&sc), Some(GuaranteeStatus::SuspendedLogical));

    sc.reset("B", SimTime::from_secs(100));
    sc.run_until(SimTime::from_secs(100));
    assert_eq!(follows(&sc), Some(GuaranteeStatus::Valid));

    // A lossy shell crash wipes the registry; recovery rebuilds it
    // from the log, reset included. The escalated request was given
    // up, so recovery re-arms no deadline for it and the reset stays
    // final.
    sc.crash_shell("B", SimTime::from_secs(110), true);
    sc.recover_shell("B", SimTime::from_secs(120));
    sc.run_until(SimTime::from_secs(200));
    assert_eq!(
        sc.obs.metrics.counter(Scope::Actor(1), "store.recoveries"),
        1
    );
    assert_eq!(follows(&sc), Some(GuaranteeStatus::Valid));
    assert_eq!(sc.counter("B", "shell.metric_failures_detected"), 1);
    assert_eq!(sc.counter("B", "shell.logical_failures_detected"), 1);
}

/// A request flagged metric before a shell crash goes straight to its
/// escalation check after recovery: the outage is detected once as
/// metric and once as logical, as in a run whose shell never crashed.
#[test]
fn replayed_metric_flag_is_not_detected_again() {
    let detections = |crash_shell: bool| {
        let mut sc = build(22, Durability::Durable(StoreSetup::default()));
        // B's database holds the request for the update at 40s until
        // 300s: the deadline passes at ~45s, the escalation at ~75s.
        sc.crash("B", SimTime::from_secs(39), false);
        update(&mut sc, 40, 95_000);
        if crash_shell {
            sc.crash_shell("B", SimTime::from_secs(50), true);
            sc.recover_shell("B", SimTime::from_secs(52));
        }
        sc.recover("B", SimTime::from_secs(300));
        sc.run_until(SimTime::from_secs(120));
        (
            sc.counter("B", "shell.metric_failures_detected"),
            sc.counter("B", "shell.logical_failures_detected"),
        )
    };
    assert_eq!(detections(false), (1, 1));
    assert_eq!(detections(true), (1, 1));
}

// ---------------------------------------------------------------------
// Shell-state recovery: CM-private data + guarantee registry.
// ---------------------------------------------------------------------

const CACHED: &str = r#"
[locate]
salary1 = A
salary2 = B
[private]
Cx = B
[strategy]
N(salary1(n), b) -> if Cx(n) != b then WR(salary2(n), b) ; W(Cx(n), b) within 5s

[guarantee follows]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1
"#;

fn build_cached(seed: u64, durability: Durability) -> Scenario {
    ScenarioBuilder::new(seed)
        .site(
            "A",
            RawStore::Relational(employees_db(&[("e1", 90_000)])),
            RID_SRC,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees_db(&[("e1", 90_000)])),
            common::RID_DST,
        )
        .unwrap()
        .strategy(CACHED)
        .private_data(
            "B",
            ItemId::with("Cx", [Value::from("e1")]),
            Value::Int(90_000),
        )
        .durability(durability)
        .build()
        .unwrap()
}

/// The shell's durable state as the tests compare it: its CM-private
/// data and the text of its guarantee registry (statuses and since).
fn shell_state(sc: &Scenario, site: &str) -> (BTreeMap<ItemId, Value>, String) {
    let h = sc.site(site);
    let private = h.private.borrow().clone();
    (private, h.registry.borrow().to_string())
}

#[test]
fn durable_shell_recovers_byte_identical_state() {
    let mut sc = build_cached(18, Durability::Durable(StoreSetup::default()));
    for (i, v) in [95_000, 96_000, 97_000].iter().enumerate() {
        update(&mut sc, 10 + 10 * i as u64, *v);
    }
    // Let the updates fully propagate, then take the shell's state.
    sc.run_until(SimTime::from_secs(36));
    let before = shell_state(&sc, "B");

    // Lossy shell crash: private data and registry are wiped…
    sc.crash_shell("B", SimTime::from_secs(37), true);
    sc.recover_shell("B", SimTime::from_secs(39));
    // …and rebuilt by log replay on recovery.
    sc.run_until(SimTime::from_secs(45));
    let after = shell_state(&sc, "B");
    assert_eq!(before, after, "recovered state must be identical");
    assert_eq!(
        sc.site("B")
            .private
            .borrow()
            .get(&ItemId::with("Cx", [Value::from("e1")])),
        Some(&Value::Int(97_000)),
        "and it is the real pre-crash state, not an empty one"
    );

    // The shell keeps working after recovery: one more update flows
    // through cache-compare-and-forward as if nothing happened.
    update(&mut sc, 50, 98_000);
    sc.run_to_quiescence();
    assert_eq!(salary2_at_end(&sc), Some(Value::Int(98_000)));
    assert_eq!(
        sc.site("B")
            .private
            .borrow()
            .get(&ItemId::with("Cx", [Value::from("e1")])),
        Some(&Value::Int(98_000))
    );

    // Post-mortem parity with a crash-free run: same validity verdict,
    // same guarantee verdict, same final data.
    let report = check_validity(&sc.trace(), &rule_set_of(&sc));
    assert!(report.is_valid(), "{:#?}", report.violations);
    let mut baseline = build_cached(18, Durability::MessageOnly);
    for (i, v) in [95_000, 96_000, 97_000].iter().enumerate() {
        update(&mut baseline, 10 + 10 * i as u64, *v);
    }
    update(&mut baseline, 50, 98_000);
    baseline.run_to_quiescence();
    let g = hcm::rulelang::parse_guarantee(
        "follows",
        "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1",
    )
    .unwrap();
    assert_eq!(
        check_guarantee(&sc.trace(), &g, None).holds,
        check_guarantee(&baseline.trace(), &g, None).holds,
    );
    assert_eq!(salary2_at_end(&sc), salary2_at_end(&baseline));

    // Shell B (actor 1) exercised appends and recovery.
    let scope = Scope::Actor(1);
    assert!(sc.obs.metrics.counter(scope, "store.appends") > 0);
    assert_eq!(sc.obs.metrics.counter(scope, "store.recoveries"), 1);
}

/// The initial CM-private data is in the log from the start, so a
/// lossy crash before the first write does not wipe it.
#[test]
fn durable_shell_logs_its_initial_private_data() {
    let mut sc = build_cached(23, Durability::Durable(StoreSetup::default()));
    sc.crash_shell("B", SimTime::from_secs(5), true);
    sc.recover_shell("B", SimTime::from_secs(7));
    sc.run_until(SimTime::from_secs(10));
    assert_eq!(
        sc.site("B")
            .private
            .borrow()
            .get(&ItemId::with("Cx", [Value::from("e1")])),
        Some(&Value::Int(90_000))
    );
}

#[test]
fn shell_without_store_loses_private_state() {
    let mut sc = build_cached(19, Durability::LoseState);
    for (i, v) in [95_000, 96_000, 97_000].iter().enumerate() {
        update(&mut sc, 10 + 10 * i as u64, *v);
    }
    sc.run_until(SimTime::from_secs(36));
    sc.crash_shell("B", SimTime::from_secs(37), true);
    sc.recover_shell("B", SimTime::from_secs(39));
    sc.run_until(SimTime::from_secs(45));
    assert_eq!(
        sc.site("B")
            .private
            .borrow()
            .get(&ItemId::with("Cx", [Value::from("e1")])),
        None,
        "without a store the cache is simply gone"
    );
}

// ---------------------------------------------------------------------
// File-backed store: real log files on disk, CRC-checked end to end.
// ---------------------------------------------------------------------

#[test]
fn file_backed_store_recovers_across_the_same_schedule() {
    let dir = std::env::temp_dir().join(format!("hcm-e16-files-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut sc = build(20, Durability::Durable(StoreSetup::File(dir.clone())));
    crash_schedule(&mut sc);
    sc.run_to_quiescence();

    // Same behaviour as the in-memory store…
    assert_eq!(salary2_at_end(&sc), Some(Value::Int(95_000)));
    assert_eq!(sc.counter("B", "shell.logical_failures_detected"), 0);
    // …with one real log file per actor on disk.
    for label in ["site0-shell", "site1-translator"] {
        let log = dir.join(format!("{label}.wal"));
        assert!(log.is_file(), "missing log file {}", log.display());
    }
    let t_scope = Scope::Actor(3);
    assert_eq!(sc.obs.metrics.counter(t_scope, "store.recoveries"), 1);
    assert_eq!(sc.obs.metrics.counter(t_scope, "store.truncations"), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Timers die with the state that armed them.
// ---------------------------------------------------------------------

/// A shell polling A every 5s, crashed for 1s: after recovery it polls
/// at the crash-free rate, not twice as often (the pre-crash tick
/// beside the one recovery re-arms).
#[test]
fn wiping_shell_crash_cancels_pending_timers() {
    const POLLING: &str = r#"
[locate]
salary1 = A
salary2 = B
[strategy]
P(5s) -> RR(salary1("e1")) within 1s
"#;
    let firings = |durability: Durability, crash: bool| {
        let mut sc = ScenarioBuilder::new(24)
            .site(
                "A",
                RawStore::Relational(employees_db(&[("e1", 90_000)])),
                RID_SRC,
            )
            .unwrap()
            .site(
                "B",
                RawStore::Relational(employees_db(&[("e1", 90_000)])),
                common::RID_DST,
            )
            .unwrap()
            .strategy(POLLING)
            .durability(durability)
            .build()
            .unwrap();
        if crash {
            sc.crash_shell("A", SimTime::from_secs(51), true);
            sc.recover_shell("A", SimTime::from_secs(52));
        }
        sc.run_until(SimTime::from_secs(100));
        let before = sc.counter("A", "shell.firings");
        sc.run_until(SimTime::from_secs(150));
        sc.counter("A", "shell.firings") - before
    };
    for durability in [
        Durability::LoseState,
        Durability::Durable(StoreSetup::default()),
    ] {
        let crash_free = firings(durability.clone(), false);
        assert_eq!(crash_free, 10);
        assert_eq!(firings(durability, true), crash_free);
    }
}

/// A translator crashed for 1s inside a write's accept-to-perform
/// window performs the recovered write once: the perform timer armed
/// before the crash died with it.
#[test]
fn recovered_write_is_performed_once() {
    let mut sc = build(25, Durability::Durable(StoreSetup::default()));
    update(&mut sc, 40, 95_000);
    sc.crash("B", SimTime::from_secs(41), true);
    sc.recover("B", SimTime::from_secs(42));
    sc.run_to_quiescence();
    assert_eq!(salary2_at_end(&sc), Some(Value::Int(95_000)));
    assert_eq!(sc.counter("B", "translator.writes_recovered"), 1);
    assert_eq!(sc.counter("B", "translator.writes_done"), 1);
}
