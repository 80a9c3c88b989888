//! E7 — failure handling (§5).
//!
//! Paper claims: a **metric failure** (time bounds missed, service
//! eventually provided) invalidates only *metric* guarantees — the
//! non-metric ones "continue to be valid, which may allow many
//! applications to continue to function". A **logical failure**
//! (interface statements void) invalidates both, "until the system is
//! reset". The CM detects failures and propagates the information so
//! guarantees can be marked invalid at every shell.

mod common;

use common::{employees_db, RID_DST, RID_SRC};
use hcm::checker::guarantee::check_guarantee;
use hcm::core::{EventDesc, SimDuration, SimTime, Value};
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::shell::FailureConfig;
use hcm::toolkit::{GuaranteeStatus, Scenario, ScenarioBuilder, SpontaneousOp};

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

fn build(seed: u64) -> Scenario {
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
            RID_DST,
        )
        .unwrap()
        .strategy(STRATEGY)
        .failure_config(FailureConfig {
            deadline: SimDuration::from_secs(5),
            escalation: SimDuration::from_secs(30),
            heartbeat: None,
        })
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

#[test]
fn overload_causes_metric_failure_and_suspends_only_metric_guarantees() {
    let mut sc = build(1);
    // B's database is overloaded 30s–200s: every operation takes 20s
    // longer than normal — well beyond the 5s detection deadline.
    sc.overload(
        "B",
        SimTime::from_secs(30),
        SimTime::from_secs(200),
        SimDuration::from_secs(20),
    );
    update(&mut sc, 40, 95_000);

    // Run just past the detection deadline.
    sc.run_until(SimTime::from_secs(48));
    let reg_b = sc.site("B").registry.borrow().status("follows_metric");
    assert_eq!(reg_b, Some(GuaranteeStatus::SuspendedMetric));
    let nonmetric_b = sc.site("B").registry.borrow().status("follows");
    assert_eq!(
        nonmetric_b,
        Some(GuaranteeStatus::Valid),
        "non-metric survives"
    );
    // Propagated to the other shell too.
    assert_eq!(
        sc.site("A").registry.borrow().status("follows_metric"),
        Some(GuaranteeStatus::SuspendedMetric)
    );

    // The late write eventually lands (metric, not logical): guarantees
    // clear once the response arrives.
    sc.run_to_quiescence();
    assert_eq!(
        sc.site("B").registry.borrow().status("follows_metric"),
        Some(GuaranteeStatus::Valid),
        "late response clears a metric failure"
    );
    assert_eq!(sc.counter("B", "shell.metric_failures_detected"), 1);
    assert_eq!(sc.counter("B", "shell.failures_cleared"), 1);
    assert_eq!(sc.counter("B", "shell.logical_failures_detected"), 0);

    // The trace confirms the paper's semantics: the *non-metric*
    // follows guarantee still holds on the actual data…
    let trace = sc.trace();
    let follows = hcm::rulelang::parse_guarantee(
        "follows",
        "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1",
    )
    .unwrap();
    assert!(check_guarantee(&trace, &follows, None).holds);
    // …while the metric one was genuinely violated during the episode.
    let metric = hcm::rulelang::parse_guarantee(
        "follows_metric",
        "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 10s < t2 and t2 <= t1",
    )
    .unwrap();
    assert!(
        !check_guarantee(&trace, &metric, None).holds,
        "the 20s-delayed write must break the 10s κ bound"
    );
}

#[test]
fn crash_causes_logical_failure_requiring_reset() {
    let mut sc = build(2);
    // B crashes losing messages, and never recovers within the horizon.
    sc.crash("B", SimTime::from_secs(30), true);
    update(&mut sc, 40, 95_000);
    sc.run_until(SimTime::from_secs(300));

    // 5s deadline → metric flag; +30s escalation → logical.
    let b = sc.site("B");
    assert_eq!(sc.counter("B", "shell.metric_failures_detected"), 1);
    assert_eq!(sc.counter("B", "shell.logical_failures_detected"), 1);
    assert_eq!(
        b.registry.borrow().status("follows"),
        Some(GuaranteeStatus::SuspendedLogical),
        "logical failure takes down non-metric guarantees too"
    );
    assert_eq!(
        sc.site("A").registry.borrow().status("follows"),
        Some(GuaranteeStatus::SuspendedLogical)
    );

    // Only a reset restores validity (§5).
    sc.reset("B", SimTime::from_secs(300));
    sc.run_until(SimTime::from_secs(300));
    assert_eq!(
        sc.site("B").registry.borrow().status("follows"),
        Some(GuaranteeStatus::Valid)
    );
}

#[test]
fn detection_latency_is_bounded_by_the_deadline() {
    let mut sc = build(3);
    sc.crash("B", SimTime::from_secs(30), true);
    update(&mut sc, 40, 95_000);
    sc.run_until(SimTime::from_secs(120));
    let trace = sc.trace();
    // Find the WR (request receipt would be lost — the request message
    // itself is dropped at the crashed translator, so detection keys
    // off the requesting shell's own send time) and the detection
    // event.
    let detect = trace
        .events()
        .iter()
        .find(|e| {
            matches!(&e.desc, EventDesc::Custom { name, args }
            if name == "FailureDetected" && args.get(1) == Some(&Value::from("metric")))
        })
        .expect("metric failure detected");
    // The N that triggered the request happened ~40.x s; the deadline
    // is 5s; detection must land within ~6s of the N event.
    let n_event = trace
        .events()
        .iter()
        .find(|e| e.desc.tag() == "N")
        .expect("notify");
    let latency = detect.time.saturating_since(n_event.time);
    assert!(
        latency <= SimDuration::from_millis(5_200),
        "detection latency {latency} exceeds deadline + slack"
    );
}

#[test]
fn recovery_replays_and_clears_even_after_crash() {
    // A *non-lossy* crash ("the database can remember messages", §5):
    // requests queue and replay at recovery, so the failure stays
    // metric and clears on its own.
    let mut sc = build(4);
    sc.crash("B", SimTime::from_secs(30), false);
    sc.recover("B", SimTime::from_secs(50));
    update(&mut sc, 40, 95_000);
    sc.run_to_quiescence();
    let b = sc.site("B");
    assert_eq!(sc.counter("B", "shell.metric_failures_detected"), 1);
    assert_eq!(sc.counter("B", "shell.logical_failures_detected"), 0);
    assert_eq!(sc.counter("B", "shell.failures_cleared"), 1);
    assert_eq!(
        b.registry.borrow().status("follows_metric"),
        Some(GuaranteeStatus::Valid)
    );
    // The write actually happened after recovery.
    let trace = sc.trace();
    let item = hcm::core::ItemId::with("salary2", [Value::from("e1")]);
    assert_eq!(
        trace.value_at(&item, trace.end_time()),
        Some(Value::Int(95_000))
    );
}

#[test]
fn no_failure_no_suspension() {
    let mut sc = build(5);
    update(&mut sc, 10, 91_000);
    update(&mut sc, 20, 92_000);
    sc.run_to_quiescence();
    for site in ["A", "B"] {
        let reg = sc.site(site).registry.borrow();
        assert_eq!(reg.status("follows"), Some(GuaranteeStatus::Valid));
        assert_eq!(reg.status("follows_metric"), Some(GuaranteeStatus::Valid));
    }
    assert_eq!(sc.counter("B", "shell.metric_failures_detected"), 0);
}

#[test]
fn heartbeat_detects_silent_failure_without_traffic() {
    // §5: "if the database fails silently … there is no way for the
    // CM-Translator to detect the failure" — unless the CM probes. With
    // a heartbeat, a crash is detected with NO application activity at
    // all; without one, it goes unnoticed for the whole run.
    let build_hb = |heartbeat: Option<SimDuration>| {
        ScenarioBuilder::new(9)
            .site(
                "A",
                RawStore::Relational(employees_db(&[("e1", 1)])),
                RID_SRC,
            )
            .unwrap()
            .site(
                "B",
                RawStore::Relational(employees_db(&[("e1", 1)])),
                RID_DST,
            )
            .unwrap()
            .strategy(STRATEGY)
            .failure_config(FailureConfig {
                deadline: SimDuration::from_secs(5),
                escalation: SimDuration::from_secs(30),
                heartbeat,
            })
            .stop_periodics_at(SimTime::from_secs(200))
            .build()
            .unwrap()
    };

    // With heartbeat: crash B, no workload — still detected.
    let mut sc = build_hb(Some(SimDuration::from_secs(10)));
    sc.crash("B", SimTime::from_secs(15), true);
    sc.run_until(SimTime::from_secs(120));
    let b = sc.site("B");
    assert!(
        sc.counter("B", "shell.metric_failures_detected") >= 1,
        "heartbeat must detect the silent crash"
    );
    assert!(sc.counter("B", "shell.logical_failures_detected") >= 1);
    assert_eq!(
        b.registry.borrow().status("follows"),
        Some(GuaranteeStatus::SuspendedLogical)
    );
    // Detection time: first probe after the crash is at 20s, deadline
    // 5s → detection by ~25s.
    let trace = sc.trace();
    let detect = trace
        .events()
        .iter()
        .find(|e| matches!(&e.desc, EventDesc::Custom { name, .. } if name == "FailureDetected"))
        .expect("detected");
    assert!(
        detect.time <= SimTime::from_secs(26),
        "detected at {} — expected within heartbeat + deadline",
        detect.time
    );

    // Without heartbeat: the same silent crash is never noticed.
    let mut sc2 = build_hb(None);
    sc2.crash("B", SimTime::from_secs(15), true);
    sc2.run_until(SimTime::from_secs(120));
    assert_eq!(
        sc2.counter("B", "shell.metric_failures_detected"),
        0,
        "no probing, no traffic, no detection — the paper's silent-failure gap"
    );
}

/// Build a scenario whose shell at B heartbeats its translator: silent
/// failures are detected without any application workload (§5's
/// "detected within heartbeat + deadline").
fn build_with_heartbeat(seed: u64, stop: u64) -> Scenario {
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
            RID_DST,
        )
        .unwrap()
        .strategy(STRATEGY)
        .failure_config(FailureConfig {
            deadline: SimDuration::from_secs(5),
            escalation: SimDuration::from_secs(30),
            heartbeat: Some(SimDuration::from_secs(10)),
        })
        .stop_periodics_at(SimTime::from_secs(stop))
        .build()
        .unwrap()
}

/// A crashed translator is detected purely by heartbeat probes — no
/// update traffic at all — and escalates metric → logical on schedule.
#[test]
fn heartbeat_detects_silent_crash_and_escalates() {
    let mut sc = build_with_heartbeat(5, 280);
    sc.crash("B", SimTime::from_secs(32), true);
    sc.run_until(SimTime::from_secs(300));

    assert!(
        sc.counter("B", "shell.metric_failures_detected") >= 1,
        "heartbeat missed the silent crash"
    );
    assert!(
        sc.counter("B", "shell.logical_failures_detected") >= 1,
        "metric failure never escalated"
    );
    // No rule ever fired and no application request was sent: the
    // detection really came from the heartbeat path.
    assert_eq!(sc.counter("B", "shell.firings"), 0);
    assert_eq!(sc.counter("B", "shell.requests_sent"), 0);
    let hb = sc.obs.metrics.counter(
        hcm::obs::Scope::Site(sc.site("B").site.index()),
        "shell.heartbeats",
    );
    assert!(hb >= 3, "expected several heartbeat probes, saw {hb}");

    // First probe lost is the 40s one; 5s deadline → detection by ~45s.
    let trace = sc.trace();
    let detect = trace
        .events()
        .iter()
        .find(|e| {
            matches!(&e.desc, EventDesc::Custom { name, args }
            if name == "FailureDetected" && args.get(1) == Some(&Value::from("metric")))
        })
        .expect("metric failure detected");
    assert!(
        detect.time <= SimTime::from_secs(48),
        "silent failure detected too late: {}",
        detect.time
    );
    assert_eq!(
        sc.site("B").registry.borrow().status("follows"),
        Some(GuaranteeStatus::SuspendedLogical),
        "escalation voids non-metric guarantees"
    );
}

/// An overloaded (slow but alive) translator trips the heartbeat's
/// metric deadline, then the late probe responses clear the failure:
/// the armed → metric → cleared lifecycle, with no logical escalation.
#[test]
fn heartbeat_metric_failure_clears_on_late_response() {
    let mut sc = build_with_heartbeat(6, 150);
    // Every B operation takes 12s extra during 25s–90s: beyond the 5s
    // deadline, well under the 30s escalation.
    sc.overload(
        "B",
        SimTime::from_secs(25),
        SimTime::from_secs(90),
        SimDuration::from_secs(12),
    );
    sc.run_to_quiescence();

    assert!(
        sc.counter("B", "shell.metric_failures_detected") >= 1,
        "slow probe never flagged"
    );
    assert!(
        sc.counter("B", "shell.failures_cleared") >= 1,
        "late probe response never cleared the flag"
    );
    assert_eq!(
        sc.counter("B", "shell.logical_failures_detected"),
        0,
        "12s delay must not escalate"
    );
    assert_eq!(
        sc.site("B").registry.borrow().status("follows_metric"),
        Some(GuaranteeStatus::Valid),
        "metric guarantees recover once responses resume"
    );
}
