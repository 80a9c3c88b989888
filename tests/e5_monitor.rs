//! E5 — monitoring without enforcement (§6.3), integration level.
//!
//! Runs the monitor deployment (one CM-Shell serving a kv store and a
//! relational store, both notify-only) under randomized workloads and
//! checks the `(Flag ∧ Tb = s)@t ⇒ (X = Y)@@[s, t−κ]` guarantee on
//! every trace.

use hcm::checker::guarantee::check_guarantee;
use hcm::core::SimTime;
use hcm::obs::Scope;
use hcm::protocols::monitor;
use hcm::simkit::SimRng;

#[test]
fn guarantee_holds_across_random_workloads() {
    for seed in 1..=5u64 {
        let mut m = monitor::build(seed, 100);
        let mut rng = SimRng::seeded(seed * 101);
        let mut t = 10u64;
        for _ in 0..20 {
            t += rng.int_in(5, 60) as u64;
            let v = rng.int_in(0, 3); // few values → frequent re-convergence
            if rng.chance(0.5) {
                m.write_x(SimTime::from_secs(t), v);
            } else {
                m.write_y(SimTime::from_secs(t), v);
            }
        }
        m.run();
        let trace = m.recorder.snapshot();
        let g = m.guarantee();
        let r = check_guarantee(&trace, &g, None);
        assert!(r.holds, "seed {seed}: {:#?}", r.violations);
    }
}

#[test]
fn flag_actually_transitions_under_divergence() {
    let mut m = monitor::build(9, 1);
    m.write_x(SimTime::from_secs(10), 2);
    m.write_y(SimTime::from_secs(30), 2);
    m.write_x(SimTime::from_secs(50), 3);
    m.write_y(SimTime::from_secs(70), 3);
    m.run();
    let transitions = m
        .sim
        .obs()
        .metrics
        .counter(Scope::Global, "monitor.transitions");
    assert_eq!(transitions, 4, "two divergences, two re-convergences");
}

#[test]
fn kappa_smaller_than_notification_bound_fails() {
    // The κ in the guarantee must absorb the notify delay; κ = 0 is
    // refutable whenever a divergence occurs (checked in the protocols
    // unit tests); here: κ must also cover *both* interfaces' bounds —
    // halve it below the slower bound and a crossing workload breaks it.
    let mut m = monitor::build(10, 0);
    for i in 0..6 {
        m.write_x(SimTime::from_secs(10 + i * 20), (i % 2) as i64);
        m.write_y(SimTime::from_secs(20 + i * 20), (i % 2) as i64);
    }
    m.run();
    let trace = m.recorder.snapshot();
    let tight = hcm::rulelang::parse_guarantee(
        "monitor_tight",
        "(Flag = true and Tb = s) @ t => (X = Y) @@ [s, t - 50ms]",
    )
    .unwrap();
    assert!(
        !check_guarantee(&trace, &tight, None).holds,
        "κ = 50ms cannot hold"
    );
    let proper = m.guarantee();
    let r = check_guarantee(&trace, &proper, None);
    assert!(r.holds, "{:#?}", r.violations);
}
