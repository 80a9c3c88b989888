//! E3 — the Demarcation Protocol (§6.1) and the strict-consistency
//! baseline.
//!
//! Paper claims: (a) the protocol keeps `X ≤ Y` valid **always**
//! without distributed transactions; (b) different limit-change
//! policies can be compared through the limit-change guarantee; and
//! (implicitly, §1) that avoiding global transactions buys locality
//! and availability. This test checks (a) under a randomized workload,
//! compares the three policies, and measures demarcation against the
//! 2PC baseline on the *same* workload.

use hcm::core::{SimDuration, SimTime};
use hcm::obs::Scope;
use hcm::protocols::demarcation::{self, DemarcConfig, GrantPolicy};
use hcm::protocols::tpc;
use hcm::simkit::SimRng;

/// A reproducible mixed workload: (time, lower_side?, delta).
fn workload(seed: u64, n: usize) -> Vec<(SimTime, bool, i64)> {
    let mut rng = SimRng::seeded(seed);
    let mut t = SimTime::from_secs(5);
    (0..n)
        .map(|_| {
            t += SimDuration::from_secs(rng.int_in(5, 40) as u64);
            (t, rng.chance(0.5), rng.int_in(1, 15))
        })
        .collect()
}

fn run_demarc(
    policy: GrantPolicy,
    seed: u64,
    ops: &[(SimTime, bool, i64)],
) -> demarcation::DemarcScenario {
    let mut d = demarcation::build(DemarcConfig {
        seed,
        x0: 0,
        y0: 400,
        line: 200,
        policy,
    });
    for &(t, lower, delta) in ops {
        d.try_update(t, lower, delta);
    }
    d.run();
    d
}

#[test]
fn invariant_always_holds_under_random_workload() {
    for seed in [1, 2, 3] {
        let ops = workload(seed, 60);
        for policy in [
            GrantPolicy::Requested,
            GrantPolicy::All,
            GrantPolicy::HalfAvailable,
        ] {
            let d = run_demarc(policy, seed, &ops);
            assert!(
                d.invariant_held(),
                "X ≤ Y violated with {policy:?} seed {seed}"
            );
        }
    }
}

#[test]
fn most_updates_are_local() {
    // Generous initial slack relative to the workload's total drift:
    // the common case the protocol optimizes for.
    let ops = workload(7, 80);
    let mut d = demarcation::build(DemarcConfig {
        seed: 7,
        x0: 0,
        y0: 2000,
        line: 1000,
        policy: GrantPolicy::Requested,
    });
    for &(t, lower, delta) in &ops {
        d.try_update(t, lower, delta);
    }
    d.run();
    let both = |name| d.scenario.counter("A", name) + d.scenario.counter("B", name);
    let local = both("demarc.local_ok");
    let attempts = both("demarc.attempts");
    assert!(
        local as f64 / attempts as f64 > 0.6,
        "expected mostly-local updates, got {local}/{attempts}"
    );
}

#[test]
fn policies_trade_requests_for_future_denials() {
    let ops = workload(11, 100);
    let exact = run_demarc(GrantPolicy::Requested, 11, &ops);
    let all = run_demarc(GrantPolicy::All, 11, &ops);
    let requests = |d: &demarcation::DemarcScenario| {
        d.scenario.counter("A", "demarc.limit_requests")
            + d.scenario.counter("B", "demarc.limit_requests")
    };
    let (req_exact, req_all) = (requests(&exact), requests(&all));
    // Granting everything means the *granter* runs out sooner and must
    // come asking; the requester asks less. Net message counts differ —
    // the bench sweeps this; here we only require both runs safe and
    // the counters to be meaningfully populated.
    assert!(req_exact > 0 && req_all > 0);
    assert!(exact.invariant_held() && all.invariant_held());
}

#[test]
fn demarcation_beats_tpc_on_latency_and_messages_for_local_updates() {
    let ops = workload(13, 50);

    // Demarcation run.
    let d = run_demarc(GrantPolicy::Requested, 13, &ops);
    let d_messages = d.scenario.sim.network().total_sent();
    let both = |name| d.scenario.counter("A", name) + d.scenario.counter("B", name);
    let d_ok = both("demarc.local_ok") + both("demarc.granted");

    // 2PC run on the same workload.
    let mut t = tpc::build(13, 0, 400);
    for &(at, lower, delta) in &ops {
        t.try_update(at, lower, delta);
    }
    t.run();
    let m = t.sim.obs().metrics;
    let t_messages = m.counter(Scope::Global, "tpc.messages");
    let t_submitted = m.counter(Scope::Global, "tpc.submitted");

    // Strict consistency commits at most as many updates as the weak
    // protocol satisfies (it aborts on conflicts the demarcation
    // protocol denies too), but pays global coordination for *every*
    // attempt.
    assert!(t_messages as f64 / t_submitted as f64 >= 4.0);
    // Latency: every 2PC commit pays ≥ one prepare/vote round trip +
    // service; demarcation local updates complete in ~1 write.
    let latencies = m.series(Scope::Global, "tpc.latency_ms");
    let avg_tpc = latencies.iter().sum::<i64>() as f64 / latencies.len().max(1) as f64;
    assert!(
        avg_tpc >= 90.0,
        "2PC per-commit latency should include coordination, got {avg_tpc}ms"
    );
    assert!(d_ok > 0);
    // Message economy: demarcation messages per satisfied update are
    // lower than 2PC messages per submitted update.
    let d_rate = d_messages as f64 / d_ok as f64;
    let t_rate = t_messages as f64 / t_submitted as f64;
    assert!(
        d_rate < t_rate,
        "demarcation {d_rate:.2} msg/op should beat 2PC {t_rate:.2} msg/op"
    );
}

#[test]
fn under_site_failure_demarcation_keeps_local_updates_flowing() {
    // Crash Y's database for a long window. Demarcation: X's local
    // updates (within its limit) still succeed. 2PC: everything aborts.
    let mut d = demarcation::build(DemarcConfig {
        seed: 17,
        x0: 0,
        y0: 400,
        line: 200,
        policy: GrantPolicy::Requested,
    });
    d.scenario.crash("B", SimTime::from_secs(1), true);
    for i in 0..10 {
        d.try_update(SimTime::from_secs(10 + i * 10), true, 5); // X: all local
    }
    d.run();
    let local = d.scenario.counter("A", "demarc.local_ok");
    assert_eq!(local, 10, "local updates unaffected by B's crash");
    assert!(d.invariant_held());

    let mut t = tpc::build(17, 0, 400);
    t.sim.crash_at(t.py, SimTime::from_secs(1), true);
    for i in 0..10 {
        t.try_update(SimTime::from_secs(10 + i * 10), true, 5);
    }
    t.run();
    let m = t.sim.obs().metrics;
    let committed = m.counter(Scope::Global, "tpc.committed");
    assert_eq!(committed, 0, "2PC commits nothing while Y is down");
    assert_eq!(m.counter(Scope::Global, "tpc.aborted_unavailable"), 10);
}

/// §6.1's responsiveness guarantee, formalized: "if there is enough
/// slack at one site, then a change-limit request at the other site
/// must be granted within some time." The limit-change negotiation is
/// recorded as custom events, so this is checkable on the trace.
#[test]
fn limit_requests_with_slack_are_granted_within_bound() {
    let ops = workload(31, 80);
    let d = run_demarc(GrantPolicy::Requested, 31, &ops);
    assert!(d.invariant_held());
    let trace = d.scenario.trace();

    let mut reqs_with_slack = 0;
    for e in trace.events() {
        let hcm::core::EventDesc::Custom { name, args } = &e.desc else {
            continue;
        };
        if name != "LimitReqRecv" {
            continue;
        }
        let need = args[0].as_int().unwrap();
        let avail = args[1].as_int().unwrap();
        if avail < need {
            continue; // not enough slack: denial is legitimate
        }
        reqs_with_slack += 1;
        // A grant at the same site must follow within the bound (one
        // local write + message processing ≪ 1s).
        let granted = trace.events().iter().any(|g| {
            g.site == e.site
                && g.time >= e.time
                && g.time <= e.time + hcm::core::SimDuration::from_secs(1)
                && matches!(&g.desc, hcm::core::EventDesc::Custom { name, .. }
                    if name == "LimitGranted")
        });
        assert!(granted, "request with slack at {} not granted", e.time);
    }
    assert!(
        reqs_with_slack > 0,
        "workload produced no grantable limit requests"
    );
}
