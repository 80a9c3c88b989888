//! Budget control with the Demarcation Protocol (§6.1).
//!
//! ```text
//! cargo run --example budget_demarcation
//! ```
//!
//! The paper's intro scenario, quantified: a construction company's
//! *spending* `X` lives in its own database; the *budget* `Y` lives in
//! the owner's. The inter-site constraint `X ≤ Y` must hold **always**,
//! but the two databases share no transactions. The Demarcation
//! Protocol splits the constraint into local CHECK constraints around a
//! negotiated limit, so everyday spending is a purely local write.
//!
//! The example runs the same workload under the three slack policies
//! and under the 2PC baseline, printing the trade-offs.

use hcm::core::{SimDuration, SimTime};
use hcm::obs::Scope;
use hcm::protocols::demarcation::{self, DemarcConfig, GrantPolicy};
use hcm::protocols::tpc;
use hcm::simkit::SimRng;

fn workload(seed: u64, n: usize) -> Vec<(SimTime, bool, i64)> {
    let mut rng = SimRng::seeded(seed);
    let mut t = SimTime::from_secs(5);
    (0..n)
        .map(|_| {
            t += SimDuration::from_secs(rng.int_in(10, 60) as u64);
            // 70% spending increases, 30% budget cuts.
            (t, rng.chance(0.7), rng.int_in(1, 20))
        })
        .collect()
}

fn main() {
    let ops = workload(2024, 120);
    println!(
        "workload: {} updates (spend increases + budget cuts)\n",
        ops.len()
    );
    println!(
        "{:<14} {:>6} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "policy", "ok", "local", "granted", "denied", "limit-reqs", "messages"
    );

    for policy in [
        GrantPolicy::Requested,
        GrantPolicy::HalfAvailable,
        GrantPolicy::All,
    ] {
        let mut d = demarcation::build(DemarcConfig {
            seed: 1,
            x0: 0,
            y0: 1200,
            line: 600,
            policy,
        });
        for &(t, lower, delta) in &ops {
            d.try_update(t, lower, delta);
        }
        d.run();
        assert!(d.invariant_held(), "X ≤ Y must always hold");
        let both = |name| d.scenario.counter("A", name) + d.scenario.counter("B", name);
        let (local, granted) = (both("demarc.local_ok"), both("demarc.granted"));
        println!(
            "{:<14} {:>6} {:>8} {:>8} {:>8} {:>10} {:>10}",
            format!("{policy:?}"),
            local + granted,
            local,
            granted,
            both("demarc.denied"),
            both("demarc.limit_requests"),
            d.scenario.sim.network().total_sent(),
        );
    }

    // Baseline: the facility the paper's environment lacks.
    let mut t2 = tpc::build(1, 0, 1200);
    for &(t, lower, delta) in &ops {
        t2.try_update(t, lower, delta);
    }
    t2.run();
    let m = t2.sim.obs().metrics;
    let tpc = |name| m.counter(Scope::Global, name);
    let latencies = m.series(Scope::Global, "tpc.latency_ms");
    let avg_latency = latencies.iter().sum::<i64>() as f64 / latencies.len().max(1) as f64;
    println!(
        "{:<14} {:>6} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "2PC baseline",
        tpc("tpc.committed"),
        0,
        tpc("tpc.committed"),
        tpc("tpc.aborted_constraint") + tpc("tpc.aborted_unavailable"),
        "-",
        tpc("tpc.messages"),
    );
    println!("\n2PC mean commit latency: {avg_latency:.0} ms (every update pays coordination)");
    println!("Demarcation local updates complete in one local write (~52 ms).");

    // Availability under failure.
    println!("\n── With the budget database down for the whole run ───────────");
    let mut d = demarcation::build(DemarcConfig {
        seed: 9,
        x0: 0,
        y0: 1200,
        line: 600,
        policy: GrantPolicy::Requested,
    });
    d.scenario.crash("B", SimTime::from_secs(1), true);
    for &(t, lower, delta) in ops.iter().filter(|(_, lower, _)| *lower) {
        d.try_update(t, lower, delta);
    }
    d.run();
    println!(
        "  demarcation: {} of {} spend updates still succeeded locally",
        d.scenario.counter("A", "demarc.local_ok"),
        d.scenario.counter("A", "demarc.attempts")
    );

    let mut t3 = tpc::build(9, 0, 1200);
    t3.sim.crash_at(t3.py, SimTime::from_secs(1), true);
    for &(t, lower, delta) in ops.iter().filter(|(_, lower, _)| *lower) {
        t3.try_update(t, lower, delta);
    }
    t3.run();
    println!(
        "  2PC:         {} of {} committed (blocked on the dead site)",
        t3.sim.obs().metrics.counter(Scope::Global, "tpc.committed"),
        t3.sim.obs().metrics.counter(Scope::Global, "tpc.submitted")
    );
}
