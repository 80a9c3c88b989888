//! E1 bench — update propagation (§4.2): end-to-end latency series and
//! the observability snapshot.

use hcm_bench::scenarios;
use hcm_core::{SimDuration, SimTime};

/// Print the E1 series: per-update propagation latency (Ws → W)
/// distribution for the notify+write deployment.
fn main() {
    let mut sc =
        scenarios::salary_scenario(1, 10, SimDuration::from_secs(20), SimTime::from_secs(4000));
    sc.run_to_quiescence();
    let trace = sc.trace();
    let mut latencies: Vec<u64> = Vec::new();
    for e in trace.events() {
        if e.desc.tag() != "W" {
            continue;
        }
        // Walk the provenance chain W → WR → N → Ws.
        let mut cur = e.trigger;
        let mut origin = None;
        while let Some(id) = cur {
            let t = trace.get(id).expect("trigger exists");
            origin = Some(t.time);
            cur = t.trigger;
        }
        if let Some(start) = origin {
            latencies.push((e.time - start).as_millis());
        }
    }
    latencies.sort_unstable();
    let pct = |p: usize| latencies[latencies.len() * p / 100];
    eprintln!("\n[E1] update propagation, notify(2s) + strategy(5s) + write(1s):");
    eprintln!("  updates propagated : {}", latencies.len());
    eprintln!("  latency p50        : {} ms", pct(50));
    eprintln!("  latency p95        : {} ms", pct(95));
    eprintln!(
        "  latency max        : {} ms (bound: 8000 ms)",
        latencies.last().unwrap()
    );
    assert!(*latencies.last().unwrap() < 8_000);
    eprintln!("\n[E1] observability snapshot (hcm-obs registry):");
    for line in sc.metrics_table().lines() {
        eprintln!("  {line}");
    }
}
