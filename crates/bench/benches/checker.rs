//! E10 bench — validity checker and guarantee evaluator costs as the
//! trace grows and on the wide rule base of expbench's `engine_wide`
//! workload, and the §4.2 salary pair as the employee count grows.

use hcm::harness::rule_set_of;
use hcm_bench::scenarios;
use hcm_checker::{check_validity, guarantee::check_guarantee, RuleSet};
use hcm_core::{SimDuration, SimTime};
use hcm_rulelang::parse_guarantee;

fn trace_of_size(updates: u64) -> (hcm_core::Trace, RuleSet) {
    let horizon = updates * 10;
    let mut sc = scenarios::salary_scenario(
        3,
        8,
        SimDuration::from_secs(10),
        SimTime::from_secs(horizon),
    );
    sc.run_to_quiescence();
    (sc.trace(), rule_set_of(&sc))
}

/// Validity-check `trace` once (building its state index), then fill
/// the guarantee column, and print the row of the validity series.
fn validity_row(
    label: &str,
    trace: &hcm_core::Trace,
    rules: &RuleSet,
    guarantee: impl FnOnce() -> String,
) {
    let t0 = std::time::Instant::now();
    let rep = check_validity(trace, rules);
    let validity = t0.elapsed();
    assert!(rep.is_valid(), "{label}: {:?}", rep.violations);
    let guarantee = guarantee();
    eprintln!(
        "  {:<12} {:>8} {:>14.2} {:>10.0} {:>16}",
        label,
        trace.len(),
        validity.as_secs_f64() * 1000.0,
        validity.as_nanos() as f64 / trace.len() as f64,
        guarantee
    );
}

fn main() {
    eprintln!("\n[E10] checker cost vs trace size:");
    eprintln!(
        "  {:<12} {:>8} {:>14} {:>10} {:>16}",
        "trace", "events", "validity (ms)", "ns/event", "guarantee (ms)"
    );
    let follows = parse_guarantee(
        "follows",
        "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1",
    )
    .unwrap();
    for updates in [25u64, 50, 100] {
        let (trace, rules) = trace_of_size(updates);
        validity_row(&format!("salary {updates}"), &trace, &rules, || {
            let t1 = std::time::Instant::now();
            let g = check_guarantee(&trace, &follows, None);
            let guarantee_ms = t1.elapsed().as_secs_f64() * 1000.0;
            assert!(g.holds);
            format!("{guarantee_ms:.1}")
        });
    }
    // The wide rule base of expbench's `engine_wide` workload: 16 KV
    // sites × 64 rules, Poisson writes with a 1 s mean gap for 128 s at
    // each site, about 12,288 events. It declares no guarantee.
    let mut sc = scenarios::engine_scenario(
        1,
        16,
        64,
        SimDuration::from_secs(1),
        SimTime::from_secs(128),
    );
    sc.run_to_quiescence();
    validity_row("wide 16x64", &sc.trace(), &rule_set_of(&sc), || "-".into());

    // The §4.2 salary pair at scale: Poisson updates with a 1 s mean
    // gap over `employees` employees until `until_s`, judged by
    // `follows` and `follows_metric`. At a fixed length the event count
    // stays the same; each employee's LHS still quantifies over the
    // per-base grid, so instantiations grow with the employee count.
    // The cells add 4× the length at 8 and 64 employees, and 32 and 64
    // employees at 640 s: the pair's cost should grow with the
    // instantiations, not with their square.
    eprintln!("\n[E10] salary pair vs employees and length:");
    eprintln!(
        "  {:<10} {:>9} {:>8} {:>18} {:>12} {:>9}",
        "employees", "until (s)", "events", "instantiations", "pair (ms)", "ns/inst"
    );
    let metric = parse_guarantee(
        "follows_metric",
        "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 10s < t2 and t2 <= t1",
    )
    .unwrap();
    for (employees, until_s) in [(8, 640), (32, 640), (8, 2560), (64, 640), (64, 2560)] {
        let mut sc = scenarios::salary_scenario(
            7,
            employees,
            SimDuration::from_secs(1),
            SimTime::from_secs(until_s),
        );
        sc.run_to_quiescence();
        let trace = sc.trace();
        // Keep the fastest of three runs, so that a busy host's stalls
        // do not set the figure.
        let (pair, reports) = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let reports = [&follows, &metric].map(|g| check_guarantee(&trace, g, None));
                (t0.elapsed(), reports)
            })
            .min_by_key(|(pair, _)| *pair)
            .expect("at least one run");
        for r in &reports {
            assert!(
                r.holds,
                "{} at {employees} employees until {until_s} s: {:?}",
                r.name, r.violations
            );
        }
        let instantiations = reports[0].instantiations + reports[1].instantiations;
        eprintln!(
            "  {:<10} {:>9} {:>8} {:>18} {:>12.1} {:>9.0}",
            employees,
            until_s,
            trace.len(),
            format!(
                "{} + {}",
                reports[0].instantiations, reports[1].instantiations
            ),
            pair.as_secs_f64() * 1000.0,
            pair.as_nanos() as f64 / instantiations as f64
        );
    }
}
