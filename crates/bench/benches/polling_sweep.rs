//! E2 bench — the polling strategy (§4.2.3): miss-rate and staleness
//! sweep over poll period × update rate.
//!
//! Paper claim reproduced as a series: guarantee (2) "X leads Y" fails
//! exactly when updates outpace the polling interval; guarantees (1),
//! (3), (4) survive at every point of the sweep.

use hcm_bench::{harness, sweep};
use hcm_core::{ItemId, SimDuration, SimTime, Value};
use hcm_toolkit::backends::RawStore;
use hcm_toolkit::{Scenario, ScenarioBuilder, SpontaneousOp};

const RID_SRC_READONLY: &str = r#"
ris = relational
service = 200ms
[interface]
RR(salary1(n)) when salary1(n) = b -> R(salary1(n), b) within 1s
[command read salary1]
select salary from employees where empid = $p0
[map salary1]
table = employees
key = empid
col = salary
"#;

fn polling_scenario(seed: u64, poll_secs: u64, update_gap: u64, horizon: u64) -> Scenario {
    let strategy = format!(
        "[locate]\nsalary1 = A\nsalary2 = B\n[strategy]\n\
         P({poll_secs}s) -> RR(salary1(\"e0\")) within 1s\n\
         R(salary1(n), b) -> WR(salary2(n), b) within 5s\n"
    );
    let mut sc = ScenarioBuilder::new(seed)
        .site(
            "A",
            RawStore::Relational(hcm_bench::scenarios::employees(1)),
            RID_SRC_READONLY,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(hcm_bench::scenarios::employees(1)),
            hcm_bench::scenarios::RID_DST,
        )
        .unwrap()
        .strategy(&strategy)
        .stop_periodics_at(SimTime::from_secs(horizon))
        .build()
        .unwrap();
    let mut t = 13;
    let mut v = 1;
    while t < horizon - poll_secs {
        sc.inject(
            SimTime::from_secs(t),
            "A",
            SpontaneousOp::Sql(format!(
                "update employees set salary = {v} where empid = 'e0'"
            )),
        );
        t += update_gap;
        v += 1;
    }
    sc
}

fn miss_rate(sc: &Scenario) -> f64 {
    let trace = sc.trace();
    let x = trace
        .timeline(&ItemId::with("salary1", [Value::from("e0")]))
        .values_taken();
    let y = trace
        .timeline(&ItemId::with("salary2", [Value::from("e0")]))
        .values_taken();
    let missed = x.iter().filter(|v| !y.contains(v)).count();
    missed as f64 / x.len() as f64
}

fn main() {
    // Each cell builds, runs, and measures its own scenario — a pure
    // function of the key — so the parallel sweep prints the same
    // bytes a serial one would (merge is in key order).
    let gaps: &[u64] = if harness::quick() {
        &[60, 15]
    } else {
        &[120, 60, 30, 15, 5]
    };
    let misses = sweep::run(gaps, |&gap| {
        let mut sc = polling_scenario(3, 60, gap, 2400);
        sc.run_to_quiescence();
        miss_rate(&sc)
    });
    eprintln!("\n[E2] polling miss-rate sweep (poll period 60s):");
    eprintln!(
        "  {:<22} {:>10} {:>18}",
        "update gap (s)", "miss rate", "guarantee (2)"
    );
    for (gap, m) in gaps.iter().zip(&misses) {
        eprintln!(
            "  {:<22} {:>9.2}% {:>18}",
            gap,
            m * 100.0,
            if *m == 0.0 { "holds" } else { "VIOLATED" }
        );
    }
    eprintln!("  crossover: miss rate leaves ~0 once the gap drops below the period.");

    let periods: &[u64] = if harness::quick() {
        &[60, 120]
    } else {
        &[30, 60, 120, 300]
    };
    let worsts = sweep::run(periods, |&period| {
        let mut sc = polling_scenario(5, period, 10 * period, 8 * period);
        sc.run_to_quiescence();
        let trace = sc.trace();
        // Worst-case observed staleness: time from a Ws on salary1 to
        // the W that lands that value on salary2.
        let mut worst = SimDuration::ZERO;
        for e in trace.events() {
            let hcm_core::EventDesc::Ws { new, .. } = &e.desc else {
                continue;
            };
            if let Some(w) = trace.events().iter().find(|w| {
                matches!(&w.desc, hcm_core::EventDesc::W { item, value }
                    if item.base == "salary2" && value == new)
            }) {
                let lag = w.time.saturating_since(e.time);
                if lag > worst {
                    worst = lag;
                }
            }
        }
        worst
    });
    eprintln!("\n[E2] staleness vs poll period (one update mid-interval):");
    eprintln!("  {:<22} {:>16}", "poll period (s)", "staleness κ (s)");
    for (period, worst) in periods.iter().zip(&worsts) {
        eprintln!(
            "  {:<22} {:>16.1}",
            period,
            worst.as_millis() as f64 / 1000.0
        );
    }
    eprintln!("  shape: staleness grows linearly with the poll period (κ ≈ period + bounds).");
}
