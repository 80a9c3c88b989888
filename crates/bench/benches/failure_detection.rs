//! E7 bench — failure detection (§5): detection latency vs the
//! configured deadline.

use hcm_core::{EventDesc, SimDuration, SimTime, Value};
use hcm_toolkit::backends::RawStore;
use hcm_toolkit::shell::FailureConfig;
use hcm_toolkit::{Scenario, ScenarioBuilder, SpontaneousOp};

fn scenario_with_deadline(seed: u64, deadline_ms: u64) -> Scenario {
    let mut sc = ScenarioBuilder::new(seed)
        .site(
            "A",
            RawStore::Relational(hcm_bench::scenarios::employees(1)),
            hcm_bench::scenarios::RID_SRC,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(hcm_bench::scenarios::employees(1)),
            hcm_bench::scenarios::RID_DST,
        )
        .unwrap()
        .strategy(hcm_bench::scenarios::PROPAGATE)
        .failure_config(FailureConfig {
            deadline: SimDuration::from_millis(deadline_ms),
            escalation: SimDuration::from_secs(60),
            heartbeat: None,
        })
        .build()
        .unwrap();
    sc.overload(
        "B",
        SimTime::from_secs(5),
        SimTime::from_secs(500),
        SimDuration::from_secs(120),
    );
    sc.inject(
        SimTime::from_secs(10),
        "A",
        SpontaneousOp::Sql("update employees set salary = 1 where empid = 'e0'".into()),
    );
    sc
}

fn detection_latency(sc: &Scenario) -> Option<SimDuration> {
    let trace = sc.trace();
    let n = trace.events().iter().find(|e| e.desc.tag() == "N")?;
    let d = trace.events().iter().find(|e| {
        matches!(&e.desc, EventDesc::Custom { name, args }
            if name == "FailureDetected" && args.get(1) == Some(&Value::from("metric")))
    })?;
    Some(d.time.saturating_since(n.time))
}

fn main() {
    eprintln!("\n[E7] metric-failure detection latency vs deadline (overloaded DB):");
    eprintln!("  {:<16} {:>18}", "deadline (ms)", "detected after (ms)");
    for deadline in [1_000u64, 5_000, 15_000] {
        let mut sc = scenario_with_deadline(3, deadline);
        sc.run_until(SimTime::from_secs(400));
        let lat = detection_latency(&sc).expect("failure detected");
        eprintln!("  {:<16} {:>18}", deadline, lat.as_millis());
        assert!(lat.as_millis() >= deadline && lat.as_millis() <= deadline + 300);
    }
    eprintln!("  shape: detection tracks the deadline — the paper's point that the");
    eprintln!("  toolkit makes timeout constants explicit as metric guarantees (§5).");
}
