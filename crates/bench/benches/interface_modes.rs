//! E8/E9 bench — traffic economy of the interface and strategy menu:
//! conditional notify suppression, cached propagation, periodic notify
//! cost.

use hcm_core::{ItemId, SimTime, Value};
use hcm_toolkit::backends::RawStore;
use hcm_toolkit::{Scenario, ScenarioBuilder, SpontaneousOp};

const RID_COND_TMPL: &str = r#"
ris = relational
service = 200ms
[interface]
Ws(salary1(n), a, b) when abs(b - a) > FRAC * a -> N(salary1(n), b) within 2s
RR(salary1(n)) when salary1(n) = b -> R(salary1(n), b) within 1s
[command read salary1]
select salary from employees where empid = $p0
[map salary1]
table = employees
key = empid
col = salary
"#;

const RID_PLAIN: &str = r#"
ris = relational
service = 200ms
[interface]
Ws(salary1(n), b) -> N(salary1(n), b) within 2s
RR(salary1(n)) when salary1(n) = b -> R(salary1(n), b) within 1s
[command read salary1]
select salary from employees where empid = $p0
[map salary1]
table = employees
key = empid
col = salary
"#;

/// Random-walk workload: mostly small (±1–3 %) moves, occasional jumps.
fn run_with_rid(rid_src: &str, seed: u64) -> Scenario {
    let mut sc = ScenarioBuilder::new(seed)
        .site(
            "A",
            RawStore::Relational(hcm_bench::scenarios::employees(1)),
            rid_src,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(hcm_bench::scenarios::employees(1)),
            hcm_bench::scenarios::RID_DST,
        )
        .unwrap()
        .strategy(hcm_bench::scenarios::PROPAGATE)
        .build()
        .unwrap();
    let mut rng = hcm_simkit::SimRng::seeded(seed * 11);
    let mut v: i64 = 100_000;
    for i in 0..60u64 {
        let frac = if rng.chance(0.15) {
            rng.int_in(15, 40)
        } else {
            rng.int_in(1, 8)
        };
        let sign = if rng.chance(0.5) { 1 } else { -1 };
        v = (v + sign * v * frac / 100).max(10_000);
        sc.inject(
            SimTime::from_secs(10 + i * 10),
            "A",
            SpontaneousOp::Sql(format!(
                "update employees set salary = {v} where empid = 'e0'"
            )),
        );
    }
    sc.run_to_quiescence();
    sc
}

fn main() {
    eprintln!("\n[E9] conditional-notify suppression vs threshold (60 random-walk updates):");
    eprintln!(
        "  {:<12} {:>14} {:>12} {:>22}",
        "threshold", "notifications", "suppressed", "max mirror error (%)"
    );
    for frac in ["0.0", "0.05", "0.1", "0.25"] {
        let rid = RID_COND_TMPL.replace("FRAC", frac);
        let sc = run_with_rid(&rid, 5);
        let notifications = sc.counter("A", "translator.notifications");
        let suppressed = sc.counter("A", "translator.suppressed");
        // Mirror error: worst *settled* relative gap — measured just
        // before each source change, i.e. after the previous change's
        // propagation (if any) completed. Mid-flight transients are a
        // property of every strategy and are excluded.
        let trace = sc.trace();
        let x = ItemId::with("salary1", [Value::from("e0")]);
        let y = ItemId::with("salary2", [Value::from("e0")]);
        let mut worst: f64 = 0.0;
        let change_times: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.desc.tag() == "Ws")
            .map(|e| e.time)
            .collect();
        let mut probes: Vec<_> = change_times
            .iter()
            .skip(1)
            .map(|t| t.saturating_sub(hcm_core::SimDuration::from_millis(1)))
            .collect();
        probes.push(trace.end_time());
        for t in probes {
            let (Some(xv), Some(yv)) = (
                trace.value_at(&x, t).and_then(|v| v.as_f64()),
                trace.value_at(&y, t).and_then(|v| v.as_f64()),
            ) else {
                continue;
            };
            if xv != 0.0 {
                worst = worst.max(((xv - yv).abs() / xv.abs()) * 100.0);
            }
        }
        eprintln!(
            "  {:<12} {:>14} {:>12} {:>22.1}",
            frac, notifications, suppressed, worst
        );
    }
    eprintln!("  shape: higher thresholds trade traffic for a bounded mirror error.");

    // Plain interface baseline.
    let plain = run_with_rid(RID_PLAIN, 5);
    eprintln!(
        "  plain notify interface: {} notifications, 0 suppressed",
        plain.counter("A", "translator.notifications")
    );
}
