//! The experiment series of `EXPERIMENTS.md` (E1, E2, E3, E7, E9) as
//! pinned reports. Each test runs its experiment's scenarios, asserts
//! the claim the series backs, renders the series table and compares it
//! with `tests/expected/<test>.txt`. Every figure is a function of the
//! seeds and the simulated clock, so any change to a number fails the
//! test, and the failure message prints the new text.

use std::fmt::Write as _;

/// Append one line to a series' text.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String")
    };
}

use hcm_bench::scenarios::{self, employees, PROPAGATE, RID_DST, RID_SRC};
use hcm_core::{EventDesc, ItemId, SimDuration, SimTime, Value};
use hcm_obs::Scope;
use hcm_protocols::demarcation::{self, DemarcConfig, GrantPolicy};
use hcm_protocols::tpc;
use hcm_simkit::SimRng;
use hcm_toolkit::backends::RawStore;
use hcm_toolkit::shell::FailureConfig;
use hcm_toolkit::{Scenario, ScenarioBuilder, SpontaneousOp};

/// Compare a rendered series with its committed copy.
fn assert_pinned(name: &str, expected: &str, text: &str) {
    assert_eq!(
        text, expected,
        "the {name} series differs from tests/expected/{name}.txt; new text:\n{text}"
    );
}

/// E1 (§4.2): per-update propagation latency (Ws → W) of the
/// notify + write deployment, and its metrics snapshot.
#[test]
fn e1_propagation() {
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
    let max = *latencies.last().unwrap();
    assert!(max < 8_000);
    let mut out = String::new();
    say!(
        out,
        "\n[E1] update propagation, notify(2s) + strategy(5s) + write(1s):"
    );
    say!(out, "  updates propagated : {}", latencies.len());
    say!(out, "  latency p50        : {} ms", pct(50));
    say!(out, "  latency p95        : {} ms", pct(95));
    say!(out, "  latency max        : {max} ms (bound: 8000 ms)");
    say!(out, "\n[E1] observability snapshot (hcm-obs registry):");
    for line in sc.metrics_table().lines() {
        say!(out, "  {line}");
    }
    assert_pinned(
        "e1_propagation",
        include_str!("expected/e1_propagation.txt"),
        &out,
    );
}

/// CM-RID of a source site that offers only a read interface.
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

/// The §4.2.3 polling deployment: poll `salary1("e0")` every
/// `poll_secs`, with an update every `update_gap` seconds from 13 s on.
fn polling_scenario(seed: u64, poll_secs: u64, update_gap: u64, horizon: u64) -> Scenario {
    let strategy = format!(
        "[locate]\nsalary1 = A\nsalary2 = B\n[strategy]\n\
         P({poll_secs}s) -> RR(salary1(\"e0\")) within 1s\n\
         R(salary1(n), b) -> WR(salary2(n), b) within 5s\n"
    );
    let mut sc = ScenarioBuilder::new(seed)
        .site("A", RawStore::Relational(employees(1)), RID_SRC_READONLY)
        .unwrap()
        .site("B", RawStore::Relational(employees(1)), RID_DST)
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

/// The share of `salary1("e0")`'s values that `salary2("e0")` never
/// took.
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

/// E2 (§4.2.3): polling misses updates once they outpace the poll
/// period, and its staleness grows with the period.
#[test]
fn e2_polling_sweep() {
    let mut out = String::new();
    let gaps = [120, 60, 30, 15, 5];
    let period = 60;
    say!(
        out,
        "\n[E2] polling miss-rate sweep (poll period {period}s):"
    );
    say!(
        out,
        "  {:<22} {:>10} {:>18}",
        "update gap (s)",
        "miss rate",
        "guarantee (2)"
    );
    for gap in gaps {
        let mut sc = polling_scenario(3, period, gap, 2400);
        sc.run_to_quiescence();
        let m = miss_rate(&sc);
        say!(
            out,
            "  {:<22} {:>9.2}% {:>18}",
            gap,
            m * 100.0,
            if m == 0.0 { "holds" } else { "VIOLATED" }
        );
    }
    say!(
        out,
        "  crossover: miss rate leaves ~0 once the gap drops below the period."
    );

    say!(
        out,
        "\n[E2] staleness vs poll period (one update mid-interval):"
    );
    say!(out, "  {:<22} {:>16}", "poll period (s)", "staleness κ (s)");
    for period in [30, 60, 120, 300] {
        let mut sc = polling_scenario(5, period, 10 * period, 8 * period);
        sc.run_to_quiescence();
        let trace = sc.trace();
        // Worst-case observed staleness: time from a Ws on salary1 to
        // the W that lands that value on salary2.
        let mut worst = SimDuration::ZERO;
        for e in trace.events() {
            let EventDesc::Ws { new, .. } = &e.desc else {
                continue;
            };
            if let Some(w) = trace.events().iter().find(|w| {
                matches!(&w.desc, EventDesc::W { item, value }
                    if item.base == "salary2" && value == new)
            }) {
                worst = worst.max(w.time.saturating_since(e.time));
            }
        }
        say!(
            out,
            "  {:<22} {:>16.1}",
            period,
            worst.as_millis() as f64 / 1000.0
        );
    }
    say!(
        out,
        "  shape: staleness grows linearly with the poll period (κ ≈ period + bounds)."
    );
    assert_pinned(
        "e2_polling_sweep",
        include_str!("expected/e2_polling_sweep.txt"),
        &out,
    );
}

/// `n` update attempts, 5–40 s apart: each lower-side (`X += δ`) with
/// probability `p_lower`, else upper-side (`Y −= δ`), δ in 1–15.
fn demarc_workload(seed: u64, n: usize, p_lower: f64) -> Vec<(SimTime, bool, i64)> {
    let mut rng = SimRng::seeded(seed);
    let mut t = SimTime::from_secs(5);
    (0..n)
        .map(|_| {
            t += SimDuration::from_secs(rng.int_in(5, 40) as u64);
            (t, rng.chance(p_lower), rng.int_in(1, 15))
        })
        .collect()
}

/// Render one demarcation series table: every grant policy, then the
/// 2PC baseline, over `ops`.
fn demarc_table(out: &mut String, ops: &[(SimTime, bool, i64)]) {
    say!(
        out,
        "  {:<15} {:>6} {:>8} {:>10} {:>10} {:>12}",
        "scheme",
        "ok",
        "denied",
        "limit-reqs",
        "messages",
        "msg/ok-op"
    );
    let mut over_grants = Vec::new();
    for policy in [
        GrantPolicy::Requested,
        GrantPolicy::HalfAvailable,
        GrantPolicy::All,
    ] {
        let mut d = demarcation::build(DemarcConfig {
            seed: 1,
            x0: 0,
            y0: 1000,
            line: 500,
            policy,
        });
        for &(t, lower, delta) in ops {
            d.try_update(t, lower, delta);
        }
        d.run();
        assert!(d.invariant_held());
        let both = |name| d.scenario.counter("A", name) + d.scenario.counter("B", name);
        let ok = both("demarc.local_ok") + both("demarc.granted");
        assert_eq!(ok + both("demarc.denied"), ops.len() as u64);
        let msgs = d.scenario.sim.network().total_sent();
        over_grants.push((policy, grants_above_need(&d.scenario.trace())));
        say!(
            out,
            "  {:<15} {:>6} {:>8} {:>10} {:>10} {:>12.2}",
            format!("{policy:?}"),
            ok,
            both("demarc.denied"),
            both("demarc.limit_requests"),
            msgs,
            msgs as f64 / ok as f64
        );
    }
    let mut t = tpc::build(1, 0, 1000);
    for &(at, lower, delta) in ops {
        t.try_update(at, lower, delta);
    }
    t.run();
    let tpc = |name| t.sim.obs().metrics.counter(Scope::Global, name);
    let (committed, messages) = (tpc("tpc.committed"), tpc("tpc.messages"));
    say!(
        out,
        "  {:<15} {:>6} {:>8} {:>10} {:>10} {:>12.2}",
        "2PC",
        committed,
        tpc("tpc.aborted_constraint") + tpc("tpc.aborted_unavailable"),
        "-",
        messages,
        messages as f64 / committed.max(1) as f64
    );
    let latencies = t.sim.obs().metrics.series(Scope::Global, "tpc.latency_ms");
    let avg = latencies.iter().sum::<i64>() as f64 / latencies.len().max(1) as f64;
    say!(
        out,
        "  2PC mean commit latency: {avg:.0} ms; demarcation local update: ~52 ms"
    );
    let over: Vec<String> = (over_grants.iter())
        .map(|(policy, (above, grants))| format!("{policy:?} {above}/{grants}"))
        .collect();
    say!(out, "  grants above the need: {}", over.join(", "));
}

/// How many limit grants in `trace` gave more slack than the request
/// asked for, and how many grants there were. An agent records each
/// `LimitReqRecv(need, avail)` just before its answer.
fn grants_above_need(trace: &hcm_core::Trace) -> (usize, usize) {
    let (mut need, mut above, mut grants) = (0, 0, 0);
    for e in trace.events() {
        match &e.desc {
            EventDesc::Custom { name, args } if name == "LimitReqRecv" => {
                need = args[0].as_int().expect("an integer need");
            }
            EventDesc::Custom { name, args } if name == "LimitGranted" => {
                grants += 1;
                above += usize::from(args[0].as_int().expect("an integer grant") > need);
            }
            _ => {}
        }
    }
    (above, grants)
}

/// E3 (§6.1): the grant policies and the 2PC baseline over 150 mixed
/// updates, with both sides equally likely and with nine in ten on the
/// lower side.
#[test]
fn e3_demarcation() {
    let mut out = String::new();
    let ops = demarc_workload(2024, 150, 0.5);
    say!(
        out,
        "\n[E3] demarcation policies vs 2PC baseline ({} mixed updates):",
        ops.len()
    );
    demarc_table(&mut out, &ops);
    say!(
        out,
        "  shape: weak consistency wins msg/op and latency; both deny saturated updates."
    );
    let skewed = demarc_workload(2024, 150, 0.9);
    say!(
        out,
        "\n[E3] the same, nine in ten updates on the lower side ({} updates):",
        skewed.len()
    );
    demarc_table(&mut out, &skewed);
    say!(
        out,
        "  shape: skew separates the policies' limit-request traffic; denials do not move."
    );
    assert_pinned(
        "e3_demarcation",
        include_str!("expected/e3_demarcation.txt"),
        &out,
    );
}

/// The §4.2 pair with a `deadline_ms` request deadline, B overloaded
/// from 5 s to 500 s, and one update at A at 10 s.
fn overloaded_scenario(seed: u64, deadline_ms: u64) -> Scenario {
    let mut sc = ScenarioBuilder::new(seed)
        .site("A", RawStore::Relational(employees(1)), RID_SRC)
        .unwrap()
        .site("B", RawStore::Relational(employees(1)), RID_DST)
        .unwrap()
        .strategy(PROPAGATE)
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

/// Time from the first notification to the metric-failure detection.
fn detection_latency(sc: &Scenario) -> Option<SimDuration> {
    let trace = sc.trace();
    let n = trace.events().iter().find(|e| e.desc.tag() == "N")?;
    let d = trace.events().iter().find(|e| {
        matches!(&e.desc, EventDesc::Custom { name, args }
            if name == "FailureDetected" && args.get(1) == Some(&Value::from("metric")))
    })?;
    Some(d.time.saturating_since(n.time))
}

/// E7 (§5): metric-failure detection latency tracks the configured
/// request deadline.
#[test]
fn e7_failure_detection() {
    let mut out = String::new();
    say!(
        out,
        "\n[E7] metric-failure detection latency vs deadline (overloaded DB):"
    );
    say!(
        out,
        "  {:<16} {:>18}",
        "deadline (ms)",
        "detected after (ms)"
    );
    for deadline in [1_000u64, 5_000, 15_000] {
        let mut sc = overloaded_scenario(3, deadline);
        sc.run_until(SimTime::from_secs(400));
        let lat = detection_latency(&sc).expect("failure detected");
        say!(out, "  {:<16} {:>18}", deadline, lat.as_millis());
        assert!(lat.as_millis() >= deadline && lat.as_millis() <= deadline + 300);
    }
    say!(
        out,
        "  shape: detection tracks the deadline — the paper's point that the"
    );
    say!(
        out,
        "  toolkit makes timeout constants explicit as metric guarantees (§5)."
    );
    assert_pinned(
        "e7_failure_detection",
        include_str!("expected/e7_failure_detection.txt"),
        &out,
    );
}

/// CM-RID of a source site that notifies a change only when it moves
/// the value by more than `FRAC` of the previous value.
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

/// The §4.2 pair with source CM-RID `rid_src` under a random walk of 60
/// updates: mostly small (±1–8 %) moves, occasional 15–40 % jumps.
fn run_with_rid(rid_src: &str, seed: u64) -> Scenario {
    let mut sc = ScenarioBuilder::new(seed)
        .site("A", RawStore::Relational(employees(1)), rid_src)
        .unwrap()
        .site("B", RawStore::Relational(employees(1)), RID_DST)
        .unwrap()
        .strategy(PROPAGATE)
        .build()
        .unwrap();
    let mut rng = SimRng::seeded(seed * 11);
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

/// Worst settled relative gap between `salary1("e0")` and its mirror,
/// in percent, with the source and mirror values where it occurs:
/// measured just before each source change, i.e. after the previous
/// change's propagation (if any) completed, and at the end. Mid-flight
/// transients are a property of every strategy and are excluded.
fn max_settled_error(sc: &Scenario) -> (f64, f64, f64) {
    let trace = sc.trace();
    let x = ItemId::with("salary1", [Value::from("e0")]);
    let y = ItemId::with("salary2", [Value::from("e0")]);
    let mut probes: Vec<_> = (trace.events().iter())
        .filter(|e| e.desc.tag() == "Ws")
        .skip(1)
        .map(|e| e.time.saturating_sub(SimDuration::from_millis(1)))
        .collect();
    probes.push(trace.end_time());
    let mut worst = (0.0, 0.0, 0.0);
    for t in probes {
        let (Some(xv), Some(yv)) = (
            trace.value_at(&x, t).and_then(|v| v.as_f64()),
            trace.value_at(&y, t).and_then(|v| v.as_f64()),
        ) else {
            continue;
        };
        let error = ((xv - yv).abs() / xv.abs()) * 100.0;
        if xv != 0.0 && error > worst.0 {
            worst = (error, xv, yv);
        }
    }
    worst
}

/// E9 (§3.1.1): a conditional notify interface trades notifications
/// for mirror error. The filter compares each update with the previous
/// source value, not with the value last mirrored, so moves below the
/// threshold add up and nothing bounds the settled error.
#[test]
fn e9_interface_modes() {
    let mut out = String::new();
    say!(
        out,
        "\n[E9] conditional-notify suppression vs threshold (60 random-walk updates):"
    );
    say!(
        out,
        "  {:<12} {:>14} {:>12} {:>22}",
        "threshold",
        "notifications",
        "suppressed",
        "max mirror error (%)"
    );
    let mut last_notifications = u64::MAX;
    let mut worst = (0.0, 0.0, 0.0);
    for frac in ["0.0", "0.05", "0.1", "0.25"] {
        let sc = run_with_rid(&RID_COND_TMPL.replace("FRAC", frac), 5);
        let notifications = sc.counter("A", "translator.notifications");
        let suppressed = sc.counter("A", "translator.suppressed");
        worst = max_settled_error(&sc);
        assert!(
            notifications <= last_notifications,
            "{frac}: more notifications"
        );
        last_notifications = notifications;
        assert_eq!(notifications + suppressed, 60, "{frac}");
        if frac == "0.0" {
            assert_eq!(worst.0, 0.0);
        }
        say!(
            out,
            "  {:<12} {:>14} {:>12} {:>22.1}",
            frac,
            notifications,
            suppressed,
            worst.0
        );
    }
    say!(
        out,
        "  at 0.25 the worst settled gap is source {} against mirror {}",
        worst.1,
        worst.2
    );
    say!(
        out,
        "  shape: higher thresholds cut traffic; sub-threshold moves add up unbounded."
    );
    let plain = run_with_rid(RID_SRC, 5);
    say!(
        out,
        "  plain notify interface: {} notifications, {} suppressed",
        plain.counter("A", "translator.notifications"),
        plain.counter("A", "translator.suppressed")
    );
    assert_pinned(
        "e9_interface_modes",
        include_str!("expected/e9_interface_modes.txt"),
        &out,
    );
}
