//! Perf-path equivalence — the optimized fast paths must be invisible.
//!
//! PR "fast paths everywhere" added (1) a deterministic parallel sweep
//! driver, (2) parallel guarantee checking, and (3) pruned salient
//! grids with memoized sub-formula evaluation inside the guarantee
//! checker. None of these may change a single observable byte. This
//! suite pins that down three ways:
//!
//! * parallel sweep vs serial sweep over real experiment cells (E1
//!   salary propagation, E3 demarcation) — byte-identical metrics
//!   snapshots and identical verdicts;
//! * `check_guarantees_parallel` vs per-guarantee serial
//!   `check_guarantee` — identical reports, including violation
//!   details;
//! * a regression pin for the PR 1 cross-atom-breakpoint bug: the
//!   component-pruned grids must keep breakpoints that only matter
//!   through a *different* atom sharing the time variables.

mod common;

use common::{employees_db, RID_DST, RID_SRC};
use hcm::checker::guarantee::{check_guarantee, check_guarantees_parallel};
use hcm::core::{EventDesc, ItemId, SimDuration, SimTime, SiteId, Trace, Value};
use hcm::protocols::demarcation::{self, DemarcConfig, GrantPolicy};
use hcm::rulelang::parse_guarantee;
use hcm::simkit::SimRng;
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::{ScenarioBuilder, SpontaneousOp};
use hcm_bench::sweep;

const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s

[guarantee follows]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1

[guarantee leads]
(salary1(n) = x) @ t1 => (salary2(n) = x) @ t2 and t2 >= t1
"#;

/// One E1-style cell: build, run, post-mortem. Returns everything an
/// experiment table would print — the full metrics snapshot (which
/// includes the checker's own counters) plus the guarantee verdicts —
/// as deterministic strings.
fn salary_cell(seed: &u64) -> (String, String) {
    let seed = *seed;
    let mut sc = ScenarioBuilder::new(seed)
        .site(
            "A",
            RawStore::Relational(employees_db(&[("e1", 100), ("e2", 250)])),
            RID_SRC,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees_db(&[("e1", 100), ("e2", 250)])),
            RID_DST,
        )
        .unwrap()
        .strategy(STRATEGY)
        .build()
        .unwrap();
    sc.inject(
        SimTime::from_secs(10 + seed % 7),
        "A",
        SpontaneousOp::Sql(format!(
            "update employees set salary = {} where empid = 'e1'",
            200 + seed
        )),
    );
    sc.run_to_quiescence();
    let verdicts = hcm::harness::post_mortem(&sc)
        .guarantees
        .iter()
        .map(|g| format!("{}:{}:{}", g.name, g.holds, g.instantiations))
        .collect::<Vec<_>>()
        .join(";");
    (sc.metrics_jsonl(), verdicts)
}

#[test]
fn parallel_sweep_matches_serial_on_salary_cells() {
    let seeds: &[u64] = &[3, 8, 11];
    let par = sweep::run(seeds, salary_cell);
    let ser = sweep::run_serial(seeds, salary_cell);
    assert_eq!(par, ser, "parallel sweep must be byte-identical to serial");
}

/// One E3 demarcation cell: a seeded workload under a grant policy.
fn demarc_cell(key: &(u64, GrantPolicy)) -> (String, bool) {
    let (seed, policy) = *key;
    let mut rng = SimRng::seeded(seed);
    let mut t = SimTime::from_secs(5);
    let ops: Vec<(SimTime, bool, i64)> = (0..12)
        .map(|_| {
            t += SimDuration::from_secs(rng.int_in(5, 40) as u64);
            (t, rng.chance(0.5), rng.int_in(1, 15))
        })
        .collect();
    let mut d = demarcation::build(DemarcConfig {
        seed,
        x0: 0,
        y0: 400,
        line: 200,
        policy,
    });
    for &(at, lower, delta) in &ops {
        d.try_update(at, lower, delta);
    }
    d.run();
    (d.scenario.metrics_jsonl(), d.invariant_held())
}

#[test]
fn parallel_sweep_matches_serial_on_demarcation_cells() {
    let keys: Vec<(u64, GrantPolicy)> = [1u64, 4, 9]
        .into_iter()
        .flat_map(|seed| {
            [
                (seed, GrantPolicy::Requested),
                (seed, GrantPolicy::All),
                (seed, GrantPolicy::HalfAvailable),
            ]
        })
        .collect();
    let par = sweep::run(&keys, demarc_cell);
    let ser = sweep::run_serial(&keys, demarc_cell);
    assert_eq!(par, ser);
    assert!(
        par.iter().all(|(_, held)| *held),
        "demarcation invariant must hold in every cell"
    );
}

fn write(tr: &mut Trace, t: u64, base: &str, v: i64) {
    let item = ItemId::plain(base);
    let old = tr.value_at(&item, SimTime::from_secs(t));
    tr.push(
        SimTime::from_secs(t),
        SiteId::new(0),
        EventDesc::Ws {
            item,
            old: old.clone(),
            new: Value::Int(v),
        },
        old,
        None,
        None,
    );
}

/// X=1 held only over [10s, 11s); Y reflects it 9s late.
fn lagged_trace() -> Trace {
    let mut tr = Trace::new();
    tr.set_initial(ItemId::plain("X"), Value::Int(0));
    tr.set_initial(ItemId::plain("Y"), Value::Int(0));
    write(&mut tr, 10, "X", 1);
    write(&mut tr, 11, "X", 2);
    write(&mut tr, 20, "Y", 1);
    tr
}

#[test]
fn parallel_guarantee_checking_matches_serial_reports() {
    let tr = lagged_trace();
    // A mix of holding and violated guarantees, checked both ways.
    let gs = vec![
        parse_guarantee(
            "narrow",
            "(Y = y) @ t1 => (X = y) @ t2 and t1 - 5s < t2 and t2 <= t1",
        )
        .unwrap(),
        parse_guarantee(
            "wide",
            "(Y = y) @ t1 => (X = y) @ t2 and t1 - 60s < t2 and t2 <= t1",
        )
        .unwrap(),
        parse_guarantee("exact", "(X = x) @ t1 => (X = x) @ t1").unwrap(),
    ];
    let par = check_guarantees_parallel(&tr, &gs, None);
    assert_eq!(par.len(), gs.len());
    for (g, p) in gs.iter().zip(&par) {
        let s = check_guarantee(&tr, g, None);
        assert_eq!(p.name, s.name);
        assert_eq!(p.holds, s.holds, "verdict differs for {}", g.name);
        assert_eq!(p.instantiations, s.instantiations);
        assert_eq!(
            format!("{:?}", p.violations),
            format!("{:?}", s.violations),
            "violation details differ for {}",
            g.name
        );
    }
    assert!(!par[0].holds, "κ = 5s must be violated on the lagged trace");
    assert!(par[1].holds);
    assert!(par[2].holds);
}

/// Regression pin (PR 1 bug class): t1 and t2 are linked by comparison
/// atoms, so they share one reachability component — t2's candidate
/// grid must include breakpoints contributed by *Y's* atom (through
/// t1) and the ±κ offsets, not just X's own change points. If the
/// pruned grids dropped cross-atom breakpoints, the κ = 5s violation
/// below would be missed (no candidate lands in (t1-5s, t1] where
/// X ≠ 1) and the guarantee would falsely hold.
#[test]
fn pruned_grids_keep_cross_atom_breakpoints() {
    let tr = lagged_trace();
    let narrow = parse_guarantee(
        "narrow",
        "(Y = y) @ t1 => (X = y) @ t2 and t1 - 5s < t2 and t2 <= t1",
    )
    .unwrap();
    let r = check_guarantee(&tr, &narrow, None);
    assert!(
        !r.holds,
        "Y holds a value X last had 9s ago; κ = 5s must be violated"
    );
    assert!(!r.violations.is_empty(), "violation must carry a witness");

    let wide = parse_guarantee(
        "wide",
        "(Y = y) @ t1 => (X = y) @ t2 and t1 - 60s < t2 and t2 <= t1",
    )
    .unwrap();
    assert!(
        check_guarantee(&tr, &wide, None).holds,
        "κ = 60s admits the 9s lag"
    );
}
