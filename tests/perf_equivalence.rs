//! Perf-path equivalence — the guarantee checker's fast paths must be
//! invisible.
//!
//! The checker quantifies over component-pruned salient grids rather
//! than one global grid. This suite pins a regression for an early
//! cross-atom-breakpoint bug: the pruned grids must keep breakpoints
//! that only matter through a *different* atom sharing the time
//! variables. The exhaustive per-millisecond comparison lives in
//! `crates/checker/tests/reference_evaluator.rs`.

use hcm::checker::guarantee::check_guarantee;
use hcm::core::{EventDesc, ItemId, SimTime, SiteId, Trace, Value};
use hcm::rulelang::parse_guarantee;

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
