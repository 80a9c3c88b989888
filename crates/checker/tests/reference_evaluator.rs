//! Differential validation of the guarantee evaluator.
//!
//! The production evaluator quantifies over the *salient grid* (event
//! times ± formula offsets ± 1 ms). This test builds a brute-force
//! reference that quantifies over **every** integer millisecond of a
//! small horizon — exact by construction on the integer clock — and
//! checks both agree on randomized traces and formulas. This is the
//! mechanical justification for the grid optimization claimed in the
//! crate docs.
//!
//! Formerly proptest-based; now driven by a local SplitMix64 generator
//! so the suite needs no external crates and stays deterministic.

use hcm_checker::guarantee::check_guarantee;
use hcm_core::{EventDesc, ItemId, SimTime, SiteId, Trace, Value};
use hcm_rulelang::{parse_guarantee, Guarantee};

const HORIZON_MS: u64 = 120;
/// Small enough for a brute force over four time variables.
const SMALL_HORIZON_MS: u64 = 30;

/// Minimal deterministic generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64 + 1;
        lo + (self.next() % span) as i64
    }
    /// Up to `max` (time, small value) writes before `horizon_ms`.
    fn writes(&mut self, max: usize, val_hi: i64, horizon_ms: u64) -> Vec<(u64, i64)> {
        let n = self.int_in(0, max as i64) as usize;
        (0..n)
            .map(|_| {
                (
                    self.int_in(0, horizon_ms as i64 - 1) as u64,
                    self.int_in(0, val_hi),
                )
            })
            .collect()
    }
}

/// Brute force: enumerate every (t1, t2) in [0, horizon]² of integer
/// milliseconds for two-variable implications of the shape used by the
/// copy guarantees. `lhs`/`rhs` are closures over the trace state.
fn brute_force_two_var(
    trace: &Trace,
    lhs: impl Fn(&Trace, SimTime) -> Option<Value>,
    rhs: impl Fn(&Trace, SimTime) -> Option<Value>,
    time_ok: impl Fn(u64, u64) -> bool,
) -> bool {
    for t1 in 0..=HORIZON_MS {
        let Some(y) = lhs(trace, SimTime::from_millis(t1)) else {
            continue;
        };
        let mut witnessed = false;
        for t2 in 0..=HORIZON_MS {
            if !time_ok(t1, t2) {
                continue;
            }
            if rhs(trace, SimTime::from_millis(t2)).as_ref() == Some(&y) {
                witnessed = true;
                break;
            }
        }
        if !witnessed {
            return false;
        }
    }
    true
}

/// Reference state lookup, independent of the trace's state index:
/// scan the events in order, stopping at the first one later than `t`.
fn value_at(tr: &Trace, item: &ItemId, t: SimTime) -> Option<Value> {
    let mut current = tr.initial(item).cloned();
    for e in tr.events().iter().take_while(|e| e.time <= t) {
        if let Some((i, v)) = e.desc.write_effect() {
            if i == item {
                current = Some(v.clone());
            }
        }
    }
    current
}

fn x() -> ItemId {
    ItemId::plain("X")
}
fn y() -> ItemId {
    ItemId::plain("Y")
}

fn param(base: &str, id: &str) -> ItemId {
    ItemId::with(base, [Value::from(id)])
}

fn build_trace(
    x_writes: &[(u64, i64)],
    y_writes: &[(u64, i64)],
    x0: i64,
    y0: i64,
    horizon_ms: u64,
) -> Trace {
    let mut all: Vec<(u64, bool, i64)> = x_writes
        .iter()
        .map(|&(t, v)| (t, true, v))
        .chain(y_writes.iter().map(|&(t, v)| (t, false, v)))
        .collect();
    all.sort();
    let writes = all
        .into_iter()
        .map(|(t, is_x, v)| (t, if is_x { x() } else { y() }, Value::Int(v)));
    trace_of(
        &[(x(), Value::Int(x0)), (y(), Value::Int(y0))],
        writes,
        horizon_ms,
    )
}

/// A trace of time-ordered `(ms, item, value)` writes over `initial`,
/// padded so that its end, the evaluator's horizon, is `horizon_ms`.
fn trace_of(
    initial: &[(ItemId, Value)],
    writes: impl IntoIterator<Item = (u64, ItemId, Value)>,
    horizon_ms: u64,
) -> Trace {
    let mut tr = Trace::new();
    for (item, v) in initial {
        tr.set_initial(item.clone(), v.clone());
    }
    for (t, item, new) in writes {
        let old = value_at(&tr, &item, SimTime::from_millis(t));
        tr.push(
            SimTime::from_millis(t),
            SiteId::new(0),
            EventDesc::Ws {
                item,
                old: old.clone(),
                new,
            },
            old,
            None,
            None,
        );
    }
    // Pin the horizon so the evaluator and the reference agree on it.
    tr.push(
        SimTime::from_millis(horizon_ms),
        SiteId::new(0),
        EventDesc::Ws {
            item: ItemId::plain("Pad"),
            old: None,
            new: Value::Int(0),
        },
        None,
        None,
        None,
    );
    tr
}

fn follows() -> Guarantee {
    parse_guarantee("follows", "(Y = y) @ t1 => (X = y) @ t2 and t2 <= t1").unwrap()
}

fn leads() -> Guarantee {
    parse_guarantee("leads", "(X = v) @ t1 => (Y = v) @ t2 and t2 >= t1").unwrap()
}

fn metric(kappa_ms: u64) -> Guarantee {
    parse_guarantee(
        "metric",
        &format!("(Y = y) @ t1 => (X = y) @ t2 and t1 - {kappa_ms}ms < t2 and t2 <= t1"),
    )
    .unwrap()
}

/// Grid evaluator ≡ exhaustive evaluator for "follows".
#[test]
fn follows_agrees_with_brute_force() {
    let mut g = Gen::new(0xC4EC_0001);
    for _ in 0..64 {
        let tr = build_trace(
            &g.writes(5, 3, HORIZON_MS),
            &g.writes(5, 3, HORIZON_MS),
            g.int_in(0, 3),
            g.int_in(0, 3),
            HORIZON_MS,
        );
        let fast = check_guarantee(&tr, &follows(), None).holds;
        let slow = brute_force_two_var(
            &tr,
            |t, at| value_at(t, &y(), at),
            |t, at| value_at(t, &x(), at),
            |t1, t2| t2 <= t1,
        );
        assert_eq!(fast, slow, "trace:\n{tr}");
    }
}

/// Grid evaluator ≡ exhaustive evaluator for "leads".
#[test]
fn leads_agrees_with_brute_force() {
    let mut g = Gen::new(0xC4EC_0002);
    for _ in 0..64 {
        let tr = build_trace(
            &g.writes(5, 3, HORIZON_MS),
            &g.writes(5, 3, HORIZON_MS),
            g.int_in(0, 3),
            g.int_in(0, 3),
            HORIZON_MS,
        );
        let fast = check_guarantee(&tr, &leads(), None).holds;
        let slow = brute_force_two_var(
            &tr,
            |t, at| value_at(t, &x(), at),
            |t, at| value_at(t, &y(), at),
            |t1, t2| t2 >= t1,
        );
        assert_eq!(fast, slow, "trace:\n{tr}");
    }
}

/// Grid evaluator ≡ exhaustive evaluator for the metric bound, the case
/// that exercises offset-shifted candidates.
#[test]
fn metric_agrees_with_brute_force() {
    let mut g = Gen::new(0xC4EC_0003);
    for _ in 0..64 {
        let tr = build_trace(
            &g.writes(5, 3, HORIZON_MS),
            &g.writes(5, 3, HORIZON_MS),
            g.int_in(0, 3),
            g.int_in(0, 3),
            HORIZON_MS,
        );
        let kappa = g.int_in(1, HORIZON_MS as i64 - 1) as u64;
        let fast = check_guarantee(&tr, &metric(kappa), None).holds;
        let slow = brute_force_two_var(
            &tr,
            |t, at| value_at(t, &y(), at),
            |t, at| value_at(t, &x(), at),
            |t1, t2| (t1 as i64 - kappa as i64) < t2 as i64 && t2 <= t1,
        );
        assert_eq!(fast, slow, "kappa={kappa}ms trace:\n{tr}");
    }
}

/// Throughout atoms: `(X = Y) @@ [a, b]` against per-millisecond
/// enumeration.
#[test]
fn throughout_agrees_with_brute_force() {
    let mut g = Gen::new(0xC4EC_0004);
    for _ in 0..64 {
        let a = g.int_in(0, HORIZON_MS as i64 - 1) as u64;
        let len = g.int_in(0, HORIZON_MS as i64 - 1) as u64;
        let b = (a + len).min(HORIZON_MS);
        let tr = build_trace(
            &g.writes(4, 2, HORIZON_MS),
            &g.writes(4, 2, HORIZON_MS),
            0,
            0,
            HORIZON_MS,
        );
        let guar = parse_guarantee("inv", &format!("(X = Y) @@ [{a}ms, {b}ms]")).unwrap();
        let fast = check_guarantee(&tr, &guar, None).holds;
        let slow = (a..=b).all(|t| {
            value_at(&tr, &x(), SimTime::from_millis(t))
                == value_at(&tr, &y(), SimTime::from_millis(t))
        });
        assert_eq!(fast, slow, "[{a}ms,{b}ms] trace:\n{tr}");
    }
}

/// The salary-shaped metric bound over two employees: the parameter
/// loop runs outside the quantifier search, and one employee's values
/// must not witness the other's.
#[test]
fn parameterized_metric_agrees_with_brute_force() {
    let ids = ["e1", "e2"];
    let mut g = Gen::new(0xC4EC_0005);
    let mut seen = [false; 2];
    for _ in 0..64 {
        let mut initial = Vec::new();
        let mut writes = Vec::new();
        for id in ids {
            let v0 = Value::Int(g.int_in(0, 3));
            initial.push((param("salary1", id), v0.clone()));
            initial.push((param("salary2", id), v0));
            for (t, v) in g.writes(4, 3, HORIZON_MS) {
                writes.push((t, param("salary1", id), Value::Int(v)));
                // A lagged copy, now and then of a value drawn afresh.
                let copied = if g.int_in(0, 3) == 0 {
                    g.int_in(0, 3)
                } else {
                    v
                };
                let at = (t + g.int_in(0, 20) as u64).min(HORIZON_MS - 1);
                writes.push((at, param("salary2", id), Value::Int(copied)));
            }
        }
        writes.sort_by_key(|w| w.0);
        let tr = trace_of(&initial, writes, HORIZON_MS);
        let kappa = g.int_in(1, 40) as u64;
        let guar = parse_guarantee(
            "follows_metric",
            &format!(
                "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and \
                 t1 - {kappa}ms < t2 and t2 <= t1"
            ),
        )
        .unwrap();
        let fast = check_guarantee(&tr, &guar, None).holds;
        let slow = ids.iter().all(|id| {
            brute_force_two_var(
                &tr,
                |t, at| value_at(t, &param("salary2", id), at),
                |t, at| value_at(t, &param("salary1", id), at),
                |t1, t2| (t1 as i64 - kappa as i64) < t2 as i64 && t2 <= t1,
            )
        });
        assert_eq!(fast, slow, "kappa={kappa}ms trace:\n{tr}");
        seen[usize::from(slow)] = true;
    }
    assert_eq!(seen, [true; 2], "both outcomes must occur");
}

/// Strictly-follows: a two-`@`-atom RHS whose witness search must back
/// off a first choice that the later atom rejects. The reversed RHS
/// picks `t4` first, so its earliest candidates are the worst ones.
#[test]
fn strictly_follows_agrees_with_brute_force() {
    const H: usize = SMALL_HORIZON_MS as usize;
    let lhs = "(Y = y1) @ t1 and (Y = y2) @ t2 and t1 < t2 and y1 != y2";
    let forms = [
        "(X = y1) @ t3 and (X = y2) @ t4 and t3 < t4",
        "(X = y2) @ t4 and (X = y1) @ t3 and t3 < t4",
    ]
    .map(|rhs| parse_guarantee("sf", &format!("{lhs} => {rhs}")).unwrap());
    let mut g = Gen::new(0xC4EC_0006);
    let mut seen = [false; 2];
    for _ in 0..64 {
        let tr = build_trace(
            &g.writes(4, 2, SMALL_HORIZON_MS),
            &g.writes(4, 2, SMALL_HORIZON_MS),
            g.int_in(0, 2),
            g.int_in(0, 2),
            SMALL_HORIZON_MS,
        );
        let at = |item: ItemId| -> Vec<Option<Value>> {
            (0..=H)
                .map(|t| value_at(&tr, &item, SimTime::from_millis(t as u64)))
                .collect()
        };
        let (xs, ys) = (at(x()), at(y()));
        let slow = (0..=H).all(|t1| {
            (t1 + 1..=H).all(|t2| {
                ys[t1] == ys[t2]
                    || (0..=H).any(|t3| xs[t3] == ys[t1] && (t3 + 1..=H).any(|t4| xs[t4] == ys[t2]))
            })
        });
        for guar in &forms {
            let fast = check_guarantee(&tr, guar, None).holds;
            assert_eq!(fast, slow, "{guar:?} trace:\n{tr}");
        }
        seen[usize::from(slow)] = true;
    }
    assert_eq!(seen, [true; 2], "both outcomes must occur");
}

/// Referential integrity: an `@?` window bounded by the LHS time
/// variable, over parameterized records that appear and are deleted.
#[test]
fn sometime_window_agrees_with_brute_force() {
    let ids = ["e1", "e2"];
    let mut g = Gen::new(0xC4EC_0007);
    let mut seen = [false; 2];
    for _ in 0..64 {
        // Each record is written (1) or deleted (Null) at random.
        let mut writes = Vec::new();
        for item in ["project", "salary"]
            .map(|base| ids.map(|id| param(base, id)))
            .concat()
        {
            for (t, v) in g.writes(4, 1, HORIZON_MS) {
                let v = if v == 0 { Value::Null } else { Value::Int(v) };
                writes.push((t, item.clone(), v));
            }
        }
        writes.sort_by_key(|w| w.0);
        let tr = trace_of(&[], writes, HORIZON_MS);
        let w = g.int_in(0, HORIZON_MS as i64 / 2) as u64;
        let guar = parse_guarantee(
            "refint",
            &format!("exists(project(i)) @ t => exists(salary(i)) @? [t, t + {w}ms]"),
        )
        .unwrap();
        let fast = check_guarantee(&tr, &guar, None).holds;
        let exists = |base: &str, id: &str, t: u64| {
            value_at(&tr, &param(base, id), SimTime::from_millis(t)).is_some_and(|v| v.exists())
        };
        let slow = ids.iter().all(|id| {
            (0..=HORIZON_MS)
                .all(|t| !exists("project", id, t) || (t..=t + w).any(|u| exists("salary", id, u)))
        });
        assert_eq!(fast, slow, "w={w}ms trace:\n{tr}");
        seen[usize::from(slow)] = true;
    }
    assert_eq!(seen, [true; 2], "both outcomes must occur");
}
