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
/// The time constraint of a formula's RHS, over `(t1, t2)` in ms.
type TimeOk = Box<dyn Fn(i64, i64) -> bool>;
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

/// `follows` and `follows_metric` over three employees whose change
/// points interleave. Write instants are drawn from a coarse set, so a
/// bound item is often written twice at one instant: the last write
/// wins, and only it may witness.
#[test]
fn salary_pair_over_interleaved_instances_agrees_with_brute_force() {
    let ids = ["e1", "e2", "e3"];
    let mut g = Gen::new(0xC4EC_0008);
    let mut seen = [[false; 2]; 2];
    let mut same_instant = 0;
    for _ in 0..64 {
        let mut initial = Vec::new();
        let mut writes = Vec::new();
        for id in ids {
            let v0 = Value::Int(g.int_in(0, 3));
            initial.push((param("salary1", id), v0.clone()));
            initial.push((param("salary2", id), v0));
            for _ in 0..g.int_in(0, 5) {
                let t = g.int_in(0, 11) as u64 * 10;
                let v = g.int_in(0, 3);
                writes.push((t, param("salary1", id), Value::Int(v)));
                let copied = if g.int_in(0, 3) == 0 {
                    g.int_in(0, 3)
                } else {
                    v
                };
                let at = (t + g.int_in(0, 2) as u64 * 5).min(HORIZON_MS - 1);
                writes.push((at, param("salary2", id), Value::Int(copied)));
            }
        }
        writes.sort_by_key(|w| w.0);
        same_instant += writes
            .windows(2)
            .filter(|w| w[0].0 == w[1].0 && w[0].1 == w[1].1)
            .count();
        let tr = trace_of(&initial, writes, HORIZON_MS);
        let kappa = g.int_in(1, 40);
        let forms: [(String, TimeOk); 2] = [
            (
                "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1".to_owned(),
                Box::new(|t1, t2| t2 <= t1),
            ),
            (
                format!(
                    "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and \
                     t1 - {kappa}ms < t2 and t2 <= t1"
                ),
                Box::new(move |t1, t2| t1 - kappa < t2 && t2 <= t1),
            ),
        ];
        for (i, (src, time_ok)) in forms.iter().enumerate() {
            let guar = parse_guarantee("salary", src).unwrap();
            let fast = check_guarantee(&tr, &guar, None).holds;
            let slow = ids.iter().all(|id| {
                brute_force_two_var(
                    &tr,
                    |t, at| value_at(t, &param("salary2", id), at),
                    |t, at| value_at(t, &param("salary1", id), at),
                    |t1, t2| time_ok(t1 as i64, t2 as i64),
                )
            });
            assert_eq!(fast, slow, "{src} trace:\n{tr}");
            seen[i][usize::from(slow)] = true;
        }
    }
    assert_eq!(
        seen, [[true; 2]; 2],
        "both outcomes of both forms must occur"
    );
    assert!(same_instant > 0, "no same-instant writes to one item");
}

/// Fully bound `or` conditions under `@`, each branch pushing its own
/// copy: on the RHS, the witness side, and as a whole LHS, where every
/// satisfied branch is an instantiation.
#[test]
fn bound_or_condition_agrees_with_brute_force() {
    let z = || ItemId::plain("Z");
    let mut g = Gen::new(0xC4EC_0009);
    let mut seen = [[false; 2]; 2];
    for _ in 0..64 {
        let mut writes = Vec::new();
        for item in [x(), y(), z()] {
            for (t, v) in g.writes(4, 2, HORIZON_MS) {
                writes.push((t, item.clone(), Value::Int(v)));
            }
        }
        writes.sort_by_key(|w| w.0);
        let initial = [x(), y(), z()].map(|item| (item, Value::Int(g.int_in(0, 2))));
        let tr = trace_of(&initial, writes, HORIZON_MS);
        let at = |item: &ItemId, t: u64| value_at(&tr, item, SimTime::from_millis(t));
        let kappa = g.int_in(1, 60) as u64;

        let rhs_or = parse_guarantee(
            "rhs_or",
            &format!("(Y = y) @ t1 => (X = y or Z = y) @ t2 and t1 - {kappa}ms < t2 and t2 <= t1"),
        )
        .unwrap();
        let slow = (0..=HORIZON_MS).all(|t1| {
            let yv = at(&y(), t1);
            (t1.saturating_sub(kappa - 1)..=t1).any(|t2| at(&x(), t2) == yv || at(&z(), t2) == yv)
        });
        assert_eq!(
            check_guarantee(&tr, &rhs_or, None).holds,
            slow,
            "trace:\n{tr}"
        );
        seen[0][usize::from(slow)] = true;

        let lhs_or = parse_guarantee(
            "lhs_or",
            "(X = 1 or Y = 1) @ t1 => (Z = 1) @ t2 and t2 <= t1",
        )
        .unwrap();
        let one = Some(Value::Int(1));
        let slow = (0..=HORIZON_MS).all(|t1| {
            (at(&x(), t1) != one && at(&y(), t1) != one) || (0..=t1).any(|t2| at(&z(), t2) == one)
        });
        assert_eq!(
            check_guarantee(&tr, &lhs_or, None).holds,
            slow,
            "trace:\n{tr}"
        );
        seen[1][usize::from(slow)] = true;
    }
    assert_eq!(
        seen, [[true; 2]; 2],
        "both outcomes of both forms must occur"
    );
}

/// A `*` parameter names no item, so the atom reading it is never
/// satisfied and its negation always is, whatever the instances do.
#[test]
fn wildcard_parameter_agrees_with_brute_force() {
    let ids = ["e1", "e2", "e3"];
    let mut g = Gen::new(0xC4EC_000A);
    let mut seen = [false; 2];
    for _ in 0..64 {
        let mut writes = Vec::new();
        for id in ids {
            for (t, v) in g.writes(2, 2, HORIZON_MS) {
                writes.push((t, param("salary1", id), Value::Int(v)));
                // A lagged copy, now and then of a value drawn afresh.
                let copied = if g.int_in(0, 3) == 0 {
                    g.int_in(0, 2)
                } else {
                    v
                };
                let at = (t + g.int_in(0, 20) as u64).min(HORIZON_MS - 1);
                writes.push((at, param("salary2", id), Value::Int(copied)));
            }
        }
        writes.sort_by_key(|w| w.0);
        let tr = trace_of(&[], writes, HORIZON_MS);
        let guar = parse_guarantee(
            "wild",
            "(salary2(n) = y and not (salary1(*) = y)) @ t1 => \
             (salary1(n) = y or salary2(*) = y) @ t2 and t2 <= t1",
        )
        .unwrap();
        let fast = check_guarantee(&tr, &guar, None).holds;
        let slow = ids.iter().all(|id| {
            brute_force_two_var(
                &tr,
                |t, at| value_at(t, &param("salary2", id), at),
                |t, at| value_at(t, &param("salary1", id), at),
                |t1, t2| t2 <= t1,
            )
        });
        assert_eq!(fast, slow, "trace:\n{tr}");
        seen[usize::from(slow)] = true;
    }
    assert_eq!(seen, [true; 2], "both outcomes must occur");
}

/// Time comparisons that bound the witness variable from either side,
/// with the offset on the witness's own side, and `=` / `!=`. Y copies
/// X after a lag near the bound `k`, so each form both holds and fails;
/// the LHS starts at `k`, where every form can have a witness.
#[test]
fn time_comparison_forms_agree_with_brute_force() {
    let mut g = Gen::new(0xC4EC_000B);
    let mut seen = [[false; 2]; 5];
    for _ in 0..64 {
        let k = g.int_in(1, 40);
        let lag = [k - 1, k, k + 1, g.int_in(0, 40)][g.int_in(0, 3) as usize] as u64;
        let x_writes = g.writes(5, 2, HORIZON_MS);
        let mut y_writes: Vec<(u64, i64)> = x_writes
            .iter()
            .map(|&(t, v)| (t + lag, v))
            .filter(|&(t, _)| t < HORIZON_MS)
            .collect();
        if g.int_in(0, 3) == 0 {
            y_writes.extend(g.writes(1, 2, HORIZON_MS));
        }
        let v0 = g.int_in(0, 2);
        let tr = build_trace(&x_writes, &y_writes, v0, v0, HORIZON_MS);
        let forms: [(String, TimeOk); 5] = [
            (
                format!("t2 + {k}ms > t1 and t2 <= t1"),
                Box::new(move |t1, t2| t2 + k > t1 && t2 <= t1),
            ),
            (
                format!("t1 >= t2 + {k}ms"),
                Box::new(move |t1, t2| t1 >= t2 + k),
            ),
            (
                format!("t2 = t1 - {k}ms"),
                Box::new(move |t1, t2| t2 == t1 - k),
            ),
            (
                format!("t2 + {k}ms = t1"),
                Box::new(move |t1, t2| t2 + k == t1),
            ),
            (
                "t2 != t1 and t2 <= t1".to_owned(),
                Box::new(|t1, t2| t2 < t1),
            ),
        ];
        for (i, (bound, time_ok)) in forms.iter().enumerate() {
            let guar = parse_guarantee(
                "cmp",
                &format!("(Y = y) @ t1 and t1 >= {k}ms => (X = y) @ t2 and {bound}"),
            )
            .unwrap();
            let fast = check_guarantee(&tr, &guar, None).holds;
            let slow = brute_force_two_var(
                &tr,
                |t, at| {
                    if at.as_millis() >= k as u64 {
                        value_at(t, &y(), at)
                    } else {
                        None
                    }
                },
                |t, at| value_at(t, &x(), at),
                |t1, t2| time_ok(t1 as i64, t2 as i64),
            );
            assert_eq!(fast, slow, "{bound} trace:\n{tr}");
            seen[i][usize::from(slow)] = true;
        }
    }
    assert_eq!(
        seen, [[true; 2]; 5],
        "both outcomes of every form must occur"
    );
}

/// The §6.3 monitor shape, parameterized: a `@@` window from a
/// timestamp stored in the trace to `t - κ`. The horizon lies below
/// the trace's end, stored timestamps fall around it, and `κ` may be
/// negative, so windows come out empty, wholly before 0, and reaching
/// past the horizon. The reference reads every millisecond of the
/// window, a negative instant as instant 0.
#[test]
fn monitor_window_agrees_with_brute_force() {
    const END_MS: usize = HORIZON_MS as usize + 40;
    let ids = ["e1", "e2"];
    let mut g = Gen::new(0xC4EC_000C);
    let mut seen = [false; 2];
    // Empty, wholly before 0, reaching past the horizon.
    let mut shapes = [0; 3];
    for _ in 0..64 {
        let h = g.int_in(60, HORIZON_MS as i64 - 20);
        let mut initial = Vec::new();
        let mut writes = Vec::new();
        for id in ids {
            let v0 = Value::Int(g.int_in(0, 1));
            initial.push((param("Flag", id), Value::Bool(g.int_in(0, 1) == 1)));
            initial.push((param("Tb", id), Value::Int(g.int_in(-40, h + 40))));
            initial.push((param("X", id), v0.clone()));
            initial.push((param("Y", id), v0));
            for (t, v) in g.writes(3, 1, HORIZON_MS) {
                writes.push((t, param("Flag", id), Value::Bool(v == 1)));
            }
            for (t, _) in g.writes(2, 0, HORIZON_MS) {
                writes.push((t, param("Tb", id), Value::Int(g.int_in(-40, h + 40))));
            }
            // Y copies X after a short lag, so the two mostly agree.
            for (t, v) in g.writes(3, 2, HORIZON_MS) {
                writes.push((t, param("X", id), Value::Int(v)));
                let at = (t + g.int_in(0, 8) as u64).min(HORIZON_MS - 1);
                writes.push((at, param("Y", id), Value::Int(v)));
            }
        }
        writes.sort_by_key(|w| w.0);
        let tr = trace_of(&initial, writes, HORIZON_MS);
        let kappa = g.int_in(-30, 30);
        let end = if kappa >= 0 {
            format!("t - {kappa}ms")
        } else {
            format!("t + {}ms", -kappa)
        };
        let guar = parse_guarantee(
            "monitor",
            &format!("(Flag(i) = true and Tb(i) = s) @ t => (X(i) = Y(i)) @@ [s, {end}]"),
        )
        .unwrap();
        let fast = check_guarantee(&tr, &guar, Some(SimTime::from_millis(h as u64))).holds;

        let mut slow = true;
        for id in ids {
            let at = |base: &str| -> Vec<Option<Value>> {
                (0..=END_MS)
                    .map(|t| value_at(&tr, &param(base, id), SimTime::from_millis(t as u64)))
                    .collect()
            };
            let (flag, tb, xs, ys) = (at("Flag"), at("Tb"), at("X"), at("Y"));
            let agree = |u: i64| {
                let u = u.max(0) as usize;
                xs[u].is_some() && xs[u] == ys[u]
            };
            for t in 0..=h {
                let t_ix = t as usize;
                let Some(s) = tb[t_ix].as_ref().and_then(Value::as_int) else {
                    continue;
                };
                if flag[t_ix] != Some(Value::Bool(true)) {
                    continue;
                }
                let end = t - kappa;
                shapes[0] += usize::from(s > end);
                shapes[1] += usize::from(s <= end && end < 0);
                shapes[2] += usize::from(s <= h && h < end);
                slow &= (s..=end).all(agree);
            }
        }
        assert_eq!(fast, slow, "kappa={kappa}ms horizon={h}ms trace:\n{tr}");
        seen[usize::from(slow)] = true;
    }
    assert_eq!(seen, [true; 2], "both outcomes must occur");
    assert!(
        shapes.iter().all(|&n| n > 0),
        "every window shape must occur (empty, before 0, past the horizon): {shapes:?}"
    );
}
