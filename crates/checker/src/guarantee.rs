//! Guarantee evaluation over finite traces.
//!
//! Implements the §3.3 semantics: variables on the left of `⇒` are
//! universally quantified, variables appearing only on the right are
//! existentially quantified; data variables are bound by equality
//! conditions (`(Y = y) @ t1` binds `y` to Y's value at `t1`);
//! parameterized data names quantify over the item instances present
//! in the trace.
//!
//! Quantification over continuous time is reduced to the *salient
//! grid* (see the crate docs): item-change instants, shifted by the
//! formula's constant offsets, with ±1 ms neighbours. On the integer
//! millisecond clock this is exact for the paper's formula class.
//!
//! The witness side costs what the bound items' history costs, not
//! what the grid costs. An `@` atom whose condition is fully bound
//! (`(salary1(n) = y) @ t2` once `n` and `y` are) reads a fixed set of
//! ground items, so its satisfying grid points are built once per
//! binding from the segments between those items' change points. The
//! search enters that list at the window its conjunction's time
//! comparisons leave open (`t1 - 10s < t2 <= t1` once `t1` is fixed)
//! and stops past it. An interval atom (`@@`, `@?`) reads the same
//! change points: its condition is evaluated at the window's start and
//! at each change point of its bound items inside the window. The RHS
//! search is memoized on the projection of the LHS environment only
//! when the LHS binds a variable the RHS does not mention, the one case
//! where two instantiations can share a key.

use hcm_core::{ItemId, ItemPattern, SimTime, StateIndex, Sym, Term, Trace, Value};
use hcm_rulelang::{CmpOp, Cond, CondEnv, Expr, GAtom, Guarantee, Mention, TimeExpr};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

/// Why (or that) a guarantee failed, for one universal instantiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuaranteeViolation {
    /// Human-readable description of the failing instantiation.
    pub instantiation: String,
}

impl fmt::Display for GuaranteeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no witness for {}", self.instantiation)
    }
}

/// Result of evaluating one guarantee.
#[derive(Debug, Clone)]
pub struct GuaranteeReport {
    /// Guarantee name.
    pub name: String,
    /// Whether every universal instantiation had an existential
    /// witness.
    pub holds: bool,
    /// Number of LHS instantiations checked.
    pub instantiations: usize,
    /// Violations found (capped).
    pub violations: Vec<GuaranteeViolation>,
}

/// Compact outcome used by experiment tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuaranteeOutcome {
    /// Holds on the trace.
    Holds,
    /// Violated on the trace.
    Violated,
    /// Vacuously true (no LHS instantiation).
    Vacuous,
}

impl GuaranteeReport {
    /// Collapse to the three-way outcome.
    #[must_use]
    pub fn outcome(&self) -> GuaranteeOutcome {
        if !self.holds {
            GuaranteeOutcome::Violated
        } else if self.instantiations == 0 {
            GuaranteeOutcome::Vacuous
        } else {
            GuaranteeOutcome::Holds
        }
    }
}

const MAX_VIOLATIONS: usize = 8;

/// One (partial) assignment: data-variable bindings + time-variable
/// assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Env {
    vars: BTreeMap<String, Value>,
    times: BTreeMap<String, SimTime>,
}

impl Env {
    fn new() -> Self {
        Env {
            vars: BTreeMap::new(),
            times: BTreeMap::new(),
        }
    }

    fn describe(&self) -> String {
        let vs: Vec<String> = self.vars.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let ts: Vec<String> = self.times.iter().map(|(k, t)| format!("{k}={t}")).collect();
        format!("[{} ; {}]", vs.join(", "), ts.join(", "))
    }
}

/// Condition environment for a fixed instant.
struct AtTime<'a> {
    idx: &'a StateIndex,
    t: SimTime,
    env: &'a Env,
}

impl CondEnv for AtTime<'_> {
    fn item(&self, item: &ItemId) -> Option<Value> {
        self.idx.value_at(item, self.t).cloned()
    }
    fn var(&self, name: &str) -> Option<Value> {
        self.env.vars.get(name).cloned()
    }
}

/// Evaluation counters, exposed for observability and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Always 0: condition evaluations are not memoized. The field
    /// stays for callers that still read it.
    pub probe_hits: u64,
    /// Condition evaluations, one per instant a condition is read at.
    pub probe_misses: u64,
    /// `@`-atom expansions answered from the satisfying-candidate
    /// cache.
    pub atom_hits: u64,
    /// `@`-atom expansions whose satisfying static candidates were
    /// built, from the bound items' segments, and recorded.
    pub atom_misses: u64,
    /// Total static grid points across all time variables (after
    /// component pruning).
    pub grid_points: u64,
}

#[derive(Default)]
struct EvalCounters {
    probe_misses: Cell<u64>,
    atom_hits: Cell<u64>,
    atom_misses: Cell<u64>,
    grid_points: Cell<u64>,
}

/// Memo key for a single-variable `@` atom: condition node address,
/// the occurrence's time offset, and the condition's variable
/// bindings. The value is the ascending list of satisfying static
/// candidates with their push counts.
type AtKey = (usize, i64, Vec<Option<Value>>);
type AtSat = Rc<Vec<(SimTime, u32)>>;

/// The evaluator.
pub struct Evaluator<'a> {
    idx: &'a StateIndex,
    horizon: SimTime,
    /// Per-atom satisfying-candidate cache (see
    /// [`Evaluator::at_sat_cached`]).
    at_memo: RefCell<HashMap<AtKey, AtSat>>,
    /// Condition node address → its variable names, sorted.
    cond_vars_cache: RefCell<HashMap<usize, Rc<[String]>>>,
    counters: EvalCounters,
}

impl<'a> Evaluator<'a> {
    /// Build an evaluator over `trace`'s state index, with the
    /// quantification horizon defaulting to the trace's end time.
    #[must_use]
    pub(crate) fn new(trace: &'a Trace, horizon: Option<SimTime>) -> Self {
        Evaluator {
            idx: trace.index(),
            horizon: horizon.unwrap_or_else(|| trace.end_time()),
            at_memo: RefCell::new(HashMap::new()),
            cond_vars_cache: RefCell::new(HashMap::new()),
            counters: EvalCounters::default(),
        }
    }

    /// Counters accumulated by every `check` on this evaluator.
    #[must_use]
    pub(crate) fn stats(&self) -> EvalStats {
        EvalStats {
            probe_hits: 0,
            probe_misses: self.counters.probe_misses.get(),
            atom_hits: self.counters.atom_hits.get(),
            atom_misses: self.counters.atom_misses.get(),
            grid_points: self.counters.grid_points.get(),
        }
    }

    /// Evaluate a guarantee.
    #[must_use]
    pub(crate) fn check(&self, g: &Guarantee) -> GuaranteeReport {
        // Both caches key on condition node addresses, which are only
        // stable within one guarantee's lifetime.
        self.at_memo.borrow_mut().clear();
        self.cond_vars_cache.borrow_mut().clear();
        let static_cands = self.static_candidates(g);
        let param_vars = collect_param_vars(g);
        let param_cands = self.param_candidates(g, &param_vars);

        // Outer enumeration of parameter variables (they are item
        // selectors: `salary1(n)` quantifies over the employees in the
        // databases).
        let mut param_envs = vec![Env::new()];
        for pv in &param_vars {
            let cands = param_cands.get(pv).cloned().unwrap_or_default();
            let mut next = Vec::new();
            for env in &param_envs {
                for c in &cands {
                    let mut e = env.clone();
                    e.vars.insert(pv.clone(), c.clone());
                    next.push(e);
                }
            }
            param_envs = next;
        }

        // The RHS only reads the variables its atoms mention; LHS
        // instantiations that agree on those are equivalent for the
        // existential search. When the LHS binds a variable the RHS does
        // not mention (`t1, t2` of strictly-follows), many instantiations
        // share one projection, so the search is memoized on it: a key
        // holds each RHS variable's data binding and time, in `rhs_vars`
        // order. Otherwise every key is distinct and the environment
        // already is its own projection, so it is searched directly.
        type MemoKey = (Vec<Option<Value>>, Vec<Option<SimTime>>);
        let rhs_vars = atoms_vars(&g.rhs);
        let memoize = atoms_vars(&g.lhs).iter().any(|v| !rhs_vars.contains(v));
        let mut memo: HashMap<MemoKey, bool> = HashMap::new();

        let mut instantiations = 0;
        let mut violations = Vec::new();
        for mut base_env in param_envs {
            // Every LHS-satisfying assignment (universal side) in turn,
            // each searched for a first RHS witness (existential side).
            self.search(&g.lhs, &g.lhs, &mut base_env, &static_cands, &mut |env| {
                instantiations += 1;
                let witness =
                    |env: &mut Env| self.search(&g.rhs, &g.rhs, env, &static_cands, &mut |_| true);
                let holds = if memoize {
                    let key: MemoKey = (
                        rhs_vars.iter().map(|k| env.vars.get(k).cloned()).collect(),
                        rhs_vars.iter().map(|k| env.times.get(k).copied()).collect(),
                    );
                    *memo.entry(key).or_insert_with_key(|(vars, times)| {
                        let mut projected = Env::new();
                        for (k, (v, t)) in rhs_vars.iter().zip(vars.iter().zip(times)) {
                            if let Some(v) = v {
                                projected.vars.insert(k.clone(), v.clone());
                            }
                            if let Some(t) = t {
                                projected.times.insert(k.clone(), *t);
                            }
                        }
                        witness(&mut projected)
                    })
                } else {
                    witness(env)
                };
                if !holds && violations.len() < MAX_VIOLATIONS {
                    violations.push(GuaranteeViolation {
                        instantiation: env.describe(),
                    });
                }
                false
            });
        }
        GuaranteeReport {
            name: g.name.clone(),
            holds: violations.is_empty(),
            instantiations,
            violations,
        }
    }

    /// Depth-first search of the assignments extending `env` that
    /// satisfy the conjunction `remaining`, assigned in place. `done`
    /// sees each full assignment and returns `true` to stop the search;
    /// the result says whether it stopped. `all` is the whole
    /// conjunction (see [`Evaluator::expand_atom`]). Assignments come
    /// in lexicographic order over the per-atom choices, with their
    /// multiplicity: the order and count an atom-by-atom breadth-first
    /// expansion would list.
    fn search(
        &self,
        remaining: &[GAtom],
        all: &[GAtom],
        env: &mut Env,
        cands: &BTreeMap<String, Vec<SimTime>>,
        done: &mut dyn FnMut(&mut Env) -> bool,
    ) -> bool {
        let Some((first, rest)) = remaining.split_first() else {
            return done(env);
        };
        self.expand_atom(first, all, env, cands, &mut |e| {
            self.search(rest, all, e, cands, done)
        })
    }

    /// Calls `emit` on each extension of `env` satisfying `atom`,
    /// stopping as soon as it returns `true`; returns whether it
    /// stopped. Time variables are assigned in place and unassigned
    /// again before returning. `all_atoms` is the surrounding
    /// conjunction: candidates for a fresh time variable are derived
    /// from *every* atom relating it to already-assigned variables, not
    /// just the one being evaluated (e.g. `t2` first appears in
    /// `(X = y) @ t2` but is constrained by `t1 - κ < t2` later in the
    /// conjunction).
    fn expand_atom(
        &self,
        atom: &GAtom,
        all_atoms: &[GAtom],
        env: &mut Env,
        cands: &BTreeMap<String, Vec<SimTime>>,
        emit: &mut dyn FnMut(&mut Env) -> bool,
    ) -> bool {
        // Assign any unassigned time variables of this atom first,
        // smallest name first. A variable already carrying a data
        // binding is *not* free: the §6.3 monitor guarantee binds `s`
        // from the auxiliary item `Tb` and then uses it as a time
        // (timestamps stored in CM data).
        let free = atom_time_exprs(atom)
            .filter_map(time_var)
            .filter(|v| !env.times.contains_key(*v) && !env.vars.contains_key(*v))
            .min();
        if let Some(v) = free {
            let statics: &[SimTime] = cands.get(v).map_or(&[], Vec::as_slice);
            // Candidates derived from already-resolved variables that
            // any TimeCmp atom of the conjunction relates `v` to
            // (e.g. `t2 ≤ t1` / `t1 − κ < t2` with `t1` fixed): the
            // other side's value, corrected for `v`'s own offset, with
            // ±1 ms for strictness. The same atoms confine `v` to the
            // window `[lo, hi]`: any other value fails one of them when
            // the search reaches it, as its other side is already fixed.
            let horizon_ms = i128::from(self.horizon.as_millis());
            let (mut lo, mut hi) = (0, horizon_ms);
            let mut dynamic: Vec<SimTime> = Vec::new();
            for other in all_atoms {
                let GAtom::TimeCmp(a, op, b) = other else {
                    continue;
                };
                for (mine, op, theirs) in [(a, *op, b), (b, flip(*op), a)] {
                    let my_shift = match mine {
                        TimeExpr::Var(name) if name == v => 0i64,
                        TimeExpr::Offset(name, off) if name == v => *off,
                        _ => continue,
                    };
                    let Some(o) = resolve_signed(theirs, env) else {
                        continue;
                    };
                    // `v op at`.
                    let at = o - i128::from(my_shift);
                    match op {
                        CmpOp::Lt => hi = hi.min(at - 1),
                        CmpOp::Le => hi = hi.min(at),
                        CmpOp::Gt => lo = lo.max(at + 1),
                        CmpOp::Ge => lo = lo.max(at),
                        CmpOp::Eq => (lo, hi) = (lo.max(at), hi.min(at)),
                        CmpOp::Ne => {}
                    }
                    for delta in [-1, 0, 1] {
                        let ms = at + delta;
                        if (0..=horizon_ms).contains(&ms) {
                            dynamic.push(SimTime::from_millis(ms as u64));
                        }
                    }
                }
            }
            dynamic.sort_unstable();
            dynamic.dedup();
            let fresh = |d: &SimTime| statics.binary_search(d).is_err();

            // Fast path: a single-variable `@` atom over a fully-bound
            // condition. Its satisfying static candidates depend only
            // on (condition, bindings), so they are cached and
            // replayed from the window's start; only the env-dependent
            // dynamic candidates in the window are probed individually.
            if let GAtom::At(cond, te) = atom {
                let (off, applies) = match te {
                    TimeExpr::Var(name) => (0i64, name == v),
                    TimeExpr::Offset(name, off) => (*off, name == v),
                    TimeExpr::Const(_) => (0, false),
                };
                let cvars = self.cond_vars_of(cond);
                if applies && cvars.iter().all(|cv| env.vars.contains_key(cv)) {
                    let sat = self.at_sat_cached(cond, off, statics, env, &cvars);
                    let ms = |t: SimTime| i128::from(t.as_millis());
                    let first = sat.partition_point(|&(c, _)| ms(c) < lo);
                    let known = sat[first..]
                        .iter()
                        .take_while(|&&(c, _)| ms(c) <= hi)
                        .map(|&(c, n)| (c, Some(n)));
                    let probed = dynamic
                        .iter()
                        .filter(|&&d| (lo..=hi).contains(&ms(d)) && fresh(&d));
                    return self.assign_each(v, known, probed, atom, all_atoms, env, cands, emit);
                }
            }

            let statics = statics.iter().map(|&c| (c, None));
            let probed = dynamic.iter().filter(|d| fresh(d));
            return self.assign_each(v, statics, probed, atom, all_atoms, env, cands, emit);
        }

        // Fully time-assigned: evaluate. Time variables resolve from
        // the time assignment first, then from data bindings holding an
        // integer (timestamps stored in auxiliary items, as in the §6.3
        // monitor guarantee). Offsets are computed *signed*: `t − 30s`
        // near the start of the trace is a legitimate (empty-interval /
        // always-satisfied-bound) case, not an error.
        match atom {
            GAtom::TimeCmp(a, op, b) => {
                let (Some(ta), Some(tb)) = (resolve_signed(a, env), resolve_signed(b, env)) else {
                    return false;
                };
                let cmp_ok = match op {
                    CmpOp::Eq => ta == tb,
                    CmpOp::Ne => ta != tb,
                    CmpOp::Lt => ta < tb,
                    CmpOp::Le => ta <= tb,
                    CmpOp::Gt => ta > tb,
                    CmpOp::Ge => ta >= tb,
                };
                cmp_ok && emit(env)
            }
            GAtom::At(cond, te) => {
                let Some(ms) = resolve_signed(te, env)
                    .filter(|ms| (0..=i128::from(self.horizon.as_millis())).contains(ms))
                else {
                    return false;
                };
                self.probe(cond, SimTime::from_millis(ms as u64), env, true)
                    .iter_mut()
                    .any(emit)
            }
            GAtom::Throughout(cond, a, b) | GAtom::Sometime(cond, a, b) => {
                let throughout = matches!(atom, GAtom::Throughout(..));
                let (Some(ta), Some(tb)) = (resolve_signed(a, env), resolve_signed(b, env)) else {
                    return false;
                };
                // An empty window: `@@` holds vacuously, `@?` finds no
                // instant. A `@?` window wholly before 0 finds none
                // either; a `@@` one reads the state at 0.
                if ta > tb || (!throughout && tb < 0) {
                    return throughout && emit(env);
                }
                let instant =
                    |ms: i128| SimTime::from_millis(u64::try_from(ms.max(0)).unwrap_or(u64::MAX));
                let (ta, tb) = (instant(ta), instant(tb));
                // The condition reads the same values from one change
                // point to the next, so the window's start and the change
                // points inside it are every instant that matters. Those
                // past the horizon count: a window may end there.
                let points = self.change_points(cond, env);
                let inside =
                    points.partition_point(|&t| t <= ta)..points.partition_point(|&t| t <= tb);
                let mut instants = std::iter::once(ta).chain(points[inside].iter().copied());
                let mut holds_at = |t| !self.probe(cond, t, env, false).is_empty();
                let ok = if throughout {
                    instants.all(&mut holds_at)
                } else {
                    instants.any(&mut holds_at)
                };
                ok && emit(env)
            }
        }
    }

    /// Assigns the free time variable `v` to each candidate in
    /// ascending time and continues the search there, stopping as soon
    /// as `emit` returns `true`; `v` is unassigned again on return.
    /// `known` yields static candidates, each with its push count when
    /// the satisfying-candidate cache already knows it; `probed` yields
    /// ascending dynamic candidates not among them. A candidate without
    /// a count is evaluated through [`Evaluator::expand_atom`].
    /// Assigning in place matters: candidate counts run into the
    /// millions on dense traces, and cloning the whole env per
    /// candidate dominated evaluation time.
    #[allow(clippy::too_many_arguments)]
    fn assign_each<'c>(
        &self,
        v: &str,
        known: impl Iterator<Item = (SimTime, Option<u32>)>,
        probed: impl Iterator<Item = &'c SimTime>,
        atom: &GAtom,
        all_atoms: &[GAtom],
        env: &mut Env,
        cands: &BTreeMap<String, Vec<SimTime>>,
        emit: &mut dyn FnMut(&mut Env) -> bool,
    ) -> bool {
        let mut known = known.peekable();
        let mut probed = probed.peekable();
        env.times.insert(v.to_owned(), SimTime::ZERO);
        let mut stopped = false;
        while !stopped {
            let next = match (known.peek(), probed.peek()) {
                (Some(&(tk, _)), Some(&&tp)) if tp < tk => probed.next().map(|&t| (t, None)),
                (Some(_), _) => known.next(),
                (None, _) => probed.next().map(|&t| (t, None)),
            };
            let Some((t, count)) = next else {
                break;
            };
            *env.times.get_mut(v).expect("just inserted") = t;
            stopped = match count {
                Some(n) => (0..n).any(|_| emit(env)),
                None => self.expand_atom(atom, all_atoms, env, cands, emit),
            };
        }
        env.times.remove(v);
        stopped
    }

    /// Evaluate `cond` at instant `t` for the search (see
    /// [`Evaluator::eval_cond`]): its satisfying binding extensions,
    /// counted in [`EvalStats::probe_misses`].
    fn probe(&self, cond: &Cond, t: SimTime, env: &Env, allow_bind: bool) -> Vec<Env> {
        self.counters
            .probe_misses
            .set(self.counters.probe_misses.get() + 1);
        let mut out = Vec::new();
        self.eval_cond(cond, t, env, allow_bind, &mut out);
        out
    }

    /// Satisfying static candidates for a single-variable `@` atom
    /// over a fully-bound condition: `(candidate, push count)` pairs,
    /// ascending, cached per (condition node, occurrence offset,
    /// bindings). `off` is the occurrence's own offset (`cond @ v +
    /// off` probes at `candidate + off`); out-of-horizon probes yield
    /// nothing, exactly as in the ground evaluation.
    fn at_sat_cached(
        &self,
        cond: &Cond,
        off: i64,
        statics: &[SimTime],
        env: &Env,
        cvars: &[String],
    ) -> AtSat {
        let key = (
            cond as *const Cond as usize,
            off,
            cvars
                .iter()
                .map(|v| env.vars.get(v).cloned())
                .collect::<Vec<_>>(),
        );
        if let Some(sat) = self.at_memo.borrow().get(&key) {
            self.counters
                .atom_hits
                .set(self.counters.atom_hits.get() + 1);
            return Rc::clone(sat);
        }
        let sat: AtSat = Rc::new(self.at_sat_segments(cond, off, statics, env));
        self.at_memo.borrow_mut().insert(key, Rc::clone(&sat));
        self.counters
            .atom_misses
            .set(self.counters.atom_misses.get() + 1);
        sat
    }

    /// Instant 0 and the change points of the items `cond` names under
    /// `env`, ascending. Under that binding the condition reads a fixed
    /// set of ground items, so its truth can change only at these
    /// instants. An item with a `*` or unbound parameter contributes
    /// none: it reads nothing at any instant. Points past the horizon
    /// are kept.
    fn change_points(&self, cond: &Cond, env: &Env) -> Vec<SimTime> {
        let mut points = vec![SimTime::ZERO];
        cond.visit(&mut |m| {
            if let Mention::Item(p) = m {
                if let Some(item) = ground(p, env) {
                    points.extend(self.idx.changes(&item).iter().map(|&(t, _)| t));
                }
            }
        });
        points.sort_unstable();
        points.dedup();
        points
    }

    /// Builds [`Evaluator::at_sat_cached`]'s list from segments. The
    /// fully bound condition's [`Evaluator::change_points`] cut
    /// `[0, horizon]` into segments; the condition is evaluated once per
    /// segment that some `c + off` falls in, and every such candidate
    /// `c` gets that push count. The cost follows the bound items'
    /// history, not the grid.
    fn at_sat_segments(
        &self,
        cond: &Cond,
        off: i64,
        statics: &[SimTime],
        env: &Env,
    ) -> Vec<(SimTime, u32)> {
        let bounds = self.change_points(cond, env);
        let ms = |t: SimTime| i128::from(t.as_millis());
        // Index of the first candidate probing at or after `at` (in
        // i128, as `off` may reach ±(2^63 - 1) ms).
        let from = |at: i128| statics.partition_point(|&c| ms(c) + i128::from(off) < at);
        let mut sat = Vec::new();
        let mut lo = from(0);
        for (i, &start) in bounds.iter().enumerate() {
            if start > self.horizon {
                break;
            }
            let end_ms = bounds
                .get(i + 1)
                .map_or(ms(self.horizon), |&t| ms(t) - 1)
                .min(ms(self.horizon));
            let hi = from(end_ms + 1);
            if hi > lo {
                let n = self.probe(cond, start, env, true).len();
                let n = u32::try_from(n).expect("probe count overflow");
                if n > 0 {
                    sat.extend(statics[lo..hi].iter().map(|&c| (c, n)));
                }
            }
            lo = hi;
        }
        sat
    }

    /// Unit reference for [`Evaluator::at_sat_segments`]: probe the
    /// condition at every candidate.
    #[cfg(test)]
    fn at_sat_sweep(
        &self,
        cond: &Cond,
        off: i64,
        statics: &[SimTime],
        env: &Env,
    ) -> Vec<(SimTime, u32)> {
        let horizon_ms = i128::from(self.horizon.as_millis());
        let mut sat = Vec::new();
        for &c in statics {
            let ms = i128::from(c.as_millis()) + i128::from(off);
            if !(0..=horizon_ms).contains(&ms) {
                continue;
            }
            let probe = self.probe(cond, SimTime::from_millis(ms as u64), env, true);
            if !probe.is_empty() {
                sat.push((c, u32::try_from(probe.len()).expect("probe count overflow")));
            }
        }
        sat
    }

    /// The (sorted) variable names of a condition, cached per node.
    fn cond_vars_of(&self, cond: &Cond) -> Rc<[String]> {
        let key = cond as *const Cond as usize;
        if let Some(vs) = self.cond_vars_cache.borrow().get(&key) {
            return Rc::clone(vs);
        }
        let mut set = BTreeSet::new();
        cond_vars(cond, &mut set);
        let vs: Rc<[String]> = set.into_iter().collect();
        self.cond_vars_cache
            .borrow_mut()
            .insert(key, Rc::clone(&vs));
        vs
    }

    /// Evaluate a condition at instant `t`, pushing each satisfying
    /// binding extension. With `allow_bind`, an `item = var` comparison
    /// against an unbound variable binds it (the paper's implicit data
    /// binding); `@@`/`@?` evaluation forbids it because a binding
    /// valid at one instant must not leak to others.
    fn eval_cond(&self, cond: &Cond, t: SimTime, env: &Env, allow_bind: bool, out: &mut Vec<Env>) {
        match cond {
            Cond::True => out.push(env.clone()),
            Cond::And(a, b) => {
                let mut mid = Vec::new();
                self.eval_cond(a, t, env, allow_bind, &mut mid);
                for e in mid {
                    self.eval_cond(b, t, &e, allow_bind, out);
                }
            }
            Cond::Or(a, b) => {
                self.eval_cond(a, t, env, allow_bind, out);
                self.eval_cond(b, t, env, allow_bind, out);
            }
            Cond::Not(inner) => {
                // Strict: the negated condition must be fully ground.
                let mut probe = Vec::new();
                self.eval_cond(inner, t, env, false, &mut probe);
                if probe.is_empty() {
                    out.push(env.clone());
                }
            }
            Cond::Exists(pattern) => {
                let at = AtTime {
                    idx: self.idx,
                    t,
                    env,
                };
                if Expr::Item(pattern.clone())
                    .eval(&at)
                    .is_some_and(|v| v.exists())
                {
                    out.push(env.clone());
                }
            }
            Cond::Cmp(a, op, b) => {
                let at = AtTime {
                    idx: self.idx,
                    t,
                    env,
                };
                let va = a.eval(&at);
                let vb = b.eval(&at);
                match (va, vb) {
                    (Some(va), Some(vb)) if op.apply(&va, &vb).unwrap_or(false) => {
                        out.push(env.clone());
                    }
                    (Some(v), None) if allow_bind && *op == CmpOp::Eq => {
                        if let Expr::Var(name) = b {
                            let mut e = env.clone();
                            e.vars.insert(name.clone(), v);
                            out.push(e);
                        }
                    }
                    (None, Some(v)) if allow_bind && *op == CmpOp::Eq => {
                        if let Expr::Var(name) = a {
                            let mut e = env.clone();
                            e.vars.insert(name.clone(), v);
                            out.push(e);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Static per-variable time candidates: the salient grid.
    ///
    /// A variable's grid must include, for every atom that can *reach*
    /// it through shared atoms, the instants where that atom's truth
    /// can change — a universal `t1` fails exactly when `t1 - κ`
    /// crosses a change point of the *witness* item, so per-atom grids
    /// are not sound. But a single global set (every variable sees
    /// every atom's breakpoints and every offset) over-approximates:
    /// variables in disjoint linkage components never interact — no
    /// atom mentions both, so satisfying assignments factorize — and
    /// each component can be gridded from its own atoms alone. We take
    /// connected components of the "shares an atom" relation (each
    /// atom's time-variable set is a clique) and give every component
    /// its own base-instant and offset sets.
    fn static_candidates(&self, g: &Guarantee) -> BTreeMap<String, Vec<SimTime>> {
        let horizon_ms = i128::from(self.horizon.as_millis());
        let atoms: Vec<&GAtom> = g.lhs.iter().chain(&g.rhs).collect();

        // Union-find over time variables; each atom unions its set.
        let mut var_ix: BTreeMap<String, usize> = BTreeMap::new();
        for atom in &atoms {
            for v in atom.time_vars() {
                let n = var_ix.len();
                var_ix.entry(v.to_owned()).or_insert(n);
            }
        }
        let mut parent: Vec<usize> = (0..var_ix.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for atom in &atoms {
            let mut ids = atom.time_vars().into_iter().map(|v| var_ix[v]);
            if let Some(first) = ids.next() {
                let root = find(&mut parent, first);
                for i in ids {
                    let r = find(&mut parent, i);
                    parent[r] = root;
                }
            }
        }

        // Per-component facts: instants where any member atom's truth
        // can change (condition-item breakpoints; absolute comparison
        // bounds like `t >= 62100s`, which candidates must straddle),
        // plus member offsets. Offsets are symmetrized — comparisons
        // can order the variables either way, so an offset shifts
        // grids in both directions.
        struct Comp {
            base_ts: BTreeSet<SimTime>,
            offsets: BTreeSet<i64>,
        }
        let mut comps: BTreeMap<usize, Comp> = BTreeMap::new();
        for atom in &atoms {
            let Some(&first) = atom.time_vars().first().map(|v| &var_ix[*v]) else {
                continue;
            };
            let root = find(&mut parent, first);
            let comp = comps.entry(root).or_insert_with(|| Comp {
                base_ts: [SimTime::ZERO, self.horizon].into_iter().collect(),
                offsets: [0].into_iter().collect(),
            });
            match atom {
                GAtom::At(c, _) | GAtom::Throughout(c, _, _) | GAtom::Sometime(c, _, _) => {
                    for base in cond_bases(c) {
                        comp.base_ts.extend(self.idx.breakpoints_by_base(base));
                    }
                }
                GAtom::TimeCmp(a, _, b) => {
                    for te in [a, b] {
                        if let TimeExpr::Const(c) = te {
                            comp.base_ts.insert(*c);
                        }
                    }
                }
            }
            for te in atom_time_exprs(atom) {
                if let TimeExpr::Offset(_, off) = te {
                    comp.offsets.insert(*off);
                    comp.offsets.insert(-*off);
                }
            }
        }

        let mut per_var: BTreeMap<String, BTreeSet<SimTime>> = BTreeMap::new();
        for atom in &atoms {
            for te in atom_time_exprs(atom) {
                let (var, shift) = match te {
                    TimeExpr::Var(v) => (v, 0i64),
                    TimeExpr::Offset(v, off) => (v, *off),
                    TimeExpr::Const(_) => continue,
                };
                let root = find(&mut parent, var_ix[var.as_str()]);
                let Some(comp) = comps.get(&root) else {
                    continue;
                };
                let entry = per_var.entry(var.clone()).or_default();
                for &bt in &comp.base_ts {
                    for &off in &comp.offsets {
                        for delta in [-1i64, 0, 1] {
                            // Candidate v such that v + shift lands near
                            // a breakpoint (possibly offset-shifted); in
                            // i128, as offsets may reach ±(2^63 - 1) ms.
                            let ms = i128::from(bt.as_millis()) - i128::from(shift)
                                + i128::from(off)
                                + i128::from(delta);
                            if (0..=horizon_ms).contains(&ms) {
                                entry.insert(SimTime::from_millis(ms as u64));
                            }
                        }
                    }
                }
            }
        }
        let grid: BTreeMap<String, Vec<SimTime>> = per_var
            .into_iter()
            .map(|(k, v)| (k, v.into_iter().collect()))
            .collect();
        let points: u64 = grid.values().map(|v| v.len() as u64).sum();
        self.counters
            .grid_points
            .set(self.counters.grid_points.get() + points);
        grid
    }

    /// Candidate values for parameter variables: the values appearing
    /// at the variable's position among the trace's items of that base.
    fn param_candidates(
        &self,
        g: &Guarantee,
        param_vars: &[String],
    ) -> BTreeMap<String, Vec<Value>> {
        let mut out: BTreeMap<String, BTreeSet<Value>> = BTreeMap::new();
        let mut visit_cond = |c: &Cond| {
            for (base, pos, var) in cond_param_positions(c) {
                if !param_vars.contains(&var) {
                    continue;
                }
                let entry = out.entry(var).or_default();
                for item in self.idx.items_with_base(base) {
                    if let Some(v) = item.params.get(pos) {
                        entry.insert(v.clone());
                    }
                }
            }
        };
        for atom in g.lhs.iter().chain(&g.rhs) {
            match atom {
                GAtom::At(c, _) | GAtom::Throughout(c, _, _) | GAtom::Sometime(c, _, _) => {
                    visit_cond(c)
                }
                GAtom::TimeCmp(..) => {}
            }
        }
        out.into_iter()
            .map(|(k, v)| (k, v.into_iter().collect()))
            .collect()
    }
}

/// Check a guarantee over a trace (convenience wrapper).
#[must_use]
pub fn check_guarantee(trace: &Trace, g: &Guarantee, horizon: Option<SimTime>) -> GuaranteeReport {
    Evaluator::new(trace, horizon).check(g)
}

/// Check each guarantee against one trace, in order, returning its
/// report with its evaluator's counters.
#[must_use]
pub fn check_guarantees(
    trace: &Trace,
    gs: &[Guarantee],
    horizon: Option<SimTime>,
) -> Vec<(GuaranteeReport, EvalStats)> {
    gs.iter()
        .map(|g| {
            let ev = Evaluator::new(trace, horizon);
            (ev.check(g), ev.stats())
        })
        .collect()
}

/// The former name of [`check_guarantees`], kept for the benchmark.
#[doc(hidden)]
pub use check_guarantees as check_guarantees_parallel_stats;

/// The time expressions a single atom mentions.
fn atom_time_exprs(atom: &GAtom) -> impl Iterator<Item = &TimeExpr> {
    let (a, b) = match atom {
        GAtom::At(_, t) => (t, None),
        GAtom::Throughout(_, a, b) | GAtom::Sometime(_, a, b) | GAtom::TimeCmp(a, _, b) => {
            (a, Some(b))
        }
    };
    std::iter::once(a).chain(b)
}

/// The variable a time expression reads, if any.
fn time_var(te: &TimeExpr) -> Option<&str> {
    match te {
        TimeExpr::Var(v) | TimeExpr::Offset(v, _) => Some(v),
        TimeExpr::Const(_) => None,
    }
}

/// A time expression's value in milliseconds, *signed*. A variable
/// resolves from the time assignment first, then from a data binding
/// holding an integer (timestamps stored in auxiliary items, as in the
/// §6.3 monitor guarantee). A stored timestamp can be any `i64`, so the
/// value is an `i128`: an offset on it, and the window arithmetic in
/// [`Evaluator::expand_atom`], cannot overflow.
fn resolve_signed(te: &TimeExpr, env: &Env) -> Option<i128> {
    let lookup = |v: &str| {
        env.times
            .get(v)
            .map(|t| i128::from(t.as_millis()))
            .or_else(|| env.vars.get(v).and_then(Value::as_int).map(i128::from))
    };
    match te {
        TimeExpr::Const(t) => Some(i128::from(t.as_millis())),
        TimeExpr::Var(v) => lookup(v),
        TimeExpr::Offset(v, off) => Some(lookup(v)? + i128::from(*off)),
    }
}

/// `op` with its operands swapped: `a op b` iff `b flip(op) a`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// The item `p` names under `env`'s bindings: `None` for a `*`
/// parameter or an unbound variable, which no instant can read.
fn ground(p: &ItemPattern, env: &Env) -> Option<ItemId> {
    let params = p
        .params
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => env.vars.get(v).cloned(),
            Term::Wild => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ItemId {
        base: p.base,
        params,
    })
}

/// Item base names a condition mentions, sorted and deduplicated.
fn cond_bases(c: &Cond) -> Vec<Sym> {
    let mut out = Vec::new();
    c.visit(&mut |m| {
        if let Mention::Item(p) = m {
            out.push(p.base);
        }
    });
    out.sort();
    out.dedup();
    out
}

/// `(base, position, var)` for each variable used as an item parameter.
fn cond_param_positions(c: &Cond) -> Vec<(Sym, usize, String)> {
    let mut out = Vec::new();
    c.visit(&mut |m| {
        if let Mention::Item(p) = m {
            for (i, t) in p.params.iter().enumerate() {
                if let Term::Var(v) = t {
                    out.push((p.base, i, v.clone()));
                }
            }
        }
    });
    out
}

/// Variable names a condition mentions (data and item-parameter).
fn cond_vars(c: &Cond, out: &mut BTreeSet<String>) {
    c.visit(&mut |m| match m {
        Mention::Var(v) => {
            out.insert(v.to_owned());
        }
        Mention::Item(p) => {
            for t in &p.params {
                if let Term::Var(v) = t {
                    out.insert(v.clone());
                }
            }
        }
    });
}

/// Every variable name (data or time) a group of atoms mentions.
fn atoms_vars(atoms: &[GAtom]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for a in atoms {
        for v in a.time_vars() {
            out.insert(v.to_owned());
        }
        match a {
            GAtom::At(c, _) | GAtom::Throughout(c, _, _) | GAtom::Sometime(c, _, _) => {
                cond_vars(c, &mut out)
            }
            GAtom::TimeCmp(..) => {}
        }
    }
    out
}

/// Variables used in item-parameter position anywhere in the formula.
fn collect_param_vars(g: &Guarantee) -> Vec<String> {
    let mut out = Vec::new();
    for atom in g.lhs.iter().chain(&g.rhs) {
        match atom {
            GAtom::At(c, _) | GAtom::Throughout(c, _, _) | GAtom::Sometime(c, _, _) => {
                for (_, _, v) in cond_param_positions(c) {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            GAtom::TimeCmp(..) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_core::{EventDesc, SiteId};
    use hcm_rulelang::parse_guarantee;

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

    /// X takes 1@10, 2@20; Y copies with 2s lag.
    fn copy_trace() -> Trace {
        let mut tr = Trace::new();
        tr.set_initial(ItemId::plain("X"), Value::Int(0));
        tr.set_initial(ItemId::plain("Y"), Value::Int(0));
        write(&mut tr, 10, "X", 1);
        write(&mut tr, 12, "Y", 1);
        write(&mut tr, 20, "X", 2);
        write(&mut tr, 22, "Y", 2);
        // Quiescence padding so `leads` has room after the last write.
        write(&mut tr, 60, "Pad", 0);
        tr
    }

    /// Offsets up to the largest the lexer admits check without
    /// overflow, with the verdict of an offset that has the same effect
    /// at this trace's scale (always or never true, past the horizon).
    #[test]
    fn offsets_near_the_duration_limit_check_exactly() {
        let tr = copy_trace();
        let verdict = |src: &str, off: &str| {
            let g = parse_guarantee("g", &src.replace("OFF", off)).unwrap();
            let r = check_guarantee(&tr, &g, None);
            (r.holds, r.violations.len())
        };
        let max = "9223372036854775807ms";
        for src in [
            "(X = x) @ t1 => (Y = x) @ t2 and t2 >= t1 - OFF",
            "(X = x) @ t1 => (Y = x) @ t2 and t2 >= t1 + OFF",
            "(X = x) @ t1 => (Y = x) @ t1 + OFF",
            "(X = 1) @ t1 + OFF => (Y = 1) @ t1",
            "(X = 1) @ t1 - OFF => (Y = 1) @ t1",
            "(X = x) @ t1 => (Y = x) @@ [t1 - OFF, t1 - 1000s]",
        ] {
            assert_eq!(verdict(src, max), verdict(src, "2000s"), "{src}");
        }
        assert!(verdict("(X = x) @ t1 => (Y = x) @ t2 and t2 >= t1 - OFF", max).0);
        assert!(!verdict("(X = x) @ t1 => (Y = x) @ t2 and t2 >= t1 + OFF", max).0);
    }

    #[test]
    fn y_follows_x_holds_on_copy_trace() {
        let tr = copy_trace();
        let g = parse_guarantee("f", "(Y = y) @ t1 => (X = y) @ t2 and t2 <= t1").unwrap();
        let r = check_guarantee(&tr, &g, None);
        assert!(r.holds, "{:?}", r.violations);
        assert!(r.instantiations > 0);
        assert_eq!(r.outcome(), GuaranteeOutcome::Holds);
    }

    #[test]
    fn y_follows_x_fails_when_y_invents_a_value() {
        let mut tr = copy_trace();
        write(&mut tr, 70, "Y", 99); // X never held 99
        let g = parse_guarantee("f", "(Y = y) @ t1 => (X = y) @ t2 and t2 <= t1").unwrap();
        let r = check_guarantee(&tr, &g, None);
        assert!(!r.holds);
        assert_eq!(r.outcome(), GuaranteeOutcome::Violated);
        assert!(!r.violations.is_empty());
    }

    #[test]
    fn x_leads_y_holds_and_fails() {
        let g = parse_guarantee("l", "(X = x) @ t1 => (Y = x) @ t2 and t2 >= t1").unwrap();
        let r = check_guarantee(&copy_trace(), &g, None);
        assert!(r.holds, "{:?}", r.violations);

        // Missed update: X takes 5 but Y never does.
        let mut tr = copy_trace();
        write(&mut tr, 30, "X", 5);
        write(&mut tr, 32, "X", 6);
        write(&mut tr, 34, "Y", 6);
        write(&mut tr, 80, "Pad", 1);
        let r = check_guarantee(&tr, &g, None);
        assert!(!r.holds, "value 5 was skipped by Y");
    }

    #[test]
    fn strictly_follows_detects_reordering() {
        let g = parse_guarantee(
            "sf",
            "(Y = y1) @ t1 and (Y = y2) @ t2 and t1 < t2 and y1 != y2 => \
             (X = y1) @ t3 and (X = y2) @ t4 and t3 < t4",
        )
        .unwrap();
        assert!(check_guarantee(&copy_trace(), &g, None).holds);

        // Y sees the values in the opposite order.
        let mut tr = Trace::new();
        tr.set_initial(ItemId::plain("X"), Value::Int(0));
        tr.set_initial(ItemId::plain("Y"), Value::Int(0));
        write(&mut tr, 10, "X", 1);
        write(&mut tr, 20, "X", 2);
        write(&mut tr, 30, "Y", 2);
        write(&mut tr, 40, "Y", 1);
        let r = check_guarantee(&tr, &g, None);
        assert!(!r.holds, "reordered propagation must violate (3)");
    }

    #[test]
    fn metric_follows_depends_on_kappa() {
        // Y lags X by 2s.
        let tr = copy_trace();
        let wide = parse_guarantee(
            "m",
            "(Y = y) @ t1 => (X = y) @ t2 and t1 - 30s < t2 and t2 <= t1",
        )
        .unwrap();
        assert!(check_guarantee(&tr, &wide, None).holds);
        // κ = 1s: at t1 = 12s, X=1 started at 10s which is ≥ 1s earlier…
        // but X still holds 1 at t1 itself, so (X = y)@t2 with t2 = t1
        // satisfies the bound. Make X move on so the old value expires.
        let mut tr2 = Trace::new();
        tr2.set_initial(ItemId::plain("X"), Value::Int(0));
        tr2.set_initial(ItemId::plain("Y"), Value::Int(0));
        write(&mut tr2, 10, "X", 1);
        write(&mut tr2, 11, "X", 2); // X=1 held only 1s
        write(&mut tr2, 20, "Y", 1); // Y reflects it 9s later
        let narrow = parse_guarantee(
            "m",
            "(Y = y) @ t1 => (X = y) @ t2 and t1 - 5s < t2 and t2 <= t1",
        )
        .unwrap();
        let r = check_guarantee(&tr2, &narrow, None);
        assert!(
            !r.holds,
            "Y holds a value X last had 9s ago; κ = 5s must fail"
        );
        let wide2 = parse_guarantee(
            "m",
            "(Y = y) @ t1 => (X = y) @ t2 and t1 - 60s < t2 and t2 <= t1",
        )
        .unwrap();
        assert!(check_guarantee(&tr2, &wide2, None).holds);
    }

    #[test]
    fn monitor_guarantee_with_aux_timestamp() {
        // Flag=true and Tb=s (ms) ⇒ X = Y throughout [s, t-2s].
        let mut tr = Trace::new();
        tr.set_initial(ItemId::plain("X"), Value::Int(7));
        tr.set_initial(ItemId::plain("Y"), Value::Int(7));
        tr.set_initial(ItemId::plain("Flag"), Value::Bool(true));
        tr.set_initial(ItemId::plain("Tb"), Value::Int(0));
        write(&mut tr, 50, "Pad", 0);
        let g = parse_guarantee(
            "mon",
            "(Flag = true and Tb = s) @ t => (X = Y) @@ [s, t - 2s]",
        )
        .unwrap();
        let r = check_guarantee(&tr, &g, None);
        assert!(r.holds, "{:?}", r.violations);

        // Now X diverges while Flag stays true: violated.
        let mut tr2 = tr.clone();
        write(&mut tr2, 20, "X", 9);
        write(&mut tr2, 60, "Pad", 1);
        let r2 = check_guarantee(&tr2, &g, None);
        assert!(
            !r2.holds,
            "Flag=true while X≠Y must violate the monitor guarantee"
        );
    }

    #[test]
    fn monitor_guarantee_flag_false_is_vacuous() {
        let mut tr = Trace::new();
        tr.set_initial(ItemId::plain("X"), Value::Int(1));
        tr.set_initial(ItemId::plain("Y"), Value::Int(2));
        tr.set_initial(ItemId::plain("Flag"), Value::Bool(false));
        tr.set_initial(ItemId::plain("Tb"), Value::Int(0));
        write(&mut tr, 50, "Pad", 0);
        let g = parse_guarantee(
            "mon",
            "(Flag = true and Tb = s) @ t => (X = Y) @@ [s, t - 2s]",
        )
        .unwrap();
        let r = check_guarantee(&tr, &g, None);
        assert_eq!(r.outcome(), GuaranteeOutcome::Vacuous);
    }

    #[test]
    fn refint_sometime_window() {
        // project(i) appears; salary(i) appears 10s later — within the
        // 24h window.
        let mut tr = Trace::new();
        let proj = ItemId::with("project", [Value::from("e1")]);
        let sal = ItemId::with("salary", [Value::from("e1")]);
        tr.push(
            SimTime::from_secs(100),
            SiteId::new(0),
            EventDesc::Ws {
                item: proj.clone(),
                old: None,
                new: Value::Int(1),
            },
            None,
            None,
            None,
        );
        tr.push(
            SimTime::from_secs(110),
            SiteId::new(1),
            EventDesc::Ws {
                item: sal.clone(),
                old: None,
                new: Value::Int(50),
            },
            None,
            None,
            None,
        );
        let g = parse_guarantee(
            "ri",
            "exists(project(i)) @ t => exists(salary(i)) @? [t, t + 86400s]",
        )
        .unwrap();
        let r = check_guarantee(&tr, &g, None);
        assert!(r.holds, "{:?}", r.violations);

        // A dangling project record with a *short* window fails.
        let mut tr2 = Trace::new();
        tr2.push(
            SimTime::from_secs(100),
            SiteId::new(0),
            EventDesc::Ws {
                item: ItemId::with("project", [Value::from("e2")]),
                old: None,
                new: Value::Int(1),
            },
            None,
            None,
            None,
        );
        // pad the horizon far past the window
        tr2.push(
            SimTime::from_secs(400),
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
        let g2 = parse_guarantee(
            "ri",
            "exists(project(i)) @ t => exists(salary(i)) @? [t, t + 60s]",
        )
        .unwrap();
        let r2 = check_guarantee(&tr2, &g2, None);
        assert!(!r2.holds);
    }

    #[test]
    fn parameterized_copy_guarantee_over_employees() {
        let mut tr = Trace::new();
        for (t, base, id, v) in [
            (10u64, "salary1", "e1", 100i64),
            (12, "salary2", "e1", 100),
            (20, "salary1", "e2", 200),
            (22, "salary2", "e2", 200),
        ] {
            let item = ItemId::with(base, [Value::from(id)]);
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
        let g = parse_guarantee(
            "pf",
            "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1",
        )
        .unwrap();
        let r = check_guarantee(&tr, &g, None);
        assert!(r.holds, "{:?}", r.violations);

        // Cross-employee leak: salary2(e1) takes salary1(e2)'s value.
        let mut tr2 = tr.clone();
        let item = ItemId::with("salary2", [Value::from("e1")]);
        let old = tr2.value_at(&item, SimTime::from_secs(30));
        tr2.push(
            SimTime::from_secs(30),
            SiteId::new(0),
            EventDesc::Ws {
                item,
                old: old.clone(),
                new: Value::Int(200),
            },
            old,
            None,
            None,
        );
        let r2 = check_guarantee(&tr2, &g, None);
        assert!(
            !r2.holds,
            "salary2(e1)=200 was never a value of salary1(e1)"
        );
    }

    #[test]
    fn unconditional_invariant() {
        let mut tr = Trace::new();
        tr.set_initial(ItemId::plain("X"), Value::Int(1));
        tr.set_initial(ItemId::plain("Y"), Value::Int(5));
        write(&mut tr, 10, "X", 3);
        let g = parse_guarantee("inv", "(X <= Y) @ t").unwrap();
        // No LHS: the RHS must be satisfiable (∃t). It is.
        let r = check_guarantee(&tr, &g, None);
        assert!(r.holds);
    }

    #[test]
    fn empty_trace_is_vacuous() {
        let tr = Trace::new();
        let g = parse_guarantee("f", "(Y = y) @ t1 => (X = y) @ t2 and t2 <= t1").unwrap();
        let r = check_guarantee(&tr, &g, None);
        assert_eq!(r.outcome(), GuaranteeOutcome::Vacuous);
    }

    /// `(holds, instantiations, violation strings in order)`.
    fn summary(r: &GuaranteeReport) -> (bool, usize, Vec<String>) {
        let vs = r.violations.iter().map(ToString::to_string).collect();
        (r.holds, r.instantiations, vs)
    }

    /// A two-atom LHS with more than `MAX_VIOLATIONS` failing
    /// instantiations: the kept strings are the first ones in
    /// lexicographic (t1, t2) order, so they pin the search order.
    #[test]
    fn report_pinned_past_violation_cap() {
        let mut tr = Trace::new();
        tr.set_initial(ItemId::plain("X"), Value::Int(0));
        tr.set_initial(ItemId::plain("Y"), Value::Int(0));
        write(&mut tr, 10, "X", 1);
        write(&mut tr, 20, "X", 2);
        write(&mut tr, 30, "Y", 2);
        write(&mut tr, 40, "Y", 1);
        write(&mut tr, 60, "Pad", 0);
        let g = parse_guarantee(
            "sf",
            "(Y = y1) @ t1 and (Y = y2) @ t2 and t1 < t2 and y1 != y2 => \
             (X = y1) @ t3 and (X = y2) @ t4 and t3 < t4",
        )
        .unwrap();
        let r = check_guarantee(&tr, &g, None);
        assert_eq!(
            summary(&r),
            (
                false,
                33,
                [
                    "30.000s, t2=t=40.000s",
                    "30.000s, t2=t=40.001s",
                    "30.000s, t2=t=59.999s",
                    "30.000s, t2=t=60.000s",
                    "30.001s, t2=t=40.000s",
                    "30.001s, t2=t=40.001s",
                    "30.001s, t2=t=59.999s",
                    "30.001s, t2=t=60.000s",
                ]
                .map(|ts| format!("no witness for [y1=2, y2=1 ; t1=t={ts}]"))
                .to_vec()
            )
        );
    }

    /// An `or`-headed LHS whose branches both hold yields one
    /// instantiation per branch, duplicates included: through the
    /// generic candidate loop when the `or` binds `v`, and through the
    /// cached static candidates when it is fully bound. In the second
    /// guarantee the `@@` atom assigns `t2` in place under each `t1`,
    /// so `t2` must be unassigned again before the next `t1`.
    #[test]
    fn report_pinned_for_or_multiplicity() {
        let mut tr = Trace::new();
        for base in ["X", "Y", "Z"] {
            tr.set_initial(ItemId::plain(base), Value::Int(0));
        }
        write(&mut tr, 10, "X", 1);
        write(&mut tr, 15, "Z", 1);
        write(&mut tr, 20, "Y", 2);
        write(&mut tr, 30, "Pad", 0);
        let g =
            parse_guarantee("or", "(X = v or Y = v) @ t1 => (Z = v) @ t2 and t2 <= t1").unwrap();
        let r = check_guarantee(&tr, &g, None);
        assert_eq!(
            summary(&r),
            (
                false,
                26,
                [
                    "v=1 ; t1=t=10.000s",
                    "v=1 ; t1=t=10.001s",
                    "v=1 ; t1=t=14.999s",
                    "v=2 ; t1=t=20.000s",
                    "v=2 ; t1=t=20.001s",
                    "v=2 ; t1=t=29.999s",
                    "v=2 ; t1=t=30.000s",
                ]
                .map(|e| format!("no witness for [{e}]"))
                .to_vec()
            )
        );

        let g = parse_guarantee(
            "or_bound",
            "(X = 0 or Y = 0) @ t1 and (Z = 0) @@ [t2, t2] and t2 <= t1 => (X = 0) @ t1",
        )
        .unwrap();
        let r = check_guarantee(&tr, &g, None);
        assert_eq!(
            summary(&r),
            (
                false,
                48,
                [
                    "10.000s, t2=t=0.000s",
                    "10.000s, t2=t=0.001s",
                    "10.000s, t2=t=9.999s",
                    "10.000s, t2=t=10.000s",
                    "10.001s, t2=t=0.000s",
                    "10.001s, t2=t=0.001s",
                    "10.001s, t2=t=9.999s",
                    "10.001s, t2=t=10.000s",
                ]
                .map(|ts| format!("no witness for [ ; t1=t={ts}]"))
                .to_vec()
            )
        );
    }

    /// A timestamp stored in the trace can be any `i64`. An offset on it
    /// and the windows it bounds must give the verdicts of exact
    /// arithmetic, and must not overflow: a wrapped `s + 1s` would turn
    /// an empty window into one reaching back to 0, and a bound that
    /// admits every instant into one that admits none.
    #[test]
    fn stored_timestamps_at_the_ends_of_i64_do_not_overflow() {
        let forms = [
            "(Tb = s) @ t => (X = 0) @@ [s + 1s, t]",
            "(Tb = s) @ t => (X = 0) @ u and u <= s + 1s",
            "(Tb = s) @ t => (X = 0) @ u and u >= s - 1s",
        ]
        .map(|src| parse_guarantee("ts", src).unwrap());
        for (tb, want) in [
            (i64::MAX, [true, true, false]),
            (i64::MIN, [false, false, true]),
            (i64::MAX - 500, [true, true, false]),
        ] {
            // X = 0 until 10s, so only a window reaching 10s fails.
            let mut tr = Trace::new();
            tr.set_initial(ItemId::plain("X"), Value::Int(0));
            tr.set_initial(ItemId::plain("Tb"), Value::Int(tb));
            write(&mut tr, 10, "X", 1);
            write(&mut tr, 20, "Pad", 0);
            for (g, want) in forms.iter().zip(want) {
                let r = check_guarantee(&tr, g, None);
                assert_eq!(r.holds, want, "Tb={tb}: {g:?} {:?}", r.violations);
                assert!(r.instantiations > 0);
            }
        }
    }

    /// Minimal deterministic generator (SplitMix64).
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % ((hi - lo) as u64 + 1)) as i64
        }
    }

    /// The segment builder against the per-point sweep, on
    /// random traces with same-instant writes, over conditions with
    /// `or` multiplicity, parameters (bound and `*`) and negation, at
    /// offsets that push `c + off` below 0 and past the horizon.
    #[test]
    fn segment_builder_matches_per_point_sweep() {
        let conds = [
            "(X = 1) @ t",
            "(X = y) @ t",
            "(X = y or Y = y) @ t",
            "(X = 1 or X = 1 or Y < X) @ t",
            "(X < Y and not (Y = 2)) @ t",
            "(s(n) = y) @ t",
            "(s(n) = X or s(m) = y) @ t",
            "exists(s(n)) @ t",
            "(exists(s(*)) or not (s(*) = 1)) @ t",
            "(s(*) = y or X = y) @ t",
        ]
        .map(|src| match &parse_guarantee("c", src).unwrap().rhs[0] {
            GAtom::At(c, _) => c.clone(),
            other => panic!("not an `@` atom: {other:?}"),
        });
        let items = [
            ItemId::plain("X"),
            ItemId::plain("Y"),
            ItemId::with("s", [Value::from("e1")]),
            ItemId::with("s", [Value::from("e2")]),
        ];
        let mut g = Gen(0x5E6_0001);
        let mut nonempty = 0;
        for _ in 0..200 {
            let mut tr = Trace::new();
            tr.set_initial(items[0].clone(), Value::Int(g.int_in(0, 2)));
            // Write times from a narrow range, so instants repeat.
            let mut writes: Vec<(u64, usize, i64)> = (0..g.int_in(0, 12))
                .map(|_| {
                    (
                        g.int_in(0, 20) as u64 * 10,
                        g.int_in(0, 3) as usize,
                        g.int_in(0, 3),
                    )
                })
                .collect();
            writes.sort_by_key(|w| w.0);
            for (t, i, v) in writes {
                let new = if v == 3 { Value::Null } else { Value::Int(v) };
                tr.push(
                    SimTime::from_millis(t),
                    SiteId::new(0),
                    EventDesc::Ws {
                        item: items[i].clone(),
                        old: None,
                        new,
                    },
                    None,
                    None,
                    None,
                );
            }
            // Horizons before, at and after the last write.
            let horizon = SimTime::from_millis(g.int_in(1, 250) as u64);
            let ev = Evaluator::new(&tr, Some(horizon));
            let mut statics: Vec<SimTime> = (0..g.int_in(0, 40))
                .map(|_| SimTime::from_millis(g.int_in(0, horizon.as_millis() as i64) as u64))
                .collect();
            statics.sort();
            statics.dedup();
            let off = g.int_in(-80, 80);
            let mut env = Env::new();
            env.vars.insert("y".into(), Value::Int(g.int_in(0, 2)));
            for var in ["n", "m"] {
                let id = ["e1", "e2", "e3"][g.int_in(0, 2) as usize];
                env.vars.insert(var.into(), Value::from(id));
            }
            for cond in &conds {
                let want = ev.at_sat_sweep(cond, off, &statics, &env);
                nonempty += usize::from(!want.is_empty());
                assert_eq!(
                    ev.at_sat_segments(cond, off, &statics, &env),
                    want,
                    "{cond} off={off} horizon={horizon} env={env:?} statics={statics:?}\n{tr}"
                );
            }
        }
        assert!(nonempty > 500, "too few satisfiable cases: {nonempty}");
    }
}
