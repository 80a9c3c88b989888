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

use hcm_core::{ItemId, SimTime, StateIndex, Sym, Term, Trace, Value};
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
    /// Condition probes answered from the memo table.
    pub probe_hits: u64,
    /// Condition probes evaluated and recorded.
    pub probe_misses: u64,
    /// `@`-atom expansions answered from the satisfying-candidate
    /// cache.
    pub atom_hits: u64,
    /// `@`-atom expansions swept over the static grid and recorded.
    pub atom_misses: u64,
    /// Total static grid points across all time variables (after
    /// component pruning).
    pub grid_points: u64,
}

#[derive(Default)]
struct EvalCounters {
    probe_hits: Cell<u64>,
    probe_misses: Cell<u64>,
    atom_hits: Cell<u64>,
    atom_misses: Cell<u64>,
    grid_points: Cell<u64>,
}

/// Memo key for a pure condition probe: condition node address,
/// instant, and the condition's variable bindings in a fixed order.
type ProbeKey = (usize, SimTime, Vec<Option<Value>>);

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
    /// Pure-probe memo: number of satisfying pushes (all of which are
    /// clones of the probed env — see [`Evaluator::probe_memoized`]).
    probe_memo: RefCell<HashMap<ProbeKey, u32>>,
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
    pub fn new(trace: &'a Trace, horizon: Option<SimTime>) -> Self {
        Evaluator {
            idx: trace.index(),
            horizon: horizon.unwrap_or_else(|| trace.end_time()),
            probe_memo: RefCell::new(HashMap::new()),
            at_memo: RefCell::new(HashMap::new()),
            cond_vars_cache: RefCell::new(HashMap::new()),
            counters: EvalCounters::default(),
        }
    }

    /// Counters accumulated by every `check` on this evaluator.
    #[must_use]
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            probe_hits: self.counters.probe_hits.get(),
            probe_misses: self.counters.probe_misses.get(),
            atom_hits: self.counters.atom_hits.get(),
            atom_misses: self.counters.atom_misses.get(),
            grid_points: self.counters.grid_points.get(),
        }
    }

    /// Evaluate a guarantee.
    #[must_use]
    pub fn check(&self, g: &Guarantee) -> GuaranteeReport {
        // Both caches key on condition node addresses, which are only
        // stable within one guarantee's lifetime.
        self.probe_memo.borrow_mut().clear();
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
        // existential search. Memoizing on the projected environment
        // collapses the (often large) multiplicity of universal time
        // assignments. A key holds each RHS variable's data binding and
        // time, in `rhs_vars` order.
        type MemoKey = (Vec<Option<Value>>, Vec<Option<SimTime>>);
        let rhs_vars = atoms_vars(&g.rhs);
        let mut memo: HashMap<MemoKey, bool> = HashMap::new();

        let mut instantiations = 0;
        let mut violations = Vec::new();
        for mut base_env in param_envs {
            // Every LHS-satisfying assignment (universal side) in turn,
            // each searched for a first RHS witness (existential side).
            self.search(&g.lhs, &g.lhs, &mut base_env, &static_cands, &mut |env| {
                instantiations += 1;
                let key: MemoKey = (
                    rhs_vars.iter().map(|k| env.vars.get(k).cloned()).collect(),
                    rhs_vars.iter().map(|k| env.times.get(k).copied()).collect(),
                );
                let holds = *memo.entry(key).or_insert_with_key(|(vars, times)| {
                    let mut projected = Env::new();
                    for (k, (v, t)) in rhs_vars.iter().zip(vars.iter().zip(times)) {
                        if let Some(v) = v {
                            projected.vars.insert(k.clone(), v.clone());
                        }
                        if let Some(t) = t {
                            projected.times.insert(k.clone(), *t);
                        }
                    }
                    self.search(&g.rhs, &g.rhs, &mut projected, &static_cands, &mut |_| true)
                });
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
        // Assign any unassigned time variables of this atom first. A
        // variable already carrying a data binding is *not* free: the
        // §6.3 monitor guarantee binds `s` from the auxiliary item `Tb`
        // and then uses it as a time (timestamps stored in CM data).
        let unassigned: Vec<&str> = atom
            .time_vars()
            .into_iter()
            .filter(|v| !env.times.contains_key(*v) && !env.vars.contains_key(*v))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        if let Some(v) = unassigned.first() {
            let statics: &[SimTime] = cands.get(*v).map_or(&[], Vec::as_slice);
            // Candidates derived from already-assigned variables that
            // any TimeCmp atom of the conjunction relates `v` to
            // (e.g. `t2 ≤ t1` / `t1 − κ < t2` with `t1` fixed): the
            // other side's value, corrected for `v`'s own offset, with
            // ±1 ms for strictness.
            let mut dynamic: BTreeSet<SimTime> = BTreeSet::new();
            for other in all_atoms {
                let GAtom::TimeCmp(a, _, b) = other else {
                    continue;
                };
                let sides = [(a, b), (b, a)];
                for (mine, theirs) in sides {
                    let my_shift = match mine {
                        TimeExpr::Var(name) if name == *v => 0i64,
                        TimeExpr::Offset(name, off) if name == *v => *off,
                        _ => continue,
                    };
                    let their_val = match theirs {
                        TimeExpr::Const(t) => Some(t.as_millis() as i64),
                        TimeExpr::Var(u) => env
                            .times
                            .get(u)
                            .map(|t| t.as_millis() as i64)
                            .or_else(|| env.vars.get(u).and_then(Value::as_int)),
                        TimeExpr::Offset(u, off) => env
                            .times
                            .get(u)
                            .map(|t| t.as_millis() as i64)
                            .or_else(|| env.vars.get(u).and_then(Value::as_int))
                            .map(|t| t + off),
                    };
                    if let Some(o) = their_val {
                        for delta in [-1i64, 0, 1] {
                            let ms = o - my_shift + delta;
                            if ms >= 0 && ms as u64 <= self.horizon.as_millis() {
                                dynamic.insert(SimTime::from_millis(ms as u64));
                            }
                        }
                    }
                }
            }

            // Fast path: a single-variable `@` atom over a fully-bound
            // condition. Its satisfying static candidates depend only
            // on (condition, bindings), so they are cached and
            // replayed; only the env-dependent dynamic candidates are
            // probed individually. Interleaving keeps the output order
            // identical to the generic union enumeration below.
            if let GAtom::At(cond, te) = atom {
                let (off, applies) = match te {
                    TimeExpr::Var(name) => (0i64, name == *v),
                    TimeExpr::Offset(name, off) => (*off, name == *v),
                    TimeExpr::Const(_) => (0, false),
                };
                let cvars = self.cond_vars_of(cond);
                if applies && cvars.iter().all(|cv| env.vars.contains_key(cv)) {
                    let sat = self.at_sat_cached(cond, off, statics, env, &cvars);
                    let vkey = (*v).to_owned();
                    env.times.insert(vkey.clone(), SimTime::ZERO);
                    let mut si = sat.iter().peekable();
                    let mut di = dynamic
                        .iter()
                        .filter(|d| statics.binary_search(d).is_err())
                        .peekable();
                    let mut stopped = false;
                    while !stopped {
                        let take_static = match (si.peek(), di.peek()) {
                            (Some(&&(ts, _)), Some(&&td)) => ts < td,
                            (Some(_), None) => true,
                            (None, Some(_)) => false,
                            (None, None) => break,
                        };
                        stopped = if take_static {
                            let &(ts, n) = si.next().expect("peeked");
                            *env.times.get_mut(&vkey).expect("just inserted") = ts;
                            (0..n).any(|_| emit(env))
                        } else {
                            let &td = di.next().expect("peeked");
                            *env.times.get_mut(&vkey).expect("just inserted") = td;
                            self.expand_atom(atom, all_atoms, env, cands, emit)
                        };
                    }
                    env.times.remove(&vkey);
                    return stopped;
                }
            }

            // Assign in place and undo afterwards: candidate counts
            // run into the millions on dense traces, and cloning the
            // whole env per candidate dominated evaluation time.
            let mut candidates: BTreeSet<SimTime> = statics.iter().copied().collect();
            candidates.extend(&dynamic);
            let vkey = (*v).to_owned();
            env.times.insert(vkey.clone(), SimTime::ZERO);
            let stopped = candidates.into_iter().any(|c| {
                *env.times.get_mut(&vkey).expect("just inserted") = c;
                self.expand_atom(atom, all_atoms, env, cands, emit)
            });
            env.times.remove(&vkey);
            return stopped;
        }

        // Fully time-assigned: evaluate. Time variables resolve from
        // the time assignment first, then from data bindings holding an
        // integer (timestamps stored in auxiliary items, as in the §6.3
        // monitor guarantee). Offsets are computed *signed*: `t − 30s`
        // near the start of the trace is a legitimate (empty-interval /
        // always-satisfied-bound) case, not an error.
        let lookup = |env: &Env, v: &str| -> Option<i64> {
            env.times
                .get(v)
                .map(|t| t.as_millis() as i64)
                .or_else(|| env.vars.get(v).and_then(Value::as_int))
        };
        let resolve_signed = |te: &TimeExpr, env: &Env| -> Option<i64> {
            match te {
                TimeExpr::Const(t) => Some(t.as_millis() as i64),
                TimeExpr::Var(v) => lookup(env, v),
                TimeExpr::Offset(v, off) => Some(lookup(env, v)? + off),
            }
        };
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
                    .filter(|&ms| ms >= 0 && ms as u64 <= self.horizon.as_millis())
                else {
                    return false;
                };
                let mut bound = Vec::new();
                self.eval_cond(cond, SimTime::from_millis(ms as u64), env, true, &mut bound);
                bound.iter_mut().any(emit)
            }
            GAtom::Throughout(cond, a, b) => {
                let (Some(ta), Some(tb)) = (resolve_signed(a, env), resolve_signed(b, env)) else {
                    return false;
                };
                if ta > tb {
                    return emit(env); // empty interval: vacuous
                }
                let ta = SimTime::from_millis(ta.max(0) as u64);
                let tb = SimTime::from_millis(tb.max(0) as u64);
                let grid = self.interval_grid(cond, ta, tb);
                let ok = grid.iter().all(|&t| {
                    let mut probe = Vec::new();
                    self.eval_cond(cond, t, env, false, &mut probe);
                    !probe.is_empty()
                });
                ok && emit(env)
            }
            GAtom::Sometime(cond, a, b) => {
                let (Some(ta), Some(tb)) = (resolve_signed(a, env), resolve_signed(b, env)) else {
                    return false;
                };
                if ta > tb || tb < 0 {
                    return false;
                }
                let ta = SimTime::from_millis(ta.max(0) as u64);
                let tb = SimTime::from_millis(tb.max(0) as u64);
                let grid = self.interval_grid(cond, ta, tb);
                let ok = grid.iter().any(|&t| {
                    let mut probe = Vec::new();
                    self.eval_cond(cond, t, env, false, &mut probe);
                    !probe.is_empty()
                });
                ok && emit(env)
            }
        }
    }

    /// Evaluate a condition at instant `t`, pushing each satisfying
    /// binding extension. With `allow_bind`, an `item = var` comparison
    /// against an unbound variable binds it (the paper's implicit data
    /// binding); `@@`/`@?` evaluation forbids it because a binding
    /// valid at one instant must not leak to others.
    ///
    /// Pure evaluations (those that cannot bind) are memoized — see
    /// [`Evaluator::probe_memoized`].
    fn eval_cond(&self, cond: &Cond, t: SimTime, env: &Env, allow_bind: bool, out: &mut Vec<Env>) {
        if let Some(n) = self.probe_memoized(cond, t, env, allow_bind) {
            for _ in 0..n {
                out.push(env.clone());
            }
            return;
        }
        self.eval_cond_raw(cond, t, env, allow_bind, out);
    }

    /// Memoized condition probe. A *pure* evaluation — one that cannot
    /// bind new variables — pushes only clones of `env`, and how many
    /// is a function of (condition node, instant, the bindings of the
    /// condition's own variables). So the memo stores the push *count*
    /// (a count, not a boolean: `Or` pushes one env per satisfied
    /// branch and replay must preserve that multiplicity). With
    /// `allow_bind` the evaluation is pure exactly when every
    /// condition variable is already bound; without it, always.
    /// Returns `None` when not memoizable.
    fn probe_memoized(&self, cond: &Cond, t: SimTime, env: &Env, allow_bind: bool) -> Option<u32> {
        let vars = self.cond_vars_of(cond);
        if allow_bind && !vars.iter().all(|v| env.vars.contains_key(v)) {
            return None;
        }
        let key = (
            cond as *const Cond as usize,
            t,
            vars.iter()
                .map(|v| env.vars.get(v).cloned())
                .collect::<Vec<_>>(),
        );
        if let Some(&n) = self.probe_memo.borrow().get(&key) {
            self.counters
                .probe_hits
                .set(self.counters.probe_hits.get() + 1);
            return Some(n);
        }
        let mut probe = Vec::new();
        self.eval_cond_raw(cond, t, env, allow_bind, &mut probe);
        let n = u32::try_from(probe.len()).expect("probe count overflow");
        self.probe_memo.borrow_mut().insert(key, n);
        self.counters
            .probe_misses
            .set(self.counters.probe_misses.get() + 1);
        Some(n)
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
        let horizon_ms = self.horizon.as_millis() as i64;
        let mut sat = Vec::new();
        for &c in statics {
            let ms = c.as_millis() as i64 + off;
            if !(0..=horizon_ms).contains(&ms) {
                continue;
            }
            let mut probe = Vec::new();
            self.eval_cond_raw(cond, SimTime::from_millis(ms as u64), env, true, &mut probe);
            if !probe.is_empty() {
                sat.push((c, u32::try_from(probe.len()).expect("probe count overflow")));
            }
        }
        let sat: AtSat = Rc::new(sat);
        self.at_memo.borrow_mut().insert(key, Rc::clone(&sat));
        self.counters
            .atom_misses
            .set(self.counters.atom_misses.get() + 1);
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

    fn eval_cond_raw(
        &self,
        cond: &Cond,
        t: SimTime,
        env: &Env,
        allow_bind: bool,
        out: &mut Vec<Env>,
    ) {
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

    /// Evaluation grid inside `[a, b]` for an interval atom: the
    /// endpoints plus every change point of the mentioned items in
    /// range (values are constant in between, so this is exact).
    fn interval_grid(&self, cond: &Cond, a: SimTime, b: SimTime) -> Vec<SimTime> {
        let mut grid: BTreeSet<SimTime> = [a, b].into_iter().collect();
        for base in cond_bases(cond) {
            for &t in self.idx.breakpoints_by_base(base) {
                if t >= a && t <= b {
                    grid.insert(t);
                }
            }
        }
        grid.into_iter().collect()
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
        let horizon_ms = self.horizon.as_millis() as i64;
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
                            // a breakpoint (possibly offset-shifted).
                            let ms = bt.as_millis() as i64 - shift + off + delta;
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

/// Check several guarantees against one trace concurrently: one worker
/// per guarantee over the trace's shared [`StateIndex`],
/// `std::thread::scope` so nothing outlives the call. Guarantees are
/// independent (each `check` touches only its own evaluator state),
/// and results are joined in input order, so the output is identical
/// to checking serially — regardless of scheduling.
#[must_use]
pub fn check_guarantees_parallel(
    trace: &Trace,
    gs: &[Guarantee],
    horizon: Option<SimTime>,
) -> Vec<GuaranteeReport> {
    check_guarantees_parallel_stats(trace, gs, horizon)
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

/// [`check_guarantees_parallel`], also returning each worker's
/// evaluation counters (for observability wiring).
#[must_use]
pub fn check_guarantees_parallel_stats(
    trace: &Trace,
    gs: &[Guarantee],
    horizon: Option<SimTime>,
) -> Vec<(GuaranteeReport, EvalStats)> {
    if gs.is_empty() {
        return Vec::new();
    }
    // Build the shared index before the workers start.
    let _ = trace.index();
    std::thread::scope(|scope| {
        let handles: Vec<_> = gs
            .iter()
            .map(|g| {
                scope.spawn(move || {
                    let ev = Evaluator::new(trace, horizon);
                    let report = ev.check(g);
                    let stats = ev.stats();
                    (report, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("guarantee worker panicked"))
            .collect()
    })
}

/// The time expressions a single atom mentions.
fn atom_time_exprs(atom: &GAtom) -> Vec<&TimeExpr> {
    match atom {
        GAtom::At(_, t) => vec![t],
        GAtom::Throughout(_, a, b) | GAtom::Sometime(_, a, b) | GAtom::TimeCmp(a, _, b) => {
            vec![a, b]
        }
    }
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
}
