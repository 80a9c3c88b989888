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
//! Each check compiles its guarantee once into a plan. The data,
//! parameter and time variables get slots in name order, and an
//! assignment is two slot vectors (data bindings, time assignments)
//! that the search binds and unbinds in place. Conditions are compiled
//! to read those slots and a table of the item patterns they name; each
//! time variable keeps the time comparisons of each side that bound it.
//! Parameter variables are enumerated outermost, and under each binding
//! every item pattern resolves once to its change history, so an
//! instantiation builds no item name, clones no assignment and
//! allocates no cache key.
//!
//! Under a parameter binding an `@` atom reads a fixed set of items, so
//! its truth, and the bindings it makes, change only at their change
//! points. Both sides use that:
//!
//! - **Universal side.** An `@` atom that binds a variable is evaluated
//!   once per segment between change points, and every grid candidate
//!   in the segment is emitted with that segment's bindings, ascending
//!   and with multiplicity.
//! - **Witness side.** A fully bound `@` atom (`(salary1(n) = y) @ t2`
//!   once `n` and `y` are) caches, per binding, its satisfying segments
//!   as candidate ranges with push counts, evaluating a segment when
//!   the window its conjunction's time comparisons leave open
//!   (`t1 - 10s < t2 <= t1` once `t1` is fixed) first reaches it. The
//!   search assigns only the grid and window instants inside them.
//!
//! An interval atom (`@@`, `@?`) reads the same change points: its
//! condition is evaluated at the window's start and at each change point
//! of its items inside the window. The RHS search is memoized on the
//! RHS variables' slots only when the LHS binds a variable the RHS does
//! not mention, the one case where two instantiations can share a key.

use hcm_core::{ItemId, ItemPattern, SimTime, StateIndex, Term, Trace, Value};
use hcm_rulelang::slots::{SlotCond, SlotEnv, SlotExpr, SlotMap};
use hcm_rulelang::{CmpOp, Cond, GAtom, Guarantee, Mention, TimeExpr};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;
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

/// One (partial) assignment, by the slots of the plan it was made for:
/// data bindings (parameters included) and time assignments.
#[derive(Debug)]
struct Env {
    data: Vec<Option<Value>>,
    times: Vec<Option<SimTime>>,
}

/// Evaluation counters, exposed for observability and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Always 0: condition evaluations are not memoized. The field
    /// stays for callers that still read it.
    pub probe_hits: u64,
    /// Condition evaluations, one per instant a condition is read at; a
    /// fully bound `@` atom is read once per segment a window reaches.
    pub probe_misses: u64,
    /// `@`-atom expansions answered from the satisfying-segment cache.
    pub atom_hits: u64,
    /// `@`-atom expansions that made the cache entry of their bindings.
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

fn bump(counter: &Cell<u64>, by: u64) {
    counter.set(counter.get() + by);
}

/// A fully bound `@` atom's satisfying candidates (ms) in its `probed`
/// segments, as ascending disjoint ranges `(first, last, push count)`.
#[derive(Default)]
struct AtSat {
    ranges: Vec<(i128, i128, u32)>,
    probed: Range<usize>,
}

/// The evaluator.
pub struct Evaluator<'a> {
    idx: &'a StateIndex,
    horizon: SimTime,
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
        let mut plan = Plan::compile(self, g);
        let mut env = plan.env();
        // The RHS only reads the variables its atoms mention; LHS
        // instantiations that agree on those are equivalent for the
        // existential search. When the LHS binds a variable the RHS does
        // not mention (`t1, t2` of strictly-follows), many instantiations
        // share one projection, so the search is memoized on the RHS
        // variables' slots. Otherwise every key is distinct.
        let mut memo = SlotMemo::default();
        let mut instantiations = 0;
        let mut violations = Vec::new();
        // Outer enumeration of parameter variables, the last fastest
        // (they are item selectors: `salary1(n)` quantifies over the
        // employees in the databases).
        let values = plan.param_values(g);
        let mut pick = vec![0; values.len()];
        let mut more = values.iter().all(|vs| !vs.is_empty());
        while more {
            for ((&slot, vs), &i) in plan.params.iter().zip(&values).zip(&pick) {
                env.data[slot] = Some(vs[i].clone());
            }
            plan.bind(&env);
            let plan = &plan;
            // Every LHS-satisfying assignment (universal side) in turn,
            // each searched for a first RHS witness (existential side).
            plan.search(&plan.lhs, plan.lhs.atoms.start, &mut env, &mut |env| {
                instantiations += 1;
                let holds = if plan.memoize {
                    let (data, times) = (&plan.rhs_data[..], &plan.rhs_times[..]);
                    memo.get(0, data, times, env).unwrap_or_else(|hash| {
                        let holds = plan.witness(env);
                        memo.insert(hash, 0, data, times, env, holds);
                        holds
                    })
                } else {
                    plan.witness(env)
                };
                if !holds && violations.len() < MAX_VIOLATIONS {
                    violations.push(GuaranteeViolation {
                        instantiation: plan.describe(env),
                    });
                }
                false
            });
            // The next combination: bump the last position that does not
            // wrap, resetting those after it.
            more = (0..pick.len()).rev().any(|k| {
                pick[k] = (pick[k] + 1) % values[k].len();
                pick[k] != 0
            });
        }
        GuaranteeReport {
            name: g.name.clone(),
            holds: violations.is_empty(),
            instantiations,
            violations,
        }
    }
}

/// A time expression over slots: an instant, or a time slot (falling
/// back to the data slot of the same name, a stored timestamp) plus an
/// offset. Values are signed milliseconds.
#[derive(Clone, Copy)]
enum SlotTime {
    Const(i128),
    Var {
        slot: usize,
        data: Option<usize>,
        off: i64,
    },
}

/// A compiled [`GAtom`].
enum Form {
    At(SlotCond, SlotTime),
    Throughout(SlotCond, SlotTime, SlotTime),
    Sometime(SlotCond, SlotTime, SlotTime),
    Cmp(SlotTime, CmpOp, SlotTime),
}

/// An atom with the facts the search reads about it.
struct Atom {
    form: Form,
    /// Time slots its time expressions read, ascending (name order).
    times: Vec<usize>,
    /// Data slots its condition reads, ascending.
    vars: Vec<usize>,
    /// The entries of the item table its condition reads.
    items: Range<usize>,
}

/// One time comparison of a side, seen from a variable: `v + shift op
/// other`.
struct Bound {
    shift: i64,
    op: CmpOp,
    other: SlotTime,
}

/// One side of `⇒`: its atoms, and per time slot the comparisons of
/// this conjunction that bound it.
#[derive(Default)]
struct Side {
    atoms: Range<usize>,
    bounds: Vec<Vec<Bound>>,
}

/// A sweep's reusable buffers: the condition's unbound slots, and the
/// values each binding extension gives them.
#[derive(Default)]
struct SweepBuf {
    free: Vec<usize>,
    values: Vec<Option<Value>>,
}

/// Values cached per projection of an [`Env`] onto fixed slots. A
/// lookup tries the entry the last one found before it hashes, and
/// compares slots in place, so a hit builds no key; an insert stores one.
#[derive(Default)]
struct SlotMemo<T> {
    state: RandomState,
    buckets: HashMap<u64, Vec<usize>>,
    entries: Vec<SlotEntry<T>>,
    /// The entry the last lookup found or stored.
    last: Cell<Option<usize>>,
}

type SlotEntry<T> = (usize, Box<[Option<Value>]>, Box<[Option<SimTime>]>, T);

impl<T: Clone> SlotMemo<T> {
    /// The value stored for `tag` and `env`'s values in the `data` and
    /// `times` slots, or the key's hash for [`SlotMemo::insert`].
    fn get(&self, tag: usize, data: &[usize], times: &[usize], env: &Env) -> Result<T, u64> {
        let same = |&i: &usize| {
            let (t, d, ts, _) = &self.entries[i];
            *t == tag
                && d.iter().zip(data).all(|(v, &s)| *v == env.data[s])
                && ts.iter().zip(times).all(|(v, &s)| *v == env.times[s])
        };
        if let Some(i) = self.last.get().filter(same) {
            return Ok(self.entries[i].3.clone());
        }
        let mut h = self.state.build_hasher();
        tag.hash(&mut h);
        data.iter().for_each(|&s| env.data[s].hash(&mut h));
        times.iter().for_each(|&s| env.times[s].hash(&mut h));
        let hash = h.finish();
        let bucket = self.buckets.get(&hash).map_or(&[][..], Vec::as_slice);
        let i = bucket.iter().copied().find(same).ok_or(hash)?;
        self.last.set(Some(i));
        Ok(self.entries[i].3.clone())
    }

    fn insert(&mut self, hash: u64, tag: usize, data: &[usize], times: &[usize], env: &Env, v: T) {
        let d = data.iter().map(|&s| env.data[s].clone()).collect();
        let ts = times.iter().map(|&s| env.times[s]).collect();
        let i = self.entries.len();
        self.buckets.entry(hash).or_default().push(i);
        self.last.set(Some(i));
        self.entries.push((tag, d, ts, v));
    }
}

/// A guarantee compiled for one check (see the module docs), with the
/// state of the parameter binding being searched.
struct Plan<'e> {
    ev: &'e Evaluator<'e>,
    /// Data-variable names (parameters included), sorted: slot `i` of
    /// `Env::data` is `data[i]`.
    data: Vec<&'e str>,
    /// Time-variable names, sorted: slot `i` of `Env::times`.
    times: Vec<&'e str>,
    /// Per time slot, the data slot of the same name.
    time_data: Vec<Option<usize>>,
    /// Parameter-variable slots, in order of first mention.
    params: Vec<usize>,
    /// Every item pattern the conditions read, in atom order.
    patterns: Vec<&'e ItemPattern>,
    /// The LHS atoms, then the RHS atoms.
    atoms: Vec<Atom>,
    lhs: Side,
    rhs: Side,
    /// Per time slot, its static candidates (the salient grid).
    grid: Vec<Vec<SimTime>>,
    /// Whether the witness search is memoized, on these slots.
    memoize: bool,
    rhs_data: Vec<usize>,
    rhs_times: Vec<usize>,
    /// Under the current parameter binding: each pattern's change
    /// points, empty for a `*` parameter (it reads nothing) ...
    items: Vec<&'e [(SimTime, Value)]>,
    /// ... and per condition atom, instant 0 and its items' change
    /// times, ascending (points past the horizon are kept).
    points: Vec<Vec<SimTime>>,
    /// Per (atom, condition bindings), the fully bound atom's
    /// satisfying segments.
    at_memo: RefCell<SlotMemo<Rc<RefCell<AtSat>>>>,
    /// Reusable buffers: per time slot for its window candidates, per
    /// atom for its sweep.
    window_buf: Vec<Cell<Vec<SimTime>>>,
    sweep_buf: Vec<Cell<SweepBuf>>,
    /// Per time slot, where the cached arm last entered its grid.
    grid_at: Vec<Cell<usize>>,
}

impl<'e> Plan<'e> {
    fn compile(ev: &'e Evaluator<'e>, g: &'e Guarantee) -> Self {
        let all = g.lhs.iter().chain(&g.rhs);
        let (mut data, mut times, mut params) = (BTreeSet::new(), BTreeSet::new(), Vec::new());
        for atom in all.clone() {
            times.extend(atom.time_vars());
            if let Some(c) = cond_of(atom) {
                cond_vars(c, &mut data);
                for (_, _, v) in cond_param_positions(c) {
                    if !params.contains(&v) {
                        params.push(v);
                    }
                }
            }
        }
        let data: Vec<&str> = data.into_iter().collect();
        let times: Vec<&str> = times.into_iter().collect();
        let mut plan = Plan {
            ev,
            time_data: times.iter().map(|t| data.binary_search(t).ok()).collect(),
            params: params.iter().map(|v| slot(&data, v)).collect(),
            window_buf: times.iter().map(|_| Cell::default()).collect(),
            grid_at: times.iter().map(|_| Cell::default()).collect(),
            sweep_buf: all.clone().map(|_| Cell::default()).collect(),
            data,
            times,
            patterns: Vec::new(),
            atoms: Vec::new(),
            lhs: Side::default(),
            rhs: Side::default(),
            grid: Vec::new(),
            memoize: false,
            rhs_data: Vec::new(),
            rhs_times: Vec::new(),
            items: Vec::new(),
            points: Vec::new(),
            at_memo: RefCell::default(),
        };
        for atom in all {
            let compiled = plan.atom(atom);
            plan.atoms.push(compiled);
        }
        let split = g.lhs.len();
        plan.lhs = plan.side(0..split);
        plan.rhs = plan.side(split..plan.atoms.len());
        plan.grid = plan.static_candidates(g);
        let rhs_vars = atoms_vars(&g.rhs);
        plan.memoize = atoms_vars(&g.lhs).iter().any(|v| !rhs_vars.contains(v));
        let in_rhs = |names: &[&str]| -> Vec<usize> {
            (0..names.len())
                .filter(|&s| rhs_vars.contains(names[s]))
                .collect()
        };
        plan.rhs_data = in_rhs(&plan.data);
        plan.rhs_times = in_rhs(&plan.times);
        plan
    }

    fn atom(&mut self, atom: &'e GAtom) -> Atom {
        let start = self.patterns.len();
        let form = match atom {
            GAtom::At(c, t) => Form::At(SlotCond::compile(c, self), self.time(t)),
            GAtom::Throughout(c, a, b) => {
                let c = SlotCond::compile(c, self);
                Form::Throughout(c, self.time(a), self.time(b))
            }
            GAtom::Sometime(c, a, b) => {
                let c = SlotCond::compile(c, self);
                Form::Sometime(c, self.time(a), self.time(b))
            }
            GAtom::TimeCmp(a, op, b) => Form::Cmp(self.time(a), *op, self.time(b)),
        };
        let mut times: Vec<usize> = atom
            .time_vars()
            .into_iter()
            .map(|v| slot(&self.times, v))
            .collect();
        times.sort_unstable();
        times.dedup();
        let mut vars = BTreeSet::new();
        if let Some(c) = cond_of(atom) {
            cond_vars(c, &mut vars);
        }
        Atom {
            form,
            times,
            vars: vars.into_iter().map(|v| slot(&self.data, v)).collect(),
            items: start..self.patterns.len(),
        }
    }

    fn time(&self, te: &TimeExpr) -> SlotTime {
        let (v, off) = match te {
            TimeExpr::Const(t) => return SlotTime::Const(ms(*t)),
            TimeExpr::Var(v) => (v, 0),
            TimeExpr::Offset(v, off) => (v, *off),
        };
        let slot = slot(&self.times, v);
        SlotTime::Var {
            slot,
            data: self.time_data[slot],
            off,
        }
    }

    /// The side made of `atoms`, with each time comparison among them
    /// recorded, from both ends, under the variable it bounds.
    fn side(&self, atoms: Range<usize>) -> Side {
        let mut bounds: Vec<Vec<Bound>> = self.times.iter().map(|_| Vec::new()).collect();
        for atom in &self.atoms[atoms.clone()] {
            let Form::Cmp(a, op, b) = atom.form else {
                continue;
            };
            for (mine, op, other) in [(a, op, b), (b, flip(op), a)] {
                if let SlotTime::Var { slot, off, .. } = mine {
                    bounds[slot].push(Bound {
                        shift: off,
                        op,
                        other,
                    });
                }
            }
        }
        Side { atoms, bounds }
    }

    fn env(&self) -> Env {
        Env {
            data: vec![None; self.data.len()],
            times: vec![None; self.times.len()],
        }
    }

    fn describe(&self, env: &Env) -> String {
        fn list<T: fmt::Display>(names: &[&str], vals: &[Option<T>]) -> String {
            let bound = names.iter().zip(vals);
            let kv: Vec<String> = bound
                .filter_map(|(k, v)| v.as_ref().map(|v| format!("{k}={v}")))
                .collect();
            kv.join(", ")
        }
        let (vs, ts) = (list(&self.data, &env.data), list(&self.times, &env.times));
        format!("[{vs} ; {ts}]")
    }

    /// Candidate values for each parameter variable, sorted: the values
    /// at its positions among the trace's items of those bases.
    fn param_values(&self, g: &Guarantee) -> Vec<Vec<Value>> {
        let mut out = vec![BTreeSet::new(); self.params.len()];
        for c in g.lhs.iter().chain(&g.rhs).filter_map(cond_of) {
            for (base, pos, var) in cond_param_positions(c) {
                let k = self.params.iter().position(|&s| self.data[s] == var);
                let values = &mut out[k.expect("every item parameter is a parameter")];
                for item in self.ev.idx.items_with_base(base) {
                    values.extend(item.params.get(pos).cloned());
                }
            }
        }
        out.into_iter().map(|vs| vs.into_iter().collect()).collect()
    }

    /// Resolves every item pattern, and every atom's change points,
    /// under the parameter binding in `env`.
    fn bind(&mut self, env: &Env) {
        let idx = self.ev.idx;
        let items: Vec<&'e [(SimTime, Value)]> = self
            .patterns
            .iter()
            .map(|p| {
                let item = ItemId::resolve(p.base, &p.params, |t| match t {
                    Term::Const(c) => Some(c),
                    Term::Var(v) => env.data[slot(&self.data, v)].as_ref(),
                    Term::Wild => None,
                });
                item.map_or(&[][..], |item| idx.changes(&item))
            })
            .collect();
        self.points = (self.atoms.iter())
            .map(|atom| {
                let reads = items[atom.items.clone()].iter();
                let changes = reads.flat_map(|ch| ch.iter().map(|&(t, _)| t));
                let mut points: Vec<SimTime> =
                    std::iter::once(SimTime::ZERO).chain(changes).collect();
                points.sort_unstable();
                points.dedup();
                points
            })
            .collect();
        self.items = items;
    }

    /// Whether the RHS has a witness extending `env`.
    fn witness(&self, env: &mut Env) -> bool {
        self.search(&self.rhs, self.rhs.atoms.start, env, &mut |_| true)
    }

    /// Depth-first search of the assignments extending `env` that
    /// satisfy `side`'s atoms from `at` on, assigned in place. `done`
    /// sees each full assignment and returns `true` to stop the search;
    /// the result says whether it stopped. Assignments come in
    /// lexicographic order over the per-atom choices, with their
    /// multiplicity: the order and count an atom-by-atom breadth-first
    /// expansion would list.
    fn search(
        &self,
        side: &Side,
        at: usize,
        env: &mut Env,
        done: &mut dyn FnMut(&mut Env) -> bool,
    ) -> bool {
        if at == side.atoms.end {
            return done(env);
        }
        self.expand(side, at, env, &mut |e| self.search(side, at + 1, e, done))
    }

    /// Whether time slot `s` is unassigned. A variable already carrying
    /// a data binding is *not* free: the §6.3 monitor guarantee binds
    /// `s` from the auxiliary item `Tb` and then uses it as a time
    /// (timestamps stored in CM data).
    fn is_free(&self, s: usize, env: &Env) -> bool {
        env.times[s].is_none() && self.time_data[s].is_none_or(|d| env.data[d].is_none())
    }

    /// Calls `emit` on each extension of `env` satisfying atom `id`,
    /// stopping as soon as it returns `true`; returns whether it
    /// stopped. Its free time variables are assigned in place, smallest
    /// name first, and unassigned again before returning. Their
    /// candidates are the grid points inside the window `side`'s time
    /// comparisons leave open, plus the instants those comparisons
    /// derive from already-resolved variables (see [`Plan::window`]).
    fn expand(
        &self,
        side: &Side,
        id: usize,
        env: &mut Env,
        emit: &mut dyn FnMut(&mut Env) -> bool,
    ) -> bool {
        let atom = &self.atoms[id];
        if let Some(v) = atom.times.iter().copied().find(|&s| self.is_free(s, env)) {
            let mut dynamic = self.window_buf[v].take();
            let (lo, hi) = self.window(side, v, env, &mut dynamic);
            let stopped = match atom.form {
                // A fully bound `@` atom (as on the witness side): its
                // satisfying segments depend only on the bindings.
                Form::At(..) if atom.vars.iter().all(|&s| env.data[s].is_some()) => {
                    self.assign_sat(id, v, (lo, hi), &dynamic, env, emit)
                }
                _ => {
                    let grid = &self.grid[v];
                    let first = grid.partition_point(|&c| ms(c) < lo);
                    let statics = &grid[first..grid.partition_point(|&c| ms(c) <= hi).max(first)];
                    dynamic.retain(|d| (lo..=hi).contains(&ms(*d)));
                    if let Form::At(_, te) = atom.form {
                        // An `@` atom that binds (as on the universal
                        // side): one evaluation per segment.
                        self.sweep(id, te.offset(), statics, &dynamic, env, &mut |c, e| {
                            e.times[v] = Some(c);
                            emit(e)
                        })
                    } else {
                        merged(statics, &dynamic).any(|c| {
                            env.times[v] = Some(c);
                            self.expand(side, id, env, emit)
                        })
                    }
                }
            };
            env.times[v] = None;
            self.window_buf[v].set(dynamic);
            return stopped;
        }

        // Fully time-assigned: evaluate. Offsets are computed *signed*:
        // `t − 30s` near the start of the trace is a legitimate
        // (empty-interval / always-satisfied-bound) case, not an error.
        let horizon = ms(self.ev.horizon);
        match &atom.form {
            Form::Cmp(a, op, b) => {
                let (Some(ta), Some(tb)) = (resolve(*a, env), resolve(*b, env)) else {
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
            Form::At(cond, te) => {
                let Some(at) = resolve(*te, env).filter(|ms| (0..=horizon).contains(ms)) else {
                    return false;
                };
                self.probe(cond, SimTime::from_millis(at as u64), env, true, emit)
            }
            Form::Throughout(cond, a, b) | Form::Sometime(cond, a, b) => {
                let throughout = matches!(atom.form, Form::Throughout(..));
                let (Some(ta), Some(tb)) = (resolve(*a, env), resolve(*b, env)) else {
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
                let points = &self.points[id];
                let inside =
                    points.partition_point(|&t| t <= ta)..points.partition_point(|&t| t <= tb);
                let mut instants = std::iter::once(ta).chain(points[inside].iter().copied());
                let mut holds_at = |t: SimTime| self.probe(cond, t, env, false, &mut |_| true);
                let ok = if throughout {
                    instants.all(&mut holds_at)
                } else {
                    instants.any(&mut holds_at)
                };
                ok && emit(env)
            }
        }
    }

    /// The window `[lo, hi]` (ms) that `side`'s time comparisons leave
    /// the free time variable `v`, given the variables already resolved
    /// (`t2 ≤ t1` / `t1 − κ < t2` with `t1` fixed): any other value
    /// fails one of them when the search reaches it, as its other side
    /// is already fixed. `dynamic` receives the instants those
    /// comparisons derive (the other side's value, corrected for `v`'s
    /// own offset, with ±1 ms for strictness), ascending.
    fn window(&self, side: &Side, v: usize, env: &Env, dynamic: &mut Vec<SimTime>) -> (i128, i128) {
        let horizon = ms(self.ev.horizon);
        let (mut lo, mut hi) = (0, horizon);
        dynamic.clear();
        for b in &side.bounds[v] {
            let Some(o) = resolve(b.other, env) else {
                continue;
            };
            // `v op at`.
            let at = o - i128::from(b.shift);
            match b.op {
                CmpOp::Lt => hi = hi.min(at - 1),
                CmpOp::Le => hi = hi.min(at),
                CmpOp::Gt => lo = lo.max(at + 1),
                CmpOp::Ge => lo = lo.max(at),
                CmpOp::Eq => (lo, hi) = (lo.max(at), hi.min(at)),
                CmpOp::Ne => {}
            }
            let near = (at - 1..=at + 1).filter(|ms| (0..=horizon).contains(ms));
            dynamic.extend(near.map(|ms| SimTime::from_millis(ms as u64)));
        }
        dynamic.sort_unstable();
        dynamic.dedup();
        (lo, hi)
    }

    /// Assigns the free time variable `v` of the fully bound `@` atom
    /// `id` to each grid point and `dynamic` instant in the window `[lo,
    /// hi]` (inside `[0, horizon]`) where the atom holds, as
    /// [`Plan::sweep`] does. The atom's cache entry probes a segment when
    /// a window first reaches it, and starts over at a window's first
    /// segment when that is not next to the segments it knows.
    fn assign_sat(
        &self,
        id: usize,
        v: usize,
        (lo, hi): (i128, i128),
        dynamic: &[SimTime],
        env: &mut Env,
        emit: &mut dyn FnMut(&mut Env) -> bool,
    ) -> bool {
        let entry = self.at_sat_cached(id, env);
        let Form::At(cond, te) = &self.atoms[id].form else {
            unreachable!("a witness cache reads an `@` atom");
        };
        let (points, horizon) = (&self.points[id], ms(self.ev.horizon));
        let off = i128::from(te.offset());
        // The window's probe instants.
        let (start, stop) = ((lo + off).max(0), (hi + off).min(horizon));
        if start > stop {
            return false;
        }
        let mut sat = entry.borrow_mut();
        let (known, next) = (sat.probed.start, sat.probed.end + 1);
        if ms(points[known]) > start || points.get(next).is_some_and(|&p| ms(p) <= start) {
            let k = points.partition_point(|&p| ms(p) <= start) - 1;
            sat.ranges.clear();
            sat.probed = k..k;
        }
        let mut i = sat.ranges.partition_point(|&(_, last, _)| last < lo);
        loop {
            let Some(&(first, last, n)) = sat.ranges.get(i) else {
                // Probe the next segment, if the window reaches it.
                let k = sat.probed.end;
                let Some(&p) = points.get(k).filter(|&&p| ms(p) <= stop) else {
                    return false;
                };
                let end = points.get(k + 1).map_or(horizon, |&q| ms(q) - 1);
                let (first, last) = ((ms(p) - off).max(0), (end.min(horizon) - off).min(horizon));
                let mut n = 0;
                self.probe(cond, p, env, true, &mut |_| {
                    n += 1;
                    false
                });
                sat.ranges.extend((n > 0).then_some((first, last, n)));
                sat.probed.end += 1;
                continue;
            };
            if first > hi {
                return false;
            }
            i += 1;
            let (from, to) = (lo.max(first), hi.min(last));
            let grid = &self.grid[v][seek(&self.grid[v], from, &self.grid_at[v])..];
            let cands = merged(grid, &dynamic[dynamic.partition_point(|&c| ms(c) < from)..]);
            drop(sat);
            for c in cands.take_while(|&c| ms(c) <= to) {
                env.times[v] = Some(c);
                if (0..n).any(|_| emit(env)) {
                    return true;
                }
            }
            sat = entry.borrow_mut();
        }
    }

    /// The `@` atom `id`, probed at `c + off` for each candidate `c` of
    /// the ascending merge of `statics` and `dynamic` (see [`merged`]):
    /// calls `emit(c, env)` once per binding extension of
    /// `env` satisfying it there, in order, until `emit` returns `true`;
    /// returns whether it stopped. A probe instant outside `[0,
    /// horizon]` yields nothing. The condition reads fixed items, so it
    /// is evaluated once per segment between their change points that
    /// some candidate probes, at the segment's start; its extensions are
    /// replayed to every candidate in the segment, and a segment with
    /// none is skipped whole.
    fn sweep(
        &self,
        id: usize,
        off: i64,
        statics: &[SimTime],
        dynamic: &[SimTime],
        env: &mut Env,
        emit: &mut dyn FnMut(SimTime, &mut Env) -> bool,
    ) -> bool {
        let atom = &self.atoms[id];
        let Form::At(cond, _) = &atom.form else {
            unreachable!("a sweep reads an `@` atom");
        };
        let (points, horizon) = (&self.points[id], ms(self.ev.horizon));
        // Index of the first candidate probing after `at` (in i128, as
        // `off` may reach ±(2^63 - 1) ms).
        let past =
            |cands: &[SimTime], at: i128| cands.partition_point(|&c| ms(c) + i128::from(off) <= at);
        let SweepBuf {
            mut free,
            mut values,
        } = self.sweep_buf[id].take();
        free.clear();
        free.extend(atom.vars.iter().filter(|&&s| env.data[s].is_none()));
        let (mut i, mut j) = (past(statics, -1), past(dynamic, -1));
        let mut stopped = false;
        while !stopped {
            let Some(c) = merged(&statics[i..], &dynamic[j..]).next() else {
                break;
            };
            let at = ms(c) + i128::from(off);
            if at > horizon {
                break;
            }
            // The segment holding `at`, cut at the horizon.
            let k = points.partition_point(|&p| ms(p) <= at) - 1;
            let end = points
                .get(k + 1)
                .map_or(horizon, |&p| ms(p) - 1)
                .min(horizon);
            let (si, dj) = (past(statics, end), past(dynamic, end));
            values.clear();
            let mut n = 0;
            self.probe(cond, points[k], env, true, &mut |e| {
                values.extend(free.iter().map(|&s| e.data[s].clone()));
                n += 1;
                false
            });
            let w = free.len();
            stopped = n > 0
                && merged(&statics[i..si], &dynamic[j..dj]).any(|c| {
                    (0..n).any(|r| {
                        let ext = &mut values[r * w..(r + 1) * w];
                        swap_slots(ext, &free, env);
                        let stop = emit(c, env);
                        swap_slots(ext, &free, env);
                        stop
                    })
                });
            (i, j) = (si, dj);
        }
        self.sweep_buf[id].set(SweepBuf { free, values });
        stopped
    }

    /// The fully bound `@` atom `id`'s cache entry for `env`'s bindings.
    fn at_sat_cached(&self, id: usize, env: &Env) -> Rc<RefCell<AtSat>> {
        let vars = &self.atoms[id].vars[..];
        let hit = self.at_memo.borrow().get(id, vars, &[], env);
        let (hits, misses) = (&self.ev.counters.atom_hits, &self.ev.counters.atom_misses);
        bump(if hit.is_ok() { hits } else { misses }, 1);
        hit.unwrap_or_else(|hash| {
            let sat = Rc::default();
            let mut memo = self.at_memo.borrow_mut();
            memo.insert(hash, id, vars, &[], env, Rc::clone(&sat));
            sat
        })
    }

    /// Evaluate `cond` at `t` (see [`Plan::eval`]), counted in
    /// [`EvalStats::probe_misses`].
    fn probe(
        &self,
        cond: &SlotCond,
        t: SimTime,
        env: &mut Env,
        bind: bool,
        k: &mut dyn FnMut(&mut Env) -> bool,
    ) -> bool {
        bump(&self.ev.counters.probe_misses, 1);
        self.eval(cond, t, env, bind, k)
    }

    /// Evaluate a condition at instant `t`, calling `k` on each
    /// satisfying binding extension of `env` (made in place and undone
    /// on return) until it returns `true`; returns whether it stopped.
    /// With `bind`, an `item = var` comparison against an unbound
    /// variable binds it (the paper's implicit data binding); `@@`/`@?`
    /// evaluation forbids it because a binding valid at one instant must
    /// not leak to others.
    fn eval(
        &self,
        cond: &SlotCond,
        t: SimTime,
        env: &mut Env,
        bind: bool,
        k: &mut dyn FnMut(&mut Env) -> bool,
    ) -> bool {
        match cond {
            SlotCond::True => k(env),
            SlotCond::And(a, b) => self.eval(a, t, env, bind, &mut |e| self.eval(b, t, e, bind, k)),
            SlotCond::Or(a, b) => self.eval(a, t, env, bind, k) || self.eval(b, t, env, bind, k),
            // Strict: the negated condition must be fully ground.
            SlotCond::Not(inner) => !self.eval(inner, t, env, false, &mut |_| true) && k(env),
            SlotCond::Exists(item) => self.value_at(*item, t).is_some_and(Value::exists) && k(env),
            SlotCond::Cmp(a, op, b) => {
                let binding = match (self.value(a, t, env), self.value(b, t, env), a, b) {
                    (Some(va), Some(vb), ..) => {
                        if op.apply(&va, &vb) != Some(true) {
                            return false;
                        }
                        None
                    }
                    (Some(v), None, _, SlotExpr::Var(s)) | (None, Some(v), SlotExpr::Var(s), _)
                        if bind && *op == CmpOp::Eq =>
                    {
                        Some((*s, v.into_owned()))
                    }
                    _ => return false,
                };
                let Some((s, v)) = binding else {
                    return k(env);
                };
                env.data[s] = Some(v);
                let stopped = k(env);
                env.data[s] = None;
                stopped
            }
        }
    }

    /// An expression's value at `t`, `None` when an input is missing or
    /// an operation is undefined (as [`SlotExpr::value`]).
    fn value<'v>(&'v self, e: &'v SlotExpr, t: SimTime, env: &'v Env) -> Option<Cow<'v, Value>> {
        e.value(&At { plan: self, t, env })
    }

    /// The value of item-table entry `item` at `t` under the current
    /// parameter binding: its last change point at or before `t`.
    fn value_at(&self, item: usize, t: SimTime) -> Option<&'e Value> {
        let ch = self.items[item];
        let n = ch.partition_point(|(time, _)| *time <= t);
        n.checked_sub(1).map(|i| &ch[i].1)
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
    fn static_candidates(&self, g: &Guarantee) -> Vec<Vec<SimTime>> {
        let horizon_ms = ms(self.ev.horizon);
        let atoms: Vec<&GAtom> = g.lhs.iter().chain(&g.rhs).collect();

        // Union-find over time slots; each atom unions its set.
        let mut parent: Vec<usize> = (0..self.times.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for atom in &atoms {
            let mut ids = atom.time_vars().into_iter().map(|v| slot(&self.times, v));
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
            let Some(first) = atom.time_vars().first().map(|v| slot(&self.times, v)) else {
                continue;
            };
            let root = find(&mut parent, first);
            let comp = comps.entry(root).or_insert_with(|| Comp {
                base_ts: [SimTime::ZERO, self.ev.horizon].into_iter().collect(),
                offsets: [0].into_iter().collect(),
            });
            if let Some(c) = cond_of(atom) {
                c.visit(&mut |m| {
                    if let Mention::Item(p) = m {
                        comp.base_ts.extend(self.ev.idx.breakpoints_by_base(p.base));
                    }
                });
            }
            for te in atom_time_exprs(atom) {
                match te {
                    TimeExpr::Const(c) if matches!(atom, GAtom::TimeCmp(..)) => {
                        comp.base_ts.insert(*c);
                    }
                    TimeExpr::Offset(_, off) => {
                        comp.offsets.insert(*off);
                        comp.offsets.insert(-*off);
                    }
                    _ => {}
                }
            }
        }

        let mut per_var = vec![BTreeSet::new(); self.times.len()];
        for atom in &atoms {
            for te in atom_time_exprs(atom) {
                let (var, shift) = match te {
                    TimeExpr::Var(v) => (v, 0i64),
                    TimeExpr::Offset(v, off) => (v, *off),
                    TimeExpr::Const(_) => continue,
                };
                let s = slot(&self.times, var);
                let Some(comp) = comps.get(&find(&mut parent, s)) else {
                    continue;
                };
                for &bt in &comp.base_ts {
                    for &off in &comp.offsets {
                        for delta in [-1i64, 0, 1] {
                            // Candidate v such that v + shift lands near
                            // a breakpoint (possibly offset-shifted); in
                            // i128, as offsets may reach ±(2^63 - 1) ms.
                            let at =
                                ms(bt) - i128::from(shift) + i128::from(off) + i128::from(delta);
                            if (0..=horizon_ms).contains(&at) {
                                per_var[s].insert(SimTime::from_millis(at as u64));
                            }
                        }
                    }
                }
            }
        }
        let grid: Vec<Vec<SimTime>> = per_var
            .into_iter()
            .map(|v| v.into_iter().collect())
            .collect();
        let points: u64 = grid.iter().map(|v| v.len() as u64).sum();
        bump(&self.ev.counters.grid_points, points);
        grid
    }
}

/// Data variables by their sorted slot; each item pattern read gets
/// the next entry of the item table.
impl<'e> SlotMap<'e> for Plan<'e> {
    fn var(&mut self, name: &'e str) -> usize {
        slot(&self.data, name)
    }

    fn item(&mut self, pattern: &'e ItemPattern) -> usize {
        self.patterns.push(pattern);
        self.patterns.len() - 1
    }
}

/// A plan's inputs at one instant under one assignment.
struct At<'v, 'e> {
    plan: &'v Plan<'e>,
    t: SimTime,
    env: &'v Env,
}

impl<'v> SlotEnv<'v> for At<'v, '_> {
    fn var(&self, s: usize) -> Option<&'v Value> {
        self.env.data[s].as_ref()
    }

    fn item(&self, item: usize) -> Option<Cow<'v, Value>> {
        self.plan.value_at(item, self.t).map(Cow::Borrowed)
    }
}

impl SlotTime {
    /// The offset on the variable, 0 for an instant.
    fn offset(self) -> i64 {
        match self {
            SlotTime::Var { off, .. } => off,
            SlotTime::Const(_) => 0,
        }
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

/// An instant in signed milliseconds.
fn ms(t: SimTime) -> i128 {
    i128::from(t.as_millis())
}

/// `name`'s slot in the sorted `names`.
fn slot(names: &[&str], name: &str) -> usize {
    names
        .binary_search(&name)
        .expect("every variable has a slot")
}

/// The index of the first of ascending `cands` at or after `from`, tried
/// at `hint` and the index after it first; `hint` then holds it.
fn seek(cands: &[SimTime], from: i128, hint: &Cell<usize>) -> usize {
    let before = |i: usize| i == 0 || ms(cands[i - 1]) < from;
    let fits = |&i: &usize| i <= cands.len() && before(i) && (i == cands.len() || !before(i + 1));
    let i = (hint.get()..hint.get() + 2).find(fits);
    let i = i.unwrap_or_else(|| cands.partition_point(|&c| ms(c) < from));
    hint.set(i);
    i
}

/// The ascending merge of two ascending candidate lists, an instant in
/// both once.
fn merged<'a>(mut a: &'a [SimTime], mut b: &'a [SimTime]) -> impl Iterator<Item = SimTime> + 'a {
    std::iter::from_fn(move || {
        let c = match (a.first(), b.first()) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&c), None) | (None, Some(&c)) => c,
            (None, None) => return None,
        };
        a = a.strip_prefix(&[c]).unwrap_or(a);
        b = b.strip_prefix(&[c]).unwrap_or(b);
        Some(c)
    })
}

/// Swaps the values of `ext` with the data slots `slots` of `env`.
fn swap_slots(ext: &mut [Option<Value>], slots: &[usize], env: &mut Env) {
    for (v, &s) in ext.iter_mut().zip(slots) {
        std::mem::swap(v, &mut env.data[s]);
    }
}

/// The condition of a non-comparison atom.
fn cond_of(atom: &GAtom) -> Option<&Cond> {
    match atom {
        GAtom::At(c, _) | GAtom::Throughout(c, _, _) | GAtom::Sometime(c, _, _) => Some(c),
        GAtom::TimeCmp(..) => None,
    }
}

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

/// A time expression's value in milliseconds, *signed*. A variable
/// resolves from its time slot first, then from the data slot of the
/// same name holding an integer (timestamps stored in auxiliary items,
/// as in the §6.3 monitor guarantee). A stored timestamp can be any
/// `i64`, so the value is an `i128`: an offset on it, and the window
/// arithmetic in [`Plan::window`], cannot overflow.
fn resolve(te: SlotTime, env: &Env) -> Option<i128> {
    match te {
        SlotTime::Const(ms) => Some(ms),
        SlotTime::Var { slot, data, off } => {
            let at = match env.times[slot] {
                Some(t) => ms(t),
                None => i128::from(env.data[data?].as_ref()?.as_int()?),
            };
            Some(at + i128::from(off))
        }
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

/// `(base, position, var)` for each variable used as an item parameter.
fn cond_param_positions(c: &Cond) -> Vec<(hcm_core::Sym, usize, &str)> {
    let mut out = Vec::new();
    c.visit(&mut |m| {
        if let Mention::Item(p) = m {
            for (i, t) in p.params.iter().enumerate() {
                if let Term::Var(v) = t {
                    out.push((p.base, i, v.as_str()));
                }
            }
        }
    });
    out
}

/// Variable names a condition mentions (data and item-parameter).
fn cond_vars<'c>(c: &'c Cond, out: &mut BTreeSet<&'c str>) {
    c.visit(&mut |m| match m {
        Mention::Var(v) => {
            out.insert(v);
        }
        Mention::Item(p) => {
            for t in &p.params {
                if let Term::Var(v) = t {
                    out.insert(v.as_str());
                }
            }
        }
    });
}

/// Every variable name (data or time) a group of atoms mentions.
fn atoms_vars(atoms: &[GAtom]) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    for a in atoms {
        out.extend(a.time_vars());
        if let Some(c) = cond_of(a) {
            cond_vars(c, &mut out);
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

    /// The per-point references of the segment tests.
    impl Plan<'_> {
        /// Unit reference for `Plan::sweep`: probe at every distinct
        /// candidate.
        fn sweep_per_point(
            &self,
            id: usize,
            off: i64,
            statics: &[SimTime],
            dynamic: &[SimTime],
            env: &mut Env,
            emit: &mut dyn FnMut(SimTime, &mut Env) -> bool,
        ) -> bool {
            let Form::At(cond, _) = &self.atoms[id].form else {
                unreachable!("a sweep reads an `@` atom");
            };
            let mut cands: Vec<SimTime> = statics.iter().chain(dynamic).copied().collect();
            cands.sort();
            cands.dedup();
            cands.into_iter().any(|c| {
                let at = ms(c) + i128::from(off);
                (0..=ms(self.ev.horizon)).contains(&at)
                    && self.probe(cond, SimTime::from_millis(at as u64), env, true, &mut |e| {
                        emit(c, e)
                    })
            })
        }

        /// Unit reference for `Plan::at_sat_segments`: the candidates of
        /// `statics` at which atom `id` holds, each with its push count.
        fn at_sat_sweep(
            &self,
            id: usize,
            off: i64,
            statics: &[SimTime],
            env: &mut Env,
        ) -> Vec<(SimTime, u32)> {
            let mut sat: Vec<(SimTime, u32)> = Vec::new();
            self.sweep_per_point(id, off, statics, &[], env, &mut |c, _| {
                match sat.last_mut() {
                    Some((last, n)) if *last == c => *n += 1,
                    _ => sat.push((c, 1)),
                }
                false
            });
            sat
        }
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

    /// The salary pair over three string-keyed employees. `e1` holds an
    /// invented value for a second, `e2` too, and `e3` first keeps a
    /// value 10 s after its source moved on (which only the metric form
    /// rejects), then invents one for good. Both reports run past
    /// `MAX_VIOLATIONS`, so the kept strings pin the order of instances
    /// (employee, then `t1`) and each segment's binding of `y`.
    #[test]
    fn report_pinned_for_parameterized_pair() {
        let mut tr = Trace::new();
        for (id, v) in [("e1", 100), ("e2", 200), ("e3", 300)] {
            for base in ["salary1", "salary2"] {
                tr.set_initial(ItemId::with(base, [Value::from(id)]), Value::Int(v));
            }
        }
        for (t, base, id, v) in [
            (10, "salary1", "e1", 110),
            (12, "salary2", "e1", 110),
            (15, "salary2", "e1", 777),
            (16, "salary2", "e1", 110),
            (20, "salary2", "e2", 999),
            (21, "salary2", "e2", 200),
            (30, "salary1", "e3", 330),
            (32, "salary1", "e3", 331),
            (45, "salary2", "e3", 330),
            (50, "salary2", "e3", 555),
            (60, "salary1", "e2", 201),
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
        let pinned = |src: &str, instantiations: usize, tail: [&str; 2]| {
            let r = check_guarantee(&tr, &parse_guarantee("p", src).unwrap(), None);
            let head = [
                "e1\", y=777 ; t1=t=15.000s",
                "e1\", y=777 ; t1=t=15.001s",
                "e1\", y=777 ; t1=t=15.999s",
                "e2\", y=999 ; t1=t=20.000s",
                "e2\", y=999 ; t1=t=20.001s",
                "e2\", y=999 ; t1=t=20.999s",
            ];
            let want = head
                .iter()
                .chain(&tail)
                .map(|e| format!("no witness for [n=\"{e}]"))
                .collect();
            assert_eq!(summary(&r), (false, instantiations, want), "{src}");
        };
        pinned(
            "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1",
            102,
            ["e3\", y=555 ; t1=t=50.000s", "e3\", y=555 ; t1=t=50.001s"],
        );
        pinned(
            "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 10s < t2 and t2 <= t1",
            237,
            ["e3\", y=300 ; t1=t=39.999s", "e3\", y=300 ; t1=t=40.000s"],
        );
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

    /// The ten conditions of the segment tests, as one conjunction:
    /// `or` multiplicity, parameters (bound and `*`) and negation.
    const SEGMENT_CONDS: [&str; 10] = [
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
    ];

    /// A random trace with same-instant writes over `X`, `Y`, `s(e1)`
    /// and `s(e2)`.
    fn segment_trace(g: &mut Gen) -> Trace {
        let items = [
            ItemId::plain("X"),
            ItemId::plain("Y"),
            ItemId::with("s", [Value::from("e1")]),
            ItemId::with("s", [Value::from("e2")]),
        ];
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
        tr
    }

    /// Up to `n` random sorted instants in `[0, horizon]`.
    fn instants(g: &mut Gen, n: i64, horizon: SimTime) -> Vec<SimTime> {
        let mut ts: Vec<SimTime> = (0..g.int_in(0, n))
            .map(|_| SimTime::from_millis(g.int_in(0, horizon.as_millis() as i64) as u64))
            .collect();
        ts.sort();
        ts.dedup();
        ts
    }

    /// The slot environment for `plan` with `n` and `m` bound to random
    /// employees (`e3` has no item), and `y` too when `bind_y`, with the
    /// plan's items resolved under it.
    fn segment_env(g: &mut Gen, plan: &mut Plan, bind_y: bool) -> Env {
        let mut env = plan.env();
        let mut set = |var: &str, v: Value| env.data[slot(&plan.data, var)] = Some(v);
        if bind_y {
            set("y", Value::Int(g.int_in(0, 2)));
        }
        for var in ["n", "m"] {
            let id = ["e1", "e2", "e3"][g.int_in(0, 2) as usize];
            set(var, Value::from(id));
        }
        plan.bind(&env);
        env
    }

    /// [`SEGMENT_CONDS`] as one conjunction, each atom read at `t + off`.
    fn offset_conds(off: i64) -> Guarantee {
        let at = match off {
            0.. => format!("@ t + {off}ms"),
            _ => format!("@ t - {}ms", -off),
        };
        parse_guarantee("c", &SEGMENT_CONDS.join(" and ").replace("@ t", &at)).unwrap()
    }

    /// What the cached arm emits for atom `id` over the window, one
    /// entry per push count, until `stop` entries.
    fn cached_arm(
        plan: &Plan,
        id: usize,
        window: (i128, i128),
        dynamic: &[SimTime],
        env: &mut Env,
        stop: usize,
    ) -> (bool, Vec<SimTime>) {
        let (v, mut out) = (slot(&plan.times, "t"), Vec::new());
        let stopped = plan.assign_sat(id, v, window, dynamic, env, &mut |e| {
            out.push(e.times[v].unwrap());
            out.len() == stop
        });
        env.times[v] = None;
        (stopped, out)
    }

    /// The satisfying segments of a fully bound atom against per-point
    /// probing at every instant of `[0, horizon]`, on random traces with
    /// same-instant writes, over conditions with `or` multiplicity,
    /// parameters (bound and `*`) and negation, at offsets that push
    /// `c + off` below 0 and past the horizon: after a window over the
    /// whole horizon, the cache entry's ranges, read instant by instant,
    /// are exactly the satisfying instants with their push counts,
    /// ascending and disjoint, and the arm emits each that often. The
    /// entry probes each segment of the atom's items at most once.
    #[test]
    fn segment_builder_matches_per_point_sweep() {
        let mut g = Gen(0x5E6_0001);
        let mut nonempty = 0;
        for _ in 0..200 {
            let tr = segment_trace(&mut g);
            // Horizons before, at and after the last write.
            let horizon = SimTime::from_millis(g.int_in(1, 250) as u64);
            let ev = Evaluator::new(&tr, Some(horizon));
            let every: Vec<SimTime> = (0..=horizon.as_millis())
                .map(SimTime::from_millis)
                .collect();
            let off = g.int_in(-80, 80);
            let conds = offset_conds(off);
            let mut plan = Plan::compile(&ev, &conds);
            plan.grid[slot(&plan.times, "t")] = every.clone();
            let mut env = segment_env(&mut g, &mut plan, true);
            for (cond, src) in SEGMENT_CONDS.iter().enumerate() {
                let want = plan.at_sat_sweep(cond, off, &every, &mut env);
                nonempty += usize::from(!want.is_empty());
                let probed = || ev.counters.probe_misses.get();
                let (before, window) = (probed(), (0, ms(horizon)));
                let (_, emitted) = cached_arm(&plan, cond, window, &[], &mut env, 0);
                let probes = probed() - before;
                assert!(
                    probes as usize <= plan.points[cond].len(),
                    "{src}: {probes}"
                );
                // A second pass reads the entry and probes nothing.
                cached_arm(&plan, cond, window, &[], &mut env, 0);
                assert_eq!(probed() - before, probes, "{src}: probed again");
                let sat = plan.at_sat_cached(cond, &env);
                let ranges = sat.borrow().ranges.clone();
                let got: Vec<(SimTime, u32)> = (ranges.iter())
                    .flat_map(|&(first, last, n)| {
                        (first..=last).map(move |c| (SimTime::from_millis(c as u64), n))
                    })
                    .collect();
                assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "{src}: {ranges:?}");
                let msg = format!(
                    "{src} off={off} horizon={horizon} env={env:?} ranges={ranges:?}\n{tr}"
                );
                assert_eq!(got, want, "{msg}");
                let each = want
                    .iter()
                    .flat_map(|&(c, n)| std::iter::repeat_n(c, n as usize));
                assert_eq!(emitted, each.collect::<Vec<_>>(), "{msg}");
            }
        }
        assert!(nonempty > 500, "too few satisfiable cases: {nonempty}");
    }

    /// The witness side's cached arm against probing each grid and
    /// window candidate on its own: the same candidates, in the same
    /// order, each once per push count, an instant that is both a grid
    /// point and a window candidate once, up to a random stop. Each atom
    /// answers a run of windows on one cache entry, so the entry is
    /// extended, reused and restarted both ways; windows end at random
    /// instants and at ±1 ms of segment ends, and offsets push `c + off`
    /// below 0 and past the horizon.
    #[test]
    fn segment_cached_arm_matches_per_point_probes() {
        let mut g = Gen(0x5E6_0003);
        let (mut emitted, mut counted, mut stops) = (0, 0, 0);
        for _ in 0..200 {
            let tr = segment_trace(&mut g);
            let horizon = SimTime::from_millis(g.int_in(1, 250) as u64);
            let h = ms(horizon);
            let ev = Evaluator::new(&tr, Some(horizon));
            let off = g.int_in(-80, 80);
            let conds = offset_conds(off);
            let mut plan = Plan::compile(&ev, &conds);
            let v = slot(&plan.times, "t");
            plan.grid[v] = instants(&mut g, 40, horizon);
            let mut env = segment_env(&mut g, &mut plan, true);
            for (cond, src) in SEGMENT_CONDS.iter().enumerate() {
                let points = plan.points[cond].clone();
                for _ in 0..4 {
                    // Window edges: random, or ±1 ms of a segment's first
                    // or last candidate.
                    let edge = |g: &mut Gen| {
                        let k = g.int_in(0, points.len() as i64) as usize;
                        let end = match points.get(k) {
                            Some(&p) if g.int_in(0, 1) == 0 => ms(p),
                            Some(&p) => ms(p) - 1,
                            None => i128::from(g.int_in(-5, h as i64 + 5)) + i128::from(off),
                        };
                        end - i128::from(off) + i128::from(g.int_in(-1, 1))
                    };
                    let (lo, hi) = (edge(&mut g).max(0), edge(&mut g).min(h));
                    // Window candidates as `Plan::window` derives them:
                    // ±1 ms of each bound inside `[0, horizon]`, some on
                    // the grid.
                    let mut dynamic = instants(&mut g, 4, horizon);
                    let near = [lo, hi].map(|b| b - 1..=b + 1).into_iter().flatten();
                    let near = near.filter(|c| (0..=h).contains(c));
                    dynamic.extend(near.map(|c| SimTime::from_millis(c as u64)));
                    dynamic.sort();
                    dynamic.dedup();
                    let mut cands: Vec<SimTime> =
                        plan.grid[v].iter().chain(&dynamic).copied().collect();
                    cands.retain(|c| (lo..=hi).contains(&ms(*c)));
                    cands.sort();
                    cands.dedup();
                    let want = plan.at_sat_sweep(cond, off, &cands, &mut env);
                    let mut want: Vec<SimTime> = (want.iter())
                        .flat_map(|&(c, n)| std::iter::repeat_n(c, n as usize))
                        .collect();
                    let stop = g.int_in(0, want.len() as i64 + 1) as usize;
                    let stopped = (1..=want.len()).contains(&stop);
                    want.truncate(if stopped { stop } else { want.len() });
                    let got = cached_arm(&plan, cond, (lo, hi), &dynamic, &mut env, stop);
                    assert_eq!(
                        got,
                        (stopped, want.clone()),
                        "{src} off={off} horizon={horizon} window=[{lo}, {hi}] stop={stop} \
                         grid={:?} dynamic={dynamic:?}\n{tr}",
                        plan.grid[v]
                    );
                    emitted += want.len();
                    counted += want.windows(2).filter(|w| w[0] == w[1]).count();
                    stops += usize::from(stopped);
                }
            }
        }
        assert!(
            emitted > 2000 && counted > 200 && stops > 300,
            "too few cases: {emitted}/{counted}/{stops}"
        );
    }

    /// The universal-side sweep against probing each candidate on its
    /// own, with `y` left for the condition to bind: the same
    /// `(candidate, bindings)` list, in the same order and with the same
    /// multiplicity, over grid and window candidates merged (an instant
    /// in both once). The sweep probes at most as often.
    #[test]
    fn segment_sweep_matches_per_point_probes() {
        let conds = parse_guarantee("c", &SEGMENT_CONDS.join(" and ")).unwrap();
        let mut g = Gen(0x5E6_0002);
        let (mut bound, mut emitted) = (0, 0);
        for _ in 0..200 {
            let tr = segment_trace(&mut g);
            let horizon = SimTime::from_millis(g.int_in(1, 250) as u64);
            let ev = Evaluator::new(&tr, Some(horizon));
            let statics = instants(&mut g, 40, horizon);
            // Window candidates may also be grid points.
            let dynamic = instants(&mut g, 6, horizon);
            let off = g.int_in(-80, 80);
            let mut plan = Plan::compile(&ev, &conds);
            let mut env = segment_env(&mut g, &mut plan, false);
            let y = slot(&plan.data, "y");
            for (cond, src) in SEGMENT_CONDS.iter().enumerate() {
                let run = |per_point: bool, env: &mut Env| {
                    let mut out = Vec::new();
                    let mut emit = |c, e: &mut Env| {
                        out.push((c, e.data.clone()));
                        false
                    };
                    let probes = ev.counters.probe_misses.get();
                    if per_point {
                        plan.sweep_per_point(cond, off, &statics, &dynamic, env, &mut emit);
                    } else {
                        plan.sweep(cond, off, &statics, &dynamic, env, &mut emit);
                    }
                    (out, ev.counters.probe_misses.get() - probes)
                };
                let (want, point_probes) = run(true, &mut env);
                let (got, sweep_probes) = run(false, &mut env);
                assert_eq!(
                    got, want,
                    "{src} off={off} horizon={horizon} env={env:?} statics={statics:?} \
                     dynamic={dynamic:?}\n{tr}"
                );
                assert!(
                    sweep_probes <= point_probes,
                    "{src}: {sweep_probes} > {point_probes}"
                );
                assert_eq!(env.data[y], None, "{src}: `y` left bound");
                bound += want.iter().filter(|(_, d)| d[y].is_some()).count();
                emitted += want.len();
            }
        }
        assert!(
            bound > 1000 && emitted > 3000,
            "too few cases: {bound}/{emitted}"
        );
    }
}
