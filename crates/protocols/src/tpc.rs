//! Two-phase-commit baseline — the facility loosely coupled systems
//! *lack*.
//!
//! The paper's premise is that "traditional approaches to constraint
//! management assume various facilities such as distributed
//! transactions, remote locking, and prepare-to-commit interfaces,
//! which are usually not supported" (§1). To quantify what the
//! weakened-consistency approach trades away and wins, this module
//! implements exactly that traditional facility over the same simulated
//! network: a coordinator runs each update to `X` or `Y` as a global
//! transaction — lock both sites, check `X ≤ Y` against the *global*
//! state, commit or abort, unlock.
//!
//! The E3 comparison measures, against the demarcation protocol:
//! per-update latency (2PC pays two round trips on every update,
//! demarcation is local in the common case), message counts, and
//! availability under site failure (2PC aborts/blocks; demarcation's
//! local updates keep flowing).

use hcm_core::{SimDuration, SimTime};
use hcm_obs::{Metrics, Scope};
use hcm_simkit::{Actor, ActorId, Ctx, RunOutcome, Sim};
use std::collections::VecDeque;

/// Messages of the 2PC world.
#[derive(Debug, Clone, PartialEq)]
pub enum TpcMsg {
    /// Application submits an update: add `delta` to participant
    /// `target`'s value (delta may be negative).
    Submit {
        /// Which participant's value changes.
        target: ActorId,
        /// Signed change.
        delta: i64,
    },
    /// Coordinator → participant: lock and report your value.
    Prepare {
        /// Transaction id.
        txn: u64,
    },
    /// Participant self-timer: service delay elapsed, send the vote.
    SendVote {
        /// Transaction id.
        txn: u64,
        /// Vote payload.
        ok: bool,
    },
    /// Participant → coordinator: locked (or not), current value.
    Vote {
        /// Transaction id.
        txn: u64,
        /// Which participant voted.
        from: ActorId,
        /// Participant's current value.
        value: i64,
        /// Whether the lock was acquired.
        ok: bool,
    },
    /// Coordinator → participant: apply `delta` (0 for the untouched
    /// site) and unlock.
    Commit {
        /// Transaction id.
        txn: u64,
        /// Signed change to apply.
        delta: i64,
    },
    /// Coordinator → participant: unlock without changes.
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// Participant → coordinator: commit/abort acknowledged.
    Ack {
        /// Transaction id.
        txn: u64,
    },
    /// Coordinator self-timer: give up on a transaction whose
    /// participant stopped answering.
    Timeout {
        /// Transaction id.
        txn: u64,
    },
}

/// A 2PC participant: one value, one lock.
pub struct Participant {
    value: i64,
    locked_by: Option<u64>,
    coordinator: ActorId,
    /// Local processing delay before voting (the database's service
    /// time, mirroring the CM-Translator's).
    service: SimDuration,
}

impl Participant {
    /// A participant with an initial value.
    #[must_use]
    pub(crate) fn new(value: i64, coordinator: ActorId, service: SimDuration) -> Self {
        Participant {
            value,
            locked_by: None,
            coordinator,
            service,
        }
    }
}

impl Actor<TpcMsg> for Participant {
    fn on_message(&mut self, msg: TpcMsg, ctx: &mut Ctx<'_, TpcMsg>) {
        match msg {
            TpcMsg::Prepare { txn } => {
                let ok = match self.locked_by {
                    None => {
                        self.locked_by = Some(txn);
                        true
                    }
                    Some(holder) => holder == txn,
                };
                ctx.schedule_self(self.service, TpcMsg::SendVote { txn, ok });
            }
            TpcMsg::SendVote { txn, ok } => {
                let me = ctx.me();
                let value = self.value;
                ctx.send(
                    self.coordinator,
                    TpcMsg::Vote {
                        txn,
                        from: me,
                        value,
                        ok,
                    },
                );
            }
            TpcMsg::Commit { txn, delta } => {
                if self.locked_by == Some(txn) {
                    self.value += delta;
                    self.locked_by = None;
                }
                ctx.send(self.coordinator, TpcMsg::Ack { txn });
            }
            TpcMsg::Abort { txn } => {
                if self.locked_by == Some(txn) {
                    self.locked_by = None;
                }
                ctx.send(self.coordinator, TpcMsg::Ack { txn });
            }
            other => panic!("participant: unexpected {other:?}"),
        }
    }
}

struct Txn {
    target: ActorId,
    delta: i64,
    submitted: SimTime,
    votes: Vec<(ActorId, i64)>,
    state: TxnState,
}

#[derive(PartialEq)]
enum TxnState {
    Preparing,
    Resolving,
}

/// The coordinator serializes global transactions over X (participant
/// `px`) and Y (participant `py`), maintaining `X ≤ Y`.
pub struct Coordinator {
    px: ActorId,
    py: ActorId,
    txns: std::collections::BTreeMap<u64, Txn>,
    queue: VecDeque<(ActorId, i64, SimTime)>,
    active: Option<u64>,
    next_txn: u64,
    pending_acks: std::collections::BTreeMap<u64, u8>,
    timeout: SimDuration,
    /// Where the `tpc.*` counters and the `tpc.latency_ms` series of
    /// commit latencies go (`Scope::Global`).
    metrics: Metrics,
}

impl Coordinator {
    /// A coordinator over the two participants.
    #[must_use]
    pub(crate) fn new(px: ActorId, py: ActorId, timeout: SimDuration, metrics: Metrics) -> Self {
        Coordinator {
            px,
            py,
            txns: std::collections::BTreeMap::new(),
            queue: VecDeque::new(),
            active: None,
            next_txn: 0,
            pending_acks: std::collections::BTreeMap::new(),
            timeout,
            metrics,
        }
    }

    fn start_next(&mut self, ctx: &mut Ctx<'_, TpcMsg>) {
        if self.active.is_some() {
            return;
        }
        let Some((target, delta, submitted)) = self.queue.pop_front() else {
            return;
        };
        let txn = self.next_txn;
        self.next_txn += 1;
        self.txns.insert(
            txn,
            Txn {
                target,
                delta,
                submitted,
                votes: Vec::new(),
                state: TxnState::Preparing,
            },
        );
        self.active = Some(txn);
        ctx.send(self.px, TpcMsg::Prepare { txn });
        ctx.send(self.py, TpcMsg::Prepare { txn });
        self.metrics.add(Scope::Global, "tpc.messages", 2);
        ctx.schedule_self(self.timeout, TpcMsg::Timeout { txn });
    }

    /// Second phase: commit or abort, then wait for both acks.
    fn resolve(&mut self, txn: u64, commit: bool, ctx: &mut Ctx<'_, TpcMsg>) {
        let Some(t) = self.txns.get_mut(&txn) else {
            return;
        };
        if t.state != TxnState::Preparing {
            return;
        }
        t.state = TxnState::Resolving;
        self.pending_acks.insert(txn, 2);
        if commit {
            let (dx, dy) = if t.target == self.px {
                (t.delta, 0)
            } else {
                (0, t.delta)
            };
            let lat = ctx.now().saturating_since(t.submitted);
            ctx.send(self.px, TpcMsg::Commit { txn, delta: dx });
            ctx.send(self.py, TpcMsg::Commit { txn, delta: dy });
            self.metrics.add(Scope::Global, "tpc.messages", 2);
            self.metrics.inc(Scope::Global, "tpc.committed");
            self.metrics
                .series_push(Scope::Global, "tpc.latency_ms", lat.as_millis() as i64);
        } else {
            ctx.send(self.px, TpcMsg::Abort { txn });
            ctx.send(self.py, TpcMsg::Abort { txn });
            self.metrics.add(Scope::Global, "tpc.messages", 2);
        }
    }

    fn finish(&mut self, txn: u64, ctx: &mut Ctx<'_, TpcMsg>) {
        self.txns.remove(&txn);
        self.pending_acks.remove(&txn);
        if self.active == Some(txn) {
            self.active = None;
        }
        self.start_next(ctx);
    }
}

impl Actor<TpcMsg> for Coordinator {
    fn on_message(&mut self, msg: TpcMsg, ctx: &mut Ctx<'_, TpcMsg>) {
        match msg {
            TpcMsg::Submit { target, delta } => {
                self.metrics.inc(Scope::Global, "tpc.submitted");
                self.queue.push_back((target, delta, ctx.now()));
                self.start_next(ctx);
            }
            TpcMsg::Vote {
                txn,
                from,
                value,
                ok,
            } => {
                let constraint_abort;
                let resolve_commit;
                {
                    let Some(t) = self.txns.get_mut(&txn) else {
                        return;
                    };
                    if t.state != TxnState::Preparing {
                        return;
                    }
                    if !ok {
                        self.metrics.inc(Scope::Global, "tpc.aborted_unavailable");
                        self.resolve(txn, false, ctx);
                        return;
                    }
                    t.votes.push((from, value));
                    if t.votes.len() < 2 {
                        return;
                    }
                    let x = t
                        .votes
                        .iter()
                        .find(|(a, _)| *a == self.px)
                        .map(|(_, v)| *v)
                        .expect("px voted");
                    let y = t
                        .votes
                        .iter()
                        .find(|(a, _)| *a == self.py)
                        .map(|(_, v)| *v)
                        .expect("py voted");
                    let (nx, ny) = if t.target == self.px {
                        (x + t.delta, y)
                    } else {
                        (x, y + t.delta)
                    };
                    resolve_commit = nx <= ny;
                    constraint_abort = !resolve_commit;
                }
                if constraint_abort {
                    self.metrics.inc(Scope::Global, "tpc.aborted_constraint");
                }
                self.resolve(txn, resolve_commit, ctx);
            }
            TpcMsg::Ack { txn } => {
                let done = match self.pending_acks.get_mut(&txn) {
                    Some(n) => {
                        *n -= 1;
                        *n == 0
                    }
                    None => false,
                };
                if done {
                    self.finish(txn, ctx);
                }
            }
            TpcMsg::Timeout { txn } => {
                let still_preparing = self
                    .txns
                    .get(&txn)
                    .is_some_and(|t| t.state == TxnState::Preparing);
                if still_preparing {
                    self.metrics.inc(Scope::Global, "tpc.aborted_unavailable");
                    // Participants may be dead: abort best-effort and
                    // move on without waiting for acks.
                    if let Some(t) = self.txns.get_mut(&txn) {
                        t.state = TxnState::Resolving;
                    }
                    ctx.send(self.px, TpcMsg::Abort { txn });
                    ctx.send(self.py, TpcMsg::Abort { txn });
                    self.metrics.add(Scope::Global, "tpc.messages", 2);
                    self.finish(txn, ctx);
                }
            }
            other => panic!("coordinator: unexpected {other:?}"),
        }
    }
}

/// A built 2PC scenario.
pub struct TpcScenario {
    /// The simulation.
    pub sim: Sim<TpcMsg>,
    /// Coordinator actor.
    pub coordinator: ActorId,
    /// X participant.
    pub px: ActorId,
    /// Y participant.
    pub py: ActorId,
}

/// Build a 2PC scenario maintaining `X ≤ Y` with the given initial
/// values and seed.
#[must_use]
pub fn build(seed: u64, x0: i64, y0: i64) -> TpcScenario {
    let mut sim = Sim::new(seed);
    // Ids: participants 0,1; coordinator 2.
    let px_id = ActorId(0);
    let py_id = ActorId(1);
    let coord_id = ActorId(2);
    let service = SimDuration::from_millis(50);
    assert_eq!(
        sim.add_actor(Box::new(Participant::new(x0, coord_id, service))),
        px_id
    );
    assert_eq!(
        sim.add_actor(Box::new(Participant::new(y0, coord_id, service))),
        py_id
    );
    let c = Coordinator::new(px_id, py_id, SimDuration::from_secs(5), sim.obs().metrics);
    assert_eq!(sim.add_actor(Box::new(c)), coord_id);
    TpcScenario {
        sim,
        coordinator: coord_id,
        px: px_id,
        py: py_id,
    }
}

impl TpcScenario {
    /// Submit an update at time `t`: to X when `lower_side`, else Y.
    /// `delta` is the increase of X / decrease of Y (mirrors the
    /// demarcation driver so workloads are comparable).
    pub fn try_update(&mut self, t: SimTime, lower_side: bool, delta: i64) {
        let (target, signed) = if lower_side {
            (self.px, delta)
        } else {
            (self.py, -delta)
        };
        self.sim.inject_at(
            t,
            self.coordinator,
            TpcMsg::Submit {
                target,
                delta: signed,
            },
        );
    }

    /// Run to quiescence.
    pub fn run(&mut self) -> RunOutcome {
        self.sim.run(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_valid_updates_and_aborts_violations() {
        let mut s = build(1, 0, 100);
        s.try_update(SimTime::from_secs(1), true, 50); // X: 0→50 ok
        s.try_update(SimTime::from_secs(10), true, 60); // X: 50→110 > Y=100: abort
        s.try_update(SimTime::from_secs(20), false, 30); // Y: 100→70 ok (X=50)
        s.try_update(SimTime::from_secs(30), false, 30); // Y: 70→40 < X=50: abort
        assert_eq!(s.run(), RunOutcome::Quiescent);
        let m = s.sim.obs().metrics;
        assert_eq!(m.counter(Scope::Global, "tpc.submitted"), 4);
        assert_eq!(m.counter(Scope::Global, "tpc.committed"), 2);
        assert_eq!(m.counter(Scope::Global, "tpc.aborted_constraint"), 2);
        assert_eq!(m.counter(Scope::Global, "tpc.aborted_unavailable"), 0);
        let latencies = m.series(Scope::Global, "tpc.latency_ms");
        assert_eq!(latencies.len(), 2);
        // Every committed update pays prepare + vote round trips plus
        // participant service time.
        assert!(latencies.iter().all(|&ms| ms >= 50), "{latencies:?}");
    }

    #[test]
    fn serializes_concurrent_submissions() {
        let mut s = build(2, 0, 1000);
        for i in 0..10 {
            s.try_update(SimTime::from_millis(1000 + i), true, 10);
        }
        assert_eq!(s.run(), RunOutcome::Quiescent);
        let m = s.sim.obs().metrics;
        assert_eq!(m.counter(Scope::Global, "tpc.committed"), 10);
        assert_eq!(m.counter(Scope::Global, "tpc.aborted_unavailable"), 0);
    }

    #[test]
    fn participant_crash_blocks_then_aborts() {
        let mut s = build(3, 0, 100);
        s.sim.crash_at(s.py, SimTime::from_millis(500), true);
        s.try_update(SimTime::from_secs(1), true, 10);
        s.try_update(SimTime::from_secs(2), true, 10);
        assert_eq!(s.run(), RunOutcome::Quiescent);
        let m = s.sim.obs().metrics;
        let committed = m.counter(Scope::Global, "tpc.committed");
        assert_eq!(committed, 0, "no commits while a participant is down");
        assert_eq!(m.counter(Scope::Global, "tpc.aborted_unavailable"), 2);
    }

    #[test]
    fn every_update_costs_messages_even_when_local_state_suffices() {
        // The contrast with demarcation: an update far inside the
        // constraint still pays global coordination.
        let mut s = build(4, 0, 1_000_000);
        s.try_update(SimTime::from_secs(1), true, 1);
        s.run();
        let messages = s.sim.obs().metrics.counter(Scope::Global, "tpc.messages");
        assert!(messages >= 4, "prepare+commit to both participants");
    }
}
