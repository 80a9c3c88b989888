//! The simulation driver.
//!
//! [`Sim`] owns the actors, the clock, the message queue, the network
//! model and the RNG streams, and runs the classic discrete-event loop:
//! pop the earliest entry, advance the clock, dispatch. Determinism
//! comes from the total order on `(time, sender, sender-sequence,
//! minor)` — ties at one instant are broken by sender id, then by the
//! order that sender submitted its messages. External injections and
//! controls share the distinguished [`ActorId::EXTERNAL`] sender and
//! one submission counter, so they sort after actor traffic at the
//! same instant, in schedule order.
//!
//! The queue is a binary heap of 32-byte keys. Each key names a slot
//! of a slab where its entry (the message, or a control) waits; a pop
//! frees the slot for the next schedule to reuse, so a sift moves keys
//! only and the slab never outgrows the queue's high-water mark.
//!
//! Crash and recovery are scheduled through the same queue
//! ([`Sim::crash_at`], [`Sim::recover_at`]) so that an experiment's
//! failure schedule composes deterministically with its workload.

use crate::actor::{Actor, ActorId, Ctx};
use crate::net::{ActorStatus, DelayModel, Network, SendKind};
use crate::rng::SimRng;
use hcm_core::SimTime;
use hcm_obs::{Metrics, Obs, Scope};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

enum Entry<M> {
    Deliver { to: ActorId, from: ActorId, msg: M },
    Control(Control),
}

enum Control {
    Crash { who: ActorId, lossy: bool },
    Recover { who: ActorId },
}

/// The heap's order key. Keys are unique, so `slot`, which names the
/// entry's place in [`Sim`]'s slab, never decides the order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    at: SimTime,
    /// Sending actor (`ActorId::EXTERNAL.0` for injections/controls).
    src: u32,
    /// The sender's submission sequence number.
    seq: u64,
    /// Tie-breaker for entries materialized *by* a dispatch (held
    /// messages replayed by a recovery control); 0 for normal sends.
    minor: u32,
    slot: u32,
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained: no actor has anything left to do. This is the
    /// *quiescence* used as the finite-trace horizon for
    /// liveness-flavoured guarantees.
    Quiescent,
    /// The time horizon was reached with work still pending.
    HorizonReached,
    /// The step budget was exhausted (runaway protection).
    StepBudget,
}

/// A deterministic discrete-event simulation over message type `M`.
pub struct Sim<M> {
    actors: Vec<Box<dyn Actor<M>>>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// The queued entries, at the slots their keys name; `None` at the
    /// slots listed in `free`.
    slab: Vec<Option<Entry<M>>>,
    free: Vec<u32>,
    /// Messages held for crashed (non-lossy) actors, replayed on
    /// recovery in arrival order: `(to, from, msg)`.
    held: Vec<(ActorId, ActorId, M)>,
    now: SimTime,
    /// Submission counter for external entries (injections, controls).
    ext_seq: u64,
    /// Per-actor deterministic RNG streams, derived from the master
    /// seed and the actor id, so adding an actor never shifts another
    /// actor's draws.
    rngs: Vec<SimRng>,
    /// Per-actor submission counters (the `seq` half of the order key).
    send_seqs: Vec<u64>,
    /// The sends of the hook being dispatched, drained into the queue
    /// by [`Sim::flush_outbox`]; one buffer serves every dispatch.
    outbox: Vec<(ActorId, M, SendKind)>,
    seed: u64,
    net: Network,
    obs: Obs,
    /// Engine-internal metrics (queue depth): kept outside the
    /// snapshot registry so engine tuning never moves a snapshot.
    engine: Metrics,
    /// Per-actor deliveries not yet published as `sim.dispatches`.
    dispatches: Vec<u64>,
    /// Queue high-water mark not yet published as
    /// `sim.queue_depth_max`.
    depth_max: Option<usize>,
    started: bool,
    steps: u64,
    max_steps: u64,
}

impl<M> Sim<M> {
    /// A simulation with the given RNG seed and default network delays.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_network(seed, Network::new(DelayModel::default()))
    }

    /// A simulation with an explicit network model.
    #[must_use]
    pub fn with_network(seed: u64, net: Network) -> Self {
        Sim {
            actors: Vec::new(),
            queue: BinaryHeap::with_capacity(1024),
            slab: Vec::with_capacity(1024),
            free: Vec::new(),
            held: Vec::new(),
            now: SimTime::ZERO,
            ext_seq: 0,
            rngs: Vec::new(),
            send_seqs: Vec::new(),
            outbox: Vec::new(),
            seed,
            net,
            obs: Obs::new(),
            engine: Metrics::new(),
            dispatches: Vec::new(),
            depth_max: None,
            started: false,
            steps: 0,
            max_steps: u64::MAX,
        }
    }

    /// Cap the number of deliveries (protection against accidental
    /// infinite loops in scenario code).
    pub fn set_step_budget(&mut self, max_steps: u64) {
        self.max_steps = max_steps;
    }

    /// Register an actor, returning its id. The actor gets its own
    /// RNG stream derived from the simulation seed and this id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(actor);
        self.rngs.push(SimRng::derived(self.seed, u64::from(id.0)));
        self.send_seqs.push(0);
        self.dispatches.push(0);
        id
    }

    /// Number of registered actors.
    #[must_use]
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read-only network access.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// A clone of the simulation's observability bundle — the metrics
    /// registry every instrumented component writes to.
    #[must_use]
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// The engine-internal metrics registry (`sim.queue_depth_max`).
    /// Kept apart from [`Sim::obs`] so the observability snapshot
    /// reports only what the simulated system did. The engine keeps
    /// this gauge and the `sim.dispatches` counters as plain integers
    /// during a run and publishes them when [`Sim::run`] returns.
    #[must_use]
    pub fn engine_metrics(&self) -> Metrics {
        self.engine.clone()
    }

    /// Inject a message from "outside" (workload drivers, test
    /// harnesses) for delivery to `to` at absolute time `at`. The
    /// sender is recorded as [`ActorId::EXTERNAL`], not the recipient.
    pub fn inject_at(&mut self, at: SimTime, to: ActorId, msg: M) {
        let from = ActorId::EXTERNAL;
        self.schedule_external(at, Entry::Deliver { to, from, msg });
    }

    /// Schedule a crash. `lossy` controls whether messages arriving
    /// while down are dropped (silent data loss) or held and replayed
    /// at recovery — the paper's "crashes can be mapped to metric
    /// failures if the database … can remember messages" (§5).
    pub fn crash_at(&mut self, who: ActorId, at: SimTime, lossy: bool) {
        self.schedule_external(at, Entry::Control(Control::Crash { who, lossy }));
    }

    /// Schedule a recovery.
    pub fn recover_at(&mut self, who: ActorId, at: SimTime) {
        self.schedule_external(at, Entry::Control(Control::Recover { who }));
    }

    fn schedule_external(&mut self, at: SimTime, entry: Entry<M>) {
        let seq = self.ext_seq;
        self.ext_seq += 1;
        self.schedule(at, ActorId::EXTERNAL.0, seq, 0, entry);
    }

    /// Queue `entry` under the key `(at, src, seq, minor)`, in a free
    /// slab slot when there is one.
    fn schedule(&mut self, at: SimTime, src: u32, seq: u64, minor: u32, entry: Entry<M>) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 queued entries")
        });
        self.slab[slot as usize] = Some(entry);
        self.queue.push(Reverse(Scheduled {
            at,
            src,
            seq,
            minor,
            slot,
        }));
    }

    fn flush_outbox(&mut self, from: ActorId) {
        let mut outbox = std::mem::take(&mut self.outbox);
        for (to, msg, kind) in outbox.drain(..) {
            let at =
                self.net
                    .delivery_time(self.now, from, to, kind, &mut self.rngs[from.0 as usize]);
            if matches!(kind, SendKind::Network) {
                self.obs.metrics.observe(
                    Scope::Channel {
                        from: from.0,
                        to: to.0,
                    },
                    "net.delivery_latency",
                    at.saturating_since(self.now),
                );
            }
            let seq = self.send_seqs[from.0 as usize];
            self.send_seqs[from.0 as usize] += 1;
            self.schedule(at, from.0, seq, 0, Entry::Deliver { to, from, msg });
        }
        self.outbox = outbox;
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            let id = ActorId(i as u32);
            let mut ctx = Ctx {
                now: self.now,
                me: id,
                rng: &mut self.rngs[i],
                outbox: &mut self.outbox,
                timers_cancelled: false,
            };
            self.actors[i].on_start(&mut ctx);
            self.flush_outbox(id);
        }
    }

    /// Run until the queue drains, the step budget is
    /// exhausted, or (if given) the horizon is passed. Events scheduled
    /// *at* the horizon still run; the clock never exceeds it.
    pub fn run(&mut self, horizon: Option<SimTime>) -> RunOutcome {
        let outcome = self.run_loop(horizon);
        self.publish_engine_counters();
        outcome
    }

    /// Add the deliveries and queue high-water mark counted since the
    /// last publication to `sim.dispatches` and `sim.queue_depth_max`.
    fn publish_engine_counters(&mut self) {
        let mut total = 0;
        for (actor, n) in self.dispatches.iter_mut().enumerate() {
            if *n > 0 {
                let scope = Scope::Actor(actor as u32);
                self.obs.metrics.add(scope, "sim.dispatches", *n);
                total += std::mem::take(n);
            }
        }
        if total > 0 {
            self.obs.metrics.add(Scope::Global, "sim.dispatches", total);
        }
        if let Some(depth) = self.depth_max.take() {
            self.engine
                .gauge_track_max(Scope::Global, "sim.queue_depth_max", depth as i64);
        }
    }

    fn run_loop(&mut self, horizon: Option<SimTime>) -> RunOutcome {
        self.start_if_needed();
        loop {
            let Some(Reverse(head)) = self.queue.peek() else {
                return RunOutcome::Quiescent;
            };
            if let Some(h) = horizon {
                if head.at > h {
                    self.now = h;
                    return RunOutcome::HorizonReached;
                }
            }
            if self.steps >= self.max_steps {
                return RunOutcome::StepBudget;
            }
            self.depth_max = self.depth_max.max(Some(self.queue.len()));
            let Reverse(sched) = self.queue.pop().expect("peeked");
            let entry = self.slab[sched.slot as usize].take().expect("queued");
            self.free.push(sched.slot);
            self.now = sched.at;
            match entry {
                Entry::Control(c) => self.apply_control(c, sched.seq),
                Entry::Deliver { to, from, msg } => {
                    self.steps += 1;
                    self.dispatches[to.0 as usize] += 1;
                    match self.net.status(to) {
                        ActorStatus::Crashed { lossy: true } => {
                            self.obs
                                .metrics
                                .inc(Scope::Actor(to.0), "sim.dropped_while_crashed");
                        }
                        ActorStatus::Crashed { lossy: false } => {
                            self.held.push((to, from, msg));
                            self.obs
                                .metrics
                                .inc(Scope::Actor(to.0), "sim.held_while_crashed");
                        }
                        _ => {
                            let mut ctx = Ctx {
                                now: self.now,
                                me: to,
                                rng: &mut self.rngs[to.0 as usize],
                                outbox: &mut self.outbox,
                                timers_cancelled: false,
                            };
                            self.actors[to.0 as usize].on_message(msg, &mut ctx);
                            self.flush_outbox(to);
                        }
                    }
                }
            }
        }
    }

    /// Run to quiescence with no horizon.
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.run(None)
    }

    fn apply_control(&mut self, c: Control, ctl_seq: u64) {
        match c {
            Control::Crash { who, lossy } => {
                self.net.set_status(who, ActorStatus::Crashed { lossy });
                self.obs.metrics.record(
                    self.now,
                    Scope::Actor(who.0),
                    "sim.crash",
                    [("lossy", lossy.to_string())],
                );
                // Let the actor model the crash (a lossy crash wipes a
                // durable actor's volatile state). Anything it tries to
                // send is discarded — it is down.
                let mut ctx = Ctx {
                    now: self.now,
                    me: who,
                    rng: &mut self.rngs[who.0 as usize],
                    outbox: &mut self.outbox,
                    timers_cancelled: false,
                };
                self.actors[who.0 as usize].on_crash(lossy, &mut ctx);
                let timers_cancelled = ctx.timers_cancelled;
                self.outbox.clear();
                // A wiped actor's timers die with its state, and free
                // their slots. The queue's keys are unique, so dropping
                // entries leaves the pop order of the rest unchanged.
                if timers_cancelled {
                    let (slab, free) = (&mut self.slab, &mut self.free);
                    self.queue.retain(|Reverse(s)| {
                        let entry = &mut slab[s.slot as usize];
                        let timer = match entry {
                            Some(Entry::Deliver { to, from, .. }) => *to == who && *from == who,
                            _ => false,
                        };
                        if timer {
                            *entry = None;
                            free.push(s.slot);
                        }
                        !timer
                    });
                }
            }
            Control::Recover { who } => {
                self.net.set_status(who, ActorStatus::Up);
                self.obs.metrics.record(
                    self.now,
                    Scope::Actor(who.0),
                    "sim.recover",
                    std::iter::empty::<(&str, String)>(),
                );
                // Give the actor first crack at recovery (reload durable
                // state, re-arm timers) before held traffic lands. Its
                // sends are real and flushed normally.
                let mut ctx = Ctx {
                    now: self.now,
                    me: who,
                    rng: &mut self.rngs[who.0 as usize],
                    outbox: &mut self.outbox,
                    timers_cancelled: false,
                };
                self.actors[who.0 as usize].on_recover(&mut ctx);
                self.flush_outbox(who);
                // Replay messages held during the outage, at recovery
                // time, preserving their original arrival order. The
                // replayed entries take this control's key with a
                // nonzero `minor`, so they sort directly after the
                // recovery hook's sends that share its instant.
                let (replay, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.held)
                    .into_iter()
                    .partition(|(to, ..)| *to == who);
                self.held = keep;
                for (k, (to, from, msg)) in replay.into_iter().enumerate() {
                    let minor = k as u32 + 1;
                    let entry = Entry::Deliver { to, from, msg };
                    self.schedule(self.now, ActorId::EXTERNAL.0, ctl_seq, minor, entry);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_core::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Shared<T> = Rc<RefCell<T>>;

    fn shared<T>(v: T) -> Shared<T> {
        Rc::new(RefCell::new(v))
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Tick,
    }

    /// Records (time, payload) of everything it receives; replies to
    /// Ping by sending Ping(n-1) back until n == 0.
    struct Echo {
        peer: Option<ActorId>,
        log: Shared<Vec<(SimTime, Msg)>>,
        ticks: u32,
    }

    impl Actor<Msg> for Echo {
        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            self.log.borrow_mut().push((ctx.now(), msg.clone()));
            match msg {
                Msg::Ping(0) => {}
                Msg::Ping(n) => {
                    if let Some(p) = self.peer {
                        ctx.send(p, Msg::Ping(n - 1));
                    }
                }
                Msg::Tick => {
                    self.ticks += 1;
                    if self.ticks < 3 {
                        ctx.schedule_self(SimDuration::from_secs(1), Msg::Tick);
                    }
                }
            }
        }
    }

    fn fixed_sim(ms: u64) -> Sim<Msg> {
        Sim::with_network(
            7,
            Network::new(DelayModel::fixed(SimDuration::from_millis(ms))),
        )
    }

    #[test]
    fn ping_pong_runs_to_quiescence() {
        let log = shared(Vec::new());
        let mut sim = fixed_sim(100);
        let a = sim.add_actor(Box::new(Echo {
            peer: None,
            log: log.clone(),
            ticks: 0,
        }));
        let b = sim.add_actor(Box::new(Echo {
            peer: Some(a),
            log: log.clone(),
            ticks: 0,
        }));
        // Make a's peer b after registration? peers fixed at build; wire a -> b.
        // a has no peer so it just logs the final ping.
        sim.inject_at(SimTime::ZERO, b, Msg::Ping(3));
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        let log = log.borrow();
        // b received Ping(3) at t=0, a received Ping(2) at 100ms, b Ping(1) at 200ms...
        // but a has peer None: chain stops after a logs Ping(2).
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], (SimTime::ZERO, Msg::Ping(3)));
        assert_eq!(log[1], (SimTime::from_millis(100), Msg::Ping(2)));
    }

    #[test]
    fn timers_and_horizon() {
        let log = shared(Vec::new());
        let mut sim = fixed_sim(10);
        let a = sim.add_actor(Box::new(Echo {
            peer: None,
            log: log.clone(),
            ticks: 0,
        }));
        sim.inject_at(SimTime::ZERO, a, Msg::Tick);
        let out = sim.run(Some(SimTime::from_millis(1500)));
        // Tick at 0 and 1000 executed; 2000 beyond horizon.
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(log.borrow().len(), 2);
        assert_eq!(sim.now(), SimTime::from_millis(1500));
        // Resume to quiescence: third tick fires at t=2000.
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        assert_eq!(log.borrow().len(), 3);
        assert_eq!(sim.now(), SimTime::from_millis(2000));
    }

    #[test]
    fn crash_holds_messages_until_recovery() {
        let log = shared(Vec::new());
        let mut sim = fixed_sim(0);
        let a = sim.add_actor(Box::new(Echo {
            peer: None,
            log: log.clone(),
            ticks: 0,
        }));
        sim.crash_at(a, SimTime::from_secs(1), false);
        sim.inject_at(SimTime::from_secs(2), a, Msg::Ping(0));
        sim.inject_at(SimTime::from_secs(3), a, Msg::Tick);
        sim.recover_at(a, SimTime::from_secs(10));
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        let log = log.borrow();
        // Both messages replayed at recovery time, original order.
        assert_eq!(log[0], (SimTime::from_secs(10), Msg::Ping(0)));
        assert_eq!(log[1], (SimTime::from_secs(10), Msg::Tick));
    }

    #[test]
    fn lossy_crash_drops_messages() {
        let log = shared(Vec::new());
        let mut sim = fixed_sim(0);
        let a = sim.add_actor(Box::new(Echo {
            peer: None,
            log: log.clone(),
            ticks: 0,
        }));
        sim.crash_at(a, SimTime::from_secs(1), true);
        sim.inject_at(SimTime::from_secs(2), a, Msg::Ping(0));
        sim.recover_at(a, SimTime::from_secs(10));
        sim.inject_at(SimTime::from_secs(11), a, Msg::Tick);
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        assert_eq!(log.borrow().len(), 3); // Tick at 11s, 12s, 13s; Ping lost
        assert_eq!(
            sim.obs()
                .metrics
                .counter(Scope::Actor(a.0), "sim.dropped_while_crashed"),
            1
        );
    }

    #[test]
    fn step_budget_stops_runaway() {
        struct Looper;
        impl Actor<Msg> for Looper {
            fn on_message(&mut self, _m: Msg, ctx: &mut Ctx<'_, Msg>) {
                ctx.schedule_self(SimDuration::from_millis(1), Msg::Tick);
            }
        }
        let mut sim: Sim<Msg> = fixed_sim(0);
        let a = sim.add_actor(Box::new(Looper));
        sim.set_step_budget(100);
        sim.inject_at(SimTime::ZERO, a, Msg::Tick);
        assert_eq!(sim.run_to_quiescence(), RunOutcome::StepBudget);
    }

    #[test]
    fn on_start_hook_runs_once() {
        struct Starter {
            fired: Shared<u32>,
        }
        impl Actor<Msg> for Starter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                *self.fired.borrow_mut() += 1;
                ctx.schedule_self(SimDuration::from_secs(1), Msg::Ping(0));
            }
            fn on_message(&mut self, _m: Msg, _ctx: &mut Ctx<'_, Msg>) {}
        }
        let fired = shared(0);
        let mut sim: Sim<Msg> = fixed_sim(0);
        sim.add_actor(Box::new(Starter {
            fired: fired.clone(),
        }));
        sim.run_to_quiescence();
        sim.run_to_quiescence();
        assert_eq!(*fired.borrow(), 1);
        assert_eq!(sim.actor_count(), 1);
    }

    #[test]
    fn crash_and_recover_hooks_fire_in_order() {
        /// Logs lifecycle events; tries to send from on_crash (must be
        /// discarded) and schedules a timer from on_recover.
        struct Durable {
            log: Shared<Vec<String>>,
            peer: ActorId,
        }
        impl Actor<Msg> for Durable {
            fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                self.log
                    .borrow_mut()
                    .push(format!("msg {:?} at {}", msg, ctx.now().as_millis()));
            }
            fn on_crash(&mut self, lossy: bool, ctx: &mut Ctx<'_, Msg>) {
                self.log.borrow_mut().push(format!("crash lossy={lossy}"));
                ctx.send(self.peer, Msg::Ping(0)); // must be discarded
            }
            fn on_recover(&mut self, ctx: &mut Ctx<'_, Msg>) {
                self.log
                    .borrow_mut()
                    .push(format!("recover at {}", ctx.now().as_millis()));
                ctx.schedule_self(SimDuration::from_millis(5), Msg::Tick);
            }
        }
        let log = shared(Vec::new());
        let peer_log = shared(Vec::new());
        let mut sim = fixed_sim(0);
        let a = sim.add_actor(Box::new(Durable {
            log: log.clone(),
            peer: ActorId(1),
        }));
        let _peer = sim.add_actor(Box::new(Echo {
            peer: None,
            log: peer_log.clone(),
            ticks: 0,
        }));
        sim.crash_at(a, SimTime::from_secs(1), false);
        sim.inject_at(SimTime::from_secs(2), a, Msg::Ping(7)); // held
        sim.recover_at(a, SimTime::from_secs(3));
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        assert_eq!(
            *log.borrow(),
            vec![
                "crash lossy=false".to_string(),
                "recover at 3000".to_string(),
                "msg Ping(7) at 3000".to_string(), // held replay after the hook
                "msg Tick at 3005".to_string(),    // timer armed by on_recover
            ]
        );
        // The send attempted from on_crash never reached the peer.
        assert!(peer_log.borrow().is_empty());
    }

    #[test]
    fn a_crash_that_cancels_timers_drops_only_the_crashed_actors() {
        /// Arms a timer at 2s and one at 10s; cancels its timers on a
        /// crash when `wipe` is set.
        struct Timed {
            log: Shared<Vec<u64>>,
            wipe: bool,
        }
        impl Actor<Msg> for Timed {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.schedule_self(SimDuration::from_secs(2), Msg::Tick);
                ctx.schedule_self(SimDuration::from_secs(10), Msg::Tick);
            }
            fn on_message(&mut self, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                self.log.borrow_mut().push(ctx.now().as_millis());
            }
            fn on_crash(&mut self, _lossy: bool, ctx: &mut Ctx<'_, Msg>) {
                if self.wipe {
                    ctx.cancel_timers();
                }
            }
        }
        let logs: Vec<_> = (0..3).map(|_| shared(Vec::new())).collect();
        let mut sim = fixed_sim(0);
        for (i, log) in logs.iter().enumerate() {
            sim.add_actor(Box::new(Timed {
                log: log.clone(),
                wipe: i == 0,
            }));
        }
        // Actors 0 and 1 crash over [1s, 3s]; actor 2 never does.
        for a in [ActorId(0), ActorId(1)] {
            sim.crash_at(a, SimTime::from_secs(1), true);
            sim.recover_at(a, SimTime::from_secs(3));
        }
        sim.run_to_quiescence();
        assert_eq!(*logs[0].borrow(), Vec::<u64>::new());
        assert_eq!(*logs[1].borrow(), vec![10_000]);
        assert_eq!(*logs[2].borrow(), vec![2_000, 10_000]);
    }

    #[test]
    fn crash_cycles_that_cancel_timers_reuse_slab_slots() {
        /// Arms three timers at start and on every recovery; a crash
        /// cancels them.
        struct Rearm {
            fired: Shared<u32>,
        }
        fn arm(ctx: &mut Ctx<'_, Msg>) {
            for s in 1..=3 {
                ctx.schedule_self(SimDuration::from_secs(s * 10), Msg::Tick);
            }
        }
        impl Actor<Msg> for Rearm {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                arm(ctx);
            }
            fn on_message(&mut self, _msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
                *self.fired.borrow_mut() += 1;
            }
            fn on_crash(&mut self, _lossy: bool, ctx: &mut Ctx<'_, Msg>) {
                ctx.cancel_timers();
            }
            fn on_recover(&mut self, ctx: &mut Ctx<'_, Msg>) {
                arm(ctx);
            }
        }
        let fired = shared(0);
        let mut sim = fixed_sim(0);
        let a = sim.add_actor(Box::new(Rearm {
            fired: fired.clone(),
        }));
        // Fifty one-second outages, each scheduled and run as its own
        // leg, so the queue never holds more than one cycle's entries.
        for cycle in 0..50 {
            sim.crash_at(a, SimTime::from_secs(2 * cycle + 1), false);
            sim.recover_at(a, SimTime::from_secs(2 * cycle + 2));
            sim.run(Some(SimTime::from_secs(2 * cycle + 2)));
        }
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        // Every crash cancelled three pending timers; only the last
        // recovery's fired.
        assert_eq!(*fired.borrow(), 3);
        let depth = sim
            .engine_metrics()
            .gauge(Scope::Global, "sim.queue_depth_max")
            .expect("published");
        assert_eq!(depth, 5);
        assert!(sim.slab.len() <= depth as usize, "{}", sim.slab.len());
        // A sift moves keys only, whatever the message type.
        assert_eq!(std::mem::size_of::<Scheduled>(), 32);
    }

    #[test]
    fn external_sender_id_collides_with_no_actor() {
        let mut sim = fixed_sim(0);
        for _ in 0..4 {
            let id = sim.add_actor(Box::new(Echo {
                peer: None,
                log: shared(Vec::new()),
                ticks: 0,
            }));
            assert_ne!(id, ActorId::EXTERNAL);
        }
    }

    /// Relays `Ping(n)` to its peer as `Ping(n-1)`, logging every
    /// receipt to its own (unshared) log.
    struct Relay {
        peer: ActorId,
        log: Shared<Vec<(SimTime, u32)>>,
    }

    impl Actor<Msg> for Relay {
        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Ping(n) = msg {
                self.log.borrow_mut().push((ctx.now(), n));
                if n > 0 {
                    ctx.send(self.peer, Msg::Ping(n - 1));
                }
            }
        }
    }

    /// Per-actor message logs plus final time, traffic count, and
    /// metrics snapshot.
    type RelayArtifacts = (Vec<Vec<(SimTime, u32)>>, SimTime, u64, String);

    /// Build a 6-actor relay ring over a jittery network with a
    /// crash/recovery, run it, and collect
    /// every observable artifact.
    fn relay_artifacts() -> RelayArtifacts {
        let mut sim = Sim::with_network(
            42,
            Network::new(DelayModel {
                base: SimDuration::from_millis(5),
                jitter: SimDuration::from_millis(9),
            }),
        );
        let n = 6u32;
        let logs: Vec<Shared<Vec<(SimTime, u32)>>> = (0..n).map(|_| shared(Vec::new())).collect();
        for i in 0..n {
            sim.add_actor(Box::new(Relay {
                peer: ActorId((i + 1) % n),
                log: logs[i as usize].clone(),
            }));
        }
        for i in 0..4u64 {
            sim.inject_at(
                SimTime::from_millis(i * 3),
                ActorId(i as u32 % n),
                Msg::Ping(12),
            );
        }
        sim.crash_at(ActorId(2), SimTime::from_millis(40), false);
        sim.recover_at(ActorId(2), SimTime::from_millis(120));
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        assert!(
            sim.engine_metrics()
                .gauge(Scope::Global, "sim.queue_depth_max")
                .is_some_and(|d| d > 0),
            "engine registry tracks the queue high-water mark"
        );
        let out = logs.iter().map(|l| l.borrow().clone()).collect();
        (
            out,
            sim.now(),
            sim.network().total_sent(),
            sim.obs().snapshot_jsonl(),
        )
    }

    #[test]
    fn relay_run_replays_identically() {
        let a = relay_artifacts();
        let b = relay_artifacts();
        assert_eq!(a, b, "same-seed runs must produce identical artifacts");
        // The failure schedule really bit: actor 2 held traffic while
        // down.
        assert!(a.3.contains("sim.held_while_crashed"), "{}", a.3);
    }

    #[test]
    fn split_run_matches_unsplit_run() {
        type Logs = (Vec<(SimTime, u32)>, Vec<(SimTime, u32)>, SimTime);
        fn run(split: bool) -> Logs {
            let mut sim = Sim::with_network(
                11,
                Network::new(DelayModel {
                    base: SimDuration::from_millis(8),
                    jitter: SimDuration::from_millis(4),
                }),
            );
            let la = shared(Vec::new());
            let lb = shared(Vec::new());
            sim.add_actor(Box::new(Relay {
                peer: ActorId(1),
                log: la.clone(),
            }));
            sim.add_actor(Box::new(Relay {
                peer: ActorId(0),
                log: lb.clone(),
            }));
            sim.inject_at(SimTime::ZERO, ActorId(0), Msg::Ping(20));
            if split {
                assert_eq!(
                    sim.run(Some(SimTime::from_millis(60))),
                    RunOutcome::HorizonReached
                );
                assert_eq!(sim.now(), SimTime::from_millis(60));
            }
            assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
            let a = la.borrow().clone();
            let b = lb.borrow().clone();
            (a, b, sim.now())
        }
        let unsplit = run(false);
        assert!(
            unsplit.2 > SimTime::from_millis(60),
            "run must cross the split"
        );
        assert_eq!(run(true), unsplit);
    }

    /// `sim.dispatches` (global, then per actor) and
    /// `sim.queue_depth_max`, as published to the two registries.
    fn engine_counts(sim: &Sim<Msg>) -> (u64, Vec<u64>, Option<i64>) {
        let m = sim.obs().metrics;
        let per_actor = (0..sim.actor_count() as u32)
            .map(|a| m.counter(Scope::Actor(a), "sim.dispatches"))
            .collect();
        let depth = sim
            .engine_metrics()
            .gauge(Scope::Global, "sim.queue_depth_max");
        (m.counter(Scope::Global, "sim.dispatches"), per_actor, depth)
    }

    #[test]
    fn engine_counters_publish_on_every_return() {
        fn ring(n: u32, log: &Shared<Vec<(SimTime, u32)>>) -> Sim<Msg> {
            let mut sim = fixed_sim(7);
            for i in 0..n {
                sim.add_actor(Box::new(Relay {
                    peer: ActorId((i + 1) % n),
                    log: log.clone(),
                }));
            }
            sim
        }
        // A three-actor ring with a crash: a delivery held while its
        // target is down counts when held and again when replayed. The
        // queue peaks before the split, so the second leg publishes a
        // lower high-water mark that must not replace the first.
        fn run(split: bool) -> (u64, Vec<u64>, Option<i64>) {
            let log = shared(Vec::new());
            let mut sim = ring(3, &log);
            for i in 0..3u64 {
                sim.inject_at(SimTime::from_millis(i), ActorId(i as u32), Msg::Ping(6));
            }
            for i in 0..9u64 {
                sim.inject_at(
                    SimTime::from_millis(200),
                    ActorId(i as u32 % 3),
                    Msg::Ping(2),
                );
            }
            sim.crash_at(ActorId(1), SimTime::from_millis(10), false);
            sim.recover_at(ActorId(1), SimTime::from_millis(30));
            if split {
                assert_eq!(
                    sim.run(Some(SimTime::from_millis(60))),
                    RunOutcome::HorizonReached
                );
                assert_eq!(engine_counts(&sim), (24, vec![7, 10, 7], Some(14)));
            }
            assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
            assert_eq!(log.borrow().len(), 48);
            engine_counts(&sim)
        }
        let unsplit = run(false);
        assert_eq!(unsplit, (51, vec![16, 19, 16], Some(14)));
        assert_eq!(run(true), unsplit);

        // A run that exhausts its step budget publishes too.
        let log = shared(Vec::new());
        let mut sim = ring(2, &log);
        sim.inject_at(SimTime::ZERO, ActorId(0), Msg::Ping(20));
        sim.set_step_budget(5);
        assert_eq!(sim.run_to_quiescence(), RunOutcome::StepBudget);
        assert_eq!(engine_counts(&sim), (5, vec![3, 2], Some(1)));
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        fn run_once(seed: u64) -> Vec<(SimTime, Msg)> {
            let log = shared(Vec::new());
            let mut sim = Sim::with_network(
                seed,
                Network::new(DelayModel {
                    base: SimDuration::from_millis(5),
                    jitter: SimDuration::from_millis(50),
                }),
            );
            let a = sim.add_actor(Box::new(Echo {
                peer: None,
                log: log.clone(),
                ticks: 0,
            }));
            let b = sim.add_actor(Box::new(Echo {
                peer: Some(a),
                log: log.clone(),
                ticks: 0,
            }));
            for i in 0..10 {
                sim.inject_at(SimTime::from_millis(i * 7), b, Msg::Ping(2));
            }
            sim.run_to_quiescence();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(run_once(99), run_once(99));
        assert_ne!(run_once(99), run_once(100));
    }
}
