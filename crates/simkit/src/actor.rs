//! Actors and the per-delivery context.
//!
//! Every simulated component — CM-Shells, CM-Translators, workload
//! generators, protocol coordinators — is an [`Actor`]. Actors interact
//! only through messages; the simulation delivers each message at its
//! scheduled virtual time, giving the actor a [`Ctx`] through which it
//! can read the clock, send further messages, schedule timers on
//! itself, and draw randomness.

use crate::net::SendKind;
use crate::rng::SimRng;
use hcm_core::{SimDuration, SimTime};
use std::fmt;

/// Identifier of an actor within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// Distinguished sender id for messages injected from outside the
    /// simulation (workload drivers, test harnesses). No registered
    /// actor ever gets this id, so attribution can tell external
    /// traffic from actor-to-actor sends instead of blaming the
    /// recipient for its own workload.
    pub const EXTERNAL: ActorId = ActorId(u32::MAX);
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor{}", self.0)
    }
}

/// A simulated component.
///
/// `M` is the scenario's message type (an enum in practice). Handlers
/// must not block; long-running behaviour is expressed by scheduling
/// future messages to oneself.
pub trait Actor<M> {
    /// Handle one delivered message at the current virtual time.
    fn on_message(&mut self, msg: M, ctx: &mut Ctx<'_, M>);

    /// Called once when the simulation starts, before any message is
    /// delivered. Default: nothing. Use it to arm initial timers.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called when the simulation crashes this actor. `lossy` mirrors
    /// the crash control: a lossy crash destroys in-flight messages
    /// *and*, for durable-state actors, their volatile state — the
    /// hook is where such an actor wipes itself, and cancels the
    /// timers that state had armed ([`Ctx::cancel_timers`]). Sends
    /// made from this hook are discarded (the actor is already down).
    /// Default: nothing.
    fn on_crash(&mut self, lossy: bool, ctx: &mut Ctx<'_, M>) {
        let _ = (lossy, ctx);
    }

    /// Called when the simulation recovers this actor, *before* any
    /// held message is redelivered. A durable-state actor replays its
    /// log here and re-arms its timers. Default: nothing.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }
}

/// Context handed to an actor for the duration of one delivery.
///
/// Sends are *collected* and enqueued by the simulation after the
/// handler returns, in call order, preserving determinism and FIFO
/// channel semantics.
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) me: ActorId,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) outbox: &'a mut Vec<(ActorId, M, SendKind)>,
    /// Set by [`Ctx::cancel_timers`].
    pub(crate) timers_cancelled: bool,
}

impl<M> Ctx<'_, M> {
    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's id.
    #[must_use]
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// The simulation's random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Send a message over the network: it arrives after the channel's
    /// delay model (plus jitter), in FIFO order with respect to earlier
    /// sends on the same (sender, receiver) channel, and subject to the
    /// receiver's failure status.
    pub fn send(&mut self, to: ActorId, msg: M) {
        self.outbox.push((to, msg, SendKind::Network));
    }

    /// Deliver a message to `to` after exactly `delay`, bypassing the
    /// network's delay model but still subject to the receiver's
    /// failure status. Used for intra-site interactions (shell ↔
    /// translator on the same machine) where the paper assumes
    /// negligible, bounded local cost.
    pub fn send_local(&mut self, to: ActorId, msg: M, delay: SimDuration) {
        self.outbox.push((to, msg, SendKind::Local(delay)));
    }

    /// Schedule a message to oneself after `delay` — a timer. Timers
    /// are not network traffic, and do not fire while the actor is
    /// crashed.
    pub fn schedule_self(&mut self, delay: SimDuration, msg: M) {
        self.outbox.push((self.me, msg, SendKind::Timer(delay)));
    }

    /// Cancel every message this actor has sent itself and not yet
    /// received — its pending timers. Honoured from
    /// [`Actor::on_crash`] only: a crash that wipes an actor's state
    /// takes the timers that state armed with it, and recovery
    /// re-arms the ones it still needs.
    pub fn cancel_timers(&mut self) {
        self.timers_cancelled = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_id_display() {
        assert_eq!(ActorId(4).to_string(), "actor4");
    }

    #[test]
    fn ctx_collects_sends_in_order() {
        let mut rng = SimRng::seeded(1);
        let mut outbox = Vec::new();
        let mut ctx: Ctx<'_, &str> = Ctx {
            now: SimTime::from_secs(5),
            me: ActorId(1),
            rng: &mut rng,
            outbox: &mut outbox,
            timers_cancelled: false,
        };
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        assert_eq!(ctx.me(), ActorId(1));
        ctx.send(ActorId(2), "a");
        ctx.send_local(ActorId(3), "b", SimDuration::from_millis(10));
        ctx.schedule_self(SimDuration::from_secs(1), "tick");
        assert_eq!(outbox.len(), 3);
        assert_eq!(outbox[0].0, ActorId(2));
        assert!(matches!(outbox[1].2, SendKind::Local(d) if d == SimDuration::from_millis(10)));
        assert!(matches!(outbox[2].2, SendKind::Timer(_)));
        assert_eq!(outbox[2].0, ActorId(1));
    }
}
