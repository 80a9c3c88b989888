//! Network model and failure status.
//!
//! The paper assumes a reliable network ("network failures can be viewed
//! as the failure of the sites sending the affected message", §5 fn. 4)
//! with in-order delivery between sites (Appendix property 7). The
//! [`Network`] therefore provides **reliable FIFO channels** with a
//! configurable delay model, and failures are modeled at the *receiving
//! actor*: while it is [`ActorStatus::Crashed`], deliveries are held (a
//! database "with some basic recovery facilities" that replays on
//! recovery) or dropped (`lossy`), the interface statements are void ⇒
//! the paper's **logical failure**. The **metric failure** — a slow
//! database missing its interface time bounds — is the translator's
//! own inflated service delay, not a network status.

use crate::actor::ActorId;
use crate::rng::SimRng;
use hcm_core::{SimDuration, SimTime};
use std::collections::HashMap;

/// How a message was submitted (see `Ctx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendKind {
    /// Over the network: channel delay model + FIFO clamp.
    Network,
    /// Local interaction with an explicit delay; no channel jitter.
    Local(SimDuration),
    /// Timer to self.
    Timer(SimDuration),
}

/// Delay model for network sends.
#[derive(Debug, Clone, Copy)]
pub struct DelayModel {
    /// Minimum one-way latency.
    pub base: SimDuration,
    /// Additional uniform jitter in `[0, jitter]`.
    pub jitter: SimDuration,
}

impl DelayModel {
    /// A fixed-latency model with no jitter.
    #[must_use]
    pub const fn fixed(d: SimDuration) -> Self {
        DelayModel {
            base: d,
            jitter: SimDuration::ZERO,
        }
    }

    /// Sample a one-way delay.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> SimDuration {
        if self.jitter == SimDuration::ZERO {
            self.base
        } else {
            self.base + rng.duration_in(SimDuration::ZERO, self.jitter)
        }
    }
}

impl Default for DelayModel {
    /// 20 ms ± 10 ms — a campus network, in the spirit of the paper's
    /// Stanford deployment.
    fn default() -> Self {
        DelayModel {
            base: SimDuration::from_millis(20),
            jitter: SimDuration::from_millis(10),
        }
    }
}

/// Failure status of an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActorStatus {
    /// Normal operation.
    #[default]
    Up,
    /// Logical-failure mode: the actor processes nothing. If `lossy`,
    /// messages that arrive while crashed are lost; otherwise they are
    /// queued and replayed at recovery time in arrival order.
    Crashed {
        /// Whether in-flight messages are dropped instead of held.
        lossy: bool,
    },
}

/// Per-pair FIFO bookkeeping, delay sampling, and failure status.
#[derive(Debug, Clone)]
pub struct Network {
    default_delay: DelayModel,
    /// Latest delivery time already scheduled per channel (FIFO clamp).
    last_delivery: HashMap<(ActorId, ActorId), SimTime>,
    status: HashMap<ActorId, ActorStatus>,
    /// Messages sent over all channels, for the traffic-reduction
    /// experiments (E8/E9).
    sent: u64,
    /// In-order delivery per channel (the paper's Appendix property 7
    /// assumption). Disable ONLY for the ablation experiment that shows
    /// the assumption is load-bearing.
    fifo: bool,
}

impl Default for Network {
    fn default() -> Self {
        Network {
            default_delay: DelayModel::default(),
            last_delivery: HashMap::new(),
            status: HashMap::new(),
            sent: 0,
            fifo: true,
        }
    }
}

impl Network {
    /// A network with the given delay model and FIFO channels.
    #[must_use]
    pub fn new(default_delay: DelayModel) -> Self {
        Network {
            default_delay,
            ..Default::default()
        }
    }

    /// Disable per-channel in-order delivery — messages race freely.
    /// This violates the assumption under which the paper's guarantees
    /// are proven; the E14 ablation uses it to show the checker catches
    /// the resulting property-7 and guarantee-(3) violations.
    pub fn set_fifo(&mut self, fifo: bool) {
        self.fifo = fifo;
    }

    /// Current failure status of an actor.
    #[must_use]
    pub(crate) fn status(&self, a: ActorId) -> ActorStatus {
        self.status.get(&a).copied().unwrap_or_default()
    }

    /// Set the failure status of an actor (used by the simulation's
    /// failure-injection schedule).
    pub(crate) fn set_status(&mut self, a: ActorId, s: ActorStatus) {
        self.status.insert(a, s);
    }

    /// Compute the delivery time for a message submitted `now` on
    /// `(from, to)` with the given send kind, maintaining the FIFO
    /// invariant: delivery times on one channel never decrease.
    pub(crate) fn delivery_time(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        kind: SendKind,
        rng: &mut SimRng,
    ) -> SimTime {
        let base = match kind {
            SendKind::Network => self.default_delay.sample(rng),
            SendKind::Local(d) | SendKind::Timer(d) => d,
        };
        let mut at = now + base;
        if !matches!(kind, SendKind::Timer(_)) {
            self.sent += 1;
            if self.fifo {
                let last = self.last_delivery.entry((from, to)).or_insert(at);
                if *last > at {
                    at = *last; // FIFO clamp
                } else {
                    *last = at;
                }
            }
        }
        at
    }

    /// Total messages sent over all channels.
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> ActorId {
        ActorId(n)
    }

    #[test]
    fn fixed_delay_applies() {
        let mut net = Network::new(DelayModel::fixed(SimDuration::from_millis(50)));
        let mut rng = SimRng::seeded(1);
        let at = net.delivery_time(SimTime::ZERO, a(0), a(1), SendKind::Network, &mut rng);
        assert_eq!(at, SimTime::from_millis(50));
    }

    #[test]
    fn fifo_clamp_preserves_order() {
        // Jittery channel: a later send may sample a smaller delay, but
        // its delivery must not precede the earlier send's.
        let mut net = Network::new(DelayModel {
            base: SimDuration::from_millis(10),
            jitter: SimDuration::from_millis(100),
        });
        let mut rng = SimRng::seeded(2);
        let mut last = SimTime::ZERO;
        for i in 0..200u64 {
            let now = SimTime::from_millis(i);
            let at = net.delivery_time(now, a(0), a(1), SendKind::Network, &mut rng);
            assert!(at >= last, "FIFO violated: {at} < {last}");
            last = at;
        }
    }

    #[test]
    fn channels_are_independent() {
        let mut net = Network::new(DelayModel::fixed(SimDuration::from_millis(10)));
        let mut rng = SimRng::seeded(3);
        let slow = SendKind::Local(SimDuration::from_millis(500));
        let t1 = net.delivery_time(SimTime::ZERO, a(0), a(2), slow, &mut rng);
        let t2 = net.delivery_time(SimTime::ZERO, a(0), a(1), SendKind::Network, &mut rng);
        assert_eq!(t1, SimTime::from_millis(500));
        assert_eq!(t2, SimTime::from_millis(10)); // not clamped by other channel
    }

    #[test]
    fn local_send_uses_explicit_delay() {
        let mut net = Network::new(DelayModel::default());
        let mut rng = SimRng::seeded(5);
        let at = net.delivery_time(
            SimTime::from_secs(1),
            a(0),
            a(1),
            SendKind::Local(SimDuration::from_millis(3)),
            &mut rng,
        );
        assert_eq!(at, SimTime::from_millis(1003));
    }

    #[test]
    fn traffic_counters() {
        let mut net = Network::new(DelayModel::fixed(SimDuration::ZERO));
        let mut rng = SimRng::seeded(6);
        for _ in 0..3 {
            net.delivery_time(SimTime::ZERO, a(0), a(1), SendKind::Network, &mut rng);
        }
        net.delivery_time(
            SimTime::ZERO,
            a(0),
            a(0),
            SendKind::Timer(SimDuration::ZERO),
            &mut rng,
        );
        assert_eq!(net.total_sent(), 3, "timers are not traffic");
    }

    #[test]
    fn status_default_is_up() {
        let net = Network::default();
        assert_eq!(net.status(a(9)), ActorStatus::Up);
    }
}
