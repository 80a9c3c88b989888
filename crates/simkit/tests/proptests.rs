//! Randomized-but-deterministic tests for the simulation substrate:
//! per-channel FIFO delivery under arbitrary jitter, and bit-for-bit
//! determinism of whole runs.
//!
//! Formerly proptest-based; now driven by seeded [`SimRng`] loops so
//! the suite needs no external crates and every failure reproduces
//! from its printed seed.

use hcm_core::{SimDuration, SimTime};
use hcm_simkit::{Actor, ActorId, Ctx, DelayModel, Network, Sim, SimRng};
use std::cell::RefCell;
use std::rc::Rc;

type Log = Rc<RefCell<Vec<(SimTime, u32, u64)>>>;

/// Sender: emits `n` sequenced messages to the receiver at given times.
struct Sender {
    to: ActorId,
}

/// Receiver: records (arrival time, sender, sequence number).
struct Receiver {
    log: Log,
}

#[derive(Clone, Debug)]
enum Msg {
    Emit { seq: u64 },
    Deliver { from: u32, seq: u64 },
}

impl Actor<Msg> for Sender {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Emit { seq } = msg {
            let from = ctx.me().0;
            ctx.send(self.to, Msg::Deliver { from, seq });
        }
    }
}

impl Actor<Msg> for Receiver {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Deliver { from, seq } = msg {
            self.log.borrow_mut().push((ctx.now(), from, seq));
        }
    }
}

fn run(seed: u64, jitter_ms: u64, emissions: &[(u8, u16)]) -> Vec<(SimTime, u32, u64)> {
    let net = Network::new(DelayModel {
        base: SimDuration::from_millis(5),
        jitter: SimDuration::from_millis(jitter_ms),
    });
    let mut sim: Sim<Msg> = Sim::with_network(seed, net);
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let receiver = sim.add_actor(Box::new(Receiver { log: log.clone() }));
    let s1 = sim.add_actor(Box::new(Sender { to: receiver }));
    let s2 = sim.add_actor(Box::new(Sender { to: receiver }));
    for (i, (which, at)) in emissions.iter().enumerate() {
        let to = if *which % 2 == 0 { s1 } else { s2 };
        sim.inject_at(
            SimTime::from_millis(u64::from(*at)),
            to,
            Msg::Emit { seq: i as u64 },
        );
    }
    sim.run_to_quiescence();
    let out = log.borrow().clone();
    out
}

/// One random case: a seed, a jitter, and a sorted emission schedule.
fn random_case(gen: &mut SimRng, max_emissions: i64) -> (u64, u64, Vec<(u8, u16)>) {
    let seed = gen.int_in(0, 999) as u64;
    let jitter = gen.int_in(0, 4999) as u64;
    let n = gen.int_in(1, max_emissions);
    let mut emissions: Vec<(u8, u16)> = (0..n)
        .map(|_| (gen.int_in(0, 1) as u8, gen.int_in(0, 1999) as u16))
        .collect();
    emissions.sort_by_key(|(_, at)| *at);
    (seed, jitter, emissions)
}

/// Messages on one (sender, receiver) channel are delivered in the
/// order they were sent, for any jitter.
#[test]
fn per_channel_fifo() {
    let mut gen = SimRng::seeded(0xF1F0);
    for case in 0..60 {
        let (seed, jitter, emissions) = random_case(&mut gen, 40);
        let log = run(seed, jitter, &emissions);
        assert_eq!(log.len(), emissions.len(), "case {case}: lost messages");
        // Per sender, sequence numbers arrive in increasing order.
        for sender in [1u32, 2] {
            let seqs: Vec<u64> = log
                .iter()
                .filter(|(_, s, _)| *s == sender)
                .map(|(_, _, q)| *q)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "case {case}: sender {sender} reordered");
        }
        // Arrival times are nondecreasing in delivery order.
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time went backwards");
        }
    }
}

/// Whole runs are bit-for-bit deterministic per seed.
#[test]
fn runs_are_deterministic() {
    let mut gen = SimRng::seeded(0xDE7E);
    for case in 0..40 {
        let (seed, jitter, emissions) = random_case(&mut gen, 30);
        let a = run(seed, jitter, &emissions);
        let b = run(seed, jitter, &emissions);
        assert_eq!(a, b, "case {case}: same seed diverged");
    }
}
