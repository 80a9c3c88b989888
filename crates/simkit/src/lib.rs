//! # hcm-simkit — deterministic discrete-event simulation substrate
//!
//! The paper's toolkit ran over real networks, Sybase servers and Unix
//! file systems at Stanford. This crate is the substitution documented in
//! `DESIGN.md`: a deterministic discrete-event simulation providing
//! exactly the environment the paper's formal framework assumes —
//!
//! * a **global virtual clock** ([`hcm_core::SimTime`]) against which
//!   metric interface bounds (`→δ`) and metric guarantees (κ) can be
//!   checked *exactly* rather than statistically;
//! * **in-order message delivery** between any pair of actors (the
//!   paper's Appendix property 7 assumes "in-order message delivery
//!   between sites and in-order processing at each site");
//! * **failure injection** — crashes (the §5 logical failures) that
//!   hold or drop in-flight messages until recovery;
//! * **seeded randomness** so every experiment is reproducible.
//!
//! The programming model is an actor loop: components implement
//! [`Actor`] and exchange a user-chosen message type through [`Sim`].
//! Execution is single-threaded: one event loop pops one event at a
//! time, so a run is a pure function of its seed and schedule.

#![warn(missing_docs)]

pub mod actor;
pub mod net;
pub mod rng;
pub mod sim;

pub use actor::{Actor, ActorId, Ctx};
pub use hcm_obs::{Obs, Scope};
pub use net::{ActorStatus, DelayModel, Network, SendKind};
pub use rng::SimRng;
pub use sim::{RunOutcome, Sim};
