//! # hcm — constraint management in heterogeneous information systems
//!
//! A full reproduction of *"A Toolkit for Constraint Management in
//! Heterogeneous Information Systems"* (Chawathe, Garcia-Molina, Widom;
//! ICDE 1996) as a Rust workspace. This facade crate re-exports every
//! component; see `README.md` for a tour and `DESIGN.md` for the
//! system inventory.
//!
//! * [`core`] — values, virtual time, items, six-tuple events,
//!   templates, traces.
//! * [`rulelang`] — the rule language: interfaces, strategies,
//!   guarantees, spec files.
//! * [`simkit`] — deterministic discrete-event simulation substrate.
//! * [`ris`] — five heterogeneous Raw Information Sources.
//! * [`toolkit`] — CM-Shells, CM-Translators, CM-RIDs, menus,
//!   scenarios: the paper's contribution.
//! * [`checker`] — mechanical validity and guarantee checking.
//! * [`protocols`] — demarcation, polling, caching, monitor,
//!   referential integrity, periodic propagation, and the 2PC baseline.
//! * [`obs`] — deterministic sim-time observability: metrics registry,
//!   causal-chain reconstruction, snapshot exporters.
//! * [`store`] — durable state: append-only CRC-checked event log and
//!   crash-recovery replay (§5 "remember messages").
//! * [`harness`] — toolkit↔checker glue: build a rule set from a
//!   scenario, run the standard post-mortem.

pub mod harness;

pub use hcm_checker as checker;
pub use hcm_core as core;
pub use hcm_obs as obs;
pub use hcm_protocols as protocols;
pub use hcm_ris as ris;
pub use hcm_rulelang as rulelang;
pub use hcm_simkit as simkit;
pub use hcm_store as store;
pub use hcm_toolkit as toolkit;
