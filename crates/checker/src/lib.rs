//! # hcm-checker — mechanical verification over recorded executions
//!
//! The paper proves guarantees by hand from interface and strategy
//! specifications using proof rules \[CGMW94\]. This crate is the
//! reproduction's *mechanical* counterpart: executions recorded by the
//! simulated toolkit are **checked**, exactly, against
//!
//! * the seven **valid-execution properties** of Appendix A.2
//!   ([`validity`]) — time ordering, write semantics, the frame axiom,
//!   spontaneity, rule causality, rule obligations, and in-order
//!   processing of related rules;
//! * arbitrary **guarantee formulas** of the §3.3 language
//!   ([`guarantee`]) — metric and non-metric, point (`@`), throughout
//!   (`@@`) and sometime (`@?`) forms, with the paper's quantification
//!   convention (left of `⇒` universal, right existential).
//!
//! Both read item state from the trace's one [`StateIndex`]
//! (re-exported here from `hcm-core`): [`hcm_core::Trace::index`]
//! builds it on the first query and shares it between the validity
//! pass and every guarantee check.
//!
//! ## Finite-trace semantics
//!
//! Guarantees quantify over continuous time; a recorded trace is
//! finite. Item values change only at event instants, so every formula
//! is piecewise-constant in each time variable with breakpoints at the
//! *salient grid*: event times, shifted by each constant offset in the
//! formula, plus ±1 ms neighbours (the clock is integer milliseconds).
//! Quantifying over this grid is exact for the formula class of the
//! paper.
//!
//! The evaluator compiles each guarantee once: every data, parameter
//! and time variable gets a slot in name order, and an assignment is
//! two slot vectors that the search binds and unbinds in place on both
//! sides of the implication. Parameter variables are enumerated
//! outermost, and under each binding every item pattern resolves once
//! to its change history. A condition then reads a fixed set of items,
//! so its truth changes only at *those* items' change points. The
//! evaluator evaluates an `@` atom once per segment between them, not
//! once per grid point. On the universal side, each grid point in a
//! segment inherits that segment's bindings, in ascending order and
//! with multiplicity. On the witness side, a fully bound atom caches
//! its satisfying segments per binding, each evaluated when a witness
//! window first reaches it, and only grid and window instants inside
//! them are tried. A `@@`/`@?` atom is read at its window's start and
//! at those change points inside it.
//! Liveness-flavoured guarantees ("X leads Y") are evaluated up to a
//! *quiescence horizon*: run the workload, drain the system, then
//! check — `EXPERIMENTS.md` records the horizon per experiment.

#![warn(missing_docs)]

pub mod guarantee;
pub mod ruleset;
pub mod validity;

pub use guarantee::{GuaranteeOutcome, GuaranteeReport};
pub use hcm_core::StateIndex;
pub use ruleset::RuleSet;
pub use validity::{check_validity, ValidityReport, Violation};
