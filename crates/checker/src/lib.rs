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
//! paper. Under a fixed binding of its variables, a condition reads a
//! fixed set of items, so its truth changes only at *those* items'
//! change points: the evaluator evaluates a fully bound `@` atom once
//! per segment between them, not once per grid point, and a `@@`/`@?`
//! atom at its window's start and at those change points inside it.
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
