//! # hcm-core — framework vocabulary for heterogeneous constraint management
//!
//! This crate defines the shared vocabulary of the toolkit described in
//! *"A Toolkit for Constraint Management in Heterogeneous Information
//! Systems"* (Chawathe, Garcia-Molina, Widom; ICDE 1996):
//!
//! * [`Value`] — the values data items take (integers, floats, strings,
//!   booleans, and the distinguished [`Value::Null`] meaning *absent*,
//!   which backs the paper's `E(X)` exists-predicate).
//! * [`SimTime`] / [`SimDuration`] — the global virtual clock the formal
//!   framework reasons in. The paper uses seconds; we use integer
//!   milliseconds so metric guarantees are checked exactly.
//! * [`SiteId`] — sites hosting databases and CM-Shells.
//! * [`ItemId`] / [`ItemPattern`] — (parameterized) data-item names such
//!   as `salary1(n)` from §3.1.1 of the paper.
//! * [`EventDesc`] / [`Event`] — event descriptors and the six-tuple
//!   events of Appendix A: `(time, desc, old, new, rule, trigger)`.
//! * [`TemplateDesc`] / [`Bindings`] — event templates and matching
//!   interpretations (`mi(E, 𝓔)` in the paper).
//! * [`RuleIndex`] — the discrimination index over rule LHS templates
//!   that both the CM-Shell's dispatch and the validity checker use.
//! * [`Trace`] — recorded executions, the object the
//!   `hcm-checker` crate validates and evaluates guarantees over, and
//!   [`StateIndex`], the per-item state every query on a trace reads.
//!
//! Everything downstream — the rule language, the raw information
//! sources, the CM-Shell engine, the protocol library and the checkers —
//! builds on these types.

#![warn(missing_docs)]

pub mod error;
pub mod event;
pub mod intern;
pub mod item;
pub mod rule;
pub mod rule_index;
pub mod site;
pub mod state;
pub mod template;
pub mod time;
pub mod trace;
pub mod value;

pub use error::CoreError;
pub use event::{Event, EventDesc, EventId};
pub use intern::Sym;
pub use item::{ItemId, ItemPattern};
pub use rule::{RuleId, RuleRegistry};
pub use rule_index::RuleIndex;
pub use site::SiteId;
pub use state::StateIndex;
pub use template::{Bindings, TemplateDesc, Term};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceRecorder};
pub use value::Value;
