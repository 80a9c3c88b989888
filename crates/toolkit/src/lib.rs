//! # hcm-toolkit — the constraint-management toolkit
//!
//! This crate is the reproduction of the paper's contribution proper
//! (§4, Figure 2): a set of configurable modules that monitor and
//! enforce constraints spanning loosely coupled heterogeneous
//! information systems.
//!
//! ```text
//!   CM-Shell ◄────────────── Strategy Specification
//!      │  CMI (uniform)
//!   CM-Translator ◄───────── CM-RID (per data source)
//!      │  RISI (native: SQL / files / kv / biblio / whois)
//!   Raw Information Source
//! ```
//!
//! * [`rid::CmRid`] — parsed CM-Raw-Interface-Description files: the
//!   interface statements a database offers plus the RIS-specific
//!   plumbing (SQL command templates for the relational source,
//!   prepared once with `$p0`/`$value` placeholders; path/key patterns
//!   for the others).
//! * [`backend::RisBackend`] + [`backends`] — the inside of a
//!   CM-Translator: one adapter per RIS kind, each speaking its
//!   store's *native* interface only.
//! * [`translator::TranslatorActor`] — implements the offered
//!   interfaces at run time: performs requested writes/reads within
//!   their `→δ` bounds, turns native triggers/watches into
//!   notifications, polls for periodic-notify interfaces, and
//!   classifies failures (§5).
//! * [`shell::ShellActor`] — the CM-Shell: a distributed rule engine
//!   executing the strategy rules assigned to its site, with CM-private
//!   and auxiliary data, event forwarding, and guarantee bookkeeping.
//! * [`compile::CompiledStrategy`] — initialization (§4.1): rule
//!   distribution by LHS-event site, routing tables, interest patterns.
//! * [`menu`] — the library of proven interfaces and strategies, and
//!   the suggestion engine.
//! * [`scenario::ScenarioBuilder`] — wires sites, translators, shells,
//!   workloads and failure schedules into an `hcm_simkit::Sim` and
//!   returns the recorded trace for checking.

#![warn(missing_docs)]

pub mod backend;
pub mod backends;
pub mod compile;
pub mod durability;
pub mod menu;
pub mod msg;
pub mod registry;
pub mod rid;
pub mod scenario;
pub mod shell;
pub mod translator;
pub mod workload;

pub use compile::CompiledStrategy;
pub use durability::{Durability, StatePolicy, StoreSetup};
pub use msg::{CmMsg, RequestKind, SpontaneousOp, TranslatorEvent};
pub use registry::{FailureKind, GuaranteeRegistry, GuaranteeStatus};
pub use rid::CmRid;

/// Alias used by `backend::KeyPattern::item_for`.
pub type ItemIdAlias = hcm_core::ItemId;
pub use scenario::{Scenario, ScenarioBuilder};
