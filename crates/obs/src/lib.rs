//! # hcm-obs — deterministic sim-time observability
//!
//! Unified metrics, the causal-chain walker and snapshot exporters for
//! the whole toolkit stack. Three design rules make every artifact
//! reproducible:
//!
//! 1. **Sim-time only.** Every timestamp is a [`hcm_core::SimTime`];
//!    nothing here ever reads a wall clock.
//! 2. **Ordered storage.** All metric storage is `BTreeMap`-keyed by
//!    `(scope, name)`, so iteration order — and therefore every
//!    exported snapshot — is independent of allocation or insertion
//!    order.
//! 3. **Hand-rolled exporters.** The JSON-lines and table exporters
//!    are plain string builders (no serde, per `DESIGN.md` §7), so a
//!    same-seed run produces a byte-identical snapshot.
//!
//! The crate has three modules:
//!
//! * [`metrics`] — [`MetricsRegistry`]: counters, gauges, fixed-bucket
//!   [`SimDuration`](hcm_core::SimDuration) histograms (p50/p90/p99/
//!   max), append-only series, and structured sim-time records, all
//!   behind the cheaply clonable [`Metrics`] handle.
//! * [`causality`] — the [`causal_chain`] walker that reconstructs any
//!   event's provenance chain back to its spontaneous root from the
//!   six-tuple's `trigger` links.
//! * [`export`] — text table and JSON-lines snapshot writers.
//!
//! [`Obs`] bundles the simulation's [`Metrics`] handle; the simulation
//! owns the bundle and every instrumented component clones it.

#![warn(missing_docs)]

pub mod causality;
pub mod export;
pub mod metrics;

pub use causality::{causal_chain, render_chain, CausalChain};
pub use metrics::{Histogram, Metrics, MetricsRegistry, Record, Scope};

/// The observability bundle one simulation owns: a metrics registry
/// behind a cheaply clonable handle.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Counters, gauges, histograms, series, structured records.
    pub metrics: Metrics,
}

impl Obs {
    /// A fresh, empty bundle.
    #[must_use]
    pub fn new() -> Self {
        Obs::default()
    }

    /// Render the metrics registry as a human-readable table.
    #[must_use]
    pub fn table(&self) -> String {
        self.metrics.with(export::render_table)
    }

    /// Export the metrics registry as deterministic JSON lines.
    #[must_use]
    pub fn snapshot_jsonl(&self) -> String {
        self.metrics.with(export::snapshot_jsonl)
    }
}
