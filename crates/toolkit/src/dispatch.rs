//! Rule dispatch for the CM-Shell.
//!
//! A shell's `process_event` probes an [`hcm_core::RuleIndex`] built
//! over its rules' LHS templates — the same index the validity checker
//! uses — so only the candidates pay for unification. Candidates come
//! out in ascending rule position, the linear-scan visit order, so
//! [`ShellActor`](crate::shell::ShellActor) keeps traces, metrics and
//! spans byte-identical across [`DispatchMode`]s;
//! `tests/dispatch_equivalence.rs` checks the candidate-set equality
//! property differentially against a linear reference over randomized
//! templates.

/// Which matching path `ShellActor::process_event` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Scan every local rule per event — the retained reference path.
    Linear,
    /// Probe the discrimination index (the default).
    #[default]
    Indexed,
}
