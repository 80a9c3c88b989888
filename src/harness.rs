//! Convenience harness tying the toolkit to the checker.
//!
//! The toolkit (which *produces* executions) and the checker (which
//! *judges* them) are deliberately independent crates; this module is
//! the bridge used by the experiment suite, the benches and downstream
//! users: build the checker's rule set from a scenario, and run the
//! standard post-mortem (validity + every guarantee the strategy
//! specification declared).

use hcm_checker::guarantee::{check_guarantees, GuaranteeReport};
use hcm_checker::{check_validity, RuleSet, ValidityReport};
use hcm_core::Trace;
use hcm_obs::Scope;
use hcm_toolkit::Scenario;

/// Build the checker's rule set from a scenario: every site's interface
/// statements plus the compiled strategy rules with their placement.
#[must_use]
pub fn rule_set_of(scenario: &Scenario) -> RuleSet {
    let mut rs = RuleSet::new();
    for site in &scenario.sites {
        for (stmt, id) in site.rid.interfaces.iter().zip(&site.iface_ids) {
            rs.add_interface(*id, site.site, stmt);
        }
    }
    for rule in scenario.strategy.rules.iter() {
        rs.add_strategy(rule.id, rule.lhs_site, rule.rhs_site, &rule.rule);
    }
    rs
}

/// The standard post-mortem over a finished scenario.
#[derive(Debug)]
pub struct PostMortem {
    /// The recorded execution.
    pub trace: Trace,
    /// Appendix-A validity verdict.
    pub validity: ValidityReport,
    /// One report per `[guarantee]` section of the strategy spec.
    pub guarantees: Vec<GuaranteeReport>,
}

impl PostMortem {
    /// `true` when the execution is valid and every declared guarantee
    /// holds (vacuous counts as holding).
    #[must_use]
    pub fn all_good(&self) -> bool {
        self.validity.is_valid() && self.guarantees.iter().all(|g| g.holds)
    }
}

/// Snapshot the scenario's trace and check everything: the seven
/// validity properties against the deployed rules, and each guarantee
/// declared in the strategy specification.
///
/// Guarantees are checked one after another on the calling thread and
/// reported in declaration order. The checker's evaluation, cache and
/// grid counters are recorded into the scenario's metrics registry
/// under `checker.*` — evaluation is deterministic, so this keeps
/// `metrics_jsonl` byte-identical across runs of the same seed.
#[must_use]
pub fn post_mortem(scenario: &Scenario) -> PostMortem {
    let trace = scenario.trace();
    let m = &scenario.obs.metrics;
    let rules = rule_set_of(scenario);
    let validity = check_validity(&trace, &rules);
    let checked = check_guarantees(&trace, &scenario.strategy.guarantees, None);
    let mut guarantees = Vec::with_capacity(checked.len());
    for (report, stats) in checked {
        m.add(Scope::Global, "checker.probe_misses", stats.probe_misses);
        m.add(Scope::Global, "checker.atom_cache_hits", stats.atom_hits);
        m.add(
            Scope::Global,
            "checker.atom_cache_misses",
            stats.atom_misses,
        );
        m.add(Scope::Global, "checker.grid_points", stats.grid_points);
        guarantees.push(report);
    }
    PostMortem {
        trace,
        validity,
        guarantees,
    }
}
