//! Guarantee bookkeeping under failures (§5).
//!
//! "When a metric failure occurs on one or more of the sites involved
//! in a constraint, the metric guarantees for that constraint are no
//! longer valid. However, the non-metric guarantees continue to be
//! valid … When a logical failure occurs, both metric and non-metric
//! guarantees involving the failed site are no longer valid until the
//! system is reset."
//!
//! Each CM-Shell holds a [`GuaranteeRegistry`]; failure notices
//! propagate between shells and every registry applies the same
//! transition rules, so any application can consult its local shell.

use hcm_core::{SimTime, SiteId, Sym};
use hcm_rulelang::{GAtom, Guarantee, Mention, TimeExpr};
use std::collections::BTreeMap;
use std::fmt;

/// Failure classification (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Time bounds missed; service eventually provided.
    Metric,
    /// Interface statements void.
    Logical,
}

/// Current standing of a registered guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuaranteeStatus {
    /// The guarantee is in force.
    Valid,
    /// A metric failure suspended it (metric guarantees only).
    SuspendedMetric,
    /// A logical failure suspended it; a reset is required.
    SuspendedLogical,
}

/// A registered guarantee plus derived metadata.
#[derive(Debug, Clone)]
pub struct RegisteredGuarantee {
    /// The formula.
    pub guarantee: Guarantee,
    /// Sites whose data items the formula mentions.
    pub sites: Vec<SiteId>,
    /// Whether the formula is *metric* (mentions absolute times or
    /// offsets — κ bounds). Non-metric guarantees survive metric
    /// failures.
    pub metric: bool,
    /// Current status.
    pub status: GuaranteeStatus,
    /// When the status last changed.
    pub since: SimTime,
}

/// Is a guarantee metric? — it is iff some time expression carries an
/// offset or an absolute constant.
#[must_use]
pub fn is_metric(g: &Guarantee) -> bool {
    fn te_metric(t: &TimeExpr) -> bool {
        matches!(t, TimeExpr::Const(_) | TimeExpr::Offset(..))
    }
    fn atom_metric(a: &GAtom) -> bool {
        match a {
            GAtom::At(_, t) => te_metric(t),
            GAtom::Throughout(_, a, b) | GAtom::Sometime(_, a, b) => te_metric(a) || te_metric(b),
            GAtom::TimeCmp(a, _, b) => te_metric(a) || te_metric(b),
        }
    }
    g.lhs.iter().chain(&g.rhs).any(atom_metric)
}

/// Item base names mentioned by a guarantee (to derive involved sites).
#[must_use]
pub fn mentioned_bases(g: &Guarantee) -> Vec<Sym> {
    let mut out = Vec::new();
    for a in g.lhs.iter().chain(&g.rhs) {
        match a {
            GAtom::At(c, _) | GAtom::Throughout(c, _, _) | GAtom::Sometime(c, _, _) => {
                c.visit(&mut |m| {
                    if let Mention::Item(p) = m {
                        out.push(p.base);
                    }
                });
            }
            GAtom::TimeCmp(..) => {}
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Per-shell registry of guarantees and their failure-driven status.
#[derive(Debug, Default, Clone)]
pub struct GuaranteeRegistry {
    entries: BTreeMap<String, RegisteredGuarantee>,
}

impl GuaranteeRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a guarantee with the sites it involves.
    pub fn register(&mut self, guarantee: Guarantee, sites: Vec<SiteId>) {
        let metric = is_metric(&guarantee);
        self.entries.insert(
            guarantee.name.clone(),
            RegisteredGuarantee {
                guarantee,
                sites,
                metric,
                status: GuaranteeStatus::Valid,
                since: SimTime::ZERO,
            },
        );
    }

    /// Apply a failure of `site` at `now` (§5 transition rules).
    pub fn on_failure(&mut self, site: SiteId, kind: FailureKind, now: SimTime) {
        for e in self.entries.values_mut() {
            if !e.sites.contains(&site) {
                continue;
            }
            match kind {
                FailureKind::Metric if e.metric => {
                    if e.status == GuaranteeStatus::Valid {
                        e.status = GuaranteeStatus::SuspendedMetric;
                        e.since = now;
                    }
                }
                FailureKind::Metric => {} // non-metric guarantees survive
                FailureKind::Logical => {
                    if e.status != GuaranteeStatus::SuspendedLogical {
                        e.status = GuaranteeStatus::SuspendedLogical;
                        e.since = now;
                    }
                }
            }
        }
    }

    /// Clear a metric failure of `site`: metric-suspended guarantees on
    /// that site return to valid. Logically suspended guarantees stay
    /// down (they need [`GuaranteeRegistry::reset`]).
    pub fn on_clear(&mut self, site: SiteId, now: SimTime) {
        for e in self.entries.values_mut() {
            if e.sites.contains(&site) && e.status == GuaranteeStatus::SuspendedMetric {
                e.status = GuaranteeStatus::Valid;
                e.since = now;
            }
        }
    }

    /// System reset (§5: logical suspensions last "until the system is
    /// reset"): everything returns to valid.
    pub fn reset(&mut self, now: SimTime) {
        for e in self.entries.values_mut() {
            e.status = GuaranteeStatus::Valid;
            e.since = now;
        }
    }

    /// Status of a guarantee by name.
    #[must_use]
    pub fn status(&self, name: &str) -> Option<GuaranteeStatus> {
        self.entries.get(name).map(|e| e.status)
    }

    /// `(name, status, since)` of every entry in name order — the
    /// durable portion of the registry, checkpointed by the store.
    #[must_use]
    pub fn statuses(&self) -> Vec<(String, GuaranteeStatus, SimTime)> {
        self.entries
            .iter()
            .map(|(name, e)| (name.clone(), e.status, e.since))
            .collect()
    }

    /// Restore one entry's status from a checkpoint. Unknown names are
    /// ignored (the strategy, and hence the registered set, is static
    /// configuration that recovery re-derives before restoring).
    pub fn restore(&mut self, name: &str, status: GuaranteeStatus, since: SimTime) {
        if let Some(e) = self.entries.get_mut(name) {
            e.status = status;
            e.since = since;
        }
    }

    /// Full entry by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&RegisteredGuarantee> {
        self.entries.get(name)
    }

    /// Iterate entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = &RegisteredGuarantee> {
        self.entries.values()
    }

    /// Number of registered guarantees.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for GuaranteeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in self.entries.values() {
            writeln!(
                f,
                "{} [{}] {:?} since {}",
                e.guarantee.name,
                if e.metric { "metric" } else { "non-metric" },
                e.status,
                e.since
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_rulelang::parse_guarantee;

    fn metric_g() -> Guarantee {
        parse_guarantee(
            "m",
            "(Y = y) @ t1 => (X = y) @ t2 and t1 - 30s < t2 and t2 < t1",
        )
        .unwrap()
    }

    fn nonmetric_g() -> Guarantee {
        parse_guarantee("n", "(Y = y) @ t1 => (X = y) @ t2 and t2 < t1").unwrap()
    }

    #[test]
    fn metric_detection() {
        assert!(is_metric(&metric_g()));
        assert!(!is_metric(&nonmetric_g()));
        let abs = parse_guarantee("a", "(X = 1) @ 300s").unwrap();
        assert!(is_metric(&abs));
    }

    #[test]
    fn mentioned_bases_found() {
        let g = parse_guarantee(
            "g",
            "(Flag = true and Tb = s) @ t => (X = Y) @@ [s, t - 10s]",
        )
        .unwrap();
        assert_eq!(mentioned_bases(&g), vec!["Flag", "Tb", "X", "Y"]);
        let e = parse_guarantee(
            "e",
            "exists(project(i)) @ t => exists(salary(i)) @? [t, t + 1s]",
        )
        .unwrap();
        assert_eq!(mentioned_bases(&e), vec!["project", "salary"]);
    }

    #[test]
    fn metric_failure_suspends_only_metric_guarantees() {
        let mut r = GuaranteeRegistry::new();
        let s1 = SiteId::new(1);
        r.register(metric_g(), vec![s1]);
        r.register(nonmetric_g(), vec![s1]);
        r.on_failure(s1, FailureKind::Metric, SimTime::from_secs(10));
        assert_eq!(r.status("m"), Some(GuaranteeStatus::SuspendedMetric));
        assert_eq!(r.status("n"), Some(GuaranteeStatus::Valid));
    }

    #[test]
    fn logical_failure_suspends_all_and_needs_reset() {
        let mut r = GuaranteeRegistry::new();
        let s1 = SiteId::new(1);
        r.register(metric_g(), vec![s1]);
        r.register(nonmetric_g(), vec![s1]);
        r.on_failure(s1, FailureKind::Logical, SimTime::from_secs(10));
        assert_eq!(r.status("m"), Some(GuaranteeStatus::SuspendedLogical));
        assert_eq!(r.status("n"), Some(GuaranteeStatus::SuspendedLogical));
        // Clearing a metric failure does not lift logical suspension.
        r.on_clear(s1, SimTime::from_secs(20));
        assert_eq!(r.status("n"), Some(GuaranteeStatus::SuspendedLogical));
        r.reset(SimTime::from_secs(30));
        assert_eq!(r.status("m"), Some(GuaranteeStatus::Valid));
        assert_eq!(r.status("n"), Some(GuaranteeStatus::Valid));
    }

    #[test]
    fn unrelated_site_untouched() {
        let mut r = GuaranteeRegistry::new();
        r.register(metric_g(), vec![SiteId::new(1)]);
        r.on_failure(SiteId::new(2), FailureKind::Logical, SimTime::from_secs(1));
        assert_eq!(r.status("m"), Some(GuaranteeStatus::Valid));
    }

    #[test]
    fn clear_restores_metric_suspension() {
        let mut r = GuaranteeRegistry::new();
        let s1 = SiteId::new(1);
        r.register(metric_g(), vec![s1]);
        r.on_failure(s1, FailureKind::Metric, SimTime::from_secs(10));
        r.on_clear(s1, SimTime::from_secs(15));
        assert_eq!(r.status("m"), Some(GuaranteeStatus::Valid));
        let e = r.get("m").unwrap();
        assert_eq!(e.since, SimTime::from_secs(15));
    }

    #[test]
    fn logical_overrides_metric_suspension() {
        let mut r = GuaranteeRegistry::new();
        let s1 = SiteId::new(1);
        r.register(metric_g(), vec![s1]);
        r.on_failure(s1, FailureKind::Metric, SimTime::from_secs(10));
        r.on_failure(s1, FailureKind::Logical, SimTime::from_secs(12));
        assert_eq!(r.status("m"), Some(GuaranteeStatus::SuspendedLogical));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert!(r.to_string().contains("metric"));
    }
}
