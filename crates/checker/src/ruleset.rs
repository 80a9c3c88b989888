//! The rule set a validity check runs against.
//!
//! The appendix's valid-execution properties refer to "rules" — both
//! interface statements and strategy rules. [`RuleSet`] carries them
//! together with their sites (interface statements belong to the site
//! of the database offering them; strategy rules carry the LHS/RHS
//! site placement computed at initialization).

use hcm_core::SimDuration;
use hcm_core::{RuleId, SiteId, TemplateDesc};
use hcm_rulelang::{Cond, InterfaceStmt, RhsStep, StrategyRule};
use std::collections::HashMap;

/// A uniform view of one rule for the checker: LHS template +
/// condition, sequenced RHS, bound, and site placement.
#[derive(Debug, Clone)]
pub struct CheckedRule {
    /// The rule's id (matches `Event::rule` provenance).
    pub id: RuleId,
    /// LHS event template.
    pub lhs: TemplateDesc,
    /// LHS condition.
    pub cond: Cond,
    /// RHS steps in order (an interface statement has exactly one).
    pub steps: Vec<RhsStep>,
    /// Time bound δ.
    pub bound: SimDuration,
    /// Site of the LHS event.
    pub lhs_site: SiteId,
    /// Site of the RHS events.
    pub rhs_site: SiteId,
}

/// The rules in force during an execution.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<CheckedRule>,
    /// Rule id → position of the first rule added with that id.
    by_id: HashMap<RuleId, usize>,
}

impl RuleSet {
    /// An empty rule set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an interface statement offered by the database at `site`.
    pub fn add_interface(&mut self, id: RuleId, site: SiteId, stmt: &InterfaceStmt) {
        self.push(CheckedRule {
            id,
            lhs: stmt.lhs.clone(),
            cond: stmt.cond.clone(),
            steps: vec![RhsStep {
                cond: Cond::True,
                event: stmt.rhs.clone(),
            }],
            bound: stmt.bound,
            lhs_site: site,
            rhs_site: site,
        });
    }

    /// Add a strategy rule with its placement.
    pub fn add_strategy(
        &mut self,
        id: RuleId,
        lhs_site: SiteId,
        rhs_site: SiteId,
        rule: &StrategyRule,
    ) {
        self.push(CheckedRule {
            id,
            lhs: rule.lhs.clone(),
            cond: rule.cond.clone(),
            steps: rule.steps.clone(),
            bound: rule.bound,
            lhs_site,
            rhs_site,
        });
    }

    fn push(&mut self, rule: CheckedRule) {
        self.by_id.entry(rule.id).or_insert(self.rules.len());
        self.rules.push(rule);
    }

    /// Position in [`RuleSet::rules`] of the rule with this id; the
    /// first rule added with a given id wins.
    #[must_use]
    pub(crate) fn position(&self, id: RuleId) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// All rules.
    #[must_use]
    pub fn rules(&self) -> &[CheckedRule] {
        &self.rules
    }

    /// Pairs of *related* rules (appendix property 7): same LHS site
    /// and same RHS site.
    #[must_use]
    pub fn related_pairs(&self) -> Vec<(RuleId, RuleId)> {
        let mut out = Vec::new();
        for (i, a) in self.rules.iter().enumerate() {
            for b in &self.rules[i..] {
                if a.lhs_site == b.lhs_site && a.rhs_site == b.rhs_site {
                    out.push((a.id, b.id));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_rulelang::{parse_interface, parse_strategy_rule};

    #[test]
    fn construction_and_lookup() {
        let mut rs = RuleSet::new();
        let w = parse_interface("WR(X, b) -> W(X, b) within 1s").unwrap();
        rs.add_interface(RuleId(0), SiteId::new(1), &w);
        let s = parse_strategy_rule("N(X, b) -> WR(Y, b) within 5s").unwrap();
        rs.add_strategy(RuleId(1), SiteId::new(0), SiteId::new(1), &s);
        let get = |id| rs.position(id).map(|i| &rs.rules()[i]);
        assert_eq!(rs.rules().len(), 2);
        assert_eq!(get(RuleId(0)).unwrap().lhs_site, SiteId::new(1));
        assert_eq!(get(RuleId(1)).unwrap().lhs_site, SiteId::new(0));
        assert!(get(RuleId(9)).is_none());
        assert_eq!(get(RuleId(1)).unwrap().steps.len(), 1);
    }

    #[test]
    fn first_rule_with_an_id_wins() {
        let mut rs = RuleSet::new();
        let w = parse_interface("WR(X, b) -> W(X, b) within 1s").unwrap();
        rs.add_interface(RuleId(3), SiteId::new(1), &w);
        let s = parse_strategy_rule("N(X, b) -> WR(Y, b) within 5s").unwrap();
        rs.add_strategy(RuleId(3), SiteId::new(0), SiteId::new(1), &s);
        assert_eq!(rs.position(RuleId(3)), Some(0));
        // The interface statement, placed at its database's site.
        assert_eq!(rs.rules()[0].lhs_site, SiteId::new(1));
    }

    #[test]
    fn related_pairs_by_sites() {
        let mut rs = RuleSet::new();
        let s1 = parse_strategy_rule("N(X, b) -> WR(Y, b) within 5s").unwrap();
        let s2 = parse_strategy_rule("N(X2, b) -> WR(Y2, b) within 5s").unwrap();
        let s3 = parse_strategy_rule("N(Z, b) -> WR(Q, b) within 5s").unwrap();
        rs.add_strategy(RuleId(0), SiteId::new(0), SiteId::new(1), &s1);
        rs.add_strategy(RuleId(1), SiteId::new(0), SiteId::new(1), &s2);
        rs.add_strategy(RuleId(2), SiteId::new(2), SiteId::new(1), &s3);
        let pairs = rs.related_pairs();
        // (0,0), (0,1), (1,1), (2,2) share both sites.
        assert!(pairs.contains(&(RuleId(0), RuleId(1))));
        assert!(!pairs.contains(&(RuleId(0), RuleId(2))));
        assert!(!pairs.contains(&(RuleId(1), RuleId(2))));
    }
}
