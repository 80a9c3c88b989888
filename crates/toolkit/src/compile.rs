//! Strategy compilation — the toolkit's initialization step (§4.1).
//!
//! "Once a strategy is specified, the CM distributes the rules of the
//! strategy to CM-Shells based on the site of the event on the
//! left-hand side of the rule. … Based on this distribution of rules,
//! the CM also determines, for each event template in each rule, the
//! CM-Shells and/or the CM-Translators to which an event matching that
//! template must be forwarded."
//!
//! A *Strategy Specification* file looks like:
//!
//! ```text
//! [locate]            # where objects are located (§4.2.2)
//! salary1 = A
//! salary2 = B
//!
//! [private]           # CM-private data, stored in a shell (§3.2)
//! Cx = A
//!
//! [strategy]
//! N(salary1(n), b) -> WR(salary2(n), b) within 5s
//!
//! [guarantee y_follows_x]
//! (salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 < t1
//! ```

use crate::registry::mentioned_bases;
use hcm_core::{RuleId, RuleRegistry, SiteId, Sym, TemplateDesc};
use hcm_rulelang::slots::{RuleCompiler, SlotRules};
use hcm_rulelang::{parse_guarantee, parse_strategy_rule, Guarantee, SpecFile, StrategyRule};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// A strategy-compilation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Description.
    pub msg: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "strategy compilation error: {}", self.msg)
    }
}

impl std::error::Error for CompileError {}

fn err(msg: impl Into<String>) -> CompileError {
    CompileError { msg: msg.into() }
}

/// Where objects are located: item/event base name → site, plus which
/// bases are CM-private. Keyed by interned [`Sym`]s so routing lookups
/// hash a `u32` symbol instead of walking string keys; `&str` callers
/// go through the interner (cold paths only — hot callers hold a `Sym`
/// already).
#[derive(Debug, Clone, Default)]
pub struct Locator {
    base_to_site: HashMap<Sym, SiteId>,
    private: HashSet<Sym>,
}

impl Locator {
    /// An empty locator.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Locate a database item base at a site.
    pub(crate) fn locate(&mut self, base: impl Into<Sym>, site: SiteId) {
        self.base_to_site.insert(base.into(), site);
    }

    /// Locate a CM-private item base at a site's shell.
    pub(crate) fn locate_private(&mut self, base: impl Into<Sym>, site: SiteId) {
        let base = base.into();
        self.private.insert(base);
        self.base_to_site.insert(base, site);
    }

    /// The site of a base name.
    #[must_use]
    pub(crate) fn site_of(&self, base: impl Into<Sym>) -> Option<SiteId> {
        self.base_to_site.get(&base.into()).copied()
    }

    /// Whether a base names CM-private (shell-resident) data.
    #[must_use]
    pub(crate) fn is_private(&self, base: impl Into<Sym>) -> bool {
        self.private.contains(&base.into())
    }

    /// The site a template's event occurs at, if determined by its
    /// name (`P` templates have no inherent site).
    #[must_use]
    pub(crate) fn template_site(&self, t: &TemplateDesc) -> Option<SiteId> {
        match t {
            TemplateDesc::P { .. } | TemplateDesc::False => None,
            TemplateDesc::Custom { name, .. } => self.site_of(name),
            other => other.item_pattern().and_then(|p| self.site_of(p.base)),
        }
    }
}

/// One strategy rule with its placement.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Registered id (shared numbering with interface rules).
    pub id: RuleId,
    /// The rule itself.
    pub rule: StrategyRule,
    /// Site of the LHS event — the shell that evaluates the LHS
    /// ("each rule is executed in the CM-Shell handling the site at
    /// which the left-hand side event occurs").
    pub lhs_site: SiteId,
    /// Common site of every RHS event (paper fn. 7: "all the events on
    /// the RHS of a rule must have the same site").
    pub rhs_site: SiteId,
}

/// A compiled strategy: placed rules, the locator, interest patterns,
/// and the declared guarantees.
///
/// The rule arena and the locator live behind `Rc`: every shell of a
/// deployment shares one copy instead of deep-cloning `sites ×
/// total_rules` rules (and as many locator entries) at construction.
#[derive(Debug, Clone, Default)]
pub struct CompiledStrategy {
    /// Rules in specification order (shared arena).
    pub rules: Rc<Vec<CompiledRule>>,
    /// The same rules compiled to slots, at the same positions: how
    /// shells match, evaluate and instantiate them (shared).
    pub(crate) slots: Rc<SlotRules>,
    /// Object placement (shared).
    pub locator: Rc<Locator>,
    /// Declared guarantees.
    pub guarantees: Vec<Guarantee>,
    /// Rule id → position in `rules`, built once and shared by every
    /// shell for remote-fire lookups.
    lookup: Rc<HashMap<RuleId, usize>>,
}

impl CompiledStrategy {
    /// Compile a strategy-specification file. `site_ids` maps the site
    /// names used in the file to simulation sites; `registry` assigns
    /// rule ids (shared with interface statements so event provenance
    /// is unambiguous).
    pub fn from_spec(
        src: &str,
        site_ids: &BTreeMap<String, SiteId>,
        registry: &mut RuleRegistry,
    ) -> Result<CompiledStrategy, CompileError> {
        let spec = SpecFile::parse(src).map_err(|e| err(e.to_string()))?;
        let mut locator = Locator::new();

        for sect in spec.sections_of("locate") {
            for (base, site_name) in sect.as_pairs().map_err(|e| err(e.to_string()))? {
                let site = *site_ids
                    .get(&site_name)
                    .ok_or_else(|| err(format!("[locate]: unknown site `{site_name}`")))?;
                locator.locate(base, site);
            }
        }
        for sect in spec.sections_of("private") {
            for (base, site_name) in sect.as_pairs().map_err(|e| err(e.to_string()))? {
                let site = *site_ids
                    .get(&site_name)
                    .ok_or_else(|| err(format!("[private]: unknown site `{site_name}`")))?;
                locator.locate_private(base, site);
            }
        }

        let mut rules = Vec::new();
        for sect in spec.sections_of("strategy") {
            for line in &sect.lines {
                let rule = parse_strategy_rule(line).map_err(|e| err(e.to_string()))?;
                let compiled = place_rule(rule, &locator, registry)?;
                rules.push(compiled);
            }
        }

        let mut guarantees = Vec::new();
        for sect in spec.sections_of("guarantee") {
            let [name] = sect.args() else {
                return Err(err("[guarantee] needs exactly one name argument"));
            };
            let body = sect.lines.join(" ");
            let g = parse_guarantee(name, &body).map_err(|e| err(e.to_string()))?;
            guarantees.push(g);
        }

        let lookup = rules.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        let mut compiler = RuleCompiler::with_capacity(rules.len());
        for r in &rules {
            compiler.rule(&r.rule.lhs, &r.rule.cond, &r.rule.steps);
        }
        let slots = Rc::new(compiler.finish());
        Ok(CompiledStrategy {
            rules: Rc::new(rules),
            slots,
            locator: Rc::new(locator),
            guarantees,
            lookup: Rc::new(lookup),
        })
    }

    /// The shared rule-id → arena-position lookup.
    #[must_use]
    pub(crate) fn rule_lookup(&self) -> Rc<HashMap<RuleId, usize>> {
        Rc::clone(&self.lookup)
    }

    /// Interest patterns for a site's translator: LHS templates of
    /// database-side event kinds (`Ws`, `W`, `WR`, `RR`) that some rule
    /// at this site watches. The translator forwards matching events to
    /// its shell; everything else stays local to the database.
    #[must_use]
    pub(crate) fn interest_patterns(&self, site: SiteId) -> Vec<TemplateDesc> {
        self.rules
            .iter()
            .filter(|r| r.lhs_site == site)
            .filter(|r| {
                matches!(
                    r.rule.lhs,
                    TemplateDesc::Ws { .. }
                        | TemplateDesc::W { .. }
                        | TemplateDesc::Wr { .. }
                        | TemplateDesc::Rr { .. }
                )
            })
            .map(|r| r.rule.lhs.clone())
            .collect()
    }

    /// The sites a guarantee involves, derived from the item bases its
    /// formula mentions.
    #[must_use]
    pub(crate) fn guarantee_sites(&self, g: &Guarantee) -> Vec<SiteId> {
        let mut sites: Vec<SiteId> = mentioned_bases(g)
            .iter()
            .filter_map(|b| self.locator.site_of(b))
            .collect();
        sites.sort();
        sites.dedup();
        sites
    }
}

fn place_rule(
    rule: StrategyRule,
    locator: &Locator,
    registry: &mut RuleRegistry,
) -> Result<CompiledRule, CompileError> {
    // RHS site: every step with a determinable site must agree.
    let mut rhs_site: Option<SiteId> = None;
    for step in &rule.steps {
        // A shell performs RHS `W`s on its own CM-private data; a
        // database is written through `WR`.
        if let TemplateDesc::W { item, .. } = &step.event {
            if !locator.is_private(item.base) {
                return Err(err(format!(
                    "RHS `{}` of `{rule}` writes `{}`, which is not [private] data \
                     (write database items with WR)",
                    step.event, item.base
                )));
            }
        }
        if let Some(s) = locator.template_site(&step.event) {
            match rhs_site {
                None => rhs_site = Some(s),
                Some(prev) if prev != s => {
                    return Err(err(format!(
                        "RHS events of `{rule}` span sites {prev} and {s}; \
                         the rule language requires a single RHS site"
                    )))
                }
                Some(_) => {}
            }
        }
    }
    let lhs_site = locator.template_site(&rule.lhs);
    let (lhs_site, rhs_site) = match (lhs_site, rhs_site) {
        (Some(l), Some(r)) => (l, r),
        // P-headed rule: runs at its RHS site (the polling example of
        // §4.2.3 runs at the site being polled).
        (None, Some(r)) => (r, r),
        (Some(l), None) => (l, l),
        (None, None) => {
            return Err(err(format!(
                "cannot place rule `{rule}`: no located item or event on either side"
            )))
        }
    };
    let id = registry.register();
    Ok(CompiledRule {
        id,
        rule,
        lhs_site,
        rhs_site,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites() -> BTreeMap<String, SiteId> {
        [
            ("A".to_string(), SiteId::new(0)),
            ("B".to_string(), SiteId::new(1)),
        ]
        .into_iter()
        .collect()
    }

    const SPEC: &str = r#"
[locate]
salary1 = A
salary2 = B

[private]
Cx = A

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s
P(60s) -> RR(salary1(n)) within 1s

[guarantee y_follows_x]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 < t1
"#;

    #[test]
    fn compiles_and_places() {
        let mut reg = RuleRegistry::new();
        let cs = CompiledStrategy::from_spec(SPEC, &sites(), &mut reg).unwrap();
        assert_eq!(cs.rules.len(), 2);
        // Propagation rule: LHS N(salary1) at A, RHS WR(salary2) at B.
        assert_eq!(cs.rules[0].lhs_site, SiteId::new(0));
        assert_eq!(cs.rules[0].rhs_site, SiteId::new(1));
        // Polling rule: P-headed, placed at RR(salary1)'s site A.
        assert_eq!(cs.rules[1].lhs_site, SiteId::new(0));
        assert_eq!(cs.rules[1].rhs_site, SiteId::new(0));
        assert_eq!(reg.len(), 2);
        assert_eq!(cs.guarantees.len(), 1);
        assert_eq!(
            cs.guarantee_sites(&cs.guarantees[0]),
            vec![SiteId::new(0), SiteId::new(1)]
        );
        assert_eq!(cs.rule_lookup().get(&cs.rules[1].id), Some(&1));
        assert_eq!(cs.rule_lookup().get(&RuleId(99)), None);
    }

    #[test]
    fn interest_patterns_only_db_side_kinds() {
        let spec = r#"
[locate]
X = A
Y = B
[strategy]
Ws(X, b) -> WR(Y, b) within 5s
N(X, b) -> WR(Y, b) within 5s
"#;
        let mut reg = RuleRegistry::new();
        let cs = CompiledStrategy::from_spec(spec, &sites(), &mut reg).unwrap();
        let pats = cs.interest_patterns(SiteId::new(0));
        // Only the Ws LHS needs translator forwarding; N events arrive
        // at the shell natively.
        assert_eq!(pats.len(), 1);
        assert!(matches!(pats[0], TemplateDesc::Ws { .. }));
        assert!(cs.interest_patterns(SiteId::new(1)).is_empty());
    }

    #[test]
    fn private_data_located() {
        let mut reg = RuleRegistry::new();
        let cs = CompiledStrategy::from_spec(SPEC, &sites(), &mut reg).unwrap();
        assert!(cs.locator.is_private("Cx"));
        assert!(!cs.locator.is_private("salary1"));
        assert_eq!(cs.locator.site_of("Cx"), Some(SiteId::new(0)));
    }

    #[test]
    fn rejects_cross_site_rhs() {
        let spec = r#"
[locate]
X = A
Y = B
Z = A
[strategy]
N(X, b) -> WR(Y, b) ; WR(Z, b) within 5s
"#;
        let mut reg = RuleRegistry::new();
        let e = CompiledStrategy::from_spec(spec, &sites(), &mut reg).unwrap_err();
        assert!(e.msg.contains("single RHS site"));
    }

    #[test]
    fn rejects_unknown_site_and_unplaceable() {
        let mut reg = RuleRegistry::new();
        assert!(CompiledStrategy::from_spec("[locate]\nX = Q\n", &sites(), &mut reg).is_err());
        let unplace = "[strategy]\nN(Unlocated, b) -> WR(AlsoUnlocated, b) within 1s\n";
        let e = CompiledStrategy::from_spec(unplace, &sites(), &mut reg).unwrap_err();
        assert!(e.msg.contains("cannot place rule"), "{e}");
    }

    #[test]
    fn rejects_rhs_write_to_non_private_data() {
        let spec = "[locate]\nsalary1 = A\nsalary2 = B\n[private]\nCx = B\n[strategy]\n";
        let mut reg = RuleRegistry::new();
        let bad = format!("{spec}N(salary1(n), b) -> W(salary2(n), b) within 1s\n");
        let e = CompiledStrategy::from_spec(&bad, &sites(), &mut reg).unwrap_err();
        assert!(
            e.msg.contains("N(salary1(n), b) -> W(salary2(n), b)"),
            "{e}"
        );
        assert!(e.msg.contains("not [private] data"), "{e}");
        let good = format!("{spec}N(salary1(n), b) -> W(Cx, b) within 1s\n");
        assert!(CompiledStrategy::from_spec(&good, &sites(), &mut reg).is_ok());
    }

    #[test]
    fn custom_events_locatable() {
        let spec = r#"
[locate]
X = A
LimitReq = B
[strategy]
Ws(X, a, b) -> LimitReq(b) within 5s
"#;
        let mut reg = RuleRegistry::new();
        let cs = CompiledStrategy::from_spec(spec, &sites(), &mut reg).unwrap();
        assert_eq!(cs.rules[0].lhs_site, SiteId::new(0));
        assert_eq!(cs.rules[0].rhs_site, SiteId::new(1));
    }

    #[test]
    fn guarantee_section_needs_name() {
        let mut reg = RuleRegistry::new();
        let bad = "[guarantee]\n(X = 1) @ t\n";
        assert!(CompiledStrategy::from_spec(bad, &sites(), &mut reg).is_err());
    }
}
