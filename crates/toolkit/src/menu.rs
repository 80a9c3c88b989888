//! The library of proven interfaces and strategies, and the suggestion
//! engine.
//!
//! "A final component of our architecture is a library of common
//! interfaces and strategies. Thus, the contents of the Strategy
//! Specification and the CM-RID files can usually be selected from
//! available menus of proven strategies and interfaces" (§4.1) — and
//! at initialization "the CM then suggests strategies that are
//! applicable to these interfaces, along with the associated
//! guarantees".
//!
//! Builders here emit rule-language text, so a menu choice is exactly
//! what a hand-written specification would be.

use crate::rid::{classify, IfaceClass};
use hcm_core::SimDuration;
use hcm_rulelang::InterfaceStmt;

fn secs(d: SimDuration) -> String {
    if d.as_millis().is_multiple_of(1000) {
        format!("{}s", d.as_secs())
    } else {
        format!("{}ms", d.as_millis())
    }
}

/// Interface menu (§3.1.1). Each returns one interface statement in
/// rule-language text; `item` may be parameterized (`salary1(n)`).
pub mod interfaces {
    use super::secs;
    use hcm_core::SimDuration;

    /// Write Interface: `WR(X, b) →δ W(X, b)`.
    #[must_use]
    pub fn write(item: &str, bound: SimDuration) -> String {
        format!("WR({item}, b) -> W({item}, b) within {}", secs(bound))
    }

    /// No-Spontaneous-Write Interface: `Ws(X, b) → 𝓕`.
    #[must_use]
    pub fn no_spontaneous_write(item: &str) -> String {
        format!("Ws({item}, b) -> false")
    }

    /// Notify Interface: `Ws(X, b) →δ N(X, b)`.
    #[must_use]
    pub fn notify(item: &str, bound: SimDuration) -> String {
        format!("Ws({item}, b) -> N({item}, b) within {}", secs(bound))
    }

    /// Conditional Notify (relative change threshold, the paper's
    /// "more than 10 %" example): `Ws(X, a, b) ∧ |b−a| > frac·a →δ N`.
    #[must_use]
    pub fn conditional_notify(item: &str, frac: f64, bound: SimDuration) -> String {
        format!(
            "Ws({item}, a, b) when abs(b - a) > {frac} * a -> N({item}, b) within {}",
            secs(bound)
        )
    }

    /// Periodic Notify: `P(p) ∧ (X = b) →ε N(X, b)`.
    #[must_use]
    pub fn periodic_notify(item: &str, period: SimDuration, bound: SimDuration) -> String {
        format!(
            "P({}) when {item} = b -> N({item}, b) within {}",
            secs(period),
            secs(bound)
        )
    }

    /// Read Interface: `RR(X) ∧ (X = b) →δ R(X, b)`.
    #[must_use]
    pub fn read(item: &str, bound: SimDuration) -> String {
        format!(
            "RR({item}) when {item} = b -> R({item}, b) within {}",
            secs(bound)
        )
    }
}

/// Strategy menu. Each returns strategy-rule text.
pub mod strategies {
    use super::secs;
    use hcm_core::SimDuration;

    /// Update propagation (§4.2.2): `N(src, b) →δ WR(dst, b)`.
    #[must_use]
    pub(crate) fn propagate(src: &str, dst: &str, bound: SimDuration) -> String {
        format!("N({src}, b) -> WR({dst}, b) within {}", secs(bound))
    }

    /// Cached propagation (§3.2): forward only when the value differs
    /// from the CM-private cache, then refresh the cache. `cache` must
    /// be declared in the `[private]` section.
    #[must_use]
    pub(crate) fn propagate_cached(
        src: &str,
        dst: &str,
        cache: &str,
        bound: SimDuration,
    ) -> String {
        format!(
            "N({src}, b) -> if {cache} != b then WR({dst}, b) ; W({cache}, b) within {}",
            secs(bound)
        )
    }

    /// The polling pair (§4.2.3): poll the source every `period`, and
    /// propagate each read result.
    #[must_use]
    pub(crate) fn poll_and_propagate(
        src: &str,
        dst: &str,
        period: SimDuration,
        bound: SimDuration,
    ) -> Vec<String> {
        vec![
            format!("P({}) -> RR({src}) within {}", secs(period), secs(bound)),
            format!("R({src}, b) -> WR({dst}, b) within {}", secs(bound)),
        ]
    }
}

/// Guarantee menu (§3.3.1), as formula text for `[guarantee]` sections.
///
/// (1), (2) and (4) compare times weakly (`t2 <= t1`, `t2 >= t1`): both
/// copies share the initial interpretation at time 0, and a value that
/// reaches the copy at the end of the trace has no later instant to
/// witness it. The strict forms fail on every trace for exactly those
/// two reasons.
pub mod guarantees {
    use super::secs;
    use hcm_core::SimDuration;

    /// (1) "Y follows X": Y only takes values X has taken.
    #[must_use]
    pub fn follows(x: &str, y: &str) -> String {
        format!("({y} = y) @ t1 => ({x} = y) @ t2 and t2 <= t1")
    }

    /// (2) "X leads Y": every value of X eventually reaches Y.
    #[must_use]
    pub fn leads(x: &str, y: &str) -> String {
        format!("({x} = x) @ t1 => ({y} = x) @ t2 and t2 >= t1")
    }

    /// (3) "Y strictly follows X": order of values is preserved.
    #[must_use]
    pub fn strictly_follows(x: &str, y: &str) -> String {
        format!(
            "({y} = y1) @ t1 and ({y} = y2) @ t2 and t1 < t2 and y1 != y2 => \
             ({x} = y1) @ t3 and ({x} = y2) @ t4 and t3 < t4"
        )
    }

    /// (4) metric "Y follows X within κ".
    #[must_use]
    pub fn follows_metric(x: &str, y: &str, kappa: SimDuration) -> String {
        format!(
            "({y} = y) @ t1 => ({x} = y) @ t2 and t1 - {} < t2 and t2 <= t1",
            secs(kappa)
        )
    }
}

/// A suggested strategy with its associated guarantees, as produced by
/// the suggestion engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suggestion {
    /// Menu name of the strategy.
    pub name: &'static str,
    /// Strategy-rule lines for the `[strategy]` section.
    pub rules: Vec<String>,
    /// Names of the §3.3.1 guarantees that are provably valid with
    /// this interface/strategy pair.
    pub valid_guarantees: Vec<&'static str>,
}

/// Given the interface statements available for the source and
/// destination of a copy constraint `dst = copy of src`, suggest
/// applicable strategies with their proven guarantees (§4.1: "The CM
/// then suggests strategies that are applicable to these interfaces,
/// along with the associated guarantees").
#[must_use]
pub fn suggest_copy_strategies(
    src: &str,
    dst: &str,
    src_ifaces: &[InterfaceStmt],
    dst_ifaces: &[InterfaceStmt],
    poll_period: SimDuration,
    bound: SimDuration,
) -> Vec<Suggestion> {
    let has = |stmts: &[InterfaceStmt], class: IfaceClass| {
        stmts.iter().any(|s| classify(s) == Some(class))
    };
    let mut out = Vec::new();
    if !has(dst_ifaces, IfaceClass::Write) {
        // Without a write interface at the destination, the CM can at
        // best monitor (§6.3) — no enforcement suggestions.
        return out;
    }
    if has(src_ifaces, IfaceClass::Notify) {
        // §4.2.3: with notify + write, propagation validates all four
        // copy guarantees.
        out.push(Suggestion {
            name: "propagate",
            rules: vec![strategies::propagate(src, dst, bound)],
            valid_guarantees: vec!["follows", "leads", "strictly_follows", "follows_metric"],
        });
        out.push(Suggestion {
            name: "propagate_cached",
            rules: vec![strategies::propagate_cached(src, dst, "Cache", bound)],
            valid_guarantees: vec!["follows", "leads", "strictly_follows", "follows_metric"],
        });
    }
    if has(src_ifaces, IfaceClass::Read) {
        // §4.2.3: polling loses guarantee (2) — updates inside one
        // polling interval can be missed.
        out.push(Suggestion {
            name: "poll_and_propagate",
            rules: strategies::poll_and_propagate(src, dst, poll_period, bound),
            valid_guarantees: vec!["follows", "strictly_follows", "follows_metric"],
        });
    }
    if has(src_ifaces, IfaceClass::PeriodicNotify) {
        // Equivalent to polling from the guarantee standpoint.
        out.push(Suggestion {
            name: "propagate",
            rules: vec![strategies::propagate(src, dst, bound)],
            valid_guarantees: vec!["follows", "strictly_follows", "follows_metric"],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_rulelang::{parse_guarantee, parse_interface, parse_strategy_rule};

    #[test]
    fn interface_builders_parse() {
        for text in [
            interfaces::write("X", SimDuration::from_secs(1)),
            interfaces::no_spontaneous_write("X"),
            interfaces::notify("salary1(n)", SimDuration::from_secs(2)),
            interfaces::conditional_notify("X", 0.1, SimDuration::from_secs(2)),
            interfaces::periodic_notify(
                "X",
                SimDuration::from_secs(300),
                SimDuration::from_millis(500),
            ),
            interfaces::read("X", SimDuration::from_secs(1)),
        ] {
            parse_interface(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }

    #[test]
    fn strategy_builders_parse() {
        parse_strategy_rule(&strategies::propagate(
            "salary1(n)",
            "salary2(n)",
            SimDuration::from_secs(5),
        ))
        .unwrap();
        parse_strategy_rule(&strategies::propagate_cached(
            "X",
            "Y",
            "Cx",
            SimDuration::from_secs(5),
        ))
        .unwrap();
        for r in strategies::poll_and_propagate(
            "X",
            "Y",
            SimDuration::from_secs(60),
            SimDuration::from_secs(1),
        ) {
            parse_strategy_rule(&r).unwrap();
        }
    }

    #[test]
    fn guarantee_builders_parse() {
        for text in [
            guarantees::follows("X", "Y"),
            guarantees::leads("X", "Y"),
            guarantees::strictly_follows("X", "Y"),
            guarantees::follows_metric("X", "Y", SimDuration::from_secs(30)),
        ] {
            parse_guarantee("g", &text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }

    #[test]
    fn suggestions_follow_the_paper() {
        let notify =
            vec![parse_interface(&interfaces::notify("X", SimDuration::from_secs(2))).unwrap()];
        let read =
            vec![parse_interface(&interfaces::read("X", SimDuration::from_secs(1))).unwrap()];
        let write =
            vec![parse_interface(&interfaces::write("Y", SimDuration::from_secs(1))).unwrap()];
        let none: Vec<InterfaceStmt> = vec![];

        // notify + write → propagation with all four guarantees.
        let s = suggest_copy_strategies(
            "X",
            "Y",
            &notify,
            &write,
            SimDuration::from_secs(60),
            SimDuration::from_secs(5),
        );
        assert!(s
            .iter()
            .any(|x| x.name == "propagate" && x.valid_guarantees.contains(&"leads")));

        // read + write → polling without guarantee (2).
        let s = suggest_copy_strategies(
            "X",
            "Y",
            &read,
            &write,
            SimDuration::from_secs(60),
            SimDuration::from_secs(5),
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "poll_and_propagate");
        assert!(!s[0].valid_guarantees.contains(&"leads"));
        assert!(s[0].valid_guarantees.contains(&"follows"));

        // no write interface at destination → nothing to suggest.
        let s = suggest_copy_strategies(
            "X",
            "Y",
            &notify,
            &none,
            SimDuration::from_secs(60),
            SimDuration::from_secs(5),
        );
        assert!(s.is_empty());
    }
}

/// Derived guarantees with computed metric bounds — the paper's §3
/// future-work item ("we also plan to extend the toolkit so that it can
/// help the system designer derive new guarantees for different
/// interfaces and strategies"), specialized to copy constraints.
///
/// The κ of the metric follows-guarantee is *computed from the
/// specification bounds* the same way §4.2.2 tells administrators to
/// estimate δ: sum the interface bounds along the propagation path,
/// plus the strategy bound, plus a messaging allowance.
pub mod derive {
    use super::{classify, guarantees, IfaceClass};
    use hcm_core::{SimDuration, TemplateDesc, Term, Value};
    use hcm_rulelang::InterfaceStmt;

    /// Extra allowance for intra-site hops and network transit beyond
    /// the declared bounds (the paper's "maximum transmission time
    /// between CM-Shells").
    pub const MESSAGING_ALLOWANCE: SimDuration = SimDuration::from_millis(500);

    /// A derived guarantee: its name, the formula text, and (for
    /// metric ones) the computed κ.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Derived {
        /// Menu name.
        pub name: &'static str,
        /// Formula text for a `[guarantee]` section.
        pub formula: String,
        /// The computed bound, when metric.
        pub kappa: Option<SimDuration>,
    }

    fn bound_of(stmts: &[InterfaceStmt], class: IfaceClass) -> Option<SimDuration> {
        stmts
            .iter()
            .filter(|s| classify(s) == Some(class))
            .map(|s| s.bound)
            .max()
    }

    fn period_of(stmts: &[InterfaceStmt]) -> Option<SimDuration> {
        stmts
            .iter()
            .filter(|s| classify(s) == Some(IfaceClass::PeriodicNotify))
            .find_map(|s| match &s.lhs {
                TemplateDesc::P {
                    period: Term::Const(Value::Int(ms)),
                } if *ms > 0 => Some(SimDuration::from_millis(*ms as u64)),
                _ => None,
            })
    }

    /// The copy guarantees for `dst = copy of src` in menu order:
    /// (1), (3), then (2) when the source loses no values, then (4)
    /// with the computed κ.
    fn copy_guarantees(src: &str, dst: &str, lossless: bool, kappa: SimDuration) -> Vec<Derived> {
        let derived = |name, formula| Derived {
            name,
            formula,
            kappa: None,
        };
        let mut out = vec![
            derived("follows", guarantees::follows(src, dst)),
            derived("strictly_follows", guarantees::strictly_follows(src, dst)),
        ];
        if lossless {
            out.push(derived("leads", guarantees::leads(src, dst)));
        }
        out.push(Derived {
            name: "follows_metric",
            formula: guarantees::follows_metric(src, dst, kappa),
            kappa: Some(kappa),
        });
        out
    }

    /// Derive the copy guarantees valid for `dst = copy of src` under
    /// the *propagation* strategy (`N(src,b) →δ WR(dst,b)`), given the
    /// two sites' interface statements. Returns an empty vector when
    /// the interfaces cannot support the strategy at all.
    #[must_use]
    pub fn propagation_guarantees(
        src: &str,
        dst: &str,
        src_ifaces: &[InterfaceStmt],
        dst_ifaces: &[InterfaceStmt],
        strategy_bound: SimDuration,
    ) -> Vec<Derived> {
        let Some(write_bound) = bound_of(dst_ifaces, IfaceClass::Write) else {
            return Vec::new();
        };
        let notify = bound_of(src_ifaces, IfaceClass::Notify);
        let periodic = period_of(src_ifaces).map(|p| {
            (
                p,
                bound_of(src_ifaces, IfaceClass::PeriodicNotify).unwrap_or_default(),
            )
        });
        let (source_lag, lossless) = match (notify, periodic) {
            // Plain notify: every change surfaces within its bound.
            (Some(nb), _) => (nb, true),
            // Periodic notify: changes surface within period + ε, and
            // intra-period updates are lost.
            (None, Some((p, eps))) => (p + eps, false),
            (None, None) => return Vec::new(),
        };
        let kappa = source_lag + strategy_bound + write_bound + MESSAGING_ALLOWANCE;
        copy_guarantees(src, dst, lossless, kappa)
    }

    /// Derive the guarantees for the polling strategy
    /// (`P(p) → RR(src); R(src,b) → WR(dst,b)`). There is no (2):
    /// polling misses values that change twice within one period.
    #[must_use]
    pub fn polling_guarantees(
        src: &str,
        dst: &str,
        src_ifaces: &[InterfaceStmt],
        dst_ifaces: &[InterfaceStmt],
        poll_period: SimDuration,
        strategy_bound: SimDuration,
    ) -> Vec<Derived> {
        let (Some(read_bound), Some(write_bound)) = (
            bound_of(src_ifaces, IfaceClass::Read),
            bound_of(dst_ifaces, IfaceClass::Write),
        ) else {
            return Vec::new();
        };
        let kappa = poll_period
            + read_bound
            + strategy_bound
            + strategy_bound // P→RR and R→WR each carry the bound
            + write_bound
            + MESSAGING_ALLOWANCE;
        copy_guarantees(src, dst, false, kappa)
    }
}

#[cfg(test)]
mod derive_tests {
    use super::*;
    use hcm_rulelang::{parse_guarantee, parse_interface};

    #[test]
    fn propagation_kappa_is_sum_of_bounds() {
        let src = vec![parse_interface("Ws(X, b) -> N(X, b) within 2s").unwrap()];
        let dst = vec![parse_interface("WR(Y, b) -> W(Y, b) within 1s").unwrap()];
        let derived =
            derive::propagation_guarantees("X", "Y", &src, &dst, SimDuration::from_secs(5));
        let names: Vec<_> = derived.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec!["follows", "strictly_follows", "leads", "follows_metric"]
        );
        let metric = derived.iter().find(|d| d.name == "follows_metric").unwrap();
        assert_eq!(metric.kappa, Some(SimDuration::from_millis(8_500)));
        // Every formula parses.
        for d in &derived {
            parse_guarantee(d.name, &d.formula).unwrap();
        }
    }

    #[test]
    fn periodic_source_drops_leads_and_widens_kappa() {
        let src = vec![parse_interface("P(60s) when X = b -> N(X, b) within 1s").unwrap()];
        let dst = vec![parse_interface("WR(Y, b) -> W(Y, b) within 1s").unwrap()];
        let derived =
            derive::propagation_guarantees("X", "Y", &src, &dst, SimDuration::from_secs(5));
        assert!(!derived.iter().any(|d| d.name == "leads"));
        let metric = derived.iter().find(|d| d.name == "follows_metric").unwrap();
        // 60s period + 1s ε + 5s strategy + 1s write + 500ms.
        assert_eq!(metric.kappa, Some(SimDuration::from_millis(67_500)));
    }

    #[test]
    fn polling_kappa_includes_period() {
        let src = vec![parse_interface("RR(X) when X = b -> R(X, b) within 1s").unwrap()];
        let dst = vec![parse_interface("WR(Y, b) -> W(Y, b) within 1s").unwrap()];
        let derived = derive::polling_guarantees(
            "X",
            "Y",
            &src,
            &dst,
            SimDuration::from_secs(60),
            SimDuration::from_secs(5),
        );
        assert!(!derived.iter().any(|d| d.name == "leads"));
        let metric = derived.iter().find(|d| d.name == "follows_metric").unwrap();
        // 60 + 1 + 5 + 5 + 1 + 0.5 = 72.5 s.
        assert_eq!(metric.kappa, Some(SimDuration::from_millis(72_500)));
    }

    #[test]
    fn unsupported_interfaces_derive_nothing() {
        let none: Vec<hcm_rulelang::InterfaceStmt> = vec![];
        let dst = vec![parse_interface("WR(Y, b) -> W(Y, b) within 1s").unwrap()];
        assert!(
            derive::propagation_guarantees("X", "Y", &none, &dst, SimDuration::from_secs(5))
                .is_empty()
        );
        assert!(derive::polling_guarantees(
            "X",
            "Y",
            &none,
            &dst,
            SimDuration::from_secs(60),
            SimDuration::from_secs(5)
        )
        .is_empty());
        let src = vec![parse_interface("Ws(X, b) -> N(X, b) within 2s").unwrap()];
        assert!(
            derive::propagation_guarantees("X", "Y", &src, &none, SimDuration::from_secs(5))
                .is_empty()
        );
    }
}
