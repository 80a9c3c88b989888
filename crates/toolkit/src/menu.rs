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
//! what a hand-written specification would be. The guarantees that go
//! with a strategy are not listed here: [`derive::copy_guarantees`]
//! reads them off the strategy's own rules and the interfaces they use.

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
    /// The §3.3.1 guarantees derived for these rules and interfaces.
    pub guarantees: Vec<derive::Derived>,
}

/// Given the interface statements available for the source and
/// destination of a copy constraint `dst = copy of src`, suggest
/// applicable strategies with their proven guarantees (§4.1: "The CM
/// then suggests strategies that are applicable to these interfaces,
/// along with the associated guarantees"). A menu strategy applies when
/// [`derive::copy_guarantees`] derives something for its rules.
#[must_use]
pub fn suggest_copy_strategies(
    src: &str,
    dst: &str,
    src_ifaces: &[InterfaceStmt],
    dst_ifaces: &[InterfaceStmt],
    poll_period: SimDuration,
    bound: SimDuration,
) -> Vec<Suggestion> {
    let menu = [
        ("propagate", vec![strategies::propagate(src, dst, bound)]),
        (
            "propagate_cached",
            vec![strategies::propagate_cached(src, dst, "Cache", bound)],
        ),
        (
            "poll_and_propagate",
            strategies::poll_and_propagate(src, dst, poll_period, bound),
        ),
    ];
    menu.into_iter()
        .filter_map(|(name, rules)| {
            let parsed: Vec<_> = rules
                .iter()
                .map(|r| hcm_rulelang::parse_strategy_rule(r).expect("menu rules parse"))
                .collect();
            let guarantees = derive::copy_guarantees(src, dst, src_ifaces, dst_ifaces, &parsed);
            (!guarantees.is_empty()).then_some(Suggestion {
                name,
                rules,
                guarantees,
            })
        })
        .collect()
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
        let suggest = |src, dst| {
            suggest_copy_strategies(
                "X",
                "Y",
                src,
                dst,
                SimDuration::from_secs(60),
                SimDuration::from_secs(5),
            )
        };
        let names = |s: &Suggestion| s.guarantees.iter().map(|d| d.name).collect::<Vec<_>>();

        // notify + write → both propagations, with all four guarantees.
        let s = suggest(&notify, &write);
        assert_eq!(
            s.iter().map(|x| x.name).collect::<Vec<_>>(),
            ["propagate", "propagate_cached"]
        );
        for x in &s {
            assert_eq!(
                names(x),
                ["follows", "leads", "strictly_follows", "follows_metric"]
            );
        }

        // read + write → polling without guarantee (2).
        let s = suggest(&read, &write);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "poll_and_propagate");
        assert_eq!(
            names(&s[0]),
            ["follows", "strictly_follows", "follows_metric"]
        );

        // no write interface at destination → nothing to suggest.
        assert!(suggest(&notify, &none).is_empty());
    }
}

/// Derived guarantees with computed metric bounds — the paper's §3
/// future-work item ("we also plan to extend the toolkit so that it can
/// help the system designer derive new guarantees for different
/// interfaces and strategies"), specialized to copy constraints and
/// read from the strategy's own rules.
///
/// κ of the metric follows-guarantee is the sum of the `within` bounds
/// of the rules and of the interface statements they use, plus the
/// period of each periodic source, plus one clock tick. In a valid
/// execution (Appendix A, property 5) each generated event lies within
/// its rule's bound of its trigger, network transit included, so no
/// separate messaging term is added.
pub mod derive {
    use super::guarantees;
    use hcm_core::{SimDuration, TemplateDesc, Term, Value};
    use hcm_rulelang::{CmpOp, Cond, Expr, InterfaceStmt, RhsStep, StrategyRule};
    use std::mem::discriminant;

    /// One tick of the clock. Property 5 admits an event at exactly its
    /// bound, while the metric formula's `t1 - κ < t2` is strict.
    const TICK: SimDuration = SimDuration::from_millis(1);

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

    /// Whether `a` and `b` are events of one kind on items with the
    /// base name of `item` (`salary1` for `salary1(n)`).
    fn both_on(a: &TemplateDesc, b: &TemplateDesc, item: &str) -> bool {
        let base = item.split('(').next();
        let on = |t: &TemplateDesc| t.item_pattern().map(|p| p.base.as_str()) == base;
        discriminant(a) == discriminant(b) && on(a) && on(b)
    }

    /// The period of a `P(p)` template.
    fn period(t: &TemplateDesc) -> Option<SimDuration> {
        match t {
            TemplateDesc::P {
                period: Term::Const(Value::Int(ms)),
            } => u64::try_from(*ms).ok().map(SimDuration::from_millis),
            _ => None,
        }
    }

    /// Whether `cond` can drop a change. Only `true`, binding
    /// equalities `X = b` (the read and periodic-notify form) and the
    /// §3.2 cache guard cannot: `C != b` with a `later` step `W(C, b)`
    /// skips only a value the same rule already passed on.
    fn drops(cond: &Cond, later: &[RhsStep]) -> bool {
        match cond {
            Cond::True | Cond::Cmp(Expr::Item(_), CmpOp::Eq, Expr::Var(_)) => false,
            Cond::Cmp(Expr::Item(cache), CmpOp::Ne, Expr::Var(b)) => !later.iter().any(|s| {
                matches!(&s.event, TemplateDesc::W { item, value: Term::Var(v) }
                    if item == cache && v == b)
            }),
            Cond::And(x, y) => drops(x, later) || drops(y, later),
            _ => true,
        }
    }

    /// The copy guarantees for `dst = copy of src` under the strategy
    /// `rules`, in §3.3.1 order. The statements that count are the
    /// source statements whose RHS event some rule triggers on
    /// (`N(src)`, `R(src)`) and the destination statements whose
    /// `WR(dst)` some rule step requests; without both, nothing is
    /// derived. (1) and (3) hold whenever both exist; (2) needs no
    /// periodic source and no condition that drops a change; (4) needs
    /// no condition that drops a change.
    #[must_use]
    pub fn copy_guarantees(
        src: &str,
        dst: &str,
        src_ifaces: &[InterfaceStmt],
        dst_ifaces: &[InterfaceStmt],
        rules: &[StrategyRule],
    ) -> Vec<Derived> {
        let sources: Vec<_> = src_ifaces
            .iter()
            .filter(|s| rules.iter().any(|r| both_on(&r.lhs, &s.rhs, src)))
            .collect();
        let writes: Vec<_> = dst_ifaces
            .iter()
            .filter(|s| {
                let mut steps = rules.iter().flat_map(|r| &r.steps);
                steps.any(|step| both_on(&step.event, &s.lhs, dst))
            })
            .collect();
        if sources.is_empty() || writes.is_empty() {
            return Vec::new();
        }
        let stmts = [sources, writes].concat();
        let heads = stmts
            .iter()
            .map(|s| &s.lhs)
            .chain(rules.iter().map(|r| &r.lhs));
        let periods: Vec<_> = heads.filter_map(period).collect();
        let kappa = (stmts.iter().map(|s| s.bound))
            .chain(rules.iter().map(|r| r.bound))
            .chain(periods.iter().copied())
            .fold(TICK, |k, d| k + d);
        let lossy = stmts.iter().any(|s| drops(&s.cond, &[]))
            || rules.iter().any(|r| {
                let mut conds = (0..r.steps.len()).map(|i| (&r.steps[i].cond, &r.steps[i + 1..]));
                drops(&r.cond, &[]) || conds.any(|(c, later)| drops(c, later))
            });
        let plain = |name, formula| Derived {
            name,
            formula,
            kappa: None,
        };
        let mut out = vec![plain("follows", guarantees::follows(src, dst))];
        if periods.is_empty() && !lossy {
            out.push(plain("leads", guarantees::leads(src, dst)));
        }
        out.push(plain(
            "strictly_follows",
            guarantees::strictly_follows(src, dst),
        ));
        if !lossy {
            out.push(Derived {
                name: "follows_metric",
                formula: guarantees::follows_metric(src, dst, kappa),
                kappa: Some(kappa),
            });
        }
        out
    }
}

#[cfg(test)]
mod derive_tests {
    use super::*;
    use hcm_rulelang::{parse_guarantee, parse_interface, parse_strategy_rule, StrategyRule};

    fn stmts(lines: &[&str]) -> Vec<InterfaceStmt> {
        lines.iter().map(|l| parse_interface(l).unwrap()).collect()
    }

    fn rules(lines: &[&str]) -> Vec<StrategyRule> {
        lines
            .iter()
            .map(|l| parse_strategy_rule(l).unwrap())
            .collect()
    }

    fn names(derived: &[derive::Derived]) -> Vec<&'static str> {
        derived.iter().map(|d| d.name).collect()
    }

    fn kappa(derived: &[derive::Derived]) -> Option<SimDuration> {
        derived.iter().find_map(|d| d.kappa)
    }

    const PROPAGATE: &str = "N(X, b) -> WR(Y, b) within 5s";
    const WRITE: &str = "WR(Y, b) -> W(Y, b) within 1s";

    #[test]
    fn propagation_kappa_is_sum_of_bounds() {
        let src = stmts(&["Ws(X, b) -> N(X, b) within 2s"]);
        let derived =
            derive::copy_guarantees("X", "Y", &src, &stmts(&[WRITE]), &rules(&[PROPAGATE]));
        assert_eq!(
            names(&derived),
            ["follows", "leads", "strictly_follows", "follows_metric"]
        );
        // 2s notify + 5s strategy + 1s write + one tick.
        assert_eq!(kappa(&derived), Some(SimDuration::from_millis(8_001)));
        // Every formula parses.
        for d in &derived {
            parse_guarantee(d.name, &d.formula).unwrap();
        }
    }

    #[test]
    fn periodic_source_drops_leads_and_widens_kappa() {
        let src = stmts(&["P(60s) when X = b -> N(X, b) within 1s"]);
        let derived =
            derive::copy_guarantees("X", "Y", &src, &stmts(&[WRITE]), &rules(&[PROPAGATE]));
        assert_eq!(
            names(&derived),
            ["follows", "strictly_follows", "follows_metric"]
        );
        // 60s period + 1s ε + 5s strategy + 1s write + one tick.
        assert_eq!(kappa(&derived), Some(SimDuration::from_millis(67_001)));
    }

    #[test]
    fn polling_kappa_includes_period() {
        let src = stmts(&["RR(X) when X = b -> R(X, b) within 1s"]);
        let poll = strategies::poll_and_propagate(
            "X",
            "Y",
            SimDuration::from_secs(60),
            SimDuration::from_secs(5),
        );
        let poll: Vec<&str> = poll.iter().map(String::as_str).collect();
        let derived = derive::copy_guarantees("X", "Y", &src, &stmts(&[WRITE]), &rules(&poll));
        assert_eq!(
            names(&derived),
            ["follows", "strictly_follows", "follows_metric"]
        );
        // 60s period + 1s read + 5s + 5s for the two rules + 1s write
        // + one tick.
        assert_eq!(kappa(&derived), Some(SimDuration::from_millis(72_001)));
    }

    #[test]
    fn unsupported_interfaces_derive_nothing() {
        let none: Vec<InterfaceStmt> = vec![];
        let notify = stmts(&["Ws(X, b) -> N(X, b) within 2s"]);
        let dst = stmts(&[WRITE]);
        let propagate = rules(&[PROPAGATE]);
        assert!(derive::copy_guarantees("X", "Y", &none, &dst, &propagate).is_empty());
        assert!(derive::copy_guarantees("X", "Y", &notify, &none, &propagate).is_empty());
        // A read interface alone gives propagation nothing to trigger on.
        let read = stmts(&["RR(X) when X = b -> R(X, b) within 1s"]);
        assert!(derive::copy_guarantees("X", "Y", &read, &dst, &propagate).is_empty());
    }

    #[test]
    fn dropping_conditions_lose_leads_and_the_metric_but_the_cache_guard_does_not() {
        let dst = stmts(&[WRITE]);
        let conditional = stmts(&["Ws(X, a, b) when abs(b - a) > 0.1 * a -> N(X, b) within 2s"]);
        let derived = derive::copy_guarantees("X", "Y", &conditional, &dst, &rules(&[PROPAGATE]));
        assert_eq!(names(&derived), ["follows", "strictly_follows"]);

        let notify = stmts(&["Ws(X, b) -> N(X, b) within 2s"]);
        let cached = rules(&["N(X, b) -> if Cx != b then WR(Y, b) ; W(Cx, b) within 5s"]);
        let derived = derive::copy_guarantees("X", "Y", &notify, &dst, &cached);
        assert_eq!(
            names(&derived),
            ["follows", "leads", "strictly_follows", "follows_metric"]
        );
        assert_eq!(kappa(&derived), Some(SimDuration::from_millis(8_001)));

        // A guard on some other item is a filter, not a cache.
        let filtered = rules(&["N(X, b) -> if Cx != b then WR(Y, b) ; W(Cz, b) within 5s"]);
        let derived = derive::copy_guarantees("X", "Y", &notify, &dst, &filtered);
        assert_eq!(names(&derived), ["follows", "strictly_follows"]);
    }
}
