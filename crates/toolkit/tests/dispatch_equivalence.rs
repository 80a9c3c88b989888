//! Differential property test: indexed dispatch ≡ linear scan.
//!
//! A SplitMix64 generator (same pattern as the store codec round-trip
//! tests — deterministic, dependency-free) drives thousands of random
//! rule sets and events across every [`TemplateDesc`] variant,
//! including parameterized item patterns (`X(n)`, `X(*)`, `X(7)`),
//! wild-carded value terms, custom events, periodic templates, and the
//! never-matching `𝓕`. For each (rule set, event) pair the
//! [`RuleIndex`] candidate list must
//!
//! 1. be a subset of the shell's rule positions, strictly ascending
//!    (the linear-scan visit order — what keeps traces byte-identical);
//! 2. contain *every* rule whose template matches the event, so the
//!    candidate set filtered by full unification equals the
//!    linear-scan match set exactly, in the same order, with the same
//!    resulting bindings.
//!
//! Property 2 is what makes the index sound; property 1 is what makes
//! it observably invisible.

use hcm_core::{
    EventDesc, ItemId, ItemPattern, RuleId, RuleIndex, SimDuration, SiteId, TemplateDesc, Term,
    Value,
};
use hcm_rulelang::ast::{Cond, StrategyRule};
use hcm_rulelang::slots::{Matcher, RuleCompiler, SlotRules};
use hcm_toolkit::compile::CompiledRule;

/// SplitMix64: tiny, deterministic, well-distributed.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A small base-name pool so rules and events collide often enough
    /// for the match path (not just the miss path) to be exercised.
    fn base(&mut self) -> &'static str {
        ["X", "Y", "Z", "acct", "salary"][self.below(5) as usize]
    }

    fn value(&mut self) -> Value {
        match self.below(3) {
            0 => Value::Int(self.below(4) as i64),
            1 => Value::Str(["a", "b", "c"][self.below(3) as usize].to_string()),
            _ => Value::Bool(self.below(2) == 1),
        }
    }

    fn term(&mut self) -> Term {
        match self.below(3) {
            0 => Term::Var(["n", "b", "v"][self.below(3) as usize].to_string()),
            1 => Term::Const(self.value()),
            _ => Term::Wild,
        }
    }

    fn pattern(&mut self) -> ItemPattern {
        let arity = self.below(3) as usize;
        let base = self.base();
        ItemPattern::with(base, (0..arity).map(|_| self.term()).collect::<Vec<_>>())
    }

    fn item(&mut self) -> ItemId {
        let arity = self.below(3) as usize;
        let base = self.base();
        ItemId::with(base, (0..arity).map(|_| self.value()).collect::<Vec<_>>())
    }

    fn template(&mut self) -> TemplateDesc {
        match self.below(10) {
            0 => TemplateDesc::Ws {
                item: self.pattern(),
                old: if self.below(2) == 0 {
                    None
                } else {
                    Some(self.term())
                },
                new: self.term(),
            },
            1 => TemplateDesc::W {
                item: self.pattern(),
                value: self.term(),
            },
            2 => TemplateDesc::Wr {
                item: self.pattern(),
                value: self.term(),
            },
            3 => TemplateDesc::Rr {
                item: self.pattern(),
            },
            4 => TemplateDesc::R {
                item: self.pattern(),
                value: self.term(),
            },
            5 => TemplateDesc::N {
                item: self.pattern(),
                value: self.term(),
            },
            6 => TemplateDesc::P {
                period: match self.below(3) {
                    0 => Term::Const(Value::Int(100 * (1 + self.below(3) as i64))),
                    1 => Term::Var("p".to_string()),
                    _ => Term::Wild,
                },
            },
            7 => TemplateDesc::Custom {
                name: ["Grant", "LimitReq"][self.below(2) as usize].to_string(),
                args: (0..self.below(3)).map(|_| self.term()).collect(),
            },
            8 => TemplateDesc::False,
            _ => TemplateDesc::N {
                // Extra weight on N — the most common strategy trigger.
                item: self.pattern(),
                value: self.term(),
            },
        }
    }

    fn event(&mut self) -> EventDesc {
        match self.below(8) {
            0 => EventDesc::Ws {
                item: self.item(),
                old: if self.below(2) == 0 {
                    None
                } else {
                    Some(self.value())
                },
                new: self.value(),
            },
            1 => EventDesc::W {
                item: self.item(),
                value: self.value(),
            },
            2 => EventDesc::Wr {
                item: self.item(),
                value: self.value(),
            },
            3 => EventDesc::Rr { item: self.item() },
            4 => EventDesc::R {
                item: self.item(),
                value: self.value(),
            },
            5 => EventDesc::N {
                item: self.item(),
                value: self.value(),
            },
            6 => EventDesc::P {
                period: SimDuration::from_millis(100 * (1 + self.below(3))),
            },
            _ => EventDesc::Custom {
                name: ["Grant", "LimitReq"][self.below(2) as usize].to_string(),
                args: (0..self.below(3)).map(|_| self.value()).collect(),
            },
        }
    }

    fn rule(&mut self, id: u32) -> CompiledRule {
        CompiledRule {
            id: RuleId(id),
            rule: StrategyRule {
                lhs: self.template(),
                cond: Cond::True,
                steps: Vec::new(),
                bound: SimDuration::from_secs(5),
            },
            lhs_site: SiteId::new(0),
            rhs_site: SiteId::new(1),
        }
    }
}

/// The rules compiled to slots, at their positions, as a shell
/// compiles its strategy.
fn compile(rules: &[CompiledRule]) -> SlotRules {
    let mut compiler = RuleCompiler::default();
    for r in rules {
        compiler.rule(&r.rule.lhs, &r.rule.cond, &r.rule.steps);
    }
    compiler.finish()
}

/// Match `desc` against rule `i`'s LHS with the shell's matcher; on
/// success, the slot values it bound, rendered for comparing the
/// *result* of matching (not just the verdict) across dispatch paths.
fn match_lhs(slots: &SlotRules, i: usize, desc: &EventDesc) -> Option<String> {
    let mut m = Matcher::new(slots);
    let matched = m.matches(&slots.rule(i).lhs, desc);
    let bound = m.owned(slots.rule(i)).into_iter().enumerate();
    let pairs = bound.filter_map(|(s, v)| v.map(|v| format!("{s}={v}")));
    matched.then(|| pairs.collect::<Vec<_>>().join(","))
}

/// The retained reference: scan every position, full unification each.
fn linear_matches(
    slots: &SlotRules,
    positions: &[usize],
    desc: &EventDesc,
) -> Vec<(usize, String)> {
    (positions.iter())
        .filter_map(|&i| Some((i, match_lhs(slots, i, desc)?)))
        .collect()
}

#[test]
fn indexed_candidates_cover_exactly_the_linear_match_set() {
    let mut g = Gen::new(0xD15B_47C4);
    for round in 0..400 {
        let n_rules = 1 + g.below(24) as usize;
        let rules: Vec<CompiledRule> = (0..n_rules).map(|i| g.rule(i as u32)).collect();
        let slots = compile(&rules);
        // A random (ascending) subset plays the shell's `my_rules`.
        let positions: Vec<usize> = (0..n_rules).filter(|_| g.below(4) != 0).collect();
        let idx = RuleIndex::build(positions.iter().map(|&i| (i, &rules[i].rule.lhs)));

        for _ in 0..16 {
            let desc = g.event();
            let cands: Vec<usize> = idx.candidates(&desc).collect();

            // Property 1: candidates ⊆ positions, strictly ascending.
            assert!(
                cands.windows(2).all(|w| w[0] < w[1]),
                "round {round}: candidates not strictly ascending: {cands:?}"
            );
            assert!(
                cands.iter().all(|c| positions.contains(c)),
                "round {round}: candidate outside the shell's rules"
            );

            // Property 2: unifying the candidates reproduces the
            // linear-scan match set — same rules, same order, same
            // bindings.
            let via_index = linear_matches(&slots, &cands, &desc);
            let via_linear = linear_matches(&slots, &positions, &desc);
            assert_eq!(
                via_index, via_linear,
                "round {round}: dispatch paths disagree on {desc:?}"
            );
        }
    }
}

/// The wildcard-heavy corner pinned explicitly: a parameterized
/// pattern never matches across arity or base, and the index never
/// hides a same-base candidate regardless of parameter shape.
#[test]
fn parameterized_and_wildcard_patterns_stay_sound() {
    let rules: Vec<CompiledRule> = [
        TemplateDesc::N {
            item: ItemPattern::plain("X"),
            value: Term::Var("b".into()),
        },
        TemplateDesc::N {
            item: ItemPattern::with("X", [Term::Wild]),
            value: Term::Wild,
        },
        TemplateDesc::N {
            item: ItemPattern::with("X", [Term::Const(Value::Int(7))]),
            value: Term::Var("b".into()),
        },
        TemplateDesc::N {
            item: ItemPattern::with("X", [Term::Var("n".into()), Term::Var("n".into())]),
            value: Term::Wild,
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, lhs)| CompiledRule {
        id: RuleId(i as u32),
        rule: StrategyRule {
            lhs,
            cond: Cond::True,
            steps: Vec::new(),
            bound: SimDuration::from_secs(5),
        },
        lhs_site: SiteId::new(0),
        rhs_site: SiteId::new(0),
    })
    .collect();
    let positions: Vec<usize> = (0..rules.len()).collect();
    let idx = RuleIndex::build(positions.iter().map(|&i| (i, &rules[i].rule.lhs)));
    let slots = compile(&rules);

    let cases: Vec<(EventDesc, Vec<usize>)> = vec![
        // Bare X: only the unparameterized pattern unifies.
        (
            EventDesc::N {
                item: ItemId::plain("X"),
                value: Value::Int(1),
            },
            vec![0],
        ),
        // X(7): wildcard-arity-1 and the constant pattern.
        (
            EventDesc::N {
                item: ItemId::with("X", [Value::Int(7)]),
                value: Value::Int(1),
            },
            vec![1, 2],
        ),
        // X(3, 3): only the repeated-variable pattern (n = 3 twice).
        (
            EventDesc::N {
                item: ItemId::with("X", [Value::Int(3), Value::Int(3)]),
                value: Value::Int(1),
            },
            vec![3],
        ),
        // X(3, 4): repeated variable cannot bind two values.
        (
            EventDesc::N {
                item: ItemId::with("X", [Value::Int(3), Value::Int(4)]),
                value: Value::Int(1),
            },
            vec![],
        ),
        // Y: no rule watches the base at all.
        (
            EventDesc::N {
                item: ItemId::plain("Y"),
                value: Value::Int(1),
            },
            vec![],
        ),
    ];
    for (desc, want) in cases {
        // All four rules share the (N, X) bucket, so every X event sees
        // all of them as candidates; unification does the narrowing.
        let got: Vec<usize> = idx
            .candidates(&desc)
            .filter(|&i| match_lhs(&slots, i, &desc).is_some())
            .collect();
        assert_eq!(got, want, "match set for {desc:?}");
        assert_eq!(
            got,
            linear_matches(&slots, &positions, &desc)
                .into_iter()
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        );
    }
}
