//! Randomized tests for the rule language: printed forms of generated
//! ASTs re-parse to the same AST (display/parse round trip), the
//! parsers never panic on arbitrary input, and the slot-compiled
//! matcher round-trips instantiation and undoes exactly its own
//! bindings.
//!
//! Formerly proptest-based; now driven by a local SplitMix64 generator
//! so the suite needs no external crates and stays deterministic.

use hcm_core::{EventDesc, ItemPattern, SimDuration, TemplateDesc, Term, Value};
use hcm_rulelang::slots::{Matcher, RuleCompiler, SlotRules, Slots};
use hcm_rulelang::{
    parse_interface, parse_strategy_rule, CmpOp, Cond, Expr, InterfaceStmt, RhsStep, StrategyRule,
};

/// Minimal deterministic generator (SplitMix64).
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
    fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64 + 1;
        lo + (self.next() % span) as i64
    }
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.int_in(lo as i64, hi as i64) as usize
    }

    /// Lower-case start identifier: rule variables / parameterized item
    /// bases. `[a-z][a-z0-9]{0,6}`.
    fn ident(&mut self) -> String {
        let mut s = String::new();
        s.push((b'a' + (self.next() % 26) as u8) as char);
        for _ in 0..self.usize_in(0, 6) {
            let c = self.next() % 36;
            s.push(if c < 26 {
                (b'a' + c as u8) as char
            } else {
                (b'0' + (c - 26) as u8) as char
            });
        }
        s
    }

    /// Item base: `[A-Z][a-z0-9]{0,6}`.
    fn item_base(&mut self) -> String {
        let mut s = String::new();
        s.push((b'A' + (self.next() % 26) as u8) as char);
        for _ in 0..self.usize_in(0, 6) {
            let c = self.next() % 36;
            s.push(if c < 26 {
                (b'a' + c as u8) as char
            } else {
                (b'0' + (c - 26) as u8) as char
            });
        }
        s
    }

    fn lc_string(&mut self, lo: usize, hi: usize) -> String {
        let n = self.usize_in(lo, hi);
        (0..n)
            .map(|_| (b'a' + (self.next() % 26) as u8) as char)
            .collect()
    }

    /// Any value, of every kind.
    fn value(&mut self) -> Value {
        match self.next() % 5 {
            0 => Value::Null,
            1 => Value::Bool(self.next().is_multiple_of(2)),
            2 => Value::Int(self.int_in(-1_000_000, 999_999)),
            3 => Value::Float(self.int_in(-1_000_000, 999_999) as f64 / 3.0),
            _ => Value::from(self.lc_string(0, 8)),
        }
    }

    fn constant(&mut self) -> Value {
        match self.next() % 4 {
            0 => Value::Int(self.int_in(-10_000, 9_999)),
            1 => Value::from(self.lc_string(1, 6)),
            2 => Value::Bool(true),
            _ => Value::Null,
        }
    }

    fn term(&mut self) -> Term {
        match self.next() % 3 {
            0 => Term::Var(self.ident()),
            1 => Term::Const(self.constant()),
            _ => Term::Wild,
        }
    }

    fn item_pattern(&mut self) -> ItemPattern {
        let base = self.item_base();
        let params = (0..self.usize_in(0, 2)).map(|_| self.term()).collect();
        ItemPattern {
            base: base.into(),
            params,
        }
    }

    fn duration(&mut self) -> SimDuration {
        SimDuration::from_millis(self.int_in(1, 99_999) as u64)
    }

    fn template(&mut self) -> TemplateDesc {
        match self.next() % 6 {
            0 => TemplateDesc::N {
                item: self.item_pattern(),
                value: self.term(),
            },
            1 => TemplateDesc::Wr {
                item: self.item_pattern(),
                value: self.term(),
            },
            2 => TemplateDesc::W {
                item: self.item_pattern(),
                value: self.term(),
            },
            3 => TemplateDesc::Rr {
                item: self.item_pattern(),
            },
            4 => {
                let old = if self.next().is_multiple_of(2) {
                    Some(self.term())
                } else {
                    None
                };
                TemplateDesc::Ws {
                    item: self.item_pattern(),
                    old,
                    new: self.term(),
                }
            }
            _ => TemplateDesc::P {
                period: Term::Const(Value::Int(self.int_in(1, 999_999))),
            },
        }
    }

    fn cmp(&mut self) -> CmpOp {
        match self.next() % 6 {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            _ => CmpOp::Ge,
        }
    }

    fn operand(&mut self) -> Expr {
        match self.next() % 3 {
            0 => Expr::Item(self.item_pattern()),
            1 => Expr::Var(self.ident()),
            _ => Expr::Lit(Value::Int(self.int_in(-10_000, 9_999))),
        }
    }

    /// A conjunction of comparisons between items/vars/ints — the shape
    /// real interface conditions take.
    fn simple_cond(&mut self) -> Cond {
        (0..self.usize_in(1, 2))
            .map(|_| {
                let a = self.operand();
                let op = self.cmp();
                let b = self.operand();
                Cond::Cmp(a, op, b)
            })
            .reduce(|acc, c| Cond::And(Box::new(acc), Box::new(c)))
            .expect("non-empty")
    }

    fn maybe_cond(&mut self) -> Cond {
        if self.next().is_multiple_of(2) {
            self.simple_cond()
        } else {
            Cond::True
        }
    }

    /// Arbitrary printable-ish garbage (ASCII plus some multibyte).
    fn garbage(&mut self, max_len: usize) -> String {
        let n = self.usize_in(0, max_len);
        (0..n)
            .map(|_| match self.next() % 8 {
                0..=5 => char::from_u32(0x20 + (self.next() % 0x5f) as u32).unwrap(),
                6 => char::from_u32(0xA1 + (self.next() % 0x100) as u32).unwrap_or('¿'),
                _ => ['→', 'δ', 'κ', '∧', '∨', '…'][(self.next() % 6) as usize],
            })
            .collect()
    }
}

/// Display → parse is the identity on interface statements.
#[test]
fn interface_roundtrip() {
    let mut g = Gen::new(0x51DE_0001);
    for case in 0..500 {
        let stmt = InterfaceStmt {
            lhs: g.template(),
            cond: g.maybe_cond(),
            rhs: g.template(),
            bound: g.duration(),
        };
        let printed = stmt.to_string();
        let reparsed = parse_interface(&printed)
            .unwrap_or_else(|e| panic!("case {case}: reparse of `{printed}` failed: {e}"));
        assert_eq!(
            stmt, reparsed,
            "case {case}: round trip through `{printed}`"
        );
    }
}

/// Display → parse is the identity on strategy rules with sequenced
/// right-hand sides.
#[test]
fn strategy_roundtrip() {
    let mut g = Gen::new(0x51DE_0002);
    for case in 0..500 {
        let rule = StrategyRule {
            lhs: g.template(),
            cond: g.maybe_cond(),
            steps: (0..g.usize_in(1, 3))
                .map(|_| RhsStep {
                    cond: g.maybe_cond(),
                    event: g.template(),
                })
                .collect(),
            bound: g.duration(),
        };
        let printed = rule.to_string();
        let reparsed = parse_strategy_rule(&printed)
            .unwrap_or_else(|e| panic!("case {case}: reparse of `{printed}` failed: {e}"));
        assert_eq!(
            rule, reparsed,
            "case {case}: round trip through `{printed}`"
        );
    }
}

/// The lexer and parsers never panic on arbitrary input (errors are
/// returned, not thrown).
#[test]
fn parser_total_on_garbage() {
    let mut g = Gen::new(0x51DE_0003);
    for _ in 0..1000 {
        let src = g.garbage(60);
        let _ = parse_interface(&src);
        let _ = parse_strategy_rule(&src);
        let _ = hcm_rulelang::parse_cond(&src);
        let _ = hcm_rulelang::parse_template(&src);
        let _ = hcm_rulelang::parse_guarantee("g", &src);
        let _ = hcm_rulelang::SpecFile::parse(&src);
    }
}

/// `lhs` compiled to slots as the LHS of one rule with `steps`.
fn compile(lhs: &TemplateDesc, steps: &[RhsStep]) -> SlotRules {
    let mut compiler = RuleCompiler::default();
    compiler.rule(lhs, &Cond::True, steps);
    compiler.finish()
}

/// Instantiating a template under slot values and matching the result
/// recovers the same values (match ∘ instantiate = id on the used
/// variables).
#[test]
fn template_instantiate_match_roundtrip() {
    let mut g = Gen::new(0xC0DE_0003);
    let tmpl = TemplateDesc::N {
        item: ItemPattern::with("x", [Term::var("n")]),
        value: Term::var("b"),
    };
    let rules = compile(&tmpl, &[]);
    let lhs = &rules.rule(0).lhs;
    let mut cases = 0;
    while cases < 500 {
        let param = g.value();
        if !param.exists() {
            continue; // param must be concrete
        }
        cases += 1;
        let value = g.value();
        // Slots in order of first occurrence: `n`, then `b`.
        let slots = [Some(param.clone()), Some(value.clone())];
        let event = rules.instantiate(lhs, &slots[..]).expect("fully bound");
        let mut m = Matcher::new(&rules);
        assert!(m.matches(lhs, &event));
        assert_eq!(m.get(0), Some(&param));
        assert_eq!(m.get(1), Some(&value));
    }
}

/// A template with a repeated variable only matches events whose
/// positions agree, and a failed match leaves nothing bound.
#[test]
fn repeated_variable_consistency() {
    let mut g = Gen::new(0xC0DE_0004);
    let tmpl = TemplateDesc::Custom {
        name: "pair".into(),
        args: vec![Term::var("v"), Term::var("v")],
    };
    let rules = compile(&tmpl, &[]);
    for _ in 0..1000 {
        let a = g.value();
        let b = g.value();
        let event = EventDesc::Custom {
            name: "pair".into(),
            args: vec![a.clone(), b.clone()],
        };
        let mut m = Matcher::new(&rules);
        let matched = m.matches(&rules.rule(0).lhs, &event);
        assert_eq!(matched, a == b, "{a:?} vs {b:?}");
        if !matched {
            assert!(
                m.owned(rules.rule(0)).iter().all(Option::is_none),
                "failed match must roll back"
            );
        }
    }
}

/// Undoing to a mark restores exactly the bindings that stood at the
/// mark.
#[test]
fn bindings_rollback_exact() {
    let mut g = Gen::new(0xC0DE_0006);
    let vars = ["a", "b", "c", "d", "e"];
    let lhs = TemplateDesc::Custom {
        name: "vars".into(),
        args: vars.iter().map(|v| Term::var(*v)).collect(),
    };
    // Step `k` binds variable `k` (slot `k`) alone.
    let steps: Vec<RhsStep> = (vars.iter())
        .map(|v| RhsStep {
            cond: Cond::True,
            event: TemplateDesc::Custom {
                name: "one".into(),
                args: vec![Term::var(*v)],
            },
        })
        .collect();
    let rules = compile(&lhs, &steps);
    let one = |i: usize| EventDesc::Custom {
        name: "one".into(),
        args: vec![Value::Int(i as i64)],
    };
    let events: Vec<EventDesc> = (0..8).map(one).collect();
    for _ in 0..1000 {
        let names: Vec<usize> = (0..g.usize_in(1, 7)).map(|_| g.usize_in(0, 4)).collect();
        let cut = g.usize_in(0, 7).min(names.len());

        let mut m = Matcher::new(&rules);
        let mut first = [None; 5];
        let mut mark = m.mark();
        for (i, &n) in names.iter().enumerate() {
            if i == cut {
                mark = m.mark();
            }
            let at = *first[n].get_or_insert(i);
            let step = &rules.steps(rules.rule(0))[n];
            assert!(m.matches(&step.event, &events[at]));
        }
        if cut == names.len() {
            mark = m.mark();
        }
        m.undo(mark);
        // Every variable first bound before the cut is still bound;
        // every one first bound at or after the cut is not.
        for (n, first) in first.iter().enumerate() {
            let bound = m.get(n);
            match first {
                Some(i) if *i < cut => assert_eq!(bound, Some(&Value::Int(*i as i64))),
                _ => assert_eq!(bound, None),
            }
        }
    }
}
