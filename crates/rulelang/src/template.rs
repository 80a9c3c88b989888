//! Case tests of `hcm_core::template`'s matching interpretation
//! `mi(E, 𝓔)`: does an event match a template, answered yes or no
//! through the one matcher, [`crate::slots::Matcher`]. The bindings a
//! match builds are tested in `slots::tests`.

#[cfg(test)]
mod tests {
    use crate::ast::Cond;
    use crate::slots::{Matcher, RuleCompiler};
    use hcm_core::{EventDesc, ItemId, ItemPattern, SimDuration, TemplateDesc, Term, Value};

    fn x() -> ItemPattern {
        ItemPattern::plain("X")
    }

    /// Whether `e` matches `t` under a fresh interpretation.
    fn matches(t: &TemplateDesc, e: &EventDesc) -> bool {
        let mut compiler = RuleCompiler::default();
        compiler.rule(t, &Cond::True, &[]);
        let rules = compiler.finish();
        Matcher::new(&rules).matches(&rules.rule(0).lhs, e)
    }

    #[test]
    fn kind_mismatch_fails_cleanly() {
        let t = TemplateDesc::N {
            item: x(),
            value: Term::var("b"),
        };
        let e = EventDesc::W {
            item: ItemId::plain("X"),
            value: Value::Int(42),
        };
        assert!(!matches(&t, &e));
        let n = EventDesc::N {
            item: ItemId::plain("X"),
            value: Value::Int(42),
        };
        assert!(matches(&t, &n));
    }

    #[test]
    fn ws_sugar_ignores_old_value() {
        let t = TemplateDesc::Ws {
            item: x(),
            old: None,
            new: Term::var("b"),
        };
        for old in [Some(Value::Int(1)), None] {
            let e = EventDesc::Ws {
                item: ItemId::plain("X"),
                old,
                new: Value::Int(2),
            };
            assert!(matches(&t, &e));
        }
        // Old value required but unrecorded: only `*` may match.
        let unrecorded = EventDesc::Ws {
            item: ItemId::plain("X"),
            old: None,
            new: Value::Int(2),
        };
        let with_old = |old| TemplateDesc::Ws {
            item: x(),
            old: Some(old),
            new: Term::var("b"),
        };
        assert!(!matches(&with_old(Term::var("a")), &unrecorded));
        assert!(matches(&with_old(Term::Wild), &unrecorded));
    }

    #[test]
    fn false_template_never_matches() {
        let e = EventDesc::Ws {
            item: ItemId::plain("X"),
            old: None,
            new: Value::Int(2),
        };
        assert!(!matches(&TemplateDesc::False, &e));
        // Nor does it match a bare item.
        let mut compiler = RuleCompiler::default();
        compiler.rule(&TemplateDesc::False, &Cond::True, &[]);
        let rules = compiler.finish();
        let mut m = Matcher::new(&rules);
        assert!(!m.matches_item(&rules.rule(0).lhs, &ItemId::plain("X")));
    }

    #[test]
    fn periodic_template() {
        let t = TemplateDesc::P {
            period: Term::Const(Value::Int(300_000)),
        };
        let e = EventDesc::P {
            period: SimDuration::from_secs(300),
        };
        assert!(matches(&t, &e));
        let wrong = EventDesc::P {
            period: SimDuration::from_secs(60),
        };
        assert!(!matches(&t, &wrong));
        let any = TemplateDesc::P {
            period: Term::var("p"),
        };
        assert!(matches(&any, &wrong));
    }

    #[test]
    fn custom_template() {
        let t = TemplateDesc::Custom {
            name: "LimitChangeReq".into(),
            args: vec![Term::var("amt")],
        };
        let e = EventDesc::Custom {
            name: "LimitChangeReq".into(),
            args: vec![Value::Int(50)],
        };
        assert!(matches(&t, &e));
        let other = EventDesc::Custom {
            name: "Other".into(),
            args: vec![Value::Int(50)],
        };
        assert!(!matches(&t, &other));
        let arity = EventDesc::Custom {
            name: "LimitChangeReq".into(),
            args: vec![Value::Int(50), Value::Int(1)],
        };
        assert!(!matches(&t, &arity));
    }
}
