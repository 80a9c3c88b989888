//! Randomized tests for the core vocabulary: value ordering laws,
//! template-matching round trips, and trace/timeline agreement.
//!
//! Formerly proptest-based; now driven by a local SplitMix64 generator
//! so the suite needs no external crates and stays deterministic.

use hcm_core::{
    Bindings, EventDesc, ItemId, ItemPattern, SimTime, SiteId, TemplateDesc, Term, Trace, Value,
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
    /// Uniform integer in `[lo, hi]`.
    fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64 + 1;
        lo + (self.next() % span) as i64
    }
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.int_in(lo as i64, hi as i64) as usize
    }
    /// Lower-case string of length `0..=max_len`.
    fn lc_string(&mut self, max_len: usize) -> String {
        let n = self.usize_in(0, max_len);
        (0..n)
            .map(|_| (b'a' + (self.next() % 26) as u8) as char)
            .collect()
    }
    fn value(&mut self) -> Value {
        match self.next() % 5 {
            0 => Value::Null,
            1 => Value::Bool(self.next().is_multiple_of(2)),
            2 => Value::Int(self.int_in(-1_000_000, 999_999)),
            3 => Value::Float(self.int_in(-1_000_000, 999_999) as f64 / 3.0),
            _ => Value::from(self.lc_string(8)),
        }
    }
}

/// `Ord` on Value is a total order: antisymmetric and transitive.
#[test]
fn value_ord_laws() {
    use std::cmp::Ordering;
    let mut g = Gen::new(0xC0DE_0001);
    for _ in 0..2000 {
        let a = g.value();
        let b = g.value();
        let c = g.value();
        // Antisymmetry via consistency with reversal.
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse(), "{a:?} vs {b:?}");
        // Transitivity.
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            assert_ne!(a.cmp(&c), Ordering::Greater, "{a:?} {b:?} {c:?}");
        }
        // Eq consistency: cmp == Equal implies ==.
        if a.cmp(&b) == Ordering::Equal {
            assert_eq!(&a, &b);
        }
    }
}

/// Hash agrees with equality (Int/Float cross-equality included).
#[test]
fn value_hash_eq_consistent() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let h = |v: &Value| {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    };
    for i in -1000i64..1000 {
        let int = Value::Int(i);
        let float = Value::Float(i as f64);
        assert_eq!(&int, &float);
        assert_eq!(h(&int), h(&float), "hash mismatch at {i}");
    }
}

/// Arithmetic: (a + b) - b == a for in-range integers.
#[test]
fn int_add_sub_roundtrip() {
    let mut g = Gen::new(0xC0DE_0002);
    for _ in 0..2000 {
        let a = g.int_in(-1_000_000, 999_999);
        let b = g.int_in(-1_000_000, 999_999);
        let va = Value::Int(a);
        let vb = Value::Int(b);
        let back = va.add(&vb).unwrap().sub(&vb).unwrap();
        assert_eq!(back, va, "({a} + {b}) - {b}");
    }
}

/// Instantiating a template under bindings and matching the result
/// recovers consistent bindings (match ∘ instantiate = id on the used
/// variables).
#[test]
fn template_instantiate_match_roundtrip() {
    let mut g = Gen::new(0xC0DE_0003);
    let mut cases = 0;
    while cases < 500 {
        let param = g.value();
        if !param.exists() {
            continue; // param must be concrete
        }
        cases += 1;
        let value = g.value();
        let tmpl = TemplateDesc::N {
            item: ItemPattern::with("x", [Term::var("n")]),
            value: Term::var("b"),
        };
        let mut bindings = Bindings::new();
        bindings.bind("n", param.clone());
        bindings.bind("b", value.clone());
        let event = tmpl.instantiate(&bindings).expect("fully bound");
        let mut recovered = Bindings::new();
        assert!(tmpl.match_desc(&event, &mut recovered));
        assert_eq!(recovered.get("n"), Some(&param));
        assert_eq!(recovered.get("b"), Some(&value));
    }
}

/// A template with a repeated variable only matches events whose
/// positions agree.
#[test]
fn repeated_variable_consistency() {
    let mut g = Gen::new(0xC0DE_0004);
    for _ in 0..1000 {
        let a = g.value();
        let b = g.value();
        let tmpl = TemplateDesc::Custom {
            name: "pair".into(),
            args: vec![Term::var("v"), Term::var("v")],
        };
        let event = EventDesc::Custom {
            name: "pair".into(),
            args: vec![a.clone(), b.clone()],
        };
        let mut bind = Bindings::new();
        let matched = tmpl.match_desc(&event, &mut bind);
        assert_eq!(matched, a == b, "{a:?} vs {b:?}");
        if !matched {
            assert!(bind.is_empty(), "failed match must roll back");
        }
    }
}

/// Reference state lookup, independent of the trace's state index:
/// scan the events in order, stopping at the first one later than `t`.
fn linear_value_at(trace: &Trace, item: &ItemId, t: SimTime) -> Option<Value> {
    let mut current = trace.initial(item).cloned();
    for e in trace.events().iter().take_while(|e| e.time <= t) {
        if let Some((i, v)) = e.desc.write_effect() {
            if i == item {
                current = Some(v.clone());
            }
        }
    }
    current
}

/// Trace::value_at and Timeline::at agree with a linear scan of the
/// events at every queried time, for arbitrary write sequences.
#[test]
fn trace_and_timeline_agree() {
    let mut g = Gen::new(0xC0DE_0005);
    for _ in 0..300 {
        let mut writes: Vec<(u64, i64)> = (0..g.usize_in(0, 39))
            .map(|_| (g.int_in(0, 499) as u64, g.int_in(-50, 49)))
            .collect();
        writes.sort_by_key(|(t, _)| *t);
        let queries: Vec<u64> = (0..g.usize_in(0, 19))
            .map(|_| g.int_in(0, 599) as u64)
            .collect();
        let initial = if g.next().is_multiple_of(2) {
            Some(g.int_in(-50, 49))
        } else {
            None
        };

        let item = ItemId::plain("X");
        let mut trace = Trace::new();
        if let Some(v) = initial {
            trace.set_initial(item.clone(), Value::Int(v));
        }
        for (t, v) in &writes {
            let old = linear_value_at(&trace, &item, SimTime::from_millis(*t));
            trace.push(
                SimTime::from_millis(*t),
                SiteId::new(0),
                EventDesc::Ws {
                    item: item.clone(),
                    old: old.clone(),
                    new: Value::Int(*v),
                },
                old,
                None,
                None,
            );
        }
        let tl = trace.timeline(&item);
        for q in queries {
            let t = SimTime::from_millis(q);
            let want = linear_value_at(&trace, &item, t);
            assert_eq!(trace.value_at(&item, t), want, "query at {q}ms");
            assert_eq!(tl.at(t).cloned(), want, "timeline query at {q}ms");
        }
    }
}

/// Bindings rollback restores exactly the checkpointed state.
#[test]
fn bindings_rollback_exact() {
    let mut g = Gen::new(0xC0DE_0006);
    for _ in 0..1000 {
        let names: Vec<String> = (0..g.usize_in(1, 7))
            .map(|_| ((b'a' + (g.next() % 5) as u8) as char).to_string())
            .collect();
        let cut = g.usize_in(0, 7).min(names.len());

        let mut b = Bindings::new();
        let mut inserted = Vec::new();
        let mut checkpoint = b.checkpoint();
        for (i, n) in names.iter().enumerate() {
            if i == cut {
                checkpoint = b.checkpoint();
            }
            if b.get(n).is_none() {
                inserted.push((n.clone(), i));
            }
            b.bind(n.clone(), Value::Int(i as i64));
        }
        if cut == names.len() {
            checkpoint = b.checkpoint();
        }
        b.rollback(checkpoint);
        // Every name first inserted before the cut is still present;
        // every name first inserted at/after the cut is gone.
        for (n, first) in inserted {
            if first < cut {
                assert!(b.get(&n).is_some());
            } else {
                assert!(b.get(&n).is_none());
            }
        }
    }
}
