//! Discrimination index over rule left-hand sides.
//!
//! Matching an event by scanning every rule and running full template
//! unification against each is O(rules) per event — the classic wall
//! active-rule systems hit at scale. [`RuleIndex`] buckets rules by the
//! cheap part of their LHS [`TemplateDesc`] — the event-descriptor
//! *kind* crossed with the interned item base [`Sym`] (or the
//! custom-event name) — so an incoming event probes exactly one bucket
//! plus a small generic bucket, and only those candidates pay for
//! unification.
//!
//! Soundness rests on [`TemplateDesc::match_desc`] semantics: a keyed
//! template only ever matches an event of the same kind whose item base
//! (which is always a concrete `Sym`, never a variable) equals the
//! pattern's base, or a custom event of the same name — so every rule
//! the index skips is a rule the linear scan would have rejected, and
//! candidate order within the merge is ascending rule position, i.e.
//! exactly the linear-scan visit order. The CM-Shell dispatches events
//! through it with byte-identical traces, metrics and spans, and the
//! validity checker finds property-6 obligations through it; the
//! toolkit's `tests/dispatch_equivalence.rs` checks the candidate-set
//! equality property differentially against a linear reference over
//! randomized templates.

use crate::event::EventDesc;
use crate::intern::Sym;
use crate::template::TemplateDesc;
use std::collections::HashMap;

/// Event-kind discriminant, the first component of a bucket key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Ws,
    W,
    Wr,
    Rr,
    R,
    N,
}

/// How one event keys into the index.
enum Key<'a> {
    /// Item-bearing kinds: (kind, interned base).
    Item(Kind, Sym),
    /// Custom events, keyed by name (no interner round-trip on probe).
    Custom(&'a str),
    /// No concrete discriminant (`P` events): generic bucket only.
    None,
}

fn event_key(desc: &EventDesc) -> Key<'_> {
    match desc {
        EventDesc::Ws { item, .. } => Key::Item(Kind::Ws, item.base),
        EventDesc::W { item, .. } => Key::Item(Kind::W, item.base),
        EventDesc::Wr { item, .. } => Key::Item(Kind::Wr, item.base),
        EventDesc::Rr { item } => Key::Item(Kind::Rr, item.base),
        EventDesc::R { item, .. } => Key::Item(Kind::R, item.base),
        EventDesc::N { item, .. } => Key::Item(Kind::N, item.base),
        EventDesc::Custom { name, .. } => Key::Custom(name),
        EventDesc::P { .. } => Key::None,
    }
}

/// A discrimination index over rule LHS templates.
///
/// Bucket values are the caller's rule positions, in ascending order.
#[derive(Debug, Clone, Default)]
pub struct RuleIndex {
    /// (event kind, item base) → candidate rule positions.
    items: HashMap<(Kind, Sym), Vec<usize>>,
    /// Custom-event name → candidate rule positions.
    custom: HashMap<String, Vec<usize>>,
    /// Rules with no concrete discriminant (`P`-headed templates):
    /// probed on every event.
    generic: Vec<usize>,
}

impl RuleIndex {
    /// Index `(position, LHS template)` pairs by their discriminant.
    /// Positions must be ascending — candidate iteration preserves that
    /// order.
    #[must_use]
    pub fn build<'a>(lhs: impl IntoIterator<Item = (usize, &'a TemplateDesc)>) -> RuleIndex {
        let mut idx = RuleIndex::default();
        for (i, template) in lhs {
            match template {
                TemplateDesc::Ws { item, .. } => idx.push_item(Kind::Ws, item.base, i),
                TemplateDesc::W { item, .. } => idx.push_item(Kind::W, item.base, i),
                TemplateDesc::Wr { item, .. } => idx.push_item(Kind::Wr, item.base, i),
                TemplateDesc::Rr { item } => idx.push_item(Kind::Rr, item.base, i),
                TemplateDesc::R { item, .. } => idx.push_item(Kind::R, item.base, i),
                TemplateDesc::N { item, .. } => idx.push_item(Kind::N, item.base, i),
                TemplateDesc::Custom { name, .. } => {
                    idx.custom.entry(name.clone()).or_default().push(i);
                }
                TemplateDesc::P { .. } => idx.generic.push(i),
                // `𝓕` matches nothing; indexing it anywhere would only
                // waste probes.
                TemplateDesc::False => {}
            }
        }
        idx
    }

    fn push_item(&mut self, kind: Kind, base: Sym, i: usize) {
        self.items.entry((kind, base)).or_default().push(i);
    }

    /// Candidate rule positions for `desc`, ascending: the merge of
    /// its discriminant bucket with the generic bucket. Every rule the
    /// linear scan would match is a candidate; rules skipped are
    /// guaranteed kind- or base-mismatches.
    pub fn candidates(&self, desc: &EventDesc) -> Candidates<'_> {
        let keyed: &[usize] = match event_key(desc) {
            Key::Item(kind, base) => self.items.get(&(kind, base)).map_or(&[], Vec::as_slice),
            Key::Custom(name) => self.custom.get(name).map_or(&[], Vec::as_slice),
            Key::None => &[],
        };
        Candidates {
            keyed,
            generic: &self.generic,
        }
    }
}

/// Ascending merge of a keyed bucket with the generic bucket (both
/// already sorted; a rule lives in exactly one, so no duplicates).
pub struct Candidates<'a> {
    keyed: &'a [usize],
    generic: &'a [usize],
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match (self.keyed.first(), self.generic.first()) {
            (Some(&k), Some(&g)) => {
                if k <= g {
                    self.keyed = &self.keyed[1..];
                    Some(k)
                } else {
                    self.generic = &self.generic[1..];
                    Some(g)
                }
            }
            (Some(&k), None) => {
                self.keyed = &self.keyed[1..];
                Some(k)
            }
            (None, Some(&g)) => {
                self.generic = &self.generic[1..];
                Some(g)
            }
            (None, None) => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.keyed.len() + self.generic.len();
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{ItemId, ItemPattern};
    use crate::template::Term;
    use crate::time::SimDuration;
    use crate::value::Value;

    fn n(base: &str, value: Term) -> TemplateDesc {
        TemplateDesc::N {
            item: ItemPattern::with(base, [Term::var("n")]),
            value,
        }
    }

    fn index(templates: &[TemplateDesc]) -> RuleIndex {
        RuleIndex::build(templates.iter().enumerate())
    }

    #[test]
    fn buckets_by_kind_and_base() {
        let templates = [
            n("X", Term::var("b")),
            n("Y", Term::var("b")),
            TemplateDesc::Ws {
                item: ItemPattern::with("X", [Term::var("n")]),
                old: None,
                new: Term::var("b"),
            },
            n("X", Term::Const(Value::Int(7))),
        ];
        let idx = index(&templates);
        let n_x = EventDesc::N {
            item: ItemId::with("X", [Value::Int(1)]),
            value: Value::Int(7),
        };
        // N(X) probes only the two N/X rules, in rule order.
        assert_eq!(idx.candidates(&n_x).collect::<Vec<_>>(), vec![0, 3]);
        let ws_x = EventDesc::Ws {
            item: ItemId::with("X", [Value::Int(1)]),
            old: None,
            new: Value::Int(7),
        };
        assert_eq!(idx.candidates(&ws_x).collect::<Vec<_>>(), vec![2]);
        // A base no rule watches yields no candidates.
        let n_z = EventDesc::N {
            item: ItemId::with("Z", [Value::Int(1)]),
            value: Value::Int(7),
        };
        assert_eq!(idx.candidates(&n_z).count(), 0);
    }

    #[test]
    fn generic_bucket_merges_in_position_order() {
        let period = |ms: i64| TemplateDesc::P {
            period: Term::Const(Value::Int(ms)),
        };
        let templates = [
            period(100),
            TemplateDesc::Custom {
                name: "LimitReq".into(),
                args: vec![Term::var("b")],
            },
            period(200),
            TemplateDesc::False,
        ];
        let idx = index(&templates);
        let custom = EventDesc::Custom {
            name: "LimitReq".into(),
            args: vec![Value::Int(1)],
        };
        // Custom bucket [1] merged with generic [0, 2], ascending.
        assert_eq!(idx.candidates(&custom).collect::<Vec<_>>(), vec![0, 1, 2]);
        let p = EventDesc::P {
            period: SimDuration::from_millis(100),
        };
        // P events see only the generic bucket.
        assert_eq!(idx.candidates(&p).collect::<Vec<_>>(), vec![0, 2]);
    }
}
