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
//! Soundness rests on the matching semantics of Appendix A: a keyed
//! template only ever matches an event of the same kind whose item base
//! (which is always a concrete `Sym`, never a variable) equals the
//! pattern's base, or a custom event of the same name — so every rule
//! the index skips is a rule the linear scan would have rejected, and
//! candidate order within the merge is ascending rule position, i.e.
//! exactly the linear-scan visit order. The CM-Shell dispatches events
//! through it with byte-identical traces, metrics and spans, the
//! CM-Translator decides through one over its interest patterns which
//! events to forward to its shell (an event no pattern can match costs
//! one binary search), and the validity checker
//! finds property-6 obligations through it; the
//! toolkit's `tests/dispatch_equivalence.rs` checks the candidate-set
//! equality property differentially against a linear reference over
//! randomized templates.

use crate::event::EventDesc;
use crate::intern::Sym;
use crate::template::TemplateDesc;

/// Event-kind discriminant, the high half of an item bucket's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ws,
    W,
    Wr,
    Rr,
    R,
    N,
}

/// An item bucket's key: the kind above the base's interned id, so
/// keys sort and compare as plain integers.
fn item_key(kind: Kind, base: Sym) -> u64 {
    (kind as u64) << 32 | u64::from(base.id())
}

/// How one event keys into the index.
enum Key<'a> {
    /// Item-bearing kinds: see [`item_key`].
    Item(u64),
    /// Custom events, keyed by name (no interner round-trip on probe).
    Custom(&'a str),
    /// No concrete discriminant (`P` events): generic bucket only.
    None,
}

fn event_key(desc: &EventDesc) -> Key<'_> {
    match desc {
        EventDesc::Ws { item, .. } => Key::Item(item_key(Kind::Ws, item.base)),
        EventDesc::W { item, .. } => Key::Item(item_key(Kind::W, item.base)),
        EventDesc::Wr { item, .. } => Key::Item(item_key(Kind::Wr, item.base)),
        EventDesc::Rr { item } => Key::Item(item_key(Kind::Rr, item.base)),
        EventDesc::R { item, .. } => Key::Item(item_key(Kind::R, item.base)),
        EventDesc::N { item, .. } => Key::Item(item_key(Kind::N, item.base)),
        EventDesc::Custom { name, .. } => Key::Custom(name),
        EventDesc::P { .. } => Key::None,
    }
}

/// A discrimination index over rule LHS templates.
///
/// The buckets are stored flat, in compressed-sparse-row form: bucket
/// `b` holds `positions[starts[b]..starts[b + 1]]`, the caller's rule
/// positions in ascending order. Item buckets come first, in the order
/// of their sorted keys; custom-event buckets follow, in the order of
/// their sorted names. Building an index therefore allocates a fixed
/// number of arrays however many keys it has, and a probe is a binary
/// search.
#[derive(Debug, Clone, Default)]
pub struct RuleIndex {
    /// Item bucket keys, ascending (see [`item_key`]).
    item_keys: Vec<u64>,
    /// Custom-event names, ascending, as ranges of `names`.
    custom: Vec<(usize, usize)>,
    names: String,
    /// Bucket `b` spans `positions[starts[b]..starts[b + 1]]`.
    starts: Vec<usize>,
    positions: Vec<usize>,
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
        let lhs = lhs.into_iter();
        let mut items: Vec<(u64, usize)> = Vec::with_capacity(lhs.size_hint().0);
        let mut custom: Vec<(&str, usize)> = Vec::new();
        let mut generic = Vec::new();
        for (i, template) in lhs {
            let kind = match template {
                TemplateDesc::Ws { .. } => Kind::Ws,
                TemplateDesc::W { .. } => Kind::W,
                TemplateDesc::Wr { .. } => Kind::Wr,
                TemplateDesc::Rr { .. } => Kind::Rr,
                TemplateDesc::R { .. } => Kind::R,
                TemplateDesc::N { .. } => Kind::N,
                TemplateDesc::Custom { name, .. } => {
                    custom.push((name, i));
                    continue;
                }
                TemplateDesc::P { .. } => {
                    generic.push(i);
                    continue;
                }
                // `𝓕` matches nothing; indexing it anywhere would only
                // waste probes.
                TemplateDesc::False => continue,
            };
            let item = template.item_pattern().expect("item-bearing kind");
            items.push((item_key(kind, item.base), i));
        }
        // Positions are unique, so sorting the pairs keeps each key's
        // positions ascending.
        items.sort_unstable();
        custom.sort_unstable();
        let mut idx = RuleIndex {
            item_keys: Vec::with_capacity(items.len()),
            custom: Vec::with_capacity(custom.len()),
            names: String::with_capacity(custom.iter().map(|(name, _)| name.len()).sum()),
            starts: Vec::with_capacity(items.len() + custom.len() + 1),
            positions: Vec::with_capacity(items.len() + custom.len()),
            generic,
        };
        for (key, i) in items {
            if idx.item_keys.last() != Some(&key) {
                idx.item_keys.push(key);
                idx.starts.push(idx.positions.len());
            }
            idx.positions.push(i);
        }
        let mut last = None;
        for (name, i) in custom {
            if last != Some(name) {
                last = Some(name);
                let from = idx.names.len();
                idx.names.push_str(name);
                idx.custom.push((from, idx.names.len()));
                idx.starts.push(idx.positions.len());
            }
            idx.positions.push(i);
        }
        idx.starts.push(idx.positions.len());
        idx
    }

    /// Candidate rule positions for `desc`, ascending: the merge of
    /// its discriminant bucket with the generic bucket. Every rule the
    /// linear scan would match is a candidate; rules skipped are
    /// guaranteed kind- or base-mismatches.
    pub fn candidates(&self, desc: &EventDesc) -> Candidates<'_> {
        let bucket = match event_key(desc) {
            Key::Item(key) => self.item_keys.binary_search(&key).ok(),
            Key::Custom(name) => (self.custom)
                .binary_search_by(|&(from, to)| self.names[from..to].cmp(name))
                .ok()
                .map(|j| self.item_keys.len() + j),
            Key::None => None,
        };
        let keyed = bucket.map_or(&[][..], |b| {
            &self.positions[self.starts[b]..self.starts[b + 1]]
        });
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
    fn flat_buckets_keep_every_key_apart() {
        let custom = |name: &str| TemplateDesc::Custom {
            name: name.into(),
            args: vec![Term::var("b")],
        };
        // Keys interleaved and repeated out of order, names unsorted.
        let templates = [
            custom("Zed"),
            n("Y", Term::var("b")),
            custom("Alpha"),
            n("X", Term::var("b")),
            custom("Zed"),
            n("Y", Term::Wild),
            custom("Mid"),
            n("X", Term::Wild),
        ];
        let idx = index(&templates);
        let ev = |name: &str| EventDesc::Custom {
            name: name.into(),
            args: vec![Value::Int(1)],
        };
        let n_of = |base: &str| EventDesc::N {
            item: ItemId::with(base, [Value::Int(1)]),
            value: Value::Int(7),
        };
        let got = |desc: &EventDesc| idx.candidates(desc).collect::<Vec<_>>();
        assert_eq!(got(&ev("Zed")), vec![0, 4]);
        assert_eq!(got(&ev("Alpha")), vec![2]);
        assert_eq!(got(&ev("Mid")), vec![6]);
        assert_eq!(got(&ev("Nope")), Vec::<usize>::new());
        assert_eq!(got(&n_of("X")), vec![3, 7]);
        assert_eq!(got(&n_of("Y")), vec![1, 5]);
        assert_eq!(got(&n_of("Z")), Vec::<usize>::new());
        assert_eq!(RuleIndex::default().candidates(&ev("Zed")).count(), 0);
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
