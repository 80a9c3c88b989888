//! The state of every item over time, reconstructed from a trace.
//!
//! Appendix A derives one interpretation of the data items at each
//! instant from an execution's events. [`StateIndex`] holds that
//! derivation once per trace: per item, the `(time, value)` change
//! points (the initial value first, at `SimTime::ZERO`), plus per-base
//! breakpoint and item lists for the guarantee evaluator's salient
//! grid. [`Trace::index`] builds it on the first query and keeps it
//! until the next push, so every reader shares one build.
//!
//! Change points are stably sorted by time: same-instant writes keep
//! trace order, so the last one wins. On a time-ordered trace that is
//! exactly the appendix's interpretation. A trace that violates time
//! order (appendix property 1, which the validity checker reports)
//! still gets this one defined answer.

use crate::intern::Sym;
use crate::item::ItemId;
use crate::time::SimTime;
use crate::trace::Trace;
use crate::value::Value;
use std::collections::HashMap;

/// Per-item change history with binary-search lookups.
#[derive(Debug, Clone)]
pub struct StateIndex {
    /// item → `(time, value)` change points, stably sorted by time.
    changes: HashMap<ItemId, Vec<(SimTime, Value)>>,
    /// base → sorted deduped change times over every item of the base.
    base_bps: HashMap<Sym, Vec<SimTime>>,
    /// base → items of that base, sorted.
    base_items: HashMap<Sym, Vec<ItemId>>,
    /// `SimTime::ZERO` and every event time, sorted and deduplicated.
    salient: Vec<SimTime>,
}

impl StateIndex {
    /// Build the index from a trace. [`Trace::index`] caches the
    /// result; call this directly only to time a fresh build.
    #[must_use]
    pub fn build(trace: &Trace) -> Self {
        let mut changes: HashMap<ItemId, Vec<(SimTime, Value)>> = HashMap::new();
        for (item, v) in trace.initial_values() {
            changes.insert(item.clone(), vec![(SimTime::ZERO, v.clone())]);
        }
        for e in trace.events() {
            if let Some((item, v)) = e.desc.write_effect() {
                match changes.get_mut(item) {
                    Some(ch) => ch.push((e.time, v.clone())),
                    None => {
                        changes.insert(item.clone(), vec![(e.time, v.clone())]);
                    }
                }
            }
        }
        let mut base_bps: HashMap<Sym, Vec<SimTime>> = HashMap::new();
        let mut base_items: HashMap<Sym, Vec<ItemId>> = HashMap::new();
        for (item, ch) in &mut changes {
            ch.sort_by_key(|(t, _)| *t);
            base_bps
                .entry(item.base)
                .or_default()
                .extend(ch.iter().map(|(t, _)| *t));
            base_items.entry(item.base).or_default().push(item.clone());
        }
        for ts in base_bps.values_mut() {
            ts.sort();
            ts.dedup();
        }
        for items in base_items.values_mut() {
            items.sort();
        }
        let mut salient: Vec<SimTime> = std::iter::once(SimTime::ZERO)
            .chain(trace.events().iter().map(|e| e.time))
            .collect();
        salient.sort();
        salient.dedup();
        StateIndex {
            changes,
            base_bps,
            base_items,
            salient,
        }
    }

    /// The value of `item` at `t` (`None` when underspecified): the
    /// last change point at or before `t`.
    #[must_use]
    pub fn value_at(&self, item: &ItemId, t: SimTime) -> Option<&Value> {
        let ch = self.changes(item);
        let n = ch.partition_point(|(time, _)| *time <= t);
        n.checked_sub(1).map(|i| &ch[i].1)
    }

    /// The `(time, value)` change points of `item` in time order.
    #[must_use]
    pub fn changes(&self, item: &ItemId) -> &[(SimTime, Value)] {
        self.changes.get(item).map_or(&[], Vec::as_slice)
    }

    /// Breakpoints of every item whose base name is `base`, sorted and
    /// deduplicated. Precomputed; no allocation.
    #[must_use]
    pub fn breakpoints_by_base(&self, base: impl Into<Sym>) -> &[SimTime] {
        self.base_bps.get(&base.into()).map_or(&[], Vec::as_slice)
    }

    /// All items with a given base name, sorted. Precomputed.
    #[must_use]
    pub fn items_with_base(&self, base: impl Into<Sym>) -> &[ItemId] {
        self.base_items.get(&base.into()).map_or(&[], Vec::as_slice)
    }

    /// `SimTime::ZERO` and every event time, sorted and deduplicated.
    #[must_use]
    pub(crate) fn salient_times(&self) -> &[SimTime] {
        &self.salient
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventDesc;
    use crate::site::SiteId;

    fn ws(tr: &mut Trace, item: ItemId, t: u64, v: i64) {
        tr.push(
            SimTime::from_secs(t),
            SiteId::new(0),
            EventDesc::Ws {
                item,
                old: None,
                new: Value::Int(v),
            },
            None,
            None,
            None,
        );
    }

    fn x_trace() -> Trace {
        let mut tr = Trace::new();
        tr.set_initial(ItemId::plain("X"), Value::Int(0));
        for (t, v) in [(10u64, 1i64), (20, 2), (20, 3), (30, 4)] {
            ws(&mut tr, ItemId::plain("X"), t, v);
        }
        tr
    }

    #[test]
    fn point_queries_match_trace() {
        let tr = x_trace();
        let idx = tr.index();
        let x = ItemId::plain("X");
        for (t, v) in [
            (0u64, 0i64),
            (5, 0),
            (10, 1),
            (15, 1),
            (20, 3),
            (25, 3),
            (30, 4),
            (99, 4),
        ] {
            let want = Value::Int(v);
            assert_eq!(
                idx.value_at(&x, SimTime::from_secs(t)),
                Some(&want),
                "t={t}"
            );
            assert_eq!(tr.value_at(&x, SimTime::from_secs(t)), Some(want), "t={t}");
        }
        assert_eq!(idx.value_at(&ItemId::plain("Z"), SimTime::ZERO), None);
    }

    #[test]
    fn breakpoints_and_bases() {
        let tr = x_trace();
        let idx = tr.index();
        assert_eq!(
            idx.breakpoints_by_base("X"),
            &[
                SimTime::ZERO,
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                SimTime::from_secs(30)
            ]
        );
        assert_eq!(idx.changes(&ItemId::plain("X")).len(), 5);
        assert_eq!(idx.items_with_base("X"), &[ItemId::plain("X")]);
        assert!(idx.items_with_base("Q").is_empty());
    }

    #[test]
    fn per_base_breakpoints_union_items() {
        let mut tr = Trace::new();
        for (name, t) in [("e1", 10u64), ("e2", 25)] {
            ws(&mut tr, ItemId::with("salary", [Value::from(name)]), t, 1);
        }
        let idx = tr.index();
        assert_eq!(
            idx.breakpoints_by_base("salary"),
            &[SimTime::from_secs(10), SimTime::from_secs(25)]
        );
        assert_eq!(idx.items_with_base("salary").len(), 2);
    }
}
