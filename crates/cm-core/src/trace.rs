//! Executions (traces) and their recording.
//!
//! Appendix A defines the semantics of the rule language over
//! *executions* — time-ordered sequences of events. [`Trace`] is a
//! recorded execution: an append-only event log plus the initial
//! values of the data items. Every state query ([`Trace::value_at`],
//! [`Trace::timeline`], [`Trace::salient_times`], and the checker's
//! reads through [`Trace::index`]) answers from one [`StateIndex`],
//! built on the first query after the last push and shared by every
//! reader.
//!
//! [`TraceRecorder`] is the cheaply-clonable handle the simulation
//! components append through.

use crate::event::{Event, EventDesc, EventId};
use crate::item::ItemId;
use crate::rule::RuleId;
use crate::site::SiteId;
use crate::state::StateIndex;
use crate::time::SimTime;
use crate::value::Value;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::OnceLock;

/// A recorded execution: events in occurrence order, plus the initial
/// values of data items (the initial interpretation).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
    initial: HashMap<ItemId, Value>,
    /// The state index, built on first query; every mutation clears it.
    index: OnceLock<StateIndex>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the initial value of an item (before any event). Items
    /// never mentioned are *underspecified*: reads return `None` and the
    /// checker treats them as unconstrained, matching the appendix's
    /// null-mapping interpretations.
    pub fn set_initial(&mut self, item: ItemId, value: Value) {
        self.index.take();
        self.initial.insert(item, value);
    }

    /// Initial value of an item, if specified.
    #[must_use]
    pub fn initial(&self, item: &ItemId) -> Option<&Value> {
        self.initial.get(item)
    }

    /// Every specified initial value, in no particular order.
    pub fn initial_values(&self) -> impl Iterator<Item = (&ItemId, &Value)> + '_ {
        self.initial.iter()
    }

    /// Append an event, assigning its [`EventId`]. Events are expected
    /// in nondecreasing time order; the invariant is *not* enforced
    /// here — appendix property 1 is one of the things the validity
    /// checker verifies, and its tests need to seed violations.
    pub fn push(
        &mut self,
        time: SimTime,
        site: SiteId,
        desc: EventDesc,
        old_value: Option<Value>,
        rule: Option<RuleId>,
        trigger: Option<EventId>,
    ) -> EventId {
        self.index.take();
        let id = EventId(self.events.len() as u64);
        self.events.push(Event {
            id,
            time,
            site,
            desc,
            old_value,
            rule,
            trigger,
        });
        id
    }

    /// The trace's state index, built on the first call after the last
    /// push.
    #[must_use]
    pub fn index(&self) -> &StateIndex {
        self.index.get_or_init(|| StateIndex::build(self))
    }

    /// All events in occurrence order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Event by id.
    #[must_use]
    pub fn get(&self, id: EventId) -> Option<&Event> {
        self.index_of(id).map(|i| &self.events[i])
    }

    /// Position of an event in the trace (occurrence order), or `None`
    /// for an id the trace never assigned. Ids are positions, so this
    /// is the id itself once bounds-checked.
    #[must_use]
    pub fn index_of(&self, id: EventId) -> Option<usize> {
        let i = usize::try_from(id.0).ok()?;
        (i < self.events.len()).then_some(i)
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no event has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last event, or `SimTime::ZERO` for an empty trace.
    #[must_use]
    pub fn end_time(&self) -> SimTime {
        self.events.last().map_or(SimTime::ZERO, |e| e.time)
    }

    /// The value of `item` at time `t` — i.e. the interpretation the
    /// appendix would assign at `t`, restricted to `item`. Writes take
    /// effect *at* their event time (the `new` interpretation holds from
    /// the instant of the event onward; when several events share an
    /// instant, the last one wins, consistent with the trace order).
    /// Returns `None` when the item is underspecified at `t`.
    #[must_use]
    pub fn value_at(&self, item: &ItemId, t: SimTime) -> Option<Value> {
        self.index().value_at(item, t).cloned()
    }

    /// The full timeline of `item`: `(time, value)` change points, one
    /// per write, preceded by the initial value at `SimTime::ZERO` when
    /// specified. Consecutive equal values are retained (a rewrite of
    /// the same value is still a write event).
    #[must_use]
    pub fn timeline(&self, item: &ItemId) -> Timeline {
        Timeline {
            steps: self.index().changes(item).to_vec(),
        }
    }

    /// The *salient instants* of the trace: `SimTime::ZERO` and every
    /// event time, sorted and deduplicated. Item values are constant
    /// between consecutive salient instants, so quantification over
    /// continuous time reduces to these points plus one representative
    /// inside each open interval (`hcm-checker` builds on this).
    #[must_use]
    pub fn salient_times(&self) -> &[SimTime] {
        self.index().salient_times()
    }

    /// Count events per descriptor tag — cheap instrumentation for the
    /// message-reduction experiments (E8/E9).
    #[must_use]
    pub fn tag_counts(&self) -> HashMap<&'static str, usize> {
        let mut m = HashMap::new();
        for e in &self.events {
            *m.entry(e.desc.tag()).or_insert(0) += 1;
        }
        m
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Step function of one item's value over time.
#[derive(Debug, Clone)]
pub struct Timeline {
    steps: Vec<(SimTime, Value)>,
}

impl Timeline {
    /// The change points `(time, value)` in time order.
    #[must_use]
    pub fn steps(&self) -> &[(SimTime, Value)] {
        &self.steps
    }

    /// Value at time `t` (last change point at or before `t`).
    #[must_use]
    pub fn at(&self, t: SimTime) -> Option<&Value> {
        let n = self.steps.partition_point(|(time, _)| *time <= t);
        n.checked_sub(1).map(|i| &self.steps[i].1)
    }

    /// Distinct values taken, in first-occurrence order.
    #[must_use]
    pub fn values_taken(&self) -> Vec<Value> {
        let mut seen = Vec::new();
        for (_, v) in &self.steps {
            if !seen.contains(v) {
                seen.push(v.clone());
            }
        }
        seen
    }
}

/// Shared, cheaply clonable handle to a trace under construction;
/// the recorded [`Trace`] is extracted once at the end.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder(Rc<RefCell<Trace>>);

impl TraceRecorder {
    /// A recorder over an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an initial item value. See [`Trace::set_initial`].
    pub fn set_initial(&self, item: ItemId, value: Value) {
        self.0.borrow_mut().set_initial(item, value);
    }

    /// Append an event. See [`Trace::push`].
    pub fn record(
        &self,
        time: SimTime,
        site: SiteId,
        desc: EventDesc,
        old_value: Option<Value>,
        rule: Option<RuleId>,
        trigger: Option<EventId>,
    ) -> EventId {
        self.0
            .borrow_mut()
            .push(time, site, desc, old_value, rule, trigger)
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Snapshot the trace recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Trace {
        self.0.borrow().clone()
    }

    /// Run `f` with read access to the trace without cloning it.
    pub fn with<R>(&self, f: impl FnOnce(&Trace) -> R) -> R {
        f(&self.0.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> ItemId {
        ItemId::plain("X")
    }

    fn write(trace: &mut Trace, t: u64, v: i64, old: Option<i64>) {
        trace.push(
            SimTime::from_secs(t),
            SiteId::new(0),
            EventDesc::Ws {
                item: x(),
                old: old.map(Value::Int),
                new: Value::Int(v),
            },
            old.map(Value::Int),
            None,
            None,
        );
    }

    #[test]
    fn value_at_follows_writes() {
        let mut tr = Trace::new();
        tr.set_initial(x(), Value::Int(0));
        write(&mut tr, 10, 1, Some(0));
        write(&mut tr, 20, 2, Some(1));
        assert_eq!(
            tr.value_at(&x(), SimTime::from_secs(5)),
            Some(Value::Int(0))
        );
        assert_eq!(
            tr.value_at(&x(), SimTime::from_secs(10)),
            Some(Value::Int(1))
        );
        assert_eq!(
            tr.value_at(&x(), SimTime::from_secs(15)),
            Some(Value::Int(1))
        );
        assert_eq!(
            tr.value_at(&x(), SimTime::from_secs(99)),
            Some(Value::Int(2))
        );
    }

    #[test]
    fn underspecified_item_reads_none() {
        let tr = Trace::new();
        assert_eq!(tr.value_at(&x(), SimTime::ZERO), None);
    }

    #[test]
    fn timeline_and_values_taken() {
        let mut tr = Trace::new();
        tr.set_initial(x(), Value::Int(0));
        write(&mut tr, 10, 1, Some(0));
        write(&mut tr, 20, 1, Some(1)); // rewrite of same value kept
        write(&mut tr, 30, 2, Some(1));
        let tl = tr.timeline(&x());
        assert_eq!(tl.steps().len(), 4);
        assert_eq!(tl.at(SimTime::from_secs(25)), Some(&Value::Int(1)));
        assert_eq!(tl.at(SimTime::from_secs(5)), Some(&Value::Int(0)));
        assert_eq!(tl.at(SimTime::from_secs(30)), Some(&Value::Int(2)));
        assert_eq!(
            tl.values_taken(),
            vec![Value::Int(0), Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn salient_times_sorted_dedup() {
        let mut tr = Trace::new();
        write(&mut tr, 5, 1, None);
        write(&mut tr, 5, 2, Some(1));
        write(&mut tr, 9, 3, Some(2));
        assert_eq!(
            tr.salient_times(),
            vec![SimTime::ZERO, SimTime::from_secs(5), SimTime::from_secs(9)]
        );
    }

    #[test]
    fn same_instant_last_write_wins() {
        let mut tr = Trace::new();
        write(&mut tr, 5, 1, None);
        write(&mut tr, 5, 2, Some(1));
        assert_eq!(
            tr.value_at(&x(), SimTime::from_secs(5)),
            Some(Value::Int(2))
        );
    }

    #[test]
    fn out_of_order_trace_uses_stable_time_order() {
        // An out-of-order trace (appendix property 1 violation, which
        // the validity checker reports) still has one defined state:
        // change points are stably sorted by time, so the earlier-timed
        // write counts from its own instant and same-instant writes keep
        // trace order.
        let mut tr = Trace::new();
        write(&mut tr, 20, 2, None);
        write(&mut tr, 10, 1, None); // goes backwards
        write(&mut tr, 10, 3, None); // same instant, later in the trace
        let at = |t| tr.value_at(&x(), SimTime::from_secs(t));
        assert_eq!(at(5), None);
        assert_eq!(at(10), Some(Value::Int(3)));
        assert_eq!(at(15), Some(Value::Int(3)));
        assert_eq!(at(30), Some(Value::Int(2)));
        assert_eq!(
            tr.timeline(&x()).steps(),
            &[
                (SimTime::from_secs(10), Value::Int(1)),
                (SimTime::from_secs(10), Value::Int(3)),
                (SimTime::from_secs(20), Value::Int(2)),
            ]
        );
        assert_eq!(
            tr.salient_times(),
            &[
                SimTime::ZERO,
                SimTime::from_secs(10),
                SimTime::from_secs(20)
            ]
        );
    }

    #[test]
    fn ordered_and_linear_value_at_agree() {
        // Reference: scan the events in order, stopping at the first
        // one later than `t`.
        fn linear(tr: &Trace, item: &ItemId, t: SimTime) -> Option<Value> {
            let mut current = tr.initial(item).cloned();
            for e in tr.events().iter().take_while(|e| e.time <= t) {
                if let Some((i, v)) = e.desc.write_effect() {
                    if i == item {
                        current = Some(v.clone());
                    }
                }
            }
            current
        }
        let mut tr = Trace::new();
        tr.set_initial(x(), Value::Int(0));
        for (i, t) in [3u64, 5, 5, 8, 13].iter().enumerate() {
            write(&mut tr, *t, i as i64, None);
        }
        for t in 0..15u64 {
            let t = SimTime::from_secs(t);
            assert_eq!(tr.value_at(&x(), t), linear(&tr, &x(), t), "at {t}");
        }
    }

    #[test]
    fn recorder_round_trip() {
        let rec = TraceRecorder::new();
        assert!(rec.is_empty());
        rec.set_initial(x(), Value::Int(0));
        let id = rec.record(
            SimTime::from_secs(1),
            SiteId::new(0),
            EventDesc::Rr { item: x() },
            None,
            None,
            None,
        );
        assert_eq!(id, EventId(0));
        assert_eq!(rec.len(), 1);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.initial(&x()), Some(&Value::Int(0)));
        rec.with(|t| assert_eq!(t.len(), 1));
    }

    #[test]
    fn items_and_tag_counts() {
        let mut tr = Trace::new();
        tr.set_initial(ItemId::plain("Y"), Value::Int(0));
        write(&mut tr, 1, 5, None);
        write(&mut tr, 2, 6, Some(5));
        let initial: Vec<_> = tr.initial_values().collect();
        assert_eq!(initial, vec![(&ItemId::plain("Y"), &Value::Int(0))]);
        assert_eq!(tr.tag_counts().get("Ws"), Some(&2));
        assert_eq!(tr.end_time(), SimTime::from_secs(2));
    }
}
