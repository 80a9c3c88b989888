//! Executions (traces) and their recording.
//!
//! Appendix A defines the semantics of the rule language over
//! *executions* — time-ordered sequences of events. [`Trace`] is a
//! recorded execution plus the query machinery the guarantee evaluator
//! and the validity checker need:
//!
//! * per-item **timelines** (step functions of value over time,
//!   reconstructing the appendix's full `old`/`new` interpretations);
//! * template scans;
//! * the quiescence horizon used for finite-trace evaluation of
//!   liveness-flavoured guarantees (see `hcm-checker`).
//!
//! Queries are index-backed: [`Trace::push`] incrementally maintains a
//! per-item write index, a per-descriptor-kind event index, and the
//! item set, so [`Trace::value_at`] is a binary search over one item's
//! writes, [`Trace::matching`] only visits events of the template's
//! kind, and [`Trace::items`] is a walk over a cached sorted set. When
//! a trace violates time order (validity-checker tests seed such
//! traces deliberately — appendix property 1 is *checked*, not
//! enforced), `value_at` falls back to the original linear scan whose
//! semantics the binary search would not preserve.
//!
//! [`TraceRecorder`] is the cheaply-clonable handle the simulation
//! components append through.

use crate::event::{Event, EventDesc, EventId};
use crate::item::ItemId;
use crate::rule::RuleId;
use crate::site::SiteId;
use crate::template::{Bindings, TemplateDesc};
use crate::time::SimTime;
use crate::value::Value;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

/// How many index-downgrading pushes [`Trace`] keeps details for (the
/// counter keeps counting past the cap).
const DOWNGRADE_LOG_CAP: usize = 8;

/// Discriminant used to bucket events by descriptor kind so template
/// scans skip events that cannot match. `TemplateDesc::False` maps to
/// no kind (it matches nothing).
fn desc_kind(desc: &EventDesc) -> u8 {
    match desc {
        EventDesc::Ws { .. } => 0,
        EventDesc::W { .. } => 1,
        EventDesc::Wr { .. } => 2,
        EventDesc::Rr { .. } => 3,
        EventDesc::R { .. } => 4,
        EventDesc::N { .. } => 5,
        EventDesc::P { .. } => 6,
        EventDesc::Custom { .. } => 7,
    }
}

fn template_kind(template: &TemplateDesc) -> Option<u8> {
    match template {
        TemplateDesc::Ws { .. } => Some(0),
        TemplateDesc::W { .. } => Some(1),
        TemplateDesc::Wr { .. } => Some(2),
        TemplateDesc::Rr { .. } => Some(3),
        TemplateDesc::R { .. } => Some(4),
        TemplateDesc::N { .. } => Some(5),
        TemplateDesc::P { .. } => Some(6),
        TemplateDesc::Custom { .. } => Some(7),
        TemplateDesc::False => None,
    }
}

/// A recorded execution: events in occurrence order, plus the initial
/// values of data items (the initial interpretation).
#[derive(Debug, Clone)]
pub struct Trace {
    events: Vec<Event>,
    initial: HashMap<ItemId, Value>,
    /// Event indexes (into `events`) of write-effect events, per item,
    /// in push order.
    writes: HashMap<ItemId, Vec<u32>>,
    /// Event indexes per descriptor kind, in push order.
    by_kind: HashMap<u8, Vec<u32>>,
    /// Every item mentioned by any event or the initial interpretation.
    item_set: BTreeSet<ItemId>,
    /// Time of the latest push, for order tracking.
    last_time: SimTime,
    /// Set when some push went backwards in time; index-backed
    /// `value_at` is only used while this is `false`.
    unordered: bool,
    /// How many pushes arrived with a time before `last_time`, silently
    /// downgrading indexed queries to linear scans.
    downgrades: u64,
    /// Details of the first few downgrading pushes:
    /// `(push time, previous last_time, site of the push)`.
    downgrade_log: Vec<(SimTime, SimTime, SiteId)>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            events: Vec::new(),
            initial: HashMap::new(),
            writes: HashMap::new(),
            by_kind: HashMap::new(),
            item_set: BTreeSet::new(),
            last_time: SimTime::ZERO,
            unordered: false,
            downgrades: 0,
            downgrade_log: Vec::new(),
        }
    }
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
        if !self.item_set.contains(&item) {
            self.item_set.insert(item.clone());
        }
        self.initial.insert(item, value);
    }

    /// Initial value of an item, if specified.
    #[must_use]
    pub fn initial(&self, item: &ItemId) -> Option<&Value> {
        self.initial.get(item)
    }

    /// Append an event, assigning its [`EventId`]. Events are expected
    /// in nondecreasing time order; the invariant is *not* enforced
    /// here — appendix property 1 is one of the things the validity
    /// checker verifies, and its tests need to seed violations. An
    /// out-of-order push only downgrades queries to their linear
    /// fallbacks; nothing is lost.
    pub fn push(
        &mut self,
        time: SimTime,
        site: SiteId,
        desc: EventDesc,
        old_value: Option<Value>,
        rule: Option<RuleId>,
        trigger: Option<EventId>,
    ) -> EventId {
        let idx = u32::try_from(self.events.len()).expect("trace too long for u32 index");
        let id = EventId(u64::from(idx));
        self.note_order(time, site);
        if let Some(item) = desc.item() {
            if !self.item_set.contains(item) {
                self.item_set.insert(item.clone());
            }
            if desc.write_effect().is_some() {
                match self.writes.get_mut(item) {
                    Some(v) => v.push(idx),
                    None => {
                        self.writes.insert(item.clone(), vec![idx]);
                    }
                }
            }
        }
        self.by_kind.entry(desc_kind(&desc)).or_default().push(idx);
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

    /// Track push time order, counting index downgrades (an
    /// out-of-order push demotes `value_at` and friends to their
    /// linear fallbacks — silent until someone looks at
    /// [`Trace::index_downgrades`]).
    fn note_order(&mut self, time: SimTime, site: SiteId) {
        if time < self.last_time {
            self.unordered = true;
            self.downgrades += 1;
            if self.downgrade_log.len() < DOWNGRADE_LOG_CAP {
                self.downgrade_log.push((time, self.last_time, site));
            }
        } else {
            self.last_time = time;
        }
    }

    /// How many pushes went backwards in time (each one kept the trace
    /// on the linear-scan fallback path). Always 0 for simulation
    /// traces; nonzero signals either a deliberately out-of-order test
    /// trace or a perf regression worth surfacing.
    #[must_use]
    pub fn index_downgrades(&self) -> u64 {
        self.downgrades
    }

    /// Details of the first few downgrading pushes:
    /// `(push time, preceding last_time, site of the offending push)`.
    #[must_use]
    pub fn downgrade_log(&self) -> &[(SimTime, SimTime, SiteId)] {
        &self.downgrade_log
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

    /// `true` while every push has been in nondecreasing time order.
    #[must_use]
    pub fn is_time_ordered(&self) -> bool {
        !self.unordered
    }

    /// Events matching `template`, with the matching interpretation for
    /// each. Only events of the template's descriptor kind are visited.
    pub fn matching<'a>(
        &'a self,
        template: &'a TemplateDesc,
    ) -> impl Iterator<Item = (&'a Event, Bindings)> + 'a {
        let idxs: &[u32] = template_kind(template)
            .and_then(|k| self.by_kind.get(&k))
            .map_or(&[][..], |v| v.as_slice());
        idxs.iter().filter_map(move |&i| {
            let e = &self.events[i as usize];
            let mut b = Bindings::new();
            template.match_desc(&e.desc, &mut b).then_some((e, b))
        })
    }

    /// The value of `item` at time `t` — i.e. the interpretation the
    /// appendix would assign at `t`, restricted to `item`. Writes take
    /// effect *at* their event time (the `new` interpretation holds from
    /// the instant of the event onward; when several events share an
    /// instant, the last one wins, consistent with the trace order).
    /// Returns `None` when the item is underspecified at `t`.
    ///
    /// Binary search over the item's write index on time-ordered traces;
    /// the original linear scan (which stops at the first event past `t`)
    /// on traces that violate time order, preserving its semantics.
    #[must_use]
    pub fn value_at(&self, item: &ItemId, t: SimTime) -> Option<Value> {
        if self.unordered {
            return self.value_at_linear(item, t);
        }
        if let Some(idxs) = self.writes.get(item) {
            // Within one item the write times are nondecreasing and in
            // push order, so the last write with `time <= t` is both the
            // binary-search answer and the same-instant winner.
            let n = idxs.partition_point(|&i| self.events[i as usize].time <= t);
            if n > 0 {
                let e = &self.events[idxs[n - 1] as usize];
                return e.desc.write_effect().map(|(_, v)| v.clone());
            }
        }
        self.initial.get(item).cloned()
    }

    /// The pre-index `value_at`: scan events in order, stopping at the
    /// first event later than `t`. On an out-of-order trace this is the
    /// defined semantics (later-pushed earlier-timed writes are not
    /// seen), so it stays the fallback.
    fn value_at_linear(&self, item: &ItemId, t: SimTime) -> Option<Value> {
        let mut current = self.initial.get(item).cloned();
        for e in &self.events {
            if e.time > t {
                break;
            }
            if let Some((i, v)) = e.desc.write_effect() {
                if i == item {
                    current = Some(v.clone());
                }
            }
        }
        current
    }

    /// The full timeline of `item`: `(time, value)` change points, one
    /// per write, preceded by the initial value at `SimTime::ZERO` when
    /// specified. Consecutive equal values are retained (a rewrite of
    /// the same value is still a write event). Built from the per-item
    /// write index (push order = occurrence order), not a full scan.
    #[must_use]
    pub fn timeline(&self, item: &ItemId) -> Timeline {
        let mut steps = Vec::new();
        if let Some(v) = self.initial.get(item) {
            steps.push((SimTime::ZERO, v.clone()));
        }
        if let Some(idxs) = self.writes.get(item) {
            steps.reserve(idxs.len());
            for &i in idxs {
                let e = &self.events[i as usize];
                if let Some((_, v)) = e.desc.write_effect() {
                    steps.push((e.time, v.clone()));
                }
            }
        }
        let sorted = steps.windows(2).all(|w| w[0].0 <= w[1].0);
        Timeline { steps, sorted }
    }

    /// Every item mentioned by any event or by the initial
    /// interpretation, deduplicated, in deterministic (sorted) order.
    /// Iterates the cached item set — no per-call cloning.
    pub fn items(&self) -> impl Iterator<Item = &ItemId> + '_ {
        self.item_set.iter()
    }

    /// The *salient instants* of the trace: every event time. Item
    /// values are constant between consecutive salient instants, so
    /// quantification over continuous time reduces to these points plus
    /// one representative inside each open interval (`hcm-checker`
    /// builds on this).
    #[must_use]
    pub fn salient_times(&self) -> Vec<SimTime> {
        if self.unordered {
            let mut ts: Vec<SimTime> = self.events.iter().map(|e| e.time).collect();
            ts.push(SimTime::ZERO);
            ts.sort();
            ts.dedup();
            return ts;
        }
        // Already nondecreasing: dedup on the fly, no sort.
        let mut ts = Vec::with_capacity(self.events.len() + 1);
        ts.push(SimTime::ZERO);
        for e in &self.events {
            if *ts.last().expect("nonempty") != e.time {
                ts.push(e.time);
            }
        }
        ts
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
    /// Change points are in nondecreasing time order (always true for
    /// time-ordered traces); enables binary search in [`Timeline::at`].
    sorted: bool,
}

impl Timeline {
    /// The change points `(time, value)` in time order.
    #[must_use]
    pub fn steps(&self) -> &[(SimTime, Value)] {
        &self.steps
    }

    /// Value at time `t` (last change point at or before `t`). Binary
    /// search when the steps are time-ordered; the original prefix scan
    /// otherwise.
    #[must_use]
    pub fn at(&self, t: SimTime) -> Option<&Value> {
        if self.sorted {
            let n = self.steps.partition_point(|(time, _)| *time <= t);
            return n.checked_sub(1).map(|i| &self.steps[i].1);
        }
        self.steps
            .iter()
            .take_while(|(time, _)| *time <= t)
            .last()
            .map(|(_, v)| v)
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
    use crate::template::Term;
    use crate::ItemPattern;

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
    fn matching_scans() {
        let mut tr = Trace::new();
        write(&mut tr, 1, 5, None);
        tr.push(
            SimTime::from_secs(2),
            SiteId::new(1),
            EventDesc::N {
                item: x(),
                value: Value::Int(5),
            },
            None,
            Some(RuleId(0)),
            Some(EventId(0)),
        );
        let tmpl = TemplateDesc::N {
            item: ItemPattern::plain("X"),
            value: Term::var("b"),
        };
        let hits: Vec<_> = tr.matching(&tmpl).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1.get("b"), Some(&Value::Int(5)));
        // The false template visits (and matches) nothing.
        assert_eq!(tr.matching(&TemplateDesc::False).count(), 0);
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
    fn out_of_order_trace_keeps_linear_semantics() {
        // An out-of-order trace (appendix property 1 violation) must
        // behave exactly like the original linear scan: the scan stops
        // at the first event later than `t`, so a later-pushed,
        // earlier-timed write is invisible once a later time has been
        // passed.
        let mut tr = Trace::new();
        write(&mut tr, 20, 2, None);
        write(&mut tr, 10, 1, None); // goes backwards
        assert!(!tr.is_time_ordered());
        // At t=15 the scan sees the t=20 event first and stops: None
        // from writes, initial unspecified.
        assert_eq!(tr.value_at(&x(), SimTime::from_secs(15)), None);
        // At t=30 the scan passes both: last write in push order wins.
        assert_eq!(
            tr.value_at(&x(), SimTime::from_secs(30)),
            Some(Value::Int(1))
        );
        // salient_times still sorted + deduped.
        assert_eq!(
            tr.salient_times(),
            vec![
                SimTime::ZERO,
                SimTime::from_secs(10),
                SimTime::from_secs(20)
            ]
        );
    }

    #[test]
    fn ordered_and_linear_value_at_agree() {
        let mut tr = Trace::new();
        tr.set_initial(x(), Value::Int(0));
        for (i, t) in [3u64, 5, 5, 8, 13].iter().enumerate() {
            write(&mut tr, *t, i as i64, None);
        }
        assert!(tr.is_time_ordered());
        for t in 0..15u64 {
            assert_eq!(
                tr.value_at(&x(), SimTime::from_secs(t)),
                tr.value_at_linear(&x(), SimTime::from_secs(t)),
                "divergence at t={t}"
            );
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
        let items: Vec<ItemId> = tr.items().cloned().collect();
        assert_eq!(items, vec![x(), ItemId::plain("Y")]);
        assert_eq!(tr.tag_counts().get("Ws"), Some(&2));
        assert_eq!(tr.end_time(), SimTime::from_secs(2));
    }
}
