//! Causal spans for rule firings, and the provenance walker.
//!
//! A [`Span`] covers one stage of a rule-firing lifecycle: the
//! triggering event arriving at a CM-Shell, its condition evaluation,
//! each sequenced RHS step, the CMI request or `RemoteFire` it emits,
//! and completion. Parent links tie the stages to the firing's root
//! span, mirroring the provenance the six-tuple already carries in its
//! `rule`/`trigger` fields.
//!
//! [`causal_chain`] is the read side: starting from any recorded
//! event, walk the `trigger` links back to a *spontaneous* root (an
//! event with neither `rule` nor `trigger` — an application write or
//! a periodic tick). The checker's rule-causality property (Appendix
//! property 5) verifies each link is a legitimate rule consequence;
//! the walker reconstructs the chain those links form, and the two are
//! differentially tested against each other.

use hcm_core::{EventId, RuleId, SimTime, SiteId, Trace};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// Identifier of a span within one [`SpanLog`]: its log index in
/// creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Sentinel returned by [`Spans::start`] while recording is
    /// disabled. [`SpanLog::end`] and [`SpanLog::annotate`] on it are
    /// no-ops, so callers can hold it without checking.
    pub const DISABLED: SpanId = SpanId(u64::MAX);
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Which lifecycle stage a span covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole rule firing at a shell: trigger matched → RHS done.
    Firing,
    /// Condition evaluation of a firing (suppressed or passed).
    CondEval,
    /// One sequenced RHS step (zero-based index).
    RhsStep(usize),
    /// A CMI request to a translator, from send to response.
    Request,
    /// Shipping a matched rule to the RHS site for execution.
    RemoteFire,
    /// A heartbeat probe of an idle translator.
    Heartbeat,
    /// Anything else (protocol agents, experiments).
    Other(String),
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanKind::Firing => write!(f, "firing"),
            SpanKind::CondEval => write!(f, "cond"),
            SpanKind::RhsStep(i) => write!(f, "rhs[{i}]"),
            SpanKind::Request => write!(f, "request"),
            SpanKind::RemoteFire => write!(f, "remote-fire"),
            SpanKind::Heartbeat => write!(f, "heartbeat"),
            SpanKind::Other(s) => write!(f, "{s}"),
        }
    }
}

/// One recorded lifecycle stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Enclosing span, if any (RHS steps point at their firing).
    pub parent: Option<SpanId>,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// Site the stage ran at.
    pub site: SiteId,
    /// Strategy/interface rule involved, if any.
    pub rule: Option<RuleId>,
    /// The six-tuple trigger event the stage descends from, if any.
    pub trigger: Option<EventId>,
    /// When the stage began.
    pub start: SimTime,
    /// When it finished (`None` while open / for never-closed spans).
    pub end: Option<SimTime>,
    /// Free-form annotation ("suppressed", item written, …).
    pub note: String,
}

/// Append-only log of spans, in creation order (creation order is
/// simulation order, hence deterministic per seed).
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Open a span; returns its id (the span's log index).
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        &mut self,
        kind: SpanKind,
        parent: Option<SpanId>,
        site: SiteId,
        rule: Option<RuleId>,
        trigger: Option<EventId>,
        start: SimTime,
        note: impl Into<String>,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u64);
        self.spans.push(Span {
            id,
            parent,
            kind,
            site,
            rule,
            trigger,
            start,
            end: None,
            note: note.into(),
        });
        id
    }

    fn index_of(id: SpanId) -> usize {
        usize::try_from(id.0).unwrap_or(usize::MAX)
    }

    /// Close a span (idempotent; closing an unknown id is a no-op so
    /// callers need not track lifecycle corner cases).
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        if let Some(s) = self.spans.get_mut(Self::index_of(id)) {
            s.end.get_or_insert(at);
        }
    }

    /// Append to a span's note.
    pub fn annotate(&mut self, id: SpanId, note: &str) {
        if let Some(s) = self.spans.get_mut(Self::index_of(id)) {
            if !s.note.is_empty() {
                s.note.push_str("; ");
            }
            s.note.push_str(note);
        }
    }

    /// Look a span up.
    #[must_use]
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.spans.get(Self::index_of(id))
    }

    /// All spans in creation order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Direct children of a span.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }
}

/// Cheaply clonable handle to a shared [`SpanLog`].
///
/// Recording can be switched off ([`Spans::set_enabled`]) for
/// throughput-critical runs: `start` then returns
/// [`SpanId::DISABLED`] without touching the log, and `end`/`annotate`
/// on that sentinel are no-ops. The default is enabled — observability
/// snapshots stay byte-identical unless a scenario opts out.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    log: Rc<RefCell<SpanLog>>,
    disabled: Rc<Cell<bool>>,
}

impl Spans {
    /// A fresh, empty log (recording enabled).
    #[must_use]
    pub fn new() -> Self {
        Spans::default()
    }

    /// Turn span recording on or off (shared across all clones).
    pub fn set_enabled(&self, enabled: bool) {
        self.disabled.set(!enabled);
    }

    /// Whether spans are currently being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        !self.disabled.get()
    }

    /// Open a span.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        &self,
        kind: SpanKind,
        parent: Option<SpanId>,
        site: SiteId,
        rule: Option<RuleId>,
        trigger: Option<EventId>,
        start: SimTime,
        note: impl Into<String>,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId::DISABLED;
        }
        self.log
            .borrow_mut()
            .start(kind, parent, site, rule, trigger, start, note)
    }

    /// Open a span with a lazily built note: the closure runs only
    /// when recording is enabled, so hot paths don't pay for `format!`
    /// labels nobody will read.
    #[allow(clippy::too_many_arguments)]
    pub fn start_with(
        &self,
        kind: SpanKind,
        parent: Option<SpanId>,
        site: SiteId,
        rule: Option<RuleId>,
        trigger: Option<EventId>,
        start: SimTime,
        note: impl FnOnce() -> String,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId::DISABLED;
        }
        self.start(kind, parent, site, rule, trigger, start, note())
    }

    /// Close a span.
    pub fn end(&self, id: SpanId, at: SimTime) {
        if id == SpanId::DISABLED {
            return;
        }
        self.log.borrow_mut().end(id, at);
    }

    /// Append to a span's note.
    pub fn annotate(&self, id: SpanId, note: &str) {
        if id == SpanId::DISABLED {
            return;
        }
        self.log.borrow_mut().annotate(id, note);
    }

    /// Read-only access to the log.
    pub fn with<R>(&self, f: impl FnOnce(&SpanLog) -> R) -> R {
        f(&self.log.borrow())
    }
}

/// The provenance chain of one event: the event itself first, then its
/// trigger, its trigger's trigger, …, ending at the chain's last
/// reachable ancestor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalChain {
    /// Event ids from the queried event back to the last ancestor.
    pub ids: Vec<EventId>,
    /// Whether the last ancestor is a spontaneous event (no `rule`, no
    /// `trigger`) — a well-formed chain per Appendix property 5.
    pub rooted: bool,
    /// Why the walk stopped short, when it did.
    pub broken: Option<String>,
}

impl CausalChain {
    /// Chain length in events (≥ 1 for a recorded event).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the chain is empty (unknown starting event).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The spontaneous root, when the chain is rooted.
    #[must_use]
    pub fn root(&self) -> Option<EventId> {
        if self.rooted {
            self.ids.last().copied()
        } else {
            None
        }
    }
}

/// Walk an event's `trigger` links back to its spontaneous root.
///
/// The walk also re-checks the structural half of the rule-causality
/// property along the way: every trigger must exist in the trace and
/// must not be later than its consequence. A dangling trigger, an
/// out-of-order link, a cycle, or a non-spontaneous chain head leaves
/// `rooted == false` with the reason in `broken`.
#[must_use]
pub fn causal_chain(trace: &Trace, id: EventId) -> CausalChain {
    let mut ids = Vec::new();
    let mut broken = None;
    let mut cur = match trace.get(id) {
        Some(e) => e,
        None => {
            return CausalChain {
                ids,
                rooted: false,
                broken: Some(format!("unknown event {id}")),
            }
        }
    };
    ids.push(cur.id);
    // The trace is finite and triggers must strictly precede (same
    // time allowed), so a chain longer than the trace is a cycle.
    let cap = trace.len() + 1;
    while let Some(tid) = cur.trigger {
        if ids.len() >= cap {
            broken = Some("trigger cycle".to_string());
            break;
        }
        match trace.get(tid) {
            None => {
                broken = Some(format!("dangling trigger {tid}"));
                break;
            }
            Some(t) => {
                if t.time > cur.time {
                    broken = Some(format!(
                        "trigger {tid} at {} is later than its consequence at {}",
                        t.time, cur.time
                    ));
                    break;
                }
                ids.push(t.id);
                cur = t;
            }
        }
    }
    let rooted = broken.is_none() && cur.is_spontaneous();
    if !rooted && broken.is_none() {
        broken = Some(format!("chain head {} is not spontaneous", cur.id));
    }
    CausalChain {
        ids,
        rooted,
        broken,
    }
}

/// Render a chain for humans: one line per event, consequence first,
/// spontaneous root last.
#[must_use]
pub fn render_chain(trace: &Trace, chain: &CausalChain) -> String {
    let mut out = String::new();
    for (i, id) in chain.ids.iter().enumerate() {
        let prefix = if i == 0 { "  " } else { "  ⇐ caused by " };
        match trace.get(*id) {
            Some(e) => {
                out.push_str(prefix);
                out.push_str(&e.to_string());
                if i + 1 == chain.ids.len() && chain.rooted {
                    out.push_str("   [spontaneous root]");
                }
            }
            None => {
                out.push_str(prefix);
                out.push_str(&format!("{id} (missing)"));
            }
        }
        out.push('\n');
    }
    if let Some(b) = &chain.broken {
        out.push_str(&format!("  ✗ chain broken: {b}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_core::{EventDesc, ItemId, Value};

    fn ws(item: &str, v: i64) -> EventDesc {
        EventDesc::Ws {
            item: ItemId::plain(item),
            old: None,
            new: Value::Int(v),
        }
    }

    #[test]
    fn span_lifecycle_and_children() {
        let spans = Spans::new();
        let root = spans.start(
            SpanKind::Firing,
            None,
            SiteId::new(0),
            Some(RuleId(1)),
            Some(EventId(0)),
            SimTime::from_millis(10),
            "",
        );
        let step = spans.start(
            SpanKind::RhsStep(0),
            Some(root),
            SiteId::new(0),
            Some(RuleId(1)),
            Some(EventId(0)),
            SimTime::from_millis(10),
            "",
        );
        spans.end(step, SimTime::from_millis(12));
        spans.end(root, SimTime::from_millis(15));
        spans.with(|log| {
            assert_eq!(log.spans().len(), 2);
            assert_eq!(log.get(root).unwrap().end, Some(SimTime::from_millis(15)));
            let kids: Vec<_> = log.children(root).collect();
            assert_eq!(kids.len(), 1);
            assert_eq!(kids[0].kind, SpanKind::RhsStep(0));
        });
    }

    #[test]
    fn disabled_spans_record_nothing_and_reenable() {
        let spans = Spans::new();
        spans.set_enabled(false);
        assert!(!spans.enabled());
        let mut built = false;
        let id = spans.start_with(
            SpanKind::Firing,
            None,
            SiteId::new(0),
            None,
            None,
            SimTime::ZERO,
            || {
                built = true;
                "expensive".to_string()
            },
        );
        assert_eq!(id, SpanId::DISABLED);
        assert!(!built, "note closure must not run while disabled");
        spans.end(id, SimTime::from_millis(1));
        spans.annotate(id, "late");
        spans.with(|log| assert!(log.spans().is_empty()));
        spans.set_enabled(true);
        let id = spans.start(
            SpanKind::Firing,
            None,
            SiteId::new(0),
            None,
            None,
            SimTime::ZERO,
            "",
        );
        assert_ne!(id, SpanId::DISABLED);
        spans.with(|log| assert_eq!(log.spans().len(), 1));
    }

    #[test]
    fn chain_walks_to_spontaneous_root() {
        let mut tr = Trace::new();
        let root = tr.push(
            SimTime::from_millis(1),
            SiteId::new(0),
            ws("X", 1),
            None,
            None,
            None,
        );
        let mid = tr.push(
            SimTime::from_millis(5),
            SiteId::new(0),
            EventDesc::N {
                item: ItemId::plain("X"),
                value: Value::Int(1),
            },
            None,
            Some(RuleId(0)),
            Some(root),
        );
        let leaf = tr.push(
            SimTime::from_millis(9),
            SiteId::new(1),
            EventDesc::W {
                item: ItemId::plain("Y"),
                value: Value::Int(1),
            },
            None,
            Some(RuleId(1)),
            Some(mid),
        );
        let chain = causal_chain(&tr, leaf);
        assert!(chain.rooted, "{:?}", chain.broken);
        assert_eq!(chain.ids, vec![leaf, mid, root]);
        assert_eq!(chain.root(), Some(root));
        let rendered = render_chain(&tr, &chain);
        assert!(rendered.contains("spontaneous root"), "{rendered}");
    }

    #[test]
    fn non_spontaneous_head_is_flagged() {
        let mut tr = Trace::new();
        // An event claiming a rule but no trigger: not spontaneous, and
        // nothing to walk to.
        let odd = tr.push(
            SimTime::from_millis(1),
            SiteId::new(0),
            ws("X", 1),
            None,
            Some(RuleId(3)),
            None,
        );
        let chain = causal_chain(&tr, odd);
        assert!(!chain.rooted);
        assert!(chain.broken.unwrap().contains("not spontaneous"));
    }

    #[test]
    fn dangling_trigger_is_flagged() {
        let mut tr = Trace::new();
        let e = tr.push(
            SimTime::from_millis(4),
            SiteId::new(0),
            ws("X", 2),
            None,
            Some(RuleId(0)),
            Some(EventId(999)),
        );
        let chain = causal_chain(&tr, e);
        assert!(!chain.rooted);
        assert!(chain.broken.unwrap().contains("dangling"));
    }
}
