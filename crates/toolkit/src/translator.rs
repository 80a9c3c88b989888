//! The CM-Translator actor.
//!
//! "To factor this complexity away from the CM-Shells, we provide a
//! CM-Translator (for each RIS) that presents to the CM-Shells the
//! local capabilities in a standard fashion" (§4.1). At run time the
//! translator
//!
//! * applies spontaneous application operations to its store and
//!   records the resulting `Ws` events;
//! * implements the offered **notify** interfaces from the store's
//!   native change feed, the **periodic-notify** interfaces by armed
//!   timers + native reads, the **write** and **read** interfaces by
//!   servicing CMI requests within their `→δ` bounds;
//! * forwards database-side events that strategy rules watch (the
//!   interest patterns computed at initialization);
//! * matches every event and item against its interface statements
//!   and interest patterns, compiled into one [`SlotRules`], with one
//!   [`Matcher`] per handler;
//! * exhibits *metric failures* when its service delay is inflated
//!   (overload injection) and *logical failures* when its actor
//!   crashes — the two §5 classes.

use crate::backend::{Change, RisBackend};
use crate::durability::{LogRecord, PendingWrite, Restart, StatePolicy};
use crate::msg::{CmMsg, RequestKind, SpontaneousOp, TranslatorEvent};
use crate::rid::{classify, CmRid, IfaceClass};
use crate::shell::const_period;
use hcm_core::{
    EventDesc, EventId, ItemId, RuleId, RuleIndex, SimDuration, SimTime, SiteId, TemplateDesc,
    TraceRecorder, Value,
};
use hcm_obs::{Metrics, Scope};
use hcm_rulelang::slots::{Matcher, RuleCompiler, SlotRules};
use hcm_rulelang::{Cond, InterfaceStmt};
use hcm_simkit::{Actor, ActorId, Ctx};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Delay for forwarding an observed event to the co-located shell.
const FORWARD_DELAY: SimDuration = SimDuration::from_millis(1);

struct IfaceRule {
    stmt: InterfaceStmt,
    class: IfaceClass,
    id: RuleId,
}

/// The translator actor. See module docs.
pub struct TranslatorActor {
    site: SiteId,
    shell: ActorId,
    backend: Box<dyn RisBackend>,
    interfaces: Vec<IfaceRule>,
    /// The interface statements compiled to slots, at the same
    /// positions, then the interest patterns: how events and items are
    /// matched and notifications instantiated.
    slots: SlotRules,
    /// The interest patterns' positions in `slots`, by kind and base.
    interest: RuleIndex,
    /// `(statement index, period)` of every periodic-notify interface
    /// with a constant period: the ones armed at start and after a
    /// restart from configuration.
    periodic: Vec<(u64, SimDuration)>,
    service: SimDuration,
    extra: SimDuration,
    stop_periodics_at: SimTime,
    recorder: TraceRecorder,
    metrics: Metrics,
    /// `Scope::Site` of this translator's site, under which every
    /// `translator.*` metric is written.
    scope: Scope,
    /// How this translator's state relates to crashes (see
    /// [`crate::durability`]). Default keeps historical behaviour.
    policy: StatePolicy,
    /// Writes accepted (scheduled against the backend) but not yet
    /// performed — the §5 obligations a durable translator must not
    /// lose across a crash.
    pending: BTreeMap<u64, PendingWrite>,
    /// Armed periodic-notify interfaces: statement index → period.
    armed: BTreeMap<u64, SimDuration>,
}

impl TranslatorActor {
    /// Build a translator. `iface_ids` are the rule ids assigned to the
    /// CM-RID's interface statements (same order) in the scenario's
    /// shared rule registry; `translator.*` metrics go to `metrics`
    /// under `Scope::Site(site)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        site: SiteId,
        shell: ActorId,
        backend: Box<dyn RisBackend>,
        rid: &CmRid,
        iface_ids: Vec<RuleId>,
        interest: Vec<TemplateDesc>,
        stop_periodics_at: SimTime,
        recorder: TraceRecorder,
        metrics: Metrics,
    ) -> Self {
        assert_eq!(rid.interfaces.len(), iface_ids.len());
        let interfaces: Vec<IfaceRule> = rid
            .interfaces
            .iter()
            .cloned()
            .zip(iface_ids)
            .map(|(stmt, id)| {
                let class = classify(&stmt).expect("validated by CmRid::parse");
                IfaceRule { stmt, class, id }
            })
            .collect();
        let periodic = interfaces
            .iter()
            .enumerate()
            .filter(|(_, iface)| iface.class == IfaceClass::PeriodicNotify)
            .filter_map(|(idx, iface)| Some((idx as u64, const_period(&iface.stmt.lhs)?)))
            .collect();
        let mut compiler = RuleCompiler::with_capacity(interfaces.len() + interest.len());
        for iface in &interfaces {
            compiler.interface(&iface.stmt);
        }
        let watched = interest
            .iter()
            .map(|t| (compiler.rule(t, &Cond::True, &[]), t));
        let interest = RuleIndex::build(watched);
        let slots = compiler.finish();
        TranslatorActor {
            site,
            shell,
            backend,
            interfaces,
            slots,
            interest,
            periodic,
            service: rid.service,
            extra: SimDuration::ZERO,
            stop_periodics_at,
            recorder,
            metrics,
            scope: Scope::Site(site.index()),
            policy: StatePolicy::default(),
            pending: BTreeMap::new(),
            armed: BTreeMap::new(),
        }
    }

    /// Set how this translator's state relates to crashes. Under
    /// [`crate::Durability::Durable`], accepted writes and armed
    /// periodic interfaces are write-ahead-logged and recovered after a
    /// crash.
    pub(crate) fn set_state_policy(&mut self, policy: StatePolicy) {
        self.policy = policy;
    }

    /// Capture initial values of all tracked items into the trace and
    /// arm periodic-notify timers.
    fn initialize(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        // Each interface's item template (a periodic-notify interface's
        // is its `N` step) beside every item of that template's base.
        let tracked: Vec<_> = (self.interfaces.iter().enumerate())
            .filter_map(|(k, iface)| {
                let rule = self.slots.rule(k);
                let (template, desc) = match iface.class {
                    IfaceClass::Prohibition => return None,
                    IfaceClass::PeriodicNotify => {
                        (&self.slots.steps(rule)[0].event, &iface.stmt.rhs)
                    }
                    _ => (&rule.lhs, &iface.stmt.lhs),
                };
                Some((template, self.backend.enumerate(desc.item_pattern()?.base)))
            })
            .collect();
        let mut m = Matcher::new(&self.slots);
        let mut seen = std::collections::BTreeSet::new();
        for (template, items) in &tracked {
            for item in items {
                m.undo(0);
                if m.matches_item(template, item) && seen.insert(item) {
                    if let Ok(v) = self.backend.read(item) {
                        self.recorder.set_initial(item.clone(), v);
                    }
                }
            }
        }
        for i in 0..self.periodic.len() {
            let (idx, period) = self.periodic[i];
            self.armed.insert(idx, period);
            self.policy.log(&LogRecord::PollArmed { idx, period });
            ctx.schedule_self(period, CmMsg::PollTick { idx: idx as usize });
        }
    }

    fn delay(&self) -> SimDuration {
        self.service + self.extra
    }

    fn record(
        &self,
        now: SimTime,
        desc: EventDesc,
        old: Option<Value>,
        rule: Option<RuleId>,
        trigger: Option<EventId>,
    ) -> EventId {
        self.recorder
            .record(now, self.site, desc, old, rule, trigger)
    }

    /// Send the shell `N(item, value)` after the service delay: a
    /// notification that interface `rule` promised, generated by
    /// `trigger`.
    fn notify(
        &self,
        item: ItemId,
        value: Value,
        rule: RuleId,
        trigger: EventId,
        ctx: &mut Ctx<'_, CmMsg>,
    ) {
        self.metrics.inc(self.scope, "translator.notifications");
        self.metrics
            .observe(self.scope, "translator.service_delay", self.delay());
        let notify = TranslatorEvent::Notify {
            item,
            value,
            rule,
            trigger,
        };
        ctx.send_local(self.shell, CmMsg::Cmi(notify), self.delay());
    }

    /// Forward an event to the shell when an interest pattern matches
    /// it. The index narrows the patterns to those of the event's kind
    /// and base; each left is matched in the handler's matcher `m`.
    fn forward_if_interesting<'a>(
        &'a self,
        m: &mut Matcher<'a, 'a>,
        id: EventId,
        desc: &'a EventDesc,
        ctx: &mut Ctx<'_, CmMsg>,
    ) {
        let mut candidates = self.interest.candidates(desc);
        if candidates.any(|k| {
            m.undo(0);
            m.matches(&self.slots.rule(k).lhs, desc)
        }) {
            ctx.send_local(
                self.shell,
                CmMsg::Cmi(TranslatorEvent::Observed {
                    id,
                    desc: desc.clone(),
                }),
                FORWARD_DELAY,
            );
        }
    }

    fn handle_spontaneous(&mut self, op: &SpontaneousOp, ctx: &mut Ctx<'_, CmMsg>) {
        let now = ctx.now();
        let changes = match self.backend.apply_spontaneous(op, now) {
            Ok(c) => c,
            Err(_) => {
                self.metrics
                    .inc(self.scope, "translator.spontaneous_errors");
                return;
            }
        };
        for Change { item, old, new } in changes {
            let desc = EventDesc::Ws {
                item,
                old: old.clone(),
                new,
            };
            let ws_id = self.record(now, desc.clone(), old, None, None);
            let mut m = Matcher::new(&self.slots);
            self.forward_if_interesting(&mut m, ws_id, &desc, ctx);

            // Prohibition interfaces: the database promised this never
            // happens. Record the breach for the checker and count it.
            for (k, iface) in self.interfaces.iter().enumerate() {
                m.undo(0);
                if iface.class == IfaceClass::Prohibition
                    && m.matches(&self.slots.rule(k).lhs, &desc)
                {
                    self.metrics
                        .inc(self.scope, "translator.prohibition_violations");
                }
            }

            // Notify interfaces driven by the native change feed. A
            // store without one reported this change only as trace
            // ground truth — the translator could never have observed
            // it, so no notifications may be derived from it.
            if !self.backend.has_change_feed() {
                continue;
            }
            let backend = &self.backend;
            let read = |item: &ItemId| backend.read(item).ok().map(Cow::Owned);
            for (k, iface) in self.interfaces.iter().enumerate() {
                if iface.class != IfaceClass::Notify {
                    continue;
                }
                let rule = self.slots.rule(k);
                m.undo(0);
                if !m.matches(&rule.lhs, &desc) {
                    continue;
                }
                if !m.holds_binding(rule, read) {
                    self.metrics.inc(self.scope, "translator.suppressed");
                    continue;
                }
                let step = &self.slots.steps(rule)[0];
                if let Some(EventDesc::N { item, value }) = self.slots.instantiate(&step.event, &m)
                {
                    self.notify(item, value, iface.id, ws_id, ctx);
                }
            }
        }
    }

    /// The rule id of the first interface of `class` whose LHS item
    /// pattern matches `item`, matched in the handler's matcher `m`.
    fn find_iface<'a>(
        &'a self,
        m: &mut Matcher<'a, 'a>,
        class: IfaceClass,
        item: &'a ItemId,
    ) -> Option<RuleId> {
        let mut ifaces = self.interfaces.iter().enumerate();
        ifaces
            .find(|(k, iface)| {
                m.undo(0);
                iface.class == class && m.matches_item(&self.slots.rule(*k).lhs, item)
            })
            .map(|(_, iface)| iface.id)
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_request(
        &mut self,
        req_id: u64,
        reply_to: ActorId,
        rule: Option<RuleId>,
        trigger: Option<EventId>,
        kind: &RequestKind,
        ctx: &mut Ctx<'_, CmMsg>,
    ) {
        let now = ctx.now();
        self.metrics
            .observe(self.scope, "translator.service_delay", self.delay());
        match kind {
            RequestKind::Write(item, value) => {
                let desc = EventDesc::Wr {
                    item: item.clone(),
                    value: value.clone(),
                };
                let wr_id = self.record(now, desc.clone(), None, rule, trigger);
                let mut m = Matcher::new(&self.slots);
                self.forward_if_interesting(&mut m, wr_id, &desc, ctx);
                let Some(iface_rule) = self.find_iface(&mut m, IfaceClass::Write, item) else {
                    // No write interface offered: refuse immediately.
                    self.metrics.inc(self.scope, "translator.writes_rejected");
                    ctx.send_local(
                        reply_to,
                        CmMsg::Cmi(TranslatorEvent::WriteDone { req_id, ok: false }),
                        FORWARD_DELAY,
                    );
                    return;
                };
                // Perform after the database's service delay — within
                // the interface bound in normal operation, beyond it
                // under overload (metric failure).
                let pw = PendingWrite {
                    req_id,
                    reply_to,
                    item: item.clone(),
                    value: value.clone(),
                    rule: iface_rule,
                    trigger: wr_id,
                };
                ctx.schedule_self(self.delay(), CmMsg::PerformWrite(pw.clone()));
                // The write is now an accepted obligation: a durable
                // translator remembers it until performed, so a crash
                // in the acceptance-to-perform window delays it
                // instead of losing it (§5's metric demotion).
                self.pending.insert(req_id, pw.clone());
                self.policy.log(&LogRecord::WriteAccepted(pw));
            }
            RequestKind::Enumerate(base) => {
                // A meta-operation of the CMI: not part of the event
                // vocabulary, so nothing is recorded in the trace.
                let items = self.backend.enumerate(*base);
                ctx.send_local(
                    reply_to,
                    CmMsg::Cmi(TranslatorEvent::EnumResult { req_id, items }),
                    self.delay(),
                );
            }
            RequestKind::Read(item) => {
                let desc = EventDesc::Rr { item: item.clone() };
                let rr_id = self.record(now, desc.clone(), None, rule, trigger);
                let mut m = Matcher::new(&self.slots);
                self.forward_if_interesting(&mut m, rr_id, &desc, ctx);
                let Some(iface_rule) = self.find_iface(&mut m, IfaceClass::Read, item) else {
                    return; // no read interface: request goes unanswered
                };
                let value = self.backend.read(item).unwrap_or(Value::Null);
                self.metrics.inc(self.scope, "translator.reads_served");
                ctx.send_local(
                    reply_to,
                    CmMsg::Cmi(TranslatorEvent::ReadResult {
                        req_id,
                        item: item.clone(),
                        value,
                        rule: iface_rule,
                        trigger: rr_id,
                    }),
                    self.delay(),
                );
            }
        }
    }

    fn handle_perform_write(&mut self, pw: PendingWrite, ctx: &mut Ctx<'_, CmMsg>) {
        let PendingWrite {
            req_id,
            reply_to,
            item,
            value,
            rule,
            trigger,
        } = pw;
        let now = ctx.now();
        // Performed or definitively rejected — either way the
        // obligation is discharged.
        if self.pending.remove(&req_id).is_some() {
            self.policy.log(&LogRecord::WritePerformed { req_id });
        }
        match self.backend.write(&item, &value, now) {
            Ok(old) => {
                let desc = EventDesc::W { item, value };
                let w_id = self.record(now, desc.clone(), old, Some(rule), Some(trigger));
                self.forward_if_interesting(&mut Matcher::new(&self.slots), w_id, &desc, ctx);
                self.metrics.inc(self.scope, "translator.writes_done");
                ctx.send_local(
                    reply_to,
                    CmMsg::Cmi(TranslatorEvent::WriteDone { req_id, ok: true }),
                    FORWARD_DELAY,
                );
            }
            Err(_) => {
                self.metrics.inc(self.scope, "translator.writes_rejected");
                self.record(
                    now,
                    EventDesc::Custom {
                        name: "WriteRejected".into(),
                        args: vec![Value::Str(item.to_string()), value],
                    },
                    None,
                    Some(rule),
                    Some(trigger),
                );
                ctx.send_local(
                    reply_to,
                    CmMsg::Cmi(TranslatorEvent::WriteDone { req_id, ok: false }),
                    FORWARD_DELAY,
                );
            }
        }
    }

    fn handle_poll_tick(&mut self, idx: usize, ctx: &mut Ctx<'_, CmMsg>) {
        let now = ctx.now();
        let Some(iface) = self.interfaces.get(idx) else {
            return;
        };
        let Some(period) = const_period(&iface.stmt.lhs) else {
            return;
        };
        let p_desc = EventDesc::P { period };
        let p_id = self.record(now, p_desc.clone(), None, None, None);
        // Instantiate the N template for every currently existing item of
        // its base: each item and its value must match it, and the
        // condition must hold under the resulting interpretation.
        if let TemplateDesc::N { item: pattern, .. } = &iface.stmt.rhs {
            let rule = self.slots.rule(idx);
            let step = &self.slots.steps(rule)[0];
            let backend = &self.backend;
            let read = |i: &ItemId| backend.read(i).ok().map(Cow::Owned);
            let mut ns = Vec::new();
            for item in backend.enumerate(pattern.base) {
                if let Ok(value) = backend.read(&item) {
                    ns.push(EventDesc::N { item, value });
                }
            }
            let mut m = Matcher::new(&self.slots);
            for n in &ns {
                m.undo(0);
                if !(m.matches(&rule.lhs, &p_desc) && m.matches(&step.event, n)) {
                    continue;
                }
                if !m.holds_binding(rule, read) {
                    self.metrics.inc(self.scope, "translator.suppressed");
                    continue;
                }
                if let EventDesc::N { item, value } = n {
                    self.notify(item.clone(), value.clone(), iface.id, p_id, ctx);
                }
            }
        }
        if now + period <= self.stop_periodics_at {
            ctx.schedule_self(period, CmMsg::PollTick { idx });
        } else if self.armed.remove(&(idx as u64)).is_some() {
            self.policy
                .log(&LogRecord::PollDisarmed { idx: idx as u64 });
        }
    }

    /// Re-arm the periodic-notify interfaces in `self.armed` (used by
    /// recovery; gated on `stop_periodics_at`).
    fn rearm_polls(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        let now = ctx.now();
        for (&idx, &period) in &self.armed {
            if now + period <= self.stop_periodics_at {
                ctx.schedule_self(period, CmMsg::PollTick { idx: idx as usize });
            }
        }
    }
}

impl Actor<CmMsg> for TranslatorActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        self.initialize(ctx);
    }

    fn on_crash(&mut self, lossy: bool, ctx: &mut Ctx<'_, CmMsg>) {
        if !self.policy.crash(lossy) {
            return;
        }
        // Obligations and timers destroyed with the process image;
        // without a store they are gone for good.
        ctx.cancel_timers();
        if !self.policy.remembers() {
            for _ in 0..self.pending.len() {
                self.metrics.inc(self.scope, "translator.writes_lost");
            }
        }
        self.pending.clear();
        self.armed.clear();
        self.extra = SimDuration::ZERO;
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        let records = match self.policy.recover() {
            Restart::Warm => return,
            Restart::Cold => {
                // Restarted from static configuration alone: periodic
                // interfaces re-arm (the CM-RID is config); accepted
                // writes are lost.
                self.armed.extend(self.periodic.iter().copied());
                self.rearm_polls(ctx);
                return;
            }
            Restart::Replay(records) => records,
        };
        for rec in records {
            match rec {
                LogRecord::WriteAccepted(pw) => {
                    self.pending.insert(pw.req_id, pw);
                }
                LogRecord::WritePerformed { req_id } => {
                    self.pending.remove(&req_id);
                }
                LogRecord::PollArmed { idx, period } => {
                    self.armed.insert(idx, period);
                }
                LogRecord::PollDisarmed { idx } => {
                    self.armed.remove(&idx);
                }
                // Shell-only records never appear in a translator log.
                _ => {}
            }
        }
        self.rearm_polls(ctx);
        // Re-schedule every write that was accepted but unperformed
        // when the crash hit: it lands after a fresh service delay —
        // delayed, not lost (§5's metric demotion).
        let survivors: Vec<PendingWrite> = self.pending.values().cloned().collect();
        for pw in survivors {
            self.metrics.inc(self.scope, "translator.writes_recovered");
            ctx.schedule_self(self.delay(), CmMsg::PerformWrite(pw));
        }
    }

    fn on_message(&mut self, msg: CmMsg, ctx: &mut Ctx<'_, CmMsg>) {
        match msg {
            CmMsg::Spontaneous(op) => self.handle_spontaneous(&op, ctx),
            CmMsg::Request {
                req_id,
                reply_to,
                rule,
                trigger,
                kind,
            } => self.handle_request(req_id, reply_to, rule, trigger, &kind, ctx),
            CmMsg::PerformWrite(pw) => self.handle_perform_write(pw, ctx),
            CmMsg::PollTick { idx } => self.handle_poll_tick(idx, ctx),
            CmMsg::SetServiceExtra(d) => self.extra = d,
            other => panic!(
                "translator at {} received unexpected message {other:?}",
                self.site
            ),
        }
    }
}
