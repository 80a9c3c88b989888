//! The CM-Shell actor — the distributed rule engine.
//!
//! "At run-time, the CM-Shells process events received from their
//! respective CM-Translators and fire rules appropriately. The events
//! that are produced as a result of rules firing are forwarded to the
//! local CM-Translator and other CM-Shells as determined during
//! initialization" (§4.1).
//!
//! Each shell evaluates the LHS of the strategy rules assigned to its
//! site; when a rule fires, its sequenced RHS executes at the RHS
//! site's shell (locally, or via a `RemoteFire` message). The shell
//! also holds the CM-private data strategies may read and write
//! (§3.2's `Cx`, §6.3's `Flag`/`Tb`), arms timers for `P(p)`-headed
//! rules, tracks outstanding CMI requests for failure detection (§5),
//! and keeps the site's [`GuaranteeRegistry`].

use crate::compile::{CompiledRule, CompiledStrategy, Locator};
use crate::durability::{LogRecord, Restart, StatePolicy};
use crate::msg::{CmMsg, RequestKind, TranslatorEvent};
use crate::registry::{FailureKind, GuaranteeRegistry};
use hcm_core::{
    EventDesc, EventId, ItemId, RuleId, RuleIndex, SimDuration, SimTime, SiteId, TemplateDesc,
    TraceRecorder, Value,
};
use hcm_obs::{Metrics, Obs, Scope};
use hcm_rulelang::slots::{Matcher, SlotRules};
use hcm_simkit::{Actor, ActorId, Ctx};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Delay for shell→translator request submission (same machine).
const LOCAL_DELAY: SimDuration = SimDuration::from_millis(1);

/// Failure-detection timing configuration.
#[derive(Debug, Clone, Copy)]
pub struct FailureConfig {
    /// A request unanswered after this long is a *metric* failure.
    pub deadline: SimDuration,
    /// Still unanswered after this much more ⇒ *logical* failure.
    pub escalation: SimDuration,
    /// When set, the shell probes its translator at this period even
    /// with no application traffic, so a silent site failure is
    /// detected within `heartbeat + deadline` rather than waiting for
    /// the next constraint-driven request (§5's silent-failure gap).
    pub heartbeat: Option<SimDuration>,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            deadline: SimDuration::from_secs(5),
            escalation: SimDuration::from_secs(30),
            heartbeat: None,
        }
    }
}

struct Outstanding {
    /// Whether a metric failure has already been flagged for it.
    flagged: bool,
    /// When the request was issued, for latency histograms.
    sent_at: SimTime,
}

/// A `P`-headed rule this shell arms timers for, with its period
/// precomputed at construction so ticks don't re-destructure the LHS.
struct PeriodicRule {
    /// Position in the shared rule arena.
    pos: usize,
    /// Constant period; `None` (non-constant or non-positive) never
    /// arms a timer.
    period: Option<SimDuration>,
}

/// The CM-Shell actor. See module docs.
pub struct ShellActor {
    site: SiteId,
    translator: ActorId,
    /// Shell of every site, indexed by site ordinal, for
    /// RemoteFire/Custom/FailureNotice routing.
    shells: Vec<ActorId>,
    /// Shared arena of every compiled rule (execution needs RHS
    /// definitions of rules matched elsewhere).
    rules: Rc<Vec<CompiledRule>>,
    /// The same arena compiled to slots: what matching, condition
    /// evaluation and instantiation run on.
    slots: Rc<SlotRules>,
    /// Discrimination index over the LHS templates of the rules this
    /// shell evaluates, keyed by position in `rules` (see
    /// [`hcm_core::RuleIndex`]).
    dispatch: RuleIndex,
    /// Rule id → arena position (remote fires look rules up by id);
    /// built once per strategy, shared by every shell.
    rule_index: Rc<HashMap<RuleId, usize>>,
    /// `P`-headed rules this shell arms timers for.
    periodic_rules: Vec<PeriodicRule>,
    locator: Rc<Locator>,
    /// CM-private and auxiliary data (shared with the scenario so
    /// applications can read it — §7.1).
    private: Rc<RefCell<BTreeMap<ItemId, Value>>>,
    registry: Rc<RefCell<GuaranteeRegistry>>,
    recorder: TraceRecorder,
    metrics: Metrics,
    /// `Scope::Site` of this shell's site, under which every
    /// `shell.*` metric is written.
    scope: Scope,
    failure_cfg: FailureConfig,
    outstanding: BTreeMap<u64, Outstanding>,
    next_req: u64,
    stop_periodics_at: SimTime,
    /// How this shell's state relates to crashes (see
    /// [`crate::durability`]). Default keeps historical behaviour.
    policy: StatePolicy,
    /// Scratch list of (rule position, slot values) firings per event.
    firing_scratch: Vec<(usize, Vec<Option<Value>>)>,
    /// Scratch list of candidate rule positions per event.
    cand_scratch: Vec<usize>,
}

/// The constant period of a `P`-headed template, when it has one: the
/// shell arms its periodic rules and the translator its
/// periodic-notify interfaces by this.
pub(crate) fn const_period(lhs: &TemplateDesc) -> Option<SimDuration> {
    match lhs {
        TemplateDesc::P {
            period: hcm_core::Term::Const(Value::Int(ms @ 1..)),
        } => Some(SimDuration::from_millis(*ms as u64)),
        _ => None,
    }
}

impl ShellActor {
    /// Build a shell for `site`. `strategy` supplies rules, placement
    /// and the locator; `shells` holds every site's shell actor,
    /// indexed by site ordinal.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        site: SiteId,
        translator: ActorId,
        shells: Vec<ActorId>,
        strategy: &CompiledStrategy,
        private: Rc<RefCell<BTreeMap<ItemId, Value>>>,
        registry: Rc<RefCell<GuaranteeRegistry>>,
        recorder: TraceRecorder,
        obs: Obs,
        failure_cfg: FailureConfig,
        stop_periodics_at: SimTime,
    ) -> Self {
        let rules = Rc::clone(&strategy.rules);
        let my_rules: Vec<usize> = rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.lhs_site == site && !matches!(r.rule.lhs, TemplateDesc::P { .. }))
            .map(|(i, _)| i)
            .collect();
        let periodic_rules = rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.lhs_site == site && matches!(r.rule.lhs, TemplateDesc::P { .. }))
            .map(|(i, r)| PeriodicRule {
                pos: i,
                period: const_period(&r.rule.lhs),
            })
            .collect();
        let dispatch = RuleIndex::build(my_rules.iter().map(|&i| (i, &rules[i].rule.lhs)));
        ShellActor {
            site,
            translator,
            shells,
            dispatch,
            rule_index: strategy.rule_lookup(),
            periodic_rules,
            locator: Rc::clone(&strategy.locator),
            rules,
            slots: Rc::clone(&strategy.slots),
            private,
            registry,
            recorder,
            metrics: obs.metrics,
            scope: Scope::Site(site.index()),
            failure_cfg,
            outstanding: BTreeMap::new(),
            next_req: 0,
            stop_periodics_at,
            policy: StatePolicy::default(),
            firing_scratch: Vec::new(),
            cand_scratch: Vec::new(),
        }
    }

    /// Set how this shell's state relates to crashes. Under
    /// [`crate::Durability::Durable`], every durable mutation is
    /// write-ahead-logged and recovery replays the log.
    pub(crate) fn set_state_policy(&mut self, policy: StatePolicy) {
        self.policy = policy;
    }

    /// Apply a registry transition — a `Failure`, `Clear` or `Reset`
    /// record — and log it.
    fn transition(&mut self, rec: LogRecord) {
        self.registry.borrow_mut().apply(&rec);
        self.policy.log(&rec);
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

    /// Match an event against this shell's rules and dispatch firings.
    ///
    /// The candidate set comes from the discrimination index, which
    /// excludes only guaranteed kind/base mismatches and yields rule
    /// positions in ascending order, so firing order is the order of a
    /// linear scan over this shell's rules. Every LHS condition is
    /// evaluated before any firing executes.
    fn process_event(&mut self, id: EventId, desc: &EventDesc, ctx: &mut Ctx<'_, CmMsg>) {
        let mut cands = std::mem::take(&mut self.cand_scratch);
        cands.extend(self.dispatch.candidates(desc));
        let mut firings = std::mem::take(&mut self.firing_scratch);
        if !cands.is_empty() {
            // LHS condition: evaluated at the LHS site against CM-local
            // data (strategies never need global data access, §3.2).
            let private = self.private.borrow();
            let mut m = Matcher::new(&self.slots);
            for &i in &cands {
                let rule = self.slots.rule(i);
                m.undo(0);
                if !m.matches(&rule.lhs, desc) {
                    continue;
                }
                if !m.holds_binding(rule, |item| private.get(item).map(Cow::Borrowed)) {
                    self.metrics.inc(self.scope, "shell.cond_suppressed");
                    continue;
                }
                firings.push((i, m.owned(rule)));
            }
        }
        cands.clear();
        self.cand_scratch = cands;
        let rules = Rc::clone(&self.rules);
        for (i, slots) in firings.drain(..) {
            let r = &rules[i];
            if r.rhs_site == self.site {
                self.execute_rhs(r.id, id, &slots, ctx);
            } else {
                let target = self.shells[r.rhs_site.index() as usize];
                ctx.send(
                    target,
                    CmMsg::RemoteFire {
                        rule: r.id,
                        trigger: id,
                        slots,
                    },
                );
            }
        }
        self.firing_scratch = firings;
    }

    /// Execute a rule's sequenced RHS at this (the RHS) site, under the
    /// slot values its LHS match bound.
    fn execute_rhs(
        &mut self,
        rule_id: RuleId,
        trigger: EventId,
        slots: &[Option<Value>],
        ctx: &mut Ctx<'_, CmMsg>,
    ) {
        let now = ctx.now();
        let rules = Rc::clone(&self.slots);
        // An unknown rule id, or slot values that do not fit the rule (a
        // corrupt or stale RemoteFire), degrades to a recorded
        // logical-failure event + counter instead of killing the whole
        // simulation.
        let rule = (self.rule_index.get(&rule_id)).map(|&pos| rules.rule(pos));
        let Some(rule) = rule.filter(|r| r.vars() == slots.len()) else {
            self.metrics.inc(self.scope, "shell.unknown_rule");
            self.record(
                now,
                EventDesc::Custom {
                    name: "UnknownRuleFire".into(),
                    args: vec![
                        Value::Int(i64::from(self.site.index())),
                        Value::Str(rule_id.to_string()),
                    ],
                },
                None,
                None,
                None,
            );
            return;
        };
        self.metrics.inc(self.scope, "shell.firings");
        // Firing latency: how long after its trigger occurred did this
        // rule's RHS begin executing (LHS transport + matching).
        if let Some(trigger_time) = self.recorder.with(|t| t.get(trigger).map(|e| e.time)) {
            self.metrics.observe(
                self.scope,
                "shell.firing_latency",
                now.saturating_since(trigger_time),
            );
        }
        for step in rules.steps(rule) {
            // Step conditions are evaluated at firing time at the RHS
            // site (Appendix A.1), against CM-local data.
            let cond_ok = {
                let private = self.private.borrow();
                rules.holds(&step.cond, slots, |item| {
                    private.get(item).map(Cow::Borrowed)
                })
            };
            if !cond_ok {
                self.metrics.inc(self.scope, "shell.steps_skipped");
                continue;
            }
            let Some(desc) = rules.instantiate(&step.event, slots) else {
                // Unbound variable: specification bug; skip the step.
                self.metrics.inc(self.scope, "shell.steps_skipped");
                continue;
            };
            self.emit(desc, rule_id, trigger, ctx);
        }
    }

    /// Emit one generated event: route it to the right component and
    /// record it where the paper says it occurs.
    fn emit(&mut self, desc: EventDesc, rule: RuleId, trigger: EventId, ctx: &mut Ctx<'_, CmMsg>) {
        let now = ctx.now();
        match desc {
            // The WR/RR event occurs at the database when it receives
            // the request — the translator records it.
            EventDesc::Wr { item, value } => {
                self.request(Some((rule, trigger)), RequestKind::Write(item, value), ctx);
            }
            EventDesc::Rr { item } => {
                self.request(Some((rule, trigger)), RequestKind::Read(item), ctx);
            }
            EventDesc::W { item, value } => {
                // Writes on the RHS address CM-private data (remote
                // database writes go through WR).
                assert!(
                    self.locator.is_private(item.base),
                    "W(...) on RHS must target CM-private data, got `{item}`"
                );
                let old = self
                    .private
                    .borrow_mut()
                    .insert(item.clone(), value.clone());
                self.policy.log(&LogRecord::PrivateWrite {
                    at: now,
                    item: item.clone(),
                    value: value.clone(),
                });
                let desc = EventDesc::W { item, value };
                let id = self.record(now, desc.clone(), old, Some(rule), Some(trigger));
                self.rematch_later(id, desc, ctx);
            }
            EventDesc::Custom { name, args } => {
                let target_site = self.locator.site_of(&name).unwrap_or(self.site);
                if target_site == self.site {
                    let d = EventDesc::Custom { name, args };
                    let id = self.record(now, d.clone(), None, Some(rule), Some(trigger));
                    self.rematch_later(id, d, ctx);
                } else {
                    ctx.send(
                        self.shells[target_site.index() as usize],
                        CmMsg::Custom {
                            desc: EventDesc::Custom { name, args },
                            rule: Some(rule),
                            trigger: Some(trigger),
                        },
                    );
                }
            }
            other => {
                // N/R/Ws/P on a strategy RHS have no executable
                // meaning for the shell; record them as-is so custom
                // monitoring strategies can still assert them.
                let id = self.record(now, other.clone(), None, Some(rule), Some(trigger));
                self.rematch_later(id, other, ctx);
            }
        }
    }

    /// Re-match a just-recorded local event against this shell's rules
    /// *through the scheduler* rather than by direct recursion:
    /// self-triggering rule chains then consume scheduler steps (and
    /// hit the step budget) instead of overflowing the stack.
    fn rematch_later(&mut self, id: EventId, desc: EventDesc, ctx: &mut Ctx<'_, CmMsg>) {
        let me = ctx.me();
        ctx.send_local(
            me,
            CmMsg::Cmi(TranslatorEvent::Observed { id, desc }),
            SimDuration::from_millis(1),
        );
    }

    /// Send a CMI request to the local translator under a fresh,
    /// deadline-tracked id. `cause` is the rule firing behind it; a
    /// heartbeat probe has none and is not counted in
    /// `shell.requests_sent`.
    fn request(
        &mut self,
        cause: Option<(RuleId, EventId)>,
        kind: RequestKind,
        ctx: &mut Ctx<'_, CmMsg>,
    ) {
        let req_id = self.track_request(ctx);
        if cause.is_some() {
            self.metrics.inc(self.scope, "shell.requests_sent");
        }
        let me = ctx.me();
        ctx.send_local(
            self.translator,
            CmMsg::Request {
                req_id,
                reply_to: me,
                rule: cause.map(|(rule, _)| rule),
                trigger: cause.map(|(_, trigger)| trigger),
                kind,
            },
            LOCAL_DELAY,
        );
    }

    fn track_request(&mut self, ctx: &mut Ctx<'_, CmMsg>) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        let now = ctx.now();
        self.metrics.inc(self.scope, "shell.deadlines_armed");
        self.outstanding.insert(
            req_id,
            Outstanding {
                flagged: false,
                sent_at: now,
            },
        );
        self.policy.log(&LogRecord::RequestSent { at: now, req_id });
        ctx.schedule_self(
            self.failure_cfg.deadline,
            CmMsg::CheckDeadline {
                req_id,
                escalation: false,
            },
        );
        req_id
    }

    fn resolve_request(&mut self, req_id: u64, ctx: &mut Ctx<'_, CmMsg>) {
        if let Some(o) = self.outstanding.remove(&req_id) {
            let now = ctx.now();
            self.policy.log(&LogRecord::RequestResolved { req_id });
            self.metrics.observe(
                self.scope,
                "shell.request_latency",
                now.saturating_since(o.sent_at),
            );
            if o.flagged {
                // Late response: the failure was metric after all and
                // has now cleared.
                self.metrics.inc(self.scope, "shell.failures_cleared");
                self.metrics.record(
                    now,
                    self.scope,
                    "shell.failure",
                    [
                        ("phase", "cleared".to_string()),
                        ("req", req_id.to_string()),
                    ],
                );
                self.transition(LogRecord::Clear {
                    at: now,
                    site: self.site,
                });
                self.broadcast_failure(None, ctx);
            }
        }
    }

    fn broadcast_failure(&self, kind: Option<FailureKind>, ctx: &mut Ctx<'_, CmMsg>) {
        for (i, &shell) in self.shells.iter().enumerate() {
            if i as u32 != self.site.index() {
                ctx.send(
                    shell,
                    CmMsg::FailureNotice {
                        site: self.site,
                        kind,
                    },
                );
            }
        }
    }

    fn handle_deadline(&mut self, req_id: u64, escalation: bool, ctx: &mut Ctx<'_, CmMsg>) {
        let now = ctx.now();
        let Some(o) = self.outstanding.get_mut(&req_id) else {
            return; // answered in time
        };
        // Unanswered past the deadline: metric failure, and the request
        // waits for its escalation check. Still unanswered past the
        // escalation: logical failure, and the request is given up, so
        // a late reply clears nothing and a reset stays final.
        let (kind, phase, counter, rec) = if escalation {
            self.outstanding.remove(&req_id);
            (
                FailureKind::Logical,
                "logical",
                "shell.logical_failures_detected",
                LogRecord::RequestResolved { req_id },
            )
        } else {
            o.flagged = true;
            (
                FailureKind::Metric,
                "metric",
                "shell.metric_failures_detected",
                LogRecord::RequestFlagged { req_id },
            )
        };
        self.policy.log(&rec);
        self.metrics.inc(self.scope, counter);
        self.metrics.record(
            now,
            self.scope,
            "shell.failure",
            [("phase", phase.to_string()), ("req", req_id.to_string())],
        );
        self.record(
            now,
            EventDesc::Custom {
                name: "FailureDetected".into(),
                args: vec![
                    Value::Int(i64::from(self.site.index())),
                    Value::Str(phase.into()),
                ],
            },
            None,
            None,
            None,
        );
        self.transition(LogRecord::Failure {
            at: now,
            site: self.site,
            kind,
        });
        self.broadcast_failure(Some(kind), ctx);
        if !escalation {
            ctx.schedule_self(
                self.failure_cfg.escalation,
                CmMsg::CheckDeadline {
                    req_id,
                    escalation: true,
                },
            );
        }
    }

    /// Probe the local translator with a cheap meta-request; the normal
    /// deadline machinery turns a missing reply into a failure.
    fn handle_heartbeat(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        let Some(period) = self.failure_cfg.heartbeat else {
            return;
        };
        self.metrics.inc(self.scope, "shell.heartbeats");
        let probe = RequestKind::Enumerate(hcm_core::Sym::from("__probe__"));
        self.request(None, probe, ctx);
        if ctx.now() + period <= self.stop_periodics_at {
            ctx.schedule_self(period, CmMsg::Heartbeat);
        }
    }

    /// Re-arm heartbeat and periodic-rule timers after a recovery (a
    /// lossy crash destroyed the pending self-timers). Unlike
    /// `on_start`, every re-arm is gated on `stop_periodics_at`: a
    /// recovery after the periodic horizon must not restart them.
    fn rearm_periodics(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        let now = ctx.now();
        if let Some(period) = self.failure_cfg.heartbeat {
            if now + period <= self.stop_periodics_at {
                ctx.schedule_self(period, CmMsg::Heartbeat);
            }
        }
        for idx in 0..self.periodic_rules.len() {
            if let Some(period) = self.periodic_rules[idx].period {
                if now + period <= self.stop_periodics_at {
                    ctx.schedule_self(period, CmMsg::RuleTick { idx });
                }
            }
        }
    }

    fn handle_rule_tick(&mut self, idx: usize, ctx: &mut Ctx<'_, CmMsg>) {
        let now = ctx.now();
        let Some(pr) = self.periodic_rules.get(idx) else {
            return;
        };
        let Some(period) = pr.period else {
            return;
        };
        let (pos, rule_id) = (pr.pos, self.rules[pr.pos].id);
        let desc = EventDesc::P { period };
        let p_id = self.record(now, desc.clone(), None, None, None);
        // Evaluate the LHS condition and fire the RHS (locally, by
        // construction of periodic-rule placement).
        let rules = Rc::clone(&self.slots);
        let rule = rules.rule(pos);
        let fired = {
            let private = self.private.borrow();
            let mut m = Matcher::new(&rules);
            let items = |item: &ItemId| private.get(item).map(Cow::Borrowed);
            (m.matches(&rule.lhs, &desc) && m.holds_binding(rule, items)).then(|| m.owned(rule))
        };
        match fired {
            Some(slots) => self.execute_rhs(rule_id, p_id, &slots, ctx),
            None => self.metrics.inc(self.scope, "shell.cond_suppressed"),
        }
        if now + period <= self.stop_periodics_at {
            ctx.schedule_self(period, CmMsg::RuleTick { idx });
        }
    }
}

impl Actor<CmMsg> for ShellActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        if let Some(period) = self.failure_cfg.heartbeat {
            if SimTime::ZERO + period <= self.stop_periodics_at {
                ctx.schedule_self(period, CmMsg::Heartbeat);
            }
        }
        for idx in 0..self.periodic_rules.len() {
            if let Some(period) = self.periodic_rules[idx].period {
                ctx.schedule_self(period, CmMsg::RuleTick { idx });
            }
        }
        // Seed initial values of private items into the trace, and into
        // the log: a durable shell rebuilds its private data from the
        // log alone.
        for (item, value) in self.private.borrow().iter() {
            self.recorder.set_initial(item.clone(), value.clone());
            self.policy.log(&LogRecord::PrivateWrite {
                at: SimTime::ZERO,
                item: item.clone(),
                value: value.clone(),
            });
        }
    }

    fn on_crash(&mut self, lossy: bool, ctx: &mut Ctx<'_, CmMsg>) {
        if !self.policy.crash(lossy) {
            return;
        }
        // The process image is gone: private data, registry statuses,
        // request bookkeeping and pending timers reset to a fresh
        // start. `next_req` stays monotone so late replies to pre-crash
        // requests cannot collide with requests issued after recovery.
        ctx.cancel_timers();
        self.private.borrow_mut().clear();
        self.registry.borrow_mut().reset(SimTime::ZERO);
        self.outstanding.clear();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        let now = ctx.now();
        let restart = self.policy.recover();
        if matches!(restart, Restart::Warm) {
            return;
        }
        if let Restart::Replay(records) = restart {
            // Replay only rebuilds in-memory state — the trace recorder
            // already holds the original events as ground truth and
            // must not see them twice.
            for rec in records {
                match rec {
                    LogRecord::PrivateWrite { item, value, .. } => {
                        self.private.borrow_mut().insert(item, value);
                    }
                    LogRecord::RequestSent { at, req_id } => {
                        self.next_req = self.next_req.max(req_id + 1);
                        self.outstanding.insert(
                            req_id,
                            Outstanding {
                                flagged: false,
                                sent_at: at,
                            },
                        );
                    }
                    LogRecord::RequestFlagged { req_id } => {
                        if let Some(o) = self.outstanding.get_mut(&req_id) {
                            o.flagged = true;
                        }
                    }
                    LogRecord::RequestResolved { req_id } => {
                        self.outstanding.remove(&req_id);
                    }
                    // Registry transitions. Translator-only records
                    // never appear in a shell log; `apply` ignores them.
                    rec => self.registry.borrow_mut().apply(&rec),
                }
            }
            // Requests that were in flight when the crash hit: re-arm
            // failure detection. A request already flagged metric goes
            // straight to its escalation check; the rest get a fresh
            // metric deadline measured from recovery.
            for (&req_id, o) in &self.outstanding {
                let (delay, escalation) = if o.flagged {
                    (self.failure_cfg.escalation, true)
                } else {
                    (self.failure_cfg.deadline, false)
                };
                ctx.schedule_self(delay, CmMsg::CheckDeadline { req_id, escalation });
            }
            self.metrics.record(
                now,
                self.scope,
                "shell.recovered",
                [("outstanding", self.outstanding.len().to_string())],
            );
        }
        self.rearm_periodics(ctx);
    }

    fn on_message(&mut self, msg: CmMsg, ctx: &mut Ctx<'_, CmMsg>) {
        match msg {
            CmMsg::Cmi(TranslatorEvent::Notify {
                item,
                value,
                rule,
                trigger,
            }) => {
                let desc = EventDesc::N { item, value };
                let id = self.record(ctx.now(), desc.clone(), None, Some(rule), Some(trigger));
                self.process_event(id, &desc, ctx);
            }
            CmMsg::Cmi(TranslatorEvent::ReadResult {
                req_id,
                item,
                value,
                rule,
                trigger,
            }) => {
                self.resolve_request(req_id, ctx);
                let desc = EventDesc::R { item, value };
                let id = self.record(ctx.now(), desc.clone(), None, Some(rule), Some(trigger));
                self.process_event(id, &desc, ctx);
            }
            CmMsg::Cmi(TranslatorEvent::WriteDone { req_id, ok: _ })
            | CmMsg::Cmi(TranslatorEvent::EnumResult { req_id, .. }) => {
                self.resolve_request(req_id, ctx);
            }
            CmMsg::Cmi(TranslatorEvent::Observed { id, desc }) => {
                self.process_event(id, &desc, ctx);
            }
            CmMsg::RemoteFire {
                rule,
                trigger,
                slots,
            } => {
                self.execute_rhs(rule, trigger, &slots, ctx);
            }
            CmMsg::Custom {
                desc,
                rule,
                trigger,
            } => {
                let id = self.record(ctx.now(), desc.clone(), None, rule, trigger);
                self.process_event(id, &desc, ctx);
            }
            CmMsg::RuleTick { idx } => self.handle_rule_tick(idx, ctx),
            CmMsg::Heartbeat => self.handle_heartbeat(ctx),
            CmMsg::CheckDeadline { req_id, escalation } => {
                self.handle_deadline(req_id, escalation, ctx)
            }
            CmMsg::FailureNotice { site, kind } => {
                let at = ctx.now();
                self.transition(match kind {
                    Some(kind) => LogRecord::Failure { at, site, kind },
                    None => LogRecord::Clear { at, site },
                });
            }
            CmMsg::Reset => self.transition(LogRecord::Reset { at: ctx.now() }),
            other => panic!(
                "shell at {} received unexpected message {other:?}",
                self.site
            ),
        }
    }
}
