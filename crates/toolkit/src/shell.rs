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
use crate::durability::{
    fail_to_tag, status_to_tag, tag_to_fail, tag_to_status, StatePolicy, StoreBridge,
};
use crate::msg::{CmMsg, FailureKindMsg, RequestKind, TranslatorEvent};
use crate::registry::{FailureKind, GuaranteeRegistry};
use hcm_core::{
    Bindings, EventDesc, EventId, ItemId, RuleId, RuleIndex, SimDuration, SimTime, SiteId,
    TemplateDesc, TraceRecorder, Value,
};
use hcm_obs::{Metrics, Obs, Scope, SpanId, SpanKind, Spans};
use hcm_rulelang::ast::BindingsEnv;
use hcm_simkit::{Actor, ActorId, Ctx};
use hcm_store::{LogRecord, ShellSnapshot};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Delay for shell→translator request submission (same machine).
const LOCAL_DELAY: SimDuration = SimDuration::from_millis(1);

/// Observable shell counters, materialized from the metrics registry.
#[derive(Debug, Default, Clone)]
pub struct ShellStats {
    /// Rule firings executed (RHS runs).
    pub firings: u64,
    /// LHS matches whose condition failed.
    pub cond_suppressed: u64,
    /// RHS steps skipped by their step condition.
    pub steps_skipped: u64,
    /// Write/read requests sent to the local translator.
    pub requests_sent: u64,
    /// Metric failures detected (deadline missed).
    pub metric_failures_detected: u64,
    /// Logical failures detected (escalation deadline missed).
    pub logical_failures_detected: u64,
    /// Failures cleared (late response arrived).
    pub failures_cleared: u64,
}

/// Registry-backed view of one shell's counters.
///
/// The shell writes every counter straight into the shared
/// [`Metrics`] registry under `Scope::Site`; this handle is a thin
/// typed view over those entries. `borrow()` materializes an owned
/// [`ShellStats`] snapshot, so existing `stats.borrow().firings`
/// call sites read naturally.
#[derive(Debug, Clone)]
pub struct ShellStatsHandle {
    metrics: Metrics,
    scope: Scope,
}

impl ShellStatsHandle {
    /// View over `site`'s shell metrics in `metrics`.
    #[must_use]
    pub fn new(metrics: Metrics, site: SiteId) -> Self {
        ShellStatsHandle {
            metrics,
            scope: Scope::Site(site.index()),
        }
    }

    fn inc(&self, name: &str) {
        self.metrics.inc(self.scope, name);
    }

    fn get(&self, name: &str) -> u64 {
        self.metrics.counter(self.scope, name)
    }

    /// Snapshot the counters as an owned [`ShellStats`].
    #[must_use]
    pub fn borrow(&self) -> ShellStats {
        ShellStats {
            firings: self.get("shell.firings"),
            cond_suppressed: self.get("shell.cond_suppressed"),
            steps_skipped: self.get("shell.steps_skipped"),
            requests_sent: self.get("shell.requests_sent"),
            metric_failures_detected: self.get("shell.metric_failures_detected"),
            logical_failures_detected: self.get("shell.logical_failures_detected"),
            failures_cleared: self.get("shell.failures_cleared"),
        }
    }
}

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
    /// The request's causal span, ended when the reply (or the
    /// escalation verdict) arrives.
    span: SpanId,
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
    stats: ShellStatsHandle,
    metrics: Metrics,
    spans: Spans,
    failure_cfg: FailureConfig,
    outstanding: BTreeMap<u64, Outstanding>,
    next_req: u64,
    stop_periodics_at: SimTime,
    /// How this shell's state relates to crashes (see
    /// [`crate::durability`]). Default keeps historical behaviour.
    policy: StatePolicy,
    /// Set by a lossy crash; consumed by the next recovery.
    crashed_lossy: bool,
    /// Scratch bindings reused across LHS match attempts.
    match_scratch: Bindings,
    /// Scratch list of (rule position, bindings) firings per event.
    firing_scratch: Vec<(usize, Bindings)>,
    /// Scratch list of candidate rule positions per event.
    cand_scratch: Vec<usize>,
}

/// The constant period of a `P`-headed LHS, when it has one.
fn const_period(lhs: &TemplateDesc) -> Option<SimDuration> {
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
    pub fn new(
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
            private,
            registry,
            recorder,
            stats: ShellStatsHandle::new(obs.metrics.clone(), site),
            metrics: obs.metrics,
            spans: obs.spans,
            failure_cfg,
            outstanding: BTreeMap::new(),
            next_req: 0,
            stop_periodics_at,
            policy: StatePolicy::default(),
            crashed_lossy: false,
            match_scratch: Bindings::new(),
            firing_scratch: Vec::new(),
            cand_scratch: Vec::new(),
        }
    }

    /// Registry-backed view of this shell's counters.
    #[must_use]
    pub fn stats(&self) -> ShellStatsHandle {
        self.stats.clone()
    }

    /// Set how this shell's state relates to crashes. With
    /// [`StatePolicy::Durable`], every durable mutation is
    /// write-ahead-logged and recovery replays checkpoint + log.
    pub fn set_state_policy(&mut self, policy: StatePolicy) {
        self.policy = policy;
    }

    /// Log one durable mutation; checkpoint when the cadence says so.
    fn log_durable(&mut self, rec: &LogRecord) {
        let due = match self.policy.bridge() {
            Some(b) => b.log(rec),
            None => return,
        };
        if due {
            self.write_checkpoint();
        }
    }

    /// Snapshot the shell's durable state into the store.
    fn write_checkpoint(&mut self) {
        let snap = ShellSnapshot {
            private: self
                .private
                .borrow()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            registry: self
                .registry
                .borrow()
                .statuses()
                .into_iter()
                .map(|(name, status, since)| (name, status_to_tag(status), since))
                .collect(),
            next_req: self.next_req,
            outstanding: self
                .outstanding
                .iter()
                .map(|(&req_id, o)| (req_id, o.sent_at, o.flagged))
                .collect(),
        };
        let blob = snap.encode();
        if let Some(b) = self.policy.bridge() {
            b.save_checkpoint(&blob);
        }
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

    fn private_lookup(&self, item: &ItemId) -> Option<Value> {
        self.private.borrow().get(item).cloned()
    }

    /// Match an event against this shell's rules and dispatch firings.
    ///
    /// The candidate set comes from the discrimination index, which
    /// excludes only guaranteed kind/base mismatches and yields rule
    /// positions in ascending order, so firing order is the order of a
    /// linear scan over this shell's rules.
    fn process_event(&mut self, id: EventId, desc: &EventDesc, ctx: &mut Ctx<'_, CmMsg>) {
        let mut cands = std::mem::take(&mut self.cand_scratch);
        cands.extend(self.dispatch.candidates(desc));
        let mut bindings = std::mem::take(&mut self.match_scratch);
        let mut firings = std::mem::take(&mut self.firing_scratch);
        for &i in &cands {
            let r = &self.rules[i];
            bindings.clear();
            if !r.rule.lhs.match_desc(desc, &mut bindings) {
                continue;
            }
            // LHS condition: evaluated at the LHS site against CM-local
            // data (strategies never need global data access, §3.2).
            let env = BindingsEnv {
                bindings: &bindings,
                lookup: |item: &ItemId| self.private_lookup(item),
            };
            if !r.rule.cond.eval(&env) {
                self.stats.inc("shell.cond_suppressed");
                let s = self.spans.start(
                    SpanKind::CondEval,
                    None,
                    self.site,
                    Some(r.id),
                    Some(id),
                    ctx.now(),
                    "suppressed",
                );
                self.spans.end(s, ctx.now());
                continue;
            }
            firings.push((i, std::mem::take(&mut bindings)));
        }
        cands.clear();
        self.cand_scratch = cands;
        bindings.clear();
        self.match_scratch = bindings;
        let rules = Rc::clone(&self.rules);
        for (i, bindings) in firings.drain(..) {
            let r = &rules[i];
            if r.rhs_site == self.site {
                self.execute_rhs(r.id, id, bindings, ctx);
            } else {
                let target = self.shells[r.rhs_site.index() as usize];
                let s = self.spans.start(
                    SpanKind::RemoteFire,
                    None,
                    self.site,
                    Some(r.id),
                    Some(id),
                    ctx.now(),
                    format!("to {}", r.rhs_site),
                );
                self.spans.end(s, ctx.now());
                ctx.send(
                    target,
                    CmMsg::RemoteFire {
                        rule: r.id,
                        trigger: id,
                        bindings,
                    },
                );
            }
        }
        self.firing_scratch = firings;
    }

    /// Execute a rule's sequenced RHS at this (the RHS) site.
    fn execute_rhs(
        &mut self,
        rule_id: RuleId,
        trigger: EventId,
        bindings: Bindings,
        ctx: &mut Ctx<'_, CmMsg>,
    ) {
        let now = ctx.now();
        // An unknown rule id (a corrupt or stale RemoteFire) degrades
        // to a recorded logical-failure event + counter instead of
        // killing the whole simulation.
        let Some(&pos) = self.rule_index.get(&rule_id) else {
            self.metrics
                .inc(Scope::Site(self.site.index()), "shell.unknown_rule");
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
        self.stats.inc("shell.firings");
        // Firing latency: how long after its trigger occurred did this
        // rule's RHS begin executing (LHS transport + matching).
        if let Some(trigger_time) = self.recorder.with(|t| t.get(trigger).map(|e| e.time)) {
            self.metrics.observe(
                Scope::Site(self.site.index()),
                "shell.firing_latency",
                now.saturating_since(trigger_time),
            );
        }
        let firing_span = self.spans.start(
            SpanKind::Firing,
            None,
            self.site,
            Some(rule_id),
            Some(trigger),
            now,
            "",
        );
        let rules = Rc::clone(&self.rules);
        let rule = &rules[pos].rule;
        for (step_idx, step) in rule.steps.iter().enumerate() {
            // Step conditions are evaluated at firing time at the RHS
            // site (Appendix A.1), against CM-local data.
            let cond_ok = {
                let env = BindingsEnv {
                    bindings: &bindings,
                    lookup: |item: &ItemId| self.private_lookup(item),
                };
                step.cond.eval(&env)
            };
            if !cond_ok {
                self.stats.inc("shell.steps_skipped");
                continue;
            }
            let Some(desc) = step.event.instantiate(&bindings) else {
                // Unbound variable: specification bug; skip the step.
                self.stats.inc("shell.steps_skipped");
                continue;
            };
            let step_span = self.spans.start(
                SpanKind::RhsStep(step_idx),
                Some(firing_span),
                self.site,
                Some(rule_id),
                Some(trigger),
                ctx.now(),
                desc.tag(),
            );
            self.emit(desc, rule_id, trigger, step_span, ctx);
            self.spans.end(step_span, ctx.now());
        }
        self.spans.end(firing_span, ctx.now());
    }

    /// Emit one generated event: route it to the right component and
    /// record it where the paper says it occurs.
    fn emit(
        &mut self,
        desc: EventDesc,
        rule: RuleId,
        trigger: EventId,
        parent_span: SpanId,
        ctx: &mut Ctx<'_, CmMsg>,
    ) {
        let now = ctx.now();
        match desc {
            EventDesc::Wr { item, value } => {
                // The WR event occurs at the database when it receives
                // the request — the translator records it.
                let req_id =
                    self.track_request(SpanKind::Request, Some(parent_span), Some(rule), ctx);
                self.stats.inc("shell.requests_sent");
                let me = ctx.me();
                ctx.send_local(
                    self.translator,
                    CmMsg::Request {
                        req_id,
                        reply_to: me,
                        rule: Some(rule),
                        trigger: Some(trigger),
                        kind: RequestKind::Write(item, value),
                    },
                    LOCAL_DELAY,
                );
            }
            EventDesc::Rr { item } => {
                let req_id =
                    self.track_request(SpanKind::Request, Some(parent_span), Some(rule), ctx);
                self.stats.inc("shell.requests_sent");
                let me = ctx.me();
                ctx.send_local(
                    self.translator,
                    CmMsg::Request {
                        req_id,
                        reply_to: me,
                        rule: Some(rule),
                        trigger: Some(trigger),
                        kind: RequestKind::Read(item),
                    },
                    LOCAL_DELAY,
                );
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
                self.log_durable(&LogRecord::PrivateWrite {
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

    fn track_request(
        &mut self,
        kind: SpanKind,
        parent: Option<SpanId>,
        rule: Option<RuleId>,
        ctx: &mut Ctx<'_, CmMsg>,
    ) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        let now = ctx.now();
        let span = self
            .spans
            .start(kind, parent, self.site, rule, None, now, "");
        self.metrics
            .inc(Scope::Site(self.site.index()), "shell.deadlines_armed");
        self.outstanding.insert(
            req_id,
            Outstanding {
                flagged: false,
                span,
                sent_at: now,
            },
        );
        self.log_durable(&LogRecord::RequestSent { at: now, req_id });
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
            self.log_durable(&LogRecord::RequestResolved { req_id });
            self.metrics.observe(
                Scope::Site(self.site.index()),
                "shell.request_latency",
                now.saturating_since(o.sent_at),
            );
            self.spans.end(o.span, now);
            if o.flagged {
                // Late response: the failure was metric after all and
                // has now cleared.
                self.spans.annotate(o.span, "cleared-late");
                self.stats.inc("shell.failures_cleared");
                self.metrics.record(
                    now,
                    Scope::Site(self.site.index()),
                    "shell.failure",
                    [
                        ("phase", "cleared".to_string()),
                        ("req", req_id.to_string()),
                    ],
                );
                self.registry.borrow_mut().on_clear(self.site, ctx.now());
                self.log_durable(&LogRecord::Clear {
                    at: now,
                    site: self.site,
                });
                self.broadcast_failure(FailureKindMsg::Cleared, ctx);
            }
        }
    }

    fn broadcast_failure(&self, kind: FailureKindMsg, ctx: &mut Ctx<'_, CmMsg>) {
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
        if !self.outstanding.contains_key(&req_id) {
            return; // answered in time
        }
        if escalation {
            // Still unanswered well past the bound: logical failure.
            self.stats.inc("shell.logical_failures_detected");
            self.metrics.record(
                now,
                Scope::Site(self.site.index()),
                "shell.failure",
                [
                    ("phase", "logical".to_string()),
                    ("req", req_id.to_string()),
                ],
            );
            if let Some(o) = self.outstanding.get(&req_id) {
                self.spans.annotate(o.span, "logical-failure");
                self.spans.end(o.span, now);
            }
            self.record(
                now,
                EventDesc::Custom {
                    name: "FailureDetected".into(),
                    args: vec![
                        Value::Int(i64::from(self.site.index())),
                        Value::Str("logical".into()),
                    ],
                },
                None,
                None,
                None,
            );
            self.registry
                .borrow_mut()
                .on_failure(self.site, FailureKind::Logical, now);
            self.log_durable(&LogRecord::Failure {
                at: now,
                site: self.site,
                kind: fail_to_tag(FailureKind::Logical),
            });
            self.broadcast_failure(FailureKindMsg::Logical, ctx);
        } else {
            if let Some(o) = self.outstanding.get_mut(&req_id) {
                o.flagged = true;
            }
            self.stats.inc("shell.metric_failures_detected");
            self.metrics.record(
                now,
                Scope::Site(self.site.index()),
                "shell.failure",
                [("phase", "metric".to_string()), ("req", req_id.to_string())],
            );
            if let Some(o) = self.outstanding.get(&req_id) {
                self.spans.annotate(o.span, "metric-failure");
            }
            self.record(
                now,
                EventDesc::Custom {
                    name: "FailureDetected".into(),
                    args: vec![
                        Value::Int(i64::from(self.site.index())),
                        Value::Str("metric".into()),
                    ],
                },
                None,
                None,
                None,
            );
            self.registry
                .borrow_mut()
                .on_failure(self.site, FailureKind::Metric, now);
            self.log_durable(&LogRecord::Failure {
                at: now,
                site: self.site,
                kind: fail_to_tag(FailureKind::Metric),
            });
            self.broadcast_failure(FailureKindMsg::Metric, ctx);
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
        self.metrics
            .inc(Scope::Site(self.site.index()), "shell.heartbeats");
        let req_id = self.track_request(SpanKind::Heartbeat, None, None, ctx);
        let me = ctx.me();
        ctx.send_local(
            self.translator,
            CmMsg::Request {
                req_id,
                reply_to: me,
                rule: None,
                trigger: None,
                kind: RequestKind::Enumerate(hcm_core::ItemPattern::plain("__probe__")),
            },
            LOCAL_DELAY,
        );
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
        let rules = Rc::clone(&self.rules);
        let r = &rules[pr.pos];
        let rule_id = r.id;
        let desc = EventDesc::P { period };
        let p_id = self.record(now, desc, None, None, None);
        // Evaluate the LHS condition and fire the RHS (locally, by
        // construction of periodic-rule placement).
        let bindings = Bindings::new();
        let cond_ok = {
            let env = BindingsEnv {
                bindings: &bindings,
                lookup: |item: &ItemId| self.private_lookup(item),
            };
            r.rule.cond.eval(&env)
        };
        if cond_ok {
            self.execute_rhs(rule_id, p_id, bindings, ctx);
        } else {
            self.stats.inc("shell.cond_suppressed");
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
        // Seed initial values of private items into the trace.
        for (item, value) in self.private.borrow().iter() {
            self.recorder.set_initial(item.clone(), value.clone());
        }
    }

    fn on_crash(&mut self, lossy: bool, _ctx: &mut Ctx<'_, CmMsg>) {
        if !lossy || !self.policy.wipes_on_lossy_crash() {
            return;
        }
        self.crashed_lossy = true;
        // The process image is gone: private data, registry statuses
        // and request bookkeeping reset to a fresh start. `next_req`
        // stays monotone so late replies to pre-crash requests cannot
        // collide with requests issued after recovery.
        self.private.borrow_mut().clear();
        self.registry.borrow_mut().reset(SimTime::ZERO);
        self.outstanding.clear();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        if !std::mem::take(&mut self.crashed_lossy) {
            return;
        }
        let now = ctx.now();
        let recovered = self.policy.bridge().map(StoreBridge::recover);
        if let Some((ckpt, records)) = recovered {
            // Snapshot first, then the log suffix on top. Replay only
            // rebuilds in-memory state — the trace recorder already
            // holds the original events as ground truth and must not
            // see them twice.
            let mut pending: BTreeMap<u64, (SimTime, bool)> = BTreeMap::new();
            if let Some(snap) = ckpt.and_then(|blob| ShellSnapshot::decode(&blob).ok()) {
                self.private.borrow_mut().extend(snap.private);
                {
                    let mut reg = self.registry.borrow_mut();
                    for (name, tag, since) in snap.registry {
                        reg.restore(&name, tag_to_status(tag), since);
                    }
                }
                self.next_req = self.next_req.max(snap.next_req);
                for (req_id, sent_at, flagged) in snap.outstanding {
                    pending.insert(req_id, (sent_at, flagged));
                }
            }
            for rec in records {
                match rec {
                    LogRecord::PrivateWrite { item, value, .. } => {
                        self.private.borrow_mut().insert(item, value);
                    }
                    LogRecord::Failure { at, site, kind } => {
                        self.registry
                            .borrow_mut()
                            .on_failure(site, tag_to_fail(kind), at);
                    }
                    LogRecord::Clear { at, site } => {
                        self.registry.borrow_mut().on_clear(site, at);
                    }
                    LogRecord::Reset { at } => self.registry.borrow_mut().reset(at),
                    LogRecord::RequestSent { at, req_id } => {
                        self.next_req = self.next_req.max(req_id + 1);
                        pending.insert(req_id, (at, false));
                    }
                    LogRecord::RequestResolved { req_id } => {
                        pending.remove(&req_id);
                    }
                    // Translator-only records never appear in a shell log.
                    _ => {}
                }
            }
            // Requests that were in flight when the crash hit: re-arm
            // failure detection. A request already flagged metric goes
            // straight to its escalation check; the rest get a fresh
            // metric deadline measured from recovery.
            let outstanding_count = pending.len() as u64;
            for (req_id, (sent_at, flagged)) in pending {
                let span = self.spans.start(
                    SpanKind::Request,
                    None,
                    self.site,
                    None,
                    None,
                    now,
                    "recovered",
                );
                self.outstanding.insert(
                    req_id,
                    Outstanding {
                        flagged,
                        span,
                        sent_at,
                    },
                );
                let (delay, escalation) = if flagged {
                    (self.failure_cfg.escalation, true)
                } else {
                    (self.failure_cfg.deadline, false)
                };
                ctx.schedule_self(delay, CmMsg::CheckDeadline { req_id, escalation });
            }
            self.metrics.record(
                now,
                Scope::Site(self.site.index()),
                "shell.recovered",
                [("outstanding", outstanding_count.to_string())],
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
                bindings,
            } => {
                self.execute_rhs(rule, trigger, bindings, ctx);
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
                let now = ctx.now();
                {
                    let mut reg = self.registry.borrow_mut();
                    match kind {
                        FailureKindMsg::Metric => reg.on_failure(site, FailureKind::Metric, now),
                        FailureKindMsg::Logical => reg.on_failure(site, FailureKind::Logical, now),
                        FailureKindMsg::Cleared => reg.on_clear(site, now),
                    }
                }
                let rec = match kind {
                    FailureKindMsg::Metric => LogRecord::Failure {
                        at: now,
                        site,
                        kind: fail_to_tag(FailureKind::Metric),
                    },
                    FailureKindMsg::Logical => LogRecord::Failure {
                        at: now,
                        site,
                        kind: fail_to_tag(FailureKind::Logical),
                    },
                    FailureKindMsg::Cleared => LogRecord::Clear { at: now, site },
                };
                self.log_durable(&rec);
            }
            other => panic!(
                "shell at {} received unexpected message {other:?}",
                self.site
            ),
        }
    }
}
