//! The Demarcation Protocol (§6.1, after Barbará & Garcia-Molina).
//!
//! Constraint: `X ≤ Y`, `X` at site A, `Y` at site B. Each site keeps a
//! local *limit* next to its value — `X ≤ Lx` enforced by A's database
//! (a relational CHECK constraint: the paper's "local constraint
//! managers"), `Y ≥ Ly` by B's — and the protocol maintains the global
//! invariant `Lx ≤ Ly`, so `X ≤ Lx ≤ Ly ≤ Y` **always**, with no
//! distributed transactions.
//!
//! Within its limit a site updates freely. To go beyond, it asks the
//! peer for slack: the peer *moves its own limit first* (which only
//! tightens its side), then grants; the requester moves its limit and
//! retries. How much the peer gives away is the *policy* — the paper
//! notes different \[BGM92\] policies "can then be compared using this
//! guarantee"; [`GrantPolicy`] implements three, and the E3 experiment
//! compares their denial rates and messaging cost.
//!
//! Agents are toolkit citizens: values and limits live in the
//! relational stores, every write flows through the CM-Translator (so
//! CHECK rejections surface as `WriteDone{ok:false}` / `WriteRejected`
//! events), and limit-change traffic is recorded as custom events
//! `LimitReq` / `LimitGrant` / `LimitDeny`.

use hcm_core::{EventDesc, ItemId, SimTime, SiteId, TraceRecorder, Value};
use hcm_obs::{Metrics, Scope};
use hcm_simkit::{Actor, ActorId, Ctx, RunOutcome};
use hcm_toolkit::backends::RawStore;
use hcm_toolkit::msg::{CmMsg, RequestKind, TranslatorEvent};
use hcm_toolkit::{Scenario, ScenarioBuilder};

/// How much slack the peer gives away when asked for `need`, given
/// `avail` (its distance from value to limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantPolicy {
    /// Exactly what was asked (when available): conservative, keeps
    /// local freedom, maximizes round trips.
    Requested,
    /// Everything available: generous, minimizes repeat requests but
    /// starves the granter's own future updates.
    All,
    /// Half of what is available (at least the need when possible).
    HalfAvailable,
}

impl GrantPolicy {
    /// The granted amount (0 = denial).
    #[must_use]
    pub(crate) fn grant(self, need: i64, avail: i64) -> i64 {
        if avail <= 0 || need <= 0 {
            return 0;
        }
        match self {
            GrantPolicy::Requested => {
                if avail >= need {
                    need
                } else {
                    0
                }
            }
            GrantPolicy::All => avail,
            GrantPolicy::HalfAvailable => {
                let half = avail / 2;
                if half >= need {
                    half
                } else if avail >= need {
                    need
                } else {
                    0
                }
            }
        }
    }
}

/// Which side of `X ≤ Y` an agent manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The lower side `X`: increases consume slack.
    Lower,
    /// The upper side `Y`: decreases consume slack.
    Upper,
}

/// One site's protocol agent. It acts as the CM-Shell of its site for
/// this constraint: the translator's events are addressed to it.
pub struct DemarcAgent {
    role: Role,
    translator: ActorId,
    peer: Option<ActorId>,
    /// Cached local state; authoritative copies live in the store.
    value: i64,
    limit: i64,
    item_value: ItemId,
    item_limit: ItemId,
    policy: GrantPolicy,
    /// An attempt waiting for a grant: (desired delta).
    pending: Option<i64>,
    next_req: u64,
    /// Writes in flight: req_id → (is_limit_write, new cached value).
    inflight: std::collections::BTreeMap<u64, (bool, i64)>,
    metrics: Metrics,
    /// `Scope::Site` of the agent's site: every `demarc.*` metric is
    /// written there.
    scope: Scope,
    /// Trace recording: §6.1 formalizes the limit-change negotiation
    /// "by introducing an event to denote a request for a limit-change
    /// operation" — LimitReq / LimitGrant / LimitDeny land in the trace
    /// so the responsiveness guarantee is checkable.
    recorder: Option<(TraceRecorder, SiteId)>,
}

impl DemarcAgent {
    /// Create an agent. `value`/`limit` must match the store's initial
    /// contents; `demarc.*` metrics go to `metrics` under
    /// `Scope::Site(site)`. The peer id is wired afterwards with
    /// [`DemarcAgent::set_peer`] (agents reference each other).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        role: Role,
        translator: ActorId,
        item_value: ItemId,
        item_limit: ItemId,
        value: i64,
        limit: i64,
        policy: GrantPolicy,
        metrics: Metrics,
        site: SiteId,
    ) -> Self {
        DemarcAgent {
            role,
            translator,
            peer: None,
            value,
            limit,
            item_value,
            item_limit,
            policy,
            pending: None,
            next_req: 0,
            inflight: std::collections::BTreeMap::new(),
            metrics,
            scope: Scope::Site(site.index()),
            recorder: None,
        }
    }

    /// Wire the peer agent.
    pub(crate) fn set_peer(&mut self, peer: ActorId) {
        self.peer = Some(peer);
    }

    /// Attach a trace recorder (events recorded at `site`).
    pub(crate) fn set_recorder(&mut self, recorder: TraceRecorder, site: SiteId) {
        self.recorder = Some((recorder, site));
    }

    fn record_custom(&self, now: SimTime, name: &str, args: Vec<Value>) {
        if let Some((rec, site)) = &self.recorder {
            rec.record(
                now,
                *site,
                EventDesc::Custom {
                    name: name.into(),
                    args,
                },
                None,
                None,
                None,
            );
        }
    }

    /// Slack this agent could give away: distance from value to limit.
    fn avail(&self) -> i64 {
        match self.role {
            Role::Lower => self.limit - self.value, // can lower Lx by this
            Role::Upper => self.value - self.limit, // can raise Ly by this
        }
    }

    /// Room left for the agent's own updates.
    fn headroom(&self) -> i64 {
        self.avail()
    }

    fn write(&mut self, ctx: &mut Ctx<'_, CmMsg>, limit_write: bool, new: i64) {
        let req_id = self.next_req;
        self.next_req += 1;
        self.inflight.insert(req_id, (limit_write, new));
        let item = if limit_write {
            self.item_limit.clone()
        } else {
            self.item_value.clone()
        };
        let me = ctx.me();
        ctx.send_local(
            self.translator,
            CmMsg::Request {
                req_id,
                reply_to: me,
                rule: None,
                trigger: None,
                kind: RequestKind::Write(item, Value::Int(new)),
            },
            hcm_core::SimDuration::from_millis(1),
        );
    }

    /// Apply an application attempt to move the value by `delta`
    /// (positive for `Lower`, i.e. X += δ consumes slack; for `Upper`,
    /// δ is how far Y decreases).
    fn try_update(&mut self, delta: i64, ctx: &mut Ctx<'_, CmMsg>) {
        self.metrics.inc(self.scope, "demarc.attempts");
        if delta <= self.headroom() {
            let new = match self.role {
                Role::Lower => self.value + delta,
                Role::Upper => self.value - delta,
            };
            self.metrics.inc(self.scope, "demarc.local_ok");
            self.value = new;
            self.write(ctx, false, new);
        } else if self.pending.is_none() {
            let need = delta - self.headroom();
            self.pending = Some(delta);
            self.metrics.inc(self.scope, "demarc.limit_requests");
            self.record_custom(ctx.now(), "LimitReqSent", vec![Value::Int(need)]);
            if let Some(peer) = self.peer {
                ctx.send(
                    peer,
                    CmMsg::Custom {
                        desc: EventDesc::Custom {
                            name: "LimitReq".into(),
                            args: vec![Value::Int(need)],
                        },
                        rule: None,
                        trigger: None,
                    },
                );
            }
        } else {
            // One outstanding negotiation at a time; concurrent
            // attempts beyond the limit are denied outright.
            self.metrics.inc(self.scope, "demarc.denied");
        }
    }

    /// Peer asks for `need` slack. Move own limit first, then answer.
    fn on_limit_request(&mut self, need: i64, ctx: &mut Ctx<'_, CmMsg>) {
        self.record_custom(
            ctx.now(),
            "LimitReqRecv",
            vec![Value::Int(need), Value::Int(self.avail())],
        );
        let g = self.policy.grant(need, self.avail());
        if g <= 0 {
            self.record_custom(ctx.now(), "LimitDenied", vec![Value::Int(need)]);
            if let Some(peer) = self.peer {
                ctx.send(
                    peer,
                    CmMsg::Custom {
                        desc: EventDesc::Custom {
                            name: "LimitDeny".into(),
                            args: vec![],
                        },
                        rule: None,
                        trigger: None,
                    },
                );
            }
            return;
        }
        // Tighten own limit *first* — the safe order (`Lx ≤ Ly` never
        // breaks): Lower gives slack by lowering Lx, Upper by raising Ly.
        let new_limit = match self.role {
            Role::Lower => self.limit - g,
            Role::Upper => self.limit + g,
        };
        self.limit = new_limit;
        self.write(ctx, true, new_limit);
        self.record_custom(ctx.now(), "LimitGranted", vec![Value::Int(g)]);
        if let Some(peer) = self.peer {
            ctx.send(
                peer,
                CmMsg::Custom {
                    desc: EventDesc::Custom {
                        name: "LimitGrant".into(),
                        args: vec![Value::Int(g)],
                    },
                    rule: None,
                    trigger: None,
                },
            );
        }
    }

    fn on_grant(&mut self, g: i64, ctx: &mut Ctx<'_, CmMsg>) {
        // Widen own limit by the granted slack, then retry the pending
        // update.
        self.metrics
            .gauge_add(self.scope, "demarc.slack_received", g);
        let new_limit = match self.role {
            Role::Lower => self.limit + g,
            Role::Upper => self.limit - g,
        };
        self.limit = new_limit;
        self.write(ctx, true, new_limit);
        if let Some(delta) = self.pending.take() {
            if delta <= self.headroom() {
                let new = match self.role {
                    Role::Lower => self.value + delta,
                    Role::Upper => self.value - delta,
                };
                self.metrics.inc(self.scope, "demarc.granted");
                self.value = new;
                self.write(ctx, false, new);
            } else {
                self.metrics.inc(self.scope, "demarc.denied");
            }
        }
    }

    fn on_deny(&mut self) {
        if self.pending.take().is_some() {
            self.metrics.inc(self.scope, "demarc.denied");
        }
    }
}

impl Actor<CmMsg> for DemarcAgent {
    fn on_message(&mut self, msg: CmMsg, ctx: &mut Ctx<'_, CmMsg>) {
        match msg {
            CmMsg::Custom {
                desc: EventDesc::Custom { name, args },
                ..
            } => match (name.as_str(), args.as_slice()) {
                ("TryUpdate", [Value::Int(delta)]) => self.try_update(*delta, ctx),
                ("LimitReq", [Value::Int(need)]) => self.on_limit_request(*need, ctx),
                ("LimitGrant", [Value::Int(g)]) => self.on_grant(*g, ctx),
                ("LimitDeny", _) => self.on_deny(),
                other => panic!("demarcation agent: unexpected custom event {other:?}"),
            },
            CmMsg::Cmi(TranslatorEvent::WriteDone { req_id, ok }) => {
                let entry = self.inflight.remove(&req_id);
                if !ok {
                    // The local CHECK rejected a write the agent's
                    // cached state said was safe — a protocol bug.
                    panic!(
                        "demarcation invariant broken: store rejected write {entry:?} \
                         (role {:?}, value {}, limit {})",
                        self.role, self.value, self.limit
                    );
                }
            }
            other => panic!("demarcation agent: unexpected message {other:?}"),
        }
    }
}

/// A built demarcation scenario: the toolkit scenario plus the agent
/// actors. The agents' `demarc.*` counters are in the scenario's
/// metrics registry, under site A (X) and site B (Y).
pub struct DemarcScenario {
    /// The underlying toolkit scenario.
    pub scenario: Scenario,
    /// Agent for X (site A).
    pub agent_x: ActorId,
    /// Agent for Y (site B).
    pub agent_y: ActorId,
}

/// Configuration for [`build`].
#[derive(Debug, Clone, Copy)]
pub struct DemarcConfig {
    /// RNG seed.
    pub seed: u64,
    /// Initial X.
    pub x0: i64,
    /// Initial Y.
    pub y0: i64,
    /// Initial shared demarcation line `Lx = Ly`.
    pub line: i64,
    /// Slack-grant policy (both sides).
    pub policy: GrantPolicy,
}

const RID_X: &str = r#"
ris = relational
service = 50ms
[interface]
WR(x, b) -> W(x, b) within 1s
WR(xlim, b) -> W(xlim, b) within 1s
RR(x) when x = b -> R(x, b) within 1s
[command write x]
update demarc set value = $value where name = 'X'
[command write xlim]
update demarc set lim = $value where name = 'X'
[command read x]
select value from demarc where name = 'X'
[command read xlim]
select lim from demarc where name = 'X'
[map x]
table = demarc
key = name
col = value
[map xlim]
table = demarc
key = name
col = lim
"#;

const RID_Y: &str = r#"
ris = relational
service = 50ms
[interface]
WR(y, b) -> W(y, b) within 1s
WR(ylim, b) -> W(ylim, b) within 1s
RR(y) when y = b -> R(y, b) within 1s
[command write y]
update demarc set value = $value where name = 'Y'
[command write ylim]
update demarc set lim = $value where name = 'Y'
[command read y]
select value from demarc where name = 'Y'
[command read ylim]
select lim from demarc where name = 'Y'
[map y]
table = demarc
key = name
col = value
[map ylim]
table = demarc
key = name
col = lim
"#;

/// Build the demarcation scenario: two relational stores with CHECK
/// constraints (`X ≤ Lx`, `Y ≥ Ly`), a translator each, and the two
/// protocol agents wired as their shells' peers.
pub fn build(cfg: DemarcConfig) -> DemarcScenario {
    use hcm_ris::relational::{Check, CheckOperand, Database, SqlOp};

    let mut db_x = Database::new();
    db_x.create_table("demarc", &["name", "value", "lim"])
        .unwrap();
    db_x.execute(&format!(
        "INSERT INTO demarc VALUES ('X', {}, {})",
        cfg.x0, cfg.line
    ))
    .unwrap();
    db_x.add_check(Check {
        table: "demarc".into(),
        left: CheckOperand::Col("value".into()),
        op: SqlOp::Le,
        right: CheckOperand::Col("lim".into()),
    })
    .unwrap();

    let mut db_y = Database::new();
    db_y.create_table("demarc", &["name", "value", "lim"])
        .unwrap();
    db_y.execute(&format!(
        "INSERT INTO demarc VALUES ('Y', {}, {})",
        cfg.y0, cfg.line
    ))
    .unwrap();
    db_y.add_check(Check {
        table: "demarc".into(),
        left: CheckOperand::Col("value".into()),
        op: SqlOp::Ge,
        right: CheckOperand::Col("lim".into()),
    })
    .unwrap();

    let mut scenario = ScenarioBuilder::new(cfg.seed)
        .site("A", RawStore::Relational(db_x), RID_X)
        .unwrap()
        .site("B", RawStore::Relational(db_y), RID_Y)
        .unwrap()
        .strategy("[locate]\nx = A\nxlim = A\ny = B\nylim = B\n")
        .build()
        .unwrap();

    let metrics = scenario.sim.obs().metrics;
    let (site_x, site_y) = (scenario.site("A").site, scenario.site("B").site);
    let tx = scenario.site("A").translator;
    let ty = scenario.site("B").translator;
    // Actor ids are sequential: the next two additions get these ids,
    // so each agent can be constructed already knowing its peer.
    let expected_x = ActorId(scenario.sim.actor_count() as u32);
    let expected_y = ActorId(scenario.sim.actor_count() as u32 + 1);
    let mut ax = DemarcAgent::new(
        Role::Lower,
        tx,
        ItemId::plain("x"),
        ItemId::plain("xlim"),
        cfg.x0,
        cfg.line,
        cfg.policy,
        metrics.clone(),
        site_x,
    );
    ax.set_peer(expected_y);
    ax.set_recorder(scenario.recorder.clone(), site_x);
    let mut ay = DemarcAgent::new(
        Role::Upper,
        ty,
        ItemId::plain("y"),
        ItemId::plain("ylim"),
        cfg.y0,
        cfg.line,
        cfg.policy,
        metrics,
        site_y,
    );
    ay.set_peer(expected_x);
    ay.set_recorder(scenario.recorder.clone(), site_y);
    let agent_x = scenario.add_actor(Box::new(ax));
    let agent_y = scenario.add_actor(Box::new(ay));
    assert_eq!((agent_x, agent_y), (expected_x, expected_y));
    DemarcScenario {
        scenario,
        agent_x,
        agent_y,
    }
}

impl DemarcScenario {
    /// Inject an application attempt at absolute time `t`: the X agent
    /// tries `X += delta`, the Y agent tries `Y -= delta`.
    pub fn try_update(&mut self, t: SimTime, lower_side: bool, delta: i64) {
        let target = if lower_side {
            self.agent_x
        } else {
            self.agent_y
        };
        self.scenario.sim.inject_at(
            t,
            target,
            CmMsg::Custom {
                desc: EventDesc::Custom {
                    name: "TryUpdate".into(),
                    args: vec![Value::Int(delta)],
                },
                rule: None,
                trigger: None,
            },
        );
    }

    /// Run to quiescence.
    pub fn run(&mut self) -> RunOutcome {
        self.scenario.run_to_quiescence()
    }

    /// Check that `X ≤ Y` held at every instant of the recorded trace —
    /// the protocol's headline guarantee.
    #[must_use]
    pub fn invariant_held(&self) -> bool {
        let trace = self.scenario.trace();
        let x = ItemId::plain("x");
        let y = ItemId::plain("y");
        trace.salient_times().iter().all(|&t| {
            let xv = trace.value_at(&x, t).and_then(|v| v.as_int());
            let yv = trace.value_at(&y, t).and_then(|v| v.as_int());
            match (xv, yv) {
                (Some(xv), Some(yv)) => xv <= yv,
                _ => true,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: GrantPolicy) -> DemarcConfig {
        DemarcConfig {
            seed: 3,
            x0: 0,
            y0: 100,
            line: 50,
            policy,
        }
    }

    #[test]
    fn local_updates_within_limits_need_no_messages() {
        let mut d = build(cfg(GrantPolicy::Requested));
        d.try_update(SimTime::from_secs(1), true, 30); // X: 0 → 30 ≤ 50
        d.try_update(SimTime::from_secs(2), false, 40); // Y: 100 → 60 ≥ 50
        d.run();
        assert!(d.invariant_held());
        let sc = &d.scenario;
        assert_eq!(sc.counter("A", "demarc.local_ok"), 1);
        assert_eq!(sc.counter("B", "demarc.local_ok"), 1);
        assert_eq!(sc.counter("A", "demarc.limit_requests"), 0);
        assert_eq!(sc.counter("B", "demarc.limit_requests"), 0);
    }

    #[test]
    fn crossing_the_line_negotiates_slack() {
        let mut d = build(cfg(GrantPolicy::Requested));
        // X wants 80 > line 50; Y has slack 100 − 50 = 50 ≥ need 30.
        d.try_update(SimTime::from_secs(1), true, 80);
        d.run();
        assert!(d.invariant_held());
        let sc = &d.scenario;
        assert_eq!(sc.counter("A", "demarc.granted"), 1);
        assert_eq!(sc.counter("A", "demarc.denied"), 0);
        let slack = sc
            .obs
            .metrics
            .gauge(Scope::Site(0), "demarc.slack_received");
        assert_eq!(slack, Some(30));
        // Final value reached.
        let trace = d.scenario.trace();
        let x = ItemId::plain("x");
        assert_eq!(trace.value_at(&x, trace.end_time()), Some(Value::Int(80)));
    }

    #[test]
    fn insufficient_slack_is_denied_and_invariant_survives() {
        let mut d = build(cfg(GrantPolicy::Requested));
        // X wants 200 — beyond even Y's full slack (Y=100).
        d.try_update(SimTime::from_secs(1), true, 200);
        d.run();
        assert!(d.invariant_held());
        assert_eq!(d.scenario.counter("A", "demarc.granted"), 0);
        assert_eq!(d.scenario.counter("A", "demarc.denied"), 1);
    }

    #[test]
    fn policy_all_reduces_repeat_requests() {
        // Three successive over-the-line increases of 10 each, starting
        // at the line.
        let run_with = |policy| {
            let mut d = build(DemarcConfig {
                seed: 1,
                x0: 50,
                y0: 100,
                line: 50,
                policy,
            });
            for i in 0..3 {
                d.try_update(SimTime::from_secs(1 + i * 10), true, 10);
            }
            d.run();
            assert!(d.invariant_held());
            let x = |name| d.scenario.counter("A", name);
            let ok = x("demarc.granted") + x("demarc.local_ok");
            (x("demarc.limit_requests"), ok, x("demarc.denied"))
        };
        let (req_exact, ok_exact, _) = run_with(GrantPolicy::Requested);
        let (req_all, ok_all, _) = run_with(GrantPolicy::All);
        assert_eq!(ok_exact, 3);
        assert_eq!(ok_all, 3);
        assert!(
            req_all < req_exact,
            "All policy should need fewer limit requests ({req_all} vs {req_exact})"
        );
    }

    #[test]
    fn generous_grants_starve_the_granter() {
        // Y grants everything, then wants to decrease below its new
        // tight limit: denied by X (no slack at X: x0 == its line).
        let mut d = build(DemarcConfig {
            seed: 2,
            x0: 50,
            y0: 100,
            line: 50,
            policy: GrantPolicy::All,
        });
        d.try_update(SimTime::from_secs(1), true, 10); // forces Y to grant all 50
        d.try_update(SimTime::from_secs(10), true, 40); // X uses the rest of its slack
        d.try_update(SimTime::from_secs(20), false, 20); // Y has no slack left anywhere
        d.run();
        assert!(d.invariant_held());
        let denied = d.scenario.counter("B", "demarc.denied");
        assert_eq!(denied, 1, "Y gave away its slack and is now stuck");
    }

    #[test]
    fn grant_policy_math() {
        assert_eq!(GrantPolicy::Requested.grant(10, 50), 10);
        assert_eq!(GrantPolicy::Requested.grant(60, 50), 0);
        assert_eq!(GrantPolicy::All.grant(10, 50), 50);
        assert_eq!(GrantPolicy::HalfAvailable.grant(10, 50), 25);
        assert_eq!(GrantPolicy::HalfAvailable.grant(30, 50), 30);
        assert_eq!(GrantPolicy::HalfAvailable.grant(60, 50), 0);
        assert_eq!(GrantPolicy::All.grant(0, 50), 0);
        assert_eq!(GrantPolicy::All.grant(10, 0), 0);
    }
}
