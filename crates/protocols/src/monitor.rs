//! Monitoring without enforcement (§6.3).
//!
//! Copy constraint `X = Y` where *both* databases offer only notify
//! interfaces — the CM cannot write either item, so "the best the CM
//! can do is to monitor the constraint". The CM maintains auxiliary
//! data `Flag` and `Tb` at the application's site and offers
//!
//! ```text
//! (Flag = true and Tb = s) @ t  ⇒  (X = Y) @@ [s, t − κ]
//! ```
//!
//! where κ covers the notification bounds. The deployment also
//! reproduces Figure 1's Site 3: one [`MonitorAgent`] acts as the
//! CM-Shell for *two* databases' translators (here deliberately
//! heterogeneous — `X` lives in a key-value store, `Y` in a relational
//! database).

use hcm_core::{
    EventDesc, ItemId, RuleRegistry, SimDuration, SimTime, SiteId, TraceRecorder, Value,
};
use hcm_obs::{Metrics, Scope};
use hcm_simkit::{Actor, ActorId, Ctx, RunOutcome, Sim};
use hcm_toolkit::backends::{build_backend, RawStore};
use hcm_toolkit::durability::{LogRecord, Restart};
use hcm_toolkit::msg::{CmMsg, SpontaneousOp, TranslatorEvent};
use hcm_toolkit::rid::CmRid;
use hcm_toolkit::translator::TranslatorActor;
use hcm_toolkit::{Durability, StatePolicy};

/// The application-site shell that serves both databases and maintains
/// the auxiliary items.
pub struct MonitorAgent {
    site: SiteId,
    item_x: ItemId,
    item_y: ItemId,
    cx: Value,
    cy: Value,
    flag: bool,
    recorder: TraceRecorder,
    policy: StatePolicy,
    /// Where the `monitor.transitions` count of Flag transitions goes
    /// (`Scope::Global`).
    metrics: Metrics,
}

impl MonitorAgent {
    fn aux(&self, name: &str) -> ItemId {
        ItemId::plain(name)
    }

    fn set_aux(&self, now: SimTime, name: &str, value: Value, old: Value) {
        self.recorder.record(
            now,
            self.site,
            EventDesc::W {
                item: self.aux(name),
                value,
            },
            Some(old),
            None,
            None,
        );
    }

    fn reevaluate(&mut self, now: SimTime) {
        let eq = self.cx == self.cy;
        if eq && !self.flag {
            self.flag = true;
            self.metrics.inc(Scope::Global, "monitor.transitions");
            self.set_aux(now, "Flag", Value::Bool(true), Value::Bool(false));
            // Tb records *when the agent established* equality; the
            // guarantee's κ absorbs the notification lag.
            self.set_aux(now, "Tb", Value::Int(now.as_millis() as i64), Value::Null);
            self.log_durable(now, ItemId::plain("Flag"), Value::Bool(true));
        } else if !eq && self.flag {
            self.flag = false;
            self.metrics.inc(Scope::Global, "monitor.transitions");
            self.set_aux(now, "Flag", Value::Bool(false), Value::Bool(true));
            self.log_durable(now, ItemId::plain("Flag"), Value::Bool(false));
        }
    }

    /// Log one write of the agent's state — a mirror or `Flag`, as a
    /// CM-private item — when the agent is durable.
    fn log_durable(&mut self, at: SimTime, item: ItemId, value: Value) {
        self.policy
            .log(&LogRecord::PrivateWrite { at, item, value });
    }

    /// Set one item of the agent's state (a mirror or `Flag`), from a
    /// notification or from its store.
    fn set_state(&mut self, item: ItemId, value: Value) {
        if item == self.item_x {
            self.cx = value;
        } else if item == self.item_y {
            self.cy = value;
        } else if item == ItemId::plain("Flag") {
            self.flag = value == Value::Bool(true);
        }
    }
}

impl Actor<CmMsg> for MonitorAgent {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, CmMsg>) {
        self.recorder
            .set_initial(self.aux("Flag"), Value::Bool(self.flag));
        self.recorder.set_initial(self.aux("Tb"), Value::Int(0));
        // Seed the log with the initial state so recovery after a
        // crash that precedes any notification still lands on the
        // right values, not on an empty mirror.
        for (item, value) in [
            (self.item_x.clone(), self.cx.clone()),
            (self.item_y.clone(), self.cy.clone()),
            (ItemId::plain("Flag"), Value::Bool(self.flag)),
        ] {
            self.log_durable(SimTime::ZERO, item, value);
        }
    }

    fn on_message(&mut self, msg: CmMsg, ctx: &mut Ctx<'_, CmMsg>) {
        match msg {
            CmMsg::Cmi(TranslatorEvent::Notify {
                item,
                value,
                rule,
                trigger,
            }) => {
                // Record the N event (this agent *is* the CM-Shell for
                // both sites).
                self.recorder.record(
                    ctx.now(),
                    self.site,
                    EventDesc::N {
                        item: item.clone(),
                        value: value.clone(),
                    },
                    None,
                    Some(rule),
                    Some(trigger),
                );
                if item == self.item_x || item == self.item_y {
                    self.set_state(item.clone(), value.clone());
                    self.log_durable(ctx.now(), item, value);
                }
                self.reevaluate(ctx.now());
            }
            CmMsg::Cmi(_) => {}
            other => panic!("monitor agent: unexpected message {other:?}"),
        }
    }

    fn on_crash(&mut self, lossy: bool, _ctx: &mut Ctx<'_, CmMsg>) {
        if !self.policy.crash(lossy) {
            return;
        }
        // The lossy crash destroys the agent's volatile mirror of both
        // databases and its Flag. Note the *trace* keeps whatever aux
        // values were last recorded — exactly why a storeless restart
        // is dangerous: the world still reads `Flag = true`.
        self.cx = Value::Null;
        self.cy = Value::Null;
        self.flag = false;
    }

    fn on_recover(&mut self, _ctx: &mut Ctx<'_, CmMsg>) {
        let Restart::Replay(records) = self.policy.recover() else {
            return;
        };
        for rec in records {
            if let LogRecord::PrivateWrite { item, value, .. } = rec {
                self.set_state(item, value);
            }
        }
    }
}

const RID_X_KV: &str = r#"
ris = kv
service = 100ms
[interface]
Ws(X, b) -> N(X, b) within 2s
[map X]
key = x
"#;

const RID_Y_REL: &str = r#"
ris = relational
service = 100ms
[interface]
Ws(Y, b) -> N(Y, b) within 2s
[command read Y]
select value from items where name = 'Y'
[map Y]
table = items
key = name
col = value
row = Y
"#;

/// A built monitor deployment.
pub struct MonitorScenario {
    /// The simulation.
    pub sim: Sim<CmMsg>,
    /// Trace recorder (check the guarantee on its snapshot).
    pub recorder: TraceRecorder,
    /// Translator for the kv store holding `X`.
    pub translator_x: ActorId,
    /// Translator for the relational store holding `Y`.
    pub translator_y: ActorId,
    /// κ implied by the interfaces: the max notification bound plus
    /// service/processing slack.
    pub kappa: SimDuration,
}

/// Build the monitor deployment with both items initially `v0`.
#[must_use]
pub fn build(seed: u64, v0: i64) -> MonitorScenario {
    build_with_memory(seed, v0, Durability::MessageOnly)
}

/// Build the monitor deployment with an explicit crash-memory regime
/// for the agent (§5: "crashes can be mapped to metric failures if the
/// database … can remember").
#[must_use]
pub(crate) fn build_with_memory(seed: u64, v0: i64, memory: Durability) -> MonitorScenario {
    let mut sim = Sim::new(seed);
    let recorder = TraceRecorder::new();
    let mut registry = RuleRegistry::new();

    let mut kv = hcm_ris::kvstore::KvStore::new();
    kv.put("x", Value::Int(v0));
    let mut db = hcm_ris::relational::Database::new();
    db.create_table("items", &["name", "value"]).unwrap();
    db.execute(&format!("INSERT INTO items VALUES ('Y', {v0})"))
        .unwrap();

    let rid_x = CmRid::parse(RID_X_KV).expect("valid RID");
    let rid_y = CmRid::parse(RID_Y_REL).expect("valid RID");
    let iface_x: Vec<_> = rid_x
        .interfaces
        .iter()
        .map(|_| registry.register())
        .collect();
    let iface_y: Vec<_> = rid_y
        .interfaces
        .iter()
        .map(|_| registry.register())
        .collect();

    // Actor layout: agent 0, translator_x 1, translator_y 2. The agent
    // is the CM-Shell of *both* sites (paper Fig. 1, Site 3).
    let agent_id = ActorId(0);
    let policy = StatePolicy::new(
        &memory,
        "monitor",
        Scope::Actor(agent_id.0),
        &sim.obs().metrics,
    )
    .expect("the monitor's store opens");
    let agent = MonitorAgent {
        site: SiteId::new(2), // the application's site
        item_x: ItemId::plain("X"),
        item_y: ItemId::plain("Y"),
        cx: Value::Int(v0),
        cy: Value::Int(v0),
        flag: true,
        recorder: recorder.clone(),
        policy,
        metrics: sim.obs().metrics,
    };
    assert_eq!(sim.add_actor(Box::new(agent)), agent_id);

    let never = SimTime::from_millis(u64::MAX);
    let tx = TranslatorActor::new(
        SiteId::new(0),
        agent_id,
        build_backend(RawStore::Kv(kv), &rid_x).expect("the store matches its RID"),
        &rid_x,
        iface_x,
        Vec::new(),
        never,
        recorder.clone(),
        sim.obs().metrics,
    );
    let ty = TranslatorActor::new(
        SiteId::new(1),
        agent_id,
        build_backend(RawStore::Relational(db), &rid_y).expect("the store matches its RID"),
        &rid_y,
        iface_y,
        Vec::new(),
        never,
        recorder.clone(),
        sim.obs().metrics,
    );
    let translator_x = sim.add_actor(Box::new(tx));
    let translator_y = sim.add_actor(Box::new(ty));

    MonitorScenario {
        sim,
        recorder,
        translator_x,
        translator_y,
        // 2s notify bound + 100ms service + margin.
        kappa: SimDuration::from_millis(2500),
    }
}

impl MonitorScenario {
    /// Application writes `X ← v` at `t` (kv-native).
    pub fn write_x(&mut self, t: SimTime, v: i64) {
        self.sim.inject_at(
            t,
            self.translator_x,
            CmMsg::Spontaneous(SpontaneousOp::KvPut {
                key: "x".into(),
                value: Value::Int(v),
            }),
        );
    }

    /// Application writes `Y ← v` at `t` (SQL-native).
    pub fn write_y(&mut self, t: SimTime, v: i64) {
        self.sim.inject_at(
            t,
            self.translator_y,
            CmMsg::Spontaneous(SpontaneousOp::Sql(format!(
                "update items set value = {v} where name = 'Y'"
            ))),
        );
    }

    /// Run to quiescence.
    pub fn run(&mut self) -> RunOutcome {
        self.sim.run(None)
    }

    /// The §6.3 guarantee with this deployment's κ.
    #[must_use]
    pub fn guarantee(&self) -> hcm_rulelang::Guarantee {
        hcm_rulelang::parse_guarantee(
            "monitor",
            &format!(
                "(Flag = true and Tb = s) @ t => (X = Y) @@ [s, t - {}ms]",
                self.kappa.as_millis()
            ),
        )
        .expect("valid guarantee")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_checker::guarantee::check_guarantee;
    use hcm_toolkit::StoreSetup;

    #[test]
    fn flag_clears_on_divergence_and_resets_on_convergence() {
        let mut m = build(1, 10);
        m.write_x(SimTime::from_secs(10), 20); // diverge
        m.write_y(SimTime::from_secs(40), 20); // converge
        assert_eq!(m.run(), RunOutcome::Quiescent);
        let metrics = m.sim.obs().metrics;
        assert_eq!(metrics.counter(Scope::Global, "monitor.transitions"), 2);
        let trace = m.recorder.snapshot();
        let flag = trace.value_at(&ItemId::plain("Flag"), trace.end_time());
        assert_eq!(flag, Some(Value::Bool(true)));
        // Tb was refreshed at the reconvergence (~40s + notify lag).
        let tb = trace
            .value_at(&ItemId::plain("Tb"), trace.end_time())
            .and_then(|v| v.as_int())
            .unwrap();
        assert!(tb >= 40_000, "Tb = {tb}");
    }

    #[test]
    fn guarantee_holds_through_workload() {
        let mut m = build(2, 10);
        m.write_x(SimTime::from_secs(10), 20);
        m.write_y(SimTime::from_secs(40), 20);
        m.write_y(SimTime::from_secs(100), 30);
        m.write_x(SimTime::from_secs(130), 30);
        m.run();
        let trace = m.recorder.snapshot();
        let g = m.guarantee();
        let r = check_guarantee(&trace, &g, None);
        assert!(r.holds, "{:#?}", r.violations);
        assert!(r.instantiations > 0);
    }

    #[test]
    fn stale_flag_would_violate_guarantee() {
        // Adversarial check of the *checker*: a monitor that never
        // clears Flag produces a violating trace. We simulate that by
        // checking a doctored guarantee window on a divergent trace:
        // take the real trace but evaluate with κ = 0 just after a
        // divergence, where the honest agent's Flag is still briefly
        // true while X ≠ Y (notification in flight).
        let mut m = build(3, 10);
        m.write_x(SimTime::from_secs(10), 20);
        m.write_y(SimTime::from_secs(40), 20);
        m.run();
        let trace = m.recorder.snapshot();
        let g0 = hcm_rulelang::parse_guarantee(
            "monitor_k0",
            "(Flag = true and Tb = s) @ t => (X = Y) @@ [s, t]",
        )
        .unwrap();
        let r = check_guarantee(&trace, &g0, None);
        assert!(
            !r.holds,
            "κ = 0 must fail: Flag lags divergence by the notification delay"
        );
    }

    #[test]
    fn durable_agent_recovers_its_mirror_and_keeps_monitoring() {
        let mut m = build_with_memory(7, 10, Durability::Durable(StoreSetup::default()));
        m.write_x(SimTime::from_secs(10), 20); // diverge: Flag clears
                                               // The agent is actor 0.
        m.sim.crash_at(ActorId(0), SimTime::from_secs(30), true);
        m.sim.recover_at(ActorId(0), SimTime::from_secs(35));
        m.write_y(SimTime::from_secs(40), 20); // converge again
        m.run();
        // The recovered agent remembered cx = 20 and flag = false, so
        // the Y notification re-establishes equality: two transitions,
        // Flag true, guarantee intact.
        let metrics = m.sim.obs().metrics;
        assert_eq!(metrics.counter(Scope::Global, "monitor.transitions"), 2);
        let trace = m.recorder.snapshot();
        assert_eq!(
            trace.value_at(&ItemId::plain("Flag"), trace.end_time()),
            Some(Value::Bool(true))
        );
        let r = check_guarantee(&trace, &m.guarantee(), None);
        assert!(r.holds, "{:#?}", r.violations);
        assert!(metrics.counter(Scope::Actor(0), "store.appends") > 0);
        assert_eq!(metrics.counter(Scope::Actor(0), "store.recoveries"), 1);
    }

    #[test]
    fn storeless_agent_goes_blind_after_crash() {
        // Same schedule, no memory: the wiped agent recovers with a
        // Null mirror. The Y notification alone cannot re-establish
        // equality (cx is Null), so the monitor stays dark — Flag
        // never returns to true even though X = Y in the world.
        let mut m = build_with_memory(7, 10, Durability::LoseState);
        m.write_x(SimTime::from_secs(10), 20);
        // The agent is actor 0.
        m.sim.crash_at(ActorId(0), SimTime::from_secs(30), true);
        m.sim.recover_at(ActorId(0), SimTime::from_secs(35));
        m.write_y(SimTime::from_secs(40), 20);
        m.run();
        let metrics = m.sim.obs().metrics;
        let transitions = metrics.counter(Scope::Global, "monitor.transitions");
        assert_eq!(transitions, 1, "only the divergence");
        let trace = m.recorder.snapshot();
        assert_eq!(
            trace.value_at(&ItemId::plain("Flag"), trace.end_time()),
            Some(Value::Bool(false)),
            "the monitor misses the reconvergence for good"
        );
    }

    #[test]
    fn heterogeneous_stores_really_used() {
        let mut m = build(4, 5);
        m.write_x(SimTime::from_secs(1), 6);
        m.run();
        let trace = m.recorder.snapshot();
        // The Ws from the kv store and its N at the shared shell.
        let tags: Vec<&str> = trace.events().iter().map(|e| e.desc.tag()).collect();
        assert!(tags.contains(&"Ws"));
        assert!(tags.contains(&"N"));
        assert!(tags.contains(&"W"), "aux updates recorded");
    }
}
