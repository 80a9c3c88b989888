//! Scenario construction — wiring sites, translators, shells,
//! strategies, workloads and failure schedules into a simulation.
//!
//! A scenario mirrors the toolkit deployment of Figure 2: one Raw
//! Information Source + CM-Translator + CM-Shell per site, a Strategy
//! Specification shared by all shells, and applications (workloads)
//! operating on the stores natively. [`ScenarioBuilder`] performs the
//! §4.1 initialization — registering interface statements, compiling
//! and distributing strategy rules, deriving interest patterns,
//! registering guarantees — and yields a [`Scenario`] ready to run.

use crate::backends::{build_backend, RawStore};
use crate::compile::CompiledStrategy;
use crate::durability::{Durability, StatePolicy};
use crate::msg::{CmMsg, SpontaneousOp};
use crate::registry::GuaranteeRegistry;
use crate::rid::CmRid;
use crate::shell::{FailureConfig, ShellActor};
use crate::translator::TranslatorActor;
use hcm_core::{
    ItemId, RuleId, RuleRegistry, SimDuration, SimTime, SiteId, Trace, TraceRecorder, Value,
};
use hcm_obs::Scope;
use hcm_simkit::{Actor, ActorId, Network, Obs, RunOutcome, Sim};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// A scenario-construction error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Description.
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario error: {}", self.msg)
    }
}

impl std::error::Error for ScenarioError {}

struct SiteSpec {
    name: String,
    rid: CmRid,
    store: RawStore,
}

/// Handles to one site's components, for inspection by experiments.
pub struct SiteHandle {
    /// The site id.
    pub site: SiteId,
    /// Its name in specification files.
    pub name: String,
    /// The translator actor.
    pub translator: ActorId,
    /// The shell actor.
    pub shell: ActorId,
    /// Interface-statement rule ids, in CM-RID order.
    pub iface_ids: Vec<RuleId>,
    /// The parsed CM-RID (interface statements in the same order as
    /// `iface_ids`) — checkers rebuild the rule set from this.
    pub rid: CmRid,
    /// CM-private/auxiliary data of the shell (§7.1: applications read
    /// auxiliary data through the shell's programmatic interface —
    /// this is that interface).
    pub private: Rc<RefCell<BTreeMap<ItemId, Value>>>,
    /// The shell's guarantee registry.
    pub registry: Rc<RefCell<GuaranteeRegistry>>,
}

/// Builder for a toolkit deployment. See the module docs.
pub struct ScenarioBuilder {
    seed: u64,
    network: Option<Network>,
    sites: Vec<SiteSpec>,
    strategy_src: String,
    failure_cfg: FailureConfig,
    stop_periodics_at: SimTime,
    private_init: Vec<(String, ItemId, Value)>,
    durability: Durability,
}

impl ScenarioBuilder {
    /// A builder with the given RNG seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ScenarioBuilder {
            seed,
            network: None,
            sites: Vec::new(),
            strategy_src: String::new(),
            failure_cfg: FailureConfig::default(),
            stop_periodics_at: SimTime::from_millis(u64::MAX),
            private_init: Vec::new(),
            durability: Durability::default(),
        }
    }

    /// What a *lossy* crash does to component state (§5): the default
    /// [`Durability::MessageOnly`] only drops messages,
    /// [`Durability::LoseState`] also wipes volatile shell/translator
    /// state, and [`Durability::Durable`] wipes it but recovers it by
    /// replaying a write-ahead log. Under both, the crash also cancels
    /// the component's pending timers.
    #[must_use]
    pub fn durability(mut self, d: Durability) -> Self {
        self.durability = d;
        self
    }

    /// Use an explicit network model.
    #[must_use]
    pub fn network(mut self, net: Network) -> Self {
        self.network = Some(net);
        self
    }

    /// Failure-detection configuration for every shell.
    #[must_use]
    pub fn failure_config(mut self, cfg: FailureConfig) -> Self {
        self.failure_cfg = cfg;
        self
    }

    /// Stop re-arming periodic timers (interface polls and `P`-headed
    /// rules) after `t`, so the simulation can drain to quiescence.
    #[must_use]
    pub fn stop_periodics_at(mut self, t: SimTime) -> Self {
        self.stop_periodics_at = t;
        self
    }

    /// Add a site: a name (used in specification files), a prepared raw
    /// store, and its CM-RID text.
    pub fn site(
        mut self,
        name: &str,
        store: RawStore,
        rid_src: &str,
    ) -> Result<Self, ScenarioError> {
        let rid = CmRid::parse(rid_src).map_err(|e| ScenarioError { msg: e.to_string() })?;
        self.sites.push(SiteSpec {
            name: name.to_owned(),
            rid,
            store,
        });
        Ok(self)
    }

    /// Set the Strategy Specification text (see
    /// [`crate::compile::CompiledStrategy::from_spec`] for the format).
    #[must_use]
    pub fn strategy(mut self, src: &str) -> Self {
        self.strategy_src = src.to_owned();
        self
    }

    /// Initialize a CM-private item at a named site's shell.
    #[must_use]
    pub fn private_data(mut self, site: &str, item: ItemId, value: Value) -> Self {
        self.private_init.push((site.to_owned(), item, value));
        self
    }

    /// Perform initialization and produce a runnable [`Scenario`].
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let n = self.sites.len();
        if n == 0 {
            return Err(ScenarioError {
                msg: "a scenario needs at least one site".into(),
            });
        }
        let mut site_ids = BTreeMap::new();
        for (i, s) in self.sites.iter().enumerate() {
            if site_ids
                .insert(s.name.clone(), SiteId::new(i as u32))
                .is_some()
            {
                return Err(ScenarioError {
                    msg: format!("duplicate site name `{}`", s.name),
                });
            }
        }

        let recorder = TraceRecorder::new();
        let mut registry = RuleRegistry::new();

        // Interface statements register first, per site and in CM-RID
        // order, so events generated by translators have stable rule
        // ids.
        let mut iface_ids: Vec<Vec<RuleId>> = Vec::with_capacity(n);
        for s in &self.sites {
            iface_ids.push(
                s.rid
                    .interfaces
                    .iter()
                    .map(|_| registry.register())
                    .collect(),
            );
        }

        let strategy = CompiledStrategy::from_spec(&self.strategy_src, &site_ids, &mut registry)
            .map_err(|e| ScenarioError { msg: e.to_string() })?;

        let mut sim = Sim::with_network(self.seed, self.network.unwrap_or_default());
        let obs = sim.obs();
        let policy = |label: String, scope| {
            StatePolicy::new(&self.durability, &label, scope, &obs.metrics).map_err(|e| {
                ScenarioError {
                    msg: format!("store `{label}`: {e}"),
                }
            })
        };

        // Actor id layout: shells first (0..n), translators next (n..2n).
        let shell_ids: Vec<ActorId> = (0..n).map(|i| ActorId(i as u32)).collect();

        // Per-site shared state.
        let mut privates = Vec::with_capacity(n);
        let mut registries = Vec::with_capacity(n);
        for i in 0..n {
            let mut private = BTreeMap::new();
            for (site_name, item, value) in &self.private_init {
                if site_ids[site_name] == SiteId::new(i as u32) {
                    private.insert(item.clone(), value.clone());
                }
            }
            privates.push(Rc::new(RefCell::new(private)));
            let mut greg = GuaranteeRegistry::new();
            for g in &strategy.guarantees {
                greg.register(g.clone(), strategy.guarantee_sites(g));
            }
            registries.push(Rc::new(RefCell::new(greg)));
        }

        for (i, _) in self.sites.iter().enumerate() {
            let site = SiteId::new(i as u32);
            let mut shell = ShellActor::new(
                site,
                ActorId((n + i) as u32),
                shell_ids.clone(),
                &strategy,
                privates[i].clone(),
                registries[i].clone(),
                recorder.clone(),
                obs.clone(),
                self.failure_cfg,
                self.stop_periodics_at,
            );
            shell.set_state_policy(policy(format!("site{i}-shell"), Scope::Actor(i as u32))?);
            let id = sim.add_actor(Box::new(shell));
            assert_eq!(id, ActorId(i as u32), "actor id layout violated");
        }

        let mut site_handles = Vec::with_capacity(n);
        for (i, s) in self.sites.into_iter().enumerate() {
            let site = SiteId::new(i as u32);
            let backend = build_backend(s.store, &s.rid).map_err(|e| ScenarioError {
                msg: format!("site `{}`: {e}", s.name),
            })?;
            let mut translator = TranslatorActor::new(
                site,
                ActorId(i as u32),
                backend,
                &s.rid,
                iface_ids[i].clone(),
                strategy.interest_patterns(site),
                self.stop_periodics_at,
                recorder.clone(),
                obs.metrics.clone(),
            );
            translator.set_state_policy(policy(
                format!("site{i}-translator"),
                Scope::Actor((n + i) as u32),
            )?);
            let id = sim.add_actor(Box::new(translator));
            assert_eq!(id, ActorId((n + i) as u32), "actor id layout violated");
            site_handles.push(SiteHandle {
                site,
                name: s.name,
                translator: id,
                shell: shell_ids[i],
                iface_ids: iface_ids[i].clone(),
                rid: s.rid,
                private: privates[i].clone(),
                registry: registries[i].clone(),
            });
        }

        Ok(Scenario {
            obs,
            sim,
            recorder,
            rule_registry: registry,
            strategy,
            sites: site_handles,
        })
    }
}

/// A runnable toolkit deployment.
pub struct Scenario {
    /// The observability registry shared by the simulation substrate
    /// and every shell/translator (metrics + causal spans).
    pub obs: Obs,
    /// The underlying simulation (exposed for failure injection and
    /// custom actors).
    pub sim: Sim<CmMsg>,
    /// The shared trace recorder.
    pub recorder: TraceRecorder,
    /// Rule-id registry (interface + strategy rules).
    pub rule_registry: RuleRegistry,
    /// The compiled strategy.
    pub strategy: CompiledStrategy,
    /// Per-site handles, in site order.
    pub sites: Vec<SiteHandle>,
}

impl Scenario {
    /// Handle of a site by name. Panics on unknown names (construction
    /// bug).
    #[must_use]
    pub fn site(&self, name: &str) -> &SiteHandle {
        self.sites
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no site named `{name}`"))
    }

    /// Counter `name` of a named site (`Scope::Site`), as its shell,
    /// translator or protocol agent wrote it to the metrics registry.
    #[must_use]
    pub fn counter(&self, site: &str, name: &str) -> u64 {
        let scope = Scope::Site(self.site(site).site.index());
        self.obs.metrics.counter(scope, name)
    }

    /// Inject a spontaneous application operation at a named site at an
    /// absolute time.
    pub fn inject(&mut self, at: SimTime, site: &str, op: SpontaneousOp) {
        let target = self.site(site).translator;
        self.sim.inject_at(at, target, CmMsg::Spontaneous(op));
    }

    /// Add a workload (or protocol) actor.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<CmMsg>>) -> ActorId {
        self.sim.add_actor(actor)
    }

    /// Inflict an overload window on a site's database: its internal
    /// service delay grows by `extra` during `[from, to)` — the §5
    /// *metric failure* generator.
    pub fn overload(&mut self, site: &str, from: SimTime, to: SimTime, extra: SimDuration) {
        let t = self.site(site).translator;
        self.sim.inject_at(from, t, CmMsg::SetServiceExtra(extra));
        self.sim
            .inject_at(to, t, CmMsg::SetServiceExtra(SimDuration::ZERO));
    }

    /// Crash a site's database at `at` — the §5 *logical failure*
    /// generator. With `lossy`, in-flight messages are dropped; else
    /// they replay at recovery.
    pub fn crash(&mut self, site: &str, at: SimTime, lossy: bool) {
        let t = self.site(site).translator;
        self.sim.crash_at(t, at, lossy);
    }

    /// Recover a crashed site at `at`.
    pub fn recover(&mut self, site: &str, at: SimTime) {
        let t = self.site(site).translator;
        self.sim.recover_at(t, at);
    }

    /// Crash a site's CM-Shell at `at`. Under
    /// [`crate::Durability::LoseState`] or
    /// [`crate::Durability::Durable`] a lossy shell crash also wipes
    /// its volatile state (private data, guarantee registry,
    /// outstanding requests).
    pub fn crash_shell(&mut self, site: &str, at: SimTime, lossy: bool) {
        let s = self.site(site).shell;
        self.sim.crash_at(s, at, lossy);
    }

    /// Recover a crashed CM-Shell at `at`. Durable shells replay their
    /// whole log before resuming.
    pub fn recover_shell(&mut self, site: &str, at: SimTime) {
        let s = self.site(site).shell;
        self.sim.recover_at(s, at);
    }

    /// Reset the system at a site at `at` (§5: logical suspensions
    /// last "until the system is reset"). The site's shell returns
    /// every guarantee to valid and logs the reset, so a durable shell
    /// that crashes afterwards replays it and stays reset.
    pub fn reset(&mut self, site: &str, at: SimTime) {
        let s = self.site(site).shell;
        self.sim.inject_at(at, s, CmMsg::Reset);
    }

    /// Run until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.sim.run(Some(horizon))
    }

    /// Run until no work remains (requires
    /// [`ScenarioBuilder::stop_periodics_at`] for scenarios with
    /// periodic interfaces or rules).
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.sim.run(None)
    }

    /// Snapshot the recorded trace: O(1), it shares the recorder's.
    #[must_use]
    pub fn trace(&self) -> Trace {
        self.recorder.snapshot()
    }

    /// Human-readable metrics table for the run so far.
    #[must_use]
    pub fn metrics_table(&self) -> String {
        self.obs.table()
    }

    /// Deterministic JSON-lines metrics snapshot: byte-identical
    /// across same-seed runs of the same scenario.
    #[must_use]
    pub fn metrics_jsonl(&self) -> String {
        self.obs.snapshot_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use hcm_ris::relational::Database;

    const RID_A: &str = r#"
ris = relational
service = 200ms
[interface]
Ws(salary1(n), b) -> N(salary1(n), b) within 2s
RR(salary1(n)) when salary1(n) = b -> R(salary1(n), b) within 1s
[command read salary1]
select salary from employees where empid = $p0
[map salary1]
table = employees
key = empid
col = salary
"#;

    const RID_B: &str = r#"
ris = relational
service = 200ms
[interface]
WR(salary2(n), b) -> W(salary2(n), b) within 1s
Ws(salary2(n), b) -> false
[command write salary2]
update employees set salary = $value where empid = $p0
[command insert salary2]
insert into employees values ($p0, $value)
[command read salary2]
select salary from employees where empid = $p0
[map salary2]
table = employees
key = empid
col = salary
"#;

    const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s

[guarantee y_follows_x]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 < t1
"#;

    fn db_with_salary(v: i64) -> Database {
        let mut db = Database::new();
        db.create_table("employees", &["empid", "salary"]).unwrap();
        db.execute(&format!("INSERT INTO employees VALUES ('e1', {v})"))
            .unwrap();
        db
    }

    fn build_salary_scenario() -> Scenario {
        ScenarioBuilder::new(42)
            .site("A", RawStore::Relational(db_with_salary(90_000)), RID_A)
            .unwrap()
            .site("B", RawStore::Relational(db_with_salary(90_000)), RID_B)
            .unwrap()
            .strategy(STRATEGY)
            .build()
            .unwrap()
    }

    #[test]
    fn salary_update_propagates_end_to_end() {
        let mut sc = build_salary_scenario();
        sc.inject(
            SimTime::from_secs(10),
            "A",
            SpontaneousOp::Sql("update employees set salary = 95000 where empid = 'e1'".into()),
        );
        assert_eq!(sc.run_to_quiescence(), RunOutcome::Quiescent);
        let trace = sc.trace();
        // Expect the full causal chain: Ws at A, N at A, WR at B, W at B.
        let tags: Vec<&str> = trace.events().iter().map(|e| e.desc.tag()).collect();
        assert_eq!(tags, vec!["Ws", "N", "WR", "W"]);
        // Values propagated.
        let item2 = ItemId::with("salary2", [Value::from("e1")]);
        assert_eq!(
            trace.value_at(&item2, trace.end_time()),
            Some(Value::Int(95_000))
        );
        // Provenance chain intact.
        let n_event = &trace.events()[1];
        assert_eq!(n_event.trigger, Some(trace.events()[0].id));
        let w_event = &trace.events()[3];
        assert_eq!(w_event.trigger, Some(trace.events()[2].id));
        // Metric bound: W within 5s+1s+net of the Ws.
        let delay = w_event.time - trace.events()[0].time;
        assert!(
            delay < SimDuration::from_secs(6),
            "propagation took {delay}"
        );
        // Stats.
        assert_eq!(sc.counter("A", "translator.notifications"), 1);
        assert_eq!(sc.counter("B", "translator.writes_done"), 1);
        assert_eq!(sc.counter("B", "shell.firings"), 1, "RHS executes at B");
    }

    #[test]
    fn initial_values_recorded() {
        let mut sc = build_salary_scenario();
        sc.run_to_quiescence();
        let trace = sc.trace();
        let item1 = ItemId::with("salary1", [Value::from("e1")]);
        assert_eq!(trace.initial(&item1), Some(&Value::Int(90_000)));
    }

    #[test]
    fn multiple_updates_propagate_in_order() {
        let mut sc = build_salary_scenario();
        for (i, v) in [91_000, 92_000, 93_000].iter().enumerate() {
            sc.inject(
                SimTime::from_secs(10 + i as u64 * 10),
                "A",
                SpontaneousOp::Sql(format!(
                    "update employees set salary = {v} where empid = 'e1'"
                )),
            );
        }
        sc.run_to_quiescence();
        let trace = sc.trace();
        let item2 = ItemId::with("salary2", [Value::from("e1")]);
        let tl = trace.timeline(&item2);
        let vals = tl.values_taken();
        assert_eq!(
            vals,
            vec![
                Value::Int(90_000), // initial
                Value::Int(91_000),
                Value::Int(92_000),
                Value::Int(93_000)
            ]
        );
    }

    #[test]
    fn unknown_site_panics() {
        let sc = build_salary_scenario();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sc.site("Z");
        }));
        assert!(r.is_err());
    }

    #[test]
    fn empty_scenario_rejected() {
        assert!(ScenarioBuilder::new(1).build().is_err());
    }

    #[test]
    fn duplicate_site_rejected() {
        let r = ScenarioBuilder::new(1)
            .site("A", RawStore::Relational(db_with_salary(1)), RID_A)
            .unwrap()
            .site("A", RawStore::Relational(db_with_salary(1)), RID_A)
            .unwrap()
            .strategy("")
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn prohibition_violation_counted() {
        let mut sc = build_salary_scenario();
        // Site B promised no spontaneous writes to salary2 — violate it.
        sc.inject(
            SimTime::from_secs(5),
            "B",
            SpontaneousOp::Sql("update employees set salary = 1 where empid = 'e1'".into()),
        );
        sc.run_to_quiescence();
        assert_eq!(sc.counter("B", "translator.prohibition_violations"), 1);
    }

    #[test]
    fn read_interface_round_trip() {
        // Poll-style strategy: P fires once (stop_periodics early).
        let strategy = r#"
[locate]
salary1 = A
salary2 = B
[strategy]
P(10s) -> RR(salary1(n)) within 1s
"#;
        // RR(salary1(n)) has an unbound parameter `n`; instantiation
        // fails and the step is skipped — this documents that polling
        // parameterized items needs ground rules or periodic-notify
        // interfaces instead.
        let mut sc = ScenarioBuilder::new(7)
            .site("A", RawStore::Relational(db_with_salary(90_000)), RID_A)
            .unwrap()
            .site("B", RawStore::Relational(db_with_salary(90_000)), RID_B)
            .unwrap()
            .strategy(strategy)
            .stop_periodics_at(SimTime::from_secs(15))
            .build()
            .unwrap();
        sc.run_to_quiescence();
        assert!(sc.counter("A", "shell.steps_skipped") >= 1);
    }
}
