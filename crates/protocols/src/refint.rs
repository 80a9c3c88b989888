//! Referential integrity with a bounded violation window (§6.2).
//!
//! Constraint: every employee with a *project record* in the projects
//! database must have a *salary record* in the salary database. The
//! weakened, loosely-coupled-friendly guarantee: "the constraint may be
//! violated for any one employee ID for a period of at most 24 hours".
//!
//! Strategy (the paper's): "at the end of each working day, the CM
//! deletes all project records from the projects database that do not
//! have a corresponding salary record in the salary database". The
//! [`RefintAgent`] implements it over the CMI: enumerate project
//! records, read the matching salary records, delete the dangling
//! projects — all through the two sites' CM-Translators.
//!
//! Checkable form of the guarantee (see `DESIGN.md` on the formula):
//!
//! ```text
//! (exists(project(i))) @@ [t, t + W]  ⇒  exists(salary(i)) @? [t, t + W]
//! ```
//!
//! i.e. a project record that *persists* a full window `W` must have
//! had a salary record some time in that window; repair-by-deletion
//! discharges the antecedent.

use hcm_core::{ItemId, SimDuration, SimTime, Value};
use hcm_obs::{Metrics, Scope};
use hcm_simkit::{Actor, ActorId, Ctx};
use hcm_toolkit::backends::RawStore;
use hcm_toolkit::msg::{CmMsg, RequestKind, TranslatorEvent};
use hcm_toolkit::{Scenario, ScenarioBuilder};
use std::collections::BTreeMap;

enum Phase {
    Idle,
    Enumerating { req: u64 },
    Reading { pending: BTreeMap<u64, ItemId> },
}

/// The end-of-day repair agent. Serves as the CM-Shell for the
/// constraint, talking to both sites' translators over the CMI.
pub struct RefintAgent {
    projects_translator: ActorId,
    salaries_translator: ActorId,
    /// Optional mail translator: the paper's "perhaps notifying the
    /// database owner of the deleted records".
    mail_translator: Option<ActorId>,
    period: SimDuration,
    stop_at: SimTime,
    next_req: u64,
    phase: Phase,
    /// Where the `refint.*` counters go (`Scope::Global`).
    metrics: Metrics,
}

impl RefintAgent {
    fn req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    fn tick_msg() -> CmMsg {
        CmMsg::RuleTick { idx: usize::MAX }
    }
}

impl Actor<CmMsg> for RefintAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        if SimTime::ZERO + self.period <= self.stop_at {
            ctx.schedule_self(self.period, Self::tick_msg());
        }
    }

    fn on_message(&mut self, msg: CmMsg, ctx: &mut Ctx<'_, CmMsg>) {
        match msg {
            CmMsg::RuleTick { .. } => {
                self.metrics.inc(Scope::Global, "refint.cycles");
                let req = self.req();
                self.phase = Phase::Enumerating { req };
                let me = ctx.me();
                ctx.send_local(
                    self.projects_translator,
                    CmMsg::Request {
                        req_id: req,
                        reply_to: me,
                        rule: None,
                        trigger: None,
                        kind: RequestKind::Enumerate(hcm_core::Sym::from("project")),
                    },
                    SimDuration::from_millis(1),
                );
                if ctx.now() + self.period <= self.stop_at {
                    ctx.schedule_self(self.period, Self::tick_msg());
                }
            }
            CmMsg::Cmi(TranslatorEvent::EnumResult { req_id, items }) => {
                let Phase::Enumerating { req } = &self.phase else {
                    return;
                };
                if *req != req_id {
                    return;
                }
                self.metrics
                    .add(Scope::Global, "refint.examined", items.len() as u64);
                let mut pending = BTreeMap::new();
                let me = ctx.me();
                for project in items {
                    let salary_item = ItemId {
                        base: "salary".into(),
                        params: project.params.clone(),
                    };
                    let r = self.req();
                    pending.insert(r, project);
                    ctx.send_local(
                        self.salaries_translator,
                        CmMsg::Request {
                            req_id: r,
                            reply_to: me,
                            rule: None,
                            trigger: None,
                            kind: RequestKind::Read(salary_item),
                        },
                        SimDuration::from_millis(1),
                    );
                }
                self.phase = if pending.is_empty() {
                    Phase::Idle
                } else {
                    Phase::Reading { pending }
                };
            }
            CmMsg::Cmi(TranslatorEvent::ReadResult { req_id, value, .. }) => {
                let Phase::Reading { pending } = &mut self.phase else {
                    return;
                };
                let Some(project) = pending.remove(&req_id) else {
                    return;
                };
                let done = pending.is_empty();
                if value == Value::Null {
                    // Dangling: delete the project record and notify
                    // its owner (§6.2: "perhaps notifying the database
                    // owner of the deleted records").
                    self.metrics.inc(Scope::Global, "refint.deleted");
                    let r = self.req();
                    let me = ctx.me();
                    if let Some(mailer) = self.mail_translator {
                        self.metrics.inc(Scope::Global, "refint.notices_sent");
                        let notice = ItemId {
                            base: "notice".into(),
                            params: project.params.clone(),
                        };
                        let r2 = self.req();
                        ctx.send_local(
                            mailer,
                            CmMsg::Request {
                                req_id: r2,
                                reply_to: me,
                                rule: None,
                                trigger: None,
                                kind: RequestKind::Write(
                                    notice,
                                    Value::from(format!(
                                        "your project record {project} was deleted: no salary record found"
                                    )),
                                ),
                            },
                            SimDuration::from_millis(1),
                        );
                    }
                    ctx.send_local(
                        self.projects_translator,
                        CmMsg::Request {
                            req_id: r,
                            reply_to: me,
                            rule: None,
                            trigger: None,
                            kind: RequestKind::Write(project, Value::Null),
                        },
                        SimDuration::from_millis(1),
                    );
                }
                if done {
                    self.phase = Phase::Idle;
                }
            }
            CmMsg::Cmi(TranslatorEvent::WriteDone { .. }) => {}
            other => panic!("refint agent: unexpected message {other:?}"),
        }
    }
}

const RID_PROJECTS: &str = r#"
ris = relational
service = 100ms
[interface]
WR(project(i), b) -> W(project(i), b) within 1s
RR(project(i)) when project(i) = b -> R(project(i), b) within 1s
[command write project]
update projects set proj = $value where empid = $p0
[command insert project]
insert into projects values ($p0, $value)
[command read project]
select proj from projects where empid = $p0
[command delete project]
delete from projects where empid = $p0
[map project]
table = projects
key = empid
col = proj
"#;

const RID_MAIL: &str = r#"
ris = email
service = 50ms
[interface]
WR(notice(i), b) -> W(notice(i), b) within 1s
[map notice]
subject = project record deleted
"#;

const RID_SALARIES: &str = r#"
ris = relational
service = 100ms
[interface]
RR(salary(i)) when salary(i) = b -> R(salary(i), b) within 1s
[command read salary]
select amount from salaries where empid = $p0
[map salary]
table = salaries
key = empid
col = amount
"#;

/// A built referential-integrity deployment. The repair agent's
/// `refint.*` counters are in the scenario's metrics registry at
/// `Scope::Global`.
pub struct RefintScenario {
    /// Underlying toolkit scenario ("P" = projects site, "S" = salaries
    /// site).
    pub scenario: Scenario,
    /// The repair period (the guarantee window W).
    pub window: SimDuration,
}

/// Build the deployment. `window` is the repair period (the paper's 24
/// hours; tests shrink it). Repairs stop after `stop_at`.
#[must_use]
pub fn build(seed: u64, window: SimDuration, stop_at: SimTime) -> RefintScenario {
    let mut projects = hcm_ris::relational::Database::new();
    projects
        .create_table("projects", &["empid", "proj"])
        .unwrap();
    let mut salaries = hcm_ris::relational::Database::new();
    salaries
        .create_table("salaries", &["empid", "amount"])
        .unwrap();

    let mut scenario = ScenarioBuilder::new(seed)
        .site("P", RawStore::Relational(projects), RID_PROJECTS)
        .unwrap()
        .site("S", RawStore::Relational(salaries), RID_SALARIES)
        .unwrap()
        .site(
            "M",
            RawStore::Email(hcm_ris::email::MailSystem::new()),
            RID_MAIL,
        )
        .unwrap()
        .strategy("[locate]\nproject = P\nsalary = S\nnotice = M\n")
        .build()
        .unwrap();

    let pt = scenario.site("P").translator;
    let st = scenario.site("S").translator;
    let mt = scenario.site("M").translator;
    scenario.add_actor(Box::new(RefintAgent {
        projects_translator: pt,
        salaries_translator: st,
        mail_translator: Some(mt),
        period: window,
        stop_at,
        next_req: 0,
        phase: Phase::Idle,
        metrics: scenario.obs.metrics.clone(),
    }));
    RefintScenario { scenario, window }
}

impl RefintScenario {
    /// Application adds a project record for employee `id` at `t`.
    pub fn add_project(&mut self, t: SimTime, id: &str, proj: &str) {
        self.scenario.inject(
            t,
            "P",
            hcm_toolkit::SpontaneousOp::Sql(format!(
                "insert into projects values ('{id}', '{proj}')"
            )),
        );
    }

    /// Application adds a salary record for employee `id` at `t`.
    pub fn add_salary(&mut self, t: SimTime, id: &str, amount: i64) {
        self.scenario.inject(
            t,
            "S",
            hcm_toolkit::SpontaneousOp::Sql(format!(
                "insert into salaries values ('{id}', {amount})"
            )),
        );
    }

    /// The checkable guarantee for this deployment's window (with a
    /// grace factor for repair processing time).
    #[must_use]
    pub fn guarantee(&self) -> hcm_rulelang::Guarantee {
        // Window plus one repair period of grace: a record created just
        // after a repair waits almost a full period for the next one.
        let w = self.window.as_millis() * 2;
        hcm_rulelang::parse_guarantee(
            "refint_window",
            &format!(
                "(exists(project(i))) @@ [t, t + {w}ms] => exists(salary(i)) @? [t, t + {w}ms]"
            ),
        )
        .expect("valid guarantee")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_checker::guarantee::check_guarantee;

    /// 1-hour window so tests stay small (the paper's 24 h is just a
    /// larger constant).
    const W: SimDuration = SimDuration::from_secs(3600);

    #[test]
    fn dangling_project_deleted_at_end_of_day() {
        let mut r = build(1, W, SimTime::from_secs(4 * 3600));
        r.add_project(SimTime::from_secs(600), "e1", "apollo");
        // No salary for e1.
        r.scenario.run_to_quiescence();
        let deleted = r
            .scenario
            .obs
            .metrics
            .counter(Scope::Global, "refint.deleted");
        assert_eq!(deleted, 1);
        let trace = r.scenario.trace();
        let p = ItemId::with("project", [Value::from("e1")]);
        assert_eq!(trace.value_at(&p, trace.end_time()), Some(Value::Null));
        // Guarantee holds: the antecedent (project persists a full
        // window) is discharged by the deletion.
        let g = r.guarantee();
        let rep = check_guarantee(&trace, &g, None);
        assert!(rep.holds, "{:#?}", rep.violations);
    }

    #[test]
    fn project_with_salary_survives() {
        let mut r = build(2, W, SimTime::from_secs(4 * 3600));
        r.add_salary(SimTime::from_secs(100), "e2", 80_000);
        r.add_project(SimTime::from_secs(600), "e2", "gemini");
        r.scenario.run_to_quiescence();
        let deleted = r
            .scenario
            .obs
            .metrics
            .counter(Scope::Global, "refint.deleted");
        assert_eq!(deleted, 0);
        let trace = r.scenario.trace();
        let p = ItemId::with("project", [Value::from("e2")]);
        assert_eq!(
            trace.value_at(&p, trace.end_time()),
            Some(Value::from("gemini"))
        );
        let rep = check_guarantee(&trace, &r.guarantee(), None);
        assert!(rep.holds, "{:#?}", rep.violations);
    }

    #[test]
    fn late_salary_rescues_project_in_next_cycle() {
        let mut r = build(3, W, SimTime::from_secs(4 * 3600));
        // Project at 10 min, salary at 50 min — before the 60-min
        // repair: survives.
        r.add_project(SimTime::from_secs(600), "e3", "x");
        r.add_salary(SimTime::from_secs(3000), "e3", 1);
        r.scenario.run_to_quiescence();
        let deleted = r
            .scenario
            .obs
            .metrics
            .counter(Scope::Global, "refint.deleted");
        assert_eq!(deleted, 0);
    }

    #[test]
    fn without_repair_guarantee_fails() {
        // Same workload, but the repair agent never ticks (stop_at 0):
        // the dangling project persists past the window and the
        // guarantee is violated — this is the "currently, constraints
        // are simply not monitored" baseline of §1.
        let mut r = build(4, W, SimTime::ZERO);
        r.add_project(SimTime::from_secs(600), "e4", "zombie");
        // Pad the horizon well past the (doubled) window.
        r.add_salary(SimTime::from_secs(9000), "other", 1);
        r.add_salary(SimTime::from_secs(4 * 3600), "other2", 1);
        r.scenario.run_to_quiescence();
        let trace = r.scenario.trace();
        let rep = check_guarantee(&trace, &r.guarantee(), None);
        assert!(
            !rep.holds,
            "dangling project must violate the window guarantee"
        );
    }

    #[test]
    fn multiple_cycles_count() {
        let mut r = build(5, W, SimTime::from_secs(3 * 3600 + 10));
        r.add_project(SimTime::from_secs(100), "a", "p1");
        r.add_project(SimTime::from_secs(4000), "b", "p2");
        r.scenario.run_to_quiescence();
        let m = &r.scenario.obs.metrics;
        assert_eq!(m.counter(Scope::Global, "refint.cycles"), 3);
        assert_eq!(m.counter(Scope::Global, "refint.deleted"), 2);
        assert!(m.counter(Scope::Global, "refint.examined") >= 2);
    }
}
