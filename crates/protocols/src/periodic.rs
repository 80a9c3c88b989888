//! Periodic guarantees — the §6.4 banking scenario.
//!
//! "Consider an old-fashioned banking environment in which all update
//! transactions occur between 9 a.m. and 5 p.m. … A simple strategy is
//! to propagate the new values of account balances from the branch to
//! the head office at the end of each working day." With a no-updates
//! window 17:00–08:00 and a 15-minute propagation batch, the toolkit
//! can offer: *balances agree from 17:15 until 08:00 the next day*.
//!
//! The [`BatchAgent`] runs at `batch_at` (+ optional clock skew, for
//! the §7.2 clock-synchronization experiment E11): it enumerates the
//! branch's balances, reads each, and writes them to the head office —
//! all over the CMI.

use hcm_core::{ItemId, SimDuration, SimTime};
use hcm_obs::{Metrics, Scope};
use hcm_simkit::{Actor, ActorId, Ctx};
use hcm_toolkit::backends::RawStore;
use hcm_toolkit::msg::{CmMsg, RequestKind, TranslatorEvent};
use hcm_toolkit::{Scenario, ScenarioBuilder};
use std::collections::BTreeMap;

enum Phase {
    Idle,
    Enumerating {
        req: u64,
    },
    Reading {
        pending: BTreeMap<u64, ItemId>,
        writes_outstanding: u64,
    },
    Writing {
        writes_outstanding: u64,
    },
}

/// The end-of-day propagator, a CM-Shell for the constraint serving
/// both sites.
pub struct BatchAgent {
    branch_translator: ActorId,
    hq_translator: ActorId,
    /// Absolute batch start times (one per day), already skew-adjusted.
    schedule: Vec<SimTime>,
    next_req: u64,
    phase: Phase,
    /// Where the `batch.*` metrics go (`Scope::Global`).
    metrics: Metrics,
}

impl BatchAgent {
    fn req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }
}

impl Actor<CmMsg> for BatchAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        for &t in &self.schedule {
            ctx.schedule_self(
                t.saturating_since(SimTime::ZERO),
                CmMsg::RuleTick { idx: 0 },
            );
        }
    }

    fn on_message(&mut self, msg: CmMsg, ctx: &mut Ctx<'_, CmMsg>) {
        match msg {
            CmMsg::RuleTick { .. } => {
                self.metrics.inc(Scope::Global, "batch.batches");
                let req = self.req();
                self.phase = Phase::Enumerating { req };
                let me = ctx.me();
                ctx.send_local(
                    self.branch_translator,
                    CmMsg::Request {
                        req_id: req,
                        reply_to: me,
                        rule: None,
                        trigger: None,
                        kind: RequestKind::Enumerate(hcm_core::Sym::from("bbal")),
                    },
                    SimDuration::from_millis(1),
                );
            }
            CmMsg::Cmi(TranslatorEvent::EnumResult { req_id, items }) => {
                let Phase::Enumerating { req } = &self.phase else {
                    return;
                };
                if *req != req_id {
                    return;
                }
                let me = ctx.me();
                let mut pending = BTreeMap::new();
                for item in items {
                    let r = self.req();
                    pending.insert(r, item.clone());
                    ctx.send_local(
                        self.branch_translator,
                        CmMsg::Request {
                            req_id: r,
                            reply_to: me,
                            rule: None,
                            trigger: None,
                            kind: RequestKind::Read(item),
                        },
                        SimDuration::from_millis(1),
                    );
                }
                self.phase = if pending.is_empty() {
                    Phase::Idle
                } else {
                    Phase::Reading {
                        pending,
                        writes_outstanding: 0,
                    }
                };
            }
            CmMsg::Cmi(TranslatorEvent::ReadResult { req_id, value, .. }) => {
                let (branch_item, w, empty) = {
                    let Phase::Reading {
                        pending,
                        writes_outstanding,
                    } = &mut self.phase
                    else {
                        return;
                    };
                    let Some(item) = pending.remove(&req_id) else {
                        return;
                    };
                    *writes_outstanding += 1;
                    (item, *writes_outstanding, pending.is_empty())
                };
                let hq_item = ItemId {
                    base: "hbal".into(),
                    params: branch_item.params,
                };
                let r = self.req();
                self.metrics.inc(Scope::Global, "batch.propagated");
                let me = ctx.me();
                ctx.send_local(
                    self.hq_translator,
                    CmMsg::Request {
                        req_id: r,
                        reply_to: me,
                        rule: None,
                        trigger: None,
                        kind: RequestKind::Write(hq_item, value),
                    },
                    SimDuration::from_millis(1),
                );
                if empty {
                    self.phase = Phase::Writing {
                        writes_outstanding: w,
                    };
                }
            }
            CmMsg::Cmi(TranslatorEvent::WriteDone { .. }) => {
                let done = match &mut self.phase {
                    Phase::Writing { writes_outstanding } => {
                        *writes_outstanding -= 1;
                        *writes_outstanding == 0
                    }
                    Phase::Reading {
                        writes_outstanding, ..
                    } => {
                        *writes_outstanding -= 1;
                        false
                    }
                    _ => false,
                };
                if done {
                    self.phase = Phase::Idle;
                    self.metrics.gauge_set(
                        Scope::Global,
                        "batch.last_finish_ms",
                        ctx.now().as_millis() as i64,
                    );
                }
            }
            other => panic!("batch agent: unexpected message {other:?}"),
        }
    }
}

const RID_BRANCH: &str = r#"
ris = relational
service = 100ms
[interface]
RR(bbal(n)) when bbal(n) = b -> R(bbal(n), b) within 1s
[command read bbal]
select bal from accounts where acct = $p0
[map bbal]
table = accounts
key = acct
col = bal
"#;

const RID_HQ: &str = r#"
ris = relational
service = 100ms
[interface]
WR(hbal(n), b) -> W(hbal(n), b) within 1s
RR(hbal(n)) when hbal(n) = b -> R(hbal(n), b) within 1s
[command write hbal]
update accounts set bal = $value where acct = $p0
[command insert hbal]
insert into accounts values ($p0, $value)
[command read hbal]
select bal from accounts where acct = $p0
[map hbal]
table = accounts
key = acct
col = bal
"#;

/// Seconds-from-midnight helpers for readable scenarios.
pub mod clock {
    /// 09:00.
    pub const NINE_AM: u64 = 9 * 3600;
    /// 17:00.
    pub const FIVE_PM: u64 = 17 * 3600;
    /// 17:15.
    pub const FIVE_FIFTEEN_PM: u64 = 17 * 3600 + 900;
    /// 08:00 next day.
    pub const EIGHT_AM_NEXT: u64 = 32 * 3600;
}

/// A built banking deployment. The batch agent's `batch.*` counters,
/// and the `batch.last_finish_ms` gauge, are in the scenario's metrics
/// registry at `Scope::Global`.
pub struct BankScenario {
    /// Underlying toolkit scenario ("BR" = branch, "HQ" = head office).
    pub scenario: Scenario,
}

/// Build the banking deployment: `accounts` at both sites with the
/// given initial balances; one batch per entry in `batch_times`
/// (absolute; add skew there to model unsynchronized clocks).
#[must_use]
pub fn build(seed: u64, accounts: &[(&str, i64)], batch_times: &[SimTime]) -> BankScenario {
    let mk_db = |rows: &[(&str, i64)]| {
        let mut db = hcm_ris::relational::Database::new();
        db.create_table("accounts", &["acct", "bal"]).unwrap();
        for (a, v) in rows {
            db.execute(&format!("INSERT INTO accounts VALUES ('{a}', {v})"))
                .unwrap();
        }
        db
    };
    let mut scenario = ScenarioBuilder::new(seed)
        .site("BR", RawStore::Relational(mk_db(accounts)), RID_BRANCH)
        .unwrap()
        .site("HQ", RawStore::Relational(mk_db(accounts)), RID_HQ)
        .unwrap()
        .strategy("[locate]\nbbal = BR\nhbal = HQ\n")
        .build()
        .unwrap();
    let bt = scenario.site("BR").translator;
    let ht = scenario.site("HQ").translator;
    scenario.add_actor(Box::new(BatchAgent {
        branch_translator: bt,
        hq_translator: ht,
        schedule: batch_times.to_vec(),
        next_req: 0,
        phase: Phase::Idle,
        metrics: scenario.obs.metrics.clone(),
    }));
    BankScenario { scenario }
}

impl BankScenario {
    /// A branch deposit/withdrawal at `t` (seconds from midnight).
    pub fn branch_update(&mut self, t: SimTime, acct: &str, new_bal: i64) {
        self.scenario.inject(
            t,
            "BR",
            hcm_toolkit::SpontaneousOp::Sql(format!(
                "update accounts set bal = {new_bal} where acct = '{acct}'"
            )),
        );
    }

    /// The §6.4 periodic guarantee for one night, with explicit window
    /// bounds (ms since midnight): balances agree at every instant of
    /// `[from, to]`.
    #[must_use]
    pub fn night_guarantee(from_ms: u64, to_ms: u64) -> hcm_rulelang::Guarantee {
        hcm_rulelang::parse_guarantee(
            "bank_night",
            &format!(
                "(bbal(n) = v) @ t and t >= {from_ms}ms and t <= {to_ms}ms => (hbal(n) = v) @ t"
            ),
        )
        .expect("valid guarantee")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clock::*;
    use hcm_checker::guarantee::check_guarantee;

    fn working_day(b: &mut BankScenario) {
        // Updates strictly inside 09:00–17:00.
        b.branch_update(SimTime::from_secs(NINE_AM + 1800), "a1", 120);
        b.branch_update(SimTime::from_secs(NINE_AM + 7200), "a2", 80);
        b.branch_update(SimTime::from_secs(FIVE_PM - 600), "a1", 150);
    }

    fn pad_horizon(b: &mut BankScenario) {
        // An out-of-window marker so the trace extends past 08:00
        // (INSERT: an UPDATE matching no rows records no event).
        b.scenario.inject(
            SimTime::from_secs(EIGHT_AM_NEXT + 3600),
            "BR",
            hcm_toolkit::SpontaneousOp::Sql("insert into accounts values ('pad', 1)".into()),
        );
    }

    #[test]
    fn balances_agree_through_the_night() {
        let mut b = build(
            1,
            &[("a1", 100), ("a2", 100)],
            &[SimTime::from_secs(FIVE_PM)],
        );
        working_day(&mut b);
        pad_horizon(&mut b);
        b.scenario.run_to_quiescence();
        let trace = b.scenario.trace();
        let m = &b.scenario.obs.metrics;
        assert_eq!(m.counter(Scope::Global, "batch.batches"), 1);
        assert!(m.counter(Scope::Global, "batch.propagated") >= 2);
        // Batch finished within the 15-minute window.
        let finish = m.gauge(Scope::Global, "batch.last_finish_ms").unwrap();
        assert!(
            finish <= FIVE_FIFTEEN_PM as i64 * 1000,
            "batch finished at {finish}ms"
        );
        let g = BankScenario::night_guarantee(FIVE_FIFTEEN_PM * 1000, EIGHT_AM_NEXT * 1000);
        let r = check_guarantee(&trace, &g, None);
        assert!(r.holds, "{:#?}", r.violations);
        assert!(r.instantiations > 0);
    }

    #[test]
    fn daytime_window_does_not_hold() {
        // The same trace violates an *all-day* version of the guarantee
        // — consistency is genuinely periodic, not continuous.
        let mut b = build(2, &[("a1", 100)], &[SimTime::from_secs(FIVE_PM)]);
        working_day(&mut b);
        pad_horizon(&mut b);
        b.scenario.run_to_quiescence();
        let trace = b.scenario.trace();
        let g = BankScenario::night_guarantee(NINE_AM * 1000, EIGHT_AM_NEXT * 1000);
        let r = check_guarantee(&trace, &g, None);
        assert!(
            !r.holds,
            "daytime divergence must violate the widened window"
        );
    }

    #[test]
    fn late_batch_from_clock_skew_breaks_the_tight_window() {
        // E11: the batch machine's clock is 20 minutes behind, so the
        // batch runs at 17:20 — past the 17:15 window start. The tight
        // guarantee fails; widening the window start by the skew (a
        // margin "significantly larger than the expected skew", §7.2)
        // repairs it.
        let skew = 1200; // 20 min
        let mut b = build(3, &[("a1", 100)], &[SimTime::from_secs(FIVE_PM + skew)]);
        working_day(&mut b);
        pad_horizon(&mut b);
        b.scenario.run_to_quiescence();
        let trace = b.scenario.trace();
        let tight = BankScenario::night_guarantee(FIVE_FIFTEEN_PM * 1000, EIGHT_AM_NEXT * 1000);
        assert!(!check_guarantee(&trace, &tight, None).holds);
        let margin =
            BankScenario::night_guarantee((FIVE_FIFTEEN_PM + skew) * 1000, EIGHT_AM_NEXT * 1000);
        let r = check_guarantee(&trace, &margin, None);
        assert!(r.holds, "{:#?}", r.violations);
    }
}
