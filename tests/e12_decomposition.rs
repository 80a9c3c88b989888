//! E12 — decomposing a complex constraint into copy constraints (§7.1).
//!
//! "Consider the constraint X = Y + Z, where X, Y, and Z are at three
//! different sites. A common way to manage this constraint is to have
//! cached copies Yc and Zc of Y and Z, respectively, at the site where
//! X is. Hence, we would have the constraints X = Yc + Zc, Yc = Y and
//! Zc = Z. Only the simple copy constraints are distributed."
//!
//! Here: Y and Z live in two notify-capable databases; the toolkit's
//! propagation rules maintain CM-private `Yc`/`Zc` at X's shell; a
//! local recompute agent (the "local constraint manager" of X's site)
//! keeps `X = Yc + Zc` using only local data — no global transactions
//! anywhere, exactly the paper's point.

mod common;

use hcm::checker::guarantee::check_guarantee;
use hcm::core::{ItemId, SimDuration, SimTime, Value};
use hcm::simkit::{Actor, ActorId, Ctx};
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::msg::{CmMsg, RequestKind, TranslatorEvent};
use hcm::toolkit::{Scenario, ScenarioBuilder, SpontaneousOp};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const RID_X: &str = r#"
ris = relational
service = 50ms
[interface]
WR(X, b) -> W(X, b) within 1s
RR(X) when X = b -> R(X, b) within 1s
[command write X]
update vals set v = $value where k = 'X'
[command read X]
select v from vals where k = 'X'
[map X]
table = vals
key = k
col = v
row = X
"#;

const RID_Y: &str = r#"
ris = relational
service = 50ms
[interface]
Ws(Y, b) -> N(Y, b) within 1s
RR(Y) when Y = b -> R(Y, b) within 1s
[command read Y]
select v from vals where k = 'Y'
[map Y]
table = vals
key = k
col = v
row = Y
"#;

const RID_Z: &str = r#"
ris = kv
service = 50ms
[interface]
Ws(Z, b) -> N(Z, b) within 1s
[map Z]
key = z
"#;

/// The copy constraints are plain toolkit strategy rules; `Yc`/`Zc` are
/// CM-private items at X's shell (the RHS site of both rules).
const STRATEGY: &str = r#"
[locate]
X = SX
Y = SY
Z = SZ

[private]
Yc = SX
Zc = SX

[strategy]
N(Y, b) -> W(Yc, b) within 5s
N(Z, b) -> W(Zc, b) within 5s
"#;

/// The local constraint manager of X's site: watches the cached copies
/// (same-machine data) and rewrites X whenever their sum changes. Local
/// reads + one local write request — no cross-site access.
struct RecomputeAgent {
    translator: ActorId,
    private: Rc<RefCell<BTreeMap<ItemId, Value>>>,
    last_written: Option<i64>,
    period: SimDuration,
    stop_at: SimTime,
    next_req: u64,
}

impl Actor<CmMsg> for RecomputeAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        ctx.schedule_self(self.period, CmMsg::Heartbeat);
    }

    fn on_message(&mut self, msg: CmMsg, ctx: &mut Ctx<'_, CmMsg>) {
        match msg {
            CmMsg::Heartbeat => {
                let sum = {
                    let p = self.private.borrow();
                    let yc = p.get(&ItemId::plain("Yc")).and_then(Value::as_int);
                    let zc = p.get(&ItemId::plain("Zc")).and_then(Value::as_int);
                    match (yc, zc) {
                        (Some(y), Some(z)) => Some(y + z),
                        _ => None,
                    }
                };
                if let Some(sum) = sum {
                    if self.last_written != Some(sum) {
                        self.last_written = Some(sum);
                        let req_id = self.next_req;
                        self.next_req += 1;
                        let me = ctx.me();
                        ctx.send_local(
                            self.translator,
                            CmMsg::Request {
                                req_id,
                                reply_to: me,
                                rule: None,
                                trigger: None,
                                kind: RequestKind::Write(ItemId::plain("X"), Value::Int(sum)),
                            },
                            SimDuration::from_millis(1),
                        );
                    }
                }
                if ctx.now() + self.period <= self.stop_at {
                    ctx.schedule_self(self.period, CmMsg::Heartbeat);
                }
            }
            CmMsg::Cmi(TranslatorEvent::WriteDone { .. }) => {}
            other => panic!("recompute agent: unexpected {other:?}"),
        }
    }
}

fn build(seed: u64, stop: u64) -> Scenario {
    let mut vals_x = hcm::ris::relational::Database::new();
    vals_x.create_table("vals", &["k", "v"]).unwrap();
    vals_x.execute("insert into vals values ('X', 30)").unwrap();
    let mut vals_y = hcm::ris::relational::Database::new();
    vals_y.create_table("vals", &["k", "v"]).unwrap();
    vals_y.execute("insert into vals values ('Y', 10)").unwrap();
    let mut kv_z = hcm::ris::kvstore::KvStore::new();
    kv_z.put("z", Value::Int(20));

    let mut sc = ScenarioBuilder::new(seed)
        .site("SX", RawStore::Relational(vals_x), RID_X)
        .unwrap()
        .site("SY", RawStore::Relational(vals_y), RID_Y)
        .unwrap()
        .site("SZ", RawStore::Kv(kv_z), RID_Z)
        .unwrap()
        .strategy(STRATEGY)
        .private_data("SX", ItemId::plain("Yc"), Value::Int(10))
        .private_data("SX", ItemId::plain("Zc"), Value::Int(20))
        .stop_periodics_at(SimTime::from_secs(stop))
        .build()
        .unwrap();
    let tx = sc.site("SX").translator;
    let private = sc.site("SX").private.clone();
    sc.add_actor(Box::new(RecomputeAgent {
        translator: tx,
        private,
        last_written: Some(30),
        period: SimDuration::from_secs(1),
        stop_at: SimTime::from_secs(stop),
        next_req: 0,
    }));
    sc
}

#[test]
fn sum_constraint_converges_after_each_update() {
    let mut sc = build(1, 200);
    sc.inject(
        SimTime::from_secs(10),
        "SY",
        SpontaneousOp::Sql("update vals set v = 50 where k = 'Y'".into()),
    );
    sc.inject(
        SimTime::from_secs(60),
        "SZ",
        SpontaneousOp::KvPut {
            key: "z".into(),
            value: Value::Int(-5),
        },
    );
    sc.run_to_quiescence();
    let trace = sc.trace();

    // Final agreement: X = Y + Z across three sites.
    let end = trace.end_time();
    let x = trace
        .value_at(&ItemId::plain("X"), end)
        .and_then(|v| v.as_int())
        .unwrap();
    let y = trace
        .value_at(&ItemId::plain("Y"), end)
        .and_then(|v| v.as_int())
        .unwrap();
    let z = trace
        .value_at(&ItemId::plain("Z"), end)
        .and_then(|v| v.as_int())
        .unwrap();
    assert_eq!(x, y + z, "X={x} Y={y} Z={z}");
    assert_eq!(x, 45);

    // The guarantee language expresses the *local* constraint directly:
    // X equals the cached sum, metrically (within the recompute period
    // + write bound of any cache change).
    let local = hcm::rulelang::parse_guarantee(
        "local_sum",
        "(X = s) @ t1 and t1 >= 5s => (Yc + Zc = s) @ t2 and t1 - 4s < t2 and t2 <= t1",
    )
    .unwrap();
    let r = check_guarantee(&trace, &local, None);
    assert!(r.holds, "{:#?}", r.violations);

    // And the distributed parts are ordinary copy guarantees.
    for (cache, src) in [("Yc", "Y"), ("Zc", "Z")] {
        let g = hcm::rulelang::parse_guarantee(
            "copy",
            &format!("({cache} = v) @ t1 => ({src} = v) @ t2 and t2 <= t1"),
        )
        .unwrap();
        let r = check_guarantee(&trace, &g, None);
        assert!(r.holds, "{cache}: {:#?}", r.violations);
    }
}

#[test]
fn concurrent_updates_still_converge() {
    let mut sc = build(2, 400);
    // Interleaved updates on both inputs.
    for i in 0..6u64 {
        sc.inject(
            SimTime::from_secs(10 + i * 13),
            "SY",
            SpontaneousOp::Sql(format!(
                "update vals set v = {} where k = 'Y'",
                10 + i as i64
            )),
        );
        sc.inject(
            SimTime::from_secs(14 + i * 17),
            "SZ",
            SpontaneousOp::KvPut {
                key: "z".into(),
                value: Value::Int(20 - i as i64),
            },
        );
    }
    sc.run_to_quiescence();
    let trace = sc.trace();
    let end = trace.end_time();
    let x = trace
        .value_at(&ItemId::plain("X"), end)
        .and_then(|v| v.as_int())
        .unwrap();
    let y = trace
        .value_at(&ItemId::plain("Y"), end)
        .and_then(|v| v.as_int())
        .unwrap();
    let z = trace
        .value_at(&ItemId::plain("Z"), end)
        .and_then(|v| v.as_int())
        .unwrap();
    assert_eq!(x, y + z);
}
