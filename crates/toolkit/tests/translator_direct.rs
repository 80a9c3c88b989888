//! Direct CM-Translator tests: one translator in a bare simulation with
//! a probe actor standing in as its CM-Shell, exercising each CMI
//! behaviour in isolation (the scenario-level tests cover composition).

use hcm_core::{
    EventDesc, ItemId, RuleRegistry, SimDuration, SimTime, SiteId, Sym, TemplateDesc, Term,
    TraceRecorder, Value,
};
use hcm_obs::Scope;
use hcm_ris::RisError;
use hcm_simkit::{Actor, ActorId, Ctx, Sim};
use hcm_toolkit::backend::{Change, RisBackend};
use hcm_toolkit::backends::{build_backend, RawStore};
use hcm_toolkit::msg::{CmMsg, RequestKind, SpontaneousOp, TranslatorEvent};
use hcm_toolkit::rid::CmRid;
use hcm_toolkit::translator::TranslatorActor;
use std::cell::RefCell;
use std::rc::Rc;

/// Records every CMI event it receives, with its arrival time.
struct Probe {
    log: Rc<RefCell<Vec<(SimTime, TranslatorEvent)>>>,
}

impl Actor<CmMsg> for Probe {
    fn on_message(&mut self, msg: CmMsg, ctx: &mut Ctx<'_, CmMsg>) {
        if let CmMsg::Cmi(ev) = msg {
            self.log.borrow_mut().push((ctx.now(), ev));
        }
    }
}

const RID: &str = r#"
ris = relational
service = 100ms
[interface]
Ws(sal(n), b) -> N(sal(n), b) within 2s
WR(sal(n), b) -> W(sal(n), b) within 1s
RR(sal(n)) when sal(n) = b -> R(sal(n), b) within 1s
[command write sal]
update t set v = $value where k = $p0
[command insert sal]
insert into t values ($p0, $value)
[command read sal]
select v from t where k = $p0
[map sal]
table = t
key = k
col = v
"#;

struct Rig {
    sim: Sim<CmMsg>,
    translator: ActorId,
    probe: ActorId,
    log: Rc<RefCell<Vec<(SimTime, TranslatorEvent)>>>,
    recorder: TraceRecorder,
}

impl Rig {
    fn counter(&self, name: &str) -> u64 {
        self.sim.obs().metrics.counter(Scope::Site(0), name)
    }
}

fn rig(interest: Vec<TemplateDesc>) -> Rig {
    rig_with(RID, &[("e1", 10)], interest)
}

/// A translator over CM-RID `rid` whose table `t` holds `rows`.
fn rig_with(rid: &str, rows: &[(&str, i64)], interest: Vec<TemplateDesc>) -> Rig {
    rig_wrapped(rid, rows, interest, |backend| backend)
}

/// [`rig_with`], with the relational backend passed through `wrap`.
fn rig_wrapped(
    rid: &str,
    rows: &[(&str, i64)],
    interest: Vec<TemplateDesc>,
    wrap: impl FnOnce(Box<dyn RisBackend>) -> Box<dyn RisBackend>,
) -> Rig {
    let mut db = hcm_ris::relational::Database::new();
    db.create_table("t", &["k", "v"]).unwrap();
    for (k, v) in rows {
        db.execute(&format!("insert into t values ('{k}', {v})"))
            .unwrap();
    }
    let rid = CmRid::parse(rid).unwrap();
    let mut registry = RuleRegistry::new();
    let iface_ids: Vec<_> = rid.interfaces.iter().map(|_| registry.register()).collect();
    let recorder = TraceRecorder::new();
    let log = Rc::new(RefCell::new(Vec::new()));

    let mut sim = Sim::new(1);
    let probe = sim.add_actor(Box::new(Probe { log: log.clone() }));
    let t = TranslatorActor::new(
        SiteId::new(0),
        probe,
        wrap(build_backend(RawStore::Relational(db), &rid).unwrap()),
        &rid,
        iface_ids,
        interest,
        SimTime::from_millis(u64::MAX),
        recorder.clone(),
        sim.obs().metrics,
    );
    let translator = sim.add_actor(Box::new(t));
    Rig {
        sim,
        translator,
        probe,
        log,
        recorder,
    }
}

fn e1() -> ItemId {
    ItemId::with("sal", [Value::from("e1")])
}

#[test]
fn initial_state_is_captured() {
    let mut r = rig(vec![]);
    r.sim.run_to_quiescence();
    let trace = r.recorder.snapshot();
    assert_eq!(trace.initial(&e1()), Some(&Value::Int(10)));
}

/// Backends list every item of a base; where an interface names a
/// constant parameter, the translator's matcher filters. A periodic
/// notification covers only the item its `N` step names, and initial
/// values are captured only for items some interface names.
#[test]
fn constant_parameters_filter_enumerated_items() {
    const CONSTANT_PARAMS: &str = r#"
ris = relational
[interface]
P(1s) when sal("e2") = b -> N(sal("e2"), b) within 1s
RR(sal("e3")) when sal("e3") = b -> R(sal("e3"), b) within 1s
[command read sal]
select v from t where k = $p0
[map sal]
table = t
key = k
col = v
"#;
    let mut r = rig_with(
        CONSTANT_PARAMS,
        &[("e1", 10), ("e2", 20), ("e3", 30)],
        vec![],
    );
    r.sim.run(Some(SimTime::from_millis(2_500)));
    let sal = |k: &str| ItemId::with("sal", [Value::from(k)]);
    let log = r.log.borrow();
    let notified: Vec<_> = (log.iter())
        .map(|(_, ev)| match ev {
            TranslatorEvent::Notify { item, value, .. } => (item.clone(), value.clone()),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(notified, vec![(sal("e2"), Value::Int(20)); 2]);
    let trace = r.recorder.snapshot();
    assert_eq!(trace.initial(&sal("e1")), None);
    assert_eq!(trace.initial(&sal("e2")), Some(&Value::Int(20)));
    assert_eq!(trace.initial(&sal("e3")), Some(&Value::Int(30)));
}

/// A backend that logs every item it is asked to read, then reads it
/// from the backend it wraps.
struct CountingReads {
    inner: Box<dyn RisBackend>,
    reads: Rc<RefCell<Vec<ItemId>>>,
}

impl RisBackend for CountingReads {
    fn has_change_feed(&self) -> bool {
        self.inner.has_change_feed()
    }

    fn apply_spontaneous(
        &mut self,
        op: &SpontaneousOp,
        now: SimTime,
    ) -> Result<Vec<Change>, RisError> {
        self.inner.apply_spontaneous(op, now)
    }

    fn write(
        &mut self,
        item: &ItemId,
        value: &Value,
        now: SimTime,
    ) -> Result<Option<Value>, RisError> {
        self.inner.write(item, value, now)
    }

    fn read(&self, item: &ItemId) -> Result<Value, RisError> {
        self.reads.borrow_mut().push(item.clone());
        self.inner.read(item)
    }

    fn enumerate(&self, base: Sym) -> Vec<ItemId> {
        self.inner.enumerate(base)
    }
}

/// A poll tick of an interface whose `N` step names one item reads that
/// item alone: enumerated items that its pattern rejects are not read.
#[test]
fn poll_tick_reads_only_items_its_pattern_names() {
    const ONE_ITEM: &str = r#"
ris = relational
[interface]
P(1s) when sal("e2") = b -> N(sal("e2"), b) within 1s
[command read sal]
select v from t where k = $p0
[map sal]
table = t
key = k
col = v
"#;
    let reads = Rc::new(RefCell::new(Vec::new()));
    let log = reads.clone();
    let mut r = rig_wrapped(
        ONE_ITEM,
        &[("e1", 10), ("e2", 20), ("e3", 30)],
        vec![],
        move |inner| Box::new(CountingReads { inner, reads: log }),
    );
    r.sim.run(Some(SimTime::from_millis(500)));
    let at_start = reads.borrow().len();
    r.sim.run(Some(SimTime::from_millis(2_500)));
    let e2 = ItemId::with("sal", [Value::from("e2")]);
    // Each of the two ticks reads `sal("e2")` once to instantiate the
    // `N` step and once more for its condition.
    assert_eq!(reads.borrow()[at_start..], vec![e2; 4]);
}

#[test]
fn write_request_performs_within_service_delay_and_acks() {
    let mut r = rig(vec![]);
    r.sim.inject_at(
        SimTime::from_secs(1),
        r.translator,
        CmMsg::Request {
            req_id: 7,
            reply_to: r.probe,
            rule: None,
            trigger: None,
            kind: RequestKind::Write(e1(), Value::Int(20)),
        },
    );
    r.sim.run_to_quiescence();
    let log = r.log.borrow();
    let (at, ev) = &log[0];
    assert_eq!(
        ev,
        &TranslatorEvent::WriteDone {
            req_id: 7,
            ok: true
        }
    );
    // service 100ms + forward 1ms.
    assert_eq!(*at, SimTime::from_millis(1_101));
    drop(log);
    let trace = r.recorder.snapshot();
    let tags: Vec<&str> = trace.events().iter().map(|e| e.desc.tag()).collect();
    assert_eq!(tags, vec!["WR", "W"]);
    assert_eq!(
        trace.value_at(&e1(), trace.end_time()),
        Some(Value::Int(20))
    );
    assert_eq!(r.counter("translator.writes_done"), 1);
}

#[test]
fn read_request_returns_current_value() {
    let mut r = rig(vec![]);
    r.sim.inject_at(
        SimTime::from_secs(1),
        r.translator,
        CmMsg::Request {
            req_id: 9,
            reply_to: r.probe,
            rule: None,
            trigger: None,
            kind: RequestKind::Read(e1()),
        },
    );
    r.sim.run_to_quiescence();
    let log = r.log.borrow();
    match &log[0].1 {
        TranslatorEvent::ReadResult {
            req_id,
            item,
            value,
            ..
        } => {
            assert_eq!(*req_id, 9);
            assert_eq!(item, &e1());
            assert_eq!(value, &Value::Int(10));
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r.counter("translator.reads_served"), 1);
}

#[test]
fn read_of_missing_item_is_null() {
    let mut r = rig(vec![]);
    r.sim.inject_at(
        SimTime::from_secs(1),
        r.translator,
        CmMsg::Request {
            req_id: 1,
            reply_to: r.probe,
            rule: None,
            trigger: None,
            kind: RequestKind::Read(ItemId::with("sal", [Value::from("ghost")])),
        },
    );
    r.sim.run_to_quiescence();
    match &r.log.borrow()[0].1 {
        TranslatorEvent::ReadResult { value, .. } => assert_eq!(value, &Value::Null),
        other => panic!("unexpected {other:?}"),
    };
}

#[test]
fn spontaneous_change_notifies_within_bound() {
    let mut r = rig(vec![]);
    r.sim.inject_at(
        SimTime::from_secs(5),
        r.translator,
        CmMsg::Spontaneous(SpontaneousOp::Sql(
            "update t set v = 11 where k = 'e1'".into(),
        )),
    );
    r.sim.run_to_quiescence();
    let log = r.log.borrow();
    match &log[0].1 {
        TranslatorEvent::Notify { item, value, .. } => {
            assert_eq!(item, &e1());
            assert_eq!(value, &Value::Int(11));
        }
        other => panic!("unexpected {other:?}"),
    }
    // Within the 2s notify bound (service 100ms).
    assert!(log[0].0 <= SimTime::from_secs(7));
    assert_eq!(r.counter("translator.notifications"), 1);
}

#[test]
fn overload_injection_delays_service() {
    let mut r = rig(vec![]);
    r.sim.inject_at(
        SimTime::ZERO,
        r.translator,
        CmMsg::SetServiceExtra(SimDuration::from_secs(10)),
    );
    r.sim.inject_at(
        SimTime::from_secs(1),
        r.translator,
        CmMsg::Request {
            req_id: 2,
            reply_to: r.probe,
            rule: None,
            trigger: None,
            kind: RequestKind::Write(e1(), Value::Int(30)),
        },
    );
    r.sim.run_to_quiescence();
    let log = r.log.borrow();
    assert!(
        log[0].0 >= SimTime::from_secs(11),
        "overload must delay the ack: {}",
        log[0].0
    );
}

#[test]
fn interest_patterns_forward_observed_events() {
    // The shell registered interest in Ws(sal(n), b) events.
    let interest = vec![TemplateDesc::Ws {
        item: hcm_core::ItemPattern::with("sal", [Term::var("n")]),
        old: None,
        new: Term::var("b"),
    }];
    let mut r = rig(interest);
    r.sim.inject_at(
        SimTime::from_secs(1),
        r.translator,
        CmMsg::Spontaneous(SpontaneousOp::Sql(
            "update t set v = 12 where k = 'e1'".into(),
        )),
    );
    r.sim.run_to_quiescence();
    let log = r.log.borrow();
    assert!(
        log.iter().any(
            |(_, ev)| matches!(ev, TranslatorEvent::Observed { desc, .. }
            if matches!(desc, EventDesc::Ws { .. }))
        ),
        "Ws must be forwarded: {log:#?}"
    );
}

#[test]
fn enumerate_meta_request() {
    let mut r = rig(vec![]);
    r.sim.inject_at(
        SimTime::from_secs(1),
        r.translator,
        CmMsg::Request {
            req_id: 3,
            reply_to: r.probe,
            rule: None,
            trigger: None,
            kind: RequestKind::Enumerate(hcm_core::Sym::from("sal")),
        },
    );
    r.sim.run_to_quiescence();
    match &r.log.borrow()[0].1 {
        TranslatorEvent::EnumResult { req_id, items } => {
            assert_eq!(*req_id, 3);
            assert_eq!(items, &vec![e1()]);
        }
        other => panic!("unexpected {other:?}"),
    };
    // Meta-operations leave no trace events.
    assert!(r.recorder.snapshot().is_empty());
}

#[test]
fn failed_spontaneous_op_counted_not_crashed() {
    let mut r = rig(vec![]);
    r.sim.inject_at(
        SimTime::from_secs(1),
        r.translator,
        CmMsg::Spontaneous(SpontaneousOp::Sql("garbage command".into())),
    );
    r.sim.run_to_quiescence();
    assert_eq!(r.counter("translator.spontaneous_errors"), 1);
    assert!(r.log.borrow().is_empty());
}
