//! The three workloads: each is a fixed batch of experiment cells, made
//! from the seed alone, and each cell is built, simulated and judged
//! through the repository's public API only.
//!
//! Every cell's operation count is fixed, and the seed moves only
//! arrival times, values and network delays. The work a cell does then
//! hardly varies from seed to seed, which keeps the spread of the timings
//! across seeds inside the benchmark's bounds.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

use hcm::checker::guarantee::check_guarantees_parallel_stats;
use hcm::checker::{check_validity, StateIndex};
use hcm::core::{ItemId, SimDuration, SimTime, Trace, Value};
use hcm::harness::rule_set_of;
use hcm::obs::{Metrics, Scope};
use hcm::ris::kvstore::KvStore;
use hcm::ris::relational::Database;
use hcm::simkit::{Actor, ActorId, Ctx, RunOutcome};
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::{CmMsg, Durability, Scenario, ScenarioBuilder, SpontaneousOp, StoreSetup};

use crate::pins::trace_digest;
use crate::spans::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineWide,
    SalaryGuarantees,
    PollingSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EngineWide,
        Workload::SalaryGuarantees,
        Workload::PollingSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineWide => "engine_wide",
            Workload::SalaryGuarantees => "salary_guarantees",
            Workload::PollingSweep => "polling_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The cells of one batch.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let mut rng = SplitMix64(seed);
        match self {
            Workload::EngineWide => vec![Cell {
                name: format!("s{ENGINE_SITES}_r{ENGINE_RULES}"),
                seed: rng.next(),
                kind: CellKind::Engine,
            }],
            Workload::SalaryGuarantees => vec![Cell {
                name: format!("e{SALARY_EMPLOYEES}_u{SALARY_UPDATES}"),
                seed: rng.next(),
                kind: CellKind::Salary,
            }],
            Workload::PollingSweep => {
                let mut cells = Vec::new();
                for poll_s in POLL_PERIODS {
                    for gap_s in POLL_UPDATE_GAPS {
                        for durable in [false, true] {
                            let seed = rng.next();
                            cells.push(Cell {
                                name: format!(
                                    "p{poll_s}_g{gap_s}_{}",
                                    if durable { "durable" } else { "msg" }
                                ),
                                seed,
                                kind: CellKind::Polling {
                                    poll_s,
                                    gap_s,
                                    durable,
                                    // Start phase in ms, so seeds move
                                    // updates against the poll grid.
                                    phase_ms: seed % (gap_s * 1000),
                                },
                            });
                        }
                    }
                }
                cells
            }
        }
    }
}

// engine_wide: one wide rule base, validity dominates.
const ENGINE_SITES: usize = 16;
const ENGINE_RULES: usize = 64;
const ENGINE_CHAIN_DEPTH: usize = 3;
const ENGINE_OPS_PER_SITE: u64 = 128;
const ENGINE_KEYS: u64 = 32;
const ENGINE_GAP: SimDuration = SimDuration::from_secs(1);

// salary_guarantees: §4.2 propagation judged by the E16 guarantee pair.
const SALARY_EMPLOYEES: usize = 8;
const SALARY_UPDATES: u64 = 160;
const SALARY_GAP: SimDuration = SimDuration::from_secs(1);

// polling_sweep: E2 polling over poll period × update gap × durability.
const POLL_PERIODS: [u64; 2] = [5, 20];
const POLL_UPDATE_GAPS: [u64; 2] = [3, 15];
const POLL_HORIZON_S: u64 = 5_000;
const POLL_CRASH_AT_S: u64 = POLL_HORIZON_S / 2;
const POLL_DOWN_S: u64 = 20;

const RID_SRC: &str = r#"
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

const RID_SRC_READONLY: &str = r#"
ris = relational
service = 200ms
[interface]
RR(salary1(n)) when salary1(n) = b -> R(salary1(n), b) within 1s
[command read salary1]
select salary from employees where empid = $p0
[map salary1]
table = employees
key = empid
col = salary
"#;

const RID_DST: &str = r#"
ris = relational
service = 200ms
[interface]
WR(salary2(n), b) -> W(salary2(n), b) within 1s
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

const SALARY_STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s

[guarantee follows]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1

[guarantee follows_metric]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 10s < t2 and t2 <= t1
"#;

pub struct Cell {
    pub name: String,
    seed: u64,
    kind: CellKind,
}

enum CellKind {
    Engine,
    Salary,
    Polling {
        poll_s: u64,
        gap_s: u64,
        durable: bool,
        phase_ms: u64,
    },
}

/// What one cell measured and produced.
pub struct CellRun {
    pub setup_s: f64,
    pub simulate_s: f64,
    pub check_s: f64,
    pub events: u64,
    pub quiescent: bool,
    /// The workload's own invariant, which holds on every seed.
    pub sane: bool,
    /// The correctness pin: trace digest and verdicts.
    pub pin: String,
    /// Layer counters; the hcm-obs counters and the traced-only probes
    /// are filled in only when the tracer is on.
    pub layers: BTreeMap<&'static str, f64>,
}

/// The post-mortem's verdicts, rendered into the pin.
struct Verdict {
    text: String,
    sane: bool,
}

/// Build, simulate and judge one cell.
pub fn run_cell(cell: &Cell, tr: &mut Tracer) -> CellRun {
    let t0 = Instant::now();
    let mut sc = tr.span("bench.setup", |tr| setup(cell, tr));
    let t1 = Instant::now();
    let outcome = tr.span("simkit.run", |_| sc.run_to_quiescence());
    let t2 = Instant::now();
    let (trace, verdict, mut layers) = tr.span("bench.check", |tr| check(cell, &sc, tr));
    let t3 = Instant::now();

    let events = trace.len() as u64;
    if tr.is_on() {
        read_counters(&sc, &mut layers);
        layers.insert("core.trace_events", events as f64);
        // Validity and the guarantee pass each build a StateIndex
        // inside; one more build, outside the timed post-mortem, shows
        // the share of those spans spent indexing.
        if matches!(cell.kind, CellKind::Engine | CellKind::Salary) {
            tr.span("checker.state_index", |_| {
                std::hint::black_box(StateIndex::build(&trace));
            });
            let pairs = rule_set_of(&sc).related_pairs().len();
            layers.insert("checker.related_pairs", pairs as f64);
        }
    }
    CellRun {
        setup_s: (t1 - t0).as_secs_f64(),
        simulate_s: (t2 - t1).as_secs_f64(),
        check_s: (t3 - t2).as_secs_f64(),
        events,
        quiescent: outcome == RunOutcome::Quiescent,
        sane: verdict.sane,
        pin: format!(
            "{} events={events} digest={:016x} {}",
            cell.name,
            trace_digest(&trace),
            verdict.text
        ),
        layers,
    }
}

fn setup(cell: &Cell, tr: &mut Tracer) -> Scenario {
    match cell.kind {
        CellKind::Engine => engine_setup(cell.seed, tr),
        CellKind::Salary => salary_setup(cell.seed, tr),
        CellKind::Polling {
            poll_s,
            gap_s,
            durable,
            phase_ms,
        } => polling_setup(cell.seed, poll_s, gap_s, durable, phase_ms, tr),
    }
}

/// `ScenarioBuilder::site` parses the CM-RID; the store is built first,
/// outside the span.
fn add_site(
    b: ScenarioBuilder,
    name: &str,
    store: RawStore,
    rid: &str,
    tr: &mut Tracer,
) -> ScenarioBuilder {
    tr.span("rulelang.rid_parse", |_| b.site(name, store, rid))
        .expect("benchmark CM-RIDs parse")
}

fn build(b: ScenarioBuilder, tr: &mut Tracer) -> Scenario {
    tr.span("toolkit.build", |_| b.build())
        .expect("benchmark strategies compile")
}

/// 16 KV sites, each with a mapped base `k<s>`, a Poisson writer, an
/// entry rule, a 3-deep private-write chain and never-firing filler
/// rules up to 64 rules per site. All rule work is site-local.
fn engine_setup(seed: u64, tr: &mut Tracer) -> Scenario {
    let mut strategy = String::from("[locate]\n");
    for s in 0..ENGINE_SITES {
        let _ = writeln!(strategy, "k{s} = S{s}");
    }
    strategy.push_str("[private]\n");
    let fillers = ENGINE_RULES - 1 - ENGINE_CHAIN_DEPTH;
    for s in 0..ENGINE_SITES {
        for j in 0..=ENGINE_CHAIN_DEPTH {
            let _ = writeln!(strategy, "p{s}x{j} = S{s}");
        }
        for j in 0..fillers {
            let _ = writeln!(strategy, "q{s}x{j} = S{s}");
        }
    }
    strategy.push_str("[strategy]\n");
    for s in 0..ENGINE_SITES {
        let _ = writeln!(strategy, "N(k{s}(n), b) -> W(p{s}x0(n), b) within 5s");
        for j in 0..ENGINE_CHAIN_DEPTH {
            let next = j + 1;
            let _ = writeln!(
                strategy,
                "W(p{s}x{j}(n), b) -> W(p{s}x{next}(n), b) within 5s"
            );
        }
        for j in 0..fillers {
            let _ = writeln!(strategy, "W(q{s}x{j}(n), b) -> W(p{s}x0(n), b) within 5s");
        }
    }

    let mut b = ScenarioBuilder::new(seed);
    for s in 0..ENGINE_SITES {
        let rid = format!(
            "ris = kv\nservice = 1ms\n[interface]\n\
             Ws(k{s}(n), b) -> N(k{s}(n), b) within 1s\n\
             [map k{s}]\nkey = k/$p0\n"
        );
        b = add_site(b, &format!("S{s}"), RawStore::Kv(KvStore::new()), &rid, tr);
    }
    let mut sc = build(b.strategy(&strategy), tr);
    for s in 0..ENGINE_SITES {
        let target = sc.site(&format!("S{s}")).translator;
        sc.add_actor(Box::new(CountedWriter::new(
            target,
            ENGINE_GAP,
            ENGINE_OPS_PER_SITE,
            Box::new(|n, v| SpontaneousOp::KvPut {
                key: format!("k/u{}", n % ENGINE_KEYS),
                value: Value::Int(v),
            }),
        )));
    }
    sc
}

fn employees(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table("employees", &["empid", "salary"])
        .expect("fresh database");
    for i in 0..n {
        db.execute(&format!(
            "INSERT INTO employees VALUES ('e{i}', {})",
            1000 + i
        ))
        .expect("insert into fresh table");
    }
    db
}

fn salary_setup(seed: u64, tr: &mut Tracer) -> Scenario {
    let b = ScenarioBuilder::new(seed);
    let b = add_site(
        b,
        "A",
        RawStore::Relational(employees(SALARY_EMPLOYEES)),
        RID_SRC,
        tr,
    );
    let b = add_site(
        b,
        "B",
        RawStore::Relational(employees(SALARY_EMPLOYEES)),
        RID_DST,
        tr,
    );
    let mut sc = build(b.strategy(SALARY_STRATEGY), tr);
    let target = sc.site("A").translator;
    sc.add_actor(Box::new(CountedWriter::new(
        target,
        SALARY_GAP,
        SALARY_UPDATES,
        Box::new(|n, v| {
            SpontaneousOp::Sql(format!(
                "update employees set salary = {v} where empid = 'e{}'",
                n % SALARY_EMPLOYEES as u64
            ))
        }),
    )));
    sc
}

/// The E2 polling strategy; durable cells crash and recover B's
/// translator once, E16-style.
fn polling_setup(
    seed: u64,
    poll_s: u64,
    gap_s: u64,
    durable: bool,
    phase_ms: u64,
    tr: &mut Tracer,
) -> Scenario {
    let strategy = format!(
        "[locate]\nsalary1 = A\nsalary2 = B\n[strategy]\n\
         P({poll_s}s) -> RR(salary1(\"e0\")) within 1s\n\
         R(salary1(n), b) -> WR(salary2(n), b) within 5s\n"
    );
    let b = ScenarioBuilder::new(seed);
    let b = add_site(
        b,
        "A",
        RawStore::Relational(employees(1)),
        RID_SRC_READONLY,
        tr,
    );
    let b = add_site(b, "B", RawStore::Relational(employees(1)), RID_DST, tr);
    let durability = if durable {
        Durability::Durable(StoreSetup::default())
    } else {
        Durability::MessageOnly
    };
    let b = b
        .strategy(&strategy)
        .stop_periodics_at(SimTime::from_secs(POLL_HORIZON_S))
        .durability(durability);
    let mut sc = build(b, tr);
    let end_ms = (POLL_HORIZON_S - poll_s) * 1000;
    let mut t_ms = 10_000 + phase_ms;
    let mut v = 1;
    while t_ms < end_ms {
        sc.inject(
            SimTime::from_millis(t_ms),
            "A",
            SpontaneousOp::Sql(format!(
                "update employees set salary = {v} where empid = 'e0'"
            )),
        );
        t_ms += gap_s * 1000;
        v += 1;
    }
    if durable {
        sc.crash("B", SimTime::from_secs(POLL_CRASH_AT_S), true);
        sc.recover("B", SimTime::from_secs(POLL_CRASH_AT_S + POLL_DOWN_S));
    }
    sc
}

/// The post-mortem: the trace snapshot, then validity and the declared
/// guarantees, or on polling cells the experiment's own miss rate, then
/// the metrics export.
fn check(
    cell: &Cell,
    sc: &Scenario,
    tr: &mut Tracer,
) -> (Trace, Verdict, BTreeMap<&'static str, f64>) {
    let mut layers = BTreeMap::new();
    let trace = tr.span("core.trace_snapshot", |_| sc.trace());
    let verdict = if let CellKind::Polling { .. } = cell.kind {
        let (missed, total) = tr.span("bench.miss_rate", |_| miss_rate(&trace));
        Verdict {
            text: format!("missed={missed}/{total}"),
            sane: total > 0,
        }
    } else {
        let rules = tr.span("checker.rule_set", |_| rule_set_of(sc));
        let validity = tr.span("checker.validity", |_| check_validity(&trace, &rules));
        let checked = tr.span("checker.guarantees", |_| {
            check_guarantees_parallel_stats(&trace, &sc.strategy.guarantees, None)
        });
        let mut text = format!(
            "violations={} obligations={}",
            validity.violations.len(),
            validity.obligations_checked
        );
        let mut sane = validity.is_valid();
        let (mut probes, mut probe_hits, mut atoms, mut atom_hits) = (0, 0, 0, 0);
        let (mut grid, mut inst) = (0, 0);
        for (report, stats) in &checked {
            let _ = write!(
                text,
                " {}={}/{}",
                report.name,
                if report.holds { "holds" } else { "fails" },
                report.instantiations
            );
            sane &= report.holds;
            probes += stats.probe_hits + stats.probe_misses;
            probe_hits += stats.probe_hits;
            atoms += stats.atom_hits + stats.atom_misses;
            atom_hits += stats.atom_hits;
            grid += stats.grid_points;
            inst += report.instantiations as u64;
        }
        layers.insert("checker.obligations", validity.obligations_checked as f64);
        layers.insert("checker.violations", validity.violations.len() as f64);
        layers.insert("checker.instantiations", inst as f64);
        layers.insert("checker.grid_points", grid as f64);
        layers.insert("checker.probes", probes as f64);
        layers.insert("checker.probe_hits", probe_hits as f64);
        layers.insert("checker.atom_lookups", atoms as f64);
        layers.insert("checker.atom_hits", atom_hits as f64);
        Verdict { text, sane }
    };
    std::hint::black_box(tr.span("obs.export", |_| sc.metrics_jsonl()));
    (trace, verdict, layers)
}

/// Values salary1 took that salary2 never took, out of all salary1
/// took.
fn miss_rate(trace: &Trace) -> (usize, usize) {
    let x = trace
        .timeline(&ItemId::with("salary1", [Value::from("e0")]))
        .values_taken();
    let y: HashSet<Value> = trace
        .timeline(&ItemId::with("salary2", [Value::from("e0")]))
        .values_taken()
        .into_iter()
        .collect();
    (x.iter().filter(|v| !y.contains(v)).count(), x.len())
}

/// The hcm-obs counters each layer keeps, read after the run.
fn read_counters(sc: &Scenario, out: &mut BTreeMap<&'static str, f64>) {
    let m = &sc.obs.metrics;
    let sum = |name: &str| -> f64 {
        m.with(|r| {
            r.counters()
                .filter(|(_, n, _)| *n == name)
                .map(|(_, _, v)| v)
                .sum::<u64>()
        }) as f64
    };
    out.insert("toolkit.rules", sc.rule_registry.len() as f64);
    out.insert(
        "simkit.dispatches",
        m.counter(Scope::Global, "sim.dispatches") as f64,
    );
    out.insert(
        "simkit.queue_depth_max",
        sc.sim
            .engine_metrics()
            .gauge(Scope::Global, "sim.queue_depth_max")
            .unwrap_or(0) as f64,
    );
    out.insert("simkit.net_deliveries", net_deliveries(m) as f64);
    out.insert("toolkit.shell_firings", sum("shell.firings"));
    out.insert("toolkit.requests_sent", sum("shell.requests_sent"));
    out.insert("toolkit.writes_done", sum("translator.writes_done"));
    out.insert("toolkit.notifications", sum("translator.notifications"));
    out.insert("toolkit.reads_served", sum("translator.reads_served"));
    out.insert("store.appends", sum("store.appends"));
    out.insert("store.bytes", sum("store.bytes"));
    out.insert("store.checkpoints", sum("store.checkpoints"));
    out.insert("store.replayed", sum("store.replayed"));
}

/// Every network send records one delivery-latency observation.
fn net_deliveries(m: &Metrics) -> u64 {
    m.with(|r| {
        r.histograms()
            .filter(|(_, n, _)| *n == "net.delivery_latency")
            .map(|(_, _, h)| h.count())
            .sum()
    })
}

/// A Poisson writer that sends exactly `count` operations to one
/// translator, so a cell's operation count does not depend on the seed.
struct CountedWriter {
    target: ActorId,
    mean_gap: SimDuration,
    count: u64,
    sent: u64,
    build: Box<dyn FnMut(u64, i64) -> SpontaneousOp + Send>,
}

impl CountedWriter {
    fn new(
        target: ActorId,
        mean_gap: SimDuration,
        count: u64,
        build: Box<dyn FnMut(u64, i64) -> SpontaneousOp + Send>,
    ) -> Self {
        CountedWriter {
            target,
            mean_gap,
            count,
            sent: 0,
            build,
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        if self.sent < self.count {
            let gap = ctx.rng().exp_duration(self.mean_gap);
            ctx.schedule_self(gap, CmMsg::PollTick { idx: usize::MAX });
        }
    }
}

impl Actor<CmMsg> for CountedWriter {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CmMsg>) {
        self.arm(ctx);
    }

    fn on_message(&mut self, _msg: CmMsg, ctx: &mut Ctx<'_, CmMsg>) {
        let v = ctx.rng().int_in(1, 1_000_000);
        let op = (self.build)(self.sent, v);
        self.sent += 1;
        ctx.send(self.target, CmMsg::Spontaneous(op));
        self.arm(ctx);
    }
}

/// SplitMix64: derives each cell's scenario seed from the workload seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
