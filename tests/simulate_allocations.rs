//! Allocation budget of the simulate path.
//!
//! A counting global allocator counts every allocation and reallocation
//! that the test's own thread makes while one scenario runs to
//! quiescence. The scenario has the shape of the `polling_sweep`
//! benchmark workload (the §4.2.3 polling strategy): relational sites
//! `A` and `B`, a shell that polls `salary1("e0")` at `A` every 5 s and
//! copies what it reads to `salary2` at `B`, and about a thousand SQL
//! updates of `A`'s row. Item names share their parameters, trigger
//! firings own their rows, a rule match or interface lookup allocates
//! only its matcher's slot table, the simulator reuses one outbox and
//! the relational store one firing buffer, so the run allocates fewer
//! than four times per dispatch. What remains includes the SQL text of
//! each update, which the relational store parses, and one slot table
//! per match.

mod common;

use common::{employees_db, rule_set_of};
use hcm::checker::check_validity;
use hcm::core::SimTime;
use hcm::obs::Scope;
use hcm::simkit::RunOutcome;
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::{ScenarioBuilder, SpontaneousOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter only reads a thread-local flag and bumps an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const RID_SRC: &str = r#"
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

const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
P(5s) -> RR(salary1("e0")) within 1s
R(salary1(n), b) -> WR(salary2(n), b) within 5s
"#;

const UPDATES: u64 = 1_000;
const GAP_MS: u64 = 3_000;

#[test]
fn polling_allocates_fewer_than_four_times_per_dispatch() {
    let horizon = SimTime::from_millis(10_000 + UPDATES * GAP_MS);
    let mut sc = ScenarioBuilder::new(1)
        .site(
            "A",
            RawStore::Relational(employees_db(&[("e0", 1000)])),
            RID_SRC,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees_db(&[("e0", 1000)])),
            RID_DST,
        )
        .unwrap()
        .strategy(STRATEGY)
        .stop_periodics_at(horizon)
        .build()
        .unwrap();
    for i in 0..UPDATES {
        sc.inject(
            SimTime::from_millis(10_000 + i * GAP_MS),
            "A",
            SpontaneousOp::Sql(format!(
                "update employees set salary = {} where empid = 'e0'",
                i + 1
            )),
        );
    }
    let (outcome, n) = allocations(|| sc.run_to_quiescence());
    assert_eq!(outcome, RunOutcome::Quiescent);
    let dispatches = sc.obs.metrics.counter(Scope::Global, "sim.dispatches");
    let writes = sc
        .obs
        .metrics
        .counter(Scope::Site(1), "translator.writes_done");
    eprintln!("run_to_quiescence: {n} allocations for {dispatches} dispatches");
    // One poll every 5 s for about 3,000 s, each read propagated as a
    // write to `B`, in a valid execution: the budget is not met by
    // dropping work.
    assert!(writes >= 600, "{writes} writes");
    assert!(check_validity(&sc.trace(), &rule_set_of(&sc)).is_valid());
    let per = n as f64 / dispatches as f64;
    assert!(
        per < 4.0,
        "run_to_quiescence made {n} allocations for {dispatches} dispatches ({per:.2} each)"
    );
}
