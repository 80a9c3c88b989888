//! Allocation budget of the validity checker.
//!
//! A counting global allocator counts every allocation and reallocation
//! that the test's own thread makes inside one `check_validity` call.
//! The rule base has the shape of the `engine_wide` benchmark workload:
//! 16 sites, each with a notify interface `Ws(k(n), b) -> N(k(n), b)`
//! and 64 strategy rules (a chain of four private copies of `k` plus 60
//! filler rules that never fire), over string-keyed items. The trace
//! is about 2,000 events of propagation chains. Matching a rule binds
//! its variables to values borrowed from the trace, and the firing
//! tables and each site's rule index are flat, so the check allocates
//! per site, per rule and per table, not per event: about one
//! allocation per fifteen events.
//!
//! The state index is built before counting; it is the trace's, not
//! the check's.

use hcm_checker::{check_validity, RuleSet};
use hcm_core::{EventDesc, ItemId, RuleId, SimTime, SiteId, Trace, Value};
use hcm_rulelang::{parse_interface, parse_strategy_rule};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
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

const SITES: u32 = 16;
const RULES: u32 = 64;
const CHAIN: u32 = 3;
const OPS: u64 = 21;
const KEYS: u64 = 32;

fn wide_rules() -> RuleSet {
    let mut rs = RuleSet::new();
    let mut id = 0;
    let mut add = |rs: &mut RuleSet, site: SiteId, text: &str| {
        rs.add_strategy(RuleId(id), site, site, &parse_strategy_rule(text).unwrap());
        id += 1;
    };
    for s in 0..SITES {
        let site = SiteId::new(s);
        add(
            &mut rs,
            site,
            &format!("N(k{s}(n), b) -> W(p{s}x0(n), b) within 5s"),
        );
        for j in 0..CHAIN {
            let next = j + 1;
            let rule = format!("W(p{s}x{j}(n), b) -> W(p{s}x{next}(n), b) within 5s");
            add(&mut rs, site, &rule);
        }
        for j in 0..RULES - 1 - CHAIN {
            add(
                &mut rs,
                site,
                &format!("W(q{s}x{j}(n), b) -> W(p{s}x0(n), b) within 5s"),
            );
        }
    }
    for s in 0..SITES {
        let stmt = parse_interface(&format!("Ws(k{s}(n), b) -> N(k{s}(n), b) within 1s")).unwrap();
        rs.add_interface(RuleId(id + s), SiteId::new(s), &stmt);
    }
    rs
}

/// Every site writes one of its keys each second; each write is
/// notified and copied down the site's chain of private items.
fn wide_trace(rules: &RuleSet) -> Trace {
    // Site `s`'s rule `j` copies into `p{s}x{j}`; its interface comes
    // after every strategy rule.
    let rule = |s: u32, j: u32| rules.rules()[(s * RULES + j) as usize].id;
    let interface = |s: u32| rules.rules()[(SITES * RULES + s) as usize].id;
    let mut tr = Trace::new();
    let mut state: HashMap<ItemId, Value> = HashMap::new();
    let mut write = |tr: &mut Trace, t: u64, site, item: ItemId, v: i64, provenance| {
        let old = state.insert(item.clone(), Value::Int(v));
        let desc = match provenance {
            None => EventDesc::Ws {
                item,
                old: old.clone(),
                new: Value::Int(v),
            },
            Some(_) => EventDesc::W {
                item,
                value: Value::Int(v),
            },
        };
        let (rule, trigger) = provenance.unzip();
        tr.push(SimTime::from_millis(t), site, desc, old, rule, trigger)
    };
    for i in 0..OPS {
        for s in 0..SITES {
            let site = SiteId::new(s);
            let key = Value::Str(format!("u{}", i % KEYS));
            let item = |base: String| ItemId::with(base, [key.clone()]);
            let (t, v) = (
                i * 1_000 + u64::from(s) * 50,
                (i * 100 + u64::from(s)) as i64,
            );
            let ws = write(&mut tr, t, site, item(format!("k{s}")), v, None);
            let mut trigger = tr.push(
                SimTime::from_millis(t + 1),
                site,
                EventDesc::N {
                    item: item(format!("k{s}")),
                    value: Value::Int(v),
                },
                None,
                Some(interface(s)),
                Some(ws),
            );
            for j in 0..=CHAIN {
                let (at, copy) = (t + 2 + u64::from(j), item(format!("p{s}x{j}")));
                trigger = write(&mut tr, at, site, copy, v, Some((rule(s, j), trigger)));
            }
        }
    }
    tr
}

#[test]
fn validity_allocates_less_than_once_per_event() {
    let rules = wide_rules();
    let trace = wide_trace(&rules);
    let events = trace.len();
    assert_eq!(events as u64, OPS * u64::from(SITES) * 6);
    let _ = trace.index();
    let (report, n) = allocations(|| check_validity(&trace, &rules));
    assert!(report.is_valid(), "{:#?}", report.violations);
    eprintln!("check_validity: {n} allocations for {events} events");
    // Per write: the interface, the strategy rule on `N`, and three
    // chain rules.
    assert_eq!(
        report.obligations_checked as u64,
        OPS * u64::from(SITES) * 5
    );
    // 135 on this base: a fixed few per LHS site for its flat rule
    // index, and per-rule and per-table buffers, none per event.
    assert!(
        n <= 150,
        "check_validity made {n} allocations for {events} events ({:.2} per event)",
        n as f64 / events as f64
    );
}
