//! Allocation budget of the guarantee evaluator.
//!
//! A counting global allocator counts every allocation and reallocation
//! that the test's own thread makes while the §4.2 salary pair (`follows`
//! and `follows_metric`) is checked. The trace is a synthetic copy trace
//! over eight string-keyed employees: `salary1(e·)` is written every 6
//! to 14 s and `salary2(e·)` copies each value 1 to 5 s later, about 600
//! events. An instantiation binds its variables in place, a witness
//! lookup for the binding of the previous one compares slots without
//! hashing, and a cache entry is made once per binding, so the check
//! allocates per parameter binding and per cache entry, not per
//! instantiation: 5,974 allocations for 69,656 instantiations (0.086
//! each). A lookup that allocates, a key cloned on each hit for one,
//! adds at least one per instantiation.
//!
//! The state index is built before counting; it is the trace's, not
//! the check's.

use hcm_checker::guarantee::check_guarantees;
use hcm_core::{EventDesc, ItemId, SimTime, SiteId, Trace, Value};
use hcm_rulelang::parse_guarantee;
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

const EMPLOYEES: usize = 8;
const UNTIL_MS: u64 = 370_000;

/// Minimal deterministic generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn int_in(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Each employee's `salary1` takes a fresh value every 6 to 14 s until
/// 370 s, and `salary2` copies it 1 to 5 s later; both start equal.
fn copy_trace() -> Trace {
    let mut g = Gen(0x5A1A_0001);
    let mut writes: Vec<(u64, ItemId, i64)> = Vec::new();
    let mut tr = Trace::new();
    for e in 0..EMPLOYEES {
        let key = [Value::Str(format!("e{e}"))];
        let (source, copy) = (
            ItemId::with("salary1", key.clone()),
            ItemId::with("salary2", key),
        );
        tr.set_initial(source.clone(), Value::Int(0));
        tr.set_initial(copy.clone(), Value::Int(0));
        let mut t = g.int_in(1_000, 14_000);
        while t < UNTIL_MS {
            let v = g.int_in(1, 1_000_000) as i64;
            writes.push((t, source.clone(), v));
            writes.push((t + g.int_in(1_000, 5_000), copy.clone(), v));
            t += g.int_in(6_000, 14_000);
        }
    }
    writes.sort_by_key(|w| w.0);
    let mut state = std::collections::HashMap::new();
    for (t, item, v) in writes {
        let old = state.insert(item.clone(), Value::Int(v));
        let new = Value::Int(v);
        let desc = EventDesc::Ws {
            item,
            old: old.clone(),
            new,
        };
        tr.push(
            SimTime::from_millis(t),
            SiteId::new(0),
            desc,
            old,
            None,
            None,
        );
    }
    tr
}

#[test]
fn salary_pair_allocates_per_binding_not_per_instantiation() {
    let pair = [
        (
            "follows",
            "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1",
        ),
        (
            "follows_metric",
            "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 10s < t2 and t2 <= t1",
        ),
    ]
    .map(|(name, src)| parse_guarantee(name, src).unwrap());
    let trace = copy_trace();
    let events = trace.len();
    assert!((500..=700).contains(&events), "{events} events");
    let _ = trace.index();
    let (checked, n) = allocations(|| check_guarantees(&trace, &pair, None));
    let instantiations: usize = checked.iter().map(|(r, _)| r.instantiations).sum();
    for (r, _) in &checked {
        assert!(r.holds, "{}: {:?}", r.name, r.violations);
    }
    let per = n as f64 / instantiations as f64;
    eprintln!("salary pair: {n} allocations for {instantiations} instantiations ({per:.3} each)");
    // 0.086 on this trace; the bound leaves 1.7× headroom.
    assert!(
        per <= 0.15,
        "{n} allocations for {instantiations} instantiations ({per:.3} each)"
    );
}
