//! Byte budget of a run and its post-mortem.
//!
//! A counting global allocator tracks the bytes live on the test's own
//! thread, and their peak, while an `engine_wide`-shaped scenario (16
//! KV sites × 64 rules, a private-write chain behind every store write)
//! runs to quiescence and `harness::post_mortem` judges it. At about
//! 50k events the trace dominates: each `Event` is 160 bytes, and the
//! recorder's buffer may hold up to twice its length. The post-mortem
//! reads the run's own trace, shared with the recorder, so the budget
//! per event leaves no room for a second copy of it. The checker's
//! per-position tables hold `u32` positions, and the state index and
//! the checker's working state fit beside the one copy.

use hcm::core::{SimDuration, SimTime, Value};
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::workload::PoissonWriter;
use hcm::toolkit::{Scenario, ScenarioBuilder, SpontaneousOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

struct Counting;

/// Allocations made and bytes live on this thread since counting began.
#[derive(Clone, Copy, Default)]
struct Tally {
    on: bool,
    allocations: usize,
    live: isize,
    peak: isize,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { on: false, allocations: 0, live: 0, peak: 0 })
    };
}

fn note(bytes: isize, allocation: bool) {
    TALLY.with(|t| {
        let mut tally = t.get();
        if tally.on {
            tally.allocations += usize::from(allocation);
            tally.live += bytes;
            tally.peak = tally.peak.max(tally.live);
            t.set(tally);
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the tally only reads and writes a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, true);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, true);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, true);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), false);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SITES: usize = 16;
const RULES_PER_SITE: usize = 64;
const CHAIN_DEPTH: usize = 3;
const KEYS: u64 = 32;
const UNTIL_S: u64 = 520;

/// Peak live bytes per event of run + post-mortem. One run here reads
/// 419: the recorder's buffer (212, at 49,362 events in room for
/// 65,536), the state index, the checker's tables and the scenario. A
/// second 160-byte copy of each event does not fit.
const BYTES_PER_EVENT: f64 = 500.0;

/// `SITES` KV sites, each with a mapped base `k<s>`, a Poisson writer
/// (one put a second on average until `UNTIL_S`), an entry rule, a
/// `CHAIN_DEPTH`-deep private-write chain and never-firing filler rules
/// up to `RULES_PER_SITE` rules per site.
fn engine_wide() -> Scenario {
    let fillers = RULES_PER_SITE - 1 - CHAIN_DEPTH;
    let mut strategy = String::from("[locate]\n");
    for s in 0..SITES {
        writeln!(strategy, "k{s} = S{s}").unwrap();
    }
    strategy.push_str("[private]\n");
    for s in 0..SITES {
        for j in 0..=CHAIN_DEPTH {
            writeln!(strategy, "p{s}x{j} = S{s}").unwrap();
        }
        for j in 0..fillers {
            writeln!(strategy, "q{s}x{j} = S{s}").unwrap();
        }
    }
    strategy.push_str("[strategy]\n");
    for s in 0..SITES {
        writeln!(strategy, "N(k{s}(n), b) -> W(p{s}x0(n), b) within 5s").unwrap();
        for j in 0..CHAIN_DEPTH {
            let next = j + 1;
            writeln!(
                strategy,
                "W(p{s}x{j}(n), b) -> W(p{s}x{next}(n), b) within 5s"
            )
            .unwrap();
        }
        for j in 0..fillers {
            writeln!(strategy, "W(q{s}x{j}(n), b) -> W(p{s}x0(n), b) within 5s").unwrap();
        }
    }
    let mut builder = ScenarioBuilder::new(1);
    for s in 0..SITES {
        let rid = format!(
            "ris = kv\nservice = 1ms\n[interface]\n\
             Ws(k{s}(n), b) -> N(k{s}(n), b) within 1s\n\
             [map k{s}]\nkey = k/$p0\n"
        );
        let store = RawStore::Kv(hcm::ris::kvstore::KvStore::new());
        builder = builder.site(&format!("S{s}"), store, &rid).unwrap();
    }
    let mut sc = builder.strategy(&strategy).build().unwrap();
    for s in 0..SITES {
        let target = sc.site(&format!("S{s}")).translator;
        sc.add_actor(Box::new(PoissonWriter::new(
            target,
            SimDuration::from_secs(1),
            SimTime::from_secs(UNTIL_S),
            (1, 1_000_000),
            Box::new(|n, v| SpontaneousOp::KvPut {
                key: format!("k/u{}", n % KEYS),
                value: Value::Int(v),
            }),
        )));
    }
    sc
}

/// Allocations `Scenario::trace()` makes, the bytes it leaves live
/// while its snapshot is held, and the snapshot's length.
fn trace_cost(sc: &Scenario) -> (usize, isize, usize) {
    let before = TALLY.with(Cell::get);
    let trace = sc.trace();
    let after = TALLY.with(Cell::get);
    let made = after.allocations - before.allocations;
    (made, after.live - before.live, trace.len())
}

#[test]
fn run_and_post_mortem_hold_one_copy_of_the_trace() {
    let mut sc = engine_wide();
    TALLY.with(|t| {
        t.set(Tally {
            on: true,
            ..Tally::default()
        })
    });
    sc.run_until(SimTime::from_secs(UNTIL_S / 4));
    let (short_allocs, short_bytes, short_len) = trace_cost(&sc);
    sc.run_to_quiescence();
    let (long_allocs, long_bytes, long_len) = trace_cost(&sc);
    let pm = hcm::harness::post_mortem(&sc);
    let tally = TALLY.with(|t| t.replace(Tally::default()));

    // The whole run is judged, and it is valid: the budget is not met
    // by dropping work.
    let events = pm.trace.len();
    assert_eq!(events, long_len);
    assert!(events >= 45_000, "{events} events");
    assert!(
        long_len > 3 * short_len,
        "{short_len} then {long_len} events"
    );
    assert!(pm.validity.is_valid(), "{:?}", pm.validity.violations);

    // A snapshot costs the same at any trace length.
    assert_eq!(
        (short_allocs, short_bytes),
        (long_allocs, long_bytes),
        "trace() at {short_len} events vs at {long_len}: (allocations, bytes)"
    );

    let per_event = tally.peak as f64 / events as f64;
    eprintln!(
        "run + post-mortem: peak {} bytes live for {events} events ({per_event:.0} per event)",
        tally.peak
    );
    assert!(
        per_event < BYTES_PER_EVENT,
        "peak {} bytes live for {events} events ({per_event:.0} per event)",
        tally.peak
    );
}
