//! E17 bench — online engine scale sweep: sites × rules × event
//! volume.
//!
//! Each cell builds a fresh [`hcm_bench::scenarios::engine_scenario`]
//! (KV sites, per-site Poisson writers, site-local rule chains plus
//! filler rules that scale the rule count without changing the event
//! volume) and runs it to quiescence, so a cell's cost is everything a
//! real experiment pays: strategy compilation, shell construction,
//! workload generation, translation, rule dispatch, and firing. The
//! throughput column counts *trace events* (every CM event the engine
//! recorded), which is `(chain depth + 3) ×` the spontaneous op count.
//!
//! Cell names are `s<sites>_r<total rules>_e<spontaneous ops>`. Each
//! cell runs once and prints its event count, wall time and events/s;
//! the regression gate is expbench's `engine_wide` workload, not this
//! table.

use hcm_bench::{harness, scenarios};
use hcm_core::{SimDuration, SimTime};
use hcm_simkit::RunOutcome;

struct Cell {
    sites: usize,
    rules_per_site: usize,
    /// Target spontaneous (store-write) op count across all sites.
    ops: u64,
}

impl Cell {
    fn name(&self) -> String {
        format!(
            "s{}_r{}_e{}k",
            self.sites,
            self.sites * self.rules_per_site,
            self.ops / 1000
        )
    }

    /// Build + run the cell; returns the trace event count.
    fn run(&self) -> u64 {
        // One writer per site at one op per simulated second: the sim
        // horizon carries the event-volume axis.
        let per_site_secs = (self.ops / self.sites as u64).max(1);
        let mut sc = scenarios::engine_scenario(
            17,
            self.sites,
            self.rules_per_site,
            SimDuration::from_secs(1),
            SimTime::from_secs(per_site_secs),
        );
        assert_eq!(sc.run_to_quiescence(), RunOutcome::Quiescent);
        sc.trace().len() as u64
    }
}

fn main() {
    let cells = [
        Cell {
            sites: 4,
            rules_per_site: 4,
            ops: 20_000,
        },
        Cell {
            sites: 4,
            rules_per_site: 64,
            ops: 20_000,
        },
        Cell {
            sites: 16,
            rules_per_site: 4,
            ops: 40_000,
        },
        Cell {
            sites: 16,
            rules_per_site: 64,
            ops: 40_000,
        },
        Cell {
            sites: 16,
            rules_per_site: 256,
            ops: 100_000,
        },
        Cell {
            sites: 256,
            rules_per_site: 4,
            ops: 100_000,
        },
        Cell {
            sites: 256,
            rules_per_site: 128,
            ops: 100_000,
        },
    ];
    // Quick (CI) mode keeps the two smallest cells.
    let cells = if harness::quick() {
        &cells[..2]
    } else {
        &cells[..]
    };
    eprintln!("\n[E17] online engine scale sweep (one run per cell):");
    eprintln!(
        "  {:<16} {:>10} {:>10} {:>12}",
        "cell", "events", "wall (ms)", "events/s"
    );
    for c in cells {
        let t0 = std::time::Instant::now();
        let events = c.run();
        let secs = t0.elapsed().as_secs_f64();
        eprintln!(
            "  {:<16} {:>10} {:>10.1} {:>12.0}",
            c.name(),
            events,
            secs * 1000.0,
            events as f64 / secs
        );
    }
}
