//! # hcm-bench — the experiment series tables
//!
//! One self-contained bench target per experiment of `EXPERIMENTS.md`
//! (`harness = false`; no external bench framework — the container has
//! no registry access). Each target prints the experiment's **series
//! table** on stderr — the reproduction of the paper's qualitative
//! claims as numbers: miss rates, message counts, latencies, detection
//! times — and asserts the claim, so a bad change panics the binary.
//!
//! Run one with `cargo bench -p hcm-bench --bench <name>`, or all of
//! them with `cargo bench --workspace`. `HCM_BENCH_QUICK=1` shrinks the
//! sweeps for CI. Timing regressions are caught by the `expbench`
//! workloads and the same-host gate in `.github/bench-gate.sh`, not
//! here.

/// Run-mode switch shared by the bench targets.
pub mod harness {
    /// `true` when a smoke run was requested (`HCM_BENCH_QUICK=1`):
    /// reduced sweeps. Used by CI.
    #[must_use]
    pub fn quick() -> bool {
        std::env::var("HCM_BENCH_QUICK").is_ok_and(|v| v != "0")
    }
}

/// Deterministic parallel sweep driver.
///
/// Experiment sweeps (poll period × update rate, employee count ×
/// horizon, seed batteries) are embarrassingly parallel: every cell
/// builds its own [`hcm_toolkit::Scenario`] from its key and returns
/// plain data. `Scenario` holds `Rc`/`RefCell` state and is not
/// `Send`, so the *job* crosses threads, never the scenario: each
/// worker constructs, runs, and drops its cells entirely locally.
///
/// Determinism: cells are handed out via an atomic cursor (so wall
/// clock decides *who* computes a cell) but results are placed back by
/// cell index and returned in input order (so scheduling never decides
/// *where* a result lands). A job that is a pure function of its key —
/// which scenario runs are, seeded sim-time simulation end to end —
/// therefore produces byte-identical tables and obs snapshots whether
/// the sweep runs on one thread or sixteen. The only global shared
/// state is the `Sym` interner, whose assignment order varies across
/// schedules by design; nothing observable orders by symbol id (see
/// `hcm_core::intern`).
pub mod sweep {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Worker count: the machine's available parallelism.
    #[must_use]
    pub fn worker_count() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    }

    /// Run `job` over every key, in parallel, returning results in
    /// input order. See the module docs for the determinism argument.
    pub fn run<K, R, F>(keys: &[K], job: F) -> Vec<R>
    where
        K: Sync,
        R: Send,
        F: Fn(&K) -> R + Sync,
    {
        let workers = worker_count().min(keys.len().max(1));
        if workers <= 1 {
            return run_serial(keys, job);
        }
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(keys.len());
        slots.resize_with(keys.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let job = &job;
                    scope.spawn(move || {
                        let mut done: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(key) = keys.get(i) else {
                                break;
                            };
                            done.push((i, job(key)));
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("sweep worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every cell computed"))
            .collect()
    }

    /// The serial reference: same cells, same order, one thread.
    pub fn run_serial<K, R, F>(keys: &[K], job: F) -> Vec<R>
    where
        F: Fn(&K) -> R,
    {
        keys.iter().map(job).collect()
    }
}

/// Common scenario builders shared by the bench targets.
pub mod scenarios {
    use hcm_core::{SimDuration, SimTime, Value};
    use hcm_toolkit::backends::RawStore;
    use hcm_toolkit::workload::PoissonWriter;
    use hcm_toolkit::{Scenario, ScenarioBuilder, SpontaneousOp};

    /// CM-RID for the notify-source salary site.
    pub const RID_SRC: &str = r#"
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

    /// CM-RID for the writable destination salary site.
    pub const RID_DST: &str = r#"
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

    /// The §4.2 propagation strategy.
    pub const PROPAGATE: &str = r#"
[locate]
salary1 = A
salary2 = B
[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s
"#;

    /// Fresh employees database with `n` rows.
    #[must_use]
    pub fn employees(n: usize) -> hcm_ris::relational::Database {
        let mut db = hcm_ris::relational::Database::new();
        db.create_table("employees", &["empid", "salary"]).unwrap();
        for i in 0..n {
            db.execute(&format!(
                "INSERT INTO employees VALUES ('e{i}', {})",
                1000 + i
            ))
            .unwrap();
        }
        db
    }

    /// The salary scenario with a Poisson workload over `employees`
    /// employees, mean update gap `gap`, running until `until`.
    #[must_use]
    pub fn salary_scenario(
        seed: u64,
        employees_n: usize,
        gap: SimDuration,
        until: SimTime,
    ) -> Scenario {
        let mut sc = ScenarioBuilder::new(seed)
            .site("A", RawStore::Relational(employees(employees_n)), RID_SRC)
            .unwrap()
            .site("B", RawStore::Relational(employees(employees_n)), RID_DST)
            .unwrap()
            .strategy(PROPAGATE)
            .build()
            .unwrap();
        let target = sc.site("A").translator;
        let ids: Vec<String> = (0..employees_n).map(|i| format!("e{i}")).collect();
        sc.add_actor(Box::new(PoissonWriter::sql_updates(
            target,
            gap,
            until,
            "employees",
            "salary",
            "empid",
            ids,
            (1, 1_000_000),
        )));
        sc
    }

    /// Depth of the private-write chain every engine-bench site runs
    /// (`N → W(p0) → … → W(p_DEPTH)`): each spontaneous store write
    /// triggers `DEPTH + 2` shell-matched events.
    pub const ENGINE_CHAIN_DEPTH: usize = 3;

    /// Distinct keys each engine-bench writer cycles through.
    const ENGINE_KEYS: u64 = 32;

    /// The engine scale-sweep scenario: `sites` KV sites, each with its
    /// own mapped base `k<s>`, a Poisson writer, and `rules_per_site`
    /// strategy rules — one `N(k<s>) → W(p<s>x0)` entry rule, a
    /// [`ENGINE_CHAIN_DEPTH`]-deep chain of CM-private write rules, and
    /// never-firing filler rules on distinct private bases (`q<s>xj`)
    /// that scale the per-site rule count without changing the event
    /// volume. All rule work is site-local, so the measured cost is the
    /// shell's dispatch + firing path, not the network model.
    #[must_use]
    pub fn engine_scenario(
        seed: u64,
        sites: usize,
        rules_per_site: usize,
        gap: SimDuration,
        until: SimTime,
    ) -> Scenario {
        let depth = ENGINE_CHAIN_DEPTH;
        assert!(
            rules_per_site > depth,
            "need at least the entry rule + {depth} chain rules"
        );
        let mut builder = ScenarioBuilder::new(seed);
        let mut strategy = String::from("[locate]\n");
        for s in 0..sites {
            let rid = format!(
                "ris = kv\nservice = 1ms\n[interface]\n\
                 Ws(k{s}(n), b) -> N(k{s}(n), b) within 1s\n\
                 [map k{s}]\nkey = k/$p0\n"
            );
            builder = builder
                .site(
                    &format!("S{s}"),
                    RawStore::Kv(hcm_ris::kvstore::KvStore::new()),
                    &rid,
                )
                .expect("engine RID compiles");
            strategy.push_str(&format!("k{s} = S{s}\n"));
        }
        strategy.push_str("[private]\n");
        for s in 0..sites {
            for j in 0..=depth {
                strategy.push_str(&format!("p{s}x{j} = S{s}\n"));
            }
            for j in 0..rules_per_site - 1 - depth {
                strategy.push_str(&format!("q{s}x{j} = S{s}\n"));
            }
        }
        strategy.push_str("[strategy]\n");
        for s in 0..sites {
            strategy.push_str(&format!("N(k{s}(n), b) -> W(p{s}x0(n), b) within 5s\n"));
            for j in 0..depth {
                let next = j + 1;
                strategy.push_str(&format!(
                    "W(p{s}x{j}(n), b) -> W(p{s}x{next}(n), b) within 5s\n"
                ));
            }
            for j in 0..rules_per_site - 1 - depth {
                strategy.push_str(&format!("W(q{s}x{j}(n), b) -> W(p{s}x0(n), b) within 5s\n"));
            }
        }
        let mut sc = builder
            .strategy(&strategy)
            .build()
            .expect("engine strategy compiles");
        for s in 0..sites {
            let target = sc.site(&format!("S{s}")).translator;
            sc.add_actor(Box::new(PoissonWriter::new(
                target,
                gap,
                until,
                (1, 1_000_000),
                Box::new(move |n, v| SpontaneousOp::KvPut {
                    key: format!("k/u{}", n % ENGINE_KEYS),
                    value: Value::Int(v),
                }),
            )));
        }
        sc
    }
}
