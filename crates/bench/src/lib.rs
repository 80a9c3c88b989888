//! # hcm-bench — the experiment harness
//!
//! One self-contained bench target per experiment of `EXPERIMENTS.md`
//! (`harness = false`; no external bench framework — the container has
//! no registry access). Each target does two things:
//!
//! 1. prints the experiment's **series table** (the reproduction of the
//!    paper's qualitative claims as numbers — miss rates, message
//!    counts, latencies, detection times) once at startup;
//! 2. wall-clock-times the underlying machinery with [`harness::time`]
//!    (simulation throughput, rule-engine and checker costs) and emits
//!    a `BENCH_<name>.json` report under `target/`.
//!
//! Run everything with `cargo bench --workspace`; the tables land on
//! stderr and in `EXPERIMENTS.md`'s measured columns.

/// Minimal wall-clock bench harness replacing the former Criterion
/// targets: run a closure N times, keep mean/min/percentiles, render a
/// table plus a hand-rolled `BENCH_<name>.json` (same no-serde policy
/// as `hcm-obs`), and optionally diff against a committed baseline.
pub mod harness {
    use std::time::Instant;

    /// One timed case.
    pub struct Timing {
        /// Case label, e.g. `simulate_1h/10`.
        pub name: String,
        /// Mean wall-clock milliseconds over the samples.
        pub mean_ms: f64,
        /// Fastest sample in milliseconds.
        pub min_ms: f64,
        /// Median sample in milliseconds.
        pub p50_ms: f64,
        /// 95th-percentile sample in milliseconds (nearest-rank).
        pub p95_ms: f64,
        /// Sample count.
        pub samples: u32,
        /// Events processed per run, when the case measures throughput
        /// (see [`time_rate`]); `None` for pure-latency cases.
        pub events: Option<u64>,
    }

    impl Timing {
        /// Events per wall-clock second at the mean, when known.
        #[must_use]
        pub fn events_per_s(&self) -> Option<f64> {
            self.events
                .map(|e| e as f64 / (self.mean_ms / 1000.0))
                .filter(|r| r.is_finite())
        }
    }

    /// `true` when a smoke run was requested (`HCM_BENCH_QUICK=1`):
    /// one sample per case, reduced sweeps. Used by CI.
    #[must_use]
    pub fn quick() -> bool {
        std::env::var("HCM_BENCH_QUICK").is_ok_and(|v| v != "0")
    }

    /// Effective sample count: `HCM_BENCH_SAMPLES` when set, `1` on a
    /// quick run, else the target's requested count.
    #[must_use]
    pub fn effective_samples(requested: u32) -> u32 {
        if let Ok(v) = std::env::var("HCM_BENCH_SAMPLES") {
            return v.parse::<u32>().unwrap_or(requested).max(1);
        }
        if quick() {
            return 1;
        }
        requested
    }

    /// Time `f` over `samples` runs (after one untimed warm-up).
    /// `samples` may be overridden by the environment — see
    /// [`effective_samples`].
    pub fn time<R>(name: &str, samples: u32, mut f: impl FnMut() -> R) -> Timing {
        let mut t = time_rate(name, samples, || {
            std::hint::black_box(f());
            0
        });
        t.events = None;
        t
    }

    /// Like [`time`], but the closure reports how many events the run
    /// processed, so the case carries an events/sec throughput figure.
    /// Runs are deterministic per seed, so the count from the last
    /// sample stands for all of them.
    pub fn time_rate(name: &str, samples: u32, mut f: impl FnMut() -> u64) -> Timing {
        let samples = effective_samples(samples);
        std::hint::black_box(f());
        let mut runs = Vec::with_capacity(samples as usize);
        let mut events = 0;
        for _ in 0..samples {
            let t0 = Instant::now();
            events = std::hint::black_box(f());
            runs.push(t0.elapsed().as_secs_f64() * 1000.0);
        }
        let mean = runs.iter().sum::<f64>() / f64::from(samples);
        let mut sorted = runs;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        // Nearest-rank percentile: ceil(q·n) − 1, clamped.
        let rank = |q: f64| -> f64 {
            let n = sorted.len();
            let i = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            sorted[i]
        };
        Timing {
            name: name.to_string(),
            mean_ms: mean,
            min_ms: sorted[0],
            p50_ms: rank(0.50),
            p95_ms: rank(0.95),
            samples,
            events: Some(events),
        }
    }

    /// Print the timing table to stderr, write
    /// `target/BENCH_<bench>.json` (best effort — a read-only target
    /// dir only costs the file, not the run), and, when a baseline was
    /// requested (`-- --baseline[=PATH]` or `HCM_BENCH_BASELINE`),
    /// print a per-case comparison against it.
    pub fn report(bench: &str, timings: &[Timing]) {
        eprintln!(
            "
[bench:{bench}]"
        );
        eprintln!(
            "  {:<40} {:>11} {:>11} {:>11} {:>11} {:>10} {:>6}",
            "case", "mean (ms)", "min (ms)", "p50 (ms)", "p95 (ms)", "events/s", "n"
        );
        for t in timings {
            let rate = t
                .events_per_s()
                .map_or_else(|| "-".to_string(), |r| format!("{r:.0}"));
            eprintln!(
                "  {:<40} {:>11.2} {:>11.2} {:>11.2} {:>11.2} {rate:>10} {:>6}",
                t.name, t.mean_ms, t.min_ms, t.p50_ms, t.p95_ms, t.samples
            );
        }
        let json = to_json(bench, timings);
        // Bench binaries run with the package dir as cwd; anchor the
        // report in the workspace target dir instead.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("BENCH_{bench}.json"));
        if std::fs::write(&path, &json).is_ok() {
            eprintln!("  wrote {}", path.display());
        }
        let gate = gate_pct();
        if let Some(base) = baseline_path(bench, gate.is_some()) {
            let compared = compare_to_baseline(bench, timings, &base);
            if let Some(pct) = gate {
                let failed: Vec<_> = compared
                    .iter()
                    .filter(|(_, base, now)| *now > base * (1.0 + pct / 100.0))
                    .collect();
                if failed.is_empty() {
                    eprintln!("  gate: ok (threshold +{pct:.0}%)");
                } else {
                    for (name, base, now) in &failed {
                        let delta = (now / base - 1.0) * 100.0;
                        eprintln!(
                            "  gate: FAIL {name}: {now:.2} ms vs baseline {base:.2} ms \
                             ({delta:+.1}%, allowed +{pct:.0}%)"
                        );
                    }
                    let names: Vec<&str> = failed.iter().map(|(n, _, _)| n.as_str()).collect();
                    eprintln!(
                        "  gate: {} of {} cell(s) over threshold: {}",
                        failed.len(),
                        compared.len(),
                        names.join(", ")
                    );
                    std::process::exit(1);
                }
            }
        } else if gate.is_some() {
            eprintln!("  gate: no baseline found for {bench} — skipped");
        }
    }

    /// Regression-gate threshold, when requested: `--gate <pct>` /
    /// `--gate=<pct>` in the binary's args or the `HCM_BENCH_GATE` env
    /// var. A case whose fresh mean exceeds its committed baseline mean
    /// by more than `pct` percent makes the bench exit non-zero.
    #[must_use]
    pub fn gate_pct() -> Option<f64> {
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if let Some(p) = a.strip_prefix("--gate=") {
                return p.parse().ok();
            }
            if a == "--gate" {
                return args.next()?.parse().ok();
            }
        }
        std::env::var("HCM_BENCH_GATE").ok()?.parse().ok()
    }

    /// Resolve the requested baseline file, if any: `--baseline=PATH`
    /// / `--baseline PATH` / bare `--baseline` in the binary's args,
    /// or the `HCM_BENCH_BASELINE` env var (a path, or `1` for the
    /// default). The default is the committed pre-optimization
    /// snapshot `benches/baselines/pre/BENCH_<bench>.json`. A gate run
    /// (`gated`) falls back to the default even when no baseline was
    /// named explicitly.
    fn baseline_path(bench: &str, gated: bool) -> Option<std::path::PathBuf> {
        let default = || {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../benches/baselines/pre")
                .join(format!("BENCH_{bench}.json"))
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if let Some(p) = a.strip_prefix("--baseline=") {
                return Some(p.into());
            }
            if a == "--baseline" {
                return match args.next() {
                    Some(p) if !p.starts_with('-') => Some(p.into()),
                    _ => Some(default()),
                };
            }
        }
        match std::env::var("HCM_BENCH_BASELINE") {
            Ok(v) if v == "1" || v.is_empty() => Some(default()),
            Ok(v) => Some(v.into()),
            Err(_) if gated => Some(default()),
            Err(_) => None,
        }
    }

    /// Diff fresh timings against a committed `BENCH_*.json`: per-case
    /// speedup (baseline mean / fresh mean), flagging regressions.
    /// Returns the matched `(case, baseline_ms, fresh_ms)` triples for
    /// the gate.
    fn compare_to_baseline(
        bench: &str,
        timings: &[Timing],
        path: &std::path::Path,
    ) -> Vec<(String, f64, f64)> {
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("  baseline: {} not readable — skipped", path.display());
            return Vec::new();
        };
        let base = parse_case_means(&text);
        let mut matched = Vec::new();
        eprintln!("\n[bench:{bench}] vs baseline {}", path.display());
        eprintln!(
            "  {:<40} {:>13} {:>11} {:>9}",
            "case", "baseline (ms)", "now (ms)", "speedup"
        );
        for t in timings {
            match base.iter().find(|(n, _)| n == &t.name) {
                Some((_, b)) => {
                    let speedup = b / t.mean_ms;
                    let marker = if speedup < 0.9 { "  << regression" } else { "" };
                    eprintln!(
                        "  {:<40} {:>13.2} {:>11.2} {speedup:>8.2}x{marker}",
                        t.name, b, t.mean_ms
                    );
                    matched.push((t.name.clone(), *b, t.mean_ms));
                }
                None => eprintln!("  {:<40} {:>13} {:>11.2}", t.name, "absent", t.mean_ms),
            }
        }
        matched
    }

    /// Extract `(name, mean_ms)` pairs from a `BENCH_*.json` report.
    /// The format is our own (see [`to_json`]): scanning for the two
    /// fields is exact on every file we emit, old or new.
    #[must_use]
    pub fn parse_case_means(json: &str) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let mut rest = json;
        while let Some(i) = rest.find("{\"name\":\"") {
            rest = &rest[i + 9..];
            let Some(q) = rest.find('"') else { break };
            let name = rest[..q].to_string();
            let Some(m) = rest.find("\"mean_ms\":") else {
                break;
            };
            let tail = &rest[m + 10..];
            let end = tail
                .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .unwrap_or(tail.len());
            if let Ok(v) = tail[..end].parse::<f64>() {
                out.push((name, v));
            }
            rest = tail;
        }
        out
    }

    /// Execution-environment metadata embedded in every report:
    /// without it a committed baseline is uninterpretable (was it a
    /// quick run? how many cores?). Keys
    /// never collide with the `{"name":"` / `"mean_ms":` markers that
    /// [`parse_case_means`] scans for.
    #[must_use]
    pub fn env_json() -> String {
        let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
        let sweep_threads = std::env::var("HCM_SWEEP_THREADS").unwrap_or_default();
        format!(
            "{{\"available_parallelism\":{cores},\
             \"hcm_sweep_threads\":\"{}\",\"quick\":{}}}",
            sweep_threads.replace('"', ""),
            quick()
        )
    }

    /// Render the report as JSON (hand-rolled; labels are ASCII
    /// identifiers so plain escaping suffices).
    #[must_use]
    pub fn to_json(bench: &str, timings: &[Timing]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"bench\":\"{bench}\",\"env\":{},\"cases\":[",
            env_json()
        ));
        for (i, t) in timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"mean_ms\":{:.3},\"min_ms\":{:.3},\"p50_ms\":{:.3},\"p95_ms\":{:.3},\"samples\":{}",
                t.name, t.mean_ms, t.min_ms, t.p50_ms, t.p95_ms, t.samples
            ));
            if let (Some(events), Some(rate)) = (t.events, t.events_per_s()) {
                out.push_str(&format!(",\"events\":{events},\"events_per_s\":{rate:.0}"));
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn percentiles_from_sorted_samples() {
            let t = time("t", 4, || std::hint::black_box(1 + 1));
            assert!(t.min_ms <= t.p50_ms && t.p50_ms <= t.p95_ms);
            assert!(t.samples >= 1);
        }

        #[test]
        fn parse_roundtrip() {
            let t = Timing {
                name: "case_a".into(),
                mean_ms: 12.5,
                min_ms: 10.0,
                p50_ms: 12.0,
                p95_ms: 19.0,
                samples: 10,
                events: None,
            };
            let json = to_json("x", &[t]);
            let cases = parse_case_means(&json);
            assert_eq!(cases, vec![("case_a".to_string(), 12.5)]);
        }

        #[test]
        fn throughput_cases_parse_and_report_rate() {
            let t = Timing {
                name: "engine".into(),
                mean_ms: 2000.0,
                min_ms: 2000.0,
                p50_ms: 2000.0,
                p95_ms: 2000.0,
                samples: 3,
                events: Some(100_000),
            };
            assert_eq!(t.events_per_s(), Some(50_000.0));
            let json = to_json("x", &[t]);
            assert!(json.contains("\"events\":100000"));
            assert!(json.contains("\"events_per_s\":50000"));
            // Extra fields must not confuse the baseline scanner.
            assert_eq!(
                parse_case_means(&json),
                vec![("engine".to_string(), 2000.0)]
            );
        }

        #[test]
        fn parse_pre_percentile_format() {
            // Old reports lack p50/p95; the scanner must still read
            // them (committed baselines are in this format).
            let old = "{\"bench\":\"checker\",\"cases\":[{\"name\":\"validity\",\"mean_ms\":0.414,\"min_ms\":0.334,\"samples\":10}]}\n";
            assert_eq!(parse_case_means(old), vec![("validity".to_string(), 0.414)]);
        }
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

    /// Worker count: `HCM_SWEEP_THREADS` when set (clamped to ≥ 1;
    /// `1` forces the serial path, useful for CI smoke runs and
    /// equivalence tests), otherwise the machine's available
    /// parallelism.
    #[must_use]
    pub fn worker_count() -> usize {
        match std::env::var("HCM_SWEEP_THREADS") {
            Ok(v) => v.parse::<usize>().unwrap_or(1).max(1),
            Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
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
