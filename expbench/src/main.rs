//! Experiment benchmark: what one batch of experiments costs its user,
//! end to end (build + simulate + post-mortem), and which layer the time
//! goes to.
//!
//! ```text
//! expbench --workload <engine_wide|salary_guarantees|polling_sweep>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats the workload's batch of cells until `--seconds` have
//! passed, and reports each timing from the run's fastest batch. On a
//! shared host, noise only ever adds time, and it can be bimodal: whole
//! stretches of batches run about 1.7 times slower. A median flips
//! between the two modes; the minimum does not. The median of
//! `experiment_s` is printed beside it.
//!
//! With `--trace 0` it prints the end-to-end metrics. With `--trace 1`
//! it alternates untraced and traced batches, and prints the per-layer
//! metrics, taken from spans around each call into a layer and from the
//! hcm-obs counters. The last line of standard output is one JSON
//! object; the line before it, starting `meta `, records how the run was
//! made. The exit code is non-zero when any cell fails its correctness
//! pin.

mod pins;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Tracer;
use workloads::{run_cell, Workload};

const USAGE: &str = "usage: expbench --workload <engine_wide|salary_guarantees|polling_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if s > 600 {
                    return Err(format!("--seconds {s} exceeds 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One batch: every cell of the workload once, times summed over cells.
#[derive(Default)]
struct Batch {
    traced: bool,
    setup_s: f64,
    simulate_s: f64,
    check_s: f64,
    events: u64,
    /// Counters summed over cells (maxima for high-water gauges).
    counts: BTreeMap<&'static str, f64>,
    /// Self seconds per span name.
    spans: BTreeMap<&'static str, f64>,
}

impl Batch {
    fn experiment_s(&self) -> f64 {
        self.setup_s + self.simulate_s + self.check_s
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("expbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the serial executor only: record the
    // sharding variable if set, then make sure the builder never sees it.
    let sim_threads = std::env::var("HCM_SIM_THREADS").ok();
    std::env::remove_var("HCM_SIM_THREADS");

    let name = args.workload.name();
    let cells = args.workload.cells(args.seed);
    let committed = pins::committed(name, args.seed);
    let mut reference: Vec<Option<String>> = cells
        .iter()
        .map(|c| committed.get(&c.name).cloned())
        .collect();
    eprintln!(
        "expbench: {name} seed={} cells={} committed pins={}",
        args.seed,
        cells.len(),
        if committed.is_empty() { "none" } else { "yes" }
    );

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min_batches = if args.trace { 2 } else { 1 };
    let mut batches: Vec<Batch> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        // In a traced run, odd batches are traced and even ones are not,
        // so both sides see the same host conditions.
        let traced = args.trace && batches.len() % 2 == 1;
        let mut tr = Tracer::new(traced);
        let mut batch = Batch {
            traced,
            ..Batch::default()
        };
        for (cell, reference) in cells.iter().zip(&mut reference) {
            let run = run_cell(cell, &mut tr);
            attempted += 1;
            if batches.is_empty() {
                eprintln!("pin {name} {} {}", args.seed, run.pin);
            }
            let reference = reference.get_or_insert_with(|| run.pin.clone());
            if !(run.quiescent && run.sane && run.pin == *reference) {
                failed += 1;
                eprintln!(
                    "FAIL {name} seed={} batch={}: quiescent={} sane={}\n  got      {}\n  expected {}",
                    args.seed,
                    batches.len(),
                    run.quiescent,
                    run.sane,
                    run.pin,
                    reference
                );
            }
            batch.setup_s += run.setup_s;
            batch.simulate_s += run.simulate_s;
            batch.check_s += run.check_s;
            batch.events += run.events;
            for (k, v) in run.layers {
                let slot = batch.counts.entry(k).or_insert(0.0);
                *slot = if k == "simkit.queue_depth_max" {
                    slot.max(v)
                } else {
                    *slot + v
                };
            }
        }
        batch.spans = tr.take_self_times();
        batches.push(batch);
        if batches.len() >= min_batches && Instant::now() >= deadline {
            break;
        }
    }

    let untraced: Vec<&Batch> = batches.iter().filter(|b| !b.traced).collect();
    let traced: Vec<&Batch> = batches.iter().filter(|b| b.traced).collect();
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut notes = String::new();
    if args.trace {
        // Counts repeat exactly across batches, so the minimum only
        // selects among the timings.
        let rows: Vec<_> = traced.iter().map(|b| layer_values(b)).collect();
        for (i, &(metric, unit, _)) in rows[0].iter().enumerate() {
            metrics.push((metric, unit, min(rows.iter().map(|r| r[i].2))));
        }
        let exp = fastest(&traced, Batch::experiment_s);
        let plain = fastest(&untraced, Batch::experiment_s);
        metrics.push(("bench.trace_overhead_pct", "%", (exp / plain - 1.0) * 100.0));
        let get = |m: &str| {
            metrics
                .iter()
                .find(|(n, _, _)| *n == m)
                .map_or(0.0, |x| x.2)
        };
        let setup_simulate = fastest(&traced, |b| b.setup_s + b.simulate_s);
        let _ = writeln!(
            notes,
            "share of traced experiment_s ({exp:.4} s): validity {:.1}%, guarantees {:.1}%, \
             setup+simulate {:.1}%",
            100.0 * get("checker.validity_s") / exp,
            100.0 * get("checker.guarantee_s") / exp,
            100.0 * setup_simulate / exp,
        );
    } else {
        metrics.push(("experiment_s", "s", fastest(&untraced, Batch::experiment_s)));
        metrics.push(("setup_s", "s", fastest(&untraced, |b| b.setup_s)));
        let simulate = fastest(&untraced, |b| b.simulate_s);
        metrics.push(("simulate_s", "s", simulate));
        metrics.push(("check_s", "s", fastest(&untraced, |b| b.check_s)));
        // Every batch simulates the same events.
        let events = untraced[0].events as f64;
        metrics.push(("sim_events_per_s", "1/s", events / simulate));
        metrics.push(("peak_rss_mb", "MB", peak_rss_mb()));
        let exp: Vec<f64> = untraced.iter().map(|b| b.experiment_s()).collect();
        let hi = exp.iter().copied().fold(0.0, f64::max);
        let _ = writeln!(
            notes,
            "experiment_s over {} batches: min {:.4} s, median {:.4} s, max {hi:.4} s",
            exp.len(),
            min(exp.iter().copied()),
            median(exp),
        );
    }
    let error_rate = failed as f64 / attempted as f64;

    for (m, unit, v) in &metrics {
        println!("{m} = {v} {unit}");
    }
    println!("error_rate = {error_rate} ratio ({failed} failed of {attempted} cells)");
    print!("{notes}");
    println!(
        "meta {}",
        meta_json(&args, batches.len(), sim_threads.as_deref())
    );
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (m, unit, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{m}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics of one traced batch, with units.
fn layer_values(b: &Batch) -> Vec<(&'static str, &'static str, f64)> {
    let span = |n: &str| b.spans.get(n).copied().unwrap_or(0.0);
    let count = |n: &str| b.counts.get(n).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("rulelang.rid_parse_s", "s", span("rulelang.rid_parse")),
        ("toolkit.build_s", "s", span("toolkit.build")),
        ("toolkit.rules", "count", count("toolkit.rules")),
        ("simkit.dispatches", "count", count("simkit.dispatches")),
        (
            "simkit.queue_depth_max",
            "count",
            count("simkit.queue_depth_max"),
        ),
        (
            "simkit.net_deliveries",
            "count",
            count("simkit.net_deliveries"),
        ),
        (
            "simkit.ns_per_dispatch",
            "ns",
            ratio(b.simulate_s * 1e9, count("simkit.dispatches")),
        ),
        (
            "toolkit.shell_firings",
            "count",
            count("toolkit.shell_firings"),
        ),
        (
            "toolkit.requests_sent",
            "count",
            count("toolkit.requests_sent"),
        ),
        ("toolkit.writes_done", "count", count("toolkit.writes_done")),
        (
            "toolkit.notifications",
            "count",
            count("toolkit.notifications"),
        ),
        (
            "toolkit.reads_served",
            "count",
            count("toolkit.reads_served"),
        ),
        ("store.appends", "count", count("store.appends")),
        ("store.bytes", "bytes", count("store.bytes")),
        ("store.checkpoints", "count", count("store.checkpoints")),
        ("store.replayed", "count", count("store.replayed")),
        ("core.trace_events", "count", count("core.trace_events")),
        ("core.trace_snapshot_s", "s", span("core.trace_snapshot")),
        ("checker.rule_set_s", "s", span("checker.rule_set")),
        ("checker.state_index_s", "s", span("checker.state_index")),
        ("checker.validity_s", "s", span("checker.validity")),
        (
            "checker.validity_ns_per_event",
            "ns",
            ratio(span("checker.validity") * 1e9, count("core.trace_events")),
        ),
        ("checker.obligations", "count", count("checker.obligations")),
        (
            "checker.related_pairs",
            "count",
            count("checker.related_pairs"),
        ),
        ("checker.violations", "count", count("checker.violations")),
        ("checker.guarantee_s", "s", span("checker.guarantees")),
        (
            "checker.instantiations",
            "count",
            count("checker.instantiations"),
        ),
        ("checker.grid_points", "count", count("checker.grid_points")),
        (
            "checker.probe_hit_ratio",
            "ratio",
            ratio(count("checker.probe_hits"), count("checker.probes")),
        ),
        ("checker.probes", "count", count("checker.probes")),
        (
            "checker.atom_hit_ratio",
            "ratio",
            ratio(count("checker.atom_hits"), count("checker.atom_lookups")),
        ),
        (
            "checker.atom_lookups",
            "count",
            count("checker.atom_lookups"),
        ),
        ("obs.export_s", "s", span("obs.export")),
    ]
}

fn min(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(f64::INFINITY, f64::min)
}

/// The smallest value of `f` over the batches.
fn fastest(batches: &[&Batch], f: impl Fn(&Batch) -> f64) -> f64 {
    min(batches.iter().map(|b| f(b)))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process (`VmHWM`). Each run is a fresh
/// process, so this is the workload run's peak.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run metadata: enough to tell two result sets' conditions apart.
fn meta_json(args: &Args, batches: usize, sim_threads: Option<&str>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".to_owned(), |h| h.trim().to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"batches\": {batches}, \
         \"git_rev\": {}, \"host\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"profile\": \"{profile}\", \
         \"hcm_sim_threads\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_rev()),
        json_str(&host),
        json_str(&command_line("rustc", &["--version"])),
        sim_threads.map_or_else(|| "null".to_owned(), json_str),
    )
}

/// The checkout's commit, when the working directory is a git checkout
/// itself; `GIT_CEILING_DIRECTORIES` stops git from searching above it.
fn git_rev() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".to_owned();
    };
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
