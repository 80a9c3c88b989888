//! Snapshot exporters: a human-readable table and deterministic JSON
//! lines.
//!
//! The JSON writer is hand-rolled (`DESIGN.md` §7 bans serde): plain
//! string building over the registry's `BTreeMap`-ordered iterators,
//! so two same-seed runs produce **byte-identical** snapshots — the
//! property the determinism regression test pins.

use crate::metrics::{Histogram, MetricsRegistry, Scope};
use std::fmt::Write as _;

/// Escape a string into a JSON string literal body (no surrounding
/// quotes).
pub(crate) fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_kv_str(out: &mut String, key: &str, val: &str) {
    let _ = write!(out, "\"{key}\":\"");
    json_escape(val, out);
    out.push('"');
}

fn line_head(out: &mut String, kind: &str, scope: &Scope, name: &str) {
    out.push('{');
    push_kv_str(out, "kind", kind);
    out.push(',');
    push_kv_str(out, "scope", &scope.to_string());
    out.push(',');
    push_kv_str(out, "name", name);
}

fn hist_fields(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        ",\"count\":{},\"sum_ms\":{},\"p50_ms\":{},\"p90_ms\":{},\"p99_ms\":{},\"max_ms\":{},\"buckets\":[",
        h.count(),
        h.sum().as_millis(),
        h.p50().as_millis(),
        h.p90().as_millis(),
        h.p99().as_millis(),
        h.max().as_millis(),
    );
    for (i, c) in h.bucket_counts().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    out.push(']');
}

/// Export the registry as JSON lines: one object per metric, in a
/// fixed kind-then-key order. Counters first, then gauges, histograms,
/// series, and structured records.
#[must_use]
pub(crate) fn snapshot_jsonl(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (scope, name, v) in reg.counters() {
        line_head(&mut out, "counter", scope, name);
        let _ = writeln!(out, ",\"value\":{v}}}");
    }
    for (scope, name, v) in reg.gauges() {
        line_head(&mut out, "gauge", scope, name);
        let _ = writeln!(out, ",\"value\":{v}}}");
    }
    for (scope, name, h) in reg.histograms() {
        line_head(&mut out, "histogram", scope, name);
        hist_fields(&mut out, h);
        out.push_str("}\n");
    }
    for (scope, name, vs) in reg.all_series() {
        line_head(&mut out, "series", scope, name);
        out.push_str(",\"values\":[");
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("]}\n");
    }
    for r in reg.records() {
        line_head(&mut out, "record", &r.scope, &r.name);
        let _ = write!(out, ",\"t_ms\":{}", r.time.as_millis());
        for (k, v) in &r.fields {
            out.push(',');
            let mut key = String::new();
            json_escape(k, &mut key);
            let _ = write!(out, "\"{key}\":\"");
            json_escape(v, &mut out);
            out.push('"');
        }
        out.push_str("}\n");
    }
    out
}

/// Render the registry as an aligned, human-readable table.
#[must_use]
pub(crate) fn render_table(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    let counters: Vec<_> = reg.counters().collect();
    if !counters.is_empty() {
        out.push_str("counters\n");
        for (scope, name, v) in counters {
            let _ = writeln!(out, "  {:<18} {:<34} {:>10}", scope.to_string(), name, v);
        }
    }
    let gauges: Vec<_> = reg.gauges().collect();
    if !gauges.is_empty() {
        out.push_str("gauges\n");
        for (scope, name, v) in gauges {
            let _ = writeln!(out, "  {:<18} {:<34} {:>10}", scope.to_string(), name, v);
        }
    }
    let hists: Vec<_> = reg.histograms().collect();
    if !hists.is_empty() {
        out.push_str("histograms (ms)\n");
        let _ = writeln!(
            out,
            "  {:<18} {:<34} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "", "", "count", "p50", "p90", "p99", "max"
        );
        for (scope, name, h) in hists {
            let _ = writeln!(
                out,
                "  {:<18} {:<34} {:>7} {:>7} {:>7} {:>7} {:>7}",
                scope.to_string(),
                name,
                h.count(),
                h.p50().as_millis(),
                h.p90().as_millis(),
                h.p99().as_millis(),
                h.max().as_millis(),
            );
        }
    }
    let series: Vec<_> = reg.all_series().collect();
    if !series.is_empty() {
        out.push_str("series\n");
        for (scope, name, vs) in series {
            let sum: i64 = vs.iter().sum();
            let _ = writeln!(
                out,
                "  {:<18} {:<34} n={} sum={}",
                scope.to_string(),
                name,
                vs.len(),
                sum
            );
        }
    }
    if !reg.records().is_empty() {
        out.push_str("records\n");
        for r in reg.records() {
            let _ = write!(
                out,
                "  {:<12} {:<18} {:<24}",
                format!("t={}ms", r.time.as_millis()),
                r.scope.to_string(),
                r.name
            );
            for (k, v) in &r.fields {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use hcm_core::{SimDuration, SimTime};

    fn sample() -> Metrics {
        let m = Metrics::new();
        m.inc(Scope::Site(1), "shell.firings");
        m.add(Scope::Global, "sim.dispatches", 42);
        m.gauge_set(Scope::Global, "sim.queue_depth_max", 7);
        m.observe(
            Scope::Channel { from: 0, to: 1 },
            "net.delivery",
            SimDuration::from_millis(23),
        );
        m.series_push(Scope::Global, "tpc.latency_ms", 150);
        m.record(
            SimTime::from_millis(500),
            Scope::Actor(3),
            "sim.crash",
            [("lossy", "true")],
        );
        m
    }

    #[test]
    fn jsonl_is_deterministic_and_escaped() {
        let a = sample().with(snapshot_jsonl);
        let b = sample().with(snapshot_jsonl);
        assert_eq!(a, b);
        assert!(
            a.contains(r#"{"kind":"counter","scope":"global","name":"sim.dispatches","value":42}"#),
            "{a}"
        );
        assert!(a.contains(r#""t_ms":500"#));
        // Every line parses as a braces-balanced object.
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let mut s = String::new();
        json_escape("a\"b\\c\nd", &mut s);
        assert_eq!(s, r#"a\"b\\c\nd"#);
    }

    #[test]
    fn table_mentions_every_kind() {
        let t = sample().with(render_table);
        for needle in [
            "counters",
            "gauges",
            "histograms",
            "series",
            "records",
            "sim.crash",
        ] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn ordering_is_by_scope_then_name() {
        let m = Metrics::new();
        m.inc(Scope::Site(2), "z");
        m.inc(Scope::Site(0), "a");
        m.inc(Scope::Global, "m");
        let s = m.with(snapshot_jsonl);
        let g = s.find("global").unwrap();
        let s0 = s.find("site:0").unwrap();
        let s2 = s.find("site:2").unwrap();
        assert!(g < s0 && s0 < s2, "{s}");
    }
}
