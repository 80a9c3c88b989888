//! The metrics core: one registry per simulation, deterministic by
//! construction.
//!
//! Five metric kinds cover everything the stack reports:
//!
//! * **counters** — monotone `u64` (dispatch counts, firings, …);
//! * **gauges** — last-written / high-water `i64` (queue depth, …);
//! * **histograms** — fixed-bucket latency distributions over
//!   [`SimDuration`] with p50/p90/p99/max;
//! * **series** — append-only `i64` sequences in completion order
//!   (per-transaction latencies and the like);
//! * **records** — structured sim-time occurrences (crash, overload,
//!   failure-detection lifecycle transitions).
//!
//! Each kind is a `BTreeMap` from scope to a `BTreeMap` from name to
//! value, so snapshot iteration order is `(scope, name)` and never
//! depends on allocation or insertion order. A write searches its
//! scope's names once, by `&str`, and allocates a name only on its
//! key's first write.

use hcm_core::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// What a metric is about: the whole run, a site, an actor, or a
/// directed network channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// The simulation as a whole.
    Global,
    /// One site (toolkit deployments).
    Site(u32),
    /// One actor (raw simkit deployments).
    Actor(u32),
    /// A directed sender → receiver channel.
    Channel {
        /// Sending actor.
        from: u32,
        /// Receiving actor.
        to: u32,
    },
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Global => write!(f, "global"),
            Scope::Site(s) => write!(f, "site:{s}"),
            Scope::Actor(a) => write!(f, "actor:{a}"),
            Scope::Channel { from, to } => write!(f, "channel:{from}->{to}"),
        }
    }
}

/// One metric kind: per scope, the metrics by name.
type Kind<V> = BTreeMap<Scope, BTreeMap<String, V>>;

/// Apply `f` to the value at `(scope, name)`: one name search when the
/// value exists; on its first write, `f` applies to `init()` and the
/// name is allocated and inserted.
fn update<V>(
    kind: &mut Kind<V>,
    scope: Scope,
    name: &str,
    init: impl FnOnce() -> V,
    f: impl FnOnce(&mut V),
) {
    let names = kind.entry(scope).or_default();
    if let Some(v) = names.get_mut(name) {
        f(v);
    } else {
        let mut v = init();
        f(&mut v);
        names.insert(name.to_owned(), v);
    }
}

fn get<'k, V>(kind: &'k Kind<V>, scope: Scope, name: &str) -> Option<&'k V> {
    kind.get(&scope)?.get(name)
}

/// Every `(scope, name, value)` of a kind in key order.
fn iter<V>(kind: &Kind<V>) -> impl Iterator<Item = (&Scope, &str, &V)> {
    kind.iter()
        .flat_map(|(s, names)| names.iter().map(move |(n, v)| (s, n.as_str(), v)))
}

/// Upper bucket bounds (milliseconds) of the latency histograms —
/// fixed so same-seed snapshots are byte-identical and cross-run
/// distributions are comparable. A final overflow bucket catches
/// everything beyond the last bound.
pub const BUCKET_BOUNDS_MS: [u64; 16] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 30_000, 60_000, 120_000,
];

/// A fixed-bucket duration histogram: counts per bucket plus exact
/// count / sum / max, quantiles answered at bucket resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKET_BOUNDS_MS.len() + 1],
    count: u64,
    sum_ms: u64,
    max_ms: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKET_BOUNDS_MS.len() + 1],
            count: 0,
            sum_ms: 0,
            max_ms: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub(crate) fn observe(&mut self, d: SimDuration) {
        let ms = d.as_millis();
        let idx = BUCKET_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    #[must_use]
    pub(crate) fn sum(&self) -> SimDuration {
        SimDuration::from_millis(self.sum_ms)
    }

    /// Exact maximum observation.
    #[must_use]
    pub(crate) fn max(&self) -> SimDuration {
        SimDuration::from_millis(self.max_ms)
    }

    /// The `q`-quantile (`0 < q <= 1`) at bucket resolution: the upper
    /// bound of the bucket holding the ⌈q·n⌉-th smallest observation
    /// (the exact max for the overflow bucket).
    #[must_use]
    pub(crate) fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let ms = BUCKET_BOUNDS_MS.get(i).copied().unwrap_or(self.max_ms);
                return SimDuration::from_millis(ms.min(self.max_ms));
            }
        }
        self.max()
    }

    /// Median (bucket resolution).
    #[must_use]
    pub(crate) fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket resolution).
    #[must_use]
    pub(crate) fn p90(&self) -> SimDuration {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket resolution).
    #[must_use]
    pub(crate) fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// Per-bucket counts, in bound order (last entry is the overflow
    /// bucket).
    #[must_use]
    pub(crate) fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// A structured occurrence at a sim-time instant — crash, overload,
/// recovery, failure-lifecycle transition — with ordered string
/// fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// When it happened.
    pub time: SimTime,
    /// What it is about.
    pub scope: Scope,
    /// Record kind, e.g. `"sim.crash"`.
    pub name: String,
    /// Ordered `(field, value)` pairs.
    pub fields: Vec<(String, String)>,
}

/// The registry proper. Use through the [`Metrics`] handle; direct
/// access is for exporters and tests.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Kind<u64>,
    gauges: Kind<i64>,
    histograms: Kind<Histogram>,
    series: Kind<Vec<i64>>,
    records: Vec<Record>,
}

impl MetricsRegistry {
    /// Add `n` to a counter (creating it at zero).
    pub(crate) fn add(&mut self, scope: Scope, name: &str, n: u64) {
        update(&mut self.counters, scope, name, || 0, |c| *c += n);
    }

    /// Current counter value (zero when never written).
    #[must_use]
    pub(crate) fn counter(&self, scope: Scope, name: &str) -> u64 {
        get(&self.counters, scope, name).copied().unwrap_or(0)
    }

    /// Set a gauge.
    pub(crate) fn gauge_set(&mut self, scope: Scope, name: &str, v: i64) {
        update(&mut self.gauges, scope, name, || v, |g| *g = v);
    }

    /// Add `v` (possibly negative) to a gauge, creating it at zero.
    pub(crate) fn gauge_add(&mut self, scope: Scope, name: &str, v: i64) {
        update(&mut self.gauges, scope, name, || 0, |g| *g += v);
    }

    /// Raise a gauge to `v` if `v` exceeds its current value
    /// (high-water marks).
    pub(crate) fn gauge_track_max(&mut self, scope: Scope, name: &str, v: i64) {
        update(&mut self.gauges, scope, name, || v, |g| *g = (*g).max(v));
    }

    /// Current gauge value, if ever written.
    #[must_use]
    pub(crate) fn gauge(&self, scope: Scope, name: &str) -> Option<i64> {
        get(&self.gauges, scope, name).copied()
    }

    /// Record a duration observation into a histogram.
    pub(crate) fn observe(&mut self, scope: Scope, name: &str, d: SimDuration) {
        update(&mut self.histograms, scope, name, Histogram::default, |h| {
            h.observe(d);
        });
    }

    /// Append a value to a series.
    pub(crate) fn series_push(&mut self, scope: Scope, name: &str, v: i64) {
        update(&mut self.series, scope, name, Vec::new, |s| s.push(v));
    }

    /// Read a series (empty when never written).
    #[must_use]
    pub(crate) fn series(&self, scope: Scope, name: &str) -> &[i64] {
        get(&self.series, scope, name).map_or(&[], |v| v.as_slice())
    }

    /// Append a structured record.
    pub(crate) fn record<I, K, V>(&mut self, time: SimTime, scope: Scope, name: &str, fields: I)
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        self.records.push(Record {
            time,
            scope,
            name: name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        });
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&Scope, &str, u64)> {
        iter(&self.counters).map(|(s, n, v)| (s, n, *v))
    }

    /// All gauges in key order.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&Scope, &str, i64)> {
        iter(&self.gauges).map(|(s, n, v)| (s, n, *v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&Scope, &str, &Histogram)> {
        iter(&self.histograms)
    }

    /// All series in key order.
    pub(crate) fn all_series(&self) -> impl Iterator<Item = (&Scope, &str, &[i64])> {
        iter(&self.series).map(|(s, n, v)| (s, n, v.as_slice()))
    }

    /// All structured records in insertion (sim-time) order.
    #[must_use]
    pub(crate) fn records(&self) -> &[Record] {
        &self.records
    }
}

/// The cheaply clonable handle every instrumented component holds.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Rc<RefCell<MetricsRegistry>>);

impl Metrics {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increment a counter by one.
    pub fn inc(&self, scope: Scope, name: &str) {
        self.0.borrow_mut().add(scope, name, 1);
    }

    /// Add `n` to a counter.
    pub fn add(&self, scope: Scope, name: &str, n: u64) {
        self.0.borrow_mut().add(scope, name, n);
    }

    /// Current counter value.
    #[must_use]
    pub fn counter(&self, scope: Scope, name: &str) -> u64 {
        self.0.borrow().counter(scope, name)
    }

    /// Set a gauge.
    pub fn gauge_set(&self, scope: Scope, name: &str, v: i64) {
        self.0.borrow_mut().gauge_set(scope, name, v);
    }

    /// Add `v` (possibly negative) to a gauge.
    pub fn gauge_add(&self, scope: Scope, name: &str, v: i64) {
        self.0.borrow_mut().gauge_add(scope, name, v);
    }

    /// Raise a high-water gauge.
    pub fn gauge_track_max(&self, scope: Scope, name: &str, v: i64) {
        self.0.borrow_mut().gauge_track_max(scope, name, v);
    }

    /// Current gauge value, if ever written.
    #[must_use]
    pub fn gauge(&self, scope: Scope, name: &str) -> Option<i64> {
        self.0.borrow().gauge(scope, name)
    }

    /// Record a duration observation.
    pub fn observe(&self, scope: Scope, name: &str, d: SimDuration) {
        self.0.borrow_mut().observe(scope, name, d);
    }

    /// Append to a series.
    pub fn series_push(&self, scope: Scope, name: &str, v: i64) {
        self.0.borrow_mut().series_push(scope, name, v);
    }

    /// Copy a series out.
    #[must_use]
    pub fn series(&self, scope: Scope, name: &str) -> Vec<i64> {
        self.0.borrow().series(scope, name).to_vec()
    }

    /// Append a structured record.
    pub fn record<I, K, V>(&self, time: SimTime, scope: Scope, name: &str, fields: I)
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        self.0.borrow_mut().record(time, scope, name, fields);
    }

    /// Read-only access to the registry (exports, snapshot views).
    pub fn with<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        f(&self.0.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_key() {
        let m = Metrics::new();
        m.inc(Scope::Site(0), "firings");
        m.inc(Scope::Site(0), "firings");
        m.inc(Scope::Site(1), "firings");
        assert_eq!(m.counter(Scope::Site(0), "firings"), 2);
        assert_eq!(m.counter(Scope::Site(1), "firings"), 1);
        assert_eq!(m.counter(Scope::Site(2), "firings"), 0);
    }

    #[test]
    fn gauge_high_water() {
        let m = Metrics::new();
        m.gauge_track_max(Scope::Global, "depth", 3);
        m.gauge_track_max(Scope::Global, "depth", 7);
        m.gauge_track_max(Scope::Global, "depth", 5);
        assert_eq!(m.gauge(Scope::Global, "depth"), Some(7));
        assert_eq!(m.gauge(Scope::Global, "other"), None);
    }

    #[test]
    fn histogram_quantiles_at_bucket_resolution() {
        let mut h = Histogram::default();
        for ms in [1u64, 3, 3, 8, 40, 900] {
            h.observe(SimDuration::from_millis(ms));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), SimDuration::from_millis(900));
        assert_eq!(h.sum(), SimDuration::from_millis(955));
        // p50: 3rd of 6 samples sits in the (2,5] bucket → bound 5 ms.
        assert_eq!(h.p50(), SimDuration::from_millis(5));
        // p99 → last sample's bucket (500,1000], clamped to max 900.
        assert_eq!(h.p99(), SimDuration::from_millis(900));
    }

    #[test]
    fn histogram_overflow_bucket_reports_exact_max() {
        let mut h = Histogram::default();
        h.observe(SimDuration::from_millis(500_000));
        assert_eq!(h.p50(), SimDuration::from_millis(500_000));
        assert_eq!(h.bucket_counts().last(), Some(&1));
    }

    #[test]
    fn untagged_writes_apply_immediately() {
        let m = Metrics::new();
        m.series_push(Scope::Global, "lat", 7);
        m.gauge_set(Scope::Global, "g", 7);
        assert_eq!(m.series(Scope::Global, "lat"), vec![7]);
        assert_eq!(m.gauge(Scope::Global, "g"), Some(7));
    }

    /// The flat `(Scope, name)`-keyed maps the per-scope registry
    /// replaced: the reference it is pinned against. Histograms keep
    /// their raw observations so they can be replayed.
    #[derive(Default)]
    struct Reference {
        counters: BTreeMap<(Scope, String), u64>,
        gauges: BTreeMap<(Scope, String), i64>,
        histograms: BTreeMap<(Scope, String), Vec<SimDuration>>,
        series: BTreeMap<(Scope, String), Vec<i64>>,
    }

    impl Reference {
        /// The snapshot, built one metric at a time: each line comes
        /// from a registry holding only that metric, so the reference
        /// alone decides the order.
        fn snapshot_jsonl(&self) -> String {
            let mut out = String::new();
            let mut line = |write: &dyn Fn(&mut MetricsRegistry)| {
                let mut one = MetricsRegistry::default();
                write(&mut one);
                out.push_str(&crate::export::snapshot_jsonl(&one));
            };
            for ((s, n), v) in &self.counters {
                line(&|r| r.add(*s, n, *v));
            }
            for ((s, n), v) in &self.gauges {
                line(&|r| r.gauge_set(*s, n, *v));
            }
            for ((s, n), ds) in &self.histograms {
                line(&|r| ds.iter().for_each(|d| r.observe(*s, n, *d)));
            }
            for ((s, n), vs) in &self.series {
                line(&|r| vs.iter().for_each(|v| r.series_push(*s, n, *v)));
            }
            out
        }
    }

    #[test]
    fn per_scope_maps_match_flat_reference() {
        // SplitMix64, so the cases are the same on every run.
        let mut state = 0x0B5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let names = [
            "",
            "a",
            "a.b",
            "ab",
            "shell.",
            "shell.firings",
            "shell.firings.x",
        ];
        for case in 0..50 {
            let mut reg = MetricsRegistry::default();
            let mut want = Reference::default();
            for _ in 0..(next() % 200) {
                let (a, b) = ((next() % 3) as u32, (next() % 3) as u32);
                let scope = match next() % 4 {
                    0 => Scope::Global,
                    1 => Scope::Site(a),
                    2 => Scope::Actor(a),
                    _ => Scope::Channel { from: a, to: b },
                };
                let name = names[(next() % names.len() as u64) as usize];
                let key = (scope, name.to_string());
                let v = (next() % 2_001) as i64 - 1_000;
                match next() % 7 {
                    0 => {
                        reg.add(scope, name, v.unsigned_abs());
                        *want.counters.entry(key).or_insert(0) += v.unsigned_abs();
                    }
                    1 => {
                        reg.gauge_set(scope, name, v);
                        want.gauges.insert(key, v);
                    }
                    2 => {
                        reg.gauge_add(scope, name, v);
                        *want.gauges.entry(key).or_insert(0) += v;
                    }
                    3 => {
                        reg.gauge_track_max(scope, name, v);
                        let g = want.gauges.entry(key).or_insert(v);
                        *g = (*g).max(v);
                    }
                    4 => {
                        let d = SimDuration::from_millis(v.unsigned_abs() * 7);
                        reg.observe(scope, name, d);
                        want.histograms.entry(key).or_default().push(d);
                    }
                    5 => {
                        reg.series_push(scope, name, v);
                        want.series.entry(key).or_default().push(v);
                    }
                    _ => {
                        assert_eq!(
                            reg.counter(scope, name),
                            want.counters.get(&key).copied().unwrap_or(0)
                        );
                        assert_eq!(reg.gauge(scope, name), want.gauges.get(&key).copied());
                        assert_eq!(
                            reg.series(scope, name),
                            want.series.get(&key).map_or(&[][..], |v| v.as_slice())
                        );
                    }
                }
            }
            fn rows<V>(kind: &BTreeMap<(Scope, String), V>) -> Vec<(Scope, &str, &V)> {
                kind.iter().map(|((s, n), v)| (*s, n.as_str(), v)).collect()
            }
            let counters: Vec<_> = reg.counters().map(|(s, n, v)| (*s, n, v)).collect();
            let want_counters: Vec<_> = rows(&want.counters)
                .into_iter()
                .map(|(s, n, v)| (s, n, *v))
                .collect();
            assert_eq!(counters, want_counters, "case {case}: counters");
            let gauges: Vec<_> = reg.gauges().map(|(s, n, v)| (*s, n, v)).collect();
            let want_gauges: Vec<_> = rows(&want.gauges)
                .into_iter()
                .map(|(s, n, v)| (s, n, *v))
                .collect();
            assert_eq!(gauges, want_gauges, "case {case}: gauges");
            let hists: Vec<_> = reg
                .histograms()
                .map(|(s, n, h)| (*s, n, h.clone()))
                .collect();
            let want_hists: Vec<_> = rows(&want.histograms)
                .into_iter()
                .map(|(s, n, ds)| {
                    let mut h = Histogram::default();
                    ds.iter().for_each(|d| h.observe(*d));
                    (s, n, h)
                })
                .collect();
            assert_eq!(hists, want_hists, "case {case}: histograms");
            let series: Vec<_> = reg.all_series().map(|(s, n, vs)| (*s, n, vs)).collect();
            let want_series: Vec<_> = rows(&want.series)
                .into_iter()
                .map(|(s, n, vs)| (s, n, vs.as_slice()))
                .collect();
            assert_eq!(series, want_series, "case {case}: series");
            assert_eq!(
                crate::export::snapshot_jsonl(&reg),
                want.snapshot_jsonl(),
                "case {case}: snapshot"
            );
        }
    }

    #[test]
    fn scope_ordering_is_stable() {
        let mut keys = vec![
            Scope::Channel { from: 1, to: 0 },
            Scope::Global,
            Scope::Actor(2),
            Scope::Site(1),
            Scope::Site(0),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                Scope::Global,
                Scope::Site(0),
                Scope::Site(1),
                Scope::Actor(2),
                Scope::Channel { from: 1, to: 0 },
            ]
        );
    }
}
