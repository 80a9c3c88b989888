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
//! Everything is keyed `(Scope, name)` inside `BTreeMap`s, so snapshot
//! iteration order never depends on allocation or insertion order.

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

type Key = (Scope, String);

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
    pub fn observe(&mut self, d: SimDuration) {
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
    pub fn sum(&self) -> SimDuration {
        SimDuration::from_millis(self.sum_ms)
    }

    /// Exact maximum observation.
    #[must_use]
    pub fn max(&self) -> SimDuration {
        SimDuration::from_millis(self.max_ms)
    }

    /// Mean observation (zero when empty).
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        match self.sum_ms.checked_div(self.count) {
            Some(mean) => SimDuration::from_millis(mean),
            None => SimDuration::ZERO,
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) at bucket resolution: the upper
    /// bound of the bucket holding the ⌈q·n⌉-th smallest observation
    /// (the exact max for the overflow bucket).
    #[must_use]
    pub fn quantile(&self, q: f64) -> SimDuration {
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
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket resolution).
    #[must_use]
    pub fn p90(&self) -> SimDuration {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket resolution).
    #[must_use]
    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// Per-bucket counts, in bound order (last entry is the overflow
    /// bucket).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
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
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, i64>,
    histograms: BTreeMap<Key, Histogram>,
    series: BTreeMap<Key, Vec<i64>>,
    records: Vec<Record>,
}

impl MetricsRegistry {
    /// Add `n` to a counter (creating it at zero).
    pub fn add(&mut self, scope: Scope, name: &str, n: u64) {
        *self.counters.entry((scope, name.to_string())).or_insert(0) += n;
    }

    /// Current counter value (zero when never written).
    #[must_use]
    pub fn counter(&self, scope: Scope, name: &str) -> u64 {
        self.counters
            .get(&(scope, name.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, scope: Scope, name: &str, v: i64) {
        self.gauges.insert((scope, name.to_string()), v);
    }

    /// Add `v` (possibly negative) to a gauge, creating it at zero.
    pub fn gauge_add(&mut self, scope: Scope, name: &str, v: i64) {
        *self.gauges.entry((scope, name.to_string())).or_insert(0) += v;
    }

    /// Raise a gauge to `v` if `v` exceeds its current value
    /// (high-water marks).
    pub fn gauge_track_max(&mut self, scope: Scope, name: &str, v: i64) {
        let g = self.gauges.entry((scope, name.to_string())).or_insert(v);
        *g = (*g).max(v);
    }

    /// Current gauge value, if ever written.
    #[must_use]
    pub fn gauge(&self, scope: Scope, name: &str) -> Option<i64> {
        self.gauges.get(&(scope, name.to_string())).copied()
    }

    /// Record a duration observation into a histogram.
    pub fn observe(&mut self, scope: Scope, name: &str, d: SimDuration) {
        self.histograms
            .entry((scope, name.to_string()))
            .or_default()
            .observe(d);
    }

    /// Read a histogram, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, scope: Scope, name: &str) -> Option<&Histogram> {
        self.histograms.get(&(scope, name.to_string()))
    }

    /// Append a value to a series.
    pub fn series_push(&mut self, scope: Scope, name: &str, v: i64) {
        self.series
            .entry((scope, name.to_string()))
            .or_default()
            .push(v);
    }

    /// Read a series (empty when never written).
    #[must_use]
    pub fn series(&self, scope: Scope, name: &str) -> &[i64] {
        self.series
            .get(&(scope, name.to_string()))
            .map_or(&[], |v| v.as_slice())
    }

    /// Append a structured record.
    pub fn record<I, K, V>(&mut self, time: SimTime, scope: Scope, name: &str, fields: I)
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
        self.counters.iter().map(|((s, n), v)| (s, n.as_str(), *v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&Scope, &str, i64)> {
        self.gauges.iter().map(|((s, n), v)| (s, n.as_str(), *v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&Scope, &str, &Histogram)> {
        self.histograms.iter().map(|((s, n), h)| (s, n.as_str(), h))
    }

    /// All series in key order.
    pub fn all_series(&self) -> impl Iterator<Item = (&Scope, &str, &[i64])> {
        self.series
            .iter()
            .map(|((s, n), v)| (s, n.as_str(), v.as_slice()))
    }

    /// All structured records in insertion (sim-time) order.
    #[must_use]
    pub fn records(&self) -> &[Record] {
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
