//! The metrics registry: counters, gauges and log₂-bucketed histograms.
//!
//! All instruments are relaxed atomics so handles can be cloned onto hot
//! structs and recorded through `&self` without locks; the registry's
//! mutex is touched only at resolution time ([`MetricsRegistry::counter`]
//! etc.), never on the record path. A registry created disabled hands out
//! inert handles whose operations are a single branch.
//!
//! Histograms bucket by the base-2 logarithm of the recorded value
//! (bucket 0 holds exactly 0; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`),
//! which spans the full `u64` range in 65 buckets — a fixed 520-byte
//! footprint with ~2× relative quantile error, the classic HDR trade-off
//! for hot-path latency tracking.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// cores (shared cells)
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
pub(crate) struct CounterCore {
    value: AtomicU64,
}

#[derive(Debug, Default)]
pub(crate) struct GaugeCore {
    bits: AtomicU64,
}

/// A histogram's shared cells. The count is not a cell of its own: it is
/// the sum of the buckets, taken at snapshot time.
#[derive(Debug)]
pub(crate) struct HistCore {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCore {
    fn default() -> Self {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: 0 for 0, else `64 - leading_zeros` (so 1 → 1,
/// 2..=3 → 2, 4..=7 → 3, …, `u64::MAX` → 64). Branch-free: `v = 0` has 64
/// leading zeros, mapping to bucket 0 without a special case.
#[inline]
fn bucket_of(v: u64) -> usize {
    64 - v.leading_zeros() as usize
}

/// Inclusive value range covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

// ---------------------------------------------------------------------------
// handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter handle (inert when default-built or
/// resolved from a disabled registry).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    core: Option<Arc<CounterCore>>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.core {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for inert handles).
    pub fn value(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    core: Option<Arc<GaugeCore>>,
}

impl Gauge {
    /// Stores a new value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.core {
            c.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for inert handles).
    pub fn value(&self) -> f64 {
        self.core
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.bits.load(Ordering::Relaxed)))
    }
}

/// A log₂-bucketed histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    pub(crate) core: Option<Arc<HistCore>>,
}

impl Hist {
    /// Records one observation: two read-modify-writes (its bucket and
    /// the sum); `min` / `max` take one only when `v` extends them.
    #[inline]
    pub fn record(&self, v: u64) {
        let Some(c) = &self.core else { return };
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.extend_range(v, v);
    }

    /// Folds a finished snapshot into this live histogram (used when
    /// merging per-thread registries). No-op for inert handles or empty
    /// snapshots.
    pub fn merge_snapshot(&self, s: &HistogramSnapshot) {
        let Some(c) = &self.core else { return };
        if s.count == 0 {
            return;
        }
        for (i, &n) in s.buckets.iter().enumerate() {
            if n > 0 {
                c.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        c.sum.fetch_add(s.sum, Ordering::Relaxed);
        c.extend_range(s.min, s.max);
    }

    /// Point-in-time snapshot (empty for inert handles).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |c| c.snapshot())
    }
}

impl HistCore {
    /// Widens `[min, max]` to cover `[lo, hi]`. The plain loads filter:
    /// once the range has settled, a record writes neither cell. A racing
    /// writer that passes the filter still lands through the atomic
    /// `fetch_min` / `fetch_max`, so no extreme is lost.
    #[inline]
    fn extend_range(&self, lo: u64, hi: u64) {
        if lo < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(lo, Ordering::Relaxed);
        }
        if hi > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(hi, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Immutable summary of a histogram's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket observation counts (see [`bucket_of`] mapping).
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: finds the bucket where the
    /// cumulative count crosses `q · count` and interpolates linearly
    /// within it (the bucket's `n` samples assumed evenly spread over its
    /// value range), clamped to the true observed `[min, max]`. The
    /// interpolation removes the systematic one-bucket-up bias the old
    /// report-the-upper-bound rule had; the answer stays exact to within
    /// the bucket's factor-of-two width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_bounds(i);
                // The rank-th sample is the (rank - seen)-th of this
                // bucket's n; place it at the midpoint of its 1/n slice.
                let pos = (rank - seen) as f64 - 0.5;
                let est = lo as f64 + (hi - lo) as f64 * (pos / n as f64);
                return (est.round() as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another snapshot into this one (per-region → fleet rollups).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Entry {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Hist(Arc<HistCore>),
}

/// Snapshot value of one registered metric.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Last gauge value.
    Gauge(f64),
    /// Histogram summary (boxed: the bucket array dominates the enum).
    Histogram(Box<HistogramSnapshot>),
}

/// One `(name, value)` row of a registry snapshot.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric name (`acm.<crate>.<subsystem>.<metric>`).
    pub name: String,
    /// Recorded state at snapshot time.
    pub value: MetricValue,
}

/// A global-free registry of named instruments. The mutex guards only
/// name resolution; recording goes through the returned atomic handles.
#[derive(Debug)]
pub struct MetricsRegistry {
    active: bool,
    inner: Mutex<BTreeMap<String, Entry>>,
}

impl MetricsRegistry {
    /// Creates a registry; a disabled one hands out inert handles and
    /// snapshots empty.
    pub fn new(active: bool) -> Self {
        MetricsRegistry {
            active,
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// Gets or creates the named counter. Panics if the name is already
    /// registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.active {
            return Counter::default();
        }
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| Entry::Counter(Arc::new(CounterCore::default())));
        match entry {
            Entry::Counter(c) => Counter {
                core: Some(c.clone()),
            },
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Gets or creates the named gauge. Panics on instrument-kind clash.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.active {
            return Gauge::default();
        }
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| Entry::Gauge(Arc::new(GaugeCore::default())));
        match entry {
            Entry::Gauge(g) => Gauge {
                core: Some(g.clone()),
            },
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Gets or creates the named histogram. Panics on instrument-kind
    /// clash.
    pub fn histogram(&self, name: &str) -> Hist {
        if !self.active {
            return Hist::default();
        }
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| Entry::Hist(Arc::new(HistCore::default())));
        match entry {
            Entry::Hist(h) => Hist {
                core: Some(h.clone()),
            },
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Folds every instrument of `other` into this registry, creating
    /// same-named instruments as needed: counters add, gauges take the
    /// other's last value, histograms merge bucket-wise. Deterministic —
    /// `other` is walked in name order — so merging per-thread registries
    /// in a fixed order (e.g. input-index order after a parallel collect)
    /// always produces the same rollup. No-op when this registry is
    /// disabled.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        if !self.active {
            return;
        }
        for m in other.snapshot() {
            match m.value {
                MetricValue::Counter(v) => self.counter(&m.name).add(v),
                MetricValue::Gauge(v) => self.gauge(&m.name).set(v),
                MetricValue::Histogram(h) => self.histogram(&m.name).merge_snapshot(&h),
            }
        }
    }

    /// Every registered metric as JSON Lines, one object per metric,
    /// sorted by name. Counters: `{"name","type":"counter","value"}`;
    /// gauges: `{"name","type":"gauge","value"}` (`null` when non-finite);
    /// histograms carry `count/sum/min/max/mean/p50/p90/p99`. One call =
    /// one registry snapshot, suitable for writing alongside the event
    /// log so sweeps can diff instrument values mechanically. Written
    /// straight from the map under its lock (one consistent pass, nothing
    /// cloned; a histogram's snapshot lives on the stack).
    pub fn to_jsonl(&self) -> String {
        use crate::json::{push_escaped, push_f64, push_key, push_u64};
        let map = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::with_capacity(160 * map.len());
        for (name, entry) in map.iter() {
            push_key(&mut out, '{', "name");
            push_escaped(&mut out, name);
            push_key(&mut out, ',', "type");
            match entry {
                Entry::Counter(c) => {
                    push_escaped(&mut out, "counter");
                    push_key(&mut out, ',', "value");
                    push_u64(&mut out, c.value.load(Ordering::Relaxed));
                }
                Entry::Gauge(g) => {
                    push_escaped(&mut out, "gauge");
                    push_key(&mut out, ',', "value");
                    push_f64(&mut out, f64::from_bits(g.bits.load(Ordering::Relaxed)));
                }
                Entry::Hist(h) => {
                    let s = h.snapshot();
                    push_escaped(&mut out, "histogram");
                    let totals = [
                        ("count", s.count),
                        ("sum", s.sum),
                        ("min", s.min),
                        ("max", s.max),
                    ];
                    for (key, v) in totals {
                        push_key(&mut out, ',', key);
                        push_u64(&mut out, v);
                    }
                    push_key(&mut out, ',', "mean");
                    push_f64(&mut out, s.mean());
                    for (key, v) in [("p50", s.p50()), ("p90", s.p90()), ("p99", s.p99())] {
                        push_key(&mut out, ',', key);
                        push_u64(&mut out, v);
                    }
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Every registered metric with its current state, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.inner.lock().expect("metrics registry poisoned");
        map.iter()
            .map(|(name, entry)| MetricSnapshot {
                name: name.clone(),
                value: match entry {
                    Entry::Counter(c) => MetricValue::Counter(c.value.load(Ordering::Relaxed)),
                    Entry::Gauge(g) => {
                        MetricValue::Gauge(f64::from_bits(g.bits.load(Ordering::Relaxed)))
                    }
                    Entry::Hist(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> (MetricsRegistry, Hist) {
        let reg = MetricsRegistry::new(true);
        let h = reg.histogram("acm.test.hist.h");
        (reg, h)
    }

    #[test]
    fn bucket_mapping_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of((1 << 63) - 1), 63);
        assert_eq!(bucket_of(1 << 63), 64);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Every bucket's bounds invert the mapping.
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn histogram_saturation_at_u64_max() {
        let (_reg, h) = hist();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[64], 2);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_zero_and_one() {
        let (_reg, h) = hist();
        h.record(0);
        h.record(1);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.quantile(1.0), 1);
    }

    #[test]
    fn quantiles_track_the_distribution_within_bucket_error() {
        let (_reg, h) = hist();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
        // Log buckets answer within a factor of two, clamped to [min, max].
        let p50 = s.p50();
        assert!((500..=1000).contains(&p50), "p50 {p50}");
        let p99 = s.p99();
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(s.quantile(0.0), s.min.max(1));
    }

    #[test]
    fn quantiles_interpolate_within_the_winning_bucket() {
        // 1..=1000 uniformly: cumulative count reaches 255 through bucket
        // 8, bucket 9 holds 256..=511 (256 samples), bucket 10 holds
        // 512..=1000 (489 samples). Linear interpolation pins the exact
        // uniform quantiles instead of the bucket upper bounds the old
        // rule reported (p50 = 511, p99 = 1000 by clamping from 1023).
        let (_reg, h) = hist();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 500);
        assert_eq!(s.p90(), 918);
        assert_eq!(s.p99(), 1000, "interpolates past max, clamps back");
        assert_eq!(s.quantile(0.25), 250);
        // A single-sample bucket interpolates to its midpoint, clamped to
        // the observed range.
        let regb = MetricsRegistry::new(true);
        let one = regb.histogram("acm.test.hist.one");
        one.record(100);
        assert_eq!(one.snapshot().p50(), 100);
        // Two samples in one bucket land on the 1/4 and 3/4 points.
        let two = regb.histogram("acm.test.hist.two");
        two.record(64);
        two.record(127);
        let st = two.snapshot();
        assert_eq!(st.p50(), 80, "64 + 63/4 ≈ 80");
        assert_eq!(st.quantile(1.0), 111, "64 + 63·3/4 ≈ 111, within range");
    }

    proptest::proptest! {
        /// The quantile error bound the module docs state: every estimate
        /// lies in the observed `[min, max]` and in the log₂ bucket of the
        /// exact nearest-rank quantile, so within a factor of two of it.
        #[test]
        fn quantile_error_is_bounded_by_the_winning_bucket(
            draws in proptest::collection::vec((0u64..=u64::MAX, 0usize..64), 1..300),
        ) {
            let (_reg, h) = hist();
            let mut sorted: Vec<u64> = draws.iter().map(|&(v, shift)| v >> shift).collect();
            for &v in &sorted {
                h.record(v);
            }
            sorted.sort_unstable();
            let s = h.snapshot();
            for q in [0.50, 0.90, 0.99] {
                let est = s.quantile(q);
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
                let exact = sorted[rank - 1];
                proptest::prop_assert!(
                    (s.min..=s.max).contains(&est),
                    "q{q}: {est} outside [{}, {}]",
                    s.min,
                    s.max
                );
                proptest::prop_assert_eq!(
                    bucket_of(est),
                    bucket_of(exact),
                    "q{q}: {est} vs exact {exact}"
                );
                let (e, x) = (u128::from(est), u128::from(exact));
                proptest::prop_assert!(
                    e <= 2 * x && x <= 2 * e,
                    "q{q}: {est} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let (_reg, h) = hist();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let (_reg, a) = hist();
        let regb = MetricsRegistry::new(true);
        let b = regb.histogram("acm.test.hist.b");
        a.record(4);
        a.record(8);
        b.record(1);
        b.record(1 << 40);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 4 + 8 + 1 + (1 << 40));
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1 << 40);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.buckets[4], 1);
        assert_eq!(s.buckets[41], 1);
        // Merging an empty snapshot is a no-op; merging into empty copies.
        let before = s;
        s.merge(&HistogramSnapshot::default());
        assert_eq!(s, before);
        let mut empty = HistogramSnapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new(true);
        let c = reg.counter("acm.test.reg.c");
        c.add(41);
        c.inc();
        assert_eq!(c.value(), 42);
        let g = reg.gauge("acm.test.reg.g");
        g.set(-2.5);
        assert_eq!(g.value(), -2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(matches!(snap[0].value, MetricValue::Counter(42)));
        assert!(matches!(snap[1].value, MetricValue::Gauge(v) if v == -2.5));
    }

    #[test]
    fn jsonl_export_covers_all_instrument_kinds() {
        let reg = MetricsRegistry::new(true);
        reg.counter("acm.test.jsonl.c").add(7);
        reg.gauge("acm.test.jsonl.g").set(2.5);
        reg.gauge("acm.test.jsonl.nan").set(f64::NAN);
        let h = reg.histogram("acm.test.jsonl.h");
        h.record(10);
        h.record(1000);
        let lines: Vec<String> = reg.to_jsonl().lines().map(String::from).collect();
        assert_eq!(lines.len(), 4, "one line per metric");
        assert_eq!(
            lines[0],
            r#"{"name":"acm.test.jsonl.c","type":"counter","value":7}"#
        );
        assert_eq!(
            lines[1],
            r#"{"name":"acm.test.jsonl.g","type":"gauge","value":2.5}"#
        );
        assert!(lines[2].starts_with(r#"{"name":"acm.test.jsonl.h","type":"histogram","count":2,"sum":1010,"min":10,"max":1000,"#));
        assert_eq!(
            lines[3],
            r#"{"name":"acm.test.jsonl.nan","type":"gauge","value":null}"#
        );
        // Disabled registries export nothing.
        assert_eq!(MetricsRegistry::new(false).to_jsonl(), "");
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_clash_panics() {
        let reg = MetricsRegistry::new(true);
        let _ = reg.histogram("acm.test.clash");
        let _ = reg.counter("acm.test.clash");
    }

    #[test]
    fn inactive_registry_hands_out_inert_handles() {
        let reg = MetricsRegistry::new(false);
        let c = reg.counter("acm.test.inert");
        c.add(100);
        assert_eq!(c.value(), 0);
        assert!(reg.snapshot().is_empty());
    }
}
