//! The global metrics registry: counters, gauges, and log-bucketed
//! histograms.
//!
//! Metrics are **always on**: increments are relaxed atomic operations with
//! no branching on sink state and no allocation, so the executor's hot path
//! can charge its MAC counters unconditionally (the <2% overhead budget of
//! the bench gate). Instruments are interned once by name and live for the
//! program's lifetime; hot call sites should cache the returned `&'static`
//! reference (e.g. in a `OnceLock`) instead of re-looking it up.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `v` (relaxed).
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Increments by one (relaxed).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge (relaxed).
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of sub-buckets per octave in a [`LogHistogram`] (top 3 mantissa
/// bits → 8 log-spaced buckets per power of two, ~9% relative resolution).
const LOG_SUBBUCKETS: u64 = 8;
/// Lowest representable exponent: values below `2^-32` land in the
/// underflow bucket (index 0, together with zero/negative/non-finite).
const LOG_EXP_MIN: i64 = 1023 - 32;
/// Number of octaves covered; values at or above `2^(96-32)` clamp into the
/// top bucket. Durations in milliseconds live comfortably inside this span.
const LOG_OCTAVES: i64 = 96;
/// Total bucket count: one underflow bucket plus the log-spaced ones.
const LOG_BUCKETS: usize = 1 + (LOG_OCTAVES as usize) * (LOG_SUBBUCKETS as usize);

/// Maps a value to its [`LogHistogram`] bucket index. Pure function of the
/// f64 bit pattern — no floating-point comparisons — so two histograms built
/// from the same samples are bit-identical regardless of accumulation order.
fn log_bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64;
    let sub = ((bits >> 49) & 0x7) as i64;
    let raw = (exp - LOG_EXP_MIN) * LOG_SUBBUCKETS as i64 + sub;
    (raw.clamp(0, LOG_BUCKETS as i64 - 2) + 1) as usize
}

/// The lower edge of a log bucket (0 for the underflow bucket).
fn log_bucket_lower(idx: usize) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    let raw = (idx - 1) as i64;
    let exp = raw / LOG_SUBBUCKETS as i64 + LOG_EXP_MIN;
    let sub = (raw % LOG_SUBBUCKETS as i64) as u64;
    f64::from_bits(((exp as u64) << 52) | (sub << 49))
}

/// A representative value for a log bucket: the midpoint of its edges.
fn log_bucket_mid(idx: usize) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    let lo = log_bucket_lower(idx);
    let hi = if idx + 1 < LOG_BUCKETS {
        log_bucket_lower(idx + 1)
    } else {
        lo * 2.0
    };
    lo + (hi - lo) * 0.5
}

/// A log-bucketed histogram: fixed geometric buckets derived from the f64
/// bit pattern (8 per octave, ~9% resolution), cheap relaxed-atomic
/// recording, and **mergeable** snapshots — two histograms of the same shape
/// merge by per-bucket count addition, so per-thread or per-run aggregates
/// combine without losing quantile fidelity beyond the bucket resolution.
#[derive(Debug)]
pub struct LogHistogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, scaled by 1e6 and rounded (fixed point keeps it
    /// an atomic integer; merge stays exact).
    sum_micro: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: (0..LOG_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micro: AtomicU64::new(0),
        }
    }

    /// Records one observation (relaxed atomics, no allocation).
    #[inline]
    pub fn record(&self, v: f64) {
        self.counts[log_bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let micro = (v.max(0.0) * 1e6).round() as u64;
        self.sum_micro.fetch_add(micro, Ordering::Relaxed);
    }

    /// A point-in-time copy suitable for merging and quantile queries.
    pub fn snapshot(&self) -> LogHistogramSnapshot {
        LogHistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_micro: self.sum_micro.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`LogHistogram`]: merge, quantiles, JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum_micro: u64,
}

impl Default for LogHistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl LogHistogramSnapshot {
    /// An empty snapshot (identity element of [`merge`](Self::merge)).
    pub fn empty() -> Self {
        Self {
            counts: vec![0; LOG_BUCKETS],
            count: 0,
            sum_micro: 0,
        }
    }

    /// Builds a snapshot directly from samples (reference path for tests).
    pub fn from_samples(samples: &[f64]) -> Self {
        let h = LogHistogram::new();
        for &v in samples {
            h.record(v);
        }
        h.snapshot()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (clamped at 0 per sample, like recording).
    pub fn sum(&self) -> f64 {
        self.sum_micro as f64 / 1e6
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Merges another snapshot in: per-bucket count addition. Exact (no
    /// re-bucketing error), associative, and commutative.
    pub fn merge(&mut self, other: &LogHistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micro += other.sum_micro;
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`), reported as the
    /// midpoint of the bucket holding that rank — within one bucket width
    /// (~±9% relative) of the true sample quantile. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return log_bucket_mid(idx);
            }
        }
        log_bucket_mid(LOG_BUCKETS - 1)
    }

    /// The bucket index the nearest-rank `q`-quantile falls in (test hook:
    /// lets properties compare against a naive sorted reference exactly).
    pub fn quantile_bucket(&self, q: f64) -> usize {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return idx;
            }
        }
        LOG_BUCKETS - 1
    }

    /// The bucket a raw value maps to (test hook, see
    /// [`quantile_bucket`](Self::quantile_bucket)).
    pub fn bucket_of(v: f64) -> usize {
        log_bucket_index(v)
    }

    /// JSON form: `{count, sum, mean, p50, p90, p99}` plus the sparse
    /// non-zero buckets (`buckets: {"<idx>": n, ...}`) so snapshots written
    /// to disk can be re-read and merged.
    pub fn to_json(&self) -> Json {
        let buckets = Json::Obj(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i.to_string(), Json::U64(c)))
                .collect(),
        );
        Json::obj(vec![
            ("count", Json::U64(self.count)),
            ("sum", Json::F64(self.sum())),
            ("mean", Json::F64(self.mean())),
            ("p50", Json::F64(self.quantile(0.50))),
            ("p90", Json::F64(self.quantile(0.90))),
            ("p99", Json::F64(self.quantile(0.99))),
            ("buckets", buckets),
        ])
    }

    /// Parses the [`to_json`](Self::to_json) form back into a snapshot.
    /// Returns `None` on a malformed document (wrong shape, bucket index out
    /// of range).
    pub fn from_json(j: &Json) -> Option<Self> {
        let mut snap = Self::empty();
        snap.count = j.get("count").and_then(Json::as_u64)?;
        snap.sum_micro = (j.get("sum").and_then(Json::as_f64)? * 1e6).round() as u64;
        let buckets = j.get("buckets")?;
        for (k, v) in buckets.as_object()? {
            let idx: usize = k.parse().ok()?;
            if idx >= LOG_BUCKETS {
                return None;
            }
            snap.counts[idx] = v.as_u64()?;
        }
        Some(snap)
    }
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, &'static Counter>,
    gauges: BTreeMap<String, &'static Gauge>,
    log_histograms: BTreeMap<String, &'static LogHistogram>,
}

/// The process-wide registry of named instruments.
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl Registry {
    fn new() -> Self {
        Self {
            inner: Mutex::new(Instruments::default()),
        }
    }

    /// Locks the instrument tables, recovering from poisoning: interning
    /// only inserts leaked `'static` entries, so a panicked holder cannot
    /// leave the maps in a broken state, and metrics must never take the
    /// process down.
    fn lock(&self) -> std::sync::MutexGuard<'_, Instruments> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Interns (or retrieves) the counter `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut g = self.lock();
        if let Some(c) = g.counters.get(name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::default()));
        g.counters.insert(name.to_string(), c);
        c
    }

    /// Interns (or retrieves) the gauge `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut g = self.lock();
        if let Some(v) = g.gauges.get(name) {
            return v;
        }
        let v: &'static Gauge = Box::leak(Box::new(Gauge::default()));
        g.gauges.insert(name.to_string(), v);
        v
    }

    /// Interns (or retrieves) the log-bucketed histogram `name`.
    pub fn log_histogram(&self, name: &str) -> &'static LogHistogram {
        let mut g = self.lock();
        if let Some(h) = g.log_histograms.get(name) {
            return h;
        }
        let h: &'static LogHistogram = Box::leak(Box::new(LogHistogram::new()));
        g.log_histograms.insert(name.to_string(), h);
        h
    }

    /// Snapshot of every instrument as a JSON object (counters and gauges as
    /// scalars, log histograms as their full mergeable form with
    /// p50/p90/p99).
    pub fn snapshot(&self) -> Json {
        let g = self.lock();
        let mut pairs: Vec<(String, Json)> = Vec::new();
        for (name, c) in &g.counters {
            pairs.push((name.clone(), Json::U64(c.get())));
        }
        for (name, v) in &g.gauges {
            pairs.push((name.clone(), Json::F64(v.get())));
        }
        for (name, h) in &g.log_histograms {
            pairs.push((name.clone(), h.snapshot().to_json()));
        }
        Json::Obj(pairs)
    }

    /// Resets nothing — instruments are monotonic for the process lifetime —
    /// but reads a single counter for tests and reports.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let g = self.lock();
        g.counters.get(name).map(|c| c.get())
    }
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Shorthand for `registry().counter(name)`.
pub fn counter(name: &str) -> &'static Counter {
    registry().counter(name)
}

/// Shorthand for `registry().gauge(name)`.
pub fn gauge(name: &str) -> &'static Gauge {
    registry().gauge(name)
}

/// Shorthand for `registry().log_histogram(name)`.
pub fn log_histogram(name: &str) -> &'static LogHistogram {
    registry().log_histogram(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_and_accumulate() {
        let a = counter("test/metrics/a");
        let b = counter("test/metrics/a");
        assert!(std::ptr::eq(a, b), "same name interns to same instrument");
        let before = a.get();
        a.add(3);
        b.inc();
        assert_eq!(a.get(), before + 4);
    }

    #[test]
    fn gauges_hold_last_value() {
        let g = gauge("test/metrics/g");
        g.set(1.25);
        assert_eq!(g.get(), 1.25);
        g.set(-2.0);
        assert_eq!(g.get(), -2.0);
    }

    #[test]
    fn snapshot_contains_registered_instruments() {
        counter("test/metrics/snap").add(7);
        gauge("test/metrics/snapg").set(0.5);
        let snap = registry().snapshot();
        assert!(
            snap.get("test/metrics/snap")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                >= 7
        );
        assert_eq!(
            snap.get("test/metrics/snapg").and_then(Json::as_f64),
            Some(0.5)
        );
    }

    #[test]
    fn log_histogram_buckets_are_monotone_and_bounded() {
        let mut prev = 0;
        for &v in &[
            1e-12, 1e-9, 0.001, 0.01, 0.1, 0.5, 1.0, 1.1, 2.0, 10.0, 1e3, 1e6, 1e12, 1e30,
        ] {
            let b = log_bucket_index(v);
            assert!(b >= prev, "bucketing is monotone in value ({v})");
            assert!(b < LOG_BUCKETS);
            prev = b;
        }
        assert_eq!(log_bucket_index(0.0), 0);
        assert_eq!(log_bucket_index(-3.0), 0);
        assert_eq!(log_bucket_index(f64::NAN), 0);
        // A bucket's representative maps back into the same bucket.
        for idx in 1..LOG_BUCKETS - 1 {
            assert_eq!(log_bucket_index(log_bucket_mid(idx)), idx, "idx {idx}");
        }
    }

    #[test]
    fn log_histogram_quantiles_and_merge() {
        let h = LogHistogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        let p50 = s.quantile(0.50);
        assert!((p50 / 50.0 - 1.0).abs() < 0.10, "p50 ~ 50, got {p50}");
        let p99 = s.quantile(0.99);
        assert!((p99 / 99.0 - 1.0).abs() < 0.10, "p99 ~ 99, got {p99}");

        // Merge equals the histogram of the concatenation, exactly.
        let a = LogHistogramSnapshot::from_samples(&[1.0, 2.0, 3.0]);
        let b = LogHistogramSnapshot::from_samples(&[10.0, 20.0]);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(
            m,
            LogHistogramSnapshot::from_samples(&[1.0, 2.0, 3.0, 10.0, 20.0])
        );
    }

    #[test]
    fn log_histogram_json_round_trips() {
        let s = LogHistogramSnapshot::from_samples(&[0.25, 1.5, 1.5, 800.0, 0.0]);
        let j = s.to_json();
        assert!(j.get("p50").and_then(Json::as_f64).is_some());
        let back = LogHistogramSnapshot::from_json(&j).expect("parses back");
        assert_eq!(back, s);
        assert!(LogHistogramSnapshot::from_json(&Json::Null).is_none());
    }

    #[test]
    fn log_histogram_interns_in_registry() {
        let a = log_histogram("test/metrics/lh");
        let b = log_histogram("test/metrics/lh");
        assert!(std::ptr::eq(a, b));
        a.record(2.5);
        let snap = registry().snapshot();
        assert!(
            snap.get("test/metrics/lh")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
                >= 1
        );
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let c = counter("test/metrics/threads");
        let before = c.get();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), before + 4000);
    }
}
