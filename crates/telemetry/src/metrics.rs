//! Host-side metric primitives: counters, log2-bucket histograms, a
//! bounded ring-buffer event log, and the [`Sink`] registry.
//!
//! Everything here is built for *instrumenting real host code* (the thread
//! pool, the autotuner, the daemon) rather than the simulator hot loop —
//! the simulator uses the zero-cost [`crate::probe::SimProbe`] path
//! instead. A counter bump or histogram record is a relaxed atomic RMW; a
//! [`Sink`] lookup takes a mutex, so callers resolve their instruments
//! once. Timed spans live in [`crate::trace`].

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value. For counters that *mirror* an authoritative
    /// counter owned elsewhere (the store's own atomics, say): repeated
    /// publishes are then idempotent, where repeated `add`s of a delta
    /// double-count under racing publishers.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: one per power of two of `u64`.
pub const HIST_BUCKETS: usize = 64;

/// A lock-free histogram with fixed log2 buckets: bucket 0 holds the value
/// 0, bucket `i > 0` holds values in `[2^(i-1), 2^i)`.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: 0 for 0, else `1 + floor(log2 v)`,
    /// saturated to the last bucket. Public so consumers comparing an
    /// externally measured value against an exported histogram (e.g. the
    /// serve load generator's p99 cross-check) can place the value in the
    /// same bucket space.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current state (individual loads are
    /// relaxed; exact only once recording has stopped).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`Histogram`] for the mapping).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (0 when empty). Resolution is one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        match self.quantile_bucket(q) {
            Some(0) | None => 0,
            Some(i) => 1u64 << i.min(63),
        }
    }

    /// Index of the log2 bucket containing quantile `q` in `[0, 1]`, or
    /// `None` when the histogram is empty. The bucket is found by walking
    /// the cumulative counts to `ceil(q · count)` (so `q = 0` is the
    /// smallest observation's bucket and `q = 1` the largest's).
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(i);
            }
        }
        // Bucket counts can lag `count` under concurrent recording; charge
        // the remainder to the last bucket rather than invent an index.
        Some(self.buckets.len().saturating_sub(1))
    }

    /// Inclusive `[lo, hi]` value bounds of the bucket containing quantile
    /// `q` (`(0, 0)` when empty). The true quantile of the recorded values
    /// is guaranteed to lie in this interval; its width is the histogram's
    /// documented error bound — one power of two, i.e. any point estimate
    /// taken from the bucket is within 2× of the true value.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        match self.quantile_bucket(q) {
            None | Some(0) => (0, 0),
            Some(i) => {
                let lo = 1u64 << (i - 1).min(63);
                let hi = if i >= 64 - 1 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                (lo, hi)
            }
        }
    }

    /// Median estimate: the upper bound of the p50 bucket (within 2× of
    /// the true median — see [`HistogramSnapshot::quantile_bounds`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate (bucket upper bound).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A bounded event log that overwrites nothing: once full, *new* entries
/// are dropped and counted, so the retained prefix stays contiguous in
/// time (the window-open edge is what the alias analysis needs; dropping
/// the tail is explicit in `dropped`).
#[derive(Debug, Clone)]
pub struct RingLog<T> {
    buf: Vec<T>,
    cap: usize,
    dropped: u64,
}

impl<T> RingLog<T> {
    /// A log holding at most `cap` entries (`cap = 0` drops everything).
    pub fn new(cap: usize) -> Self {
        RingLog {
            buf: Vec::with_capacity(cap.min(4096)),
            cap,
            dropped: 0,
        }
    }

    /// Appends an entry, or counts it as dropped when full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.dropped += 1;
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the log holds nothing.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Entries rejected because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained entries in insertion order.
    pub fn as_slice(&self) -> &[T] {
        &self.buf
    }

    /// Consumes the log, returning the retained entries in insertion order.
    pub fn into_vec(self) -> Vec<T> {
        self.buf
    }
}

/// A registry of named counters and histograms, shared via `Arc` between
/// the instrumented code and the exporter. It has no on/off state: host
/// code that should not pay for metrics attaches no sink.
pub struct Sink {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Sink {
    /// A fresh, empty sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Sink {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        })
    }

    /// The counter registered under `name` (created on first use). Cache
    /// the returned `Arc` outside loops — the lookup takes a mutex.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry");
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// All counters as `(name, value)`, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("counter registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histograms as `(name, snapshot)`, sorted by name.
    pub fn histogram_values(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .lock()
            .expect("histogram registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 1); // 4
        assert_eq!(s.buckets[10], 1); // 1000 ∈ [512, 1024)
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 1); // u64::MAX
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
        for _ in 0..99 {
            h.record(100); // bucket 7: [64, 128)
        }
        h.record(100_000); // bucket 17
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 128);
        assert_eq!(s.quantile(1.0), 1 << 17);
        assert!((s.mean() - (99.0 * 100.0 + 100_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn ring_log_drops_overflow_and_counts_it() {
        let mut log = RingLog::new(3);
        assert!(log.is_empty());
        for i in 0..10 {
            log.push(i);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.capacity(), 3);
        assert_eq!(log.dropped(), 7);
        assert_eq!(log.into_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn zero_capacity_ring_log_drops_everything() {
        let mut log: RingLog<u8> = RingLog::new(0);
        log.push(1);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn sink_registers_counters_and_histograms_by_name() {
        let sink = Sink::new();
        sink.counter("hits").add(2);
        sink.counter("hits").inc();
        sink.counter("a.first").inc();
        sink.histogram("lat").record(5);
        assert_eq!(
            sink.counter_values(),
            vec![("a.first".to_string(), 1), ("hits".to_string(), 3)]
        );
        let hists = sink.histogram_values();
        assert_eq!(hists.len(), 1);
        assert_eq!((hists[0].0.as_str(), hists[0].1.count), ("lat", 1));
    }

    #[test]
    fn quantile_bounds_bracket_the_true_value() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(100); // bucket 7: [64, 127]
        }
        let s = h.snapshot();
        assert_eq!(s.quantile_bucket(0.5), Some(7));
        assert_eq!(s.quantile_bounds(0.5), (64, 127));
        assert_eq!(s.quantile_bounds(0.99), (64, 127));
        // Empty and zero-valued histograms pin to (0, 0).
        assert_eq!(Histogram::new().snapshot().quantile_bounds(0.5), (0, 0));
        let z = Histogram::new();
        z.record(0);
        assert_eq!(z.snapshot().quantile_bounds(0.99), (0, 0));
        // The last bucket's upper bound saturates to u64::MAX.
        let top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.snapshot().quantile_bounds(1.0), (1 << 62, u64::MAX));
    }
}
