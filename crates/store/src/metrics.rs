//! Store-level counters: hits, misses, log appends, compactions, and an
//! optional shard-lock wait-time histogram.
//!
//! The counters are plain relaxed atomics owned by the store (the
//! telemetry [`Sink`]'s counters are add-only and shared, so they cannot
//! back a resettable hit/miss pair). [`StoreMetrics::publish`] mirrors
//! the totals into a `Sink` by **setting** the sink counters to the
//! store's current totals: publishing is idempotent, so any number of
//! concurrent or repeated publishes (a Prometheus scrape racing a JSON
//! scrape, say) leaves the sink exactly at the authoritative totals —
//! where the old delta-push scheme could double count under racing
//! publishers.

use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use t2opt_telemetry::metrics::{Histogram, HistogramSnapshot, Sink};

/// Monotone counters for one [`crate::Store`].
#[derive(Debug, Default)]
pub struct StoreMetrics {
    hits: AtomicU64,
    misses: AtomicU64,
    appends: AtomicU64,
    compactions: AtomicU64,
    // Shard-lock acquisition wait, microseconds. Recording is gated by
    // `lock_timing` because it needs two `Instant::now()` calls per
    // access — cheap, but not free like the counters.
    lock_wait_us: Histogram,
    lock_timing: AtomicBool,
}

/// Point-in-time copy of the counters plus occupancy, serializable into
/// `/metrics` responses and bench envelopes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StoreSnapshot {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Records appended to shard logs (or dirtied in snapshot-only modes).
    pub appends: u64,
    /// Shard compactions performed.
    pub compactions: u64,
    /// Total entries across all shards.
    pub entries: usize,
    /// Entries per shard, indexed by shard number.
    pub shard_occupancy: Vec<usize>,
}

impl StoreMetrics {
    /// Records a lookup that found its key.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a lookup that missed.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one appended (or dirtied) entry write.
    pub fn append(&self) {
        self.appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one shard compaction.
    pub fn compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Lookups answered from the store since the last reset.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since the last reset.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Records appended since the store was opened.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Compactions performed since the store was opened.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Zeroes the hit/miss counters (append/compaction totals describe the
    /// store's whole life and are left alone).
    pub fn reset_hit_miss(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Turns shard-lock wait timing on or off (off by default).
    pub fn set_lock_timing(&self, on: bool) {
        self.lock_timing.store(on, Ordering::Relaxed);
    }

    /// Whether shard-lock wait timing is on (one relaxed load — this is
    /// the store's whole overhead when timing is off).
    #[inline]
    pub fn lock_timing(&self) -> bool {
        self.lock_timing.load(Ordering::Relaxed)
    }

    /// Records one shard-lock acquisition wait (call only when
    /// [`StoreMetrics::lock_timing`] is on).
    #[inline]
    pub fn record_lock_wait(&self, us: u64) {
        self.lock_wait_us.record(us);
    }

    /// Snapshot of the shard-lock wait histogram (microseconds).
    pub fn lock_wait(&self) -> HistogramSnapshot {
        self.lock_wait_us.snapshot()
    }

    /// Mirrors the counters into a telemetry [`Sink`] under the `store.*`
    /// namespace by setting each sink counter to the store's current
    /// total. Idempotent: concurrent or repeated publishes all converge
    /// on the authoritative totals, never double counting.
    pub fn publish(&self, sink: &Sink) {
        sink.counter("store.hits").set(self.hits());
        sink.counter("store.misses").set(self.misses());
        sink.counter("store.appends").set(self.appends());
        sink.counter("store.compactions").set(self.compactions());
    }

    /// Snapshot with the given occupancy vector (the store supplies it —
    /// the counters alone do not know the shard layout).
    pub fn snapshot(&self, shard_occupancy: Vec<usize>) -> StoreSnapshot {
        StoreSnapshot {
            hits: self.hits(),
            misses: self.misses(),
            appends: self.appends(),
            compactions: self.compactions(),
            entries: shard_occupancy.iter().sum(),
            shard_occupancy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = StoreMetrics::default();
        m.hit();
        m.hit();
        m.miss();
        m.append();
        m.compaction();
        assert_eq!((m.hits(), m.misses()), (2, 1));
        assert_eq!((m.appends(), m.compactions()), (1, 1));
        m.reset_hit_miss();
        assert_eq!((m.hits(), m.misses()), (0, 0));
        assert_eq!(m.appends(), 1, "append total survives a counter reset");
    }

    #[test]
    fn publish_is_idempotent_set_to_current() {
        let m = StoreMetrics::default();
        let sink = Sink::new();
        m.hit();
        m.publish(&sink);
        m.hit();
        m.hit();
        // Repeated publishes (e.g. a Prometheus scrape racing a JSON
        // scrape) must converge on the totals, never accumulate.
        m.publish(&sink);
        m.publish(&sink);
        m.publish(&sink);
        assert_eq!(sink.counter("store.hits").get(), 3);
        m.miss();
        m.publish(&sink);
        assert_eq!(sink.counter("store.hits").get(), 3);
        assert_eq!(sink.counter("store.misses").get(), 1);
    }

    #[test]
    fn concurrent_publishes_converge_on_totals() {
        use std::sync::Arc;
        let m = Arc::new(StoreMetrics::default());
        let sink = Sink::new();
        for _ in 0..100 {
            m.hit();
        }
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        m.publish(&sink);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sink.counter("store.hits").get(), 100);
    }

    #[test]
    fn lock_wait_histogram_is_gated() {
        let m = StoreMetrics::default();
        assert!(!m.lock_timing(), "timing starts off");
        m.set_lock_timing(true);
        m.record_lock_wait(5);
        m.record_lock_wait(300);
        let snap = m.lock_wait();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 305);
    }

    #[test]
    fn snapshot_sums_occupancy() {
        let m = StoreMetrics::default();
        m.miss();
        let snap = m.snapshot(vec![2, 0, 3]);
        assert_eq!(snap.entries, 5);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.shard_occupancy, vec![2, 0, 3]);
    }
}
