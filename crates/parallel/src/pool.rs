//! A persistent, pinnable worker-thread pool with OpenMP-style
//! `parallel_for` and two output hand-offs, `run_parts` and `map`.
//!
//! The pool is created once with a fixed team size (and optionally a
//! [`Placement`]), mirroring OpenMP's thread team: work is broadcast to all
//! workers, the caller blocks until the team finishes (an implicit barrier,
//! like the end of an `omp parallel for`). Keeping the team alive across
//! loops is essential for the small-N end of the Fig. 5 overhead
//! measurement — thread creation would otherwise dominate.

use crate::placement::{pin_current_thread, Placement};
use crate::schedule::{chunk_assignment, Schedule};
use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use t2opt_telemetry::metrics::{Counter, Histogram, HistogramSnapshot};

/// Type-erased pointer to the job closure currently being broadcast.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (asserted at creation in `run`) and is kept
// alive by `run` blocking until every worker is done with it.
unsafe impl Send for JobPtr {}

struct State {
    generation: u64,
    job: Option<JobPtr>,
    remaining: usize,
    panicked: usize,
    shutdown: bool,
    /// Wall-clock instant the current job was broadcast; only stamped when
    /// the pool is instrumented (queue-latency measurement).
    dispatched: Option<Instant>,
}

/// Live instrumentation shared between the pool handle and its workers.
struct PoolMetrics {
    jobs: Counter,
    queue_latency_ns: Histogram,
    busy_ns: Vec<AtomicU64>,
    created: Instant,
}

/// Point-in-time copy of an instrumented pool's counters; see
/// [`ThreadPool::metrics`].
#[derive(Debug, Clone)]
pub struct PoolMetricsSnapshot {
    /// Jobs broadcast so far (one per `run`/`parallel_for` call).
    pub jobs: u64,
    /// Dispatch→pickup latency observed by each worker, in nanoseconds
    /// (log2-bucketed).
    pub queue_latency_ns: HistogramSnapshot,
    /// Per-worker nanoseconds spent inside job closures.
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker busy fraction of the pool's lifetime so far, in [0, 1].
    pub busy_fraction: Vec<f64>,
}

struct Shared {
    state: Mutex<State>,
    start: Condvar,
    done: Condvar,
    metrics: Option<PoolMetrics>,
}

/// A fixed team of worker threads; see the module docs.
///
/// ```
/// use t2opt_parallel::{ThreadPool, Schedule};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = ThreadPool::new(8);
/// let sum = AtomicU64::new(0);
/// pool.parallel_for(0..100, Schedule::Static, |_tid, range| {
///     let local: u64 = range.map(|i| i as u64).sum();
///     sum.fetch_add(local, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
/// ```
pub struct ThreadPool {
    n: usize,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool of `n` unpinned workers (`n = 0` is promoted to 1).
    pub fn new(n: usize) -> Self {
        Self::with_placement(n, Placement::None)
    }

    /// Creates a pool of `n` workers pinned according to `placement`.
    pub fn with_placement(n: usize, placement: Placement) -> Self {
        Self::build(n, placement, false)
    }

    /// Like [`ThreadPool::new`] but with instrumentation enabled: every
    /// dispatch is counted and timed, and per-worker busy time is
    /// accumulated. Read the results with [`ThreadPool::metrics`].
    pub fn instrumented(n: usize) -> Self {
        Self::build(n, Placement::None, true)
    }

    fn build(n: usize, placement: Placement, instrument: bool) -> Self {
        let n = n.max(1);
        let metrics = instrument.then(|| PoolMetrics {
            jobs: Counter::new(),
            queue_latency_ns: Histogram::new(),
            busy_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            created: Instant::now(),
        });
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                job: None,
                remaining: 0,
                panicked: 0,
                shutdown: false,
                dispatched: None,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            metrics,
        });
        let workers = (0..n)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                let core = placement.core_of(tid);
                std::thread::Builder::new()
                    .name(format!("t2opt-worker-{tid}"))
                    .spawn(move || worker_loop(tid, core, shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool { n, shared, workers }
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// A snapshot of the pool's instrumentation, or `None` for a pool built
    /// without it ([`ThreadPool::new`] / [`ThreadPool::with_placement`]).
    pub fn metrics(&self) -> Option<PoolMetricsSnapshot> {
        let m = self.shared.metrics.as_ref()?;
        let elapsed_ns = m.created.elapsed().as_nanos() as u64;
        let worker_busy_ns: Vec<u64> = m
            .busy_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let busy_fraction = worker_busy_ns
            .iter()
            .map(|&b| {
                if elapsed_ns == 0 {
                    0.0
                } else {
                    (b as f64 / elapsed_ns as f64).min(1.0)
                }
            })
            .collect();
        Some(PoolMetricsSnapshot {
            jobs: m.jobs.get(),
            queue_latency_ns: m.queue_latency_ns.snapshot(),
            worker_busy_ns,
            busy_fraction,
        })
    }

    /// Runs `f(tid)` once on every worker and blocks until all are done
    /// (the OpenMP `parallel` region). Panics in workers are collected and
    /// re-raised here after the barrier.
    pub fn run(&self, f: impl Fn(usize) + Sync) {
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: we erase the lifetime of `f_ref`, but `run` does not
        // return until `remaining == 0`, i.e. until no worker will touch the
        // pointer again, so the pointee outlives all uses.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f_ref as *const _)
        });
        let mut state = self.shared.state.lock();
        debug_assert_eq!(state.remaining, 0, "pool::run is not reentrant");
        state.generation += 1;
        state.job = Some(ptr);
        state.remaining = self.n;
        state.panicked = 0;
        if let Some(m) = &self.shared.metrics {
            m.jobs.inc();
            state.dispatched = Some(Instant::now());
        }
        self.shared.start.notify_all();
        while state.remaining > 0 {
            self.shared.done.wait(&mut state);
        }
        state.job = None;
        let panicked = state.panicked;
        drop(state);
        assert!(
            panicked == 0,
            "{panicked} worker thread(s) panicked inside ThreadPool::run"
        );
    }

    /// Runs `f(k, parts[k])` on worker `k` for every part and blocks until
    /// all are done; workers past the last part sit the region out. This is
    /// how a worker gets mutable output: split it into disjoint parts (for
    /// example with [`crate::schedule::split_static`]) before the region,
    /// and each part moves to exactly one worker.
    ///
    /// # Panics
    /// Panics if there are more parts than workers.
    pub fn run_parts<P: Send>(&self, parts: Vec<P>, f: impl Fn(usize, P) + Sync) {
        assert!(
            parts.len() <= self.n,
            "{} parts for a team of {}",
            parts.len(),
            self.n
        );
        let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        self.run(|tid| {
            if let Some(part) = slots.get(tid).and_then(|slot| slot.lock().take()) {
                f(tid, part);
            }
        });
    }

    /// Maps `f(tid, item)` over `items` and returns the results in item
    /// order. Workers claim items one at a time (OpenMP `dynamic,1`), so
    /// items of uneven cost balance across the team; which worker ran an
    /// item never changes its result's position.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
        let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        self.run(|tid| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            *results[i].lock() = Some(f(tid, item));
        });
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every item is mapped"))
            .collect()
    }

    /// OpenMP-style `parallel for` over `range` with the given schedule.
    /// `f(tid, chunk_range)` is called once per assigned chunk; the call
    /// returns after the implicit barrier.
    pub fn parallel_for(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        f: impl Fn(usize, Range<usize>) + Sync,
    ) {
        let offset = range.start;
        let n = range.end.saturating_sub(range.start);
        let assignment = chunk_assignment(schedule, n, self.n);
        self.run(|tid| {
            for ch in &assignment[tid] {
                f(tid, offset + ch.start..offset + ch.end);
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            self.shared.start.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(tid: usize, core: Option<usize>, shared: Arc<Shared>) {
    if let Some(core) = core {
        // Best-effort: pinning failures are tolerated on the host (the
        // simulator is where placement is exact).
        let _ = pin_current_thread(core);
    }
    let mut seen_generation = 0u64;
    loop {
        let (job, dispatched) = {
            let mut state = shared.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation {
                    if let Some(job) = state.job {
                        seen_generation = state.generation;
                        break (job, state.dispatched);
                    }
                }
                shared.start.wait(&mut state);
            }
        };
        let started = shared.metrics.as_ref().map(|m| {
            if let Some(d) = dispatched {
                m.queue_latency_ns.record(d.elapsed().as_nanos() as u64);
            }
            Instant::now()
        });
        // SAFETY: `run` keeps the closure alive until `remaining == 0`,
        // which we only signal after the call returns.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(tid) }));
        if let (Some(m), Some(t0)) = (&shared.metrics, started) {
            m.busy_ns[tid].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let mut state = shared.state.lock();
        if result.is_err() {
            state.panicked += 1;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_worker_runs_exactly_once_per_run() {
        let pool = ThreadPool::new(8);
        let counts: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..10 {
            pool.run(|tid| {
                counts[tid].fetch_add(1, Ordering::Relaxed);
            });
        }
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 10);
        }
    }

    #[test]
    fn parallel_for_static_covers_range() {
        let pool = ThreadPool::new(4);
        let n = 10_001;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..n, Schedule::Static, |_tid, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_covers_offset_range() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        let lo = AtomicUsize::new(usize::MAX);
        pool.parallel_for(100..1100, Schedule::StaticChunk(8), |_tid, range| {
            total.fetch_add(range.len(), Ordering::Relaxed);
            lo.fetch_min(range.start, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000);
        assert_eq!(lo.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn static_one_interleaves_threads() {
        let pool = ThreadPool::new(4);
        let owner: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(99)).collect();
        pool.parallel_for(0..16, Schedule::StaticChunk(1), |tid, range| {
            for i in range {
                owner[i].store(tid, Ordering::Relaxed);
            }
        });
        let owners: Vec<usize> = owner.iter().map(|o| o.load(Ordering::Relaxed)).collect();
        assert_eq!(owners, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn run_parts_moves_part_k_to_worker_k() {
        // The idiomatic kernel pattern: split the output first, then let
        // each worker write its own part. Five parts on eight workers:
        // workers 5..8 get nothing and must not be called.
        let pool = ThreadPool::new(8);
        let mut data = vec![0usize; 5 * 512];
        let calls = AtomicUsize::new(0);
        pool.run_parts(data.chunks_mut(512).collect(), |tid, part| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(tid < 5, "worker {tid} has no part");
            for (i, x) in part.iter_mut().enumerate() {
                *x = tid * 10_000 + i;
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 5);
        for (k, part) in data.chunks(512).enumerate() {
            assert_eq!(part[0], k * 10_000);
            assert_eq!(part[511], k * 10_000 + 511);
        }
        // No parts: nobody is called.
        pool.run_parts(Vec::<()>::new(), |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "3 parts for a team of 2")]
    fn run_parts_rejects_more_parts_than_workers() {
        ThreadPool::new(2).run_parts(vec![(); 3], |_, _| {});
    }

    #[test]
    fn pool_is_reusable_many_times() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run(|_tid| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn zero_threads_promoted_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.num_threads(), 1);
        let ran = AtomicUsize::new(0);
        pool.run(|tid| {
            assert_eq!(tid, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_propagates_after_barrier() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|tid| {
                if tid == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool must still be usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.run(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pinned_pool_runs() {
        let pool = ThreadPool::with_placement(4, Placement::t2_scatter());
        let total = AtomicUsize::new(0);
        pool.parallel_for(0..100, Schedule::Static, |_t, r| {
            total.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn uninstrumented_pool_has_no_metrics() {
        let pool = ThreadPool::new(2);
        assert!(pool.metrics().is_none());
    }

    #[test]
    fn instrumented_pool_counts_jobs_and_busy_time() {
        let pool = ThreadPool::instrumented(4);
        for _ in 0..5 {
            pool.run(|_tid| {
                std::hint::black_box((0..10_000u64).sum::<u64>());
            });
        }
        let m = pool.metrics().expect("instrumented pool has metrics");
        assert_eq!(m.jobs, 5);
        // Every worker picked up every job, so 4 × 5 latency samples.
        assert_eq!(m.queue_latency_ns.count, 20);
        assert_eq!(m.worker_busy_ns.len(), 4);
        assert!(m.worker_busy_ns.iter().all(|&b| b > 0));
        assert!(m.busy_fraction.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn empty_range_is_fine() {
        let pool = ThreadPool::new(4);
        pool.parallel_for(5..5, Schedule::Static, |_t, _r| {
            panic!("must not be called");
        });
        pool.parallel_for(5..5, Schedule::StaticChunk(4), |_t, _r| {
            panic!("must not be called");
        });
    }
}
