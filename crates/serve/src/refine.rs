//! Bounded background-refinement queue with oldest-dropped semantics,
//! handing out one job per chip at a time.
//!
//! `/advise` misses enqueue a [`RefineJob`]; refiner threads pop jobs and
//! run `AdviceService::run_refinement`. The queue is bounded: when a new
//! job would exceed capacity, the *oldest* pending job is dropped (it has
//! waited longest, so its requester has most likely moved on) and the
//! dropped-jobs counter ticks — surfaced in `/metrics` so load tests can
//! see refinement pressure.
//!
//! [`RefineQueue::pop`] hands a refiner the oldest pending job whose chip
//! no other refiner holds, as a [`Lease`] that carries the chip's trial
//! [`ResultCache`]. The chip stays held until the lease drops, also when
//! its refiner unwinds, and the cache the job hands back is the one the
//! chip's next job gets. So each chip's jobs run one at a time, in queue
//! order, against one cache, however many refiners there are. Trial keys
//! and transfer seeds never cross chips, so every job sees the cache it
//! would see behind a single refiner (DESIGN §11).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use t2opt_autotune::{ResultCache, Workload};

/// One pending refinement: the store key to upgrade plus the query that
/// produced it, carrying the originating request's trace context so the
/// background refinement's spans join that request's trace.
#[derive(Debug, Clone)]
pub struct RefineJob {
    /// Store key of the entry to upgrade.
    pub key: String,
    /// Chip preset name.
    pub chip: String,
    /// The (smoke-sized) workload to autotune.
    pub workload: Workload,
    /// Trace of the request that enqueued this job (0 = untraced).
    pub trace_id: u64,
    /// Span the refinement parents to (the request's `refine.enqueue`).
    pub parent_span: u64,
    /// When the job entered the queue — queue-wait = pop time − this.
    pub enqueued_at: Instant,
}

impl RefineJob {
    /// An untraced job enqueued now.
    pub fn new(key: impl Into<String>, chip: impl Into<String>, workload: Workload) -> Self {
        RefineJob {
            key: key.into(),
            chip: chip.into(),
            workload,
            trace_id: 0,
            parent_span: 0,
            enqueued_at: Instant::now(),
        }
    }

    /// Attaches the originating request's trace context.
    pub fn traced(mut self, trace_id: u64, parent_span: u64) -> Self {
        self.trace_id = trace_id;
        self.parent_span = parent_span;
        self
    }
}

/// The bounded job queue shared by request workers (producers) and
/// refiner threads (consumers).
#[derive(Debug)]
pub struct RefineQueue {
    state: Mutex<State>,
    signal: Condvar,
    capacity: usize,
    enqueued: AtomicU64,
    dropped: AtomicU64,
    completed: AtomicU64,
}

/// What the queue's lock guards.
#[derive(Debug, Default)]
struct State {
    /// Jobs not handed out yet, oldest first.
    pending: VecDeque<RefineJob>,
    /// Chips a [`Lease`] holds.
    leased: BTreeSet<String>,
    /// Each chip's trial cache between its jobs.
    trials: BTreeMap<String, ResultCache>,
}

impl RefineQueue {
    /// A queue holding at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "refinement queue needs room for one job");
        RefineQueue {
            state: Mutex::default(),
            signal: Condvar::new(),
            capacity,
            enqueued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `job` unless one with the same key is already pending
    /// (dedup keeps a hot missed query from flooding the queue). If the
    /// queue is full the oldest pending job is dropped to make room.
    /// Returns whether the job was actually added.
    pub fn enqueue(&self, job: RefineJob) -> bool {
        let mut state = self.lock();
        let jobs = &mut state.pending;
        if jobs.iter().any(|j| j.key == job.key) {
            return false;
        }
        if jobs.len() == self.capacity {
            jobs.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        jobs.push_back(job);
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.signal.notify_one();
        true
    }

    /// Leases the oldest pending job whose chip no other lease holds,
    /// blocking until there is one or `shutdown` flips. Returns `None`
    /// only on shutdown.
    pub fn pop(&self, shutdown: &AtomicBool) -> Option<Lease<'_>> {
        let mut state = self.lock();
        loop {
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(lease) = self.lease(&mut state) {
                return Some(lease);
            }
            let (guard, _) = self
                .signal
                .wait_timeout(state, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }

    /// Non-blocking [`RefineQueue::pop`], for tests and drain loops.
    pub fn try_pop(&self) -> Option<Lease<'_>> {
        self.lease(&mut self.lock())
    }

    /// Takes the oldest pending job whose chip is free, with the chip's
    /// trial cache.
    fn lease(&self, state: &mut State) -> Option<Lease<'_>> {
        let i = state
            .pending
            .iter()
            .position(|j| !state.leased.contains(&j.chip))?;
        let job = state.pending.remove(i).expect("position is in range");
        state.leased.insert(job.chip.clone());
        let trials = state.trials.remove(&job.chip);
        Some(Lease {
            queue: self,
            trials: Some(trials.unwrap_or_else(ResultCache::in_memory)),
            job,
        })
    }

    /// Frees `chip` for its next job, which gets `trials`, and wakes every
    /// waiting refiner: the one that may take that job could be any of
    /// them.
    fn release(&self, chip: &str, trials: Option<ResultCache>) {
        let mut state = self.lock();
        state.leased.remove(chip);
        if let Some(trials) = trials {
            state.trials.insert(chip.to_string(), trials);
        }
        drop(state);
        self.signal.notify_all();
    }

    /// Pending jobs right now (leased ones excluded).
    pub fn depth(&self) -> usize {
        self.lock().pending.len()
    }

    /// Maximum pending jobs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs accepted since startup.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Jobs evicted unrun because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Jobs whose refinement finished and upgraded (or confirmed) the
    /// store entry.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Records one finished refinement (called by the service).
    pub fn mark_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether every accepted job has either completed or been dropped —
    /// the "refinement settled" condition load generators poll for.
    pub fn settled(&self) -> bool {
        self.depth() == 0 && self.completed() + self.dropped() >= self.enqueued()
    }

    /// The `/metrics` fragment describing the queue.
    pub fn snapshot_json(&self) -> String {
        format!(
            r#"{{"depth":{},"capacity":{},"enqueued":{},"completed":{},"dropped":{},"settled":{}}}"#,
            self.depth(),
            self.capacity,
            self.enqueued(),
            self.completed(),
            self.dropped(),
            self.settled(),
        )
    }
}

/// A job handed to one refiner, holding its chip: no other refiner gets a
/// job of that chip until the lease drops.
#[derive(Debug)]
pub struct Lease<'q> {
    queue: &'q RefineQueue,
    job: RefineJob,
    /// The chip's trial cache; `None` once a job unwound with it.
    trials: Option<ResultCache>,
}

impl Lease<'_> {
    /// The leased job.
    pub fn job(&self) -> &RefineJob {
        &self.job
    }

    /// Runs the job: `refine` gets it with the chip's trial cache and
    /// returns the cache for the chip's next job. If `refine` unwinds, the
    /// chip is still freed, and its next job starts from an empty cache.
    pub fn run(mut self, refine: impl FnOnce(&RefineJob, ResultCache) -> ResultCache) {
        let trials = self.trials.take().expect("a lease runs once");
        self.trials = Some(refine(&self.job, trials));
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.queue.release(&self.job.chip, self.trials.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const T2: &str = "ultrasparc-t2";
    const BUDGET: &str = "budget-2mc";

    fn job_on(key: &str, chip: &str) -> RefineJob {
        RefineJob::new(key, chip, Workload::triad_smoke(1 << 10, 8))
    }

    fn job(key: &str) -> RefineJob {
        job_on(key, T2)
    }

    /// The key of the job `try_pop` leases, the lease dropped at once.
    fn next_key(q: &RefineQueue) -> Option<String> {
        q.try_pop().map(|lease| lease.job().key.clone())
    }

    #[test]
    fn overflow_drops_the_oldest_job_and_counts_it() {
        let q = RefineQueue::new(2);
        assert!(q.enqueue(job("a")));
        assert!(q.enqueue(job("b")));
        assert!(q.enqueue(job("c")), "overflow still accepts the new job");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.dropped(), 1);
        // "a" was oldest and must be gone; "b" then "c" remain in order.
        assert_eq!(next_key(&q).as_deref(), Some("b"));
        assert_eq!(next_key(&q).as_deref(), Some("c"));
    }

    #[test]
    fn duplicate_keys_are_not_enqueued_twice() {
        let q = RefineQueue::new(4);
        assert!(q.enqueue(job("a")));
        assert!(!q.enqueue(job("a")));
        assert_eq!((q.depth(), q.enqueued()), (1, 1));
    }

    #[test]
    fn pop_returns_none_on_shutdown() {
        let q = RefineQueue::new(4);
        let shutdown = AtomicBool::new(true);
        assert!(q.pop(&shutdown).is_none());
    }

    #[test]
    fn settled_tracks_the_full_lifecycle() {
        let q = RefineQueue::new(1);
        assert!(q.settled(), "an idle queue is settled");
        q.enqueue(job("a"));
        assert!(!q.settled());
        q.enqueue(job("b")); // drops "a"
        q.try_pop().unwrap();
        assert!(!q.settled(), "popped but not completed is in flight");
        q.mark_completed();
        assert!(q.settled());
    }

    #[test]
    fn a_job_whose_chip_is_leased_is_skipped() {
        let q = RefineQueue::new(8);
        q.enqueue(job_on("t1", T2));
        q.enqueue(job_on("t2", T2));
        q.enqueue(job_on("b1", BUDGET));
        let first = q.try_pop().unwrap();
        assert_eq!(first.job().key, "t1");
        let second = q.try_pop().expect("another chip's job is free");
        assert_eq!(second.job().key, "b1", "t2 waits for its chip");
        assert!(q.try_pop().is_none(), "both chips are leased");
        assert_eq!(q.depth(), 1);
        assert!(!q.settled());
    }

    #[test]
    fn one_chips_jobs_go_out_in_queue_order_after_the_previous_one() {
        let q = RefineQueue::new(8);
        for key in ["t1", "t2", "t3"] {
            q.enqueue(job_on(key, T2));
        }
        for (i, key) in ["t1", "t2", "t3"].into_iter().enumerate() {
            let lease = q.try_pop().expect("the chip is free");
            assert_eq!(lease.job().key, key);
            assert!(q.try_pop().is_none(), "{key} still holds the chip");
            // Each job finds what the chip's earlier jobs measured.
            lease.run(|_, mut trials| {
                assert_eq!(trials.len(), i);
                trials.insert(key.to_string(), 1.0);
                trials
            });
        }
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn chips_keep_separate_trial_caches() {
        let q = RefineQueue::new(8);
        q.enqueue(job_on("t1", T2));
        q.enqueue(job_on("b1", BUDGET));
        q.enqueue(job_on("t2", T2));
        q.try_pop().unwrap().run(|_, mut trials| {
            trials.insert("t1".into(), 1.0);
            trials
        });
        q.try_pop().unwrap().run(|job, trials| {
            assert_eq!(job.key, "b1");
            assert!(trials.is_empty(), "budget-2mc starts cold");
            trials
        });
        q.try_pop().unwrap().run(|job, trials| {
            assert_eq!(job.key, "t2");
            assert_eq!(trials.peek("t1"), Some(1.0));
            trials
        });
    }

    #[test]
    fn a_second_refiner_takes_another_chips_job_meanwhile() {
        let q = RefineQueue::new(8);
        q.enqueue(job_on("t1", T2));
        q.enqueue(job_on("t2", T2));
        let shutdown = AtomicBool::new(false);
        let first = q.pop(&shutdown).unwrap();
        std::thread::scope(|s| {
            // Whether b1 arrives before or while the second refiner waits,
            // it gets b1: t2 is older, but its chip is held.
            let second = s.spawn(|| q.pop(&shutdown).map(|l| l.job().key.clone()));
            q.enqueue(job_on("b1", BUDGET));
            assert_eq!(second.join().unwrap().as_deref(), Some("b1"));
        });
        drop(first);
        assert_eq!(next_key(&q).as_deref(), Some("t2"));
    }

    #[test]
    fn finishing_a_job_hands_the_chips_next_job_to_a_waiting_refiner() {
        let q = RefineQueue::new(8);
        q.enqueue(job_on("t1", T2));
        q.enqueue(job_on("t2", T2));
        let shutdown = AtomicBool::new(false);
        let first = q.try_pop().unwrap();
        std::thread::scope(|s| {
            // Waiting or not when t1 ends, the second refiner gets t2.
            let waiter = s.spawn(|| q.pop(&shutdown).map(|l| l.job().key.clone()));
            first.run(|_, trials| trials);
            assert_eq!(waiter.join().unwrap().as_deref(), Some("t2"));
        });
    }

    #[test]
    fn an_unwinding_job_frees_its_chip() {
        let q = RefineQueue::new(8);
        for key in ["t1", "t2", "t3"] {
            q.enqueue(job_on(key, T2));
        }
        let lease = q.try_pop().unwrap();
        let failed = catch_unwind(AssertUnwindSafe(|| {
            lease.run(|_, _| panic!("refinement failed"));
        }));
        assert!(failed.is_err());
        q.try_pop().expect("t2 runs").run(|job, trials| {
            assert_eq!(job.key, "t2");
            assert!(trials.is_empty(), "the failed job took its cache along");
            trials
        });
        // A lease dropped by an unwind before it ran frees the chip too.
        let failed = catch_unwind(AssertUnwindSafe(|| {
            let _lease = q.try_pop().unwrap();
            panic!("refiner failed");
        }));
        assert!(failed.is_err());
        assert!(q.try_pop().is_none(), "t3 went with the failed lease");
        assert!(q.enqueue(job_on("t4", T2)));
        assert_eq!(next_key(&q).as_deref(), Some("t4"));
    }
}
