//! A fixed team of workers that many threads hand work to at once.
//!
//! A [`ThreadPool`](crate::ThreadPool) broadcasts each region to its whole
//! team, one caller at a time, and the caller waits for every worker to
//! check in, busy or not. A [`TaskPool`] takes [`TaskPool::map`] calls from
//! any number of threads at once. Their items join one queue, oldest call
//! first, and a worker that is free takes the next item of any call. So
//! the callers together never run more items at once than the team has
//! workers, a caller alone gets every worker, and each caller waits only
//! for its own items.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Type-erased pointer to one `map` call's item runner, called with the
/// worker's index and the item's.
#[derive(Clone, Copy)]
struct RunPtr(*const (dyn Fn(usize, usize) + Sync));

// SAFETY: the pointee is `Sync`, and `map` keeps it alive until every item
// of its call has run.
unsafe impl Send for RunPtr {}
unsafe impl Sync for RunPtr {}

/// One `map` call.
struct Call {
    run: RunPtr,
    len: usize,
    /// Items not finished yet, and how many of the finished ones panicked.
    left: Mutex<(usize, usize)>,
    finished: Condvar,
}

#[derive(Default)]
struct Queue {
    /// Calls with items no worker has taken, oldest first, each with its
    /// next item.
    calls: VecDeque<(Arc<Call>, usize)>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    work: Condvar,
}

/// A team of workers shared by many callers; see the module docs.
///
/// ```
/// use t2opt_parallel::TaskPool;
///
/// let pool = TaskPool::new(2);
/// let squares = std::thread::scope(|s| {
///     let other = s.spawn(|| pool.map(&[4u64, 5], |_tid, &x| x * x));
///     let mine = pool.map(&[1u64, 2, 3], |_tid, &x| x * x);
///     (mine, other.join().unwrap())
/// });
/// assert_eq!(squares, (vec![1, 4, 9], vec![16, 25]));
/// ```
pub struct TaskPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl TaskPool {
    /// Starts a team of `n` workers (`n = 0` is promoted to 1).
    pub fn new(n: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let workers = (0..n.max(1))
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("t2opt-task-{tid}"))
                    .spawn(move || task_loop(tid, &shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        TaskPool { shared, workers }
    }

    /// Maps `f(tid, item)` over `items` on the team and returns the results
    /// in item order, like [`ThreadPool::map`](crate::ThreadPool::map).
    /// The items queue behind those of earlier calls still running, from
    /// any thread. A panic in `f` is raised here once every item of this
    /// call has finished; the pool stays usable. An item must not call
    /// `map` on its own pool: the workers could all end up waiting.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
        if items.is_empty() {
            return Vec::new();
        }
        let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let run = |tid: usize, i: usize| *results[i].lock() = Some(f(tid, &items[i]));
        let run_ref: &(dyn Fn(usize, usize) + Sync) = &run;
        // SAFETY: we erase the lifetime of `run_ref`, but `map` does not
        // return until every item has run, and a worker calls the pointer
        // only for an item it has not yet counted as finished.
        let run = RunPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize, usize) + Sync),
                *const (dyn Fn(usize, usize) + Sync + 'static),
            >(run_ref as *const _)
        });
        let call = Arc::new(Call {
            run,
            len: items.len(),
            left: Mutex::new((items.len(), 0)),
            finished: Condvar::new(),
        });
        self.shared
            .queue
            .lock()
            .calls
            .push_back((Arc::clone(&call), 0));
        self.shared.work.notify_all();
        let mut left = call.left.lock();
        while left.0 > 0 {
            call.finished.wait(&mut left);
        }
        let panicked = left.1;
        drop(left);
        assert!(
            panicked == 0,
            "{panicked} item(s) panicked inside TaskPool::map"
        );
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every item is mapped"))
            .collect()
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        // No `map` is running: each borrows the pool.
        self.shared.queue.lock().shutdown = true;
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Takes the oldest call's next item, waiting for one; `None` on shutdown.
fn next_item(shared: &Shared) -> Option<(Arc<Call>, usize)> {
    let mut queue = shared.queue.lock();
    loop {
        if queue.shutdown {
            return None;
        }
        if let Some((call, next)) = queue.calls.front_mut() {
            let item = (Arc::clone(call), *next);
            *next += 1;
            if *next == call.len {
                queue.calls.pop_front();
            }
            return Some(item);
        }
        shared.work.wait(&mut queue);
    }
}

fn task_loop(tid: usize, shared: &Shared) {
    while let Some((call, i)) = next_item(shared) {
        // SAFETY: item `i` is not yet counted as finished, so `map` is
        // still waiting and keeps the runner alive.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*call.run.0)(tid, i) }));
        let mut left = call.left.lock();
        left.0 -= 1;
        if result.is_err() {
            left.1 += 1;
        }
        if left.0 == 0 {
            call.finished.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn map_returns_results_in_item_order() {
        let pool = TaskPool::new(3);
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(
            pool.map(&items, |tid, &x| {
                assert!(tid < 3);
                x * 3
            }),
            items.iter().map(|x| x * 3).collect::<Vec<_>>()
        );
        assert!(pool.map(&[] as &[u64], |_, &x| x).is_empty());
    }

    #[test]
    fn callers_side_by_side_never_run_more_items_than_workers() {
        let pool = TaskPool::new(2);
        let (busy, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let work = |base: u64| {
            let items: Vec<u64> = (base..base + 40).collect();
            let out = pool.map(&items, |_, &x| {
                most.fetch_max(busy.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                std::thread::yield_now();
                busy.fetch_sub(1, Ordering::SeqCst);
                x + 1
            });
            assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        };
        std::thread::scope(|s| {
            for base in [0, 100, 200] {
                s.spawn(move || work(base));
            }
        });
        assert!((1..=2).contains(&most.load(Ordering::SeqCst)));
    }

    #[test]
    fn a_caller_alone_gets_every_worker() {
        // Each item waits until both have started, or gives up after a
        // while: only two workers running the call's items at once let
        // both see the other.
        let pool = TaskPool::new(2);
        let started = AtomicUsize::new(0);
        let met = pool.map(&[(); 2], |_, _| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            started.load(Ordering::SeqCst) == 2
        });
        assert_eq!(met, [true, true]);
    }

    #[test]
    fn a_panicking_item_fails_its_call_only() {
        let pool = TaskPool::new(2);
        let ran = AtomicUsize::new(0);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&[0, 1, 2, 3], |_, &i| {
                ran.fetch_add(1, Ordering::SeqCst);
                assert_ne!(i, 1, "item 1 fails");
            })
        }));
        assert!(failed.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 4, "every item still ran");
        assert_eq!(pool.map(&[5, 6], |_, &x| x * 2), [10, 12]);
    }
}
