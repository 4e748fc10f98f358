//! Property-based tests for schedules, coalescing and the pool.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use t2opt_parallel::schedule::assert_exact_cover;
use t2opt_parallel::{chunk_assignment, Coalesce2, Schedule, ThreadPool};

proptest! {
    /// Static schedules cover every iteration exactly once for arbitrary
    /// (n, t, chunk).
    #[test]
    fn static_schedules_exact_cover(
        n in 0usize..5_000,
        t in 1usize..70,
        chunk in 1usize..100,
    ) {
        let a = chunk_assignment(Schedule::Static, n, t);
        assert_exact_cover(&a, n);
        let a = chunk_assignment(Schedule::StaticChunk(chunk), n, t);
        assert_exact_cover(&a, n);
    }

    /// Static split sizes differ by at most one (the ⌊N/t⌋ / ⌊N/t⌋+1 law).
    #[test]
    fn static_split_is_balanced(n in 0usize..10_000, t in 1usize..100) {
        let a = chunk_assignment(Schedule::Static, n, t);
        let sizes: Vec<usize> = a.iter().map(|c| c.iter().map(|ch| ch.len()).sum()).collect();
        let max = sizes.iter().copied().max().unwrap();
        let min = sizes.iter().copied().min().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// `map` calls `f` exactly once per item and returns the results in
    /// item order, whatever the team size (kept small: spawns threads).
    #[test]
    fn map_is_ordered_and_exact(n in 0usize..300, t in 1usize..6) {
        let pool = ThreadPool::new(t);
        let items: Vec<usize> = (0..n).collect();
        let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = pool.map(&items, |tid, &i| {
            assert!(tid < t);
            calls[i].fetch_add(1, Ordering::Relaxed);
            i * 3 + 1
        });
        prop_assert_eq!(out, (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>());
        prop_assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// Coalesce2 is a bijection between the flat space and index pairs.
    #[test]
    fn coalesce_bijection(n1 in 1usize..30, n2 in 1usize..30) {
        let c2 = Coalesce2::new(n1, n2);
        for flat in 0..c2.len() {
            let (i, j) = c2.decode(flat);
            prop_assert_eq!(c2.encode(i, j), flat);
        }
    }
}

/// Pool execution visits every index exactly once, for a sampling of
/// schedules and team sizes (kept small: spawns threads).
#[test]
fn pool_visits_everything_once() {
    for &(threads, n, schedule) in &[
        (3usize, 1000usize, Schedule::Static),
        (7, 999, Schedule::StaticChunk(5)),
        (4, 1234, Schedule::StaticChunk(1)),
    ] {
        let pool = ThreadPool::new(threads);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..n, schedule, |_tid, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "schedule {schedule:?} on {threads} threads missed or repeated an index"
        );
    }
}
