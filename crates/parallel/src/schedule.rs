//! OpenMP-style loop schedules.
//!
//! The paper's experiments hinge on the iteration→thread map: STREAM uses
//! `schedule(static)` (one contiguous chunk per thread), the Jacobi solver
//! *requires* `schedule(static,1)` (round-robin rows, §2.3: "an OpenMP
//! schedule of 'static,1' has to be used for optimal performance... the 4 MB
//! L2 cache of the processor is too small to accommodate a sufficient number
//! of rows when using 64 threads if the addresses are too far apart"), and
//! the LBM section discusses the "modulo effect" that arises when the chunk
//! sizes of a static schedule don't divide evenly.
//!
//! [`Schedule`] describes the policy; [`chunk_assignment`] materializes the
//! full per-thread chunk lists for the *deterministic* schedules (used both
//! by the host pool and to generate simulator traces); the dynamic/guided
//! schedules are claimed at runtime through [`ChunkCursor`].

use serde::Serialize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An OpenMP-style loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Schedule {
    /// `schedule(static)`: iterations divided into one contiguous,
    /// near-equal chunk per thread (sizes ⌊N/t⌋+1 for the first `N mod t`
    /// threads, ⌊N/t⌋ for the rest).
    Static,
    /// `schedule(static,c)`: chunks of `c` iterations dealt round-robin;
    /// chunk `k` goes to thread `k mod t`. `StaticChunk(1)` is the paper's
    /// `static,1`.
    StaticChunk(usize),
    /// `schedule(dynamic,c)`: chunks of `c` claimed by whichever thread is
    /// free.
    Dynamic(usize),
    /// `schedule(guided,c)`: exponentially shrinking chunks (remaining / t,
    /// floored at `c`), claimed dynamically.
    Guided(usize),
}

impl Schedule {
    /// Whether the iteration→thread map is fixed before execution.
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Schedule::Static | Schedule::StaticChunk(_))
    }
}

/// A contiguous range of iterations assigned to one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First iteration index.
    pub start: usize,
    /// One past the last iteration index.
    pub end: usize,
}

impl Chunk {
    /// The chunk as a `Range`.
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Number of iterations in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Materializes the per-thread chunk lists of a deterministic schedule for
/// `n` iterations on `t` threads. Every iteration appears in exactly one
/// chunk of exactly one thread, in increasing order per thread.
///
/// # Panics
/// Panics for [`Schedule::Dynamic`]/[`Schedule::Guided`] (not deterministic)
/// and for `t == 0` or a zero chunk size.
pub fn chunk_assignment(schedule: Schedule, n: usize, t: usize) -> Vec<Vec<Chunk>> {
    assert!(t > 0, "need at least one thread");
    let mut per_thread: Vec<Vec<Chunk>> = vec![Vec::new(); t];
    match schedule {
        Schedule::Static => {
            let base = n / t;
            let rem = n % t;
            let mut start = 0;
            for (tid, chunks) in per_thread.iter_mut().enumerate() {
                let len = base + usize::from(tid < rem);
                if len > 0 {
                    chunks.push(Chunk {
                        start,
                        end: start + len,
                    });
                }
                start += len;
            }
            debug_assert_eq!(start, n);
        }
        Schedule::StaticChunk(c) => {
            assert!(c > 0, "chunk size must be positive");
            let mut start = 0;
            let mut k = 0usize;
            while start < n {
                let end = (start + c).min(n);
                per_thread[k % t].push(Chunk { start, end });
                start = end;
                k += 1;
            }
        }
        Schedule::Dynamic(_) | Schedule::Guided(_) => {
            panic!("dynamic/guided schedules have no static assignment; use ChunkCursor")
        }
    }
    per_thread
}

/// Runtime chunk dispenser for dynamic and guided schedules (also handles
/// the deterministic ones for uniformity inside the pool).
pub struct ChunkCursor {
    n: usize,
    t: usize,
    schedule: Schedule,
    next: AtomicUsize,
}

impl ChunkCursor {
    /// A cursor over `n` iterations for `t` threads.
    pub fn new(schedule: Schedule, n: usize, t: usize) -> Self {
        assert!(t > 0);
        if let Schedule::Dynamic(c) | Schedule::Guided(c) = schedule {
            assert!(c > 0, "chunk size must be positive");
        }
        ChunkCursor {
            n,
            t,
            schedule,
            next: AtomicUsize::new(0),
        }
    }

    /// Claims the next chunk for `tid`, or `None` when the loop is
    /// exhausted. For static schedules the result depends only on `tid` and
    /// the claim count; for dynamic/guided it is first come, first served.
    pub fn claim(&self, _tid: usize) -> Option<Chunk> {
        match self.schedule {
            Schedule::Dynamic(c) => {
                let start = self.next.fetch_add(c, Ordering::Relaxed);
                if start >= self.n {
                    return None;
                }
                Some(Chunk {
                    start,
                    end: (start + c).min(self.n),
                })
            }
            Schedule::Guided(min) => loop {
                let start = self.next.load(Ordering::Relaxed);
                if start >= self.n {
                    return None;
                }
                let remaining = self.n - start;
                let size = (remaining / self.t).max(min).min(remaining);
                if self
                    .next
                    .compare_exchange_weak(
                        start,
                        start + size,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return Some(Chunk {
                        start,
                        end: start + size,
                    });
                }
            },
            Schedule::Static | Schedule::StaticChunk(_) => {
                panic!("static schedules are pre-assigned; use chunk_assignment")
            }
        }
    }
}

/// Validates that an assignment covers `0..n` exactly once (test helper,
/// exported for reuse in integration tests and the simulator).
pub fn assert_exact_cover(assignment: &[Vec<Chunk>], n: usize) {
    let mut seen = vec![false; n];
    for chunks in assignment {
        for ch in chunks {
            assert!(ch.end <= n, "chunk {ch:?} exceeds n={n}");
            for i in ch.range() {
                assert!(!seen[i], "iteration {i} assigned twice");
                seen[i] = true;
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "not all iterations covered");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_split_matches_paper_rule() {
        // ⌊N/t⌋+1 for the first N mod t threads, ⌊N/t⌋ for the rest.
        let a = chunk_assignment(Schedule::Static, 100, 8);
        let sizes: Vec<usize> = a.iter().map(|c| c.iter().map(Chunk::len).sum()).collect();
        assert_eq!(sizes, vec![13, 13, 13, 13, 12, 12, 12, 12]);
        assert_exact_cover(&a, 100);
    }

    #[test]
    fn static_chunks_are_contiguous_per_thread() {
        let a = chunk_assignment(Schedule::Static, 64, 4);
        for (tid, chunks) in a.iter().enumerate() {
            assert_eq!(chunks.len(), 1, "thread {tid}");
            assert_eq!(chunks[0].len(), 16);
        }
    }

    #[test]
    fn static_one_is_round_robin() {
        // The paper's "static,1": thread i gets rows i, i+t, i+2t, ...
        let a = chunk_assignment(Schedule::StaticChunk(1), 10, 4);
        let thread0: Vec<usize> = a[0].iter().map(|c| c.start).collect();
        assert_eq!(thread0, vec![0, 4, 8]);
        let thread3: Vec<usize> = a[3].iter().map(|c| c.start).collect();
        assert_eq!(thread3, vec![3, 7]);
        assert_exact_cover(&a, 10);
    }

    #[test]
    fn static_chunk_respects_chunk_size() {
        let a = chunk_assignment(Schedule::StaticChunk(8), 100, 3);
        assert_exact_cover(&a, 100);
        for chunks in &a {
            for ch in chunks {
                assert!(ch.len() <= 8);
            }
        }
        // Last chunk is the remainder.
        let all: Vec<Chunk> = {
            let mut v: Vec<Chunk> = a.iter().flatten().copied().collect();
            v.sort_by_key(|c| c.start);
            v
        };
        assert_eq!(all.last().unwrap().len(), 100 % 8);
    }

    #[test]
    fn more_threads_than_iterations() {
        let a = chunk_assignment(Schedule::Static, 3, 8);
        assert_exact_cover(&a, 3);
        let nonempty = a.iter().filter(|c| !c.is_empty()).count();
        assert_eq!(nonempty, 3);
    }

    #[test]
    fn zero_iterations() {
        let a = chunk_assignment(Schedule::Static, 0, 4);
        assert!(a.iter().all(|c| c.is_empty()));
        let a = chunk_assignment(Schedule::StaticChunk(4), 0, 4);
        assert!(a.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn dynamic_cursor_covers_exactly() {
        let cur = ChunkCursor::new(Schedule::Dynamic(7), 100, 4);
        let mut seen = [false; 100];
        while let Some(ch) = cur.claim(0) {
            for i in ch.range() {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn guided_chunks_shrink() {
        let cur = ChunkCursor::new(Schedule::Guided(4), 1000, 4);
        let mut sizes = Vec::new();
        while let Some(ch) = cur.claim(0) {
            sizes.push(ch.len());
        }
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        // Non-increasing and floored at the minimum (except possibly the
        // final remainder).
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "guided chunks must shrink: {sizes:?}");
        }
        assert_eq!(sizes[0], 250);
        for &s in &sizes[..sizes.len() - 1] {
            assert!(s >= 4);
        }
    }

    #[test]
    fn dynamic_cursor_concurrent_exact_cover() {
        use std::sync::Arc;
        let cur = Arc::new(ChunkCursor::new(Schedule::Dynamic(3), 10_000, 8));
        let counters: Vec<_> = (0..8)
            .map(|tid| {
                let cur = Arc::clone(&cur);
                std::thread::spawn(move || {
                    let mut count = 0usize;
                    while let Some(ch) = cur.claim(tid) {
                        count += ch.len();
                    }
                    count
                })
            })
            .collect();
        let total: usize = counters.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    #[should_panic(expected = "dynamic/guided")]
    fn dynamic_has_no_static_assignment() {
        chunk_assignment(Schedule::Dynamic(1), 10, 2);
    }

    #[test]
    fn modulo_effect_imbalance_visible() {
        // The LBM §2.4 sawtooth: N=129 planes on 64 threads gives some
        // threads 3 planes and most 2 — a 1.5× imbalance that the fused
        // (coalesced) loop removes.
        let a = chunk_assignment(Schedule::Static, 129, 64);
        let sizes: Vec<usize> = a.iter().map(|c| c.iter().map(Chunk::len).sum()).collect();
        assert_eq!(*sizes.iter().max().unwrap(), 3);
        assert_eq!(*sizes.iter().min().unwrap(), 2);
    }
}
