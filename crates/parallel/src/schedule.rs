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
//! full per-thread chunk lists (used both by the host pool and to generate
//! simulator traces), and [`split_static`] cuts a slice into the
//! `schedule(static)` chunks so each worker can own its part.

use serde::Serialize;
use std::ops::Range;

/// An OpenMP-style loop schedule. Both are deterministic: the
/// iteration→thread map is fixed before the loop runs.
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

/// Materializes the per-thread chunk lists of a schedule for `n`
/// iterations on `t` threads. Every iteration appears in exactly one chunk
/// of exactly one thread, in increasing order per thread.
///
/// # Panics
/// Panics for `t == 0` or a zero chunk size.
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
    }
    per_thread
}

/// Splits `data` into its `schedule(static)` chunks for `t` threads: entry
/// `k` is thread `k`'s chunk with its start offset in `data`. Threads left
/// without iterations (`data.len() < t`) get no entry, so the result feeds
/// [`crate::ThreadPool::run_parts`] directly.
pub fn split_static<T>(mut data: &mut [T], t: usize) -> Vec<(usize, &mut [T])> {
    chunk_assignment(Schedule::Static, data.len(), t)
        .into_iter()
        .flatten()
        .map(|ch| {
            let (chunk, rest) = std::mem::take(&mut data).split_at_mut(ch.len());
            data = rest;
            (ch.start, chunk)
        })
        .collect()
}

/// Validates that an assignment covers `0..n` exactly once (test helper,
/// exported for the crate's property tests).
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
    fn split_static_cuts_the_static_chunks() {
        // n < t, n = t and n ≫ t: entry k is thread k's static chunk, with
        // its start offset, and threads without iterations get no entry.
        for (n, t) in [(3, 8), (8, 8), (1000, 7)] {
            let mut data: Vec<usize> = (0..n).collect();
            let parts = split_static(&mut data, t);
            let chunks: Vec<Chunk> = chunk_assignment(Schedule::Static, n, t)
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(parts.len(), chunks.len(), "n={n} t={t}");
            assert_eq!(parts.len(), n.min(t));
            for ((start, part), ch) in parts.iter().zip(&chunks) {
                assert_eq!(*start, ch.start);
                assert_eq!(part.len(), ch.len());
                // The part is the slice at that offset, not a copy of it.
                assert_eq!(part.first(), Some(&ch.start));
            }
        }
        assert!(split_static(&mut [0u8; 0], 4).is_empty());
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
