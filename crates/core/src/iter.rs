//! Segmented iterators and hierarchical algorithms.
//!
//! The paper (§2.2) discourages element-wise iteration over a segmented
//! container in hot loops — the "required conditional branches in, e.g.,
//! `operator++()`" kill performance — and instead uses *segmented iterators*
//! in the sense of Austern: algorithms are written hierarchically, an outer
//! loop over segments and a tight, branch-free inner loop over each
//! contiguous segment. The inner loop sees a plain slice and compiles to the
//! same machine code as a C or Fortran loop.
//!
//! This module provides both styles:
//!
//! * [`FlatIter`] — the discouraged element-wise iterator, kept for
//!   correctness tests and to measure the overhead the paper warns about:
//!   `fig5_overhead` prints its ns per element against `hier_fold` and a
//!   plain `Vec` sum;
//! * [`seg_zip2`], [`seg_zip3`], [`seg_zip4`] — hierarchical zips over
//!   structurally identical segmented arrays, the workhorses for STREAM-like
//!   kernels (`A(:) = B(:) + s*C(:)` runs as one `seg_zip3` whose inner
//!   closure is a plain slice loop);
//! * [`HierExt`] — fold/reduce conveniences written hierarchically.

use crate::seg_array::{Pod, SegArray};

/// Element-wise iterator across segment boundaries, with the per-step bounds
/// branch the paper warns about. Use only outside hot loops.
pub struct FlatIter<'a, T: Pod> {
    arr: &'a SegArray<T>,
    seg: usize,
    local: usize,
}

impl<'a, T: Pod> FlatIter<'a, T> {
    /// Creates a flat element iterator over `arr`.
    pub fn new(arr: &'a SegArray<T>) -> Self {
        FlatIter {
            arr,
            seg: 0,
            local: 0,
        }
    }
}

impl<'a, T: Pod> Iterator for FlatIter<'a, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        // The branchy "operator++" of the paper: every step checks whether
        // the segment is exhausted.
        while self.seg < self.arr.num_segments() {
            let s = self.arr.segment(self.seg);
            if self.local < s.len() {
                let v = s[self.local];
                self.local += 1;
                return Some(v);
            }
            self.seg += 1;
            self.local = 0;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let done: usize = (0..self.seg)
            .map(|s| self.arr.segment(s).len())
            .sum::<usize>()
            + self.local;
        let left = self.arr.len() - done;
        (left, Some(left))
    }
}

/// Asserts that two segmented arrays have identical segment structure, a
/// precondition for hierarchical zips.
#[inline]
fn assert_same_structure<A: Pod, B: Pod>(a: &SegArray<A>, b: &SegArray<B>) {
    assert_eq!(
        a.layout().seg_sizes,
        b.layout().seg_sizes,
        "segmented arrays must have identical segment structure"
    );
}

/// Hierarchical zip over (dst, src): calls `f(dst_seg, src_seg)` once per
/// segment with plain slices.
///
/// ```
/// use t2opt_core::prelude::*;
/// use t2opt_core::iter::seg_zip2;
/// let mut a = SegArray::<f64>::builder(100).segments(4).build();
/// let mut c = SegArray::<f64>::builder(100).segments(4).build();
/// c.fill(2.0);
/// // STREAM copy: A(:) = C(:)
/// seg_zip2(&mut a, &c, |a, c| a.copy_from_slice(c));
/// assert_eq!(a.get(57), 2.0);
/// ```
pub fn seg_zip2<T: Pod, U: Pod>(
    dst: &mut SegArray<T>,
    src: &SegArray<U>,
    mut f: impl FnMut(&mut [T], &[U]),
) {
    assert_same_structure(dst, src);
    for s in 0..dst.num_segments() {
        f(dst.segment_mut(s), src.segment(s));
    }
}

/// Hierarchical zip over (dst, src1, src2): `f(dst_seg, s1_seg, s2_seg)` per
/// segment. STREAM add/triad shape.
pub fn seg_zip3<T: Pod, U: Pod, V: Pod>(
    dst: &mut SegArray<T>,
    src1: &SegArray<U>,
    src2: &SegArray<V>,
    mut f: impl FnMut(&mut [T], &[U], &[V]),
) {
    assert_same_structure(dst, src1);
    assert_same_structure(dst, src2);
    for s in 0..dst.num_segments() {
        f(dst.segment_mut(s), src1.segment(s), src2.segment(s));
    }
}

/// Hierarchical zip over (dst, src1, src2, src3): the vector-triad shape
/// `A(:) = B(:) + C(:)*D(:)`.
pub fn seg_zip4<T: Pod, U: Pod, V: Pod, W: Pod>(
    dst: &mut SegArray<T>,
    src1: &SegArray<U>,
    src2: &SegArray<V>,
    src3: &SegArray<W>,
    mut f: impl FnMut(&mut [T], &[U], &[V], &[W]),
) {
    assert_same_structure(dst, src1);
    assert_same_structure(dst, src2);
    assert_same_structure(dst, src3);
    for s in 0..dst.num_segments() {
        f(
            dst.segment_mut(s),
            src1.segment(s),
            src2.segment(s),
            src3.segment(s),
        );
    }
}

/// A segment together with the global index of its first element — what a
/// parallel dispatcher hands to each worker.
#[derive(Debug)]
pub struct SegChunk<'a, T: Pod> {
    /// Index of this segment.
    pub segment: usize,
    /// Global index of the first element.
    pub start: usize,
    /// The segment's elements.
    pub data: &'a [T],
}

/// Iterator over [`SegChunk`]s of a segmented array.
pub struct SegChunks<'a, T: Pod> {
    arr: &'a SegArray<T>,
    seg: usize,
}

impl<'a, T: Pod> SegChunks<'a, T> {
    /// Creates the chunk iterator.
    pub fn new(arr: &'a SegArray<T>) -> Self {
        SegChunks { arr, seg: 0 }
    }
}

impl<'a, T: Pod> Iterator for SegChunks<'a, T> {
    type Item = SegChunk<'a, T>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.seg >= self.arr.num_segments() {
            return None;
        }
        let s = self.seg;
        self.seg += 1;
        Some(SegChunk {
            segment: s,
            start: self.arr.segment_start_index(s),
            data: self.arr.segment(s),
        })
    }
}

/// Hierarchical fold/inspection conveniences on [`SegArray`].
pub trait HierExt<T: Pod> {
    /// Hierarchical fold: tight inner loop per segment.
    fn hier_fold<B>(&self, init: B, f: impl FnMut(B, T) -> B) -> B;

    /// Sum of all elements (hierarchical).
    fn hier_sum(&self) -> T
    where
        T: std::ops::Add<Output = T>;

    /// Maximum absolute difference against a reference slice — the
    /// correctness metric used throughout the kernel tests.
    fn max_abs_diff(&self, reference: &[f64]) -> f64
    where
        T: Into<f64>;

    /// Element-wise iterator (the branchy kind; see [`FlatIter`]).
    fn flat_iter(&self) -> FlatIter<'_, T>;

    /// Chunk iterator pairing each segment with its global start index.
    fn chunks(&self) -> SegChunks<'_, T>;
}

impl<T: Pod> HierExt<T> for SegArray<T> {
    fn hier_fold<B>(&self, init: B, mut f: impl FnMut(B, T) -> B) -> B {
        let mut acc = init;
        for seg in self.segments() {
            for &x in seg {
                acc = f(acc, x);
            }
        }
        acc
    }

    fn hier_sum(&self) -> T
    where
        T: std::ops::Add<Output = T>,
    {
        self.hier_fold(T::default(), |a, x| a + x)
    }

    fn max_abs_diff(&self, reference: &[f64]) -> f64
    where
        T: Into<f64>,
    {
        assert_eq!(reference.len(), self.len(), "length mismatch");
        let mut worst = 0f64;
        let mut idx = 0;
        for seg in self.segments() {
            for &x in seg {
                let d = (x.into() - reference[idx]).abs();
                if d > worst {
                    worst = d;
                }
                idx += 1;
            }
        }
        worst
    }

    fn flat_iter(&self) -> FlatIter<'_, T> {
        FlatIter::new(self)
    }

    fn chunks(&self) -> SegChunks<'_, T> {
        SegChunks::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutSpec;

    fn numbered(len: usize, segs: usize) -> SegArray<f64> {
        let mut a = SegArray::<f64>::builder(len)
            .segments(segs)
            .spec(LayoutSpec::t2_rotating())
            .build();
        a.fill_with(|i| i as f64);
        a
    }

    #[test]
    fn flat_iter_visits_everything_in_order() {
        let a = numbered(101, 7);
        let v: Vec<f64> = a.flat_iter().collect();
        assert_eq!(v.len(), 101);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as f64);
        }
    }

    #[test]
    fn flat_iter_size_hint_is_exact() {
        let a = numbered(50, 3);
        let mut it = a.flat_iter();
        assert_eq!(it.size_hint(), (50, Some(50)));
        it.next();
        it.next();
        assert_eq!(it.size_hint(), (48, Some(48)));
    }

    #[test]
    fn seg_zip2_copies() {
        let src = numbered(100, 4);
        let mut dst = SegArray::<f64>::builder(100).segments(4).build();
        seg_zip2(&mut dst, &src, |d, s| d.copy_from_slice(s));
        assert_eq!(dst.to_vec(), src.to_vec());
    }

    #[test]
    fn seg_zip3_stream_triad() {
        let b = numbered(100, 4);
        let c = numbered(100, 4);
        let mut a = SegArray::<f64>::builder(100).segments(4).build();
        let scalar = 3.0;
        seg_zip3(&mut a, &b, &c, |a, b, c| {
            for i in 0..a.len() {
                a[i] = b[i] + scalar * c[i];
            }
        });
        for i in (0..100).step_by(13) {
            assert_eq!(a.get(i), i as f64 + 3.0 * i as f64);
        }
    }

    #[test]
    fn seg_zip4_vector_triad() {
        let b = numbered(64, 8);
        let c = numbered(64, 8);
        let d = numbered(64, 8);
        let mut a = SegArray::<f64>::builder(64).segments(8).build();
        seg_zip4(&mut a, &b, &c, &d, |a, b, c, d| {
            for i in 0..a.len() {
                a[i] = b[i] + c[i] * d[i];
            }
        });
        for i in 0..64 {
            let x = i as f64;
            assert_eq!(a.get(i), x + x * x);
        }
    }

    #[test]
    #[should_panic(expected = "identical segment structure")]
    fn zip_requires_same_structure() {
        let src = numbered(100, 4);
        let mut dst = SegArray::<f64>::builder(100).segments(5).build();
        seg_zip2(&mut dst, &src, |d, _s| d.fill(0.0));
    }

    #[test]
    fn hier_sum_matches_formula() {
        let a = numbered(1000, 9);
        assert_eq!(a.hier_sum(), (999.0 * 1000.0) / 2.0);
    }

    #[test]
    fn hier_fold_order_is_global_order() {
        let a = numbered(10, 3);
        let collected = a.hier_fold(Vec::new(), |mut v, x| {
            v.push(x);
            v
        });
        assert_eq!(collected, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn max_abs_diff_detects_mismatch() {
        let a = numbered(10, 2);
        let mut reference: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(a.max_abs_diff(&reference), 0.0);
        reference[7] += 0.5;
        assert_eq!(a.max_abs_diff(&reference), 0.5);
    }

    #[test]
    fn chunks_give_global_starts() {
        let a = numbered(100, 8);
        let mut expected_start = 0;
        for chunk in a.chunks() {
            assert_eq!(chunk.start, expected_start);
            assert_eq!(chunk.data[0], expected_start as f64);
            expected_start += chunk.data.len();
        }
        assert_eq!(expected_start, 100);
    }
}
