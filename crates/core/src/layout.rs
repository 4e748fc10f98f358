//! The four-parameter segment layout model of the paper's Fig. 3.
//!
//! A `seg_array` places `N` elements into consecutive *segments* inside one
//! allocation, under four controls:
//!
//! 1. **base alignment** — the allocation base is aligned to a boundary
//!    (`posix_memalign` style), e.g. a memory page;
//! 2. **padding** — every segment except the first is aligned to another
//!    boundary (`seg_align`) by inserting padding;
//! 3. **shift** — a constant amount of additional padding is inserted before
//!    each segment (cumulatively displacing later segments), so that the base
//!    addresses of *successive* segments are shifted against each other —
//!    "shift a segment that would be assigned to thread *t* by *t* · 128
//!    bytes";
//! 4. **offset** — finally the whole data block is shifted by some offset.
//!
//! With `seg_align = 512` and `shift = 128` (the paper's Jacobi optimum on
//! the UltraSPARC T2) segment `s` starts at byte residue `(s·128) mod 512`,
//! i.e. successive segments rotate through all four memory controllers.
//!
//! [`LayoutSpec::plan`] turns a spec plus a [`SegmentPlan`] into a concrete
//! [`SegLayout`] — pure address arithmetic, usable both to place real memory
//! ([`SegArray`](crate::seg_array::SegArray)) and to generate synthetic
//! address traces for the T2 simulator.

use crate::alloc::align_up;
use serde::Serialize;

/// How the element count is split into segments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum SegmentPlan {
    /// A single segment holding everything.
    Single,
    /// `t` segments with the paper's split: the first `N mod t` segments get
    /// `⌊N/t⌋ + 1` elements, the rest `⌊N/t⌋` (§2.2: "we choose the number of
    /// segments equal to the number of OpenMP threads and do manual
    /// scheduling with segment sizes ⌊N/t⌋+1 and ⌊N/t⌋, respectively").
    Count(usize),
    /// Explicit per-segment element counts (e.g. one segment per matrix row).
    Sizes(Vec<usize>),
}

impl SegmentPlan {
    /// Resolves the plan into per-segment element counts for `len` elements.
    ///
    /// # Panics
    /// Panics if a `Count(0)` is given, or if explicit `Sizes` do not sum to
    /// `len`.
    pub fn sizes(&self, len: usize) -> Vec<usize> {
        match self {
            SegmentPlan::Single => vec![len],
            SegmentPlan::Count(t) => {
                assert!(*t > 0, "segment count must be positive");
                let t = *t;
                let base = len / t;
                let rem = len % t;
                (0..t).map(|s| base + usize::from(s < rem)).collect()
            }
            SegmentPlan::Sizes(sizes) => {
                assert_eq!(
                    sizes.iter().sum::<usize>(),
                    len,
                    "explicit segment sizes must sum to the total length"
                );
                sizes.clone()
            }
        }
    }
}

/// The four layout parameters of Fig. 3. All byte-valued; `base_align` must
/// be a power of two, `seg_align` a power of two or 0/1 for "packed".
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LayoutSpec {
    /// Allocation base alignment in bytes (power of two). Default 64
    /// (one cache line).
    pub base_align: usize,
    /// Per-segment alignment boundary in bytes; segments after the first are
    /// padded up to a multiple of this. `0` or `1` disables padding
    /// (segments are packed back to back; `0` is normalized to the canonical
    /// `1` by the [`LayoutSpec::seg_align`] setter). Default 1.
    pub seg_align: usize,
    /// Constant extra padding inserted before each segment after the first;
    /// segment `s` is displaced by `s · shift` bytes relative to its padded
    /// position. Default 0.
    pub shift: usize,
    /// Whole-block offset in bytes, applied after everything else. The block
    /// begins `block_offset` bytes past the aligned base. Default 0.
    pub block_offset: usize,
    /// NUMA page placement for the block's pages. Byte positions are
    /// unaffected — this rides along so the tuner can co-optimize affinity
    /// with the four byte-level parameters. Default first-touch (the OS
    /// default, and a no-op on single-socket chips).
    pub placement: crate::mapping::PagePlacement,
}

impl LayoutSpec {
    /// A fresh spec: 64-byte base alignment, packed segments, no shift, no
    /// offset, first-touch placement.
    pub fn new() -> Self {
        LayoutSpec {
            base_align: 64,
            seg_align: 1,
            shift: 0,
            block_offset: 0,
            placement: crate::mapping::PagePlacement::FirstTouch,
        }
    }

    /// Sets the allocation base alignment (power of two). `0` is normalized
    /// to `1` (byte alignment, i.e. no constraint) so that sweeping a
    /// parameter space that includes "unaligned" needs no special casing.
    pub fn base_align(mut self, align: usize) -> Self {
        let align = align.max(1);
        assert!(align.is_power_of_two(), "base_align must be a power of two");
        self.base_align = align;
        self
    }

    /// Sets the per-segment alignment boundary (power of two, or 0/1 to
    /// pack). `0` is normalized to `1`: both mean packed segments, and
    /// storing the canonical form keeps specs that behave identically equal
    /// (important for the autotuner's content-addressed result cache).
    pub fn seg_align(mut self, align: usize) -> Self {
        let align = align.max(1);
        assert!(
            align.is_power_of_two(),
            "seg_align must be a power of two (or 0/1 for packed)"
        );
        self.seg_align = align;
        self
    }

    /// Sets the per-segment shift in bytes.
    pub fn shift(mut self, shift: usize) -> Self {
        self.shift = shift;
        self
    }

    /// Sets the whole-block offset in bytes.
    pub fn block_offset(mut self, offset: usize) -> Self {
        self.block_offset = offset;
        self
    }

    /// Sets the NUMA page placement.
    pub fn placement(mut self, placement: crate::mapping::PagePlacement) -> Self {
        self.placement = placement;
        self
    }

    /// The paper's Jacobi optimum for the T2: every segment on a 512-byte
    /// boundary, successive segments shifted by 128 bytes so they rotate
    /// through the four memory controllers (§2.3).
    pub fn t2_rotating() -> Self {
        LayoutSpec::new().base_align(8192).seg_align(512).shift(128)
    }

    /// Computes the concrete byte layout for `len` elements of `elem_size`
    /// bytes split according to `plan`.
    pub fn plan(&self, len: usize, elem_size: usize, plan: &SegmentPlan) -> SegLayout {
        assert!(elem_size > 0, "element size must be positive");
        let sizes = plan.sizes(len);
        let pad = self.seg_align.max(1);
        let mut starts = Vec::with_capacity(sizes.len());
        // First pass: padded positions in "pre-shift" space.
        let mut cursor = 0usize;
        for (s, &n) in sizes.iter().enumerate() {
            if s > 0 && pad > 1 {
                cursor = align_up(cursor, pad);
            }
            starts.push(cursor);
            cursor += n * elem_size;
        }
        let packed_end = cursor;
        // Second pass: cumulative shift + whole-block offset.
        for (s, start) in starts.iter_mut().enumerate() {
            *start += s * self.shift + self.block_offset;
        }
        let total_bytes = match sizes.last() {
            Some(&last_n) => starts.last().unwrap() + last_n * elem_size,
            None => self.block_offset,
        };
        debug_assert!(total_bytes >= packed_end);
        SegLayout {
            spec: self.clone(),
            elem_size,
            len,
            seg_sizes: sizes,
            seg_byte_starts: starts,
            total_bytes,
        }
    }
}

impl Default for LayoutSpec {
    fn default() -> Self {
        LayoutSpec::new()
    }
}

/// A concrete byte-level placement of segments inside one allocation:
/// the output of [`LayoutSpec::plan`].
///
/// All positions are relative to the (aligned) allocation base, so the same
/// `SegLayout` can describe a host allocation or a synthetic address space
/// fed to the simulator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SegLayout {
    /// The spec this layout was derived from.
    pub spec: LayoutSpec,
    /// Element size in bytes.
    pub elem_size: usize,
    /// Total element count across all segments.
    pub len: usize,
    /// Element count per segment.
    pub seg_sizes: Vec<usize>,
    /// Byte offset of each segment's first element, relative to the aligned
    /// allocation base.
    pub seg_byte_starts: Vec<usize>,
    /// Bytes needed for the whole block (including all padding/shift/offset).
    pub total_bytes: usize,
}

impl SegLayout {
    /// Number of segments.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.seg_sizes.len()
    }

    /// Byte offset of element `i` of segment `s` from the allocation base.
    #[inline]
    pub fn elem_byte_offset(&self, s: usize, i: usize) -> usize {
        debug_assert!(i < self.seg_sizes[s]);
        self.seg_byte_starts[s] + i * self.elem_size
    }

    /// Byte offset of a *global* element index (scanning segments in order).
    pub fn global_elem_byte_offset(&self, mut idx: usize) -> usize {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        for (s, &n) in self.seg_sizes.iter().enumerate() {
            if idx < n {
                return self.elem_byte_offset(s, idx);
            }
            idx -= n;
        }
        unreachable!("index checked against len");
    }

    /// (segment, local) coordinates of a global element index.
    pub fn locate(&self, mut idx: usize) -> (usize, usize) {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        for (s, &n) in self.seg_sizes.iter().enumerate() {
            if idx < n {
                return (s, idx);
            }
            idx -= n;
        }
        unreachable!("index checked against len");
    }

    /// Checks the fundamental soundness invariants: segments are disjoint,
    /// in increasing order, inside the allocation, and cover `len` elements.
    /// Used by tests and debug assertions.
    pub fn validate(&self) {
        assert_eq!(self.seg_sizes.len(), self.seg_byte_starts.len());
        assert_eq!(self.seg_sizes.iter().sum::<usize>(), self.len);
        let mut prev_end = 0usize;
        for (s, (&start, &n)) in self
            .seg_byte_starts
            .iter()
            .zip(self.seg_sizes.iter())
            .enumerate()
        {
            assert!(
                start >= prev_end,
                "segment {s} overlaps its predecessor: start {start} < prev end {prev_end}"
            );
            let pad = self.spec.seg_align.max(1);
            if pad > 1 {
                let unshifted = start - s * self.spec.shift - self.spec.block_offset;
                if s > 0 {
                    assert_eq!(
                        unshifted % pad,
                        0,
                        "segment {s} not on its padding boundary before shift"
                    );
                }
            }
            prev_end = start + n * self.elem_size;
        }
        assert!(prev_end <= self.total_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_plan_matches_paper_split() {
        // N = 100, t = 8: ⌊N/t⌋ = 12, rem = 4 → four 13s then four 12s.
        let sizes = SegmentPlan::Count(8).sizes(100);
        assert_eq!(sizes, vec![13, 13, 13, 13, 12, 12, 12, 12]);
        assert_eq!(sizes.iter().sum::<usize>(), 100);
    }

    #[test]
    fn count_plan_exact_division() {
        let sizes = SegmentPlan::Count(4).sizes(64);
        assert_eq!(sizes, vec![16; 4]);
    }

    #[test]
    fn single_plan() {
        assert_eq!(SegmentPlan::Single.sizes(42), vec![42]);
    }

    #[test]
    #[should_panic(expected = "sum to the total length")]
    fn sizes_plan_must_sum() {
        SegmentPlan::Sizes(vec![1, 2, 3]).sizes(7);
    }

    #[test]
    fn packed_layout_is_contiguous() {
        let spec = LayoutSpec::new();
        let l = spec.plan(100, 8, &SegmentPlan::Count(4));
        l.validate();
        assert_eq!(l.seg_byte_starts, vec![0, 200, 400, 600]);
        assert_eq!(l.total_bytes, 800);
    }

    #[test]
    fn seg_align_pads_each_segment() {
        let spec = LayoutSpec::new().seg_align(512);
        // 4 segments of 10 doubles = 80 bytes each; each next segment starts
        // on the next 512-byte boundary.
        let l = spec.plan(40, 8, &SegmentPlan::Count(4));
        l.validate();
        assert_eq!(l.seg_byte_starts, vec![0, 512, 1024, 1536]);
    }

    #[test]
    fn shift_rotates_controllers() {
        // The paper's Jacobi optimum: seg_align 512, shift 128 → residues
        // 0, 128, 256, 384, 0, ... mod 512 → MCs 0,1,2,3,0,...
        let spec = LayoutSpec::t2_rotating();
        let l = spec.plan(8 * 64, 8, &SegmentPlan::Count(8));
        l.validate();
        let map = crate::mapping::AddressMap::ultrasparc_t2();
        let mcs: Vec<u32> = l
            .seg_byte_starts
            .iter()
            .map(|&b| map.controller(b as u64))
            .collect();
        assert_eq!(mcs, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn block_offset_displaces_everything() {
        let spec = LayoutSpec::new().seg_align(512).block_offset(256);
        let l = spec.plan(40, 8, &SegmentPlan::Count(4));
        l.validate();
        assert_eq!(
            l.seg_byte_starts,
            vec![256, 512 + 256, 1024 + 256, 1536 + 256]
        );
    }

    #[test]
    fn global_indexing_matches_segment_indexing() {
        let spec = LayoutSpec::new().seg_align(512).shift(128);
        let l = spec.plan(100, 8, &SegmentPlan::Count(3));
        l.validate();
        let mut idx = 0;
        for s in 0..l.num_segments() {
            for i in 0..l.seg_sizes[s] {
                assert_eq!(l.global_elem_byte_offset(idx), l.elem_byte_offset(s, i));
                assert_eq!(l.locate(idx), (s, i));
                idx += 1;
            }
        }
        assert_eq!(idx, 100);
    }

    #[test]
    fn empty_plan() {
        let l = LayoutSpec::new().plan(0, 8, &SegmentPlan::Single);
        l.validate();
        assert_eq!(l.seg_sizes, vec![0]);
        assert_eq!(l.total_bytes, 0);
    }

    #[test]
    fn zero_base_align_normalizes_to_byte_alignment() {
        // `base_align(0)` used to panic (`0` is not a power of two); it now
        // means "no alignment constraint", canonicalized to 1.
        let spec = LayoutSpec::new().base_align(0);
        assert_eq!(spec.base_align, 1);
        assert_eq!(spec, LayoutSpec::new().base_align(1));
        spec.plan(100, 8, &SegmentPlan::Count(4)).validate();
    }

    #[test]
    fn zero_seg_align_normalizes_to_packed() {
        // 0 and 1 both mean packed; the setter stores the canonical 1 so
        // that behaviorally identical specs compare (and hash) equal.
        let spec = LayoutSpec::new().seg_align(0);
        assert_eq!(spec.seg_align, 1);
        assert_eq!(spec, LayoutSpec::new().seg_align(1));
        let l = spec.plan(100, 8, &SegmentPlan::Count(4));
        l.validate();
        assert_eq!(l.seg_byte_starts, vec![0, 200, 400, 600]);
    }

    #[test]
    fn proptest_regression_empty_block_with_offset() {
        // Recorded proptest shrink case (see
        // tests/proptest_core.proptest-regressions): seg_align = 0,
        // block_offset = 1, len = 0, one segment.
        let spec = LayoutSpec::new().seg_align(0).block_offset(1);
        let l = spec.plan(0, 8, &SegmentPlan::Count(1));
        l.validate();
        assert_eq!(l.seg_byte_starts, vec![1]);
        assert_eq!(l.total_bytes, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_base_align_still_rejected() {
        let _ = LayoutSpec::new().base_align(48);
    }

    #[test]
    fn shift_never_overlaps() {
        // shift displaces later segments further, so disjointness holds for
        // any parameters; validate() asserts it.
        for shift in [0, 8, 64, 128, 513] {
            for seg_align in [0, 64, 512] {
                let spec = LayoutSpec::new().seg_align(seg_align).shift(shift);
                spec.plan(1000, 8, &SegmentPlan::Count(7)).validate();
            }
        }
    }
}
