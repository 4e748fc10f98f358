//! The tuning parameter space: a grid over the four layout parameters of
//! Fig. 3 (`base_align`, `seg_align`, `shift`, `block_offset`) plus, on
//! multi-socket chips, the NUMA page-placement axis.
//!
//! The space is a cartesian product of per-dimension value lists, so every
//! candidate has grid coordinates `[i0, i1, i2, i3, i4]` — which is what
//! the tuner's descents walk, and what [`ParamSpace::indices`] enumerates
//! for the strategies that cover the whole grid.

use t2opt_core::chip::ChipSpec;
use t2opt_core::layout::LayoutSpec;
use t2opt_core::mapping::PagePlacement;

/// Number of tuned dimensions (the four Fig. 3 parameters plus the NUMA
/// page-placement axis).
pub const N_DIMS: usize = 5;

/// A grid over the four layout parameters. Every dimension must be
/// non-empty; candidates are enumerated in row-major order
/// (`base_align` outermost, `block_offset` innermost).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpace {
    /// Allocation base alignments to try (power of two; 0 = unaligned).
    pub base_aligns: Vec<usize>,
    /// Segment alignments to try (power of two; 0/1 = packed).
    pub seg_aligns: Vec<usize>,
    /// Per-segment shifts to try (bytes).
    pub shifts: Vec<usize>,
    /// Per-array block offsets to try (bytes): array `j` of the workload is
    /// displaced by `j · block_offset`.
    pub block_offsets: Vec<usize>,
    /// NUMA page placements to try. `[PagePlacement::FirstTouch]` — the
    /// single-socket identity — everywhere except grids built for a
    /// multi-socket chip, so pre-NUMA spaces keep their exact shape.
    pub placements: Vec<PagePlacement>,
}

impl ParamSpace {
    /// The degenerate space holding only the default [`LayoutSpec`].
    pub fn single() -> Self {
        ParamSpace {
            base_aligns: vec![64],
            seg_aligns: vec![0],
            shifts: vec![0],
            block_offsets: vec![0],
            placements: vec![PagePlacement::FirstTouch],
        }
    }

    /// The Fig. 4 offset sweep: page-aligned arrays, block offset swept in
    /// `step`-byte increments over `[0, limit)`.
    pub fn offset_sweep(step: usize, limit: usize) -> Self {
        assert!(step > 0 && limit > 0, "need a positive step and limit");
        ParamSpace {
            base_aligns: vec![8192],
            seg_aligns: vec![0],
            shifts: vec![0],
            block_offsets: (0..limit).step_by(step).collect(),
            placements: vec![PagePlacement::FirstTouch],
        }
    }

    /// A practical default grid derived from a chip topology: page or
    /// cache-line base alignment, packed or period-padded segments, the
    /// advisor's shift candidates, and block offsets spanning one
    /// interleave period in steps of half a controller stride (never finer
    /// than a cache line). For the T2 this reproduces the historical
    /// hardcoded grid exactly — see [`ParamSpace::t2_default`].
    pub fn for_chip(spec: &ChipSpec) -> Self {
        let period = spec.interleave_period();
        let line = spec.line_size();
        let n_mc = spec.num_controllers();
        let step = (period / (2 * n_mc)).max(line);
        ParamSpace {
            base_aligns: vec![line, 8192usize.max(period)],
            seg_aligns: vec![0, period],
            shifts: vec![0, period / n_mc],
            block_offsets: (0..period).step_by(step).collect(),
            // Multi-socket chips get the affinity axis: the tuner
            // co-optimizes placement × byte layout.
            placements: if spec.sockets.is_numa() {
                PagePlacement::ALL.to_vec()
            } else {
                vec![PagePlacement::FirstTouch]
            },
        }
    }

    /// The Fig. 4 offset sweep for an arbitrary chip: the block offset is
    /// swept over one interleave period in controller-stride steps (so the
    /// sweep always contains the advisor's suggested offset class and the
    /// fully aliased zero offset).
    pub fn offset_sweep_for(spec: &ChipSpec) -> Self {
        let period = spec.interleave_period();
        ParamSpace::offset_sweep(period / spec.num_controllers(), period)
            .with_base_align(8192usize.max(period))
    }

    /// A practical default grid for the T2: page or cache-line base
    /// alignment, packed or super-line-padded segments, the advisor's shift
    /// candidates, and block offsets over one super-line in cache-line
    /// steps.
    pub fn t2_default() -> Self {
        ParamSpace::for_chip(&ChipSpec::ultrasparc_t2())
    }

    /// Replaces the base-alignment dimension with a single value.
    fn with_base_align(mut self, align: usize) -> Self {
        self.base_aligns = vec![align];
        self
    }

    /// Replaces the placement dimension.
    pub fn with_placements(mut self, placements: Vec<PagePlacement>) -> Self {
        assert!(!placements.is_empty(), "need at least one placement");
        self.placements = placements;
        self
    }

    /// The Fig. 7 LBM padding sweep: page-aligned grids, segments packed
    /// or padded out to the 512 B super-line, inter-segment shifts up to
    /// one controller step, and the two toggle grids packed or displaced
    /// by one controller line. Small (12 candidates) because one LBM trial
    /// simulates 38 streams per row — yet it spans the paper's comparison:
    /// packed IJKv aliases, padded + shifted IJKv recovers, and IvJK is
    /// near-optimal already packed.
    pub fn lbm_padding_sweep() -> Self {
        ParamSpace {
            base_aligns: vec![8192],
            seg_aligns: vec![1, 512],
            shifts: vec![0, 64, 128],
            block_offsets: vec![0, 128],
            placements: vec![PagePlacement::FirstTouch],
        }
    }

    /// Per-dimension sizes `[|base_aligns|, |seg_aligns|, |shifts|,
    /// |block_offsets|, |placements|]`.
    pub fn dims(&self) -> [usize; N_DIMS] {
        [
            self.base_aligns.len(),
            self.seg_aligns.len(),
            self.shifts.len(),
            self.block_offsets.len(),
            self.placements.len(),
        ]
    }

    /// Total number of candidates.
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Whether the space is empty (some dimension has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The candidate at grid coordinates `idx`.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn spec_at(&self, idx: [usize; N_DIMS]) -> LayoutSpec {
        LayoutSpec::new()
            .base_align(self.base_aligns[idx[0]])
            .seg_align(self.seg_aligns[idx[1]])
            .shift(self.shifts[idx[2]])
            .block_offset(self.block_offsets[idx[3]])
            .placement(self.placements[idx[4]])
    }

    /// Grid coordinates of every candidate in row-major order (the last
    /// dimension varies fastest).
    pub fn indices(&self) -> impl Iterator<Item = [usize; N_DIMS]> {
        let dims = self.dims();
        (0..self.len()).map(move |mut flat| {
            let mut idx = [0; N_DIMS];
            for d in (0..N_DIMS).rev() {
                idx[d] = flat % dims[d];
                flat /= dims[d];
            }
            idx
        })
    }

    /// All candidates in row-major order.
    pub fn candidates(&self) -> Vec<LayoutSpec> {
        self.indices().map(|idx| self.spec_at(idx)).collect()
    }

    /// Grid coordinates of the in-space candidate closest (per dimension,
    /// by absolute difference; ties to the smaller value) to `target` —
    /// used to project the advisor's closed-form suggestion into the grid.
    pub fn nearest_index(&self, target: &LayoutSpec) -> [usize; N_DIMS] {
        // Compare in the setters' canonical form (0 → 1 for alignments).
        let nearest = |values: &[usize], want: usize, canon: bool| -> usize {
            values
                .iter()
                .enumerate()
                .min_by_key(|(_, &v)| {
                    let v = if canon { v.max(1) } else { v };
                    v.abs_diff(want)
                })
                .map(|(i, _)| i)
                .expect("dimension must be non-empty")
        };
        [
            nearest(&self.base_aligns, target.base_align, true),
            nearest(&self.seg_aligns, target.seg_align, true),
            nearest(&self.shifts, target.shift, false),
            nearest(&self.block_offsets, target.block_offset, false),
            // Placement is categorical: exact match, else the first entry.
            self.placements
                .iter()
                .position(|&p| p == target.placement)
                .unwrap_or(0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_row_major_and_complete() {
        let space = ParamSpace {
            base_aligns: vec![64, 8192],
            seg_aligns: vec![0, 512],
            shifts: vec![0],
            block_offsets: vec![0, 128],
            placements: vec![PagePlacement::FirstTouch],
        };
        let all = space.candidates();
        assert_eq!(all.len(), space.len());
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], space.spec_at([0, 0, 0, 0, 0]));
        assert_eq!(all[1], space.spec_at([0, 0, 0, 1, 0]));
        assert_eq!(all[7], space.spec_at([1, 1, 0, 1, 0]));
        let idx: Vec<[usize; N_DIMS]> = space.indices().collect();
        assert_eq!(idx[2], [0, 1, 0, 0, 0]);
        assert_eq!(idx[4], [1, 0, 0, 0, 0]);
        let mut sorted = idx.clone();
        sorted.sort();
        assert_eq!(idx, sorted, "row-major is lexicographic");
    }

    #[test]
    fn offset_sweep_matches_fig4_grid() {
        let s = ParamSpace::offset_sweep(64, 512);
        assert_eq!(s.block_offsets, vec![0, 64, 128, 192, 256, 320, 384, 448]);
        assert_eq!(s.len(), 8);
        assert!(s.candidates().iter().all(|c| c.base_align == 8192));
    }

    #[test]
    fn t2_grid_derivation_reproduces_the_historical_literals() {
        // `t2_default` used to hardcode this grid; it is now derived from
        // the chip spec and must stay pinned to the same values.
        let s = ParamSpace::t2_default();
        assert_eq!(s.base_aligns, vec![64, 8192]);
        assert_eq!(s.seg_aligns, vec![0, 512]);
        assert_eq!(s.shifts, vec![0, 128]);
        assert_eq!(s.block_offsets, (0..512).step_by(64).collect::<Vec<_>>());
        assert_eq!(
            ParamSpace::offset_sweep_for(&ChipSpec::ultrasparc_t2()),
            ParamSpace::offset_sweep(128, 512)
        );
    }

    #[test]
    fn chip_grids_scale_with_the_interleave_period() {
        let wide = ParamSpace::for_chip(&ChipSpec::wide_8mc());
        assert_eq!(wide.seg_aligns, vec![0, 1024]);
        assert_eq!(wide.shifts, vec![0, 128]);
        assert_eq!(wide.block_offsets.len(), 16); // 1024 / 64
        let budget = ParamSpace::for_chip(&ChipSpec::budget_2mc());
        assert_eq!(budget.seg_aligns, vec![0, 256]);
        assert_eq!(budget.shifts, vec![0, 128]);
        assert_eq!(budget.block_offsets, vec![0, 64, 128, 192]);
        // Page interleave: the grid must step whole pages, and the sweep
        // must still include the advisor's suggested class.
        let paged = ParamSpace::for_chip(&ChipSpec::t2_page_interleave());
        assert_eq!(paged.seg_aligns, vec![0, 16384]);
        assert_eq!(paged.shifts, vec![0, 4096]);
        assert!(paged.block_offsets.contains(&4096));
        let sweep = ParamSpace::offset_sweep_for(&ChipSpec::t2_page_interleave());
        assert_eq!(sweep.block_offsets, vec![0, 4096, 8192, 12288]);
        assert!(sweep.candidates().iter().all(|c| c.base_align == 16384));
    }

    #[test]
    fn numa_chips_get_the_placement_axis_and_single_socket_chips_do_not() {
        let t2 = ParamSpace::t2_default();
        assert_eq!(t2.placements, vec![PagePlacement::FirstTouch]);
        let numa = ParamSpace::for_chip(&ChipSpec::preset("2s-numa").unwrap());
        assert_eq!(numa.placements, PagePlacement::ALL.to_vec());
        assert_eq!(numa.len(), numa.candidates().len());
        // The categorical dimension projects exactly.
        let idx = numa.nearest_index(&LayoutSpec::new().placement(PagePlacement::Remote));
        assert_eq!(numa.spec_at(idx).placement, PagePlacement::Remote);
    }

    #[test]
    fn nearest_index_projects_advisor_seed() {
        let space = ParamSpace::t2_default();
        let seed = t2opt_core::advisor::LayoutAdvisor::t2().suggest_layout();
        let idx = space.nearest_index(&seed);
        let projected = space.spec_at(idx);
        assert_eq!(projected.base_align, 8192);
        assert_eq!(projected.seg_align, 512);
        assert_eq!(projected.shift, 128);
        assert_eq!(projected.block_offset, 128);
    }

    #[test]
    fn nearest_index_canonicalizes_zero_alignment() {
        let space = ParamSpace {
            base_aligns: vec![0, 8192],
            seg_aligns: vec![0],
            shifts: vec![0],
            block_offsets: vec![0],
            placements: vec![PagePlacement::FirstTouch],
        };
        // A canonical spec with base_align 1 must match the grid's 0 entry.
        let idx = space.nearest_index(&LayoutSpec::new().base_align(0));
        assert_eq!(idx[0], 0);
    }
}
