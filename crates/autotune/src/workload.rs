//! Workload descriptions the tuner can measure.
//!
//! A [`Workload`] fixes everything about a trial *except* the layout: which
//! streams the kernel touches, the problem size, the thread count, and the
//! measurement protocol (warm-up sweep + measured repetitions). Given a
//! candidate [`LayoutSpec`] it lays out every array — array `j` with block
//! offset `j · spec.block_offset`, split into per-thread segments,
//! reproducing the paper's Fig. 4 setup — and walks each sweep's lockstep
//! units once. That one unit list feeds the per-thread simulator programs
//! ([`Workload::build_programs`]), the advisor cross-check and the model's
//! [`KernelShape`] ([`Workload::stream_units`]).

use serde::Serialize;
use t2opt_core::advisor::{LayoutAdvisor, StreamDesc, StreamKind};
use t2opt_core::layout::{LayoutSpec, SegLayout, SegmentPlan};
use t2opt_kernels::common::VirtualAlloc;
use t2opt_kernels::lbm::{LbmLayout, C, FLOPS_PER_SITE, Q};
use t2opt_model::{KernelShape, StreamUnit};
use t2opt_parallel::{chunk_assignment, Schedule};
use t2opt_sim::trace::{chain_with_barriers, Dir, Program, StreamLoop, StreamSpec};
use t2opt_sim::ChipConfig;

/// A tunable workload: a stream mix or a named kernel loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Workload {
    /// A generic lockstep loop touching `reads` load streams and `writes`
    /// store streams (loads first), `n` total elements split over
    /// `threads` segments.
    StreamMix {
        /// Number of load streams.
        reads: u32,
        /// Number of store streams.
        writes: u32,
        /// Total elements per array.
        n: usize,
        /// Simulated threads (= segments per array).
        threads: usize,
        /// Measured sweeps.
        ntimes: u32,
        /// Whether to run (and exclude) a cache-warming sweep first.
        warmup: bool,
    },
    /// The STREAM vector triad `A(i) = B(i) + s·C(i)` of Fig. 2/Fig. 4:
    /// two load streams, one store stream, two flops per element.
    Triad {
        /// Total elements per array.
        n: usize,
        /// Simulated threads (= segments per array).
        threads: usize,
        /// Measured sweeps.
        ntimes: u32,
        /// Whether to run (and exclude) a cache-warming sweep first.
        warmup: bool,
    },
    /// The 2-D five-point Jacobi sweep of Fig. 6 as a tunable workload:
    /// two `dim × dim` toggle grids laid out one-segment-per-row under the
    /// candidate spec (row alignment/shift are exactly what the tuner is
    /// searching). Interior row `i` is owned by thread `(i − 1) mod
    /// threads` (the paper's `schedule(static,1)`); updating it streams
    /// three `src` rows and stores one `dst` row, four flops per site.
    Jacobi {
        /// Grid side (each grid is `dim × dim` elements; `dim ≥ 3`).
        dim: usize,
        /// Simulated threads (interior rows round-robined over them).
        threads: usize,
        /// Measured sweeps.
        ntimes: u32,
        /// Whether to run (and exclude) a cache-warming sweep first.
        warmup: bool,
    },
    /// The D3Q19 lattice-Boltzmann propagation step of Fig. 7 as a tunable
    /// workload: two toggle distribution grids of `(N+2)³ × 19` elements,
    /// segmented per data layout — IJKv into its 19 velocity blocks, IvJK
    /// into its `(N+2)²` (y, z) pencils (see
    /// [`LbmLayout::segment_sizes`]) — so the candidate's
    /// `(seg_align, shift, block_offset)` is exactly the inter-block
    /// padding the paper tunes by hand. Each measured sweep streams the 19
    /// loads + 19 pushed stores of every sampled row (all z-planes,
    /// `y_rows` sampled rows per plane), z-planes statically chunked over
    /// threads.
    ///
    /// [`crate::cache`] and store keys are serialized workloads. The JSON
    /// serializer writes variant names, not indices, so the order of the
    /// variants does not matter; what keeps old keys stable is each
    /// variant's name and its fields' names and order.
    Lbm {
        /// Cubic domain side N without halo (`n ≥ 2`; grids are `(N+2)³`).
        n: usize,
        /// Distribution-array data layout under comparison.
        layout: LbmLayout,
        /// Simulated threads (z-planes statically chunked over them).
        threads: usize,
        /// Sampled y-rows per z-plane (clamped to `n`; the steady state is
        /// row-homogeneous, so sampling preserves the aliasing physics at a
        /// fraction of the cost).
        y_rows: usize,
        /// Measured sweeps (timesteps).
        ntimes: u32,
        /// Whether to run (and exclude) a cache-warming sweep first.
        warmup: bool,
    },
}

/// One lockstep unit of a sweep: the thread that runs it, its concurrent
/// streams at absolute addresses, and the elements each stream walks.
struct Unit {
    thread: usize,
    streams: Vec<StreamSpec>,
    elems: usize,
}

impl Workload {
    /// The Fig. 4 triad at full measurement fidelity: arrays far larger
    /// than the L2 so the warm-up sweep leaves only capacity misses, one
    /// measured sweep.
    pub fn triad(n: usize, threads: usize) -> Self {
        Workload::Triad {
            n,
            threads,
            ntimes: 1,
            warmup: true,
        }
    }

    /// A fast cold-cache triad for smoke tests and CI: no warm-up sweep,
    /// so small arrays still show the controller-aliasing effect (every
    /// access is a miss, exactly the regime of the paper's measurement).
    pub fn triad_smoke(n: usize, threads: usize) -> Self {
        Workload::Triad {
            n,
            threads,
            ntimes: 1,
            warmup: false,
        }
    }

    /// The Fig. 6 Jacobi sweep at full measurement fidelity: one warm-up
    /// sweep, then one measured sweep.
    pub fn jacobi(dim: usize, threads: usize) -> Self {
        Workload::Jacobi {
            dim,
            threads,
            ntimes: 1,
            warmup: true,
        }
    }

    /// A fast cold-cache Jacobi for smoke tests and CI (no warm-up sweep).
    pub fn jacobi_smoke(dim: usize, threads: usize) -> Self {
        Workload::Jacobi {
            dim,
            threads,
            ntimes: 1,
            warmup: false,
        }
    }

    /// The Fig. 7 LBM propagation step at measurement fidelity: 16 sampled
    /// y-rows per plane, one warm-up sweep, one measured sweep.
    pub fn lbm(n: usize, layout: LbmLayout, threads: usize) -> Self {
        Workload::Lbm {
            n,
            layout,
            threads,
            y_rows: 16,
            ntimes: 1,
            warmup: true,
        }
    }

    /// A fast cold-cache LBM for smoke tests and CI: two sampled rows per
    /// plane, no warm-up sweep (every access misses — the streaming regime
    /// where the controller-aliasing effect lives).
    pub fn lbm_smoke(n: usize, layout: LbmLayout, threads: usize) -> Self {
        Workload::Lbm {
            n,
            layout,
            threads,
            y_rows: 2,
            ntimes: 1,
            warmup: false,
        }
    }

    /// Short workload-family name used to group result-cache entries for
    /// cross-kernel transfer (see [`crate::cache::ResultCache::
    /// transfer_seed`]): workloads sharing a tag differ only in size or
    /// protocol, so their cached layout rankings are *not* treated as
    /// foreign knowledge.
    pub fn tag(&self) -> String {
        match self {
            Workload::StreamMix { .. } => "stream_mix".into(),
            Workload::Triad { .. } => "triad".into(),
            Workload::Jacobi { .. } => "jacobi".into(),
            Workload::Lbm { layout, .. } => format!("lbm_{}", layout.label()),
        }
    }

    /// Stream kinds of the workload's arrays, loads first. For
    /// [`Workload::Jacobi`] this is the per-row stream set (three `src`
    /// rows, one `dst` row), not the array count — Jacobi has two arrays.
    pub fn kinds(&self) -> Vec<StreamKind> {
        match self {
            Workload::StreamMix { reads, writes, .. } => {
                let mut v = vec![StreamKind::Read; *reads as usize];
                v.resize((*reads + *writes) as usize, StreamKind::Write);
                v
            }
            Workload::Triad { .. } => {
                vec![StreamKind::Read, StreamKind::Read, StreamKind::Write]
            }
            Workload::Jacobi { .. } => {
                vec![
                    StreamKind::Read,
                    StreamKind::Read,
                    StreamKind::Read,
                    StreamKind::Write,
                ]
            }
            Workload::Lbm { .. } => {
                let mut v = vec![StreamKind::Read; Q];
                v.resize(2 * Q, StreamKind::Write);
                v
            }
        }
    }

    /// Total elements per array (per grid for [`Workload::Jacobi`] and
    /// [`Workload::Lbm`]).
    pub fn n(&self) -> usize {
        match self {
            Workload::StreamMix { n, .. } | Workload::Triad { n, .. } => *n,
            Workload::Jacobi { dim, .. } => dim * dim,
            Workload::Lbm { n, layout, .. } => layout.volume(n + 2),
        }
    }

    /// Simulated thread count.
    pub fn threads(&self) -> usize {
        match self {
            Workload::StreamMix { threads, .. }
            | Workload::Triad { threads, .. }
            | Workload::Jacobi { threads, .. }
            | Workload::Lbm { threads, .. } => *threads,
        }
    }

    /// Measured sweeps.
    pub fn ntimes(&self) -> u32 {
        match self {
            Workload::StreamMix { ntimes, .. }
            | Workload::Triad { ntimes, .. }
            | Workload::Jacobi { ntimes, .. }
            | Workload::Lbm { ntimes, .. } => *ntimes,
        }
    }

    /// Whether trials run a warm-up sweep (excluded from measurement).
    pub fn warmup(&self) -> bool {
        match self {
            Workload::StreamMix { warmup, .. }
            | Workload::Triad { warmup, .. }
            | Workload::Jacobi { warmup, .. }
            | Workload::Lbm { warmup, .. } => *warmup,
        }
    }

    /// Floating-point work per element (charged to the core FPUs).
    pub fn flops_per_elem(&self) -> f64 {
        match self {
            Workload::StreamMix { .. } => 0.0,
            Workload::Triad { .. } => 2.0,
            Workload::Jacobi { .. } => 4.0,
            Workload::Lbm { .. } => FLOPS_PER_SITE,
        }
    }

    /// Effective sampled y-rows per z-plane for [`Workload::Lbm`].
    fn lbm_y_eff(n: usize, y_rows: usize) -> usize {
        y_rows.min(n).max(1)
    }

    /// Bytes the kernel is credited with per full run, for
    /// [`t2opt_sim::SimStats::reported_bandwidth_gbs`]. Stream workloads
    /// use the STREAM convention (each array touched once per element per
    /// sweep); Jacobi uses its usual credit of 16 B per streamed site (one
    /// fresh `src` read plus one `dst` write — row reuse and RFO excluded).
    pub fn reported_bytes(&self) -> u64 {
        match self {
            Workload::Jacobi { dim, ntimes, .. } => ((dim - 2) * dim * 16) as u64 * *ntimes as u64,
            Workload::Lbm {
                n, y_rows, ntimes, ..
            } => {
                // 19 loads + 19 stores of 8 B per streamed site, over the
                // sampled sites (x extent × sampled y rows × all z planes).
                let sites = (n * Self::lbm_y_eff(*n, *y_rows) * n) as u64;
                sites * (2 * Q as u64 * 8) * *ntimes as u64
            }
            _ => (self.n() * 8 * self.kinds().len()) as u64 * self.ntimes() as u64,
        }
    }

    /// Checks the workload fits the chip (thread capacity, non-empty).
    ///
    /// # Panics
    /// Panics with a descriptive message if not.
    pub fn validate(&self, chip: &ChipConfig) {
        chip.validate()
            .unwrap_or_else(|e| panic!("workload targets an inconsistent chip: {e}"));
        let capacity = chip.core.n_cores * chip.core.threads_per_core;
        assert!(self.n() > 0, "workload needs at least one element");
        assert!(self.threads() > 0, "workload needs at least one thread");
        assert!(self.ntimes() > 0, "workload needs at least one sweep");
        assert!(
            !self.kinds().is_empty(),
            "workload needs at least one stream"
        );
        assert!(
            self.threads() <= capacity,
            "{} threads exceed the chip's {} hardware threads",
            self.threads(),
            capacity
        );
        if let Workload::Jacobi { dim, .. } = self {
            assert!(*dim >= 3, "Jacobi needs at least one interior row");
        }
        if let Workload::Lbm { n, y_rows, .. } = self {
            assert!(*n >= 2, "LBM needs an interior of at least 2^3 sites");
            assert!(*y_rows >= 1, "LBM needs at least one sampled y-row");
        }
    }

    /// Lays out every array under `spec` in a fresh virtual address space:
    /// array `j` uses `spec` with block offset `j · spec.block_offset` and
    /// is split into per-thread segments — except [`Workload::Jacobi`],
    /// whose two grids are split one segment *per row*, and
    /// [`Workload::Lbm`], whose two grids are split per
    /// [`LbmLayout::segment_sizes`] (the layout under tune is the
    /// inter-block padding). Returns each array's (absolute base address,
    /// segment layout).
    pub fn layout_arrays(&self, spec: &LayoutSpec) -> Vec<(u64, SegLayout)> {
        let mut va = VirtualAlloc::new();
        let (n_arrays, plan) = match self {
            Workload::Jacobi { dim, .. } => (2, SegmentPlan::Sizes(vec![*dim; *dim])),
            Workload::Lbm { n, layout, .. } => (2, SegmentPlan::Sizes(layout.segment_sizes(n + 2))),
            _ => (self.kinds().len(), SegmentPlan::Count(self.threads())),
        };
        (0..n_arrays)
            .map(|j| {
                let arr_spec = spec.clone().block_offset(j * spec.block_offset);
                let layout = arr_spec.plan(self.n(), 8, &plan);
                let base = va.alloc(
                    layout.total_bytes.max(1) as u64,
                    spec.base_align.max(1) as u64,
                    0,
                );
                (base, layout)
            })
            .collect()
    }

    /// Sweep `sweep`'s lockstep units under `spec`, in the order
    /// [`Workload::stream_units`] returns them: one per thread segment for
    /// the stream mixes and the triad; one per interior Jacobi row `i`,
    /// run by thread `(i − 1) mod threads` (the paper's `static,1`); one
    /// per sampled LBM row, z-planes statically chunked over threads (the
    /// paper's z-parallelization). Odd sweeps read Jacobi's and LBM's
    /// second toggle grid. An LBM row loads its 19 distributions and pushes
    /// 19 stores into the neighbor rows of the other grid, addressed through
    /// the candidate's segmented layout, so padding and shift between
    /// velocity blocks (IJKv) or (y, z) pencils (IvJK) move the stream
    /// bases exactly as the Fig. 7 hand-tuning does.
    fn units(&self, spec: &LayoutSpec, sweep: usize) -> Vec<Unit> {
        let arrays = self.layout_arrays(spec);
        let (src, dst) = (sweep % 2, 1 - sweep % 2);
        match *self {
            Workload::Jacobi { dim, threads, .. } => {
                let row = |g: usize, i: usize| arrays[g].0 + arrays[g].1.seg_byte_starts[i] as u64;
                (1..dim - 1)
                    .map(|i| Unit {
                        thread: (i - 1) % threads,
                        streams: vec![
                            StreamSpec::load(row(src, i - 1)),
                            StreamSpec::load(row(src, i)),
                            StreamSpec::load(row(src, i + 1)),
                            StreamSpec::store(row(dst, i)),
                        ],
                        elems: dim,
                    })
                    .collect()
            }
            Workload::Lbm {
                n,
                layout,
                threads,
                y_rows,
                ..
            } => {
                let addr = |g: usize, x: usize, y: usize, z: usize, v: usize| {
                    let (seg, local) = layout.seg_coords(n + 2, x, y, z, v);
                    arrays[g].0 + arrays[g].1.elem_byte_offset(seg, local) as u64
                };
                let mut units = Vec::new();
                let owned = chunk_assignment(Schedule::Static, n, threads);
                for (thread, chunks) in owned.iter().enumerate() {
                    for z in chunks.iter().flat_map(|ch| ch.range()).map(|zi| zi + 1) {
                        for y in 1..=Self::lbm_y_eff(n, y_rows) {
                            let loads = (0..Q).map(|v| StreamSpec::load(addr(src, 1, y, z, v)));
                            let pushes = C.iter().enumerate().map(|(v, &(cx, cy, cz))| {
                                let (ny, nz) = ((y as i32 + cy) as usize, (z as i32 + cz) as usize);
                                StreamSpec::store(addr(dst, (1 + cx) as usize, ny, nz, v))
                            });
                            units.push(Unit {
                                thread,
                                streams: loads.chain(pushes).collect(),
                                elems: n,
                            });
                        }
                    }
                }
                units
            }
            _ => {
                let kinds = self.kinds();
                (0..self.threads())
                    .map(|thread| Unit {
                        thread,
                        streams: arrays
                            .iter()
                            .zip(&kinds)
                            .map(|((base, layout), kind)| {
                                let addr = base + layout.seg_byte_starts[thread] as u64;
                                match kind {
                                    StreamKind::Read => StreamSpec::load(addr),
                                    _ => StreamSpec::store(addr),
                                }
                            })
                            .collect(),
                        elems: arrays[0].1.seg_sizes[thread],
                    })
                    .collect()
            }
        }
    }

    /// Builds the per-thread simulator programs for one trial of `spec`
    /// from the same units [`Workload::stream_units`] hands the advisor
    /// and the model: each of the `warmup + ntimes` sweeps moves its units
    /// into their threads' [`StreamLoop`]s, with a global barrier between
    /// sweeps. LBM rows touch every line twice, which keeps the set-thrash
    /// re-misses visible (as in `t2opt_kernels::lbm`). With warm-up
    /// enabled the measurement window opens at barrier 0 (use
    /// [`t2opt_sim::Simulation::measure_after_barrier`]).
    pub fn build_programs(&self, spec: &LayoutSpec) -> Vec<Program> {
        let touches = if matches!(self, Workload::Lbm { .. }) {
            2
        } else {
            1
        };
        let flops = self.flops_per_elem();
        let sweeps = self.ntimes() as usize + usize::from(self.warmup());
        let mut phases: Vec<Vec<_>> = (0..self.threads()).map(|_| Vec::new()).collect();
        for sweep in 0..sweeps {
            let mut loops: Vec<Vec<StreamLoop>> = (0..self.threads()).map(|_| Vec::new()).collect();
            for u in self.units(spec, sweep) {
                let body = StreamLoop::new(u.streams, u.elems, 8, flops, 64);
                loops[u.thread].push(body.with_touches(touches));
            }
            for (thread_phases, thread_loops) in phases.iter_mut().zip(loops) {
                thread_phases.push(thread_loops.into_iter().flatten());
            }
        }
        phases
            .into_iter()
            .map(|p| chain_with_barriers(p, 0))
            .collect()
    }

    /// The workload's lockstep units under `spec`: for each analysis unit
    /// (a thread's segment sweep; an interior Jacobi row; a sampled LBM
    /// row) the concurrent stream set of the first sweep at its absolute
    /// layout addresses, plus the cache lines each stream advances over
    /// the measured sweeps. One unit list feeds the simulator programs
    /// ([`Workload::build_programs`]), the advisor's relative
    /// [`Workload::predicted_efficiency`] and the closed-form
    /// [`t2opt_model::PerfModel`] via [`Workload::model_shape`], so none
    /// of them can drift from what the kernel accesses.
    pub fn stream_units(&self, spec: &LayoutSpec) -> Vec<StreamUnit> {
        let ntimes = u64::from(self.ntimes());
        self.units(spec, 0)
            .into_iter()
            .map(|u| {
                let streams = u.streams.iter().map(|s| match s.dir {
                    Dir::Load => StreamDesc::read(s.base),
                    Dir::Store => StreamDesc::write(s.base),
                });
                StreamUnit::new(
                    streams.collect(),
                    ((u.elems * 8) as u64).div_ceil(64) * ntimes,
                )
            })
            .collect()
    }

    /// The workload description the closed-form [`t2opt_model::PerfModel`]
    /// consumes: the [`Workload::stream_units`] plus the concurrency and
    /// byte-credit needed to turn predicted cycles into reported GB/s.
    pub fn model_shape(&self, spec: &LayoutSpec) -> KernelShape {
        KernelShape {
            units: self.stream_units(spec),
            threads: self.threads(),
            reported_bytes: self.reported_bytes(),
        }
    }

    /// The advisor's predicted controller-utilization efficiency for this
    /// workload under `spec`: the mean of [`LayoutAdvisor::predict`] over
    /// each [`Workload::stream_units`] stream set (threads differ when the
    /// layout shifts segments against each other; for [`Workload::Jacobi`]
    /// the unit is the interior row's stream set instead). Each distinct
    /// stream set is walked once ([`LayoutAdvisor::phase_memo`] at
    /// `predict`'s costs).
    pub fn predicted_efficiency(&self, advisor: &LayoutAdvisor, spec: &LayoutSpec) -> f64 {
        let units = self.stream_units(spec);
        let mut walks = advisor.phase_memo(1, 2);
        let total: f64 = units
            .iter()
            .map(|u| walks.analyze(&u.streams).efficiency())
            .sum();
        // On a NUMA chip the candidate's page placement scales the whole
        // estimate: remote traffic cannot be recovered by byte offsets
        // (affinity dominates aliasing). Unity on single-socket chips.
        let locality = advisor.locality_factor(spec.placement);
        locality * total / units.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2opt_sim::trace::Op;

    #[test]
    fn triad_kinds_and_bytes() {
        let w = Workload::triad(1 << 10, 8);
        assert_eq!(
            w.kinds(),
            vec![StreamKind::Read, StreamKind::Read, StreamKind::Write]
        );
        // 3 arrays × 8 B × n × 1 sweep.
        assert_eq!(w.reported_bytes(), 3 * 8 * (1 << 10));
        w.validate(&ChipConfig::ultrasparc_t2());
    }

    #[test]
    fn arrays_are_offset_by_multiples_of_block_offset() {
        let w = Workload::triad_smoke(1 << 10, 4);
        let spec = LayoutSpec::new().base_align(8192).block_offset(128);
        let arrays = w.layout_arrays(&spec);
        assert_eq!(arrays.len(), 3);
        for (j, (base, layout)) in arrays.iter().enumerate() {
            assert_eq!(base % 8192, 0, "bases must stay page-aligned");
            assert_eq!(layout.seg_byte_starts[0], j * 128);
        }
    }

    #[test]
    fn programs_cover_each_thread_segment() {
        let w = Workload::triad_smoke(256, 4);
        let spec = LayoutSpec::new().base_align(8192);
        let programs = w.build_programs(&spec);
        assert_eq!(programs.len(), 4);
        // 64 elements/thread/array = 8 lines; 2 read streams + 1 write.
        let ops: Vec<Op> = programs.into_iter().next().unwrap().collect();
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
        assert_eq!(reads, 16);
        assert_eq!(writes, 8);
        assert!(
            !ops.iter().any(|o| matches!(o, Op::Barrier(_))),
            "one sweep, no barrier"
        );
    }

    #[test]
    fn warmup_adds_a_barrier_separated_sweep() {
        let w = Workload::triad(256, 4);
        let spec = LayoutSpec::new().base_align(8192);
        let ops: Vec<Op> = w
            .build_programs(&spec)
            .into_iter()
            .next()
            .unwrap()
            .collect();
        let barriers: Vec<&Op> = ops.iter().filter(|o| matches!(o, Op::Barrier(_))).collect();
        assert_eq!(barriers.len(), 1);
        assert_eq!(*barriers[0], Op::Barrier(0));
    }

    #[test]
    fn jacobi_programs_cover_interior_rows() {
        let w = Workload::jacobi_smoke(16, 7);
        w.validate(&ChipConfig::ultrasparc_t2());
        assert_eq!(w.n(), 256);
        assert_eq!(w.flops_per_elem(), 4.0);
        // 14 interior rows × 16 sites × 16 B.
        assert_eq!(w.reported_bytes(), 14 * 16 * 16);
        let spec = LayoutSpec::new().base_align(8192).seg_align(512).shift(128);
        let programs = w.build_programs(&spec);
        assert_eq!(programs.len(), 7);
        // 14 interior rows round-robined over 7 threads → 2 rows each;
        // a 16-element row is exactly 2 cache lines, 3 loads + 1 store.
        let ops: Vec<Op> = programs.into_iter().next().unwrap().collect();
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
        assert_eq!(reads, 2 * 3 * 2);
        assert_eq!(writes, 2 * 2);
        assert!(
            !ops.iter().any(|o| matches!(o, Op::Barrier(_))),
            "smoke variant: one sweep, no barrier"
        );
    }

    #[test]
    fn jacobi_warmup_adds_barrier_and_toggles_grids() {
        let w = Workload::jacobi(16, 4);
        let spec = LayoutSpec::new().base_align(8192).seg_align(512);
        let ops: Vec<Op> = w
            .build_programs(&spec)
            .into_iter()
            .next()
            .unwrap()
            .collect();
        let barriers: Vec<&Op> = ops.iter().filter(|o| matches!(o, Op::Barrier(_))).collect();
        assert_eq!(barriers.len(), 1);
        assert_eq!(*barriers[0], Op::Barrier(0));
        // The warm-up sweep writes grid 1, the measured sweep grid 0: the
        // first store before and after the barrier must differ.
        let bar = ops
            .iter()
            .position(|o| matches!(o, Op::Barrier(_)))
            .unwrap();
        let first_store = |s: &[Op]| {
            s.iter()
                .find_map(|o| match o {
                    Op::Write(a) => Some(*a),
                    _ => None,
                })
                .unwrap()
        };
        assert_ne!(first_store(&ops[..bar]), first_store(&ops[bar..]));
    }

    #[test]
    fn jacobi_prediction_prefers_shifted_rows() {
        let w = Workload::jacobi_smoke(64, 16);
        let advisor = LayoutAdvisor::t2();
        let plain = w.predicted_efficiency(&advisor, &LayoutSpec::new().base_align(8192));
        let shifted = w.predicted_efficiency(
            &advisor,
            &LayoutSpec::new().base_align(8192).seg_align(512).shift(128),
        );
        assert!(
            shifted > 1.5 * plain,
            "rotating rows must rank far above aliased rows: {plain} vs {shifted}"
        );
    }

    #[test]
    fn lbm_programs_cover_sampled_rows() {
        let w = Workload::lbm_smoke(8, LbmLayout::IvJK, 4);
        w.validate(&ChipConfig::ultrasparc_t2());
        assert_eq!(w.n(), LbmLayout::IvJK.volume(10));
        assert_eq!(w.flops_per_elem(), FLOPS_PER_SITE);
        // 8 × 2 × 8 sampled sites × 38 streams × 8 B.
        assert_eq!(w.reported_bytes(), 8 * 2 * 8 * 38 * 8);
        let spec = LayoutSpec::new().base_align(8192);
        let programs = w.build_programs(&spec);
        assert_eq!(programs.len(), 4);
        // 8 z-planes over 4 threads → 2 planes × 2 sampled rows each; one
        // row is 8 doubles (64 B) per stream, walked in two 32 B
        // sub-blocks (touches = 2). A load stream starts at x = 1, off
        // line alignment, so its two sub-blocks cover 3 line-touches.
        let ops: Vec<Op> = programs.into_iter().next().unwrap().collect();
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
        assert_eq!(reads, 2 * 2 * Q * 3);
        // Store streams land on neighbor offsets, some line-aligned
        // (2 touches) and some not (3) — bound instead of pinning.
        assert!(
            (2 * 2 * Q * 2..=2 * 2 * Q * 3).contains(&writes),
            "writes out of range: {writes}"
        );
        assert!(
            !ops.iter().any(|o| matches!(o, Op::Barrier(_))),
            "smoke variant: one sweep, no barrier"
        );
    }

    #[test]
    fn lbm_packed_spec_reproduces_flat_addresses() {
        // With no padding the segmented addressing must agree with the
        // flat LbmLayout::index addressing, for both layouts.
        for layout in [LbmLayout::IJKv, LbmLayout::IvJK] {
            let w = Workload::lbm_smoke(4, layout, 2);
            let d = 6;
            let arrays = w.layout_arrays(&LayoutSpec::new().base_align(8192));
            for (base, seg) in &arrays {
                for z in 0..d {
                    for y in 0..d {
                        for v in 0..Q {
                            let (s, l) = layout.seg_coords(d, 2, y, z, v);
                            assert_eq!(
                                base + seg.elem_byte_offset(s, l) as u64,
                                base + (layout.index(d, 2, y, z, v) * 8) as u64,
                                "{layout:?} packed segmentation must be flat"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lbm_warmup_toggles_grids() {
        let w = Workload::lbm(4, LbmLayout::IJKv, 8);
        let spec = LayoutSpec::new().base_align(8192);
        let ops: Vec<Op> = w
            .build_programs(&spec)
            .into_iter()
            .next()
            .unwrap()
            .collect();
        let bar = ops
            .iter()
            .position(|o| matches!(o, Op::Barrier(_)))
            .expect("warm-up sweep must end in barrier 0");
        let first_store = |s: &[Op]| {
            s.iter()
                .find_map(|o| match o {
                    Op::Write(a) => Some(*a),
                    _ => None,
                })
                .unwrap()
        };
        assert_ne!(
            first_store(&ops[..bar]),
            first_store(&ops[bar..]),
            "toggle grids must swap roles across the barrier"
        );
    }

    #[test]
    fn predicted_efficiency_prefers_advisor_offsets() {
        let w = Workload::triad_smoke(1 << 12, 64);
        let advisor = LayoutAdvisor::t2();
        let aliased = w.predicted_efficiency(&advisor, &LayoutSpec::new().base_align(8192));
        let spread = w.predicted_efficiency(
            &advisor,
            &LayoutSpec::new().base_align(8192).block_offset(128),
        );
        assert!(
            spread > 1.5 * aliased,
            "advisor must rank offset 128 far above aliased: {aliased} vs {spread}"
        );
    }
}
