//! 2-D Jacobi heat-equation relaxation (§2.3): five-point stencil on an
//! N×N grid with toggle (source/destination) arrays.
//!
//! ```text
//! dest[i][j] = 0.25 · (src[i-1][j] + src[i+1][j] + src[i][j-1] + src[i][j+1])
//! ```
//!
//! The paper's optimized variant stores **each row as one segment** of a
//! `seg_array` with
//!
//! * every row aligned to a 512 B boundary,
//! * successive rows shifted by 128 B (so rows rotate through the four
//!   memory controllers),
//! * `schedule(static,1)` — without it the 4 MB L2 cannot hold the working
//!   rows of 64 threads whose addresses are far apart.
//!
//! These parameters come straight from the access analysis — "no trial and
//! error is required". The plain reference keeps the grid contiguous and
//! shows the period-64/32 aliasing vs N (Fig. 6).

use crate::common::{place_threads, VirtualAlloc};
use serde::Serialize;
use t2opt_core::layout::{LayoutSpec, SegLayout, SegmentPlan};
use t2opt_core::seg_array::SegArray;
use t2opt_parallel::{chunk_assignment, Placement, Schedule, ThreadPool};
use t2opt_sim::trace::{chain_with_barriers, Program, StreamLoop, StreamSpec};
use t2opt_sim::{ChipConfig, SimStats, Simulation};

/// Grid layout variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JacobiLayout {
    /// Contiguous row-major grid, `malloc`-style base.
    Plain,
    /// The paper's optimum: one segment per row, rows 512 B-aligned,
    /// successive rows shifted 128 B.
    Optimized,
}

/// Configuration of a Jacobi experiment.
#[derive(Debug, Clone, Serialize)]
pub struct JacobiConfig {
    /// Grid side N (domain is N×N, boundary fixed).
    pub n: usize,
    /// Thread count.
    pub threads: usize,
    /// Loop schedule over rows (the paper: `static,1` for the optimum).
    pub schedule: Schedule,
    /// Layout variant.
    pub layout: JacobiLayout,
    /// Measured sweeps.
    pub sweeps: usize,
}

impl JacobiConfig {
    /// The paper's optimized setup.
    pub fn optimized(n: usize, threads: usize) -> Self {
        JacobiConfig {
            n,
            threads,
            schedule: Schedule::StaticChunk(1),
            layout: JacobiLayout::Optimized,
            sweeps: 2,
        }
    }

    /// The plain reference.
    pub fn plain(n: usize, threads: usize) -> Self {
        JacobiConfig {
            n,
            threads,
            schedule: Schedule::Static,
            layout: JacobiLayout::Plain,
            sweeps: 2,
        }
    }

    /// Lattice-site updates per measured run (interior points × sweeps).
    pub fn site_updates(&self) -> u64 {
        ((self.n - 2) * (self.n - 2)) as u64 * self.sweeps as u64
    }
}

/// Byte layout of one grid in the simulator's virtual address space:
/// per-row base addresses.
fn grid_rows(layout: JacobiLayout, n: usize, va: &mut VirtualAlloc) -> Vec<u64> {
    match layout {
        JacobiLayout::Plain => {
            let base = va.malloc((n * n * 8) as u64);
            (0..n).map(|i| base + (i * n * 8) as u64).collect()
        }
        JacobiLayout::Optimized => {
            let spec = LayoutSpec::new().base_align(8192).seg_align(512).shift(128);
            let plan: SegLayout = spec.plan(n * n, 8, &SegmentPlan::Sizes(vec![n; n]));
            let base = va.alloc(plan.total_bytes as u64, 8192, 0);
            plan.seg_byte_starts
                .iter()
                .map(|&s| base + s as u64)
                .collect()
        }
    }
}

/// Builds per-thread simulator programs: one warm-up sweep, barrier 0
/// (measurement opens), then `sweeps` measured sweeps with barriers in
/// between (the toggle-array swap needs one anyway).
pub fn build_trace(cfg: &JacobiConfig, chip: &ChipConfig) -> Vec<Program> {
    let mut va = VirtualAlloc::new();
    let grid_a = grid_rows(cfg.layout, cfg.n, &mut va);
    va.gap(4096);
    let grid_b = grid_rows(cfg.layout, cfg.n, &mut va);
    let line = chip.l2.line;
    let rows = cfg.n - 2;
    let assignment = chunk_assignment(cfg.schedule, rows, cfg.threads);
    let total_sweeps = cfg.sweeps + 1; // + warm-up

    (0..cfg.threads)
        .map(|tid| {
            let chunks = assignment[tid].clone();
            let grid_a = grid_a.clone();
            let grid_b = grid_b.clone();
            let n = cfg.n;
            let mut sweeps = Vec::new();
            for s in 0..total_sweeps {
                let (src, dst): (&[u64], &[u64]) = if s % 2 == 0 {
                    (&grid_a, &grid_b)
                } else {
                    (&grid_b, &grid_a)
                };
                let mut row_loops: Vec<StreamLoop> = Vec::new();
                for ch in &chunks {
                    for r in ch.range() {
                        let i = r + 1; // interior row index
                        row_loops.push(StreamLoop::new(
                            vec![
                                StreamSpec::load(src[i - 1]),
                                StreamSpec::load(src[i]),
                                StreamSpec::load(src[i + 1]),
                                StreamSpec::store(dst[i]),
                            ],
                            n,
                            8,
                            4.0,
                            line,
                        ));
                    }
                }
                sweeps.push(row_loops.into_iter().flatten());
            }
            chain_with_barriers(sweeps, 0)
        })
        .collect()
}

/// Result of a simulated Jacobi run.
#[derive(Debug, Clone, Serialize)]
pub struct JacobiResult {
    /// Million lattice-site updates per second — the Fig. 6 y-axis.
    pub mlups: f64,
    /// L2 hit rate over the measured window.
    pub l2_hit_rate: f64,
    /// Raw statistics.
    pub stats: SimStats,
}

/// Runs one Jacobi configuration on the T2 simulator.
pub fn run_sim(cfg: &JacobiConfig, chip: &ChipConfig, placement: &Placement) -> JacobiResult {
    let programs = build_trace(cfg, chip);
    let threads = place_threads(programs, placement, chip.core.n_cores);
    let sim = Simulation::new(chip.clone()).measure_after_barrier(0);
    let stats = sim.run(threads);
    JacobiResult {
        mlups: stats.mlups(chip, cfg.site_updates()),
        l2_hit_rate: stats.l2_hit_rate(),
        stats,
    }
}

// ---------------------------------------------------------------------
// Host execution (correctness + examples)
// ---------------------------------------------------------------------

/// The serial per-row kernel of the paper (`relax_line`): pure slice code.
#[inline]
pub fn relax_line(dst: &mut [f64], above: &[f64], below: &[f64], src: &[f64]) {
    let n = dst.len();
    for j in 1..n - 1 {
        dst[j] = (above[j] + below[j] + src[j - 1] + src[j + 1]) * 0.25;
    }
}

/// A host-side Jacobi solver over segmented row storage, exercising the
/// public `SegArray` API end to end.
pub struct JacobiHost {
    n: usize,
    grids: [SegArray<f64>; 2],
    /// Which grid currently holds the solution.
    cur: usize,
}

impl JacobiHost {
    /// Creates an N×N problem with the paper's optimized layout and the
    /// given boundary function (applied to both grids).
    pub fn new(n: usize, boundary: impl Fn(usize, usize) -> f64) -> Self {
        assert!(n >= 3, "need at least one interior point");
        let mk = || {
            SegArray::<f64>::builder(n * n)
                .segment_sizes(vec![n; n])
                .spec(LayoutSpec::new().base_align(8192).seg_align(512).shift(128))
                .build()
        };
        let mut grids = [mk(), mk()];
        for g in &mut grids {
            for i in 0..n {
                let row = g.segment_mut(i);
                for (j, x) in row.iter_mut().enumerate() {
                    if i == 0 || i == n - 1 || j == 0 || j == n - 1 {
                        *x = boundary(i, j);
                    }
                }
            }
        }
        JacobiHost { n, grids, cur: 0 }
    }

    /// Grid side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Runs `sweeps` relaxation sweeps on the pool with the given schedule.
    pub fn run(&mut self, sweeps: usize, pool: &ThreadPool, schedule: Schedule) {
        let n = self.n;
        let assignment = chunk_assignment(schedule, n - 2, pool.num_threads());
        for _ in 0..sweeps {
            let (src, dst) = self.split();
            // Deal each interior row to the worker the schedule gives it
            // before the region, so every worker owns its rows outright.
            let mut rows: Vec<Option<&mut [f64]>> =
                dst.segments_mut().into_iter().map(Some).collect();
            let parts: Vec<Vec<(usize, &mut [f64])>> = assignment
                .iter()
                .map(|chunks| {
                    chunks
                        .iter()
                        .flat_map(|ch| ch.range())
                        .map(|r| (r + 1, rows[r + 1].take().expect("one owner per row")))
                        .collect()
                })
                .collect();
            pool.run_parts(parts, |_tid, owned| {
                for (i, row) in owned {
                    relax_line(row, src.segment(i - 1), src.segment(i + 1), src.segment(i));
                }
            });
            self.cur ^= 1;
        }
    }

    /// Runs sweeps serially (reference implementation).
    pub fn run_serial(&mut self, sweeps: usize) {
        let n = self.n;
        for _ in 0..sweeps {
            let (src, dst) = self.split();
            for i in 1..n - 1 {
                let above = src.segment(i - 1).to_vec();
                let below = src.segment(i + 1).to_vec();
                let center = src.segment(i).to_vec();
                relax_line(dst.segment_mut(i), &above, &below, &center);
            }
            self.cur ^= 1;
        }
    }

    fn split(&mut self) -> (&SegArray<f64>, &mut SegArray<f64>) {
        let (lo, hi) = self.grids.split_at_mut(1);
        if self.cur == 0 {
            (&lo[0], &mut hi[0])
        } else {
            (&hi[0], &mut lo[0])
        }
    }

    /// Value at (i, j) of the current solution.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.grids[self.cur].segment(i)[j]
    }

    /// The current solution flattened to row-major order.
    pub fn to_vec(&self) -> Vec<f64> {
        self.grids[self.cur].to_vec()
    }

    /// Maximum interior residual ‖u − stencil(u)‖∞ of the current solution.
    pub fn residual(&self) -> f64 {
        let g = &self.grids[self.cur];
        let n = self.n;
        let mut worst = 0.0f64;
        for i in 1..n - 1 {
            let above = g.segment(i - 1);
            let below = g.segment(i + 1);
            let row = g.segment(i);
            for j in 1..n - 1 {
                let stencil = (above[j] + below[j] + row[j - 1] + row[j + 1]) * 0.25;
                worst = worst.max((row[j] - stencil).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relax_line_matches_formula() {
        let above = [1.0, 2.0, 3.0, 4.0];
        let below = [5.0, 6.0, 7.0, 8.0];
        let src = [0.0, 10.0, 20.0, 0.0];
        let mut dst = [0.0; 4];
        relax_line(&mut dst, &above, &below, &src);
        assert_eq!(dst[0], 0.0);
        assert_eq!(dst[3], 0.0);
        assert_eq!(dst[1], (2.0 + 6.0 + 0.0 + 20.0) * 0.25);
        assert_eq!(dst[2], (3.0 + 7.0 + 10.0 + 0.0) * 0.25);
    }

    #[test]
    fn linear_boundary_is_a_fixed_point() {
        // u(i,j) = j is harmonic and matches the stencil exactly: one sweep
        // must leave a linear field unchanged.
        let n = 17;
        let mut solver = JacobiHost::new(n, |_i, j| j as f64);
        let pool = ThreadPool::new(4);
        // Start from zero interior: converges toward u = j.
        solver.run(2000, &pool, Schedule::StaticChunk(1));
        for i in (1..n - 1).step_by(3) {
            for j in (1..n - 1).step_by(3) {
                assert!(
                    (solver.get(i, j) - j as f64).abs() < 1e-6,
                    "u({i},{j}) = {} should approach {}",
                    solver.get(i, j),
                    j
                );
            }
        }
        assert!(solver.residual() < 1e-7);
    }

    #[test]
    fn parallel_schedules_match_the_serial_sweeps() {
        // Also with more workers than some schedules have chunks: n = 8
        // leaves 6 interior rows for 8 workers.
        let boundary = |i: usize, j: usize| (i * 7 % 5) as f64 + (j % 3) as f64;
        let pool = ThreadPool::new(8);
        for n in [33, 8] {
            let mut serial = JacobiHost::new(n, boundary);
            serial.run_serial(50);
            for schedule in [
                Schedule::Static,
                Schedule::StaticChunk(1),
                Schedule::StaticChunk(4),
            ] {
                let mut parallel = JacobiHost::new(n, boundary);
                parallel.run(50, &pool, schedule);
                assert_eq!(
                    parallel.to_vec(),
                    serial.to_vec(),
                    "{schedule:?} at n={n} must match the serial sweeps bit for bit"
                );
            }
        }
    }

    #[test]
    fn optimized_rows_rotate_controllers() {
        let mut va = VirtualAlloc::new();
        let rows = grid_rows(JacobiLayout::Optimized, 65, &mut va);
        let map = t2opt_core::mapping::AddressMap::ultrasparc_t2();
        let mcs: Vec<u32> = rows[..8].iter().map(|&r| map.controller(r)).collect();
        assert_eq!(mcs, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn plain_rows_alias_when_n_is_multiple_of_64() {
        // N ≡ 0 (mod 64): every row base ≡ same value mod 512 → all rows on
        // one controller — the Fig. 6 "plain" dips.
        let mut va = VirtualAlloc::new();
        let rows = grid_rows(JacobiLayout::Plain, 128, &mut va);
        let map = t2opt_core::mapping::AddressMap::ultrasparc_t2();
        let mc0 = map.controller(rows[0]);
        assert!(rows.iter().all(|&r| map.controller(r) == mc0));
    }

    #[test]
    fn sim_optimized_beats_plain_at_aliased_size() {
        let chip = ChipConfig::ultrasparc_t2();
        // N chosen ≡ 0 mod 64 (plain rows fully aliased), large enough that
        // the two grids (2 × 8 MiB) dwarf the 4 MB L2.
        let n = 1024;
        let plain = run_sim(&JacobiConfig::plain(n, 32), &chip, &Placement::t2_scatter());
        let opt = run_sim(
            &JacobiConfig::optimized(n, 32),
            &chip,
            &Placement::t2_scatter(),
        );
        assert!(
            opt.mlups > 1.3 * plain.mlups,
            "optimized {:.0} MLUPs vs plain {:.0} MLUPs",
            opt.mlups,
            plain.mlups
        );
    }

    #[test]
    fn sim_scales_with_threads() {
        let chip = ChipConfig::ultrasparc_t2();
        let n = 1024;
        let m8 = run_sim(
            &JacobiConfig::optimized(n, 8),
            &chip,
            &Placement::t2_scatter(),
        );
        let m64 = run_sim(
            &JacobiConfig::optimized(n, 64),
            &chip,
            &Placement::t2_scatter(),
        );
        assert!(
            m64.mlups > 2.0 * m8.mlups,
            "64 T ({:.0}) must scale well past 8 T ({:.0})",
            m64.mlups,
            m8.mlups
        );
    }

    #[test]
    fn site_updates_counts_interior_only() {
        let cfg = JacobiConfig::optimized(10, 4);
        assert_eq!(cfg.site_updates(), 64 * 2);
    }
}
