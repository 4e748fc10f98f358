//! D3Q19 lattice-Boltzmann (§2.4): BGK collision with push-style
//! propagation on a cubic domain with halo layers and two toggle grids.
//!
//! The paper compares two data layouts for the distribution array
//! `f(0:N+1, 0:N+1, 0:N+1, 0:18, 0:1)`:
//!
//! * **IJKv** — the "propagation optimized" structure-of-arrays layout:
//!   x fastest, the 19 distribution indices slowest (19 separate N³
//!   blocks). On the T2 its stream bases alias heavily for many N, and at
//!   `N+2 ≡ 0 (mod 64)` the 38 concurrent streams additionally thrash the
//!   16-way L2 ("ruinous" cache thrashing);
//! * **IvJK** — x fastest, then the distribution index: the 19 streams of
//!   one row are separated by `(N+2)·8` bytes, and "the fortunate number of
//!   19 distribution functions leads to an automatic skew between streams".
//!
//! Parallelization is over the outer z loop; because N is generally not a
//! multiple of the thread count this produces the sawtooth "modulo effect",
//! removed by *coalescing* the z and y loops (fused I-J).

// Lattice directions are indexed `v in 0..Q` into the constant tables
// `C`/`W` throughout — that parallels the D3Q19 physics notation, so the
// index loops are deliberate.
#![allow(clippy::needless_range_loop)]

use crate::common::{place_threads, VirtualAlloc};
use serde::Serialize;
use t2opt_parallel::{chunk_assignment, Coalesce2, Placement, Schedule, ThreadPool};
use t2opt_sim::trace::{chain_with_barriers, Program, StreamLoop, StreamSpec};
use t2opt_sim::{ChipConfig, SimStats, Simulation};

/// Number of discrete velocities in the D3Q19 model.
pub const Q: usize = 19;

/// D3Q19 velocity set: rest, 6 axis-aligned, 12 face diagonals.
pub const C: [(i32, i32, i32); Q] = [
    (0, 0, 0),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (-1, -1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (1, 0, 1),
    (-1, 0, -1),
    (1, 0, -1),
    (-1, 0, 1),
    (0, 1, 1),
    (0, -1, -1),
    (0, 1, -1),
    (0, -1, 1),
];

/// D3Q19 lattice weights (rest 1/3, axis 1/18, diagonal 1/36).
pub const W: [f64; Q] = [
    1.0 / 3.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];

/// Index of the direction opposite to `i` (bounce-back partner).
pub fn opposite(i: usize) -> usize {
    const OPP: [usize; Q] = [
        0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
    ];
    OPP[i]
}

/// Approximate floating-point work per site update of the BGK kernel,
/// used to charge the simulated FPU (the paper quotes a code balance of
/// ≈ 2.5 bytes/flop at 456 bytes/site → ≈ 180 flops/site).
pub const FLOPS_PER_SITE: f64 = 180.0;

/// Distribution-array layout (the Fig. 7 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LbmLayout {
    /// Structure of arrays: `f(x, y, z, v)` — v-stride `(N+2)³`.
    IJKv,
    /// Interleaved: `f(x, v, y, z)` — v-stride `N+2`.
    IvJK,
}

impl LbmLayout {
    /// Element index of `(x, y, z, v)` in a grid with halo side `d = N+2`.
    #[inline]
    pub fn index(&self, d: usize, x: usize, y: usize, z: usize, v: usize) -> usize {
        debug_assert!(x < d && y < d && z < d && v < Q);
        match self {
            LbmLayout::IJKv => x + d * (y + d * (z + d * v)),
            LbmLayout::IvJK => x + d * (v + Q * (y + d * z)),
        }
    }

    /// Total elements of one grid.
    pub fn volume(&self, d: usize) -> usize {
        d * d * d * Q
    }

    /// Contiguous trace segments of one distribution grid, for layout-tuned
    /// traces: IJKv splits into the 19 velocity blocks (`d³` elements
    /// each — the streams whose bases alias for unlucky N), IvJK into the
    /// `d²` (y, z) pencils (`19·d` elements each — the 19 streams of one
    /// row live *inside* a pencil and inherit its automatic skew). Padding
    /// or shift inserted between these segments is exactly the Fig. 7
    /// layout knob the autotuner searches.
    pub fn segment_sizes(&self, d: usize) -> Vec<usize> {
        match self {
            LbmLayout::IJKv => vec![d * d * d; Q],
            LbmLayout::IvJK => vec![Q * d; d * d],
        }
    }

    /// (segment, local element) coordinates of site `(x, y, z, v)` under
    /// the segmentation of [`LbmLayout::segment_sizes`]. With packed
    /// segments this reproduces [`LbmLayout::index`] exactly.
    #[inline]
    pub fn seg_coords(&self, d: usize, x: usize, y: usize, z: usize, v: usize) -> (usize, usize) {
        debug_assert!(x < d && y < d && z < d && v < Q);
        match self {
            LbmLayout::IJKv => (v, x + d * (y + d * z)),
            LbmLayout::IvJK => (y + d * z, x + d * v),
        }
    }

    /// Label as in the Fig. 7 legend.
    pub fn label(&self) -> &'static str {
        match self {
            LbmLayout::IJKv => "IJKv",
            LbmLayout::IvJK => "IvJK",
        }
    }
}

// ---------------------------------------------------------------------
// Host implementation
// ---------------------------------------------------------------------

/// Cell type for the host solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// Regular fluid cell.
    Fluid,
    /// Solid wall (half-way bounce-back).
    Solid,
    /// Moving wall with the given velocity (bounce-back with momentum
    /// injection — the lid of a lid-driven cavity).
    Moving(
        /// Wall velocity (ux, uy, uz).
        [f64; 3],
    ),
}

/// Host-side D3Q19 solver over an (N+2)³ halo domain with toggle grids.
pub struct LbmHost {
    n: usize,
    d: usize,
    layout: LbmLayout,
    f: [Vec<f64>; 2],
    cells: Vec<Cell>,
    cur: usize,
    omega: f64,
}

impl LbmHost {
    /// Creates an N³ fluid domain at rest with density 1, relaxation
    /// parameter `omega` ∈ (0, 2).
    pub fn new(n: usize, layout: LbmLayout, omega: f64) -> Self {
        assert!(n >= 2);
        assert!(omega > 0.0 && omega < 2.0);
        let d = n + 2;
        let volume = layout.volume(d);
        let mut f = [vec![0.0; volume], vec![0.0; volume]];
        for g in &mut f {
            for z in 0..d {
                for y in 0..d {
                    for x in 0..d {
                        for v in 0..Q {
                            g[layout.index(d, x, y, z, v)] = W[v];
                        }
                    }
                }
            }
        }
        LbmHost {
            n,
            d,
            layout,
            f,
            cells: vec![Cell::Fluid; d * d * d],
            cur: 0,
            omega,
        }
    }

    /// Domain side N (without halo).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Marks cell (x, y, z) — halo coordinates, i.e. 0..N+2.
    pub fn set_cell(&mut self, x: usize, y: usize, z: usize, c: Cell) {
        let d = self.d;
        self.cells[x + d * (y + d * z)] = c;
    }

    /// Cell type at (x, y, z).
    pub fn cell(&self, x: usize, y: usize, z: usize) -> Cell {
        let d = self.d;
        self.cells[x + d * (y + d * z)]
    }

    /// Walls a lid-driven cavity: solid on five faces, a lid moving with
    /// `u_lid` in +x on the z = N+1 face.
    pub fn cavity(&mut self, u_lid: f64) {
        let d = self.d;
        for a in 0..d {
            for b in 0..d {
                self.set_cell(a, b, 0, Cell::Solid);
                self.set_cell(a, 0, b, Cell::Solid);
                self.set_cell(a, d - 1, b, Cell::Solid);
                self.set_cell(0, a, b, Cell::Solid);
                self.set_cell(d - 1, a, b, Cell::Solid);
                self.set_cell(a, b, d - 1, Cell::Moving([u_lid, 0.0, 0.0]));
            }
        }
    }

    /// Folds distributions pushed into the halo back onto their periodic
    /// images. Call *after* each [`LbmHost::step`] on a fully periodic box:
    /// the push scheme deposits out-flowing populations in the halo; this
    /// moves each of them to the interior cell they wrap around to, making
    /// mass and momentum conservation exact.
    pub fn fold_periodic(&mut self) {
        let d = self.d;
        let n = self.n;
        let layout = self.layout;
        let cur = self.cur;
        let g = &mut self.f[cur];
        let wrap = |c: usize| -> usize {
            if c == 0 {
                n
            } else if c == d - 1 {
                1
            } else {
                c
            }
        };
        for z in 0..d {
            for y in 0..d {
                for x in 0..d {
                    if x != 0 && x != d - 1 && y != 0 && y != d - 1 && z != 0 && z != d - 1 {
                        continue;
                    }
                    for v in 0..Q {
                        // A halo slot is only meaningful if it was pushed
                        // there by an interior upstream cell.
                        let ux = x as i32 - C[v].0;
                        let uy = y as i32 - C[v].1;
                        let uz = z as i32 - C[v].2;
                        let interior = |c: i32| c >= 1 && c <= n as i32;
                        if interior(ux) && interior(uy) && interior(uz) {
                            let src = layout.index(d, x, y, z, v);
                            let dst = layout.index(d, wrap(x), wrap(y), wrap(z), v);
                            g[dst] = g[src];
                        }
                    }
                }
            }
        }
    }

    /// One collision + push-propagation timestep over the interior,
    /// parallelized over z-planes (or fused z·y when `fused`).
    pub fn step(&mut self, pool: &ThreadPool, schedule: Schedule, fused: bool) {
        let n = self.n;
        let d = self.d;
        let layout = self.layout;
        let omega = self.omega;
        let (src, dst) = {
            let (lo, hi) = self.f.split_at_mut(1);
            if self.cur == 0 {
                (&*lo[0], &mut *hi[0])
            } else {
                (&*hi[0], &mut *lo[0])
            }
        };
        let cells = &self.cells;
        let dst = PushDst(dst.as_mut_ptr(), dst.len());

        let body = |z: usize, y: usize| {
            for x in 1..=n {
                collide_stream_cell(src, cells, layout, d, x, y, z, omega, |i, value| {
                    // SAFETY: every destination slot (x,y,z,v) is written by
                    // exactly one source cell — its unique upstream
                    // neighbor — and nothing reads the destination grid
                    // during the step, so no two workers touch one element.
                    unsafe { dst.write(i, value) }
                });
            }
        };

        if fused {
            let co = Coalesce2::new(n, n);
            pool.parallel_for(0..co.len(), schedule, |_tid, range| {
                for flat in range {
                    let (zi, yi) = co.decode(flat);
                    body(zi + 1, yi + 1);
                }
            });
        } else {
            pool.parallel_for(1..n + 1, schedule, |_tid, range| {
                for z in range {
                    for y in 1..=n {
                        body(z, y);
                    }
                }
            });
        }
        self.cur ^= 1;
    }

    /// Density and momentum of the interior.
    pub fn totals(&self) -> (f64, [f64; 3]) {
        let d = self.d;
        let g = &self.f[self.cur];
        let mut rho = 0.0;
        let mut mom = [0.0; 3];
        for z in 1..=self.n {
            for y in 1..=self.n {
                for x in 1..=self.n {
                    for v in 0..Q {
                        let fv = g[self.layout.index(d, x, y, z, v)];
                        rho += fv;
                        mom[0] += fv * C[v].0 as f64;
                        mom[1] += fv * C[v].1 as f64;
                        mom[2] += fv * C[v].2 as f64;
                    }
                }
            }
        }
        (rho, mom)
    }

    /// Macroscopic (ρ, u) at one interior cell.
    pub fn macroscopic(&self, x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        let d = self.d;
        let g = &self.f[self.cur];
        let mut rho = 0.0;
        let mut u = [0.0; 3];
        for v in 0..Q {
            let fv = g[self.layout.index(d, x, y, z, v)];
            rho += fv;
            u[0] += fv * C[v].0 as f64;
            u[1] += fv * C[v].1 as f64;
            u[2] += fv * C[v].2 as f64;
        }
        if rho != 0.0 {
            for c in &mut u {
                *c /= rho;
            }
        }
        (rho, u)
    }

    /// Raw distribution access (tests).
    pub fn get_f(&self, x: usize, y: usize, z: usize, v: usize) -> f64 {
        self.f[self.cur][self.layout.index(self.d, x, y, z, v)]
    }
}

/// The destination grid of [`LbmHost::step`] (base pointer and length),
/// shared by every worker. A cell's pushes scatter over its 19 neighbors,
/// so the grid has no split into per-worker slices: workers write single
/// elements through the pointer and never hold a `&mut` to the grid.
#[derive(Clone, Copy)]
struct PushDst(*mut f64, usize);

// SAFETY: the pointer is only dereferenced by `write`, whose callers
// guarantee that no two threads touch the same element.
unsafe impl Send for PushDst {}
unsafe impl Sync for PushDst {}

impl PushDst {
    /// Writes `value` to element `i` of the grid.
    ///
    /// # Safety
    /// No other thread may access element `i` while the step runs.
    #[inline]
    unsafe fn write(self, i: usize, value: f64) {
        assert!(i < self.1, "push target {i} outside the grid");
        // SAFETY: `i` is in bounds (checked above) and the caller
        // guarantees exclusive access to the element.
        unsafe { self.0.add(i).write(value) }
    }
}

/// Equilibrium distribution for direction `v` at (ρ, u).
#[inline]
pub fn equilibrium(v: usize, rho: f64, u: &[f64; 3]) -> f64 {
    let cu = C[v].0 as f64 * u[0] + C[v].1 as f64 * u[1] + C[v].2 as f64 * u[2];
    let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    W[v] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * uu)
}

/// Collides one fluid cell and pushes the post-collision distributions to
/// its neighbors through `push(index, value)`, with half-way bounce-back at
/// solid/moving walls.
#[allow(clippy::too_many_arguments)]
#[inline]
fn collide_stream_cell(
    src: &[f64],
    cells: &[Cell],
    layout: LbmLayout,
    d: usize,
    x: usize,
    y: usize,
    z: usize,
    omega: f64,
    mut push: impl FnMut(usize, f64),
) {
    if cells[x + d * (y + d * z)] != Cell::Fluid {
        return;
    }
    // Moments.
    let mut fv = [0.0f64; Q];
    let mut rho = 0.0;
    let mut u = [0.0f64; 3];
    for v in 0..Q {
        let f = src[layout.index(d, x, y, z, v)];
        fv[v] = f;
        rho += f;
        u[0] += f * C[v].0 as f64;
        u[1] += f * C[v].1 as f64;
        u[2] += f * C[v].2 as f64;
    }
    let inv_rho = if rho != 0.0 { 1.0 / rho } else { 0.0 };
    for c in &mut u {
        *c *= inv_rho;
    }
    // BGK relax + push.
    for v in 0..Q {
        let post = fv[v] - omega * (fv[v] - equilibrium(v, rho, &u));
        let nx = (x as i32 + C[v].0) as usize;
        let ny = (y as i32 + C[v].1) as usize;
        let nz = (z as i32 + C[v].2) as usize;
        match cells[nx + d * (ny + d * nz)] {
            Cell::Fluid => push(layout.index(d, nx, ny, nz, v), post),
            // Half-way bounce-back: reflected into the opposite direction
            // at the source cell.
            Cell::Solid => push(layout.index(d, x, y, z, opposite(v)), post),
            Cell::Moving(uw) => {
                let cu = C[v].0 as f64 * uw[0] + C[v].1 as f64 * uw[1] + C[v].2 as f64 * uw[2];
                push(
                    layout.index(d, x, y, z, opposite(v)),
                    post - 6.0 * W[v] * rho * cu,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Simulator traces
// ---------------------------------------------------------------------

/// Configuration of a simulated LBM performance run (Fig. 7).
#[derive(Debug, Clone, Serialize)]
pub struct LbmConfig {
    /// Cubic domain side N (without halo).
    pub n: usize,
    /// Data layout.
    pub layout: LbmLayout,
    /// Thread count.
    pub threads: usize,
    /// Coalesce the outer z·y loops ("fused I-J").
    pub fused: bool,
    /// Bytes per real (8 = double, 4 = single — the §2.4 precision test).
    pub elem_size: usize,
    /// Measured timesteps.
    pub timesteps: usize,
    /// Simulate only this many y-rows per z-plane (`None` = all). The
    /// steady state is row-homogeneous, so sampling rows preserves every
    /// per-row effect (stream aliasing, set thrashing) *and* the z-plane
    /// load imbalance behind the "modulo effect", at a fraction of the
    /// simulation cost. MLUPs/s are scaled accordingly.
    pub y_rows: Option<usize>,
}

impl LbmConfig {
    /// Standard double-precision configuration (16 sampled y-rows per
    /// plane; use [`LbmConfig::full`] for the complete domain).
    pub fn new(n: usize, layout: LbmLayout, threads: usize, fused: bool) -> Self {
        LbmConfig {
            n,
            layout,
            threads,
            fused,
            elem_size: 8,
            timesteps: 1,
            y_rows: Some(16),
        }
    }

    /// Full-domain configuration (every y-row simulated).
    pub fn full(n: usize, layout: LbmLayout, threads: usize, fused: bool) -> Self {
        LbmConfig {
            y_rows: None,
            ..Self::new(n, layout, threads, fused)
        }
    }

    /// Effective y-rows per plane.
    pub fn y_eff(&self) -> usize {
        self.y_rows.map_or(self.n, |k| k.min(self.n)).max(1)
    }

    /// Site updates per measured run (sampled rows × full x extent).
    pub fn site_updates(&self) -> u64 {
        (self.n as u64) * (self.y_eff() as u64) * (self.n as u64) * self.timesteps as u64
    }
}

/// Builds the per-thread simulator programs: `timesteps.max(1)` steps,
/// the toggle grids swapping roles at the barrier between steps. There is
/// no warm-up step: at the default `timesteps = 1` the programs have no
/// barrier, so [`run_sim`]'s `measure_after_barrier(0)` never opens a
/// window and the whole cold step is measured.
pub fn build_trace(cfg: &LbmConfig, chip: &ChipConfig) -> Vec<Program> {
    let n = cfg.n;
    let d = n + 2;
    let layout = cfg.layout;
    let es = cfg.elem_size as u64;
    let mut va = VirtualAlloc::new();
    let volume = layout.volume(d) as u64 * es;
    let base_a = va.alloc(volume, 8192, 0);
    va.gap(4096);
    let base_b = va.alloc(volume, 8192, 0);
    let line = chip.l2.line;

    // Per-thread (z, y) row lists, over the sampled y extent.
    let y_eff = cfg.y_eff();
    let rows_per_thread: Vec<Vec<(usize, usize)>> = if cfg.fused {
        let co = Coalesce2::new(n, y_eff);
        chunk_assignment(Schedule::Static, co.len(), cfg.threads)
            .into_iter()
            .map(|chunks| {
                chunks
                    .iter()
                    .flat_map(|ch| ch.range())
                    .map(|flat| {
                        let (zi, yi) = co.decode(flat);
                        (zi + 1, yi + 1)
                    })
                    .collect()
            })
            .collect()
    } else {
        chunk_assignment(Schedule::Static, n, cfg.threads)
            .into_iter()
            .map(|chunks| {
                chunks
                    .iter()
                    .flat_map(|ch| ch.range())
                    .flat_map(|zi| (1..=y_eff).map(move |y| (zi + 1, y)))
                    .collect()
            })
            .collect()
    };

    let addr = move |base: u64, x: usize, y: usize, z: usize, v: usize| -> u64 {
        base + layout.index(d, x, y, z, v) as u64 * es
    };

    (0..cfg.threads)
        .map(|tid| {
            let rows = rows_per_thread[tid].clone();
            let mut phases = Vec::new();
            for step in 0..cfg.timesteps.max(1) {
                let (src, dst) = if step % 2 == 0 {
                    (base_a, base_b)
                } else {
                    (base_b, base_a)
                };
                let mut row_loops: Vec<StreamLoop> = Vec::new();
                for &(z, y) in &rows {
                    let mut streams = Vec::with_capacity(2 * Q);
                    for v in 0..Q {
                        streams.push(StreamSpec::load(addr(src, 1, y, z, v)));
                    }
                    for v in 0..Q {
                        let (cx, cy, cz) = C[v];
                        let nx = (1 + cx) as usize;
                        let ny = (y as i32 + cy) as usize;
                        let nz = (z as i32 + cz) as usize;
                        streams.push(StreamSpec::store(addr(dst, nx, ny, nz, v)));
                    }
                    row_loops.push(
                        StreamLoop::new(streams, n, cfg.elem_size, FLOPS_PER_SITE, line)
                            // Two touches per line expose the intra-line
                            // re-misses of the N+2 = 0 (mod 64) set
                            // thrashing (see StreamLoop::with_touches).
                            .with_touches(2),
                    );
                }
                phases.push(row_loops.into_iter().flatten());
            }
            chain_with_barriers(phases, 0)
        })
        .collect()
}

/// Result of a simulated LBM run.
#[derive(Debug, Clone, Serialize)]
pub struct LbmResult {
    /// Million lattice-site updates per second — the Fig. 7 y-axis.
    pub mlups: f64,
    /// L2 hit rate over the measured window.
    pub l2_hit_rate: f64,
    /// Raw statistics.
    pub stats: SimStats,
}

/// Runs one LBM configuration on the T2 simulator.
pub fn run_sim(cfg: &LbmConfig, chip: &ChipConfig, placement: &Placement) -> LbmResult {
    let programs = build_trace(cfg, chip);
    let threads = place_threads(programs, placement, chip.core.n_cores);
    let sim = Simulation::new(chip.clone()).measure_after_barrier(0);
    let stats = sim.run(threads);
    LbmResult {
        mlups: stats.mlups(chip, cfg.site_updates()),
        l2_hit_rate: stats.l2_hit_rate(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        assert!((W.iter().sum::<f64>() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn opposite_is_an_involution_and_negates_c() {
        for v in 0..Q {
            let o = opposite(v);
            assert_eq!(opposite(o), v);
            assert_eq!(C[o].0, -C[v].0);
            assert_eq!(C[o].1, -C[v].1);
            assert_eq!(C[o].2, -C[v].2);
        }
    }

    #[test]
    fn equilibrium_at_rest_is_weighted_density() {
        for v in 0..Q {
            assert!((equilibrium(v, 2.0, &[0.0; 3]) - 2.0 * W[v]).abs() < 1e-15);
        }
    }

    #[test]
    fn layout_indices_are_unique_and_in_bounds() {
        for layout in [LbmLayout::IJKv, LbmLayout::IvJK] {
            let d = 6;
            let mut seen = vec![false; layout.volume(d)];
            for z in 0..d {
                for y in 0..d {
                    for x in 0..d {
                        for v in 0..Q {
                            let i = layout.index(d, x, y, z, v);
                            assert!(!seen[i], "{layout:?} index collision at {i}");
                            seen[i] = true;
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn x_is_unit_stride_in_both_layouts() {
        let d = 10;
        for layout in [LbmLayout::IJKv, LbmLayout::IvJK] {
            let a = layout.index(d, 3, 4, 5, 6);
            let b = layout.index(d, 4, 4, 5, 6);
            assert_eq!(b - a, 1, "{layout:?}");
        }
    }

    #[test]
    fn packed_segment_coords_reproduce_index() {
        // The prefix-sum of segment_sizes plus the local coordinate must
        // equal the flat index for every site: the tunable segmentation is
        // the identity layout when no padding is inserted.
        let d = 5;
        for layout in [LbmLayout::IJKv, LbmLayout::IvJK] {
            let sizes = layout.segment_sizes(d);
            assert_eq!(sizes.iter().sum::<usize>(), layout.volume(d));
            let mut prefix = vec![0usize; sizes.len()];
            for s in 1..sizes.len() {
                prefix[s] = prefix[s - 1] + sizes[s - 1];
            }
            for z in 0..d {
                for y in 0..d {
                    for x in 0..d {
                        for v in 0..Q {
                            let (seg, local) = layout.seg_coords(d, x, y, z, v);
                            assert!(local < sizes[seg], "{layout:?} local out of segment");
                            assert_eq!(
                                prefix[seg] + local,
                                layout.index(d, x, y, z, v),
                                "{layout:?} packed segments must be the flat layout"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn v_strides_differ_between_layouts() {
        let d = 10;
        let s_ijkv = LbmLayout::IJKv.index(d, 1, 1, 1, 1) - LbmLayout::IJKv.index(d, 1, 1, 1, 0);
        let s_ivjk = LbmLayout::IvJK.index(d, 1, 1, 1, 1) - LbmLayout::IvJK.index(d, 1, 1, 1, 0);
        assert_eq!(s_ijkv, d * d * d);
        assert_eq!(s_ivjk, d);
    }

    #[test]
    fn uniform_rest_state_is_stationary() {
        let pool = ThreadPool::new(4);
        let mut lbm = LbmHost::new(8, LbmLayout::IvJK, 1.0);
        for _ in 0..5 {
            lbm.step(&pool, Schedule::Static, false);
            lbm.fold_periodic();
        }
        for v in 0..Q {
            let f = lbm.get_f(4, 4, 4, v);
            assert!(
                (f - W[v]).abs() < 1e-14,
                "direction {v}: {f} drifted from {}",
                W[v]
            );
        }
    }

    #[test]
    fn periodic_box_conserves_mass_and_momentum() {
        let pool = ThreadPool::new(4);
        let mut lbm = LbmHost::new(8, LbmLayout::IvJK, 1.2);
        // Perturb the interior deterministically.
        let d = lbm.d;
        for z in 1..=8 {
            for y in 1..=8 {
                for x in 1..=8 {
                    for v in 0..Q {
                        let idx = lbm.layout.index(d, x, y, z, v);
                        lbm.f[0][idx] *= 1.0 + 0.01 * ((x * 3 + y * 5 + z * 7 + v) % 11) as f64;
                    }
                }
            }
        }
        let (rho0, mom0) = lbm.totals();
        for _ in 0..10 {
            lbm.step(&pool, Schedule::Static, false);
            lbm.fold_periodic();
        }
        let (rho1, mom1) = lbm.totals();
        assert!(
            (rho1 - rho0).abs() / rho0 < 1e-12,
            "mass drift: {rho0} -> {rho1}"
        );
        for k in 0..3 {
            assert!(
                (mom1[k] - mom0[k]).abs() < 1e-9 * rho0,
                "momentum[{k}] drift: {} -> {}",
                mom0[k],
                mom1[k]
            );
        }
    }

    #[test]
    fn layouts_produce_identical_physics() {
        let pool = ThreadPool::new(4);
        let run = |layout| {
            let mut lbm = LbmHost::new(6, layout, 1.3);
            lbm.cavity(0.05);
            for _ in 0..20 {
                lbm.step(&pool, Schedule::Static, false);
            }
            let (rho, u) = lbm.macroscopic(3, 3, 3);
            (rho, u)
        };
        let (r1, u1) = run(LbmLayout::IJKv);
        let (r2, u2) = run(LbmLayout::IvJK);
        assert!((r1 - r2).abs() < 1e-13);
        for k in 0..3 {
            assert!(
                (u1[k] - u2[k]).abs() < 1e-13,
                "u[{k}]: {} vs {}",
                u1[k],
                u2[k]
            );
        }
    }

    #[test]
    fn fused_and_unfused_agree() {
        let pool = ThreadPool::new(5);
        let run = |fused| {
            let mut lbm = LbmHost::new(7, LbmLayout::IvJK, 1.1);
            lbm.cavity(0.08);
            for _ in 0..15 {
                lbm.step(&pool, Schedule::Static, fused);
            }
            lbm.macroscopic(3, 4, 5)
        };
        let (r1, u1) = run(false);
        let (r2, u2) = run(true);
        assert_eq!(r1, r2, "coalescing must not change the arithmetic");
        assert_eq!(u1, u2);
    }

    #[test]
    fn cavity_develops_flow() {
        let pool = ThreadPool::new(4);
        let mut lbm = LbmHost::new(10, LbmLayout::IvJK, 1.5);
        lbm.cavity(0.1);
        for _ in 0..200 {
            lbm.step(&pool, Schedule::Static, false);
        }
        // Near the lid the fluid should be dragged in +x.
        let (_, u_top) = lbm.macroscopic(5, 5, 10);
        assert!(u_top[0] > 0.01, "lid should drag fluid: ux = {}", u_top[0]);
        // The return flow at the bottom should be opposite.
        let (_, u_bottom) = lbm.macroscopic(5, 5, 1);
        assert!(
            u_bottom[0] < 0.0,
            "return flow expected: ux = {}",
            u_bottom[0]
        );
    }

    #[test]
    fn trace_volume_scales_with_domain() {
        let chip = ChipConfig::ultrasparc_t2();
        let cfg = LbmConfig::new(16, LbmLayout::IvJK, 4, false);
        let programs = build_trace(&cfg, &chip);
        use t2opt_sim::trace::Op;
        let mut reads = 0u64;
        for p in programs {
            for op in p {
                if matches!(op, Op::Read(_)) {
                    reads += 1;
                }
            }
        }
        // 2 steps × 19 streams × N² rows. Each row is 16 doubles = 128 B,
        // but starts at x = 1 (one halo element in), so it straddles three
        // 64 B lines, each read once.
        assert_eq!(reads, 2 * 19 * 16 * 16 * 3);
    }

    #[test]
    fn ijkv_thrashing_size_maps_streams_to_same_set_and_controller() {
        // N + 2 = 64: v-stride = 64³ × 8 B = 2 MiB ≡ 0 mod 512 → all 19
        // read streams on one controller *and* one cache set group.
        let map = t2opt_core::mapping::AddressMap::ultrasparc_t2();
        let layout = LbmLayout::IJKv;
        let d = 64;
        let a0 = layout.index(d, 1, 1, 1, 0) * 8;
        let mcs: Vec<u32> = (0..Q)
            .map(|v| map.controller((layout.index(d, 1, 1, 1, v) * 8) as u64))
            .collect();
        assert!(
            mcs.iter().all(|&m| m == map.controller(a0 as u64)),
            "all v-streams must alias at N+2=64: {mcs:?}"
        );
        // IvJK at the same size: v-stride = 64·8 = 512 ≡ 0 mod 512 — also
        // aliased! But within one *row* the accesses of all 19 v's cover 19
        // distinct lines spread over controllers as x advances; the severe
        // effect is the L2 set conflict, which only IJKv has (2 MiB stride
        // = multiple of the 256 KiB set stride).
        let set_stride = 4096 * 64;
        assert_eq!((layout.index(d, 1, 1, 1, 1) * 8 - a0) % set_stride, 0);
    }
}
