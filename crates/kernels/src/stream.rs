//! The McCalpin STREAM benchmark (§2.1) — host execution and T2-simulator
//! traces.
//!
//! STREAM measures sustainable memory bandwidth with four OpenMP-parallel
//! vector operations over arrays far larger than any cache:
//!
//! * copy:  `C(:) = A(:)`
//! * scale: `B(:) = s·C(:)`
//! * add:   `C(:) = A(:) + B(:)`
//! * triad: `A(:) = B(:) + s·C(:)`
//!
//! The Fortran reference puts A, B, C in a COMMON block with a configurable
//! *offset*: `a(ndim), b(ndim), c(ndim)` with `ndim = N + offset`, so the
//! base-address separation between consecutive arrays is `(N + offset)·8`
//! bytes. With `N` a power of two, that separation mod 512 B is just
//! `offset·8` — which is how Fig. 2 turns the offset dial into a memory-
//! controller aliasing dial.
//!
//! Reported bandwidth follows the STREAM convention: write-allocate RFO
//! traffic is *not* counted, so e.g. triad's actual DRAM traffic is 4/3 of
//! the reported figure.

use crate::common::{best_secs, place_threads, VirtualAlloc};
use serde::Serialize;
use t2opt_parallel::{chunk_assignment, split_static, Placement, Schedule, ThreadPool};
use t2opt_sim::telemetry::timeline::{StreamLabel, Timeline, TraceConfig};
use t2opt_sim::trace::{chain_with_barriers, Program, StreamLoop, StreamSpec};
use t2opt_sim::{ChipConfig, SimStats, Simulation};

/// Which STREAM kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StreamKernel {
    /// `C(:) = A(:)`
    Copy,
    /// `B(:) = s·C(:)`
    Scale,
    /// `C(:) = A(:) + B(:)`
    Add,
    /// `A(:) = B(:) + s·C(:)`
    Triad,
}

impl StreamKernel {
    /// Name as printed by the STREAM benchmark.
    pub fn name(&self) -> &'static str {
        match self {
            StreamKernel::Copy => "copy",
            StreamKernel::Scale => "scale",
            StreamKernel::Add => "add",
            StreamKernel::Triad => "triad",
        }
    }

    /// Floating-point operations per element.
    pub fn flops_per_elem(&self) -> f64 {
        match self {
            StreamKernel::Copy => 0.0,
            StreamKernel::Scale | StreamKernel::Add => 1.0,
            StreamKernel::Triad => 2.0,
        }
    }

    /// Bytes counted per element by the STREAM reporting convention
    /// (one word per participating array; RFO not counted).
    pub fn reported_bytes_per_elem(&self) -> u64 {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
        }
    }

    /// The load/store stream pattern given the three array bases, in
    /// program order (loads first).
    fn streams(&self, a: u64, b: u64, c: u64) -> Vec<StreamSpec> {
        match self {
            StreamKernel::Copy => vec![StreamSpec::load(a), StreamSpec::store(c)],
            StreamKernel::Scale => vec![StreamSpec::load(c), StreamSpec::store(b)],
            StreamKernel::Add => {
                vec![
                    StreamSpec::load(a),
                    StreamSpec::load(b),
                    StreamSpec::store(c),
                ]
            }
            StreamKernel::Triad => {
                vec![
                    StreamSpec::load(b),
                    StreamSpec::load(c),
                    StreamSpec::store(a),
                ]
            }
        }
    }
}

/// Configuration of a STREAM experiment.
#[derive(Debug, Clone, Serialize)]
pub struct StreamConfig {
    /// Array length N in double-precision words (paper: 2²⁵ for Fig. 2).
    pub n: usize,
    /// COMMON-block offset in DP words (the Fig. 2 x-axis).
    pub offset: usize,
    /// Number of OpenMP threads.
    pub threads: usize,
    /// Measured sweeps (the paper uses ntimes = 10; shape needs ≥ 2).
    pub ntimes: usize,
}

impl StreamConfig {
    /// The Fig. 2 setup at a given offset and thread count, with a reduced
    /// default N (the periodicity only needs N ≫ cache and N·8 ≡ 0 mod 512;
    /// use `n = 1 << 25` to match the paper exactly).
    pub fn fig2(n: usize, offset: usize, threads: usize) -> Self {
        StreamConfig {
            n,
            offset,
            threads,
            ntimes: 2,
        }
    }

    /// Total bytes the benchmark reports moving per measured sweep.
    pub fn reported_bytes_per_sweep(&self, kernel: StreamKernel) -> u64 {
        self.n as u64 * kernel.reported_bytes_per_elem()
    }
}

/// Base addresses of the three COMMON-block arrays under `cfg`: one
/// contiguous page-aligned region (Fortran storage sequence), each array
/// `ndim = N + offset` words long.
pub fn common_block_bases(cfg: &StreamConfig) -> (u64, u64, u64) {
    let ndim = (cfg.n + cfg.offset) as u64 * 8;
    let mut va = VirtualAlloc::new();
    let a = va.alloc(3 * ndim, 8192, 0);
    (a, a + ndim, a + 2 * ndim)
}

/// Builds the per-thread simulator programs for one STREAM run: a warm-up
/// sweep, a barrier (id 0, where the measurement window opens), then
/// `ntimes` measured sweeps separated by barriers.
pub fn build_trace(cfg: &StreamConfig, kernel: StreamKernel, chip: &ChipConfig) -> Vec<Program> {
    let (a, b, c) = common_block_bases(cfg);
    let line = chip.l2.line;

    let assignment = chunk_assignment(Schedule::Static, cfg.n, cfg.threads);
    (0..cfg.threads)
        .map(|tid| {
            let chunks = assignment[tid].clone();
            let kernel_streams = kernel.streams(a, b, c);
            let flops = kernel.flops_per_elem();
            let mut sweeps = Vec::new();
            for _ in 0..=cfg.ntimes {
                // One sweep = this thread's chunks in order.
                let mut per_chunk: Vec<StreamLoop> = Vec::new();
                for ch in &chunks {
                    let bases: Vec<StreamSpec> = kernel_streams
                        .iter()
                        .map(|s| StreamSpec {
                            base: s.base + ch.start as u64 * 8,
                            dir: s.dir,
                        })
                        .collect();
                    per_chunk.push(StreamLoop::new(bases, ch.len(), 8, flops, line));
                }
                sweeps.push(per_chunk.into_iter().flatten());
            }
            chain_with_barriers(sweeps, 0)
        })
        .collect()
}

/// Result of a simulated STREAM run.
#[derive(Debug, Clone, Serialize)]
pub struct StreamResult {
    /// Reported bandwidth (STREAM convention, RFO not counted), GB/s.
    pub reported_gbs: f64,
    /// Actual DRAM bandwidth including RFO and write-backs, GB/s.
    pub actual_gbs: f64,
    /// Controller busy-cycle balance (1.0 = even).
    pub mc_balance: f64,
    /// Raw statistics.
    pub stats: SimStats,
}

/// Runs one STREAM configuration on the T2 simulator.
pub fn run_sim(
    cfg: &StreamConfig,
    kernel: StreamKernel,
    chip: &ChipConfig,
    placement: &Placement,
) -> StreamResult {
    let programs = build_trace(cfg, kernel, chip);
    let threads = place_threads(programs, placement, chip.core.n_cores);
    let sim = Simulation::new(chip.clone()).measure_after_barrier(0);
    let stats = sim.run(threads);
    let reported = cfg.reported_bytes_per_sweep(kernel) * cfg.ntimes as u64;
    StreamResult {
        reported_gbs: stats.reported_bandwidth_gbs(chip, reported),
        actual_gbs: stats.actual_bandwidth_gbs(chip),
        mc_balance: stats.mc_balance(),
        stats,
    }
}

/// Like [`run_sim`] but with time-resolved tracing: also returns a
/// [`Timeline`] sampled every `interval` cycles, its stream labels set to
/// the kernel's three arrays (A/B/C) so
/// [`t2opt_sim::telemetry::alias::AliasReport`] can name aliased streams.
pub fn run_sim_traced(
    cfg: &StreamConfig,
    kernel: StreamKernel,
    chip: &ChipConfig,
    placement: &Placement,
    interval: u64,
) -> (StreamResult, Timeline) {
    let programs = build_trace(cfg, kernel, chip);
    let threads = place_threads(programs, placement, chip.core.n_cores);
    let sim = Simulation::new(chip.clone()).measure_after_barrier(0);
    let (a, b, c) = common_block_bases(cfg);
    let trace = TraceConfig::with_interval(interval).streams(vec![
        StreamLabel::new("A", a),
        StreamLabel::new("B", b),
        StreamLabel::new("C", c),
    ]);
    let (stats, timeline) = sim.run_traced(threads, &trace);
    let reported = cfg.reported_bytes_per_sweep(kernel) * cfg.ntimes as u64;
    let result = StreamResult {
        reported_gbs: stats.reported_bandwidth_gbs(chip, reported),
        actual_gbs: stats.actual_bandwidth_gbs(chip),
        mc_balance: stats.mc_balance(),
        stats,
    };
    (result, timeline)
}

/// Host-side STREAM (plain slices + thread pool), returning the reported
/// bandwidth in GB/s. Used for API demonstrations and correctness tests —
/// host hardware does not exhibit the T2 aliasing.
pub fn run_host(cfg: &StreamConfig, kernel: StreamKernel, pool: &ThreadPool) -> f64 {
    let ndim = cfg.n + cfg.offset;
    let mut a = vec![1.0f64; ndim];
    let mut b = vec![2.0f64; ndim];
    let mut c = vec![0.0f64; ndim];
    let scalar = 3.0f64;
    let n = cfg.n;

    let best = best_secs(cfg.ntimes, || match kernel {
        StreamKernel::Copy => host_sweep(pool, &mut c[..n], |i| a[i]),
        StreamKernel::Scale => host_sweep(pool, &mut b[..n], |i| scalar * c[i]),
        StreamKernel::Add => host_sweep(pool, &mut c[..n], |i| a[i] + b[i]),
        StreamKernel::Triad => host_sweep(pool, &mut a[..n], |i| b[i] + scalar * c[i]),
    });
    cfg.reported_bytes_per_sweep(kernel) as f64 / best / 1e9
}

/// One `schedule(static)` sweep `dst[i] = f(i)`: each worker writes its own
/// chunk of `dst`.
fn host_sweep(pool: &ThreadPool, dst: &mut [f64], f: impl Fn(usize) -> f64 + Sync) {
    pool.run_parts(
        split_static(dst, pool.num_threads()),
        |_tid, (start, chunk)| {
            for (i, x) in (start..).zip(chunk) {
                *x = f(i);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_chip() -> ChipConfig {
        ChipConfig::ultrasparc_t2()
    }

    #[test]
    fn trace_touches_expected_volume() {
        let chip = small_chip();
        let cfg = StreamConfig {
            n: 1 << 12,
            offset: 0,
            threads: 8,
            ntimes: 1,
        };
        let res = run_sim(&cfg, StreamKernel::Triad, &chip, &Placement::t2_scatter());
        // Warm-up + 1 measured sweep; measured window sees one sweep of
        // demand reads: arrays ≫ L2 is not true here, but with offset 0 and
        // 3 arrays × 32 KiB = 96 KiB it all fits — so the measured sweep can
        // hit. Just sanity-check the plumbing produced *some* traffic and a
        // positive bandwidth.
        assert!(res.reported_gbs > 0.0);
        assert!(res.stats.mem_ops > 0);
    }

    #[test]
    fn triad_beats_copy_on_t2() {
        // §2.1: copy suffers more from bidirectional transfer overhead
        // (1 write per read vs 1 write per 2 reads).
        let chip = small_chip();
        // Arrays must dwarf the 4 MB L2 (3 arrays × 8 MiB here).
        let cfg = StreamConfig {
            n: 1 << 20,
            offset: 37,
            threads: 64,
            ntimes: 1,
        };
        let copy = run_sim(&cfg, StreamKernel::Copy, &chip, &Placement::t2_scatter());
        let triad = run_sim(&cfg, StreamKernel::Triad, &chip, &Placement::t2_scatter());
        assert!(
            triad.reported_gbs > copy.reported_gbs,
            "triad {:.1} should beat copy {:.1}",
            triad.reported_gbs,
            copy.reported_gbs
        );
    }

    #[test]
    fn offset_zero_is_a_deep_minimum() {
        // The Fig. 2 signature: offset 0 ≪ offset 16 (= optimal 128 B), and
        // offset 64 (≡ 0 mod 512 B) is as bad as offset 0.
        let chip = small_chip();
        let n = 1 << 20;
        let bw = |off| {
            run_sim(
                &StreamConfig {
                    n,
                    offset: off,
                    threads: 64,
                    ntimes: 1,
                },
                StreamKernel::Triad,
                &chip,
                &Placement::t2_scatter(),
            )
            .reported_gbs
        };
        let at0 = bw(0);
        let at16 = bw(16);
        let at64 = bw(64);
        assert!(at16 > 1.4 * at0, "offset 16 {at16:.1} vs offset 0 {at0:.1}");
        assert!(
            (at64 - at0).abs() / at0 < 0.25,
            "offset 64 {at64:.1} must be ≈ offset 0 {at0:.1}"
        );
    }

    #[test]
    fn traced_run_reports_identical_stats() {
        let chip = small_chip();
        let cfg = StreamConfig {
            n: 1 << 14,
            offset: 0,
            threads: 16,
            ntimes: 1,
        };
        let plain = run_sim(&cfg, StreamKernel::Triad, &chip, &Placement::t2_scatter());
        let (traced, timeline) = run_sim_traced(
            &cfg,
            StreamKernel::Triad,
            &chip,
            &Placement::t2_scatter(),
            2048,
        );
        assert_eq!(
            plain.stats, traced.stats,
            "tracing must not perturb the simulation"
        );
        assert_eq!(timeline.interval, 2048);
        assert_eq!(timeline.streams.len(), 3);
        assert!(!timeline.windows.is_empty());
        // All three COMMON-block arrays are congruent mod 512 at offset 0.
        let (a, b, c) = common_block_bases(&cfg);
        assert_eq!(a % 512, b % 512);
        assert_eq!(b % 512, c % 512);
    }

    #[test]
    fn host_stream_produces_correct_values() {
        let pool = ThreadPool::new(4);
        let cfg = StreamConfig {
            n: 10_000,
            offset: 0,
            threads: 4,
            ntimes: 1,
        };
        // Just verify all four kernels run; value checks below.
        for k in [
            StreamKernel::Copy,
            StreamKernel::Scale,
            StreamKernel::Add,
            StreamKernel::Triad,
        ] {
            let gbs = run_host(&cfg, k, &pool);
            assert!(gbs > 0.0, "{} produced non-positive bandwidth", k.name());
        }
    }

    #[test]
    fn host_sweep_computes_correctly() {
        let pool = ThreadPool::new(3);
        let src: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let mut dst = vec![0.0; 1000];
        host_sweep(&pool, &mut dst, |i| 2.0 * src[i]);
        assert!(dst.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f64));
        // Fewer elements than workers: the idle workers write nothing.
        let mut short = vec![0.0; 2];
        host_sweep(&pool, &mut short, |i| src[i] + 1.0);
        assert_eq!(short, vec![1.0, 2.0]);
    }

    #[test]
    fn reported_convention_excludes_rfo() {
        let cfg = StreamConfig {
            n: 100,
            offset: 0,
            threads: 1,
            ntimes: 1,
        };
        assert_eq!(cfg.reported_bytes_per_sweep(StreamKernel::Triad), 2400);
        assert_eq!(cfg.reported_bytes_per_sweep(StreamKernel::Copy), 1600);
    }

    #[test]
    fn common_block_layout_congruence() {
        // With N·8 ≡ 0 (mod 512), array separations mod 512 are offset·8.
        let chip = small_chip();
        let cfg = StreamConfig {
            n: 1 << 12,
            offset: 32,
            threads: 1,
            ntimes: 1,
        };
        let programs = build_trace(&cfg, StreamKernel::Triad, &chip);
        assert_eq!(programs.len(), 1);
        // First ops: load B, load C, (compute), store A. B's base mod 512 =
        // (N+32)·8 mod 512 = 256.
        use t2opt_sim::trace::Op;
        let ops: Vec<_> = programs.into_iter().next().unwrap().take(2).collect();
        match ops[0] {
            Op::Read(addr) => assert_eq!(addr % 512, 256),
            ref other => panic!("expected read, got {other:?}"),
        }
        match ops[1] {
            Op::Read(addr) => assert_eq!(addr % 512, 0), // C: 2·(N+32)·8 ≡ 0
            ref other => panic!("expected read, got {other:?}"),
        }
    }
}
