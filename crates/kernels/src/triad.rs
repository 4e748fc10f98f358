//! The vector triad `A(:) = B(:) + C(:)·D(:)` (§2.2) — the paper's flexible
//! bandwidth probe with three read streams and one write stream.
//!
//! Fig. 4 sweeps the array length N over a narrow window and compares:
//!
//! * **plain** — arrays allocated back to back with `malloc`, base
//!   addresses uncontrolled: performance is erratic with period 64 DP words
//!   between a hard ceiling (~4 controllers) and a hard floor (~1);
//! * **align 8k** — every array base on a page boundary: *forces* the floor
//!   (all streams congruent mod 512 B);
//! * **align 8k + offset k** — array bases additionally displaced by
//!   0·k, 1·k, 2·k, 3·k bytes: k = 128 pins the ceiling (each stream on its
//!   own controller), k = 64 stays on the floor (64 B flips only the bank
//!   bit), k = 32 lands in between.
//!
//! Fig. 5 measures the *software* overhead of the segmented-iterator
//! machinery against a plain parallel loop — reproduced here on the host
//! with [`run_host_segmented`] vs [`run_host_plain`].

use crate::common::{best_secs, place_threads, VirtualAlloc};
use serde::Serialize;
use t2opt_core::iter::seg_zip4;
use t2opt_core::layout::LayoutSpec;
use t2opt_core::seg_array::SegArray;
use t2opt_parallel::{chunk_assignment, split_static, Placement, Schedule, ThreadPool};
use t2opt_sim::trace::{chain_with_barriers, Program, StreamLoop, StreamSpec};
use t2opt_sim::{ChipConfig, SimStats, Simulation};

/// How the four arrays are laid out (the Fig. 4 variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TriadLayout {
    /// Contiguous `malloc` allocations, uncontrolled bases.
    Plain,
    /// Every array aligned to an 8 kB page boundary (the worst case).
    Align8k,
    /// 8 kB alignment plus per-array byte offsets 0, k, 2k, 3k for
    /// A, B, C, D respectively.
    AlignOffset(
        /// The offset step k in bytes (paper: 32, 64, 128).
        u32,
    ),
}

impl TriadLayout {
    /// Byte base addresses of A, B, C, D for `n`-element f64 arrays.
    pub fn bases(&self, n: usize, va: &mut VirtualAlloc) -> [u64; 4] {
        let bytes = n as u64 * 8;
        match *self {
            TriadLayout::Plain => {
                let a = va.malloc(bytes);
                let b = va.malloc(bytes);
                let c = va.malloc(bytes);
                let d = va.malloc(bytes);
                [a, b, c, d]
            }
            TriadLayout::Align8k => {
                let a = va.alloc(bytes, 8192, 0);
                let b = va.alloc(bytes, 8192, 0);
                let c = va.alloc(bytes, 8192, 0);
                let d = va.alloc(bytes, 8192, 0);
                [a, b, c, d]
            }
            TriadLayout::AlignOffset(k) => {
                let k = k as u64;
                let a = va.alloc(bytes, 8192, 0);
                let b = va.alloc(bytes, 8192, k);
                let c = va.alloc(bytes, 8192, 2 * k);
                let d = va.alloc(bytes, 8192, 3 * k);
                [a, b, c, d]
            }
        }
    }

    /// Human-readable label (matches the Fig. 4 legend).
    pub fn label(&self) -> String {
        match self {
            TriadLayout::Plain => "plain".into(),
            TriadLayout::Align8k => "align 8k".into(),
            TriadLayout::AlignOffset(k) => format!("align=8k offset={k}"),
        }
    }
}

/// Configuration of a vector-triad experiment.
#[derive(Debug, Clone, Serialize)]
pub struct TriadConfig {
    /// Array length in DP words.
    pub n: usize,
    /// Layout variant.
    pub layout: TriadLayout,
    /// Thread count.
    pub threads: usize,
    /// Measured sweeps.
    pub ntimes: usize,
}

/// Result of a simulated triad run.
#[derive(Debug, Clone, Serialize)]
pub struct TriadResult {
    /// Bandwidth counting 32 B per element (4 words), GB/s — the Fig. 4
    /// y-axis.
    pub gbs: f64,
    /// Raw statistics.
    pub stats: SimStats,
}

/// Builds per-thread simulator programs: warm-up sweep, barrier 0 (window
/// opens), then `ntimes` measured sweeps with barriers — the segment split
/// is the paper's manual ⌊N/t⌋+1 / ⌊N/t⌋ scheduling.
pub fn build_trace(cfg: &TriadConfig, chip: &ChipConfig) -> Vec<Program> {
    let mut va = VirtualAlloc::new();
    let line = chip.l2.line;
    let assignment = chunk_assignment(Schedule::Static, cfg.n, cfg.threads);

    // Per-thread byte base of each array's chunk. The *plain* variant is a
    // contiguous malloc'd array carved by the OpenMP static schedule, so
    // chunk starts land wherever ⌊N/t⌋ arithmetic puts them. The aligned
    // variants go through the paper's seg_array framework, where "all
    // arrays and also OpenMP chunks can be aligned on definite address
    // boundaries" (§2.2): every thread's segment starts on an 8 kB
    // boundary, displaced by the per-array byte offset.
    let chunk_bases: Vec<[u64; 4]> = match cfg.layout {
        TriadLayout::Plain => {
            let [a, b, c, d] = cfg.layout.bases(cfg.n, &mut va);
            (0..cfg.threads)
                .map(|t| {
                    let off = assignment[t].first().map_or(0, |ch| ch.start as u64 * 8);
                    [a + off, b + off, c + off, d + off]
                })
                .collect()
        }
        TriadLayout::Align8k | TriadLayout::AlignOffset(_) => {
            let k = match cfg.layout {
                TriadLayout::AlignOffset(k) => k as u64,
                _ => 0,
            };
            let max_chunk_bytes = assignment
                .iter()
                .filter_map(|c| c.first())
                .map(|ch| ch.len() as u64 * 8)
                .max()
                .unwrap_or(0);
            let seg_stride = (max_chunk_bytes + 8192 + 8191) & !8191;
            let array_span = seg_stride * cfg.threads as u64;
            let a = va.alloc(array_span, 8192, 0);
            let b = va.alloc(array_span, 8192, k);
            let c = va.alloc(array_span, 8192, 2 * k);
            let d = va.alloc(array_span, 8192, 3 * k);
            (0..cfg.threads)
                .map(|t| {
                    let s = t as u64 * seg_stride;
                    [a + s, b + s, c + s, d + s]
                })
                .collect()
        }
    };

    (0..cfg.threads)
        .map(|tid| {
            let chunks = assignment[tid].clone();
            let [a, b, c, d] = chunk_bases[tid];
            let chunk_start = chunks.first().map_or(0, |ch| ch.start);
            let mut sweeps = Vec::new();
            for _ in 0..=cfg.ntimes {
                let mut per_chunk: Vec<StreamLoop> = Vec::new();
                for ch in &chunks {
                    // Offsets are relative to this thread's own chunk base.
                    let off = (ch.start - chunk_start) as u64 * 8;
                    per_chunk.push(StreamLoop::new(
                        vec![
                            StreamSpec::load(b + off),
                            StreamSpec::load(c + off),
                            StreamSpec::load(d + off),
                            StreamSpec::store(a + off),
                        ],
                        ch.len(),
                        8,
                        2.0,
                        line,
                    ));
                }
                sweeps.push(per_chunk.into_iter().flatten());
            }
            chain_with_barriers(sweeps, 0)
        })
        .collect()
}

/// Runs one vector-triad configuration on the T2 simulator.
pub fn run_sim(cfg: &TriadConfig, chip: &ChipConfig, placement: &Placement) -> TriadResult {
    let programs = build_trace(cfg, chip);
    let threads = place_threads(programs, placement, chip.core.n_cores);
    let sim = Simulation::new(chip.clone()).measure_after_barrier(0);
    let stats = sim.run(threads);
    let reported = cfg.n as u64 * 32 * cfg.ntimes as u64;
    TriadResult {
        gbs: stats.reported_bandwidth_gbs(chip, reported),
        stats,
    }
}

/// Host triad over plain slices with the pool (the Fig. 5 baseline): each
/// worker runs [`triad_kernel`] on its `schedule(static)` chunk, and the
/// best of `ntimes + 1` sweeps counts. Returns GB/s at 32 B/element.
pub fn run_host_plain(n: usize, pool: &ThreadPool, ntimes: usize) -> f64 {
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let d = vec![0.5f64; n];
    let best = best_secs(ntimes, || host_plain_sweep(pool, &mut a, &b, &c, &d));
    std::hint::black_box(&a);
    n as f64 * 32.0 / best / 1e9
}

/// One parallel triad sweep over plain slices: each worker runs
/// [`triad_kernel`] on its `schedule(static)` chunk of the four arrays.
fn host_plain_sweep(pool: &ThreadPool, a: &mut [f64], b: &[f64], c: &[f64], d: &[f64]) {
    pool.run_parts(split_static(a, pool.num_threads()), |_tid, (start, a)| {
        let end = start + a.len();
        triad_kernel(a, &b[start..end], &c[start..end], &d[start..end]);
    });
}

/// Host triad through the segmented-iterator machinery: the arrays are
/// `SegArray`s with one segment per thread (the paper's manual
/// scheduling), each worker runs [`triad_kernel`] on its own segments, and
/// the best of `ntimes + 1` sweeps counts. Returns GB/s at 32 B/element.
pub fn run_host_segmented(n: usize, pool: &ThreadPool, ntimes: usize) -> f64 {
    let spec = LayoutSpec::new().base_align(8192);
    let seg_array = || {
        SegArray::<f64>::builder(n)
            .segments(pool.num_threads())
            .spec(spec.clone())
            .build()
    };
    let (mut a, mut b, mut c, mut d) = (seg_array(), seg_array(), seg_array(), seg_array());
    b.fill(1.0);
    c.fill(2.0);
    d.fill(0.5);
    let best = best_secs(ntimes, || host_segmented_sweep(pool, &mut a, &b, &c, &d));
    std::hint::black_box(a.get(n.saturating_sub(1)));
    n as f64 * 32.0 / best / 1e9
}

/// One parallel triad sweep through the segments: worker `k` runs
/// [`triad_kernel`] on segment `k` of the four arrays, which must have at
/// most one segment per worker.
fn host_segmented_sweep(
    pool: &ThreadPool,
    a: &mut SegArray<f64>,
    b: &SegArray<f64>,
    c: &SegArray<f64>,
    d: &SegArray<f64>,
) {
    pool.run_parts(a.segments_mut(), |k, a| {
        triad_kernel(a, b.segment(k), c.segment(k), d.segment(k));
    });
}

/// The serial low-level triad kernel — "purely serial... compiled
/// separately... to produce the possibly most efficient machine code"
/// (§2.2). Written over plain slices so the compiler vectorizes it exactly
/// like a C or Fortran loop.
#[inline]
pub fn triad_kernel(a: &mut [f64], b: &[f64], c: &[f64], d: &[f64]) {
    let n = a.len().min(b.len()).min(c.len()).min(d.len());
    for i in 0..n {
        a[i] = b[i] + c[i] * d[i];
    }
}

/// Sequential single-threaded triad through [`seg_zip4`] (correctness
/// reference for the hierarchical machinery).
pub fn triad_segmented_serial(
    a: &mut SegArray<f64>,
    b: &SegArray<f64>,
    c: &SegArray<f64>,
    d: &SegArray<f64>,
) {
    seg_zip4(a, b, c, d, triad_kernel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2opt_core::iter::HierExt;

    #[test]
    fn layout_bases_have_documented_congruences() {
        let mut va = VirtualAlloc::new();
        let [a, b, c, d] = TriadLayout::Align8k.bases(1000, &mut va);
        for base in [a, b, c, d] {
            assert_eq!(base % 8192, 0);
        }
        let mut va = VirtualAlloc::new();
        let [a, b, c, d] = TriadLayout::AlignOffset(128).bases(1000, &mut va);
        assert_eq!(a % 512, 0);
        assert_eq!(b % 512, 128);
        assert_eq!(c % 512, 256);
        assert_eq!(d % 512, 384);
    }

    #[test]
    fn fig4_ordering_floor_and_ceiling() {
        // align-8k = hard floor (all four arrays on one controller);
        // offset 32 gives bases 0/32/64/96 — still all on controller 0
        // (only the bank bit varies) → near the floor;
        // offset 64 gives 0/64/128/192 — two controllers → midway;
        // offset 128 gives 0/128/256/384 — all four controllers → ceiling.
        let chip = ChipConfig::ultrasparc_t2();
        let n = 1 << 20; // 4 arrays × 8 MiB ≫ L2
        let bw = |layout| {
            run_sim(
                &TriadConfig {
                    n,
                    layout,
                    threads: 64,
                    ntimes: 1,
                },
                &chip,
                &Placement::t2_scatter(),
            )
            .gbs
        };
        let floor = bw(TriadLayout::Align8k);
        let k32 = bw(TriadLayout::AlignOffset(32));
        let k64 = bw(TriadLayout::AlignOffset(64));
        let ceil = bw(TriadLayout::AlignOffset(128));
        assert!(ceil > 1.5 * floor, "ceiling {ceil:.1} vs floor {floor:.1}");
        // offset 32 keeps one controller (it only spreads that controller's
        // two banks), offset 64 reaches two controllers, offset 128 all
        // four: the curves must be ordered floor ≤ 32 ≤ 64 < 128.
        assert!(
            k32 >= 0.9 * floor && k32 <= 1.05 * k64 && k32 < 0.95 * ceil,
            "offset 32 ({k32:.1}) should sit between floor ({floor:.1}) and offset 64 ({k64:.1})"
        );
        // Two controllers already recover most of the ceiling in the
        // simulator (the thread-serialization chain, not controller drain,
        // binds there); require only that it clearly beats the floor and
        // does not exceed the four-controller case.
        assert!(
            k64 > 1.2 * floor && k64 <= 1.1 * ceil,
            "offset 64 ({k64:.1}) must sit between floor ({floor:.1}) and ceiling ({ceil:.1})"
        );
    }

    #[test]
    fn segmented_serial_matches_plain() {
        let n = 10_000;
        let t = 8;
        let spec = LayoutSpec::t2_rotating();
        let mut a = SegArray::<f64>::builder(n)
            .segments(t)
            .spec(spec.clone())
            .build();
        let mut b = SegArray::<f64>::builder(n)
            .segments(t)
            .spec(spec.clone())
            .build();
        let mut c = SegArray::<f64>::builder(n)
            .segments(t)
            .spec(spec.clone())
            .build();
        let mut d = SegArray::<f64>::builder(n).segments(t).spec(spec).build();
        b.fill_with(|i| i as f64);
        c.fill_with(|i| (i % 7) as f64);
        d.fill_with(|i| 1.0 / (1.0 + i as f64));
        triad_segmented_serial(&mut a, &b, &c, &d);
        let reference: Vec<f64> = (0..n)
            .map(|i| i as f64 + (i % 7) as f64 * (1.0 / (1.0 + i as f64)))
            .collect();
        assert_eq!(a.max_abs_diff(&reference), 0.0, "must be bit-identical");
    }

    #[test]
    fn host_paths_run() {
        let pool = ThreadPool::new(4);
        assert!(run_host_segmented(100_000, &pool, 1) > 0.0);
        assert!(run_host_plain(100_000, &pool, 1) > 0.0);
    }

    #[test]
    fn both_fig5_sweeps_write_the_serial_result() {
        // Both Fig. 5 paths must compute what the serial kernel computes,
        // bit for bit, including with more workers than elements.
        for (n, t) in [(10_007, 4), (3, 5)] {
            let pool = ThreadPool::new(t);
            let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let c: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
            let d: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let mut serial = vec![0.0; n];
            triad_kernel(&mut serial, &b, &c, &d);

            let mut plain = vec![f64::NAN; n];
            host_plain_sweep(&pool, &mut plain, &b, &c, &d);
            assert_eq!(plain, serial, "plain sweep, n={n} t={t}");

            let seg_array = |src: &[f64]| {
                let mut s = SegArray::<f64>::builder(n)
                    .segments(t)
                    .spec(LayoutSpec::new().base_align(8192))
                    .build();
                s.fill_with(|i| src[i]);
                s
            };
            let mut a = seg_array(&vec![f64::NAN; n]);
            host_segmented_sweep(
                &pool,
                &mut a,
                &seg_array(&b),
                &seg_array(&c),
                &seg_array(&d),
            );
            assert_eq!(a.to_vec(), serial, "segmented sweep, n={n} t={t}");
        }
    }

    #[test]
    fn trace_volume_matches_n() {
        let chip = ChipConfig::ultrasparc_t2();
        let cfg = TriadConfig {
            n: 4096,
            layout: TriadLayout::Align8k,
            threads: 4,
            ntimes: 1,
        };
        let programs = build_trace(&cfg, &chip);
        use t2opt_sim::trace::Op;
        let mut reads = 0usize;
        let mut writes = 0usize;
        for p in programs {
            for op in p {
                match op {
                    Op::Read(_) => reads += 1,
                    Op::Write(_) => writes += 1,
                    _ => {}
                }
            }
        }
        // 2 sweeps (warm-up + 1 measured) × 3 read streams × 512 lines.
        assert_eq!(reads, 2 * 3 * 4096 * 8 / 64);
        assert_eq!(writes, 2 * 4096 * 8 / 64);
    }
}
