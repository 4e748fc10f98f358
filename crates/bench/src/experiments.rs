//! Experiment drivers: one function per paper figure, returning the series
//! rows the figure plots. The binaries are thin wrappers around these.

use serde::Serialize;
use t2opt_kernels::jacobi::{self, JacobiConfig};
use t2opt_kernels::lbm::{self, LbmConfig, LbmLayout};
use t2opt_kernels::stream::{self, StreamConfig, StreamKernel};
use t2opt_kernels::triad::{self, TriadConfig, TriadLayout};
use t2opt_parallel::{Placement, ThreadPool};
use t2opt_sim::ChipConfig;

/// Runs `f` over `items` on up to `available_parallelism` host threads,
/// preserving order. Each simulator run is single-threaded, so sweeps
/// parallelize embarrassingly.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    ThreadPool::new(workers).map(&items, |_tid, item| f(item))
}

// ---------------------------------------------------------------------
// Figure 2 — STREAM bandwidth vs COMMON-block offset
// ---------------------------------------------------------------------

/// One Fig. 2 data point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Row {
    /// COMMON-block offset in DP words (x-axis).
    pub offset: usize,
    /// Thread count (curve).
    pub threads: usize,
    /// Kernel name.
    pub kernel: String,
    /// Reported bandwidth in GB/s (y-axis).
    pub gbs: f64,
    /// Controller busy balance (diagnostic).
    pub mc_balance: f64,
}

/// Scatter placement across all of the chip's cores (identical to
/// [`Placement::t2_scatter`] for the T2 configuration).
pub fn chip_scatter(chip: &ChipConfig) -> Placement {
    Placement::Scatter {
        n_cores: chip.core.n_cores,
    }
}

/// Sweeps STREAM bandwidth vs offset for each thread count (Fig. 2).
pub fn fig2_series(
    chip: &ChipConfig,
    kernel: StreamKernel,
    n: usize,
    offsets: &[usize],
    thread_counts: &[usize],
) -> Vec<Fig2Row> {
    let mut points = Vec::new();
    for &threads in thread_counts {
        for &offset in offsets {
            points.push((offset, threads));
        }
    }
    let placement = chip_scatter(chip);
    par_map(points, |&(offset, threads)| {
        let cfg = StreamConfig::fig2(n, offset, threads);
        let res = stream::run_sim(&cfg, kernel, chip, &placement);
        Fig2Row {
            offset,
            threads,
            kernel: kernel.name().to_string(),
            gbs: res.reported_gbs,
            mc_balance: res.mc_balance,
        }
    })
}

// ---------------------------------------------------------------------
// Figure 4 — vector triad vs array length for different layouts
// ---------------------------------------------------------------------

/// One Fig. 4 data point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    /// Array length N (x-axis).
    pub n: usize,
    /// Layout label (curve).
    pub layout: String,
    /// Bandwidth at 32 B/element in GB/s (y-axis).
    pub gbs: f64,
}

/// Sweeps vector-triad performance vs N for the Fig. 4 layout variants.
pub fn fig4_series(
    chip: &ChipConfig,
    ns: &[usize],
    layouts: &[TriadLayout],
    threads: usize,
) -> Vec<Fig4Row> {
    let mut points = Vec::new();
    for &layout in layouts {
        for &n in ns {
            points.push((n, layout));
        }
    }
    par_map(points, |&(n, layout)| {
        let cfg = TriadConfig {
            n,
            layout,
            threads,
            ntimes: 1,
        };
        let res = triad::run_sim(&cfg, chip, &Placement::t2_scatter());
        Fig4Row {
            n,
            layout: layout.label(),
            gbs: res.gbs,
        }
    })
}

// ---------------------------------------------------------------------
// Figure 5 — segmented-iterator overhead vs plain loop (host)
// ---------------------------------------------------------------------

/// One Fig. 5 data point (host measurement).
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    /// Array length N (x-axis, log scale in the paper).
    pub n: usize,
    /// Plain parallel-loop bandwidth, GB/s.
    pub plain_gbs: f64,
    /// Segmented-iterator bandwidth, GB/s.
    pub segmented_gbs: f64,
    /// Relative overhead of the segmented version in percent
    /// (positive = slower than plain).
    pub overhead_pct: f64,
}

/// Measures the segmented-iterator overhead on the host (Fig. 5): same
/// kernel through a plain pooled loop and through `SegArray` segments.
pub fn fig5_series(pool: &ThreadPool, ns: &[usize], ntimes: usize) -> Vec<Fig5Row> {
    // Host timing: run sizes sequentially (parallelism lives in the pool).
    ns.iter()
        .map(|&n| {
            let plain = triad::run_host_plain(n, pool, ntimes);
            let seg = triad::run_host_segmented(n, pool, ntimes);
            Fig5Row {
                n,
                plain_gbs: plain,
                segmented_gbs: seg,
                overhead_pct: (plain / seg - 1.0) * 100.0,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 6 — Jacobi MLUPs/s vs problem size
// ---------------------------------------------------------------------

/// One Fig. 6 data point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// Grid side N (x-axis).
    pub n: usize,
    /// Thread count.
    pub threads: usize,
    /// Series label ("optimized" / "plain").
    pub variant: String,
    /// MLUPs/s (y-axis).
    pub mlups: f64,
    /// L2 hit rate (diagnostic — the static,1 story).
    pub l2_hit_rate: f64,
}

/// Sweeps the Jacobi solver vs N: optimized layout for each thread count
/// plus the plain reference at `plain_threads` (Fig. 6).
pub fn fig6_series(
    chip: &ChipConfig,
    ns: &[usize],
    thread_counts: &[usize],
    plain_threads: usize,
) -> Vec<Fig6Row> {
    let mut points: Vec<(usize, usize, bool)> = Vec::new();
    for &threads in thread_counts {
        for &n in ns {
            points.push((n, threads, false));
        }
    }
    for &n in ns {
        points.push((n, plain_threads, true));
    }
    par_map(points, |&(n, threads, plain)| {
        let cfg = if plain {
            JacobiConfig::plain(n, threads)
        } else {
            JacobiConfig::optimized(n, threads)
        };
        let res = jacobi::run_sim(&cfg, chip, &Placement::t2_scatter());
        Fig6Row {
            n,
            threads,
            variant: if plain {
                "plain".into()
            } else {
                "optimized".into()
            },
            mlups: res.mlups,
            l2_hit_rate: res.l2_hit_rate,
        }
    })
}

// ---------------------------------------------------------------------
// Figure 7 — LBM MLUPs/s vs domain size for layouts / fusion / threads
// ---------------------------------------------------------------------

/// One Fig. 7 data point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Row {
    /// Domain side N (x-axis).
    pub n: usize,
    /// Series label, e.g. "64 T, IvJK, fused I-J".
    pub series: String,
    /// MLUPs/s (y-axis).
    pub mlups: f64,
    /// L2 hit rate (diagnostic — thrashing shows up here).
    pub l2_hit_rate: f64,
}

/// One Fig. 7 series descriptor.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Series {
    /// Thread count.
    pub threads: usize,
    /// Data layout.
    pub layout: LbmLayout,
    /// Fused z·y loop?
    pub fused: bool,
    /// Element size in bytes (8 = double; 4 = the §2.4 precision check).
    pub elem_size: usize,
}

impl Fig7Series {
    /// Label matching the paper's legend style.
    pub fn label(&self) -> String {
        let mut s = format!("{} T, {}", self.threads, self.layout.label());
        if self.fused {
            s.push_str(", fused I-J");
        }
        if self.elem_size == 4 {
            s.push_str(", f32");
        }
        s
    }

    /// The four series of the paper's Fig. 7.
    pub fn paper_set() -> Vec<Fig7Series> {
        vec![
            Fig7Series {
                threads: 64,
                layout: LbmLayout::IJKv,
                fused: false,
                elem_size: 8,
            },
            Fig7Series {
                threads: 64,
                layout: LbmLayout::IvJK,
                fused: false,
                elem_size: 8,
            },
            Fig7Series {
                threads: 64,
                layout: LbmLayout::IvJK,
                fused: true,
                elem_size: 8,
            },
            Fig7Series {
                threads: 32,
                layout: LbmLayout::IvJK,
                fused: true,
                elem_size: 8,
            },
        ]
    }
}

/// Sweeps LBM performance vs domain size for the given series (Fig. 7).
pub fn fig7_series(chip: &ChipConfig, ns: &[usize], series: &[Fig7Series]) -> Vec<Fig7Row> {
    let mut points = Vec::new();
    for &s in series {
        for &n in ns {
            points.push((n, s));
        }
    }
    par_map(points, |&(n, s)| {
        let cfg = LbmConfig {
            elem_size: s.elem_size,
            ..LbmConfig::new(n, s.layout, s.threads, s.fused)
        };
        let res = lbm::run_sim(&cfg, chip, &Placement::t2_scatter());
        Fig7Row {
            n,
            series: s.label(),
            mlups: res.mlups,
            l2_hit_rate: res.l2_hit_rate,
        }
    })
}

/// Convenience: the default offsets of the Fig. 2 sweep (0..=max, step).
pub fn offset_range(max: usize, step: usize) -> Vec<usize> {
    (0..=max).step_by(step.max(1)).collect()
}

/// Convenience: an inclusive integer range with a step (Fig. 4/6/7 x-axes).
pub fn n_range(lo: usize, hi: usize, step: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut n = lo;
    while n <= hi {
        v.push(n);
        n += step.max(1);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100).collect::<Vec<usize>>(), |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn ranges() {
        assert_eq!(offset_range(8, 4), vec![0, 4, 8]);
        assert_eq!(n_range(10, 16, 3), vec![10, 13, 16]);
    }

    #[test]
    fn fig7_labels() {
        let s = Fig7Series {
            threads: 64,
            layout: LbmLayout::IvJK,
            fused: true,
            elem_size: 8,
        };
        assert_eq!(s.label(), "64 T, IvJK, fused I-J");
    }

    #[test]
    fn tiny_fig2_sweep_runs() {
        let chip = ChipConfig::ultrasparc_t2();
        let rows = fig2_series(&chip, StreamKernel::Triad, 1 << 14, &[0, 16], &[8]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.gbs > 0.0));
    }
}
