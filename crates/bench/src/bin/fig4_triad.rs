//! Figure 4: vector triad performance vs array length for different
//! alignment/offset constraints, on the simulated UltraSPARC T2.
//!
//! The paper scans N ∈ [9 990 050, 9 990 250] (64 threads) and compares
//! plain `malloc` arrays, 8 kB-aligned arrays, and 8 kB alignment plus
//! byte offsets 32/64/128 (B, C, D shifted by 1×, 2×, 3× the offset).
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin fig4_triad             # scaled default
//! cargo run --release -p t2opt-bench --bin fig4_triad -- --full   # paper-size window
//! ```
//!
//! Expected shape: the plain line erratic with period 64 (DP words)
//! between a hard ceiling and a hard floor; align-8k pinned to the floor;
//! offset 128 pinned to the ceiling; offsets 32/64 in between (32 stays on
//! one controller — banks only; 64 reaches two controllers).

use t2opt_bench::experiments::{fig4_series, n_range};
use t2opt_bench::{write_json, Args, Table};
use t2opt_kernels::triad::TriadLayout;
use t2opt_sim::ChipConfig;

fn main() {
    let args = Args::from_env(&["hi", "json", "lo", "step", "threads"], &["full"]);
    let full = args.has_flag("full");
    // The aliasing pattern depends on N·8 mod 512, so any window of ≥ 64
    // consecutive N shows the full period; the paper's window starts at
    // 9,990,050. The scaled default uses a smaller base (arrays still ≫ L2).
    let (lo_default, hi_default) = if full {
        (9_990_050, 9_990_250)
    } else {
        (2_000_000, 2_000_128)
    };
    let lo: usize = args.get("lo", lo_default);
    let hi: usize = args.get("hi", hi_default);
    let step: usize = args.get("step", 2);
    let threads: usize = args.get("threads", 64);
    let chip = ChipConfig::ultrasparc_t2();

    let layouts = [
        TriadLayout::Plain,
        TriadLayout::Align8k,
        TriadLayout::AlignOffset(32),
        TriadLayout::AlignOffset(64),
        TriadLayout::AlignOffset(128),
    ];

    eprintln!("fig4: vector triad, N ∈ [{lo}, {hi}] step {step}, {threads} threads");
    let ns = n_range(lo, hi, step);
    let rows = fig4_series(&chip, &ns, &layouts, threads);

    let mut table = Table::new(vec!["N", "layout", "GB/s"]);
    for r in &rows {
        table.row(vec![
            r.n.to_string(),
            r.layout.clone(),
            format!("{:.2}", r.gbs),
        ]);
    }
    table.print();

    println!();
    let mut summary = Table::new(vec!["layout", "min GB/s", "max GB/s", "mean GB/s"]);
    for layout in &layouts {
        let label = layout.label();
        let series: Vec<f64> = rows
            .iter()
            .filter(|r| r.layout == label)
            .map(|r| r.gbs)
            .collect();
        let min = series.iter().copied().fold(f64::INFINITY, f64::min);
        let max = series.iter().copied().fold(0.0, f64::max);
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        summary.row(vec![
            label,
            format!("{min:.2}"),
            format!("{max:.2}"),
            format!("{mean:.2}"),
        ]);
    }
    summary.print();

    if let Some(path) = args.get_str("json") {
        write_json(path, &rows).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
