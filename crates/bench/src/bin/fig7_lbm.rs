//! Figure 7: D3Q19 lattice-Boltzmann performance vs domain size for
//! different data layouts and scheduling methodologies, on the simulated
//! UltraSPARC T2.
//!
//! The paper compares, on cubic N³ domains (N = 64..320):
//! 64 T IJKv, 64 T IvJK, 64 T IvJK with fused (coalesced) I-J loops, and
//! 32 T IvJK fused.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin fig7_lbm               # scaled default
//! cargo run --release -p t2opt-bench --bin fig7_lbm -- --full     # paper range N ≤ 320
//! cargo run --release -p t2opt-bench --bin fig7_lbm -- --precision both
//! ```
//!
//! Expected shape: IvJK ≈ 2× IJKv and smoother; catastrophic dips where
//! N+2 ≡ 0 (mod 64) (cache thrashing, IJKv); the modulo-effect sawtooth
//! removed by coalescing; single vs double precision nearly identical
//! (FPU-bound, §2.4).

use t2opt_bench::experiments::{fig7_series, n_range, Fig7Series};
use t2opt_bench::{write_json, Args, Table};
use t2opt_kernels::lbm::LbmLayout;
use t2opt_sim::ChipConfig;

fn main() {
    let args = Args::from_env(&["hi", "json", "lo", "precision", "step"], &["full"]);
    let full = args.has_flag("full");
    let lo: usize = args.get("lo", 64);
    let hi: usize = args.get("hi", if full { 320 } else { 160 });
    let step: usize = args.get("step", if full { 8 } else { 16 });
    let chip = ChipConfig::ultrasparc_t2();

    let mut series = Fig7Series::paper_set();
    if matches!(args.get_str("precision"), Some("both") | Some("f32")) {
        // E8: single precision barely helps — the kernel is FPU-bound, and
        // the SPARC core's peak is identical for f32 and f64.
        series.push(Fig7Series {
            threads: 64,
            layout: LbmLayout::IvJK,
            fused: true,
            elem_size: 4,
        });
    }

    // Include the thrashing sizes N + 2 ≡ 0 (mod 64) explicitly.
    let mut ns = n_range(lo, hi, step);
    for bad in [62usize, 126, 190, 254, 318] {
        if bad >= lo && bad <= hi && !ns.contains(&bad) {
            ns.push(bad);
        }
    }
    ns.sort_unstable();

    eprintln!("fig7: D3Q19 LBM, N ∈ [{lo}, {hi}] step {step} (+ thrashing sizes)");
    let rows = fig7_series(&chip, &ns, &series);

    let mut table = Table::new(vec!["N", "series", "MLUPs/s", "L2 hit"]);
    for r in &rows {
        table.row(vec![
            r.n.to_string(),
            r.series.clone(),
            format!("{:.1}", r.mlups),
            format!("{:.2}", r.l2_hit_rate),
        ]);
    }
    table.print();

    println!();
    let mut summary = Table::new(vec!["series", "min MLUPs", "max MLUPs", "mean MLUPs"]);
    for s in &series {
        let label = s.label();
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| r.series == label)
            .map(|r| r.mlups)
            .collect();
        if vals.is_empty() {
            continue;
        }
        summary.row(vec![
            label,
            format!("{:.1}", vals.iter().copied().fold(f64::INFINITY, f64::min)),
            format!("{:.1}", vals.iter().copied().fold(0.0, f64::max)),
            format!("{:.1}", vals.iter().sum::<f64>() / vals.len() as f64),
        ]);
    }
    summary.print();

    if let Some(path) = args.get_str("json") {
        write_json(path, &rows).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
