//! Figure 6: 2-D Jacobi relaxation performance and scaling vs problem
//! size, on the simulated UltraSPARC T2.
//!
//! The paper plots MLUPs/s vs N (quadratic N×N domain) for 8/16/32/64
//! threads with the optimal alignment (rows on 512 B boundaries, shift
//! 128 B, `static,1`), plus a 64-thread "plain" reference with no
//! alignment optimizations.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin fig6_jacobi            # scaled default
//! cargo run --release -p t2opt-bench --bin fig6_jacobi -- --full  # paper range N ≤ 2000
//! ```
//!
//! Expected shape: optimized curves scale with threads and stay smooth vs
//! N (residual jitter from N mod threads); the plain 64 T curve shows the
//! period-64/32 aliasing dips.

use t2opt_bench::experiments::{fig6_series, n_range};
use t2opt_bench::{write_json, Args, Table};
use t2opt_sim::ChipConfig;

fn main() {
    let args = Args::from_env(&["hi", "json", "lo", "step", "threads"], &["full"]);
    let full = args.has_flag("full");
    let lo: usize = args.get("lo", 128);
    let hi: usize = args.get("hi", if full { 2000 } else { 1088 });
    let step: usize = args.get("step", if full { 16 } else { 96 });
    let threads = args.get_list::<usize>(
        "threads",
        if full {
            &[8, 16, 32, 64][..]
        } else {
            &[8, 64][..]
        },
    );
    let chip = ChipConfig::ultrasparc_t2();

    eprintln!("fig6: 2-D Jacobi, N ∈ [{lo}, {hi}] step {step}, threads {threads:?} + plain 64 T");
    let ns = n_range(lo, hi, step);
    let rows = fig6_series(&chip, &ns, &threads, 64);

    let mut table = Table::new(vec!["N", "threads", "variant", "MLUPs/s", "L2 hit"]);
    for r in &rows {
        table.row(vec![
            r.n.to_string(),
            r.threads.to_string(),
            r.variant.clone(),
            format!("{:.0}", r.mlups),
            format!("{:.2}", r.l2_hit_rate),
        ]);
    }
    table.print();

    println!();
    let mut summary = Table::new(vec!["series", "min MLUPs", "max MLUPs"]);
    for &t in &threads {
        let series: Vec<f64> = rows
            .iter()
            .filter(|r| r.threads == t && r.variant == "optimized")
            .map(|r| r.mlups)
            .collect();
        if series.is_empty() {
            continue;
        }
        summary.row(vec![
            format!("{t} T optimized"),
            format!(
                "{:.0}",
                series.iter().copied().fold(f64::INFINITY, f64::min)
            ),
            format!("{:.0}", series.iter().copied().fold(0.0, f64::max)),
        ]);
    }
    let plain: Vec<f64> = rows
        .iter()
        .filter(|r| r.variant == "plain")
        .map(|r| r.mlups)
        .collect();
    if !plain.is_empty() {
        summary.row(vec![
            "64 T plain".to_string(),
            format!("{:.0}", plain.iter().copied().fold(f64::INFINITY, f64::min)),
            format!("{:.0}", plain.iter().copied().fold(0.0, f64::max)),
        ]);
    }
    summary.print();

    if let Some(path) = args.get_str("json") {
        write_json(path, &rows).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
