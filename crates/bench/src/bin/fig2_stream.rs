//! Figure 2: STREAM bandwidth vs COMMON-block offset on the simulated
//! UltraSPARC T2.
//!
//! Lower panel of the paper: parallel STREAM **triad** at N = 2²⁵ and
//! static scheduling for 8/16/32/64 threads vs array offset (0..256 DP
//! words). Upper panel: STREAM **copy** at 64 threads.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin fig2_stream            # scaled default
//! cargo run --release -p t2opt-bench --bin fig2_stream -- --full  # paper-size N = 2^25
//! cargo run --release -p t2opt-bench --bin fig2_stream -- \
//!     --kernel copy --threads 64 --max-offset 256 --step 2 --json fig2.json
//! cargo run --release -p t2opt-bench --bin fig2_stream -- \
//!     --chip wide-8mc --threads 32                   # non-T2 topology
//! cargo run --release -p t2opt-bench --bin fig2_stream -- \
//!     --telemetry trace.json --telemetry-offset 0    # time-resolved diagnostic
//! ```
//!
//! `--chip <preset>` selects the simulated topology (default
//! `ultrasparc-t2`); the offset aliasing period then follows that chip's
//! mapping, and the JSON output records the preset name.
//!
//! `--policy <fifo|read-first[:cap]>` selects the memory controllers'
//! queue-arbitration discipline (default `fifo`, the calibrated T2). Use
//! it to ask how much of the Fig. 2 offset collapse a smarter controller
//! could dissolve — see the `policy_convoy` binary for the dedicated
//! comparison.
//!
//! `--telemetry <path>` switches to diagnostic mode: one traced run at
//! `--telemetry-offset` (default 0, the aliased worst case), printing the
//! per-window controller heatmap and the aliasing report, and writing a
//! Chrome-trace file (load it at `chrome://tracing` or Perfetto).
//!
//! Expected shape (paper): deep minima at offsets ≡ 0 (mod 64 words =
//! 512 B) where all arrays share one memory controller; ~2× partial
//! recovery at odd multiples of 32; period 64; 16 threads suffering less
//! at the minima than 32/64; copy below triad.

use serde::Serialize;
use t2opt_bench::experiments::{chip_scatter, fig2_series, offset_range, Fig2Row};
use t2opt_bench::{chip_from_args, write_json, Args, Table};
use t2opt_kernels::stream::{self, StreamConfig, StreamKernel};
use t2opt_telemetry::prelude::{ascii_heatmap, chrome_trace, AliasConfig, AliasReport};

/// JSON envelope recording which chip preset and queue policy produced
/// the sweep.
#[derive(Serialize)]
struct Fig2Output {
    chip: String,
    policy: String,
    rows: Vec<Fig2Row>,
}

fn main() {
    let args = Args::from_env();
    if args.has_flag("list-chips") {
        t2opt_bench::list_chips();
    }
    let full = args.has_flag("full");
    let n: usize = args.get("n", if full { 1 << 25 } else { 1 << 20 });
    let max_offset: usize = args.get("max-offset", 256);
    let step: usize = args.get("step", if full { 2 } else { 8 });
    let threads = args.get_list::<usize>(
        "threads",
        if full {
            &[8, 16, 32, 64][..]
        } else {
            &[16, 64][..]
        },
    );
    let kernel = match args.get_str("kernel").unwrap_or("triad") {
        "copy" => StreamKernel::Copy,
        "scale" => StreamKernel::Scale,
        "add" => StreamKernel::Add,
        "triad" => StreamKernel::Triad,
        other => {
            eprintln!("unknown kernel {other}; use copy|scale|add|triad");
            std::process::exit(2);
        }
    };
    let (spec, chip) = chip_from_args(&args);
    let threads: Vec<usize> = {
        let capacity = chip.max_threads();
        let (fit, over): (Vec<usize>, Vec<usize>) =
            threads.into_iter().partition(|&t| t <= capacity);
        if !over.is_empty() {
            eprintln!(
                "note: dropping thread counts {over:?} beyond {}'s {capacity} hardware threads",
                spec.name
            );
        }
        assert!(!fit.is_empty(), "no requested thread count fits the chip");
        fit
    };

    if let Some(path) = args.get_str("telemetry") {
        let offset: usize = args.get("telemetry-offset", 0);
        let interval: u64 = args.get("interval", 4096);
        let t = *threads.first().expect("at least one thread count");
        eprintln!(
            "fig2 telemetry: STREAM {} N = {n}, offset {offset}, {t} threads, \
             {interval}-cycle windows",
            kernel.name()
        );
        let cfg = StreamConfig::fig2(n, offset, t);
        let (res, timeline) =
            stream::run_sim_traced(&cfg, kernel, &chip, &chip_scatter(&chip), interval);
        println!(
            "{}: {:.2} GB/s reported, mc_balance {:.2}",
            kernel.name(),
            res.reported_gbs,
            res.mc_balance
        );
        print!("{}", ascii_heatmap(&timeline, 72));
        let report = AliasReport::analyze(&timeline, &AliasConfig::for_chip(&spec));
        println!("{}", report.summary());
        let trace = chrome_trace(&timeline, chip.clock_hz / 1e6);
        t2opt_core::json::parse_json(&trace).expect("generated Chrome trace must be valid JSON");
        std::fs::write(path, trace).expect("failed to write Chrome trace");
        eprintln!("wrote Chrome trace {path}");
        return;
    }

    if args.has_flag("compare-threads") {
        // E7: peak bandwidth does not change going 32 → 64 threads
        // (best offset), showing the chip is not short of outstanding
        // references at 32 threads already.
        let offsets = [16usize]; // the optimal 128 B relative offset
        let counts: Vec<usize> = [8usize, 16, 32, 64]
            .into_iter()
            .filter(|&t| t <= chip.max_threads())
            .collect();
        let rows = fig2_series(&chip, kernel, n, &offsets, &counts);
        let mut table = Table::new(vec!["threads", "GB/s (offset 16)"]);
        for r in &rows {
            table.row(vec![r.threads.to_string(), format!("{:.2}", r.gbs)]);
        }
        table.print();
        return;
    }

    eprintln!(
        "fig2: STREAM {} sweep on {} ({} controllers), N = {n}, \
         offsets 0..={max_offset} step {step}, threads {threads:?}",
        kernel.name(),
        spec.name,
        chip.policy.name()
    );
    let offsets = offset_range(max_offset, step);
    let rows = fig2_series(&chip, kernel, n, &offsets, &threads);

    let mut table = Table::new(vec!["offset", "threads", "GB/s", "mc_balance"]);
    for r in &rows {
        table.row(vec![
            r.offset.to_string(),
            r.threads.to_string(),
            format!("{:.2}", r.gbs),
            format!("{:.2}", r.mc_balance),
        ]);
    }
    table.print();

    // Shape summary per thread count: min / max / min positions.
    println!();
    let mut summary = Table::new(vec![
        "threads",
        "min GB/s",
        "max GB/s",
        "max/min",
        "worst offsets",
    ]);
    for &t in &threads {
        let series: Vec<_> = rows.iter().filter(|r| r.threads == t).collect();
        if series.is_empty() {
            continue;
        }
        let min = series.iter().map(|r| r.gbs).fold(f64::INFINITY, f64::min);
        let max = series.iter().map(|r| r.gbs).fold(0.0, f64::max);
        let worst: Vec<String> = series
            .iter()
            .filter(|r| r.gbs < min * 1.15)
            .map(|r| r.offset.to_string())
            .take(6)
            .collect();
        summary.row(vec![
            t.to_string(),
            format!("{min:.2}"),
            format!("{max:.2}"),
            format!("{:.2}", max / min),
            worst.join(","),
        ]);
    }
    summary.print();

    if let Some(path) = args.get_str("json") {
        let out = Fig2Output {
            chip: spec.name.clone(),
            policy: chip.policy.name().to_string(),
            rows,
        };
        write_json(path, &out).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
