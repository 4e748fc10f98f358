//! Ablation A2: outstanding misses per thread, and the gang drift window.
//!
//! The T2 restricts each thread to a **single outstanding cache miss**
//! (§1) — the reason "running more than a single thread per core is
//! mandatory". This ablation sweeps that limit (1, 2, 4, 8) at several
//! thread counts, and also toggles the engine's gang drift window to show
//! the idealized infinite-FIFO machine in which the aliasing largely
//! disappears (see the engine docs).
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin ablation_outstanding
//! ```

use t2opt_bench::{write_json, Args, Table};
use t2opt_kernels::stream::{run_sim, StreamConfig, StreamKernel};
use t2opt_parallel::Placement;
use t2opt_sim::ChipConfig;

fn main() {
    let args = Args::from_env(&["json", "n"], &[]);
    let n: usize = args.get("n", 1 << 21);

    #[derive(serde::Serialize)]
    struct Row {
        outstanding: usize,
        threads: usize,
        gbs: f64,
    }
    let mut rows = Vec::new();

    println!("-- outstanding misses per thread (triad, good offsets) --");
    let mut table = Table::new(vec!["outstanding", "8 T", "16 T", "32 T", "64 T"]);
    for outstanding in [1usize, 2, 4, 8] {
        let mut cells = vec![outstanding.to_string()];
        for threads in [8usize, 16, 32, 64] {
            let mut chip = ChipConfig::ultrasparc_t2();
            chip.core.outstanding_misses = outstanding;
            let cfg = StreamConfig::fig2(n, 16, threads);
            let gbs =
                run_sim(&cfg, StreamKernel::Triad, &chip, &Placement::t2_scatter()).reported_gbs;
            cells.push(format!("{gbs:.2}"));
            rows.push(Row {
                outstanding,
                threads,
                gbs,
            });
        }
        table.row(cells);
    }
    table.print();
    println!(
        "\nWith 1 outstanding miss the chip needs many threads (the T2 design thesis);\n\
         more misses per thread let few threads saturate the controllers instead."
    );

    println!("\n-- gang drift window (offset sensitivity) --");
    let mut table2 = Table::new(vec![
        "gang window",
        "offset 0 GB/s",
        "offset 16 GB/s",
        "ratio",
    ]);
    for gw in [Some(4u32), Some(8), Some(16), None] {
        let mut chip = ChipConfig::ultrasparc_t2();
        chip.core.gang_window = gw;
        let bw = |offset: usize| {
            let cfg = StreamConfig::fig2(n, offset, 64);
            run_sim(&cfg, StreamKernel::Triad, &chip, &Placement::t2_scatter()).reported_gbs
        };
        let worst = bw(0);
        let best = bw(16);
        table2.row(vec![
            format!("{gw:?}"),
            format!("{worst:.2}"),
            format!("{best:.2}"),
            format!("{:.2}×", best / worst),
        ]);
    }
    table2.print();
    println!(
        "\n`None` is the idealized machine whose FIFO queues smear threads into a\n\
         conveyor covering all controllers: the aliasing of Fig. 2 all but vanishes,\n\
         showing that the measured effect requires the real chip's batched arbitration."
    );

    if let Some(path) = args.get_str("json") {
        write_json(path, &rows).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
