//! Ablation A3: OpenMP schedule choice for the Jacobi solver.
//!
//! §2.3: "An OpenMP schedule of 'static,1' has to be used for optimal
//! performance. This is because the 4 MB L2 cache of the processor is too
//! small to accommodate a sufficient number of rows when using 64 threads
//! if the addresses are too far apart." With `static,1` neighbouring rows
//! are processed concurrently and shared in the L2; with plain `static`
//! each thread streams an isolated block and the combined working set
//! blows the cache.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin ablation_schedule
//! ```

use t2opt_bench::{write_json, Args, Table};
use t2opt_kernels::jacobi::{run_sim, JacobiConfig, JacobiLayout};
use t2opt_parallel::{Placement, Schedule};
use t2opt_sim::ChipConfig;

fn main() {
    let args = Args::from_env(&["json", "n", "threads"], &[]);
    let threads: usize = args.get("threads", 64);
    let ns = args.get_list::<usize>("n", &[512, 1024, 1536, 2000]);
    let chip = ChipConfig::ultrasparc_t2();

    #[derive(serde::Serialize)]
    struct Row {
        n: usize,
        schedule: String,
        mlups: f64,
        l2_hit_rate: f64,
    }
    let mut rows = Vec::new();

    let schedules: Vec<(&str, Schedule)> = vec![
        ("static", Schedule::Static),
        ("static,1", Schedule::StaticChunk(1)),
        ("static,4", Schedule::StaticChunk(4)),
    ];

    let mut table = Table::new(vec!["N", "schedule", "MLUPs/s", "L2 hit rate"]);
    for &n in &ns {
        for (name, schedule) in &schedules {
            let cfg = JacobiConfig {
                n,
                threads,
                schedule: *schedule,
                layout: JacobiLayout::Optimized,
                sweeps: 2,
            };
            let res = run_sim(&cfg, &chip, &Placement::t2_scatter());
            table.row(vec![
                n.to_string(),
                name.to_string(),
                format!("{:.0}", res.mlups),
                format!("{:.3}", res.l2_hit_rate),
            ]);
            rows.push(Row {
                n,
                schedule: name.to_string(),
                mlups: res.mlups,
                l2_hit_rate: res.l2_hit_rate,
            });
        }
    }
    table.print();
    println!(
        "\nstatic,1 keeps concurrently processed rows adjacent, so source rows are\n\
         shared through the L2 (higher hit rate); plain static isolates each\n\
         thread's rows and the combined working set overflows the 4 MB cache at\n\
         large N — exactly the paper's argument for static,1."
    );

    if let Some(path) = args.get_str("json") {
        write_json(path, &rows).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
