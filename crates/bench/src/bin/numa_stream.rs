//! Local vs remote STREAM bandwidth on the multi-socket presets.
//!
//! Bergstrom's NUMA measurements (arXiv:1103.3225) show parallel STREAM
//! losing a large, stable fraction of its bandwidth when pages live on
//! the wrong socket: first-touch (local) placement is the ceiling,
//! page-interleave sits in between, and all-remote placement is the
//! floor, gated by the inter-socket link. This binary reproduces that
//! gap on every NUMA chip preset by running the same triad under each
//! [`PagePlacement`] and reporting the local/remote ratio.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin numa_stream
//! cargo run --release -p t2opt-bench --bin numa_stream -- --smoke --json BENCH_numa.json
//! cargo run --release -p t2opt-bench --bin numa_stream -- --chip 2s-numa --threads 64
//! ```
//!
//! Expected shape: `first-touch > interleave > remote` on every NUMA
//! preset, with the remote column capped by the link occupancy rather
//! than the controllers (watch `mc_balance` stay healthy while GB/s
//! drops — the controllers are fine, the link is the bottleneck).

use serde::Serialize;
use t2opt_bench::experiments::chip_scatter;
use t2opt_bench::{chip_preset, write_json, Args, Table};
use t2opt_core::chip::{ChipSpec, PRESET_NAMES};
use t2opt_core::mapping::PagePlacement;
use t2opt_kernels::stream::{self, StreamConfig, StreamKernel};
use t2opt_sim::ChipConfig;

/// One measured (chip, placement) point.
#[derive(Serialize)]
struct NumaRow {
    chip: String,
    placement: String,
    gbs: f64,
    mc_balance: f64,
}

/// The per-chip local/remote summary the benchmark exists to show.
#[derive(Serialize)]
struct NumaGap {
    chip: String,
    local_gbs: f64,
    interleave_gbs: f64,
    remote_gbs: f64,
    /// first-touch over all-remote bandwidth; > 1 is the NUMA gap.
    local_over_remote: f64,
}

#[derive(Serialize)]
struct NumaOutput {
    kernel: String,
    n: usize,
    threads: usize,
    rows: Vec<NumaRow>,
    gaps: Vec<NumaGap>,
}

fn main() {
    let args = Args::from_env();
    if args.has_flag("list-chips") {
        t2opt_bench::list_chips();
    }
    let smoke = args.has_flag("smoke");
    // Arrays must dwarf the 4 MB L2 or the measured sweeps never reach
    // memory and every placement looks identical: 2¹⁹ words = 4 MB/array.
    let n: usize = args.get("n", if smoke { 1 << 19 } else { 1 << 21 });
    let threads: usize = args.get("threads", if smoke { 16 } else { 32 });

    let chips: Vec<ChipSpec> = match args.get_str("chip") {
        Some(name) => {
            let spec = chip_preset(name);
            if !spec.sockets.is_numa() {
                eprintln!("chip preset {name:?} is single-socket; numa_stream needs a NUMA preset");
                std::process::exit(2);
            }
            vec![spec]
        }
        None => PRESET_NAMES
            .iter()
            .filter_map(|name| ChipSpec::preset(name))
            .filter(|spec| spec.sockets.is_numa())
            .collect(),
    };
    assert!(!chips.is_empty(), "registry must hold a NUMA preset");

    let kernel = StreamKernel::Triad;
    eprintln!(
        "numa_stream: STREAM {} N = {n}, {threads} threads, placements {:?}",
        kernel.name(),
        PagePlacement::ALL.map(|p| p.label())
    );

    let mut rows = Vec::new();
    let mut gaps = Vec::new();
    let mut table = Table::new(vec!["chip", "placement", "GB/s", "mc_balance"]);
    for spec in &chips {
        let base = ChipConfig::from_spec(spec);
        let t = threads.min(base.max_threads());
        let mut by_placement = Vec::new();
        for placement in PagePlacement::ALL {
            let mut chip = base.clone();
            chip.placement = placement;
            let cfg = StreamConfig::fig2(n, 16, t);
            let res = stream::run_sim(&cfg, kernel, &chip, &chip_scatter(&chip));
            table.row(vec![
                spec.name.clone(),
                placement.label().to_string(),
                format!("{:.2}", res.reported_gbs),
                format!("{:.2}", res.mc_balance),
            ]);
            rows.push(NumaRow {
                chip: spec.name.clone(),
                placement: placement.label().to_string(),
                gbs: res.reported_gbs,
                mc_balance: res.mc_balance,
            });
            by_placement.push((placement, res.reported_gbs));
        }
        let gbs_of = |want: PagePlacement| {
            by_placement
                .iter()
                .find(|(p, _)| *p == want)
                .map(|(_, g)| *g)
                .expect("every placement was measured")
        };
        let (local, inter, remote) = (
            gbs_of(PagePlacement::FirstTouch),
            gbs_of(PagePlacement::Interleave),
            gbs_of(PagePlacement::Remote),
        );
        assert!(
            local > remote,
            "{}: first-touch ({local:.2} GB/s) must beat all-remote ({remote:.2} GB/s)",
            spec.name
        );
        gaps.push(NumaGap {
            chip: spec.name.clone(),
            local_gbs: local,
            interleave_gbs: inter,
            remote_gbs: remote,
            local_over_remote: local / remote,
        });
    }
    table.print();

    println!();
    let mut summary = Table::new(vec![
        "chip",
        "local",
        "interleave",
        "remote",
        "local/remote",
    ]);
    for g in &gaps {
        summary.row(vec![
            g.chip.clone(),
            format!("{:.2}", g.local_gbs),
            format!("{:.2}", g.interleave_gbs),
            format!("{:.2}", g.remote_gbs),
            format!("{:.2}x", g.local_over_remote),
        ]);
    }
    summary.print();

    if let Some(path) = args.get_str("json") {
        let out = NumaOutput {
            kernel: kernel.name().to_string(),
            n,
            threads,
            rows,
            gaps,
        };
        write_json(path, &out).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
