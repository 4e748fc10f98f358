//! Figure 5: performance overhead of segmented iterators vs a plain
//! parallel loop — measured on the **host**.
//!
//! This figure is about abstraction cost, not about T2 memory behaviour,
//! so the honest reproduction is a native measurement: the same serial
//! triad kernel on (a) each worker's `schedule(static)` chunk of plain
//! `Vec`s and (b) its own `SegArray` segment (the paper's manual
//! ⌊N/t⌋+1 / ⌊N/t⌋ scheduling). The paper finds the overhead "negligible
//! even for tight loops like the vector triad", visible only at small N.
//!
//! After the host table it prices what the paper discourages instead
//! (§2.2): element-wise iteration over a segmented array, which pays the
//! `operator++()` branch at every step, in ns per element of a
//! single-threaded sum against the hierarchical fold and a plain `Vec`.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin fig5_overhead
//! cargo run --release -p t2opt-bench --bin fig5_overhead -- --threads 8 --ntimes 9
//! ```

use std::hint::black_box;
use std::time::Instant;
use t2opt_bench::experiments::fig5_series;
use t2opt_bench::{write_json, Args, Table};
use t2opt_core::iter::HierExt;
use t2opt_core::layout::LayoutSpec;
use t2opt_core::seg_array::SegArray;
use t2opt_parallel::{chunk_assignment, Placement, Schedule, ThreadPool};

/// Elements summed by the iteration-style rows.
const ITER_N: usize = 400_000;

/// Simulator variant: the same vector triad with and without a modelled
/// per-segment dispatch overhead (function call + iterator construction,
/// ~30 cycles — deliberately generous). The paper's point holds *a
/// fortiori*: at bandwidth-bound sizes a constant per-segment cost
/// disappears into the memory time.
fn sim_variant(ns: &[usize]) {
    use t2opt_kernels::common::{place_threads, VirtualAlloc};
    use t2opt_sim::trace::{chain_with_barriers, Op, Program, StreamLoop, StreamSpec};
    use t2opt_sim::{ChipConfig, Simulation};

    let chip = ChipConfig::ultrasparc_t2();
    let threads = 64;
    let mut table = Table::new(vec![
        "N",
        "plain GB/s (sim)",
        "segmented GB/s (sim)",
        "overhead %",
    ]);
    for &n in ns {
        let run = |dispatch_overhead: u32| {
            let mut va = VirtualAlloc::new();
            let bytes = n as u64 * 8;
            let a = va.alloc(bytes, 8192, 0);
            let b = va.alloc(bytes, 8192, 128);
            let c = va.alloc(bytes, 8192, 256);
            let d = va.alloc(bytes, 8192, 384);
            let assignment = chunk_assignment(Schedule::Static, n, threads);
            let programs: Vec<Program> = (0..threads)
                .map(|tid| {
                    let chunks = assignment[tid].clone();
                    let mut sweeps = Vec::new();
                    for _ in 0..2 {
                        let mut per_chunk: Vec<Box<dyn Iterator<Item = Op>>> = Vec::new();
                        for ch in &chunks {
                            let off = ch.start as u64 * 8;
                            let head: Box<dyn Iterator<Item = Op>> = if dispatch_overhead > 0 {
                                Box::new(std::iter::once(Op::Delay(dispatch_overhead)))
                            } else {
                                Box::new(std::iter::empty())
                            };
                            per_chunk.push(Box::new(head.chain(StreamLoop::new(
                                vec![
                                    StreamSpec::load(b + off),
                                    StreamSpec::load(c + off),
                                    StreamSpec::load(d + off),
                                    StreamSpec::store(a + off),
                                ],
                                ch.len(),
                                8,
                                2.0,
                                64,
                            ))));
                        }
                        sweeps.push(per_chunk.into_iter().flatten());
                    }
                    chain_with_barriers(sweeps, 0)
                })
                .collect();
            let specs = place_threads(programs, &Placement::t2_scatter(), chip.core.n_cores);
            let sim = Simulation::new(chip.clone()).measure_after_barrier(0);
            let stats = sim.run(specs);
            stats.reported_bandwidth_gbs(&chip, n as u64 * 32)
        };
        let plain = run(0);
        let seg = run(30);
        table.row(vec![
            n.to_string(),
            format!("{plain:.2}"),
            format!("{seg:.2}"),
            format!("{:+.1}", (plain / seg - 1.0) * 100.0),
        ]);
    }
    table.print();
}

/// Host ns per element of summing one 8-segment `SegArray` element-wise
/// (`flat_iter`) and segment-wise (`hier_fold`), and of summing a `Vec`;
/// each the best of `ntimes`+1 runs.
fn iteration_styles(ntimes: usize) {
    let mut arr = SegArray::<f64>::builder(ITER_N)
        .segments(8)
        .spec(LayoutSpec::t2_rotating())
        .build();
    arr.fill_with(|i| i as f64);
    let v: Vec<f64> = (0..ITER_N).map(|i| i as f64).collect();
    let ns_per_elem = |sum: &dyn Fn() -> f64| {
        let best = (0..=ntimes)
            .map(|_| {
                let t0 = Instant::now();
                black_box(sum());
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        best * 1e9 / ITER_N as f64
    };
    let flat = ns_per_elem(&|| arr.flat_iter().sum());
    let hier = ns_per_elem(&|| arr.hier_fold(0.0, |acc, x| acc + x));
    let vec = ns_per_elem(&|| v.iter().sum());
    for (style, ns) in [("flat_iter", flat), ("hier_fold", hier), ("Vec", vec)] {
        println!("{style:>9}: {ns:.3} ns/element");
    }
    println!("flat / hierarchical: {:.2}x", flat / hier);
}

fn main() {
    let args = Args::from_env(&["json", "ntimes", "threads"], &["sim"]);
    let threads: usize = args.get(
        "threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    );
    let ntimes: usize = args.get("ntimes", 5);
    let pool = ThreadPool::with_placement(threads, Placement::Scatter { n_cores: threads });

    // Log-scan N from 10³ to 10⁷ like the paper's x-axis.
    let mut ns = Vec::new();
    let mut n = 1000usize;
    while n <= 10_000_000 {
        ns.push(n);
        ns.push(n * 2);
        ns.push(n * 5);
        n *= 10;
    }
    ns.retain(|&x| x <= 10_000_000);

    eprintln!(
        "fig5: segmented-iterator overhead on the host, {threads} threads, best of {ntimes}+1 runs"
    );
    let rows = fig5_series(&pool, &ns, ntimes);

    let mut table = Table::new(vec!["N", "plain GB/s", "segmented GB/s", "overhead %"]);
    for r in &rows {
        table.row(vec![
            r.n.to_string(),
            format!("{:.2}", r.plain_gbs),
            format!("{:.2}", r.segmented_gbs),
            format!("{:+.1}", r.overhead_pct),
        ]);
    }
    table.print();

    // The paper's conclusion: overhead negligible at large N.
    let large: Vec<&_> = rows.iter().filter(|r| r.n >= 1_000_000).collect();
    if !large.is_empty() {
        let mean_overhead: f64 =
            large.iter().map(|r| r.overhead_pct).sum::<f64>() / large.len() as f64;
        println!("\nmean overhead for N ≥ 10^6: {mean_overhead:+.1} % (paper: negligible)");
    }

    println!("\nsum of {ITER_N} doubles, 1 thread, 8 segments, best of {ntimes}+1 runs:");
    iteration_styles(ntimes);

    if args.has_flag("sim") {
        println!("\nsimulator variant (64 threads, optimal offsets, 30-cycle dispatch):");
        sim_variant(&[10_000, 100_000, 1_000_000]);
    }

    if let Some(path) = args.get_str("json") {
        write_json(path, &rows).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
