//! Simulator engine throughput: memory ops simulated per second for
//! hit-dominated, miss-dominated and contended workloads, the cost model of
//! every figure sweep. The contended workload also runs under read-first
//! arbitration, the engine's controller-event path.
//!
//! Each row is one warm-up run, then the fastest of [`RUNS`] timed runs,
//! printed as `sim_engine_throughput/<row>: X ms/iter  Y Melem/s`. Each
//! process lands in a fast or a slow host mode, so one process cannot
//! resolve an engine change of about 30 %: compare only alternating
//! parent/change runs, and make speed claims with perfbench's alternating
//! pairs.
//!
//! ```text
//! cargo bench -p t2opt-bench --bench bench_sim_engine
//! ```

use std::hint::black_box;
use std::time::Instant;
use t2opt_sim::prelude::*;

/// Memory ops per run, split evenly over the threads.
const OPS: usize = 64 * 1024;
/// Simulated threads, eight per core.
const THREADS: usize = 64;
/// Timed runs per row; the row reports the fastest.
const RUNS: usize = 10;

fn hit_workload(n_threads: usize, ops: usize) -> Vec<ThreadSpec> {
    // All threads loop over one shared 64 KiB region: pure L2 hits after
    // the first pass.
    (0..n_threads)
        .map(|t| {
            let per = ops / n_threads;
            let program =
                Box::new((0..per).map(move |i| Op::Read((i as u64 % 1024) * 64))) as Program;
            ThreadSpec::new(t % 8, program)
        })
        .collect()
}

fn miss_workload(n_threads: usize, ops: usize) -> Vec<ThreadSpec> {
    (0..n_threads)
        .map(|t| {
            let per = ops / n_threads;
            let base = t as u64 * (1 << 26);
            let program = Box::new(
                (0..per).map(move |i| Op::Read(base + i as u64 * 64 + 128 * (t as u64 % 4))),
            ) as Program;
            ThreadSpec::new(t % 8, program)
        })
        .collect()
}

fn contended_workload(n_threads: usize, ops: usize) -> Vec<ThreadSpec> {
    // Everything congruent: worst-case queue churn.
    (0..n_threads)
        .map(|t| {
            let per = ops / n_threads;
            let base = t as u64 * (1 << 26);
            let program =
                Box::new((0..per).map(move |i| Op::Read(base + i as u64 * 512))) as Program;
            ThreadSpec::new(t % 8, program)
        })
        .collect()
}

/// Times `run`: one warm-up call, then the fastest of [`RUNS`] calls.
fn bench<R>(row: &str, mut run: impl FnMut() -> R) {
    black_box(run());
    let best = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(run());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    println!(
        "sim_engine_throughput/{row}: {:.3} ms/iter  {:.1} Melem/s",
        best * 1e3,
        OPS as f64 / best / 1e6
    );
}

fn main() {
    bench("l2_hits_64T", || {
        Simulation::t2().run(hit_workload(THREADS, OPS)).l2_hits
    });
    bench("misses_spread_64T", || {
        Simulation::t2().run(miss_workload(THREADS, OPS)).l2_misses
    });
    bench("misses_contended_64T", || {
        Simulation::t2()
            .run(contended_workload(THREADS, OPS))
            .cycles()
    });
    let mut cfg = ChipConfig::ultrasparc_t2();
    cfg.policy = PolicyKind::ReadFirst { starvation_cap: 8 };
    bench("misses_contended_readfirst_64T", || {
        Simulation::new(cfg.clone())
            .run(contended_workload(THREADS, OPS))
            .cycles()
    });
}
