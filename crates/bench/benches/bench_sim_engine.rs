//! Criterion benchmarks of the simulator engine itself: event throughput
//! (memory ops simulated per second) for hit-dominated, miss-dominated and
//! contended workloads — the cost model of every figure sweep. The
//! contended workload also runs under read-first arbitration, the engine's
//! controller-event path.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use t2opt_sim::prelude::*;

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

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine_throughput");
    group.sample_size(10);
    let ops = 64 * 1024;
    group.throughput(Throughput::Elements(ops as u64));
    group.bench_function("l2_hits_64T", |b| {
        b.iter(|| {
            let sim = Simulation::t2();
            black_box(sim.run(hit_workload(64, ops)).l2_hits)
        })
    });
    group.bench_function("misses_spread_64T", |b| {
        b.iter(|| {
            let sim = Simulation::t2();
            black_box(sim.run(miss_workload(64, ops)).l2_misses)
        })
    });
    group.bench_function("misses_contended_64T", |b| {
        b.iter(|| {
            let sim = Simulation::t2();
            black_box(sim.run(contended_workload(64, ops)).cycles())
        })
    });
    group.bench_function("misses_contended_readfirst_64T", |b| {
        let mut cfg = ChipConfig::ultrasparc_t2();
        cfg.policy = PolicyKind::ReadFirst { starvation_cap: 8 };
        b.iter(|| {
            let sim = Simulation::new(cfg.clone());
            black_box(sim.run(contended_workload(64, ops)).cycles())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
