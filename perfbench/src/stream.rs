//! The STREAM triad workloads: `stream-aliased` and
//! `stream-spread-readfirst`.

use crate::metrics::median;
use crate::simlayers::{drain, stats_digest, SimCase, SimLayers};
use crate::spans::Tracer;
use crate::RunResult;
use std::time::{Duration, Instant};
use t2opt_kernels::common::place_threads;
use t2opt_kernels::stream::{build_trace, StreamConfig, StreamKernel};
use t2opt_parallel::Placement;
use t2opt_sim::policy::PolicyKind;
use t2opt_sim::trace::Program;
use t2opt_sim::{ChipConfig, SimStats, Simulation, ThreadSpec};

/// Doubles per array: 3 x 8 MiB, six times the 4 MiB L2.
const N: usize = 1 << 20;
/// Hardware threads, scattered over the T2's 8 cores.
const THREADS: usize = 64;
const CORES: usize = 8;
/// Measured sweeps after the warm-up sweep.
const NTIMES: usize = 2;
/// Offsets of one aliasing class differ by multiples of 64 words (512 B,
/// one full controller interleave), so every seed keeps the controller
/// pattern and changes only the absolute addresses.
const CLASS_STRIDE: usize = 64;
const CLASS_MEMBERS: u64 = 3;
/// Extra set-ups timed before every simulation and after the last, so
/// `setup_s` is a median of many samples spread over the whole run even
/// when a run fits only two simulations.
const SETUP_BATCH: usize = 50;

pub struct StreamCase {
    pub name: &'static str,
    /// Offset class in words, mod 64: 0 puts A, B and C on one controller,
    /// 16 puts them 128 B apart on three controllers.
    pub class_offset: usize,
    pub policy: &'static str,
}

pub const ALIASED: StreamCase = StreamCase {
    name: "stream-aliased",
    class_offset: 0,
    policy: "fifo",
};

pub const SPREAD_READFIRST: StreamCase = StreamCase {
    name: "stream-spread-readfirst",
    class_offset: 16,
    policy: "read-first",
};

impl StreamCase {
    pub fn offset(&self, seed: u64) -> usize {
        self.class_offset + CLASS_STRIDE * (seed % CLASS_MEMBERS) as usize
    }

    fn chip(&self) -> ChipConfig {
        let mut chip = ChipConfig::ultrasparc_t2();
        chip.policy = PolicyKind::parse(self.policy).expect("policy names are fixed above");
        chip
    }

    fn config(&self, seed: u64) -> StreamConfig {
        StreamConfig {
            n: N,
            offset: self.offset(seed),
            threads: THREADS,
            ntimes: NTIMES,
        }
    }

    fn programs(&self, chip: &ChipConfig, seed: u64) -> Vec<Program> {
        build_trace(&self.config(seed), StreamKernel::Triad, chip)
    }

    /// Everything before the first timed operation: chip config, trace
    /// construction and `Simulation::new`.
    fn setup(&self, seed: u64) -> (Simulation, Vec<ThreadSpec>) {
        let chip = self.chip();
        let programs = self.programs(&chip, seed);
        let threads = place_threads(programs, &Placement::Scatter { n_cores: CORES }, CORES);
        (Simulation::new(chip).measure_after_barrier(0), threads)
    }

    fn reported_gbs(&self, seed: u64, stats: &SimStats) -> f64 {
        let reported = self
            .config(seed)
            .reported_bytes_per_sweep(StreamKernel::Triad);
        stats.reported_bandwidth_gbs(&self.chip(), reported * NTIMES as u64)
    }

    /// The untraced run: repeated set-up + `Simulation::run` for at least
    /// `seconds` and at least two simulations.
    pub fn run(&self, seed: u64, seconds: f64) -> RunResult {
        let mut out = RunResult::new(self.name);
        let count = drain(self.programs(&self.chip(), seed));
        let mut setup_s = Vec::new();
        let mut run_s = Vec::new();
        let mut first: Option<SimStats> = None;
        let start = Instant::now();
        loop {
            for _ in 0..SETUP_BATCH {
                let t = Instant::now();
                std::hint::black_box(self.setup(seed));
                setup_s.push(t.elapsed().as_secs_f64());
            }
            if run_s.len() >= 2 && start.elapsed() >= Duration::from_secs_f64(seconds) {
                break;
            }
            let t = Instant::now();
            let (sim, threads) = self.setup(seed);
            setup_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let stats = sim.run(threads);
            run_s.push(t.elapsed().as_secs_f64());
            out.attempted += 1;
            let mut ok = true;
            if stats.mem_ops != count.after_first_barrier {
                out.fail(format!(
                    "engine committed {} memory ops in the window, programs emitted {}",
                    stats.mem_ops, count.after_first_barrier
                ));
                ok = false;
            }
            match &first {
                Some(f) if *f != stats => {
                    out.fail("SimStats differ between repeats of one seed".into());
                    ok = false;
                }
                Some(_) => {}
                None => first = Some(stats),
            }
            if !ok {
                out.failed += 1;
            }
        }
        let stats = first.expect("at least two simulations ran");
        let per_sim: Vec<String> = run_s.iter().map(|s| format!("{s:.3}")).collect();
        out.notes
            .push(format!("result_s per simulation: {}", per_sim.join(" ")));
        let sim_s = median(&mut run_s).expect("at least two simulations ran");
        let n = run_s.len();
        let m = &mut out.metrics;
        m.put(
            "setup_s",
            median(&mut setup_s).expect("set-ups ran"),
            "s",
            setup_s.len(),
        );
        m.put("result_s", sim_s, "s", n);
        m.put("op_us", sim_s * 1e6 / count.total as f64, "us", n);
        m.put("sim_mops", count.total as f64 / sim_s / 1e6, "Mop/s", n);
        out.notes.push(format!(
            "offset {} words, {} memory ops per simulation, simulated {:.3} GB/s, digest {:012x}",
            self.offset(seed),
            count.total,
            self.reported_gbs(seed, &stats),
            stats_digest(&stats)
        ));
        out
    }

    /// The traced run: the simulator layers measured one by one on this
    /// workload's trace.
    pub fn run_traced(&self, seed: u64, tracer: &Tracer) -> RunResult {
        let mut out = RunResult::new(self.name);
        let chip = self.chip();
        let programs = || self.programs(&chip, seed);
        let scatter = Placement::Scatter { n_cores: CORES };
        let core_of = |tid: usize| scatter.core_of(tid).unwrap_or(tid) % CORES;
        let case = SimCase {
            chip: chip.clone(),
            measure_after_barrier: true,
            programs: &programs,
            core_of: &core_of,
        };
        let mut layers = SimLayers::default();
        let stats = layers.measure(&case, tracer, self.name);
        out.attempted += 1;
        if !layers.failures.is_empty() {
            out.failed += 1;
        }
        let gbs = self.reported_gbs(seed, &stats);
        layers.report(&mut out.metrics, gbs, stats_digest(&stats));
        out.metrics.put(
            "bench.trace_overhead_frac",
            layers.engine_s / layers.untraced_s - 1.0,
            "ratio",
            1,
        );
        for f in layers.failures {
            out.fail(f);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_stay_in_their_aliasing_class() {
        for seed in 0..10 {
            assert_eq!(ALIASED.offset(seed) % 64, 0);
            assert_eq!(SPREAD_READFIRST.offset(seed) % 64, 16);
        }
        assert_ne!(ALIASED.offset(0), ALIASED.offset(1));
    }

    #[test]
    fn scatter_places_the_trace_as_the_engine_run_does() {
        let (_, threads) = ALIASED.setup(0);
        let cores: Vec<usize> = threads.iter().map(|t| t.core).collect();
        assert_eq!(cores.len(), THREADS);
        assert!(cores.iter().enumerate().all(|(tid, &c)| c == tid % CORES));
    }
}
