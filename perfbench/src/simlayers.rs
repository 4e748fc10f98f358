//! Simulator-layer measurements shared by every workload: a counting
//! [`SimProbe`], the trace drain, and the L2 and controller replays.

use crate::metrics::Metrics;
use crate::spans::Tracer;
use std::hint::black_box;
use std::time::Instant;
use t2opt_sim::cache::{Access, L2Cache};
use t2opt_sim::mc::MemController;
use t2opt_sim::telemetry::probe::{SimProbe, StallKind};
use t2opt_sim::trace::{Op, Program};
use t2opt_sim::{ChipConfig, SimStats, Simulation, ThreadSpec};

/// Stall kinds in report order, with their metric suffixes.
pub const STALL_KINDS: [(StallKind, &str); 7] = [
    (StallKind::LoadMiss, "load_miss"),
    (StallKind::StoreBuffer, "store_buffer"),
    (StallKind::Pipe, "pipe"),
    (StallKind::Fpu, "fpu"),
    (StallKind::Nack, "nack"),
    (StallKind::Drift, "drift"),
    (StallKind::Barrier, "barrier"),
];

fn stall_index(kind: StallKind) -> usize {
    STALL_KINDS
        .iter()
        .position(|(k, _)| *k == kind)
        .expect("every stall kind is listed")
}

/// One controller admission as the engine charged it.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    pub mc: u16,
    pub is_write: bool,
    pub at_cycle: u64,
}

/// Counts engine events over the whole run, plus NACKs over the
/// measurement window alone (to check against `SimStats::nacks`), and
/// records every controller admission for the replay.
#[derive(Debug, Default)]
pub struct CountingProbe {
    pub nacks: u64,
    pub nacks_mc_full: u64,
    pub window_nacks: u64,
    pub stalls: [u64; 7],
    pub admissions: Vec<Admission>,
}

impl SimProbe for CountingProbe {
    fn mc_service(&mut self, mc: usize, at: u64, _busy: u64, _queue: usize, is_write: bool) {
        self.admissions.push(Admission {
            mc: mc as u16,
            is_write,
            at_cycle: at,
        });
    }

    fn nack(&mut self, _at: u64, _tid: u32, _mc: usize, _bank: usize, mc_full: bool) {
        self.nacks += 1;
        self.window_nacks += 1;
        self.nacks_mc_full += u64::from(mc_full);
    }

    fn stall(&mut self, _tid: u32, kind: StallKind, _from: u64, _until: u64) {
        self.stalls[stall_index(kind)] += 1;
    }

    fn window_reset(&mut self, _at: u64) {
        self.window_nacks = 0;
    }
}

/// Read/Write ops a batch of programs emits: in total, and after each
/// thread's first barrier (the measurement window when the simulation
/// measures after barrier 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    pub total: u64,
    pub after_first_barrier: u64,
}

/// Drains `programs`, counting their memory ops.
pub fn drain(programs: Vec<Program>) -> OpCount {
    let mut count = OpCount::default();
    for program in programs {
        let mut past_barrier = false;
        for op in program {
            match op {
                Op::Read(a) | Op::Write(a) => {
                    black_box(a);
                    count.total += 1;
                    count.after_first_barrier += u64::from(past_barrier);
                }
                Op::Barrier(_) => past_barrier = true,
                Op::Compute(_) | Op::Delay(_) => {}
            }
        }
    }
    count
}

/// Feeds the programs' Read/Write stream into a standalone L2, one op per
/// thread in turn (a stand-in for the engine's interleaving). Returns
/// (accesses, hits, host seconds of the replay loop).
pub fn l2_replay(chip: &ChipConfig, programs: Vec<Program>) -> (u64, u64, f64) {
    let mut cache = L2Cache::new(&chip.l2);
    let mut live: Vec<Program> = programs;
    let (mut accesses, mut hits) = (0u64, 0u64);
    let start = Instant::now();
    while !live.is_empty() {
        live.retain_mut(|p| loop {
            match p.next() {
                Some(Op::Read(a)) => {
                    break record(cache.access(a, false), &mut accesses, &mut hits)
                }
                Some(Op::Write(a)) => {
                    break record(cache.access(a, true), &mut accesses, &mut hits)
                }
                Some(_) => continue,
                None => break false,
            }
        });
    }
    // The loop's own work is a small, constant share next to the cache
    // model; timing the whole replay avoids two clock reads per access.
    (accesses, hits, start.elapsed().as_secs_f64())
}

fn record(access: Access, accesses: &mut u64, hits: &mut u64) -> bool {
    *accesses += 1;
    *hits += u64::from(matches!(access, Access::Hit));
    true
}

/// Replays recorded admissions into fresh controllers seeded as the engine
/// seeds them. Returns host seconds for all `service_*` calls.
pub fn mc_replay(chip: &ChipConfig, admissions: &[Admission]) -> f64 {
    let mut mcs: Vec<MemController> = (0..chip.n_controllers())
        .map(|i| MemController::new_seeded(&chip.mem, i as u64 + 1))
        .collect();
    let start = Instant::now();
    for a in admissions {
        let mc = &mut mcs[a.mc as usize];
        let outcome = if a.is_write {
            mc.service_write(a.at_cycle)
        } else {
            mc.service_read(a.at_cycle)
        };
        black_box(outcome);
    }
    start.elapsed().as_secs_f64()
}

/// A stable 48-bit digest of a whole `SimStats` (exact as a JSON number).
pub fn stats_digest(stats: &SimStats) -> u64 {
    t2opt_store::fnv1a64(format!("{stats:?}").as_bytes()) >> 16
}

/// One simulation to measure layer by layer. `programs` must build the
/// same programs on every call.
pub struct SimCase<'a> {
    pub chip: ChipConfig,
    pub measure_after_barrier: bool,
    pub programs: &'a dyn Fn() -> Vec<Program>,
    pub core_of: &'a dyn Fn(usize) -> usize,
}

impl SimCase<'_> {
    pub fn simulation(&self) -> Simulation {
        let sim = Simulation::new(self.chip.clone());
        if self.measure_after_barrier {
            sim.measure_after_barrier(0)
        } else {
            sim
        }
    }

    pub fn threads(&self) -> Vec<ThreadSpec> {
        (self.programs)()
            .into_iter()
            .enumerate()
            .map(|(tid, p)| ThreadSpec::new((self.core_of)(tid), p))
            .collect()
    }
}

/// Simulator-layer totals over one or more simulations.
#[derive(Debug, Default)]
pub struct SimLayers {
    pub sims: u64,
    pub drain_s: f64,
    pub ops: u64,
    pub engine_s: f64,
    pub untraced_s: f64,
    pub probe: CountingProbe,
    pub l2_s: f64,
    pub l2_accesses: u64,
    pub l2_hits: u64,
    pub mc_s: f64,
    pub mc_services: u64,
    pub cycles: u64,
    pub nacks: u64,
    pub l2_misses: u64,
    pub writebacks: u64,
    pub busy_cycles: u64,
    /// Output-check failures, described.
    pub failures: Vec<String>,
}

impl SimLayers {
    /// Measures one case: drain, an untraced and a probed run (which must
    /// agree bit for bit), then the L2 and controller replays. Returns the
    /// untraced statistics.
    pub fn measure(&mut self, case: &SimCase<'_>, tracer: &Tracer, label: &str) -> SimStats {
        let group = tracer.new_group();
        let t = Instant::now();
        let count = {
            let _s = tracer.span("trace.drain", group, 0);
            drain((case.programs)())
        };
        self.drain_s += t.elapsed().as_secs_f64();

        let (sim, threads) = (case.simulation(), case.threads());
        let t = Instant::now();
        let plain = sim.run(threads);
        self.untraced_s += t.elapsed().as_secs_f64();

        let mut probe = CountingProbe::default();
        let traced = {
            let root = tracer.span("sim.traced", group, 0);
            let (sim, threads) = {
                let _s = tracer.span("build_trace", group, root.id());
                (case.simulation(), case.threads())
            };
            let _s = tracer.span("run_with_probe", group, root.id());
            let t = Instant::now();
            let stats = sim.run_with_probe(threads, &mut probe);
            self.engine_s += t.elapsed().as_secs_f64();
            stats
        };
        if traced != plain {
            self.failures
                .push(format!("{label}: probed and plain runs differ"));
        }
        if probe.window_nacks != traced.nacks {
            self.failures.push(format!(
                "{label}: probe counted {} window NACKs, SimStats {}",
                probe.window_nacks, traced.nacks
            ));
        }
        let window_ops = if case.measure_after_barrier {
            count.after_first_barrier
        } else {
            count.total
        };
        if plain.mem_ops != window_ops {
            self.failures.push(format!(
                "{label}: engine committed {} memory ops, programs emitted {window_ops}",
                plain.mem_ops
            ));
        }

        let (accesses, hits, l2_s) = {
            let _s = tracer.span("l2.replay", group, 0);
            l2_replay(&case.chip, (case.programs)())
        };
        let mc_s = {
            let _s = tracer.span("mc.replay", group, 0);
            mc_replay(&case.chip, &probe.admissions)
        };

        self.sims += 1;
        self.ops += count.total;
        self.l2_s += l2_s;
        self.l2_accesses += accesses;
        self.l2_hits += hits;
        self.mc_s += mc_s;
        self.mc_services += probe.admissions.len() as u64;
        self.cycles += plain.cycles();
        self.nacks += plain.nacks;
        self.l2_misses += plain.l2_misses;
        self.writebacks += plain.l2_writebacks;
        self.busy_cycles += plain.mc_busy_cycles.iter().sum::<u64>();
        self.probe.nacks += probe.nacks;
        self.probe.nacks_mc_full += probe.nacks_mc_full;
        for (acc, n) in self.probe.stalls.iter_mut().zip(probe.stalls) {
            *acc += n;
        }
        plain
    }

    /// Records the `kernels.*`, `engine.*`, `l2.*`, `mc.*` and `sim.*`
    /// per-layer metrics. `gbs` and `digest` summarise the simulated
    /// results the caller checked.
    pub fn report(&self, m: &mut Metrics, gbs: f64, digest: u64) {
        let n = self.sims as usize;
        let ops = self.ops.max(1) as f64;
        m.put(
            "kernels.trace_mops",
            self.ops as f64 / self.drain_s / 1e6,
            "Mop/s",
            n,
        );
        m.put("engine.ns_per_op", self.engine_s * 1e9 / ops, "ns", n);
        let nacks = self.probe.nacks as f64;
        m.put("engine.nacks_per_op", nacks / ops, "ratio", n);
        m.put("engine.useful_frac", ops / (ops + nacks), "ratio", n);
        let mc_frac = if nacks > 0.0 {
            self.probe.nacks_mc_full as f64 / nacks
        } else {
            0.0
        };
        m.put("engine.nack_mc_frac", mc_frac, "ratio", n);
        for ((_, suffix), count) in STALL_KINDS.iter().zip(self.probe.stalls) {
            m.put(&format!("engine.stalls.{suffix}"), count as f64, "count", n);
        }
        let accesses = self.l2_accesses.max(1) as f64;
        m.put("l2.ns_per_access", self.l2_s * 1e9 / accesses, "ns", n);
        m.put("l2.accesses", self.l2_accesses as f64, "count", n);
        m.put("l2.hit_rate", self.l2_hits as f64 / accesses, "ratio", n);
        let services = self.mc_services.max(1) as f64;
        m.put("mc.ns_per_service", self.mc_s * 1e9 / services, "ns", n);
        m.put("mc.services", self.mc_services as f64, "count", n);
        m.put(
            "mc.parallelism",
            self.busy_cycles as f64 / self.cycles.max(1) as f64,
            "ratio",
            n,
        );
        m.put("sim.cycles", self.cycles as f64, "cycles", n);
        m.put("sim.gbs", gbs, "GB/s", n);
        m.put("sim.nacks", self.nacks as f64, "count", n);
        m.put("sim.l2_misses", self.l2_misses as f64, "count", n);
        m.put("sim.writebacks", self.writebacks as f64, "count", n);
        m.put("sim.stats_digest", digest as f64, "hash", n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2opt_sim::trace::{chain_with_barriers, StreamLoop, StreamSpec};

    fn tiny_programs() -> Vec<Program> {
        (0..8u64)
            .map(|t| {
                let sweep = || {
                    StreamLoop::new(
                        vec![
                            StreamSpec::load(t * 4096),
                            StreamSpec::load((1 << 20) + t * 4096),
                            StreamSpec::store((2 << 20) + t * 4096),
                        ],
                        512,
                        8,
                        2.0,
                        64,
                    )
                };
                chain_with_barriers(vec![sweep(), sweep()], 0)
            })
            .collect()
    }

    #[test]
    fn probe_agrees_with_sim_stats_on_a_tiny_trace() {
        let chip = ChipConfig::ultrasparc_t2();
        let core_of = |tid: usize| tid % 8;
        let case = SimCase {
            chip: chip.clone(),
            measure_after_barrier: true,
            programs: &tiny_programs,
            core_of: &core_of,
        };
        let mut layers = SimLayers::default();
        let stats = layers.measure(&case, &Tracer::new(false), "tiny");
        assert!(layers.failures.is_empty(), "{:?}", layers.failures);
        // 8 threads x 2 sweeps x 3 streams x 512 words / 8 words per line.
        assert_eq!(layers.ops, 8 * 2 * 3 * 64);
        assert_eq!(stats.mem_ops, 8 * 3 * 64, "window covers the second sweep");
        assert!(layers.mc_services > 0, "the cold first sweep misses");
        assert_eq!(layers.l2_accesses, layers.ops);

        // The probe's window NACKs equal SimStats.nacks on a fresh probe.
        let mut probe = CountingProbe::default();
        let again = case.simulation().run_with_probe(case.threads(), &mut probe);
        assert_eq!(again, stats);
        assert_eq!(probe.window_nacks, again.nacks);
        assert!(probe.nacks >= probe.window_nacks);
    }

    #[test]
    fn drain_splits_ops_at_the_first_barrier() {
        let count = drain(tiny_programs());
        assert_eq!(count.total, 2 * count.after_first_barrier);
    }

    #[test]
    fn digest_tracks_every_field() {
        let a = SimStats::new(4, 8);
        let mut b = a.clone();
        assert_eq!(stats_digest(&a), stats_digest(&b));
        b.flops += 1;
        assert_ne!(stats_digest(&a), stats_digest(&b));
        assert!(stats_digest(&a) < 1 << 48);
    }
}
