//! Property-based tests for the simulator's conservation laws and bounds.

use proptest::prelude::*;
use t2opt_sim::cache::{Access, L2Cache};
use t2opt_sim::config::{ChipConfig, L2Config};
use t2opt_sim::prelude::*;

/// The L2 content model as it was before its flat tag store: one `Vec` of
/// ways per set, the victim the first minimum of the last-use stamps with
/// invalid ways at 0. It is the reference for `cache_matches_the_reference_model`.
struct RefL2 {
    sets: Vec<Vec<RefWay>>,
    set_mask: u64,
    line_bits: u32,
    tick: u64,
}

#[derive(Clone, Copy, Default)]
struct RefWay {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

impl RefL2 {
    fn new(cfg: &L2Config) -> Self {
        let n_sets = cfg.sets();
        RefL2 {
            sets: vec![vec![RefWay::default(); cfg.ways]; n_sets],
            set_mask: n_sets as u64 - 1,
            line_bits: cfg.line.trailing_zeros(),
            tick: 0,
        }
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_bits;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    fn access(&mut self, addr: u64, is_write: bool) -> Access {
        self.tick += 1;
        let (set_idx, tag) = self.index(addr);
        let set_bits = self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];
        for way in set.iter_mut() {
            if way.valid && way.tag == tag {
                way.stamp = self.tick;
                way.dirty |= is_write;
                return Access::Hit;
            }
        }
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.stamp } else { 0 })
            .map(|(i, _)| i)
            .expect("ways > 0");
        let old = set[victim];
        set[victim] = RefWay {
            tag,
            valid: true,
            dirty: is_write,
            stamp: self.tick,
        };
        let writeback = if old.valid && old.dirty {
            let line = (old.tag << set_bits) | set_idx as u64;
            Some(line << self.line_bits)
        } else {
            None
        };
        Access::Miss { writeback }
    }

    fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.sets[set_idx].iter().any(|w| w.valid && w.tag == tag)
    }

    fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|w| w.valid).count())
            .sum()
    }
}

fn small_l2() -> L2Config {
    L2Config {
        bytes: 8192,
        ways: 4,
        line: 64,
        bank_cycles: 2,
        hit_latency: 26,
        mshr_per_bank: 8,
    }
}

proptest! {
    /// The cache never holds more lines than its capacity, and a second
    /// access to a line that was just inserted (within associativity
    /// pressure) behaves deterministically.
    #[test]
    fn cache_capacity_invariant(addrs in proptest::collection::vec(0u64..1_000_000, 1..2_000)) {
        let cfg = small_l2();
        let mut cache = L2Cache::new(&cfg);
        let capacity = cfg.bytes / cfg.line;
        for (i, &a) in addrs.iter().enumerate() {
            cache.access(a, i % 3 == 0);
            prop_assert!(cache.occupancy() <= capacity);
        }
    }

    /// Immediately re-accessing the same line is always a hit.
    #[test]
    fn immediate_reaccess_hits(addrs in proptest::collection::vec(0u64..100_000, 1..500)) {
        let mut cache = L2Cache::new(&small_l2());
        for &a in &addrs {
            cache.access(a, false);
            prop_assert_eq!(cache.access(a, false), Access::Hit);
        }
    }

    /// The cache answers every call as the reference model does, on every
    /// geometry of 1, 2, 4 or 16 sets by 1, 2, 4 or 16 ways: each access's
    /// hit or miss and write-back address, each `contains`, and the final
    /// occupancy. Addresses come from a pool of three lines per way, so
    /// sets conflict and dirty victims occur; `high` moves the pool above
    /// 2^40 to give the tags high bits. Each cache is built on a tag store
    /// an earlier cache dropped (`L2Cache`'s spare list), so the test also
    /// pins that a recycled store starts empty: run alone, each geometry
    /// reuses the previous one's, which grows along a row of ways and
    /// shrinks into the next row and into the next case.
    #[test]
    fn cache_matches_the_reference_model(
        calls in proptest::collection::vec((0u64..1 << 20, 0u64..64, 0u8..3), 1..800),
        high in proptest::bool::ANY,
    ) {
        for sets in [1usize, 2, 4, 16] {
            for ways in [1usize, 2, 4, 16] {
                let cfg = L2Config { bytes: sets * ways * 64, ways, ..small_l2() };
                let (mut cache, mut reference) = (L2Cache::new(&cfg), RefL2::new(&cfg));
                let pool = 3 * (sets * ways) as u64;
                let base = if high { 0x7ab << 40 } else { 0 };
                for &(line, byte, kind) in &calls {
                    let addr = base + (line % pool) * 64 + byte;
                    if kind == 2 {
                        prop_assert_eq!(cache.contains(addr), reference.contains(addr));
                    } else {
                        let is_write = kind == 1;
                        prop_assert_eq!(
                            cache.access(addr, is_write),
                            reference.access(addr, is_write)
                        );
                    }
                }
                prop_assert_eq!(cache.occupancy(), reference.occupancy());
            }
        }
    }

    /// DRAM read traffic equals misses × line size; write traffic equals
    /// write-backs × line size — conservation at the memory boundary.
    #[test]
    fn traffic_conservation(
        seeds in proptest::collection::vec(0u64..1_000, 1..8),
        write_frac in 0u32..4,
    ) {
        let sim = Simulation::t2();
        let threads: Vec<ThreadSpec> = seeds
            .iter()
            .enumerate()
            .map(|(t, &s)| {
                let base = (t as u64) * (1 << 24) + s * 64;
                let ops: Vec<Op> = (0..200u64)
                    .map(|i| {
                        let addr = base + i * 64;
                        if i % 4 < write_frac as u64 {
                            Op::Write(addr)
                        } else {
                            Op::Read(addr)
                        }
                    })
                    .collect();
                ThreadSpec::new(t % 8, Box::new(ops.into_iter()) as Program)
            })
            .collect();
        let stats = sim.run(threads);
        prop_assert_eq!(stats.total_read_bytes(), stats.l2_misses * 64);
        prop_assert_eq!(stats.total_write_bytes(), stats.l2_writebacks * 64);
        prop_assert_eq!(stats.l2_hits + stats.l2_misses, stats.mem_ops);
    }

    /// Simulated bandwidth never exceeds the configured aggregate service
    /// capacity (plus jitter slack).
    #[test]
    fn bandwidth_bounded_by_capacity(n_threads in 1usize..32) {
        let cfg = ChipConfig::ultrasparc_t2();
        let sim = Simulation::new(cfg.clone());
        let threads: Vec<ThreadSpec> = (0..n_threads)
            .map(|t| {
                let base = (t as u64) * (1 << 26) + 128 * (t as u64 % 4);
                ThreadSpec::new(
                    t % 8,
                    Box::new(StreamLoop::new(vec![StreamSpec::load(base)], 1 << 12, 8, 0.0, 64))
                        as Program,
                )
            })
            .collect();
        let stats = sim.run(threads);
        let capacity_bytes_per_cycle =
            cfg.n_controllers() as f64 * 64.0 / cfg.mem.read_service as f64;
        let measured =
            stats.total_bytes() as f64 / stats.cycles().max(1) as f64;
        // Jitter can make individual transfers up to `1 - jitter` faster.
        prop_assert!(
            measured <= capacity_bytes_per_cycle / (1.0 - cfg.mem.service_jitter) + 1e-9,
            "measured {measured:.2} B/cy exceeds capacity {capacity_bytes_per_cycle:.2}"
        );
    }

    /// Simulations are bit-reproducible: same inputs, same statistics.
    #[test]
    fn deterministic(seed in 0u64..500) {
        let build = || {
            let ops: Vec<Op> = (0..300u64)
                .map(|i| {
                    let a = (seed * 977 + i * 61) % 4096;
                    if (a / 7) % 3 == 0 {
                        Op::Write(a * 64)
                    } else {
                        Op::Read(a * 64)
                    }
                })
                .collect();
            vec![
                ThreadSpec::new(0, Box::new(ops.clone().into_iter()) as Program),
                ThreadSpec::new(1, Box::new(ops.into_iter()) as Program),
            ]
        };
        let a = Simulation::t2().run(build());
        let b = Simulation::t2().run(build());
        prop_assert_eq!(a, b);
    }

    /// Barriers never lose threads: any split of work across two phases
    /// completes, and the measurement window covers only the second phase.
    #[test]
    fn barrier_window_integrity(
        lens in proptest::collection::vec(1usize..100, 2..8),
    ) {
        let sim = Simulation::t2().measure_after_barrier(0);
        let threads: Vec<ThreadSpec> = lens
            .iter()
            .enumerate()
            .map(|(t, &len)| {
                let base = (t as u64) << 24;
                let phase1: Vec<Op> = (0..len as u64).map(|i| Op::Read(base + i * 64)).collect();
                let phase2: Vec<Op> =
                    (0..len as u64).map(|i| Op::Read(base + (1 << 20) + i * 64)).collect();
                let program = phase1
                    .into_iter()
                    .chain(std::iter::once(Op::Barrier(0)))
                    .chain(phase2);
                ThreadSpec::new(t % 8, Box::new(program) as Program)
            })
            .collect();
        let stats = sim.run(threads);
        let phase2_lines: u64 = lens.iter().map(|&l| l as u64).sum();
        prop_assert_eq!(stats.total_read_bytes(), phase2_lines * 64);
        prop_assert!(stats.start_cycle > 0);
        prop_assert!(stats.end_cycle >= stats.start_cycle);
    }
}
