//! Property-based tests for the memory-controller arbitration layer
//! (DESIGN.md §13): request conservation, controller event monotonicity,
//! and starvation bounds, over arbitrary arrival traces.

use proptest::prelude::*;
use t2opt_sim::policy::{read_first, MemRequest, PolicyKind, ReqClass};
use t2opt_sim::prelude::*;
use t2opt_telemetry::probe::SimProbe;

/// Counts and timestamps every controller service event.
struct ServiceLog {
    /// Per-controller demand/RFO read services.
    reads: Vec<u64>,
    /// Per-controller write-back services.
    writes: Vec<u64>,
    /// Per-controller decision times, in emission order.
    at: Vec<Vec<u64>>,
}

impl ServiceLog {
    fn new(n_mcs: usize) -> Self {
        ServiceLog {
            reads: vec![0; n_mcs],
            writes: vec![0; n_mcs],
            at: vec![Vec::new(); n_mcs],
        }
    }
}

impl SimProbe for ServiceLog {
    fn mc_service(
        &mut self,
        mc: usize,
        at_cycle: u64,
        _busy_added: u64,
        _queue_len: usize,
        is_write: bool,
    ) {
        if is_write {
            self.writes[mc] += 1;
        } else {
            self.reads[mc] += 1;
        }
        self.at[mc].push(at_cycle);
    }
}

/// The two policy shapes under test, from two proptest draws.
fn policy_from(idx: usize, cap: u32) -> PolicyKind {
    match idx % 2 {
        0 => PolicyKind::Fifo,
        _ => PolicyKind::ReadFirst {
            starvation_cap: cap,
        },
    }
}

/// Builds thread programs from arbitrary per-thread seeds: a mix of reads
/// and writes, optionally all aliased to the same controller (congruent
/// mod 512 B) to force queue pressure and NACK/retry traffic.
fn arbitrary_threads(seeds: &[u64], write_mod: u64, alias: bool) -> Vec<ThreadSpec> {
    seeds
        .iter()
        .enumerate()
        .map(|(t, &s)| {
            let stride = if alias { 512 } else { 64 };
            let base = (t as u64) * (1 << 24) + if alias { 0 } else { (s % 8) * 64 };
            let ops: Vec<Op> = (0..250u64)
                .map(|i| {
                    let addr = base + (s % 97) * 64 + i * stride;
                    if (i + s) % 4 < write_mod {
                        Op::Write(addr)
                    } else {
                        Op::Read(addr)
                    }
                })
                .collect();
            ThreadSpec::new(t % 8, Box::new(ops.into_iter()) as Program)
        })
        .collect()
}

proptest! {
    /// Request conservation under every policy: each admitted controller
    /// request is serviced exactly once — the per-controller service
    /// counts observed at the probe sum to exactly the miss and write-back
    /// counts, and DRAM traffic equals misses × line size. (The engine
    /// additionally asserts at end of run that no request, MSHR, or parked
    /// thread is left behind; running to completion is the liveness half.)
    #[test]
    fn requests_complete_exactly_once(
        seeds in proptest::collection::vec(0u64..1_000, 1..8),
        write_mod in 0u64..4,
        alias in 0u32..2,
        pidx in 0usize..2,
        cap in 0u32..16,
    ) {
        let mut cfg = ChipConfig::ultrasparc_t2();
        cfg.policy = policy_from(pidx, cap);
        let sim = Simulation::new(cfg.clone());
        let mut log = ServiceLog::new(cfg.n_controllers());
        let stats = sim.run_with_probe(
            arbitrary_threads(&seeds, write_mod, alias == 1),
            &mut log,
        );
        let reads: u64 = log.reads.iter().sum();
        let writes: u64 = log.writes.iter().sum();
        prop_assert_eq!(reads, stats.l2_misses, "one service per miss");
        prop_assert_eq!(writes, stats.l2_writebacks, "one service per write-back");
        prop_assert_eq!(stats.total_read_bytes(), stats.l2_misses * 64);
        prop_assert_eq!(stats.total_write_bytes(), stats.l2_writebacks * 64);
        prop_assert_eq!(stats.l2_hits + stats.l2_misses, stats.mem_ops);
    }

    /// On the arbitrated path, controller decisions are driven by queued
    /// events, so each controller's service times are monotone
    /// non-decreasing — time never runs backwards for an event source.
    #[test]
    fn controller_event_times_are_monotone(
        seeds in proptest::collection::vec(0u64..1_000, 1..8),
        write_mod in 0u64..4,
        alias in 0u32..2,
        cap in 0u32..16,
    ) {
        let mut cfg = ChipConfig::ultrasparc_t2();
        cfg.policy = PolicyKind::ReadFirst { starvation_cap: cap };
        let sim = Simulation::new(cfg.clone());
        let mut log = ServiceLog::new(cfg.n_controllers());
        sim.run_with_probe(arbitrary_threads(&seeds, write_mod, alias == 1), &mut log);
        for (mc, times) in log.at.iter().enumerate() {
            for w in times.windows(2) {
                prop_assert!(
                    w[0] <= w[1],
                    "controller {mc} arbitration time regressed: {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// Simulations stay bit-reproducible under every policy.
    #[test]
    fn deterministic_under_every_policy(
        seeds in proptest::collection::vec(0u64..500, 1..6),
        pidx in 0usize..2,
        cap in 0u32..16,
    ) {
        let mut cfg = ChipConfig::ultrasparc_t2();
        cfg.policy = policy_from(pidx, cap);
        let run = || Simulation::new(cfg.clone()).run(arbitrary_threads(&seeds, 1, true));
        prop_assert_eq!(run(), run());
    }

    /// Starvation bound, policy level: replaying an arbitrary arrival/
    /// service trace through [`read_first`] with the engine's bypass
    /// accounting, no request is ever bypassed more than `cap` times — the
    /// moment the oldest request hits the cap it must be selected.
    #[test]
    fn starvation_is_bounded_by_the_cap(
        trace in proptest::collection::vec((0u64..8, 0u32..3), 1..200),
        cap in 0u32..16,
    ) {
        let mut pending: Vec<MemRequest> = Vec::new();
        let mut now = 0u64;
        for (i, &(gap, class)) in trace.iter().enumerate() {
            now += gap;
            pending.push(MemRequest {
                id: (i + 1) as u64,
                arrival: now,
                class: match class {
                    0 => ReqClass::DemandRead,
                    1 => ReqClass::StoreRfo,
                    _ => ReqClass::Writeback,
                },
                tid: None,
                bank: None,
                bypassed: 0,
            });
            // Service one request per arrival step (queue pressure keeps
            // several pending, so reordering actually happens).
            if pending.len() >= 2 || gap > 4 {
                let sel = read_first(&pending, cap);
                prop_assert!(sel < pending.len(), "selection in range");
                let req = pending.swap_remove(sel);
                for p in pending.iter_mut() {
                    if p.id < req.id {
                        p.bypassed += 1;
                    }
                }
                prop_assert!(
                    req.bypassed <= cap,
                    "serviced a request bypassed {} times (cap {cap})",
                    req.bypassed
                );
                for p in &pending {
                    prop_assert!(
                        p.bypassed <= cap,
                        "left a request bypassed {} times (cap {cap})",
                        p.bypassed
                    );
                }
            }
        }
    }
}
