//! The discrete-event simulation engine.
//!
//! Each simulated hardware thread executes its [`Program`] op by op. The
//! engine pops events — thread wake-ups and, under arbitrated policies,
//! controller arbitration steps — from a calendar queue (`crate::queue`)
//! in exact `(tick, scheduling order)` order, and models five resource
//! classes:
//!
//! * per-core **memory pipes** (2 on the T2) — every memory op takes an
//!   issue slot;
//! * per-core **FPU** (one shared unit) — `Compute` ops serialize on it,
//!   which is what caps the LBM at low bytes/flop (§2.4);
//! * **L2 banks** — each access occupies its bank for `bank_cycles`, and
//!   each bank tracks a finite number of outstanding misses (MSHRs);
//! * **memory controllers** — dual-channel FB-DIMM links (see
//!   [`crate::mc`]): reads pipeline on the northbound channel, write-backs
//!   and read commands share the southbound channel, with finite input
//!   queues;
//! * per-thread **load/miss and store-buffer budgets** — a thread blocks on
//!   every L2 *load* miss until the line returns (the T2's single
//!   outstanding miss per thread; configurable for the ablation study),
//!   while *stores* retire through an 8-entry TSO store buffer whose
//!   read-for-ownerships drain asynchronously.
//!
//! ## Who owns which state
//!
//! [`Simulation::run_with_probe`] pops events and dispatches them to two
//! structs. `MemSystem` owns the L2 and its banks, the controllers and
//! their queues, the policy, the NUMA page homes and link, and the
//! [`SimStats`]. `Threads`, the thread table, owns each thread's program,
//! budgets and park, the cores' pipes and FPUs, the gang window, the
//! barriers, and the event queue and probe that both sides use. Handlers
//! keep a fixed order of event pushes and probe calls: same-tick events pop
//! in scheduling order, and the golden probe digests fold the call order.
//!
//! ## One memory path, two admission disciplines
//!
//! Memory controllers are first-class event sources: the event queue
//! holds thread wake-ups *and* `(next_tick, mc_id)` controller arbitration
//! wake-ups (see [`crate::policy`] and DESIGN.md §13). Every memory op
//! takes the same path — budget check, pipe slot, NUMA remap, NACK check,
//! bank access, write-back routing — and every transfer the same service
//! step (channel model, queue-slot and MSHR release, link crossing, the
//! owner's loads or stores, retry release). The configured
//! [`crate::policy::PolicyKind`] decides only *when* the service step
//! runs:
//!
//! * **FIFO (the pinned default)** services at admission: its service
//!   order can never depend on requests that arrive later, so the
//!   completion time is known at once and no controller event is ever
//!   scheduled. Its completion lists stay in admission order, drop
//!   completed entries from the front only, and free a slot at position
//!   `len − cap`; `tests/policy_differential.rs` holds its [`SimStats`]
//!   and probe stream bitwise to captures of the engine from before the
//!   path was shared.
//! * **Arbitrated (read-first)** admission only parks the request in the
//!   controller's pending queue and schedules an arbitration event; when
//!   the event fires and the southbound channel is free,
//!   [`crate::policy::read_first`] picks among the arrived requests and
//!   the service step resolves the pick. Completed entries are dropped
//!   wherever they sit, and a slot frees at the earliest completion.
//!   NACKed threads whose retry time is unknowable (every queue occupant
//!   still unresolved) park on the controller and are released by the
//!   next service.
//!
//! Full controller queues and full bank miss buffers NACK the request
//! under both. Everything is deterministically seeded and the pick is a
//! pure function of the queue, so simulations are bit-reproducible under
//! every policy.
//!
//! ## Why the gang window exists
//!
//! The paper's central observation — at aliased offsets "all threads hit
//! exactly one memory controller at a time. As the loop count proceeds,
//! successive controllers are of course used in turn, but not concurrently"
//! (§2.1) — is a statement about *convoy stability*. An idealized
//! infinite-FIFO queue model does not produce it: the initial service order
//! smears the threads into a stable, perfectly staggered conveyor that
//! covers all controllers and hides the aliasing entirely (we verified
//! this; configure `gang_window: None` to get that machine, or run the
//! `ablation_outstanding` binary). On the real chip, fair round-robin
//! crossbar arbitration, NACK storms and retry congestion keep the threads
//! of a bulk-synchronous loop batched, and the measured 3–4× collapse
//! follows. The engine models that net effect directly: no thread may
//! commit more than `gang_window` memory operations beyond the slowest
//! still-running thread (threads leave the gang at barriers and at program
//! end, so the window cannot deadlock).

use crate::cache::{Access, L2Cache};
use crate::config::{ChipConfig, CoreConfig};
use crate::mc::MemController;
use crate::policy::{read_first, MemRequest, ReqClass};
use crate::queue::EventQueue;
use crate::stats::SimStats;
use crate::trace::{Op, Program};
use std::collections::{HashMap, VecDeque};
use t2opt_core::mapping::PageHomes;
use t2opt_telemetry::probe::{NoProbe, SimProbe, StallKind};
use t2opt_telemetry::timeline::{Timeline, TimelineRecorder, TraceConfig};

/// One simulated hardware thread: which core it is pinned to and what it
/// executes.
pub struct ThreadSpec {
    /// Core index in `0..cfg.core.n_cores`.
    pub core: usize,
    /// The thread's op stream.
    pub program: Program,
}

impl ThreadSpec {
    /// Creates a thread spec.
    pub fn new(core: usize, program: Program) -> Self {
        ThreadSpec { core, program }
    }
}

/// A configured simulation, ready to run.
pub struct Simulation {
    cfg: ChipConfig,
    measure_after_barrier: Option<u32>,
}

/// Drops the completed entries (≤ now) of a list of completion times: a
/// controller's queue slots, a bank's MSHRs, a thread's loads or stores.
///
/// FIFO keeps every list in admission order and drops from the front only,
/// so an entry that completed behind a later-completing one keeps its slot
/// until the front clears. Arbitrated policies resolve completions out of
/// order and drop every completed entry.
#[inline]
fn drop_completed(fifo: bool, q: &mut VecDeque<u64>, now: u64) {
    if fifo {
        while q.front().is_some_and(|&c| c <= now) {
            q.pop_front();
        }
    } else {
        q.retain(|&c| c > now);
    }
}

/// When one of `cap` full slots frees, given the completion times `q` of
/// the serviced entries holding them: position `len − cap` of FIFO's
/// admission-ordered list, the earliest entry under arbitration. `None`
/// when no holder is serviced yet, so the time is unknowable.
#[inline]
fn slot_frees_at(fifo: bool, q: &VecDeque<u64>, cap: usize) -> Option<u64> {
    if fifo {
        q.len().checked_sub(cap).map(|i| q[i])
    } else {
        q.iter().min().copied()
    }
}

/// An event in the engine's [`EventQueue`]. Events pop by tick and, within
/// a tick, in the order they were scheduled, so the payload never decides
/// the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Wake hardware thread `tid`.
    Thread(u32),
    /// Run controller `mc`'s arbitration step.
    McArb(u32),
}

/// One memory controller: its channel model and its queue state.
struct McState {
    ctl: MemController,
    /// Admitted requests awaiting arbitration (always empty under FIFO,
    /// which services at admission). Each occupies a queue slot until its
    /// transfer *completes*.
    pending: Vec<MemRequest>,
    /// Completion times of serviced transfers still occupying a queue slot.
    inflight: VecDeque<u64>,
    /// Threads NACKed while every slot occupant was unresolved (no retry
    /// time computable); released at the next service.
    retry: Vec<u32>,
    /// Earliest scheduled arbitration wake-up (event dedup).
    arb_at: Option<u64>,
}

/// One L2 bank: its busy horizon and its miss buffers (MSHRs).
#[derive(Default)]
struct BankState {
    /// Cycle at which the bank's last accepted access ends.
    busy: u64,
    /// Misses holding an MSHR whose transfer is not yet serviced.
    pending: usize,
    /// Completion times of serviced misses still holding an MSHR.
    inflight: VecDeque<u64>,
    /// Threads NACKed on a full MSHR file with no resolved entry.
    retry: Vec<u32>,
}

/// The memory side of a run (see the module docs).
struct MemSystem {
    /// Owned rather than borrowed: the hot paths read it on every op, and a
    /// borrow costs a pointer chase per read.
    cfg: ChipConfig,
    /// FIFO services at admission, read-first at [`Ev::McArb`] events.
    fifo: bool,
    stats: SimStats,
    cache: L2Cache,
    banks: Vec<BankState>,
    mcs: Vec<McState>,
    /// Global admission sequence: id order is age order for the policies.
    next_req: u64,
    // NUMA state, inert on single-socket chips. On a multi-socket chip the
    // raw mapping picks the *local* controller shape (`raw % mps`); the
    // page's home socket picks which socket's group serves it. Remote
    // transfers additionally occupy the shared inter-socket link (one
    // global busy horizon — the coarse link-occupancy approximation of
    // DESIGN §14) and pay the remote latency adder. When `numa_on` is false
    // none of this code runs and the engine is statement-for-statement the
    // single-socket machine.
    numa_on: bool,
    homes: PageHomes,
    /// Cycle at which the inter-socket link frees.
    link_busy: u64,
}

/// One hardware thread.
struct ThreadState {
    core: usize,
    socket: u32,
    program: Program,
    /// The op taken from `program` that could not issue yet.
    pending: Option<Op>,
    /// Completion times of outstanding load misses.
    loads: VecDeque<u64>,
    /// Completion times of in-flight store RFOs (buffer entries).
    stores: VecDeque<u64>,
    /// Issued load misses not yet serviced (their completion times do not
    /// exist yet).
    loads_pending: usize,
    /// Issued store RFOs not yet serviced.
    stores_pending: usize,
    /// Latest completion over everything this thread issued.
    drain_until: u64,
    /// Set while the thread has no scheduled wake-up: the stall it parked
    /// on and since when, which [`Threads::wake`] reports. Barriers and the
    /// gang window (`Drift`) park threads, and so, under arbitrated policies
    /// only, do a NACK or a full budget whose release time is still
    /// unknowable (`Nack`, `LoadMiss`, `StoreBuffer`).
    park: Option<(StallKind, u64)>,
    finished: bool,
}

/// One barrier's arrivals so far.
#[derive(Default)]
struct BarrierState {
    arrivals: usize,
    /// The latest arrival: when the barrier releases.
    release: u64,
    waiters: Vec<u32>,
}

/// The thread table: the thread side of a run (see the module docs).
struct Threads<'p, P> {
    /// Owned, like [`MemSystem::cfg`].
    core: CoreConfig,
    /// Completion lists keep admission order (see [`drop_completed`]).
    fifo: bool,
    q: EventQueue<Ev>,
    probe: &'p mut P,
    ts: Vec<ThreadState>,
    /// When each memory pipe frees, `mem_pipes` per core.
    pipes: Vec<u64>,
    /// When each core's FPU frees.
    fpu_busy: Vec<u64>,
    barriers: HashMap<u32, BarrierState>,
    /// The barrier whose release opens the measurement window.
    measure_after_barrier: Option<u32>,
    // Gang drift window: per-thread memory-op counts, gang membership, and
    // the current minimum over members. Threads leave the gang when they
    // finish or park at a barrier (else a short-program thread would
    // freeze the window and deadlock the rest).
    gang_count: Vec<u64>,
    in_gang: Vec<bool>,
    gang_min: u64,
    drift_parked: Vec<u32>,
}

impl Simulation {
    /// A simulation of the given chip.
    pub fn new(cfg: ChipConfig) -> Self {
        cfg.validate().expect("invalid chip configuration");
        Simulation {
            cfg,
            measure_after_barrier: None,
        }
    }

    /// A simulation of the calibrated UltraSPARC T2.
    pub fn t2() -> Self {
        Simulation::new(ChipConfig::ultrasparc_t2())
    }

    /// Starts the measurement window when barrier `id` releases: all
    /// counters collected before it are discarded. Use the warm-up sweep +
    /// barrier pattern from [`crate::trace::chain_with_barriers`].
    pub fn measure_after_barrier(mut self, id: u32) -> Self {
        self.measure_after_barrier = Some(id);
        self
    }

    /// The chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Runs the given threads to completion and returns the statistics.
    ///
    /// This is the uninstrumented path: it monomorphizes over the no-op
    /// [`NoProbe`], so it compiles to exactly the same code — and produces
    /// bitwise-identical [`SimStats`] — as before the telemetry hooks
    /// existed.
    ///
    /// # Panics
    /// Panics if a thread's core index is out of range, if a core's
    /// hardware-thread capacity is exceeded, or on inconsistent barrier use
    /// (deadlock: some threads finished while others wait).
    pub fn run(&self, threads: Vec<ThreadSpec>) -> SimStats {
        self.run_with_probe(threads, &mut NoProbe)
    }

    /// Runs the threads with time-resolved telemetry: per-MC busy cycles
    /// and NACKs in fixed windows, collected into a [`Timeline`]. The
    /// measurement window of the timeline follows
    /// [`Simulation::measure_after_barrier`] exactly as the statistics do.
    pub fn run_traced(
        &self,
        threads: Vec<ThreadSpec>,
        trace: &TraceConfig,
    ) -> (SimStats, Timeline) {
        let mut recorder = TimelineRecorder::new(self.cfg.n_controllers(), trace);
        let stats = self.run_with_probe(threads, &mut recorder);
        let timeline = recorder.finish(stats.end_cycle);
        (stats, timeline)
    }

    /// Runs the threads against a caller-supplied [`SimProbe`] — the
    /// generic instrumentation entry point [`Simulation::run`] and
    /// [`Simulation::run_traced`] are wrappers over.
    ///
    /// # Panics
    /// As [`Simulation::run`].
    pub fn run_with_probe<P: SimProbe>(&self, threads: Vec<ThreadSpec>, probe: &mut P) -> SimStats {
        let cfg = &self.cfg;
        assert!(!threads.is_empty(), "need at least one thread");
        let mut occupancy = vec![0usize; cfg.core.n_cores];
        for t in &threads {
            assert!(
                t.core < cfg.core.n_cores,
                "core index {} out of range ({} cores)",
                t.core,
                cfg.core.n_cores
            );
            occupancy[t.core] += 1;
            assert!(
                occupancy[t.core] <= cfg.core.threads_per_core,
                "core {} oversubscribed (> {} hardware threads)",
                t.core,
                cfg.core.threads_per_core
            );
        }

        let mut mem = MemSystem::new(cfg);
        let mut thr = Threads::new(self, threads, probe);
        while let Some((now, ev)) = thr.q.pop() {
            let tid = match ev {
                Ev::Thread(tid) => tid,
                Ev::McArb(mc) => {
                    mem.arbitrate(mc as usize, now, &mut thr);
                    continue;
                }
            };
            let t = &mut thr.ts[tid as usize];
            let Some(op) = t.pending.take().or_else(|| t.program.next()) else {
                thr.finish(tid, now, &mut mem.stats);
                continue;
            };
            match op {
                Op::Delay(c) => thr.q.push(now + c as u64, Ev::Thread(tid)),
                Op::Compute(flops) => thr.compute(tid, flops, now, &mut mem.stats),
                Op::Barrier(id) => thr.barrier(tid, id, now, &mut mem.stats),
                Op::Read(_) | Op::Write(_) => {
                    if let Some(pipe) = thr.issue_slot(tid, op, now) {
                        thr.pipes[pipe] = now + mem.issue(tid, op, now, &mut thr);
                    }
                }
            }
        }

        let live = thr.ts.iter().filter(|t| !t.finished).count();
        assert_eq!(
            live, 0,
            "deadlock: {live} thread(s) never finished (barrier mismatch?)"
        );
        // Request conservation: every admitted request was serviced exactly
        // once, every MSHR released, every parked thread released.
        for (i, st) in mem.mcs.iter().enumerate() {
            assert!(
                st.pending.is_empty(),
                "conservation: controller {i} still holds {} unserviced request(s)",
                st.pending.len()
            );
            assert!(
                st.retry.is_empty(),
                "conservation: controller {i} still parks {} NACKed thread(s)",
                st.retry.len()
            );
        }
        for (i, b) in mem.banks.iter().enumerate() {
            assert_eq!(
                b.pending, 0,
                "conservation: bank {i} MSHRs still track unserviced misses"
            );
            assert!(
                b.retry.is_empty(),
                "conservation: bank {i} still parks NACKed threads"
            );
        }
        for (i, t) in thr.ts.iter().enumerate() {
            assert_eq!(
                t.loads_pending + t.stores_pending,
                0,
                "conservation: thread {i} ended with unresolved requests"
            );
        }
        mem.stats
    }
}

impl MemSystem {
    fn new(cfg: &ChipConfig) -> Self {
        MemSystem {
            cfg: cfg.clone(),
            fifo: cfg.policy.is_fifo(),
            stats: SimStats::new(cfg.n_controllers(), cfg.n_banks()),
            cache: L2Cache::new(&cfg.l2),
            banks: (0..cfg.n_banks()).map(|_| BankState::default()).collect(),
            mcs: (0..cfg.n_controllers())
                .map(|i| McState {
                    ctl: MemController::new_seeded(&cfg.mem, i as u64 + 1),
                    pending: Vec::new(),
                    inflight: VecDeque::new(),
                    retry: Vec::new(),
                    arb_at: None,
                })
                .collect(),
            next_req: 0,
            numa_on: cfg.numa.is_numa(),
            homes: PageHomes::new(cfg.placement, cfg.numa.n_sockets, cfg.numa.page_bytes),
            link_busy: 0,
        }
    }

    /// The controller that serves `addr` for a thread on socket `sock`.
    #[inline(always)]
    fn home_controller(&mut self, addr: u64, sock: u32) -> usize {
        let raw = self.cfg.map.controller(addr) as usize;
        if self.numa_on {
            let mps = self.cfg.mcs_per_socket();
            self.homes.home(addr, sock) as usize * mps + raw % mps
        } else {
            raw
        }
    }

    /// When a line leaving one end of a transfer between controller `mc` and
    /// socket `sock` at `at` reaches the other, remote latency adder `extra`
    /// included.
    #[inline(always)]
    fn deliver(&mut self, mc: usize, sock: u32, at: u64, extra: u64) -> u64 {
        if self.numa_on && self.cfg.socket_of_controller(mc) as u32 != sock {
            self.link_busy = at.max(self.link_busy) + self.cfg.numa.link_cycles_per_line;
            self.link_busy + extra
        } else {
            at
        }
    }

    /// Issues thread `tid`'s memory op `op` from a free pipe at `now`:
    /// NUMA remap, NACK check, bank access, gang progress, L2 lookup,
    /// write-back routing and miss admission. Returns the cycles the access
    /// holds its pipe.
    fn issue<P: SimProbe>(&mut self, tid: u32, op: Op, now: u64, thr: &mut Threads<P>) -> u64 {
        let (Op::Read(addr) | Op::Write(addr)) = op else {
            unreachable!("only memory ops issue")
        };
        let is_write = matches!(op, Op::Write(_));
        let bank = self.cfg.map.bank(addr) as usize;
        let my_sock = thr.ts[tid as usize].socket;
        let mc = self.home_controller(addr, my_sock);
        // NACK checks: a miss needs a controller-queue slot and a bank miss
        // buffer; if either is full the request is rejected and retried
        // when the blocking entry completes. The probe occupies the pipe
        // like any other access, for two cycles.
        if !self.cache.contains(addr) {
            let (ms, bs) = (&mut self.mcs[mc], &mut self.banks[bank]);
            drop_completed(self.fifo, &mut ms.inflight, now);
            drop_completed(self.fifo, &mut bs.inflight, now);
            let mc_full = ms.pending.len() + ms.inflight.len() >= self.cfg.mem.queue_depth;
            let bank_full = bs.pending + bs.inflight.len() >= self.cfg.l2.mshr_per_bank;
            if mc_full || bank_full {
                self.stats.nacks += 1;
                thr.probe.nack(now, tid, mc, bank, mc_full);
                let (done, cap, retry) = if mc_full {
                    (&ms.inflight, self.cfg.mem.queue_depth, &mut ms.retry)
                } else {
                    (&bs.inflight, self.cfg.l2.mshr_per_bank, &mut bs.retry)
                };
                match slot_frees_at(self.fifo, done, cap) {
                    Some(free) => thr.stall(tid, StallKind::Nack, now, free.max(now + 1)),
                    None => {
                        thr.ts[tid as usize].park = Some((StallKind::Nack, now));
                        retry.push(tid);
                    }
                }
                return 2;
            }
        }
        // L2 bank access.
        let b = &mut self.banks[bank];
        let bank_start = (now + 1).max(b.busy);
        let bank_done = bank_start + self.cfg.l2.bank_cycles;
        b.busy = bank_done;
        self.stats.bank_accesses[bank] += 1;
        self.stats.mem_ops += 1;
        thr.probe.bank_access(bank, bank_start);
        // The op is committed: advance this thread's gang progress.
        thr.commit(tid, now);
        match self.cache.access(addr, is_write) {
            Access::Hit => {
                self.stats.l2_hits += 1;
                // A store hit retires through the store buffer: the thread
                // moves on at once.
                let resume = if is_write {
                    bank_done
                } else {
                    bank_start + self.cfg.l2.hit_latency
                };
                thr.q.push(resume, Ev::Thread(tid));
            }
            Access::Miss { writeback } => {
                self.stats.l2_misses += 1;
                let line_bytes = self.cfg.l2.line as u64;
                if let Some(victim) = writeback {
                    // Write-backs come from the L2's eviction buffers:
                    // southbound transfer, no bank MSHR, no thread wait. A
                    // remote victim's line crosses the inter-socket link
                    // before its home controller can serve it.
                    let vmc = self.home_controller(victim, my_sock);
                    let arrival =
                        self.deliver(vmc, my_sock, bank_done, self.cfg.numa.remote_write_extra);
                    self.stats.mc_write_bytes[vmc] += line_bytes;
                    self.stats.l2_writebacks += 1;
                    self.next_req += 1;
                    let wb = MemRequest {
                        id: self.next_req,
                        arrival,
                        class: ReqClass::Writeback,
                        tid: None,
                        bank: None,
                        bypassed: 0,
                    };
                    self.admit(vmc, wb, bank_done, thr);
                }
                // The miss holds an MSHR and a budget entry until the
                // service step resolves it.
                self.stats.mc_read_bytes[mc] += line_bytes;
                self.banks[bank].pending += 1;
                let t = &mut thr.ts[tid as usize];
                let class = if is_write {
                    t.stores_pending += 1;
                    ReqClass::StoreRfo
                } else {
                    t.loads_pending += 1;
                    ReqClass::DemandRead
                };
                self.next_req += 1;
                let miss = MemRequest {
                    id: self.next_req,
                    arrival: bank_done,
                    class,
                    tid: Some(tid),
                    bank: Some(bank),
                    bypassed: 0,
                };
                self.admit(mc, miss, bank_done, thr);
                let t = &thr.ts[tid as usize];
                if !is_write && t.loads.len() + t.loads_pending >= thr.core.outstanding_misses {
                    // Budget full (the T2 case): block until the data
                    // returns.
                    thr.wait_for_slot(tid, StallKind::LoadMiss, bank_done);
                } else {
                    // A store miss's RFO drains from the store buffer, so
                    // the thread moves on; so does a load with
                    // hit-under-miss headroom (ablations).
                    thr.q.push(bank_done, Ev::Thread(tid));
                }
            }
        }
        1
    }

    /// Admits `req`, which left its L2 bank at `now`, to controller `mc`.
    /// FIFO's service order can never depend on later arrivals, so FIFO
    /// services the request on the spot and never schedules a controller
    /// event. Arbitrated policies park it in the controller's pending
    /// queue and schedule arbitration for when both the request and the
    /// southbound channel can be ready.
    #[inline(always)]
    fn admit<P: SimProbe>(&mut self, mc: usize, req: MemRequest, now: u64, thr: &mut Threads<P>) {
        if self.fifo {
            self.service(mc, req, now, thr);
        } else {
            let m = &mut self.mcs[mc];
            let at = req.arrival.max(m.ctl.south_busy);
            m.pending.push(req);
            self.sched_arb(mc, at, &mut thr.q);
        }
    }

    /// Schedules controller `mc`'s next arbitration step at `at`, unless
    /// one at or before `at` is already queued.
    fn sched_arb(&mut self, mc: usize, at: u64, q: &mut EventQueue<Ev>) {
        let m = &mut self.mcs[mc];
        if m.arb_at.is_none_or(|t| at < t) {
            m.arb_at = Some(at);
            q.push(at, Ev::McArb(mc as u32));
        }
    }

    /// The service step: controller `mc` services `req`, reported at `now`;
    /// the channel starts at `now.max(req.arrival)`, which differs from
    /// `now` only for a remote write-back FIFO services at admission,
    /// before its line has crossed the link. The queue slot and, for a
    /// demand read or RFO, the MSHR and the owner's budget entry resolve to
    /// the transfer's completion.
    #[inline(always)]
    fn service<P: SimProbe>(&mut self, mc: usize, req: MemRequest, now: u64, thr: &mut Threads<P>) {
        let m = &mut self.mcs[mc];
        let start = now.max(req.arrival);
        let out = if req.is_read() {
            m.ctl.service_read(start)
        } else {
            m.ctl.service_write(start)
        };
        self.stats.mc_busy_cycles[mc] += out.busy_added;
        m.inflight.push_back(out.completion);
        let queue_len = m.pending.len() + m.inflight.len();
        thr.probe
            .mc_service(mc, now, out.busy_added, queue_len, !req.is_read());
        if !self.fifo {
            // Every older request that was ready and passed over counts one
            // step toward its starvation cap.
            for p in m.pending.iter_mut() {
                if p.arrival <= now && p.id < req.id {
                    p.bypassed = p.bypassed.saturating_add(1);
                }
            }
            // The queue slot and MSHR free when this transfer completes:
            // that resolves the retry time for threads NACKed while every
            // occupant was unresolved (which FIFO, resolving at admission,
            // never has).
            let slot_free = out.completion.max(now + 1);
            for w in m.retry.drain(..) {
                thr.wake(w, slot_free);
            }
            if let Some(b) = req.bank {
                for w in self.banks[b].retry.drain(..) {
                    thr.wake(w, slot_free);
                }
            }
        }
        if let (Some(b), Some(owner)) = (req.bank, req.tid) {
            // A demand read or RFO: the MSHR it holds resolves, and so does
            // the owner thread's wait time. A remote line still has to
            // cross the link before the owner's socket sees it.
            let sock = thr.ts[owner as usize].socket;
            let completion =
                self.deliver(mc, sock, out.completion, self.cfg.numa.remote_read_extra);
            let bank = &mut self.banks[b];
            bank.pending -= 1;
            bank.inflight.push_back(completion);
            let t = &mut thr.ts[owner as usize];
            let ready = if req.class == ReqClass::StoreRfo {
                t.stores_pending -= 1;
                t.stores.push_back(completion);
                completion
            } else {
                t.loads_pending -= 1;
                let data_ready = completion + self.cfg.mem.extra_latency;
                t.loads.push_back(data_ready);
                data_ready
            };
            t.drain_until = t.drain_until.max(ready);
            if t.finished {
                // The owner ran off the end of its program with this
                // request still in flight: extend the drain.
                self.stats.end_cycle = self.stats.end_cycle.max(t.drain_until);
            } else if let Some((StallKind::LoadMiss | StallKind::StoreBuffer, _)) = t.park {
                thr.wake(owner, ready);
            }
        }
    }

    /// Controller `mc`'s arbitration step at `now` (read-first only): once
    /// the southbound channel is free, [`read_first`] picks one arrived
    /// request for the service step.
    fn arbitrate<P: SimProbe>(&mut self, mc: usize, now: u64, thr: &mut Threads<P>) {
        let m = &mut self.mcs[mc];
        if m.arb_at == Some(now) {
            m.arb_at = None;
        }
        if m.pending.is_empty() {
            return;
        }
        // Don't reserve a busy southbound channel: selecting now would
        // commit an order before later arrivals are seen — the exact FIFO
        // behavior the policies exist to avoid. Re-arbitrate when the
        // channel frees.
        let south = m.ctl.south_busy;
        if south > now {
            self.sched_arb(mc, south, &mut thr.q);
            return;
        }
        // Requests that have actually arrived are eligible: move them to the
        // front. The pick goes by request id, so their order does not matter.
        let mut n = 0;
        for i in 0..m.pending.len() {
            if m.pending[i].arrival <= now {
                m.pending.swap(i, n);
                n += 1;
            }
        }
        if n > 0 {
            // One service slot: read-first picks, the service step resolves
            // the completion time. FIFO never gets here; its cap of 0 would
            // pick the oldest request.
            let cap = self.cfg.policy.starvation_cap().unwrap_or(0);
            let req = m.pending.swap_remove(read_first(&m.pending[..n], cap));
            self.service(mc, req, now, thr);
        }
        let m = &self.mcs[mc];
        if let Some(arrival) = m.pending.iter().map(|r| r.arrival).min() {
            let at = m.ctl.south_busy.max(arrival).max(now);
            self.sched_arb(mc, at, &mut thr.q);
        }
    }
}

impl<'p, P: SimProbe> Threads<'p, P> {
    /// The table for `threads` under `sim`, each due to start at tick 0.
    fn new(sim: &Simulation, threads: Vec<ThreadSpec>, probe: &'p mut P) -> Self {
        let cfg = &sim.cfg;
        let n = threads.len();
        let mut q = EventQueue::new();
        for tid in 0..n as u32 {
            q.push(0, Ev::Thread(tid));
        }
        Threads {
            core: cfg.core.clone(),
            fifo: cfg.policy.is_fifo(),
            q,
            probe,
            ts: threads
                .into_iter()
                .map(|t| ThreadState {
                    core: t.core,
                    socket: cfg.socket_of_core(t.core) as u32,
                    program: t.program,
                    pending: None,
                    loads: VecDeque::new(),
                    stores: VecDeque::new(),
                    loads_pending: 0,
                    stores_pending: 0,
                    drain_until: 0,
                    park: None,
                    finished: false,
                })
                .collect(),
            pipes: vec![0; cfg.core.n_cores * cfg.core.mem_pipes],
            fpu_busy: vec![0; cfg.core.n_cores],
            barriers: HashMap::new(),
            measure_after_barrier: sim.measure_after_barrier,
            gang_count: vec![0; n],
            in_gang: vec![true; n],
            gang_min: 0,
            drift_parked: Vec::new(),
        }
    }

    /// Reports that thread `tid` stalls on `kind` from `from` and schedules
    /// it to run again at `until`.
    #[inline(always)]
    fn stall(&mut self, tid: u32, kind: StallKind, from: u64, until: u64) {
        self.probe.stall(tid, kind, from, until);
        self.q.push(until, Ev::Thread(tid));
    }

    /// Unparks thread `tid` at `at`, reporting the stall it parked for.
    #[inline(always)]
    fn wake(&mut self, tid: u32, at: u64) {
        let park = self.ts[tid as usize].park.take();
        let (kind, since) = park.expect("only a parked thread is woken");
        self.stall(tid, kind, since, at);
    }

    /// Thread `tid` ran off the end of its program at `now`.
    fn finish(&mut self, tid: u32, now: u64, stats: &mut SimStats) {
        let t = &mut self.ts[tid as usize];
        t.finished = true;
        stats.end_cycle = stats.end_cycle.max(now).max(t.drain_until);
        self.in_gang[tid as usize] = false;
        self.gang_update(now);
    }

    /// Thread `tid` runs `flops` on its core's shared FPU, once it is free.
    fn compute(&mut self, tid: u32, flops: u32, now: u64, stats: &mut SimStats) {
        let core = self.ts[tid as usize].core;
        let cycles = (flops as f64 / self.core.fpu_flops_per_cycle)
            .ceil()
            .max(1.0) as u64;
        let start = now.max(self.fpu_busy[core]);
        if start > now {
            self.probe.stall(tid, StallKind::Fpu, now, start);
        }
        self.fpu_busy[core] = start + cycles;
        stats.flops += flops as u64;
        self.q.push(start + cycles, Ev::Thread(tid));
    }

    /// Thread `tid` reaches barrier `id` at `now`. It parks until the last
    /// thread arrives, which releases every waiter at the latest arrival
    /// and, at the measured barrier, opens the measurement window.
    fn barrier(&mut self, tid: u32, id: u32, now: u64, stats: &mut SimStats) {
        let b = self.barriers.entry(id).or_default();
        b.arrivals += 1;
        b.release = b.release.max(now);
        if b.arrivals == self.ts.len() {
            let release = b.release;
            for w in std::mem::take(&mut b.waiters) {
                self.wake(w, release);
                self.in_gang[w as usize] = true;
            }
            self.q.push(release, Ev::Thread(tid));
            self.probe.barrier_release(id, release);
            if self.measure_after_barrier == Some(id) {
                stats.reset_window(release);
                self.probe.window_reset(release);
            }
            self.gang_update(release);
        } else {
            b.waiters.push(tid);
            self.ts[tid as usize].park = Some((StallKind::Barrier, now));
            // Leave the gang while parked, else a straggler on the way to
            // the barrier could deadlock the window.
            self.in_gang[tid as usize] = false;
            self.gang_update(now);
        }
    }

    /// The pipe thread `tid`'s memory op `op` issues from at `now`, if it
    /// can issue. Otherwise the thread waits: parked by the gang window, for
    /// a budget entry, or for a pipe. The op stays pending until it commits.
    fn issue_slot(&mut self, tid: u32, op: Op, now: u64) -> Option<usize> {
        let i = tid as usize;
        self.ts[i].pending = Some(op);
        // Gang drift window: a thread too far ahead of the slowest gang
        // member parks until the gang catches up.
        if let Some(w) = self.core.gang_window {
            if self.in_gang[i] && self.gang_count[i] >= self.gang_min.saturating_add(u64::from(w)) {
                self.ts[i].park = Some((StallKind::Drift, now));
                self.drift_parked.push(tid);
                return None;
            }
        }
        // Budget check: a load needs an outstanding-miss slot, a store a
        // TSO store-buffer entry.
        let t = &mut self.ts[i];
        if let Op::Read(_) = op {
            drop_completed(self.fifo, &mut t.loads, now);
            if t.loads.len() + t.loads_pending >= self.core.outstanding_misses {
                self.wait_for_slot(tid, StallKind::LoadMiss, now);
                return None;
            }
        } else {
            drop_completed(self.fifo, &mut t.stores, now);
            if t.stores.len() + t.stores_pending >= self.core.store_buffer {
                self.wait_for_slot(tid, StallKind::StoreBuffer, now);
                return None;
            }
        }
        // Memory-pipe issue slot.
        let n = self.core.mem_pipes;
        let first = self.ts[i].core * n;
        let (slot, &free) = self.pipes[first..first + n]
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| b)
            .expect("mem_pipes > 0");
        if free > now {
            self.stall(tid, StallKind::Pipe, now, free);
            return None;
        }
        Some(first + slot)
    }

    /// Thread `tid` found its load (`LoadMiss`) or store (`StoreBuffer`)
    /// budget full at `from`: it waits for the next entry to complete. If
    /// no entry is serviced yet (arbitrated policies), that time is
    /// unknowable, so it parks until one of its own requests is serviced.
    #[inline(always)]
    fn wait_for_slot(&mut self, tid: u32, kind: StallKind, from: u64) {
        let t = &mut self.ts[tid as usize];
        let frees = if kind == StallKind::LoadMiss {
            slot_frees_at(self.fifo, &t.loads, self.core.outstanding_misses)
        } else {
            slot_frees_at(self.fifo, &t.stores, self.core.store_buffer)
        };
        match frees {
            Some(free) => self.stall(tid, kind, from, free),
            None => t.park = Some((kind, from)),
        }
    }

    /// Thread `tid` commits its pending memory op at `now`: gang progress.
    #[inline(always)]
    fn commit(&mut self, tid: u32, now: u64) {
        self.ts[tid as usize].pending = None;
        let old_count = self.gang_count[tid as usize];
        self.gang_count[tid as usize] += 1;
        if old_count == self.gang_min {
            self.gang_update(now);
        }
    }

    /// Recomputes the gang minimum and wakes drift-parked threads that are
    /// back inside the window. Called whenever a count or a membership
    /// changes at the current minimum.
    #[inline(always)]
    fn gang_update(&mut self, now: u64) {
        let new_min = self
            .gang_count
            .iter()
            .zip(&self.in_gang)
            .filter(|&(_, &g)| g)
            .map(|(&c, _)| c)
            .min()
            .unwrap_or(u64::MAX);
        if new_min == self.gang_min {
            return;
        }
        self.gang_min = new_min;
        if let Some(w) = self.core.gang_window {
            let mut parked = std::mem::take(&mut self.drift_parked);
            parked.retain(|&p| {
                let back = self.gang_count[p as usize] < new_min.saturating_add(u64::from(w));
                if back {
                    self.wake(p, now);
                }
                !back
            });
            self.drift_parked = parked;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{chain_with_barriers, StreamLoop, StreamSpec};

    fn ops(v: Vec<Op>) -> Program {
        Box::new(v.into_iter())
    }

    /// A T2 config with jitter disabled, for cycle-exact unit tests.
    fn exact_cfg() -> ChipConfig {
        let mut cfg = ChipConfig::ultrasparc_t2();
        cfg.mem.service_jitter = 0.0;
        cfg
    }

    #[test]
    fn numa_remote_read_pays_link_occupancy_and_latency() {
        use t2opt_core::mapping::PagePlacement;
        let mut cfg = ChipConfig::preset("2s-numa").unwrap();
        cfg.mem.service_jitter = 0.0;
        let run_one = |cfg: ChipConfig| {
            Simulation::new(cfg)
                .run(vec![ThreadSpec::new(0, ops(vec![Op::Read(0)]))])
                .end_cycle
        };
        let local = run_one(cfg.clone());
        let mut rcfg = cfg.clone();
        rcfg.placement = PagePlacement::Remote;
        let remote = run_one(rcfg);
        // One uncontended read: the remote run pays exactly one link
        // crossing plus the remote latency adder on top of the local time.
        assert_eq!(
            remote - local,
            cfg.numa.link_cycles_per_line + cfg.numa.remote_read_extra
        );
    }

    #[test]
    fn placement_is_inert_on_single_socket_chips() {
        use t2opt_core::mapping::PagePlacement;
        let base = exact_cfg();
        let mut moved = exact_cfg();
        moved.placement = PagePlacement::Remote;
        let run = |cfg: ChipConfig| {
            let threads = (0..16)
                .map(|t| {
                    let body =
                        StreamLoop::new(vec![StreamSpec::load(t as u64 * 65536)], 256, 8, 0.0, 64);
                    ThreadSpec::new(t % 8, Box::new(body))
                })
                .collect();
            Simulation::new(cfg).run(threads)
        };
        assert_eq!(run(base), run(moved));
    }

    #[test]
    fn single_read_latency() {
        let cfg = exact_cfg();
        let sim = Simulation::new(cfg.clone());
        let stats = sim.run(vec![ThreadSpec::new(0, ops(vec![Op::Read(0)]))]);
        // issue(1) + bank(2) + command(3) + read_service(12) + extra(100).
        let expected = 1
            + cfg.l2.bank_cycles
            + cfg.mem.command_cycles
            + cfg.mem.read_service
            + cfg.mem.extra_latency;
        assert_eq!(stats.end_cycle, expected);
        assert_eq!(stats.l2_misses, 1);
        assert_eq!(stats.total_read_bytes(), 64);
    }

    #[test]
    fn hit_is_much_faster_than_miss() {
        let sim = Simulation::new(exact_cfg());
        let miss = sim.run(vec![ThreadSpec::new(0, ops(vec![Op::Read(0)]))]);
        let hit = sim.run(vec![ThreadSpec::new(
            0,
            ops(vec![Op::Read(0), Op::Read(8)]),
        )]);
        let hit_cost = hit.end_cycle - miss.end_cycle;
        assert!(hit_cost < 40, "hit cost {hit_cost} should be ~hit_latency");
        assert_eq!(hit.l2_hits, 1);
    }

    #[test]
    fn write_allocates_and_writes_back_on_eviction() {
        let sim = Simulation::new(exact_cfg());
        let cfg = sim.config().clone();
        // Dirty a line, then stream enough lines through its set to evict.
        let set_stride = (cfg.l2.sets() * cfg.l2.line) as u64;
        let mut v = vec![Op::Write(0)];
        for w in 1..=cfg.l2.ways as u64 {
            v.push(Op::Read(w * set_stride));
        }
        let stats = sim.run(vec![ThreadSpec::new(0, ops(v))]);
        assert_eq!(stats.l2_writebacks, 1);
        assert_eq!(stats.total_write_bytes(), 64);
    }

    #[test]
    fn store_misses_do_not_block_the_thread() {
        // A burst of store misses (fitting the store buffer) costs far less
        // thread time than the same number of load misses.
        let sim = Simulation::new(exact_cfg());
        let stores: Vec<Op> = (0..8u64).map(|i| Op::Write(i * 4096)).collect();
        let loads: Vec<Op> = (0..8u64).map(|i| Op::Read((i + 100) * 4096)).collect();
        let s = sim.run(vec![ThreadSpec::new(0, ops(stores))]);
        let l = sim.run(vec![ThreadSpec::new(0, ops(loads))]);
        assert!(
            s.end_cycle * 2 < l.end_cycle,
            "stores ({}) should overlap, loads ({}) serialize",
            s.end_cycle,
            l.end_cycle
        );
    }

    #[test]
    fn full_store_buffer_stalls() {
        let mut cfg = exact_cfg();
        cfg.core.store_buffer = 2;
        let sim = Simulation::new(cfg);
        let many: Vec<Op> = (0..16u64).map(|i| Op::Write(i * 4096)).collect();
        let few: Vec<Op> = (0..2u64).map(|i| Op::Write(i * 4096)).collect();
        let many_t = sim.run(vec![ThreadSpec::new(0, ops(many))]).end_cycle;
        let few_t = sim.run(vec![ThreadSpec::new(0, ops(few))]).end_cycle;
        assert!(
            many_t > 4 * few_t,
            "16 stores through a 2-entry buffer must serialize: {few_t} vs {many_t}"
        );
    }

    #[test]
    fn compute_serializes_on_shared_fpu() {
        let sim = Simulation::new(exact_cfg());
        // 8 threads on one core, 100 flops each, FPU does 1 flop/cycle:
        // must take ≈ 800 cycles, not 100.
        let threads: Vec<ThreadSpec> = (0..8)
            .map(|_| ThreadSpec::new(0, ops(vec![Op::Compute(100)])))
            .collect();
        let stats = sim.run(threads);
        assert!(stats.end_cycle >= 800, "got {}", stats.end_cycle);
        assert_eq!(stats.flops, 800);
    }

    #[test]
    fn compute_scales_across_cores() {
        let sim = Simulation::new(exact_cfg());
        let threads: Vec<ThreadSpec> = (0..8)
            .map(|c| ThreadSpec::new(c, ops(vec![Op::Compute(100)])))
            .collect();
        let stats = sim.run(threads);
        assert!(
            stats.end_cycle < 200,
            "independent FPUs, got {}",
            stats.end_cycle
        );
    }

    #[test]
    fn barrier_synchronizes_and_opens_window() {
        let sim = Simulation::new(exact_cfg()).measure_after_barrier(0);
        let mk = |delay: u32| ops(vec![Op::Delay(delay), Op::Barrier(0), Op::Delay(50)]);
        let stats = sim.run(vec![
            ThreadSpec::new(0, mk(1000)),
            ThreadSpec::new(1, mk(10)),
        ]);
        // Window starts when the slowest thread reaches the barrier.
        assert_eq!(stats.start_cycle, 1000);
        assert_eq!(stats.end_cycle, 1050);
        assert_eq!(stats.cycles(), 50);
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn core_capacity_enforced() {
        let sim = Simulation::t2();
        let threads: Vec<ThreadSpec> = (0..9)
            .map(|_| ThreadSpec::new(0, ops(vec![Op::Delay(1)])))
            .collect();
        sim.run(threads);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mismatched_barriers_deadlock_is_detected() {
        let sim = Simulation::t2();
        sim.run(vec![
            ThreadSpec::new(0, ops(vec![Op::Barrier(0)])),
            ThreadSpec::new(1, ops(vec![Op::Delay(1)])),
        ]);
    }

    /// Builds the 64-thread STREAM-triad-like workload of the paper with
    /// array-base offsets `offs` (A store, B/C loads) and returns the run.
    fn triad_run(offs: [u64; 3]) -> SimStats {
        triad_run_with(offs, crate::policy::PolicyKind::Fifo)
    }

    /// As [`triad_run`], but under the given arbitration policy.
    fn triad_run_with(offs: [u64; 3], policy: crate::policy::PolicyKind) -> SimStats {
        let mut cfg = ChipConfig::ultrasparc_t2();
        cfg.policy = policy;
        let sim = Simulation::new(cfg);
        let n = 1 << 12; // elements per thread chunk
        let chunk_bytes = (n * 8) as u64;
        let threads: Vec<ThreadSpec> = (0..64)
            .map(|t| {
                let a = offs[0] + t as u64 * chunk_bytes;
                let b = (1 << 30) + offs[1] + t as u64 * chunk_bytes;
                let c = (2 << 30) + offs[2] + t as u64 * chunk_bytes;
                ThreadSpec::new(
                    (t % 8) as usize,
                    Box::new(StreamLoop::new(
                        vec![
                            StreamSpec::load(b),
                            StreamSpec::load(c),
                            StreamSpec::store(a),
                        ],
                        n,
                        8,
                        2.0,
                        64,
                    )) as Program,
                )
            })
            .collect();
        sim.run(threads)
    }

    #[test]
    fn congruent_triad_convoys_spread_triad_flies() {
        // The paper's Fig. 2/Fig. 4 in miniature: all array bases congruent
        // mod 512 B → one controller at a time; optimal offsets → all four.
        let convoy = triad_run([0, 0, 0]);
        let spread = triad_run([0, 128, 256]);
        assert_eq!(convoy.total_read_bytes(), spread.total_read_bytes());
        let speedup = convoy.cycles() as f64 / spread.cycles() as f64;
        assert!(
            speedup > 1.5,
            "offset optimization must give a large speedup, got {speedup:.2}×"
        );
        let convoy_util =
            convoy.mc_busy_cycles.iter().sum::<u64>() as f64 / (4 * convoy.cycles()) as f64;
        let spread_util =
            spread.mc_busy_cycles.iter().sum::<u64>() as f64 / (4 * spread.cycles()) as f64;
        assert!(
            spread_util > 1.3 * convoy_util,
            "utilization gap: convoy {convoy_util:.2} vs spread {spread_util:.2}"
        );
    }

    #[test]
    fn offset_32_words_recovers_partially() {
        // Fig. 2: at odd multiples of 32 DP words two controllers are
        // addressed → roughly halfway recovery.
        let convoy = triad_run([0, 0, 0]);
        let half = triad_run([0, 256, 512]); // B flips bit 8, C congruent
        let spread = triad_run([0, 128, 256]);
        let t_convoy = convoy.cycles() as f64;
        let t_half = half.cycles() as f64;
        let t_spread = spread.cycles() as f64;
        assert!(
            t_half < 0.9 * t_convoy,
            "two controllers must beat one: {t_half} vs {t_convoy}"
        );
        assert!(
            t_half > 1.05 * t_spread,
            "two controllers must trail three: {t_half} vs {t_spread}"
        );
    }

    #[test]
    fn single_thread_streams_are_latency_bound() {
        // One thread, one outstanding miss: bandwidth ≈ 64 B per full miss
        // latency — far below one controller's service rate.
        let sim = Simulation::new(exact_cfg());
        let cfg = sim.config().clone();
        let n = 1 << 14;
        let stats = sim.run(vec![ThreadSpec::new(
            0,
            Box::new(StreamLoop::new(vec![StreamSpec::load(0)], n, 8, 0.0, 64)) as Program,
        )]);
        let lines = (n * 8 / 64) as u64;
        let per_miss = stats.cycles() as f64 / lines as f64;
        let min_latency = (1 + cfg.l2.bank_cycles + cfg.mem.read_service) as f64;
        assert!(
            per_miss >= min_latency,
            "per-miss time {per_miss} below physical minimum"
        );
        assert!(
            per_miss > 100.0,
            "single thread must be latency-bound: {per_miss}"
        );
    }

    #[test]
    fn more_threads_hide_latency() {
        let run = |n_threads: usize| {
            let sim = Simulation::t2();
            let n = 1 << 13;
            let threads: Vec<ThreadSpec> = (0..n_threads)
                .map(|t| {
                    let base = (t as u64) * (16 << 20) + 128 * (t as u64 % 4);
                    ThreadSpec::new(
                        t % 8,
                        Box::new(StreamLoop::new(vec![StreamSpec::load(base)], n, 8, 0.0, 64))
                            as Program,
                    )
                })
                .collect();
            let stats = sim.run(threads);
            let cfg = ChipConfig::ultrasparc_t2();
            stats.actual_bandwidth_gbs(&cfg)
        };
        let bw8 = run(8);
        let bw32 = run(32);
        assert!(
            bw32 > 2.0 * bw8,
            "32 threads should hide far more latency than 8: {bw8:.1} vs {bw32:.1} GB/s"
        );
    }

    #[test]
    fn warmup_window_excludes_cold_misses() {
        let sim = Simulation::new(exact_cfg()).measure_after_barrier(0);
        // Small array fits in L2: sweep twice; the measured window sees only
        // hits.
        let sweep = || StreamLoop::new(vec![StreamSpec::load(0)], 1 << 10, 8, 0.0, 64);
        let program = chain_with_barriers(vec![sweep(), sweep()], 0);
        let stats = sim.run(vec![ThreadSpec::new(0, program)]);
        assert_eq!(stats.l2_misses, 0, "second sweep must be all hits");
        assert!(stats.l2_hits > 0);
    }

    #[test]
    fn outstanding_misses_ablation_helps_a_lone_thread() {
        // With 4 outstanding misses a single streaming thread overlaps
        // latency and finishes much sooner.
        let mut cfg = exact_cfg();
        let run = |cfg: &ChipConfig| {
            let sim = Simulation::new(cfg.clone());
            sim.run(vec![ThreadSpec::new(
                0,
                Box::new(StreamLoop::new(
                    vec![StreamSpec::load(0)],
                    1 << 13,
                    8,
                    0.0,
                    64,
                )) as Program,
            )])
            .cycles()
        };
        let one = run(&cfg);
        cfg.core.outstanding_misses = 4;
        let four = run(&cfg);
        assert!(
            (four as f64) < 0.5 * one as f64,
            "4 outstanding misses should at least halve the time: {one} -> {four}"
        );
    }

    #[test]
    fn bank_mshr_limit_throttles_concentrated_misses() {
        // All threads stream with a 512 B stride through ONE bank:
        // outstanding misses are capped by that bank's MSHRs; spreading the
        // same traffic over all 8 banks lifts the cap.
        let run = |spread: bool| {
            let mut cfg = ChipConfig::ultrasparc_t2();
            cfg.core.gang_window = None; // isolate the MSHR effect
            let sim = Simulation::new(cfg);
            let threads: Vec<ThreadSpec> = (0..64)
                .map(|t| {
                    let base =
                        (t as u64) * (16 << 20) + if spread { 64 * (t as u64 % 8) } else { 0 };
                    let ops_v: Vec<Op> = (0..256u64).map(|i| Op::Read(base + i * 512)).collect();
                    ThreadSpec::new((t % 8) as usize, Box::new(ops_v.into_iter()) as Program)
                })
                .collect();
            sim.run(threads).cycles()
        };
        let one_bank = run(false);
        let all_banks = run(true);
        assert!(
            one_bank as f64 > 1.8 * all_banks as f64,
            "single-bank misses must be MSHR-throttled: {one_bank} vs {all_banks}"
        );
    }

    #[test]
    fn deterministic_repeatability() {
        let a = triad_run([0, 128, 256]);
        let b = triad_run([0, 128, 256]);
        assert_eq!(a, b, "simulations must be bit-reproducible");
    }

    #[test]
    fn arbitrated_policies_conserve_traffic_and_stay_deterministic() {
        let policy = crate::policy::PolicyKind::ReadFirst { starvation_cap: 8 };
        let fifo = triad_run([0, 0, 0]);
        let a = triad_run_with([0, 0, 0], policy);
        let b = triad_run_with([0, 0, 0], policy);
        assert_eq!(a, b, "{policy:?} must be bit-reproducible");
        // Reordering changes *when*, never *what*: the traffic volume is
        // identical to FIFO's.
        assert_eq!(a.mem_ops, fifo.mem_ops, "{policy:?} op conservation");
        assert_eq!(a.l2_misses, fifo.l2_misses, "{policy:?} miss count");
        assert_eq!(
            a.total_read_bytes(),
            fifo.total_read_bytes(),
            "{policy:?} read traffic"
        );
        // Write-backs are eviction-order dependent (reordering shifts which
        // lines are still dirty at the end), so only per-run conservation
        // and closeness hold for them.
        assert_eq!(
            a.total_write_bytes(),
            a.l2_writebacks * 64,
            "{policy:?} write-back byte conservation"
        );
        let wr = a.total_write_bytes() as f64 / fifo.total_write_bytes() as f64;
        assert!(
            (0.9..1.1).contains(&wr),
            "{policy:?} write traffic far from FIFO's: {wr:.3}"
        );
        assert!(a.end_cycle > 0 && a.cycles() > 0);
    }

    #[test]
    fn arbitrated_fifo_semantics_stay_close_to_the_inline_path() {
        // FIFO's service at admission and a FIFO-like arbitrated policy
        // share the service step but not its timing (arbitration re-decides
        // when the channel frees, FIFO commits at admission, completed
        // entries leave the lists differently, and jitter draws land in a
        // different order), so exact equality is not expected — but
        // read-first with an immediate starvation cap must land within
        // 0.8–1.25× of FIFO's cycles on a spread triad. A larger gap would
        // mean the arbitration events model a different machine, not a
        // different policy.
        let fifo = triad_run([0, 128, 256]);
        let arb = triad_run_with(
            [0, 128, 256],
            crate::policy::PolicyKind::ReadFirst { starvation_cap: 0 },
        );
        let ratio = arb.cycles() as f64 / fifo.cycles() as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "cap-0 read-first should approximate FIFO on a spread triad: {ratio:.3}"
        );
    }
}
