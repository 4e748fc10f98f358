//! Simulator configuration: the UltraSPARC T2 geometry and timing model.
//!
//! Defaults reproduce the Sun SPARC Enterprise T5120 of the paper (§1, §2):
//! 8 in-order cores at 1.2 GHz with 8 hardware threads each, a shared 4 MB
//! 16-way banked L2, and four dual-channel FB-DIMM memory controllers with
//! a 2:1 read:write bandwidth ratio (42 vs 21 GB/s nominal).
//!
//! Timing parameters are *calibrated*, not nominal: the paper measures only
//! about one third of the theoretical bandwidth (§1), so the per-controller
//! service time is set such that the simulated saturated STREAM triad lands
//! near the measured ~13 GB/s (reported) rather than the 42 GB/s brochure
//! number. See DESIGN.md §6 for the calibration reasoning.

use crate::policy::PolicyKind;
use serde::Serialize;
use t2opt_core::chip::{ChipSpec, SocketTopology};
use t2opt_core::mapping::{MapPolicy, PagePlacement};

/// L2 cache geometry and timing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct L2Config {
    /// Total capacity in bytes (T2: 4 MB).
    pub bytes: usize,
    /// Associativity (T2: 16-way).
    pub ways: usize,
    /// Line size in bytes (T2: 64).
    pub line: usize,
    /// Access occupancy of a bank per request, in cycles.
    pub bank_cycles: u64,
    /// Load-to-use latency of an L2 hit, in cycles (T2: ~26).
    pub hit_latency: u64,
    /// Outstanding misses each L2 bank can track (miss buffer / MSHR
    /// entries per bank). This is the quantity the offset aliasing
    /// strangles: streams congruent mod 512 B funnel *every* miss through
    /// one bank, capping the whole chip's memory-level parallelism at one
    /// bank's worth; well-chosen offsets engage all eight banks' buffers.
    pub mshr_per_bank: usize,
}

impl L2Config {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.bytes / (self.ways * self.line)
    }
}

/// Memory-controller timing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MemConfig {
    /// Cycles a controller is occupied serving one 64 B read.
    pub read_service: u64,
    /// Cycles for one 64 B write (FB-DIMM southbound: 2x read, the
    /// 42 vs 21 GB/s nominal asymmetry). Writes move on their own channel
    /// and do not serialize against read data.
    pub write_service: u64,
    /// Southbound cycles each read's command occupies before its data can
    /// return northbound. This is the only coupling between reads and
    /// writes, and it is what makes write-heavy kernels (STREAM copy)
    /// trail read-heavy ones (triad) - the paper's "overhead for
    /// bidirectional transfers".
    pub command_cycles: u64,
    /// Fixed additional miss latency (crossbar + DRAM access) beyond queue
    /// and service time, in cycles.
    pub extra_latency: u64,
    /// Relative service-time jitter in [0, 1): each transfer's service time
    /// is drawn uniformly from `service · (1 ± jitter)` with a deterministic
    /// per-controller PRNG. Real DRAM timing noise (row hits vs misses,
    /// refresh) is what keeps congruent access streams from settling into a
    /// perfectly staggered conveyor; with high utilization, noise nucleates
    /// the self-synchronizing convoys the paper observes ("all threads hit
    /// exactly one memory controller at a time"). Set to 0 for a noiseless
    /// machine.
    pub service_jitter: f64,
    /// Finite queue depth per controller. When a miss targets a controller
    /// whose queue is full, the request stalls in the issuing core's memory
    /// pipe until a slot frees — head-of-line blocking that back-pressures
    /// all threads of that core. This is the mechanism that *locks* threads
    /// into the convoys of §2.1: with every stream congruent mod 512 B, no
    /// thread can run ahead to an idle controller because its core's pipe is
    /// plugged by stalled requests to the hot one.
    pub queue_depth: usize,
}

/// Core/thread model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoreConfig {
    /// Number of cores (T2: 8).
    pub n_cores: usize,
    /// Hardware threads per core (T2: 8).
    pub threads_per_core: usize,
    /// Maximum outstanding L2 *load* misses per thread (T2: 1 — "restricts
    /// each thread to a single outstanding cache miss", §1).
    pub outstanding_misses: usize,
    /// Store-buffer entries per thread (T2: 8). Stores retire through the
    /// buffer under TSO and do **not** block the thread; the read-for-
    /// ownership and eventual write-back drain asynchronously. A full
    /// buffer stalls the thread until the oldest store completes.
    pub store_buffer: usize,
    /// Memory-pipe issue slots per core (T2: 2 memory pipelines).
    pub mem_pipes: usize,
    /// Floating-point throughput per core, flops per cycle (T2: one FPU
    /// doing one MULT or ADD per cycle).
    pub fpu_flops_per_cycle: f64,
    /// Bounded thread drift ("gang window"): no thread may run more than
    /// this many memory operations ahead of the slowest still-running
    /// thread.
    ///
    /// This models an empirical property of the saturated T2 that the paper
    /// reports directly — at aliased offsets "all threads hit exactly one
    /// memory controller at a time... successive controllers are of course
    /// used in turn, but not concurrently" (§2.1). On the real chip, fair
    /// round-robin crossbar arbitration plus NACK/retry congestion keeps
    /// the threads of a bulk-synchronous loop tightly batched; an idealized
    /// infinite-FIFO model instead lets early-served threads stagger into a
    /// perfectly pipelined conveyor that covers all controllers and hides
    /// the aliasing completely (set this to `None` to get that machine —
    /// the `ablation_outstanding` binary shows the difference).
    pub gang_window: Option<u32>,
}

/// Full chip configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChipConfig {
    /// Clock frequency in Hz (T5120: 1.2 GHz).
    pub clock_hz: f64,
    /// Cores and threads.
    pub core: CoreConfig,
    /// L2 cache.
    pub l2: L2Config,
    /// Memory controllers.
    pub mem: MemConfig,
    /// The address → controller/bank mapping policy.
    pub map: MapPolicy,
    /// The memory-controller queue arbitration discipline (see
    /// [`crate::policy`]). [`PolicyKind::Fifo`] — the T2's behavior and the
    /// default — services every transfer at admission and never schedules
    /// an arbitration event; it is pinned bitwise by
    /// `tests/policy_differential.rs`.
    pub policy: PolicyKind,
    /// Socket/locality structure. On the single-socket identity the engine
    /// takes no NUMA branch at all, preserving bitwise-identical `SimStats`
    /// for every pre-NUMA preset.
    pub numa: SocketTopology,
    /// Page-placement policy applied to the simulated workload's pages.
    /// Irrelevant (never consulted) when `numa` is single-socket.
    pub placement: PagePlacement,
}

impl ChipConfig {
    /// The calibrated UltraSPARC T2 model (see module docs).
    pub fn ultrasparc_t2() -> Self {
        ChipConfig {
            clock_hz: 1.2e9,
            core: CoreConfig {
                n_cores: 8,
                threads_per_core: 8,
                outstanding_misses: 1,
                store_buffer: 8,
                mem_pipes: 2,
                fpu_flops_per_cycle: 1.0,
                gang_window: Some(3),
            },
            l2: L2Config {
                bytes: 4 << 20,
                ways: 16,
                line: 64,
                bank_cycles: 2,
                hit_latency: 26,
                mshr_per_bank: 8,
            },
            mem: MemConfig {
                read_service: 12,
                write_service: 24,
                command_cycles: 3,
                extra_latency: 100,
                service_jitter: 0.3,
                queue_depth: 16,
            },
            map: MapPolicy::t2(),
            policy: PolicyKind::Fifo,
            numa: SocketTopology::single(),
            placement: PagePlacement::FirstTouch,
        }
    }

    /// Builds a simulator configuration from a chip topology spec.
    ///
    /// The calibrated T2 template supplies every microarchitectural knob
    /// the spec does not carry (store buffers, L2 shape, queue depths,
    /// jitter); the spec overrides what varies across topologies. For
    /// `ChipSpec::ultrasparc_t2()` the result is identical to
    /// [`ChipConfig::ultrasparc_t2`] — the compatibility contract that
    /// keeps default behavior bitwise unchanged.
    pub fn from_spec(spec: &ChipSpec) -> Self {
        let mut c = ChipConfig::ultrasparc_t2();
        c.clock_hz = spec.clock_hz;
        c.core.n_cores = spec.n_cores;
        c.core.threads_per_core = spec.threads_per_core;
        c.mem.read_service = spec.read_service;
        c.mem.write_service = spec.write_service;
        c.map = spec.map;
        c.numa = spec.sockets;
        c
    }

    /// Builds the simulator configuration for a registered chip preset;
    /// `None` for unknown names (see `t2opt_core::chip::PRESET_NAMES`).
    pub fn preset(name: &str) -> Option<Self> {
        ChipSpec::preset(name).map(|s| ChipConfig::from_spec(&s))
    }

    /// The layout-relevant interleave period of this chip's mapping, in
    /// bytes (512 on the T2). See `MapPolicy::interleave_period`.
    pub fn interleave_period(&self) -> usize {
        self.map.interleave_period() as usize
    }

    /// Number of memory controllers (from the mapping geometry).
    pub fn n_controllers(&self) -> usize {
        self.map.geometry().num_controllers() as usize
    }

    /// Number of L2 banks (from the mapping geometry).
    pub fn n_banks(&self) -> usize {
        self.map.geometry().num_banks() as usize
    }

    /// Total hardware-thread capacity.
    pub fn max_threads(&self) -> usize {
        self.core.n_cores * self.core.threads_per_core
    }

    /// Number of sockets (1 for every pre-NUMA preset).
    pub fn n_sockets(&self) -> usize {
        self.numa.n_sockets.max(1)
    }

    /// Memory controllers per socket (contiguous grouping: socket `s` owns
    /// controllers `[s·M/S, (s+1)·M/S)`).
    pub fn mcs_per_socket(&self) -> usize {
        (self.n_controllers() / self.n_sockets()).max(1)
    }

    /// Cores per socket (contiguous grouping, like controllers).
    pub fn cores_per_socket(&self) -> usize {
        (self.core.n_cores / self.n_sockets()).max(1)
    }

    /// The socket owning memory controller `mc`.
    pub fn socket_of_controller(&self, mc: usize) -> usize {
        mc / self.mcs_per_socket()
    }

    /// The socket a core is pinned to.
    pub fn socket_of_core(&self, core: usize) -> usize {
        (core / self.cores_per_socket()).min(self.n_sockets() - 1)
    }

    /// Converts a cycle count to seconds at this clock.
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }

    /// Validates internal consistency (geometry vs mapping, line sizes).
    pub fn validate(&self) -> Result<(), String> {
        let geo = self.map.geometry();
        if geo.line_size() as usize != self.l2.line {
            return Err(format!(
                "mapping line size {} != L2 line size {}",
                geo.line_size(),
                self.l2.line
            ));
        }
        if !self.l2.sets().is_power_of_two() {
            return Err(format!(
                "L2 set count {} is not a power of two",
                self.l2.sets()
            ));
        }
        if self.core.n_cores == 0
            || self.core.threads_per_core == 0
            || self.core.outstanding_misses == 0
            || self.core.store_buffer == 0
            || self.core.mem_pipes == 0
        {
            return Err("core counts must be positive".into());
        }
        if self.l2.mshr_per_bank == 0 {
            return Err("L2 miss buffers per bank must be positive".into());
        }
        if self.mem.read_service == 0 || self.mem.write_service == 0 {
            return Err("service times must be positive".into());
        }
        if self.mem.queue_depth == 0 {
            return Err("controller queue depth must be positive".into());
        }
        if !(0.0..1.0).contains(&self.mem.service_jitter) {
            return Err("service_jitter must be in [0, 1)".into());
        }
        let s = self.numa.n_sockets;
        if s == 0 {
            return Err("n_sockets must be positive".into());
        }
        if !self.n_controllers().is_multiple_of(s) {
            return Err(format!(
                "{} controllers do not divide evenly across {s} sockets",
                self.n_controllers()
            ));
        }
        if !self.core.n_cores.is_multiple_of(s) {
            return Err(format!(
                "{} cores do not divide evenly across {s} sockets",
                self.core.n_cores
            ));
        }
        if self.numa.is_numa()
            && (!self.numa.page_bytes.is_power_of_two()
                || self.numa.page_bytes < self.l2.line as u64)
        {
            return Err(format!(
                "NUMA page size {} must be a power of two >= the {} B line",
                self.numa.page_bytes, self.l2.line
            ));
        }
        Ok(())
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig::ultrasparc_t2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t2_defaults_are_consistent() {
        let c = ChipConfig::ultrasparc_t2();
        c.validate().unwrap();
        assert_eq!(c.n_controllers(), 4);
        assert_eq!(c.n_banks(), 8);
        assert_eq!(c.max_threads(), 64);
        assert_eq!(c.l2.sets(), 4096);
        assert!(c.policy.is_fifo(), "FIFO is the calibrated T2 discipline");
    }

    #[test]
    fn non_default_policies_validate() {
        for spec in ["read-first", "read-first:4"] {
            let mut c = ChipConfig::ultrasparc_t2();
            c.policy = PolicyKind::parse(spec).unwrap();
            c.validate().unwrap();
        }
    }

    #[test]
    fn from_spec_t2_is_bitwise_identical_to_the_template() {
        assert_eq!(
            ChipConfig::from_spec(&ChipSpec::ultrasparc_t2()),
            ChipConfig::ultrasparc_t2()
        );
        assert_eq!(
            ChipConfig::preset("ultrasparc-t2").unwrap(),
            ChipConfig::ultrasparc_t2()
        );
    }

    #[test]
    fn every_preset_produces_a_valid_config() {
        for name in t2opt_core::chip::PRESET_NAMES {
            let c = ChipConfig::preset(name).unwrap_or_else(|| panic!("missing preset {name}"));
            c.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(ChipConfig::preset("nonexistent").is_none());
    }

    #[test]
    fn non_t2_presets_change_the_derived_geometry() {
        let wide = ChipConfig::preset("wide-8mc").unwrap();
        assert_eq!(wide.n_controllers(), 8);
        assert_eq!(wide.interleave_period(), 1024);
        assert_eq!(wide.max_threads(), 128);
        let budget = ChipConfig::preset("budget-2mc").unwrap();
        assert_eq!(budget.n_controllers(), 2);
        assert_eq!(budget.interleave_period(), 256);
        assert_eq!(budget.max_threads(), 32);
        let paged = ChipConfig::preset("t2-page-interleave").unwrap();
        assert_eq!(paged.interleave_period(), 16384);
    }

    #[test]
    fn numa_presets_carry_socket_geometry() {
        let c = ChipConfig::preset("2s-numa").unwrap();
        c.validate().unwrap();
        assert_eq!(c.n_sockets(), 2);
        assert_eq!(c.n_controllers(), 8);
        assert_eq!(c.mcs_per_socket(), 4);
        assert_eq!(c.cores_per_socket(), 8);
        assert_eq!(c.socket_of_controller(3), 0);
        assert_eq!(c.socket_of_controller(4), 1);
        assert_eq!(c.socket_of_core(7), 0);
        assert_eq!(c.socket_of_core(8), 1);
        let w = ChipConfig::preset("4s-numa-wide").unwrap();
        w.validate().unwrap();
        assert_eq!(w.n_sockets(), 4);
        assert_eq!(w.mcs_per_socket(), 4);
        assert_eq!(w.cores_per_socket(), 8);
    }

    #[test]
    fn validate_rejects_uneven_socket_split() {
        let mut c = ChipConfig::preset("2s-numa").unwrap();
        c.core.n_cores = 15;
        assert!(c.validate().is_err());
        let mut c = ChipConfig::preset("2s-numa").unwrap();
        c.numa.n_sockets = 3;
        assert!(c.validate().is_err());
        let mut c = ChipConfig::preset("2s-numa").unwrap();
        c.numa.page_bytes = 48;
        assert!(c.validate().is_err());
    }

    #[test]
    fn aggregate_nominal_bandwidth_sanity() {
        // The calibrated read service must put the aggregate *saturated*
        // read bandwidth between the measured (~1/3 of nominal) and nominal
        // 42 GB/s.
        let c = ChipConfig::ultrasparc_t2();
        let bytes_per_cycle = c.n_controllers() as f64 * 64.0 / c.mem.read_service as f64;
        let gbs = bytes_per_cycle * c.clock_hz / 1e9;
        assert!(gbs > 14.0 && gbs < 42.0, "calibrated peak read {gbs} GB/s");
    }

    #[test]
    fn cycles_to_secs() {
        let c = ChipConfig::ultrasparc_t2();
        assert!((c.cycles_to_secs(1_200_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_line_mismatch() {
        let mut c = ChipConfig::ultrasparc_t2();
        c.l2.line = 128;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_counts() {
        let zeroes: [fn(&mut ChipConfig); 5] = [
            |c| c.core.outstanding_misses = 0,
            |c| c.core.store_buffer = 0,
            |c| c.core.mem_pipes = 0,
            |c| c.l2.mshr_per_bank = 0,
            |c| c.mem.queue_depth = 0,
        ];
        for zero in zeroes {
            let mut c = ChipConfig::ultrasparc_t2();
            zero(&mut c);
            assert!(c.validate().is_err());
        }
    }
}
