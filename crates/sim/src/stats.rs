//! Simulation statistics and derived performance metrics.

use crate::config::ChipConfig;
use serde::Serialize;

/// Counters collected during a simulation run.
///
/// All byte counters are *memory-side* (post-L2): they count actual DRAM
/// traffic, including read-for-ownership and write-backs — the distinction
/// the paper draws between "reported" STREAM bandwidth and the 4/3 larger
/// actual transfer volume.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SimStats {
    /// Cycle at which measurement started (after warm-up barriers).
    pub start_cycle: u64,
    /// Cycle at which the last thread finished.
    pub end_cycle: u64,
    /// Bytes read from DRAM per controller (demand + RFO).
    pub mc_read_bytes: Vec<u64>,
    /// Bytes written to DRAM per controller (write-backs).
    pub mc_write_bytes: Vec<u64>,
    /// Busy cycles per controller (both channels combined).
    pub mc_busy_cycles: Vec<u64>,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Dirty evictions (write-backs issued).
    pub l2_writebacks: u64,
    /// Accesses per L2 bank.
    pub bank_accesses: Vec<u64>,
    /// Total simulated memory operations (loads + stores).
    pub mem_ops: u64,
    /// NACKed (retried) requests: full controller queue or full bank miss
    /// buffer at issue time.
    pub nacks: u64,
    /// Total compute flops charged.
    pub flops: u64,
}

impl SimStats {
    /// Fresh counters for a chip with `n_mcs` controllers and `n_banks`
    /// banks.
    pub fn new(n_mcs: usize, n_banks: usize) -> Self {
        SimStats {
            mc_read_bytes: vec![0; n_mcs],
            mc_write_bytes: vec![0; n_mcs],
            mc_busy_cycles: vec![0; n_mcs],
            bank_accesses: vec![0; n_banks],
            ..Default::default()
        }
    }

    /// Resets everything except configuration-shaped vectors; used when the
    /// measurement window starts after a warm-up phase.
    pub fn reset_window(&mut self, at_cycle: u64) {
        let n_mcs = self.mc_read_bytes.len();
        let n_banks = self.bank_accesses.len();
        *self = SimStats::new(n_mcs, n_banks);
        self.start_cycle = at_cycle;
        self.end_cycle = at_cycle;
    }

    /// Measured duration in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Total DRAM read traffic in bytes.
    pub fn total_read_bytes(&self) -> u64 {
        self.mc_read_bytes.iter().sum()
    }

    /// Total DRAM write traffic in bytes.
    pub fn total_write_bytes(&self) -> u64 {
        self.mc_write_bytes.iter().sum()
    }

    /// Total DRAM traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_read_bytes() + self.total_write_bytes()
    }

    /// Actual DRAM bandwidth over the measurement window, in GB/s.
    pub fn actual_bandwidth_gbs(&self, cfg: &ChipConfig) -> f64 {
        let secs = cfg.cycles_to_secs(self.cycles());
        if secs == 0.0 {
            return 0.0;
        }
        self.total_bytes() as f64 / secs / 1e9
    }

    /// "Reported" bandwidth in the STREAM convention: the caller supplies
    /// the bytes the benchmark would report (which excludes RFO traffic).
    pub fn reported_bandwidth_gbs(&self, cfg: &ChipConfig, reported_bytes: u64) -> f64 {
        let secs = cfg.cycles_to_secs(self.cycles());
        if secs == 0.0 {
            return 0.0;
        }
        reported_bytes as f64 / secs / 1e9
    }

    /// Lattice-site updates per second, in millions (MLUPs/s), given the
    /// number of site updates performed in the measurement window.
    pub fn mlups(&self, cfg: &ChipConfig, site_updates: u64) -> f64 {
        let secs = cfg.cycles_to_secs(self.cycles());
        if secs == 0.0 {
            return 0.0;
        }
        site_updates as f64 / secs / 1e6
    }

    /// L2 hit rate in [0, 1] (1.0 when there were no accesses).
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            1.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// Controller-utilization balance: mean busy fraction divided by max
    /// busy fraction (1.0 = perfectly even, →1/n = one hotspot).
    pub fn mc_balance(&self) -> f64 {
        let max = self.mc_busy_cycles.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean =
            self.mc_busy_cycles.iter().sum::<u64>() as f64 / self.mc_busy_cycles.len() as f64;
        mean / max as f64
    }

    /// Per-controller busy fraction over the measurement window, in [0, 1].
    /// Returns all zeros for a zero-length window instead of dividing by it.
    pub fn mc_utilization(&self) -> Vec<f64> {
        let cycles = self.cycles();
        if cycles == 0 {
            return vec![0.0; self.mc_busy_cycles.len()];
        }
        self.mc_busy_cycles
            .iter()
            .map(|&b| (b as f64 / cycles as f64).min(1.0))
            .collect()
    }

    /// Achieved flop rate in Gflop/s.
    pub fn gflops(&self, cfg: &ChipConfig) -> f64 {
        let secs = cfg.cycles_to_secs(self.cycles());
        if secs == 0.0 {
            return 0.0;
        }
        self.flops as f64 / secs / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_math() {
        let cfg = ChipConfig::ultrasparc_t2();
        let mut s = SimStats::new(4, 8);
        s.start_cycle = 0;
        s.end_cycle = 1_200_000_000; // 1 second
        s.mc_read_bytes[0] = 10_000_000_000;
        s.mc_write_bytes[1] = 2_000_000_000;
        assert!((s.actual_bandwidth_gbs(&cfg) - 12.0).abs() < 1e-9);
        assert!((s.reported_bandwidth_gbs(&cfg, 9_000_000_000) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn mlups_math() {
        let cfg = ChipConfig::ultrasparc_t2();
        let mut s = SimStats::new(4, 8);
        s.end_cycle = 1_200_000_000;
        assert!((s.mlups(&cfg, 600_000_000) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn balance_metric() {
        let mut s = SimStats::new(4, 8);
        s.mc_busy_cycles = vec![100, 100, 100, 100];
        assert!((s.mc_balance() - 1.0).abs() < 1e-12);
        s.mc_busy_cycles = vec![400, 0, 0, 0];
        assert!((s.mc_balance() - 0.25).abs() < 1e-12);
        s.mc_busy_cycles = vec![0, 0, 0, 0];
        assert_eq!(s.mc_balance(), 1.0);
    }

    #[test]
    fn window_reset() {
        let mut s = SimStats::new(4, 8);
        s.l2_hits = 42;
        s.mc_read_bytes[2] = 1000;
        s.reset_window(777);
        assert_eq!(s.l2_hits, 0);
        assert_eq!(s.mc_read_bytes[2], 0);
        assert_eq!(s.start_cycle, 777);
        assert_eq!(s.cycles(), 0);
    }

    /// A zero-length measurement window (e.g. a run that ends on the very
    /// cycle the window opens) must yield finite zeros from every derived
    /// metric, never NaN or infinity.
    #[test]
    fn zero_length_window_yields_finite_zeros() {
        let cfg = ChipConfig::ultrasparc_t2();
        let mut s = SimStats::new(4, 8);
        s.reset_window(1_000);
        // Counters may be non-zero even when the window has zero length
        // (events land exactly on the boundary cycle).
        s.mc_read_bytes[0] = 4096;
        s.mc_busy_cycles[1] = 64;
        s.flops = 128;
        assert_eq!(s.cycles(), 0);
        assert_eq!(s.actual_bandwidth_gbs(&cfg), 0.0);
        assert_eq!(s.reported_bandwidth_gbs(&cfg, 4096), 0.0);
        assert_eq!(s.mlups(&cfg, 100), 0.0);
        assert_eq!(s.gflops(&cfg), 0.0);
        assert_eq!(s.mc_utilization(), vec![0.0; 4]);
        // And an end_cycle that drifted *before* start_cycle saturates too.
        s.end_cycle = 0;
        assert_eq!(s.cycles(), 0);
        assert_eq!(s.actual_bandwidth_gbs(&cfg), 0.0);
    }

    #[test]
    fn mc_utilization_guards_and_clamps() {
        let mut s = SimStats::new(2, 8);
        s.start_cycle = 0;
        s.end_cycle = 1000;
        s.mc_busy_cycles = vec![500, 2000];
        assert_eq!(s.mc_utilization(), vec![0.5, 1.0]);
    }

    #[test]
    fn hit_rate_edge_cases() {
        let mut s = SimStats::new(4, 8);
        assert_eq!(s.l2_hit_rate(), 1.0);
        s.l2_hits = 3;
        s.l2_misses = 1;
        assert!((s.l2_hit_rate() - 0.75).abs() < 1e-12);
    }
}
