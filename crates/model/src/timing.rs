//! The timing figures the closed-form model needs.
//!
//! A [`ChipSpec`] carries only what varies across topologies (mapping,
//! thread capacity, service times); the latency-side constants below are
//! the calibrated UltraSPARC T2 template values that every preset inherits
//! unchanged — the same contract `t2opt_sim::ChipConfig::from_spec` uses,
//! so model and simulator always describe the same machine. Layers that
//! hold a full simulator config (the autotuner, the bench CLIs) can
//! instead fill a [`ModelTiming`] field by field from it.

use serde::Serialize;
use t2opt_core::chip::ChipSpec;

/// Calibrated T2 template: southbound cycles a read's command occupies.
const T2_COMMAND_CYCLES: u64 = 3;
/// Calibrated T2 template: fixed crossbar + DRAM miss latency, cycles.
const T2_EXTRA_LATENCY: u64 = 100;
/// Calibrated T2 template: L2 hit (load-to-use) latency, cycles.
const T2_HIT_LATENCY: u64 = 26;
/// Calibrated T2 template: request-queue slots per controller.
const T2_QUEUE_DEPTH: usize = 16;
/// Calibrated T2 template: outstanding load misses per thread (§1: the T2
/// "restricts each thread to a single outstanding cache miss").
const T2_OUTSTANDING_MISSES: usize = 1;

/// Everything the closed-form predictor needs to turn a stream set into
/// cycles and seconds. All fields are public so callers holding a richer
/// configuration (e.g. a simulator `ChipConfig`) can override the template
/// defaults field by field.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelTiming {
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// Controller occupancy per 64 B read (and read-for-ownership), cycles.
    pub read_service: u64,
    /// Controller occupancy per 64 B write-back, cycles.
    pub write_service: u64,
    /// Southbound command cycles preceding each read's data return.
    pub command_cycles: u64,
    /// Fixed additional miss latency (crossbar + DRAM), cycles.
    pub extra_latency: u64,
    /// L2 hit latency every miss also traverses, cycles.
    pub hit_latency: u64,
    /// Request-queue slots per controller — caps how many in-flight misses
    /// can actually pile up behind one controller.
    pub queue_depth: usize,
    /// Outstanding blocking misses per hardware thread.
    pub outstanding_misses: usize,
}

impl ModelTiming {
    /// Timing for a chip topology spec: the spec's clock and service times,
    /// the calibrated T2 template for the latency constants it does not
    /// carry.
    pub fn from_spec(spec: &ChipSpec) -> Self {
        ModelTiming {
            clock_hz: spec.clock_hz,
            read_service: spec.read_service,
            write_service: spec.write_service,
            command_cycles: T2_COMMAND_CYCLES,
            extra_latency: T2_EXTRA_LATENCY,
            hit_latency: T2_HIT_LATENCY,
            queue_depth: T2_QUEUE_DEPTH,
            outstanding_misses: T2_OUTSTANDING_MISSES,
        }
    }

    /// The full miss round trip without any queueing, in cycles.
    pub fn base_latency(&self) -> u64 {
        self.extra_latency + self.hit_latency + self.command_cycles + self.read_service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t2_spec_timing_matches_the_calibrated_template() {
        let t = ModelTiming::from_spec(&ChipSpec::ultrasparc_t2());
        assert_eq!(t.read_service, 12);
        assert_eq!(t.write_service, 24);
        assert_eq!(t.base_latency(), 100 + 26 + 3 + 12);
        assert_eq!(t.queue_depth, 16);
        assert_eq!(t.outstanding_misses, 1);
    }

    #[test]
    fn presets_override_only_what_they_carry() {
        let budget = ModelTiming::from_spec(&ChipSpec::budget_2mc());
        assert_eq!(budget.read_service, 16);
        assert_eq!(budget.write_service, 32);
        // Latency constants stay on the shared template.
        assert_eq!(budget.extra_latency, 100);
        assert_eq!(budget.hit_latency, 26);
    }
}
