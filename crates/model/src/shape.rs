//! The workload description the model consumes.
//!
//! A kernel is a set of lockstep *units* — one per simulated thread for
//! stream kernels, one per interior row for Jacobi, one per sampled row
//! for LBM — each advancing a fixed set of concurrent access streams one
//! cache line per phase. Units carry their own absolute base addresses, so
//! a layout candidate is expressed simply by where it places the streams
//! (exactly how `t2opt_autotune::Workload::model_shape` builds shapes from
//! a `LayoutSpec`).

use serde::Serialize;
use t2opt_core::advisor::StreamDesc;

/// One lockstep unit: a set of concurrent streams advancing together, and
/// how many cache lines each stream moves over the unit's lifetime.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamUnit {
    /// The unit's concurrent access streams (absolute base addresses).
    pub streams: Vec<StreamDesc>,
    /// Cache lines each stream advances (0 for a degenerate empty unit).
    pub lines: u64,
}

impl StreamUnit {
    /// A unit of `streams` advancing `lines` cache lines each.
    pub fn new(streams: Vec<StreamDesc>, lines: u64) -> Self {
        StreamUnit { streams, lines }
    }
}

/// A complete workload shape: its units, the hardware-thread concurrency
/// executing them, and the byte credit used to convert predicted time into
/// reported bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KernelShape {
    /// All lockstep units of one run (threads / rows / sampled sites).
    pub units: Vec<StreamUnit>,
    /// Hardware threads concurrently executing units.
    pub threads: usize,
    /// Bytes the kernel reports per run (the STREAM/Fig. 7 credit, the
    /// same convention `SimStats::reported_bandwidth_gbs` uses).
    pub reported_bytes: u64,
}

impl KernelShape {
    /// Total blocking misses (loads + read-for-ownership) across all units.
    pub fn blocking_misses(&self) -> u64 {
        self.units
            .iter()
            .map(|u| {
                u.lines
                    * u.streams
                        .iter()
                        .map(|s| u64::from(s.kind.blocking()))
                        .sum::<u64>()
            })
            .sum()
    }

    /// Translates every stream base by `delta` bytes — used by the
    /// period-invariance property tests.
    pub fn translated(&self, delta: u64) -> Self {
        KernelShape {
            units: self
                .units
                .iter()
                .map(|u| {
                    StreamUnit::new(
                        u.streams
                            .iter()
                            .map(|s| StreamDesc {
                                base: s.base + delta,
                                kind: s.kind,
                            })
                            .collect(),
                        u.lines,
                    )
                })
                .collect(),
            threads: self.threads,
            reported_bytes: self.reported_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2opt_core::advisor::StreamDesc;

    #[test]
    fn blocking_misses_count_loads_and_rfo_only() {
        let shape = KernelShape {
            units: vec![StreamUnit::new(
                vec![
                    StreamDesc::read(0),
                    StreamDesc::write(128),
                    StreamDesc::writeback(256),
                ],
                10,
            )],
            threads: 1,
            reported_bytes: 0,
        };
        // Read 1 + Write (RFO) 1 + Writeback 0, × 10 lines.
        assert_eq!(shape.blocking_misses(), 20);
    }

    #[test]
    fn translation_moves_every_base() {
        let shape = KernelShape {
            units: vec![StreamUnit::new(vec![StreamDesc::read(64)], 1)],
            threads: 1,
            reported_bytes: 8,
        };
        let moved = shape.translated(512);
        assert_eq!(moved.units[0].streams[0].base, 576);
        assert_eq!(moved.reported_bytes, 8);
    }
}
