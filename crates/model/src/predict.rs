//! The closed-form predictor: capacity and latency terms, and their max.
//!
//! Both terms read the advisor's phase walk
//! ([`LayoutAdvisor::analyze`]) over each unit's streams, priced in
//! cycles: a blocking line costs `read_service`, a write-back
//! `write_service`. One prediction walks each distinct stream set once
//! ([`LayoutAdvisor::phase_memo`]). The walk supplies the cycle-weighted
//! efficiency and controller occupancy of the capacity term and the
//! controller spread of the latency term.

use crate::shape::KernelShape;
use crate::timing::ModelTiming;
use serde::Serialize;
use t2opt_core::advisor::LayoutAdvisor;
use t2opt_core::chip::{ChipSpec, SocketTopology};
use t2opt_core::mapping::{MapPolicy, PagePlacement};

/// Which of the two model terms set the predicted runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ModelBound {
    /// Controller occupancy (bandwidth), scaled by the layout's
    /// controller-utilization efficiency.
    Capacity,
    /// Miss latency over the available memory-level parallelism, including
    /// the queue wait behind co-resident in-flight misses.
    Latency,
}

/// The model's answer for one (chip, workload, layout) triple.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelPrediction {
    /// Predicted bandwidth in GB/s of the shape's reported bytes (0 for a
    /// degenerate shape that moves no data).
    pub gbs: f64,
    /// Predicted runtime in cycles.
    pub cycles: f64,
    /// Predicted runtime in seconds.
    pub time_secs: f64,
    /// Cycle-weighted controller-utilization efficiency in `(0, 1]` — the
    /// advisor's statistic, reweighted by service times so the FB-DIMM
    /// read/write asymmetry is priced in.
    pub efficiency: f64,
    /// Which term set the runtime.
    pub bound: ModelBound,
    /// Mean distinct controllers hit by blocking units per phase,
    /// averaged over units with any blocking traffic (0 for pure
    /// write-back shapes).
    pub concurrent_controllers: f64,
}

impl ModelPrediction {
    /// Lattice-site update rate in MLUP/s for a kernel of `sites` site
    /// updates per run (the paper's Fig. 7 unit); 0 for a degenerate
    /// zero-time prediction.
    pub fn mlups(&self, sites: u64) -> f64 {
        if self.time_secs > 0.0 {
            sites as f64 / self.time_secs / 1e6
        } else {
            0.0
        }
    }
}

/// The closed-form performance model for one chip. See the crate docs for
/// the equations and DESIGN.md §10 for calibration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PerfModel {
    policy: MapPolicy,
    timing: ModelTiming,
    numa: SocketTopology,
}

impl PerfModel {
    /// A model of the given mapping policy and timing, on a single socket.
    pub fn new(policy: MapPolicy, timing: ModelTiming) -> Self {
        PerfModel {
            policy,
            timing,
            numa: SocketTopology::single(),
        }
    }

    /// Sets the socket/locality structure (see [`Self::predict_placed`]).
    pub fn with_numa(mut self, numa: SocketTopology) -> Self {
        self.numa = numa;
        self
    }

    /// A model for a chip topology spec, on the calibrated T2 latency
    /// template (see [`ModelTiming::from_spec`]).
    pub fn for_spec(spec: &ChipSpec) -> Self {
        PerfModel::new(spec.map, ModelTiming::from_spec(spec)).with_numa(spec.sockets)
    }

    /// The mapping policy in use.
    pub fn policy(&self) -> &MapPolicy {
        &self.policy
    }

    /// The timing in use.
    pub fn timing(&self) -> &ModelTiming {
        &self.timing
    }

    /// Predicts runtime and bandwidth for a workload shape under first-touch
    /// (socket-local) page placement — on a single-socket chip, simply *the*
    /// prediction. Equivalent to
    /// `predict_placed(shape, PagePlacement::FirstTouch)`.
    pub fn predict(&self, shape: &KernelShape) -> ModelPrediction {
        self.predict_placed(shape, PagePlacement::FirstTouch)
    }

    /// Predicts runtime and bandwidth for a workload shape under the given
    /// NUMA page placement.
    ///
    /// The locality term (DESIGN §14): a fraction
    /// `f = placement.remote_fraction(S)` of all line transfers crosses the
    /// shared inter-socket link, adding (a) a downstream link stage of
    /// `f · lines · link_cycles_per_line` on top of the controller pipeline
    /// — the link is one resource shared by all sockets, crossed *after*
    /// service — and (b) `f · (remote_read_extra + link_cycles_per_line)`
    /// cycles to the mean blocking-miss latency. With `f = 0` (first-touch,
    /// or any placement on one socket) both terms vanish and this reduces
    /// bitwise to the pre-NUMA closed form.
    pub fn predict_placed(&self, shape: &KernelShape, placement: PagePlacement) -> ModelPrediction {
        let remote_fraction = placement.remote_fraction(self.numa.n_sockets);
        let n_mc = self.policy.geometry().num_controllers() as f64;
        let advisor =
            LayoutAdvisor::new(self.policy).with_numa(self.numa, self.timing.read_service);
        let mut walks = advisor.phase_memo(self.timing.read_service, self.timing.write_service);
        let mut total_occ = 0.0;
        let mut weighted_eff = 0.0;
        let mut spread_sum = 0.0;
        let mut spread_units = 0.0;
        for unit in &shape.units {
            let a = walks.analyze(&unit.streams);
            let occ = unit.lines as f64 * (a.total() as f64 / a.phases as f64);
            total_occ += occ;
            weighted_eff += occ * a.efficiency();
            if unit.lines > 0 && unit.streams.iter().any(|s| s.kind.blocking() > 0) {
                spread_sum += a.concurrent_controllers();
                spread_units += 1.0;
            }
        }

        let efficiency = if total_occ > 0.0 {
            weighted_eff / total_occ
        } else {
            1.0
        };
        let t_cap = total_occ / (n_mc * efficiency);

        // Memory-level parallelism the cores can sustain; the queue wait a
        // miss sees is set by how those in-flight misses spread over the
        // controllers: `spread = 1` (full convoy) piles them all on one.
        let concurrency = (shape.threads.max(1) * self.timing.outstanding_misses.max(1)) as f64;
        let spread = if spread_units > 0.0 {
            (spread_sum / spread_units).max(1.0)
        } else {
            0.0
        };
        let blocking_misses = shape.blocking_misses() as f64;
        let t_lat = if blocking_misses > 0.0 {
            // `spread` counts distinct controllers per socket group (the
            // advisor walk's fold); every socket replays the same pattern on
            // its own group, so the chip-wide active-controller count — what
            // the in-flight misses divide over — is `spread × n_sockets`.
            let active = spread * self.numa.n_sockets.max(1) as f64;
            let in_flight = (concurrency / active)
                .min(self.timing.queue_depth as f64)
                .max(1.0);
            let queue_wait = (in_flight - 1.0) * self.timing.read_service as f64;
            let lambda = self.timing.base_latency() as f64
                + queue_wait
                + remote_fraction
                    * (self.numa.remote_read_extra + self.numa.link_cycles_per_line) as f64;
            blocking_misses * lambda / concurrency
        } else {
            0.0
        };

        // Shared inter-socket link capacity: every remote line occupies the
        // one link for `link_cycles_per_line` cycles, regardless of which
        // controller serves it. The link is a *downstream* stage — a remote
        // line crosses it after its controller finishes (the simulator
        // serialises completions on `link_busy`) — so in the saturated
        // regime its occupancy adds to the controller pipeline instead of
        // hiding behind it. Zero for any single-socket placement.
        let total_lines: f64 = shape
            .units
            .iter()
            .map(|u| u.lines as f64 * u.streams.len() as f64)
            .sum();
        let t_link = remote_fraction * total_lines * self.numa.link_cycles_per_line as f64;

        let cycles = t_cap.max(t_lat) + t_link;
        let bound = if t_lat > t_cap {
            ModelBound::Latency
        } else {
            ModelBound::Capacity
        };
        let time_secs = cycles / self.timing.clock_hz;
        let gbs = if time_secs > 0.0 {
            shape.reported_bytes as f64 / time_secs / 1e9
        } else {
            0.0
        };
        ModelPrediction {
            gbs,
            cycles,
            time_secs,
            efficiency,
            bound,
            concurrent_controllers: spread,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::StreamUnit;
    use t2opt_core::advisor::StreamDesc;

    /// The Fig. 4 setup: 64 threads, each streaming a triad over its own
    /// 512-aligned segment, arrays placed at the given offsets.
    fn triad_shape(offsets: [u64; 3], threads: u64) -> KernelShape {
        KernelShape {
            units: (0..threads)
                .map(|t| {
                    let seg = t * 4096;
                    StreamUnit::new(
                        vec![
                            StreamDesc::read(seg + offsets[0]),
                            StreamDesc::read(seg + offsets[1]),
                            StreamDesc::write(seg + offsets[2]),
                        ],
                        32,
                    )
                })
                .collect(),
            threads: threads as usize,
            reported_bytes: 3 * 8 * threads * 32 * 8,
        }
    }

    fn t2_model() -> PerfModel {
        PerfModel::for_spec(&ChipSpec::ultrasparc_t2())
    }

    #[test]
    fn aliased_triad_collapses_and_spread_triad_saturates() {
        let model = t2_model();
        let aliased = model.predict(&triad_shape([0, 0, 0], 64));
        let spread = model.predict(&triad_shape([0, 128, 256], 64));
        // Cycle-weighted efficiency: aliased convoy = 3 blocking × 12 = 36
        // vs ideal (2·12 + 36)/4 = 15 per phase.
        assert!((aliased.efficiency - 15.0 / 36.0).abs() < 1e-12);
        assert!((spread.efficiency - 1.0).abs() < 1e-12);
        assert!(
            spread.gbs > 2.0 * aliased.gbs,
            "spread {} vs aliased {} GB/s",
            spread.gbs,
            aliased.gbs
        );
        // Absolute scale: the calibrated T2 saturates near the paper's
        // measured ~13 GB/s triad, and the aliased floor sits near the
        // Fig. 4 ~4-7 GB/s dip.
        assert!(
            (10.0..18.0).contains(&spread.gbs),
            "spread {} GB/s",
            spread.gbs
        );
        assert!(
            (3.0..9.0).contains(&aliased.gbs),
            "aliased {} GB/s",
            aliased.gbs
        );
    }

    #[test]
    fn few_threads_are_latency_bound_many_are_capacity_bound() {
        let model = t2_model();
        let few = model.predict(&triad_shape([0, 128, 256], 4));
        let many = model.predict(&triad_shape([0, 128, 256], 64));
        assert_eq!(few.bound, ModelBound::Latency);
        assert!(
            many.gbs > 3.0 * few.gbs,
            "bandwidth must scale with threads"
        );
    }

    #[test]
    fn write_heavy_shapes_pay_the_fbdimm_asymmetry() {
        // Isolate the capacity term (zero the latency constants so T_lat
        // cannot mask it): four perfectly spread streams, read-only vs
        // write-back-only. The FB-DIMM southbound channel runs at half the
        // read rate, so the write shape must cost exactly
        // `write_service / read_service = 2×` the capacity cycles.
        let spec = ChipSpec::ultrasparc_t2();
        let mut timing = ModelTiming::from_spec(&spec);
        timing.extra_latency = 0;
        timing.hit_latency = 0;
        timing.command_cycles = 0;
        let model = PerfModel::new(spec.map, timing);
        let mk = |kind: fn(u64) -> StreamDesc| KernelShape {
            units: (0..64u64)
                .map(|t| StreamUnit::new((0..4).map(|j| kind(t * 4096 + j * 128)).collect(), 32))
                .collect(),
            threads: 64,
            reported_bytes: 4 * 8 * 64 * 32 * 8,
        };
        let reads = model.predict(&mk(StreamDesc::read));
        let writes = model.predict(&mk(StreamDesc::writeback));
        assert!((reads.efficiency - 1.0).abs() < 1e-12);
        assert!((writes.efficiency - 1.0).abs() < 1e-12);
        assert!(
            (writes.cycles / reads.cycles - 2.0).abs() < 1e-9,
            "write-backs must cost 2x: {} vs {} cycles",
            writes.cycles,
            reads.cycles
        );
        // On the full calibrated timing the asymmetry still shows through
        // as strictly lower copy bandwidth at equal reported bytes.
        let full = t2_model();
        let copy_shape = KernelShape {
            units: (0..64u64)
                .map(|t| {
                    StreamUnit::new(
                        vec![
                            StreamDesc::read(t * 4096),
                            StreamDesc::read(t * 4096 + 128),
                            StreamDesc::write(t * 4096 + 256),
                            StreamDesc::write(t * 4096 + 384),
                        ],
                        32,
                    )
                })
                .collect(),
            threads: 64,
            reported_bytes: 4 * 8 * 64 * 32 * 8,
        };
        let copy = full.predict(&copy_shape);
        let reads_full = full.predict(&mk(StreamDesc::read));
        assert!(
            copy.gbs < reads_full.gbs,
            "copy {} must trail read-only {} GB/s",
            copy.gbs,
            reads_full.gbs
        );
    }

    #[test]
    fn single_controller_chip_has_unit_efficiency_and_no_layout_sensitivity() {
        use t2opt_core::mapping::AddressMap;
        // A 1-MC machine: mc_bits 0 — aliasing cannot exist.
        let policy = MapPolicy::Sliced(AddressMap {
            line_bits: 6,
            mc_lo_bit: 7,
            mc_bits: 0,
            bank_lo_bit: 6,
            bank_bits: 1,
        });
        let spec = ChipSpec::ultrasparc_t2();
        let model = PerfModel::new(policy, ModelTiming::from_spec(&spec));
        let a = model.predict(&triad_shape([0, 0, 0], 16));
        let b = model.predict(&triad_shape([0, 128, 256], 16));
        assert!((a.efficiency - 1.0).abs() < 1e-12);
        assert_eq!(a, b, "offsets cannot matter with one controller");
    }

    #[test]
    fn zero_length_streams_predict_zero_time_and_bandwidth() {
        let model = t2_model();
        let empty = KernelShape {
            units: vec![StreamUnit::new(vec![StreamDesc::read(0)], 0)],
            threads: 8,
            reported_bytes: 0,
        };
        let p = model.predict(&empty);
        assert_eq!(p.cycles, 0.0);
        assert_eq!(p.gbs, 0.0);
        assert_eq!(p.mlups(0), 0.0);
        assert!((p.efficiency - 1.0).abs() < 1e-12);
        // No units at all behaves the same.
        let none = KernelShape {
            units: vec![],
            threads: 8,
            reported_bytes: 0,
        };
        assert_eq!(model.predict(&none).cycles, 0.0);
    }

    #[test]
    fn writeback_only_shapes_are_capacity_bound_with_no_blocking() {
        let model = t2_model();
        let shape = KernelShape {
            units: (0..8u64)
                .map(|t| StreamUnit::new(vec![StreamDesc::writeback(t * 4096)], 64))
                .collect(),
            threads: 8,
            reported_bytes: 8 * 64 * 64,
        };
        let p = model.predict(&shape);
        assert_eq!(p.bound, ModelBound::Capacity);
        assert_eq!(p.concurrent_controllers, 0.0);
        assert!(p.cycles > 0.0);
        assert!((p.efficiency - 1.0).abs() < 1e-12);
        assert_eq!(shape.blocking_misses(), 0);
    }

    #[test]
    fn prediction_is_invariant_under_period_translation() {
        let model = t2_model();
        let shape = triad_shape([0, 64, 384], 16);
        let period = model.policy().interleave_period();
        assert_eq!(
            model.predict(&shape),
            model.predict(&shape.translated(period))
        );
        assert_eq!(
            model.predict(&shape),
            model.predict(&shape.translated(7 * period))
        );
    }

    #[test]
    fn numa_placement_term_orders_first_touch_interleave_remote() {
        let model = PerfModel::for_spec(&ChipSpec::preset("2s-numa").unwrap());
        let shape = triad_shape([0, 128, 256], 16);
        let local = model.predict_placed(&shape, PagePlacement::FirstTouch);
        let inter = model.predict_placed(&shape, PagePlacement::Interleave);
        let remote = model.predict_placed(&shape, PagePlacement::Remote);
        assert_eq!(local, model.predict(&shape), "predict() is first-touch");
        assert!(
            local.gbs > inter.gbs && inter.gbs > remote.gbs,
            "locality must order placements: {} / {} / {} GB/s",
            local.gbs,
            inter.gbs,
            remote.gbs
        );
    }

    #[test]
    fn numa_fold_keeps_socket_local_aliasing_visible() {
        // Aliasing congruent mod the *local* period must still show up on a
        // NUMA chip: the fold maps both sockets' groups onto one. 16 threads
        // per socket — the capacity-bound regime; at lower concurrency the
        // per-socket queues never fill and the gap (correctly) narrows.
        let model = PerfModel::for_spec(&ChipSpec::preset("2s-numa").unwrap());
        let aliased = model.predict(&triad_shape([0, 0, 0], 32));
        let spread = model.predict(&triad_shape([0, 128, 256], 32));
        assert!(
            spread.gbs > 1.5 * aliased.gbs,
            "spread {} vs aliased {} GB/s",
            spread.gbs,
            aliased.gbs
        );
    }

    #[test]
    fn mlups_converts_time_to_site_updates() {
        let model = t2_model();
        let p = model.predict(&triad_shape([0, 128, 256], 64));
        let sites = 64 * 32 * 8; // one site per element
        let expect = sites as f64 / p.time_secs / 1e6;
        assert!((p.mlups(sites) - expect).abs() < 1e-9);
    }
}
