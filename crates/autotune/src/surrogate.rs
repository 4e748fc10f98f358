//! The analytic surrogate behind [`SearchStrategy::ModelPruned`]
//! (see [`crate::tuner`]): a [`PerfModel`] built field-by-field from the
//! *same* simulator configuration the trials run on, so the surrogate and
//! the simulator always describe the same machine — including any manual
//! overrides a caller applied on top of the chip template.
//!
//! The grid the model is validated against the simulator over
//! ([`validation_workload`], [`validation_space`]) lives here too, so the
//! `model_validate` bench binary, the model golden and the validation
//! test share one copy of it.
//!
//! [`SearchStrategy::ModelPruned`]: crate::tuner::SearchStrategy::ModelPruned

use t2opt_model::{KernelShape, ModelTiming, PerfModel};
use t2opt_sim::ChipConfig;

use crate::space::ParamSpace;
use crate::workload::Workload;
use t2opt_core::chip::ChipSpec;
use t2opt_core::layout::LayoutSpec;
use t2opt_core::mapping::PagePlacement;

/// A closed-form performance model sharing every timing figure with the
/// given simulator configuration.
pub fn model_for_chip(chip: &ChipConfig) -> PerfModel {
    PerfModel::new(
        chip.map,
        ModelTiming {
            clock_hz: chip.clock_hz,
            read_service: chip.mem.read_service,
            write_service: chip.mem.write_service,
            command_cycles: chip.mem.command_cycles,
            extra_latency: chip.mem.extra_latency,
            hit_latency: chip.l2.hit_latency,
            queue_depth: chip.mem.queue_depth,
            outstanding_misses: chip.core.outstanding_misses,
        },
    )
    .with_numa(chip.numa)
}

/// The `model_validate` workload for `spec`: per-thread segments ≡ 0 mod
/// the interleave period (so the packed layout fully aliases), five
/// streams (3 reads + 2 writes) — more streams than any preset has
/// controllers, so distinct offsets produce distinct coverage patterns
/// instead of one flat "fully spread" plateau.
pub fn validation_workload(spec: &ChipSpec) -> Workload {
    let period = spec.interleave_period();
    // 16 threads per socket: single-socket chips keep their historical
    // 16-thread setup; NUMA chips need the extra per-socket concurrency to
    // be capacity-bound (at 16 threads total the socket split alone hides
    // the convoy behind the latency ceiling, and offsets stop mattering).
    let threads = spec.max_threads().min(16 * spec.n_sockets());
    Workload::StreamMix {
        reads: 3,
        writes: 2,
        n: (period / 8).max(256) * threads,
        threads,
        ntimes: 1,
        warmup: false,
    }
}

/// The layout sweep the model is validated over. Single-socket chips
/// keep the full Fig. 4 offset sweep. On a NUMA chip the first-order
/// layout axis is page *placement* — within one placement the simulator's
/// offset microstructure at capacity-bound thread counts is dominated by
/// cross-thread self-staggering (threads drift out of lockstep and wash
/// out most convoys), which is noise no closed form should chase — so the
/// NUMA sweep crosses all three placements with the two canonical
/// offsets: fully aliased (0) and the advisor's one-controller step.
pub fn validation_space(spec: &ChipSpec) -> ParamSpace {
    let mut space = ParamSpace::offset_sweep_for(spec);
    if spec.n_sockets() > 1 {
        space.block_offsets = vec![0, spec.interleave_period() / spec.num_controllers()];
        space = space.with_placements(PagePlacement::ALL.to_vec());
    }
    space
}

/// The model's predicted bandwidth for one (workload, layout) candidate —
/// the score [`SearchStrategy::ModelPruned`] ranks the grid by. Costs one
/// closed-form evaluation, zero simulations.
///
/// [`SearchStrategy::ModelPruned`]: crate::tuner::SearchStrategy::ModelPruned
pub fn surrogate_score(model: &PerfModel, workload: &Workload, spec: &LayoutSpec) -> f64 {
    let shape: KernelShape = workload.model_shape(spec);
    model.predict_placed(&shape, spec.placement).gbs
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2opt_core::chip::ChipSpec;

    #[test]
    fn chip_model_mirrors_the_simulator_config() {
        let chip = ChipConfig::ultrasparc_t2();
        let model = model_for_chip(&chip);
        assert_eq!(model.timing().read_service, chip.mem.read_service);
        assert_eq!(model.timing().write_service, chip.mem.write_service);
        assert_eq!(model.timing().queue_depth, chip.mem.queue_depth);
        // For a preset-derived config this coincides with the spec path.
        assert_eq!(
            model,
            PerfModel::for_spec(&ChipSpec::ultrasparc_t2()),
            "ChipConfig template and ChipSpec template must agree"
        );
    }

    #[test]
    fn surrogate_prefers_the_spread_offset() {
        let chip = ChipConfig::ultrasparc_t2();
        let model = model_for_chip(&chip);
        let w = Workload::triad_smoke(1 << 12, 16);
        let aliased = surrogate_score(&model, &w, &LayoutSpec::new().base_align(8192));
        let spread = surrogate_score(
            &model,
            &w,
            &LayoutSpec::new().base_align(8192).block_offset(128),
        );
        assert!(
            spread > 1.5 * aliased,
            "model must rank offset 128 far above aliased: {aliased} vs {spread}"
        );
    }
}
