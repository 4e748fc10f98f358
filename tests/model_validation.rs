//! Cross-validation of the closed-form `t2opt-model` predictor against
//! the discrete-event simulator, pinned per chip preset: the model must
//! rank each chip's Fig. 4 offset sweep like the simulator does
//! (Spearman ≥ 0.9), and the surrogate-pruned tuner must reproduce the
//! exhaustive winner with strictly fewer simulations.

use t2opt::prelude::*;
use t2opt_autotune::surrogate::{
    model_for_chip, surrogate_score, validation_space, validation_workload,
};
use t2opt_core::chip::PRESET_NAMES;
use t2opt_core::corr::spearman;

/// On every registered preset the model's ranking of the chip's own
/// layout sweep agrees with the simulator's at Spearman ≥ 0.9 — the
/// acceptance bar for using the model as a sim-free pre-filter.
#[test]
fn model_ranks_every_presets_offset_sweep_like_the_simulator() {
    for name in PRESET_NAMES {
        let spec = ChipSpec::preset(name).expect("registry names resolve");
        let chip = ChipConfig::from_spec(&spec);
        let workload = validation_workload(&spec);

        let report = Tuner::new(workload.clone(), chip.clone(), validation_space(&spec))
            .strategy(SearchStrategy::Exhaustive)
            .run();

        let model = model_for_chip(&chip);
        let measured: Vec<f64> = report.trials.iter().map(|t| t.gbs).collect();
        let predicted: Vec<f64> = report
            .trials
            .iter()
            .map(|t| surrogate_score(&model, &workload, &t.spec))
            .collect();

        let rho = spearman(&measured, &predicted)
            .unwrap_or_else(|| panic!("{name}: degenerate sweep, Spearman undefined"));
        assert!(
            rho >= 0.9,
            "{name}: model-vs-sim Spearman {rho:.3} below 0.9 over {} candidates",
            measured.len()
        );

        // The model's top pick must land in a de-aliased residue class —
        // the same qualitative claim Fig. 4 makes for the measured sweep.
        let best_idx = (0..predicted.len())
            .max_by(|&a, &b| predicted[a].partial_cmp(&predicted[b]).unwrap())
            .unwrap();
        let period = spec.interleave_period();
        assert_ne!(
            report.trials[best_idx].spec.block_offset % period,
            0,
            "{name}: the model's best offset must de-alias"
        );
        assert_eq!(
            report.trials[best_idx].spec.placement,
            PagePlacement::FirstTouch,
            "{name}: the model's best candidate must keep pages socket-local"
        );
    }
}

/// The surrogate pre-filter keeps its promise on the pinned T2 grid:
/// identical winner, strictly fewer simulations than exhaustive search.
#[test]
fn surrogate_pruned_tuner_matches_exhaustive_with_fewer_simulations() {
    let workload = Workload::triad_smoke(1 << 12, 16);
    let chip = ChipConfig::ultrasparc_t2();
    let space = ParamSpace::t2_default();

    let exhaustive = Tuner::new(workload.clone(), chip.clone(), space.clone())
        .strategy(SearchStrategy::Exhaustive)
        .run();
    let pruned = Tuner::new(workload, chip, space)
        .strategy(SearchStrategy::model_pruned())
        .run();

    assert_eq!(
        pruned.best.spec, exhaustive.best.spec,
        "surrogate pruning must preserve the exhaustive winner"
    );
    assert_eq!(pruned.best.gbs, exhaustive.best.gbs);
    assert!(
        pruned.simulations_run < exhaustive.simulations_run,
        "pruning must save simulations: {} vs {}",
        pruned.simulations_run,
        exhaustive.simulations_run
    );
}
