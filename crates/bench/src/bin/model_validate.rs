//! Cross-validates the closed-form `t2opt-model` predictor against the
//! discrete-event simulator on a chip's Fig. 4 offset sweep: both rank the
//! same layout candidates, and the Spearman rank correlation between the
//! two orderings is the model's headline accuracy statistic.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin model_validate                       # T2 sweep
//! cargo run --release -p t2opt-bench --bin model_validate -- --chip budget-2mc
//! cargo run --release -p t2opt-bench --bin model_validate -- --all              # every preset
//! cargo run --release -p t2opt-bench --bin model_validate -- --check 0.9       # CI gate
//! cargo run --release -p t2opt-bench --bin model_validate -- --json BENCH_model.json
//! ```
//!
//! `--check <rho>` turns the run into a gate: the process exits non-zero
//! if any validated chip's Spearman correlation falls below the threshold
//! (or is undefined). `--all` sweeps every registered preset instead of a
//! single `--chip`. Each chip runs the aliasing-sized workload and layout
//! sweep of [`validation_workload`] and [`validation_space`], derived from
//! its interleave period — the grid the model golden and the validation
//! test pin.

use serde::Serialize;
use t2opt_autotune::surrogate::{model_for_chip, validation_space, validation_workload};
use t2opt_autotune::{SearchStrategy, Tuner};
use t2opt_bench::{chip_preset, write_json, Args, Table};
use t2opt_core::chip::{ChipSpec, PRESET_NAMES};
use t2opt_core::corr::spearman;
use t2opt_core::layout::LayoutSpec;
use t2opt_sim::ChipConfig;

/// One candidate of the sweep: the layout, what the simulator measured,
/// and what the model predicted.
#[derive(Serialize)]
struct Candidate {
    spec: LayoutSpec,
    measured_gbs: f64,
    model_gbs: f64,
    model_efficiency: f64,
}

/// Validation result for one chip preset.
#[derive(Serialize)]
struct ChipValidation {
    chip: String,
    threads: usize,
    n: usize,
    spearman: Option<f64>,
    candidates: Vec<Candidate>,
}

/// JSON envelope for the whole run.
#[derive(Serialize)]
struct ModelValidateOutput {
    threshold: Option<f64>,
    chips: Vec<ChipValidation>,
}

fn validate_chip(spec: &ChipSpec) -> ChipValidation {
    let chip = ChipConfig::from_spec(spec);
    let workload = validation_workload(spec);
    let space = validation_space(spec);
    let (threads, n) = (workload.threads(), workload.n());

    eprintln!(
        "model_validate: {} layout sweep, {} candidates, {threads} threads, N = {n}",
        spec.name,
        space.len()
    );

    let report = Tuner::new(workload.clone(), chip.clone(), space)
        .strategy(SearchStrategy::Exhaustive)
        .run();

    let model = model_for_chip(&chip);
    let candidates: Vec<Candidate> = report
        .trials
        .iter()
        .map(|t| {
            let p = model.predict_placed(&workload.model_shape(&t.spec), t.spec.placement);
            Candidate {
                spec: t.spec.clone(),
                measured_gbs: t.gbs,
                model_gbs: p.gbs,
                model_efficiency: p.efficiency,
            }
        })
        .collect();

    let measured: Vec<f64> = candidates.iter().map(|c| c.measured_gbs).collect();
    let predicted: Vec<f64> = candidates.iter().map(|c| c.model_gbs).collect();

    ChipValidation {
        chip: spec.name.clone(),
        threads,
        n,
        spearman: spearman(&measured, &predicted),
        candidates,
    }
}

fn main() {
    let args = Args::from_env(&["check", "chip", "json"], &["all"]);
    let threshold: Option<f64> = args.get_str("check").map(|raw| {
        raw.parse().unwrap_or_else(|e| {
            eprintln!("error: --check {raw}: {e}");
            std::process::exit(2);
        })
    });

    let chip_names: Vec<&str> = if args.has_flag("all") {
        PRESET_NAMES.to_vec()
    } else {
        vec![args.get_str("chip").unwrap_or(PRESET_NAMES[0])]
    };

    let mut chips: Vec<ChipValidation> = chip_names
        .iter()
        .map(|name| validate_chip(&chip_preset(name)))
        .collect();

    for v in &chips {
        let mut table = Table::new(vec![
            "placement",
            "block_offset",
            "sim GB/s",
            "model GB/s",
            "model eff",
        ]);
        for c in &v.candidates {
            table.row(vec![
                c.spec.placement.label().to_string(),
                c.spec.block_offset.to_string(),
                format!("{:.2}", c.measured_gbs),
                format!("{:.2}", c.model_gbs),
                format!("{:.3}", c.model_efficiency),
            ]);
        }
        println!("\n== {} ==", v.chip);
        table.print();
        match v.spearman {
            Some(rho) => println!("model-vs-sim Spearman rho = {rho:.3}"),
            None => println!("model-vs-sim Spearman rho undefined (degenerate sweep)"),
        }
    }

    if let Some(path) = args.get_str("json") {
        let out = ModelValidateOutput { threshold, chips };
        write_json(path, &out).expect("failed to write JSON");
        eprintln!("wrote {path}");
        chips = out.chips;
    }

    if let Some(min_rho) = threshold {
        let mut failed = false;
        for v in &chips {
            match v.spearman {
                Some(rho) if rho >= min_rho => {}
                Some(rho) => {
                    eprintln!(
                        "FAIL: {} Spearman {rho:.3} < threshold {min_rho:.3}",
                        v.chip
                    );
                    failed = true;
                }
                None => {
                    eprintln!("FAIL: {} Spearman undefined", v.chip);
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "\nall {} chip(s) above Spearman threshold {min_rho:.3}",
            chips.len()
        );
    }
}
