//! Differential pinning: engine changes must leave simulated behavior
//! **bitwise identical** to committed captures.
//!
//! * `tests/golden/policy_fifo.json` was captured from the engine *before*
//!   controller arbitration events and the policy seam existed (DESIGN.md
//!   §13). Its matrix — every single-socket chip preset × {aliased triad,
//!   spread triad, write-heavy copy}, the traced/probe path, and the
//!   stock-T2 Fig. 4 extremes — pins the default FIFO discipline.
//! * `tests/golden/engine_paths.json` pins what that matrix does not
//!   reach: the arbitrated read-first policy, the NUMA presets under every
//!   page placement, and events scheduled past the event queue's ring. It
//!   was captured from the engine before the calendar queue replaced its
//!   binary heap. Six cases were appended later from the engine before its
//!   run loop was split: both NUMA presets under read-first, and the T2
//!   with four outstanding misses or no gang window under both policies.
//! * `tests/golden/probe_digests.json` pins what `SimStats` do not see:
//!   the order and arguments of every probe call (stalls, NACKs,
//!   controller services) in every case of both matrices. It was captured
//!   from the engine before its FIFO and arbitrated controllers shared one
//!   service step.
//! * `tests/golden/model_predictions.json` pins the closed form: one digest
//!   per case of the bits of every `t2opt-model` prediction field and
//!   every advisor prediction field, over the layouts the serve path
//!   scores and the `model_validate` grids. It was captured from the
//!   advisor and the model while each still had its own phase walk.
//! * `tests/golden/workload_programs.json` pins the tuner's simulator
//!   input: one digest per case of every op of every thread's
//!   `Workload::build_programs` output, over the serve workloads and warm
//!   multi-sweep variants that reach the toggled grids, under three
//!   layouts. It was captured while `Workload` still built its programs
//!   apart from the units the model reads.
//!
//! All five files are written by `examples/policy_golden.rs`. Cases of a
//! deleted policy were cut from two of them as text, leaving every other
//! byte as captured. Every `SimStats` field and every digest is compared
//! with `==`; a mismatch is a regression in the engine or the closed form,
//! not a reason to regenerate a golden file.

use t2opt::core::chip::{ChipSpec, PRESET_NAMES};
use t2opt::golden::{
    load_digests, load_golden, run_engine_paths_matrix, run_matrix, run_model_digests,
    run_probe_digests, run_program_digests, serve_cases, ENGINE_PATHS_GOLDEN_PATH, GOLDEN_PATH,
    MODEL_GOLDEN_PATH, PROBE_DIGESTS_GOLDEN_PATH, PROGRAMS_GOLDEN_PATH,
};
use t2opt::sim::policy::PolicyKind;

fn golden_path(rel_path: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel_path)
}

/// Compares a re-run matrix against the committed capture at `rel_path`.
fn assert_matches_golden<T: PartialEq + std::fmt::Debug>(
    rel_path: &str,
    golden: Vec<(String, T)>,
    current: Vec<(String, T)>,
) {
    assert_eq!(
        golden.len(),
        current.len(),
        "matrix size drifted from {rel_path} — \
         extend a golden only via examples/policy_golden.rs"
    );
    let mut failures = Vec::new();
    for ((gname, gval), (cname, cval)) in golden.iter().zip(current.iter()) {
        assert_eq!(gname, cname, "matrix case order drifted");
        if gval != cval {
            failures.push(format!("{cname}: golden {gval:?} vs current {cval:?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "no longer bitwise identical to {rel_path} \
         ({} of {} cases differ):\n{}",
        failures.len(),
        golden.len(),
        failures.join("\n")
    );
}

#[test]
fn fifo_is_the_default_policy() {
    assert!(PolicyKind::default().is_fifo());
    assert!(t2opt::sim::ChipConfig::ultrasparc_t2().policy.is_fifo());
    for name in t2opt::core::chip::PRESET_NAMES {
        let c = t2opt::sim::ChipConfig::preset(name).expect("preset resolves");
        assert!(c.policy.is_fifo(), "preset {name} must default to FIFO");
    }
}

#[test]
fn fifo_stats_match_the_pre_refactor_golden_bitwise() {
    let golden = load_golden(&golden_path(GOLDEN_PATH));
    assert_matches_golden(GOLDEN_PATH, golden, run_matrix());
}

#[test]
fn arbitrated_numa_and_overflow_stats_match_the_engine_paths_golden_bitwise() {
    let golden = load_golden(&golden_path(ENGINE_PATHS_GOLDEN_PATH));
    assert_matches_golden(ENGINE_PATHS_GOLDEN_PATH, golden, run_engine_paths_matrix());
}

/// Compares re-run digests against the committed capture at `rel_path`,
/// printing both sides as 16 hex digits.
fn assert_digests_match(rel_path: &str, current: Vec<(String, u64)>) {
    let hex = |v: Vec<(String, u64)>| -> Vec<(String, String)> {
        v.into_iter()
            .map(|(n, d)| (n, format!("{d:016x}")))
            .collect()
    };
    let golden = load_digests(&golden_path(rel_path));
    assert_matches_golden(rel_path, hex(golden), hex(current));
}

#[test]
fn probe_streams_match_the_probe_digest_golden_bitwise() {
    assert_digests_match(PROBE_DIGESTS_GOLDEN_PATH, run_probe_digests());
}

#[test]
fn model_and_advisor_predictions_match_the_model_golden_bitwise() {
    assert_digests_match(MODEL_GOLDEN_PATH, run_model_digests());
}

/// No golden pins the tuner's per-trial advisor estimate, so it is held
/// to its definition over the model golden's serve matrix: the mean of
/// the advisor's per-unit predictions, scaled by the placement's locality
/// factor, bit for bit.
#[test]
fn predicted_efficiency_is_the_mean_of_per_unit_predictions_bitwise() {
    for preset in PRESET_NAMES {
        let spec = ChipSpec::preset(preset).expect("registry preset resolves");
        let advisor = spec.advisor();
        for (name, workload, layout) in serve_cases(&spec) {
            let units = workload.stream_units(&layout);
            let total: f64 = units
                .iter()
                .map(|u| advisor.predict(&u.streams).efficiency)
                .sum();
            let expect =
                advisor.locality_factor(layout.placement) * total / units.len().max(1) as f64;
            let got = workload.predicted_efficiency(&advisor, &layout);
            assert_eq!(got.to_bits(), expect.to_bits(), "{preset}/{name}");
        }
    }
}

#[test]
fn workload_programs_match_the_programs_golden_bitwise() {
    assert_digests_match(PROGRAMS_GOLDEN_PATH, run_program_digests());
}
