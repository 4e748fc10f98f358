//! Differential pinning: engine changes must leave simulated behavior
//! **bitwise identical** to committed captures.
//!
//! * `tests/golden/policy_fifo.json` was captured from the engine *before*
//!   controller arbitration events and `QueuePolicy` existed (DESIGN.md
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
//!
//! All three files are written by `examples/policy_golden.rs`. Cases of a
//! deleted policy were cut from the last two as text, leaving every other
//! byte as captured. Every `SimStats` field and every digest is compared
//! with `==`; a mismatch is a regression in the engine, not a reason to
//! regenerate a golden file.

use t2opt::golden::{
    load_golden, load_probe_digests, run_engine_paths_matrix, run_matrix, run_probe_digests,
    ENGINE_PATHS_GOLDEN_PATH, GOLDEN_PATH, PROBE_DIGESTS_GOLDEN_PATH,
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
        "the engine is no longer bitwise identical to {rel_path} \
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

#[test]
fn probe_streams_match_the_probe_digest_golden_bitwise() {
    let golden = load_probe_digests(&golden_path(PROBE_DIGESTS_GOLDEN_PATH));
    let hex = |v: Vec<(String, u64)>| -> Vec<(String, String)> {
        v.into_iter()
            .map(|(n, d)| (n, format!("{d:016x}")))
            .collect()
    };
    assert_matches_golden(
        PROBE_DIGESTS_GOLDEN_PATH,
        hex(golden),
        hex(run_probe_digests()),
    );
}
