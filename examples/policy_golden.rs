//! Regenerates a differential-pinning golden file from the matrices
//! defined in `t2opt::golden`:
//!
//! * `fifo` (the default): `tests/golden/policy_fifo.json`, captured from
//!   the **pre-refactor** engine (before memory-controller arbitration
//!   events and the policy seam existed) and held to by
//!   `tests/policy_differential.rs`;
//! * `engine-paths`: `tests/golden/engine_paths.json`, the read-first,
//!   NUMA and event-queue-overflow cases, captured from the engine before
//!   its event queue became a calendar queue, plus six cases appended from
//!   the engine before its run loop was split (NUMA under read-first, four
//!   outstanding misses, no gang window);
//! * `probe-digests`: `tests/golden/probe_digests.json`, the probe-stream
//!   digest of every case of both matrices, captured from the engine
//!   before its FIFO and arbitrated controllers shared one service step;
//! * `model`: `tests/golden/model_predictions.json`, one digest per case
//!   of every model and advisor prediction field over the serve path's
//!   layouts and the `model_validate` grids, captured from the advisor and
//!   model before they shared one phase walk;
//! * `programs`: `tests/golden/workload_programs.json`, one digest per
//!   case of every op of every thread's `Workload::build_programs` output
//!   over the serve workloads and warm multi-sweep variants, captured
//!   before `Workload` built its programs from the units the model reads.
//!
//! Re-run this only when a matrix itself is intentionally extended, by
//! cases appended at its end and captured from the engine before the
//! change that needs them — never to "fix" a differential failure, which
//! is a real regression in the engine's pinned behavior. When a matrix shrinks because a policy
//! is deleted, cut its cases from the committed files as text instead;
//! a run of this generator must then reproduce them byte for byte.
//!
//! ```text
//! cargo run --release --example policy_golden [-- fifo|engine-paths|probe-digests|model|programs]
//! ```

use t2opt::golden::{
    run_engine_paths_matrix, run_matrix, run_model_digests, run_probe_digests, run_program_digests,
    DigestCase, DigestFile, GoldenCase, GoldenFile, ENGINE_PATHS_GOLDEN_PATH, GOLDEN_PATH,
    MODEL_GOLDEN_PATH, PROBE_DIGESTS_GOLDEN_PATH, PROGRAMS_GOLDEN_PATH,
};

/// Writes a digest capture to `path`.
fn write_digests(digests: Vec<(String, u64)>, path: &str) {
    let cases: Vec<DigestCase> = digests
        .into_iter()
        .map(|(name, digest)| {
            eprintln!("  {name:44} {digest:016x}");
            DigestCase {
                name,
                digest: format!("{digest:016x}"),
            }
        })
        .collect();
    t2opt_core::json::write_json(path, &DigestFile { cases }).expect("write digest file");
    eprintln!("wrote {path}");
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "fifo".into());
    std::fs::create_dir_all("tests/golden").expect("create tests/golden");
    let (matrix, path) = match which.as_str() {
        "fifo" => (run_matrix(), GOLDEN_PATH),
        "engine-paths" => (run_engine_paths_matrix(), ENGINE_PATHS_GOLDEN_PATH),
        "probe-digests" => return write_digests(run_probe_digests(), PROBE_DIGESTS_GOLDEN_PATH),
        "model" => return write_digests(run_model_digests(), MODEL_GOLDEN_PATH),
        "programs" => return write_digests(run_program_digests(), PROGRAMS_GOLDEN_PATH),
        other => panic!(
            "unknown matrix {other:?} (expected fifo, engine-paths, probe-digests, model or programs)"
        ),
    };
    let cases: Vec<GoldenCase> = matrix
        .into_iter()
        .map(|(name, stats)| GoldenCase { name, stats })
        .collect();
    eprintln!("captured {} matrix cases", cases.len());
    for c in &cases {
        eprintln!(
            "  {:44} cycles {:8}  misses {:7}  nacks {:6}",
            c.name,
            c.stats.cycles(),
            c.stats.l2_misses,
            c.stats.nacks
        );
    }
    t2opt_core::json::write_json(path, &GoldenFile { cases }).expect("write golden file");
    eprintln!("wrote {path}");
}
