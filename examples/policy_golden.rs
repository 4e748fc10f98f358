//! Regenerates a differential-pinning golden file from the matrices
//! defined in `t2opt::golden`:
//!
//! * `fifo` (the default): `tests/golden/policy_fifo.json`, captured from
//!   the **pre-refactor** engine (before memory-controller arbitration
//!   events and `QueuePolicy` existed) and held to by
//!   `tests/policy_differential.rs`;
//! * `engine-paths`: `tests/golden/engine_paths.json`, the read-first,
//!   NUMA and event-queue-overflow cases, captured from the engine before
//!   its event queue became a calendar queue, plus six cases appended from
//!   the engine before its run loop was split (NUMA under read-first, four
//!   outstanding misses, no gang window);
//! * `probe-digests`: `tests/golden/probe_digests.json`, the probe-stream
//!   digest of every case of both matrices, captured from the engine
//!   before its FIFO and arbitrated controllers shared one service step.
//!
//! Re-run this only when a matrix itself is intentionally extended, by
//! cases appended at its end and captured from the engine before the
//! change that needs them — never to "fix" a differential failure, which
//! is a real regression in the engine's pinned behavior. When a matrix shrinks because a policy
//! is deleted, cut its cases from the committed files as text instead;
//! a run of this generator must then reproduce them byte for byte.
//!
//! ```text
//! cargo run --release --example policy_golden [-- fifo|engine-paths|probe-digests]
//! ```

use t2opt::golden::{
    run_engine_paths_matrix, run_matrix, run_probe_digests, DigestCase, DigestFile, GoldenCase,
    GoldenFile, ENGINE_PATHS_GOLDEN_PATH, GOLDEN_PATH, PROBE_DIGESTS_GOLDEN_PATH,
};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "fifo".into());
    std::fs::create_dir_all("tests/golden").expect("create tests/golden");
    let (matrix, path) = match which.as_str() {
        "fifo" => (run_matrix(), GOLDEN_PATH),
        "engine-paths" => (run_engine_paths_matrix(), ENGINE_PATHS_GOLDEN_PATH),
        "probe-digests" => {
            let cases: Vec<DigestCase> = run_probe_digests()
                .into_iter()
                .map(|(name, digest)| {
                    eprintln!("  {name:44} {digest:016x}");
                    DigestCase {
                        name,
                        digest: format!("{digest:016x}"),
                    }
                })
                .collect();
            let path = PROBE_DIGESTS_GOLDEN_PATH;
            t2opt_core::json::write_json(path, &DigestFile { cases }).expect("write digest file");
            eprintln!("wrote {path}");
            return;
        }
        other => panic!("unknown matrix {other:?} (expected fifo, engine-paths or probe-digests)"),
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
