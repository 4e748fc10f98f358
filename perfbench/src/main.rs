//! Benchmark of the t2opt simulator and advice daemon, end to end and per
//! layer. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream-aliased --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--workload` is `stream-aliased`, `stream-spread-readfirst`,
//! `serve-advise` or `all`. `--trace 0` measures the end-to-end metrics
//! with nothing attached; `--trace 1` is a separate run that measures
//! every layer and writes its spans to `perfbench/out/`. Every metric is
//! printed with its unit and sample count; the last line is one JSON
//! object holding the metrics `BENCHMARK.json` lists for that mode. The
//! exit code is non-zero when an output check fails. See
//! `perfbench/README.md` for what each metric means.

mod metrics;
mod serve;
mod simlayers;
mod spans;
mod stream;

use metrics::{peak_rss_mib, Metrics};
use spans::{self_times, Tracer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use t2opt_core::json::to_json_string as json;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "result_s", "op_us"];

/// Per-layer metrics, reported by every workload with `--trace 1`.
/// Must match `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: [&str; 43] = [
    "kernels.trace_mops",
    "engine.ns_per_op",
    "engine.nacks_per_op",
    "engine.useful_frac",
    "engine.nack_mc_frac",
    "engine.stalls.load_miss",
    "engine.stalls.store_buffer",
    "engine.stalls.pipe",
    "engine.stalls.fpu",
    "engine.stalls.nack",
    "engine.stalls.drift",
    "engine.stalls.barrier",
    "l2.ns_per_access",
    "l2.accesses",
    "l2.hit_rate",
    "mc.ns_per_service",
    "mc.services",
    "mc.parallelism",
    "sim.cycles",
    "sim.gbs",
    "sim.nacks",
    "sim.l2_misses",
    "sim.writebacks",
    "sim.stats_digest",
    "model.ns_per_predict",
    "store.get_ns",
    "store.update_ns",
    "service.advise_us.cache",
    "service.advise_us.advisor",
    "http.overhead_us",
    "server.accept_wait_ms",
    "refine.enqueued",
    "refine.dropped",
    "refine.completed",
    "tune.job_s",
    "tune.sims_per_job",
    "tune.cache_hit_frac",
    "serve.advise_p90_ms",
    "serve.connect_p50_ms",
    "serve.connect_p90_ms",
    "serve.advice_gbs",
    "serve.refine_s",
    "bench.trace_overhead_frac",
];

const WORKLOADS: [&str; 3] = ["stream-aliased", "stream-spread-readfirst", "serve-advise"];

/// What one workload run produced.
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Descriptions of failed output checks.
    pub failures: Vec<String>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn new(workload: &'static str) -> Self {
        RunResult {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a failed output check. The caller decides which attempted
    /// operation it counts against.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Machine and build facts recorded with every result.
fn provenance(args: &Args, workload: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"commit\":{}}}",
        json(&workload),
        args.seed,
        json(&args.seconds),
        u8::from(args.trace),
        json(&cpu),
        json(&env!("PERFBENCH_RUSTC_VERSION")),
        json(&commit()),
    )
}

/// The checked-out commit, with `-dirty` appended when the work tree has
/// changes or untracked files, so a run of uncommitted code is never
/// recorded under its parent. `unknown` when the benchmark does not run
/// from a git work tree's root (for example in an exported source tree).
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(head), Some(status)) if status.is_empty() => head,
        (Some(head), Some(_)) => format!("{head}-dirty"),
        _ => "unknown".into(),
    }
}

fn run_workload(name: &str, args: &Args) -> RunResult {
    let tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let case = if name == stream::ALIASED.name {
        &stream::ALIASED
    } else {
        &stream::SPREAD_READFIRST
    };
    let mut result = match (name, args.trace) {
        ("serve-advise", false) => serve::run(args.seed, args.seconds),
        ("serve-advise", true) => serve::run_traced(args.seed, args.seconds, &tracer),
        (_, false) => case.run(args.seed, args.seconds),
        (_, true) => {
            let mut result = case.run_traced(args.seed, &tracer);
            // The serving layers are off this workload's path; a short
            // fixed pass over a few keys keeps every layer reported in
            // every traced run.
            serve::off_path_layers(args.seed, &tracer, &mut result);
            result
        }
    };
    if !args.trace {
        match peak_rss_mib() {
            Some(mb) => result.metrics.put("peak_rss_mb", mb, "MiB", 1),
            None => result.fail("cannot read peak RSS from /proc/self/status".into()),
        }
    }
    result
        .notes
        .push(format!("wall {:.3} s", started.elapsed().as_secs_f64()));
    if args.trace {
        let spans = tracer.spans();
        for (name, (count, total, own)) in self_times(&spans) {
            result.notes.push(format!(
                "span {name}: {count} spans, {:.3} ms total, {:.3} ms self",
                total / 1e3,
                own / 1e3
            ));
        }
        let path = args
            .out
            .join(format!("spans-{name}-seed{}.json", args.seed));
        match write_file(&path, &tracer.chrome_trace()) {
            Ok(()) => result
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => result.fail(format!("cannot write {}: {e}", path.display())),
        }
    }
    result
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// The metric names this mode must report.
fn required(trace: bool) -> &'static [&'static str] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Prints the human-readable block for one result and returns its JSON
/// record (every metric, with provenance and failures).
fn report(result: &mut RunResult, args: &Args) -> String {
    for name in required(args.trace) {
        if result.metrics.get(name).is_none() {
            result.fail(format!("metric {name} was not measured"));
        }
    }
    let prov = provenance(args, result.workload);
    println!("== {} provenance {prov}", result.workload);
    for note in &result.notes {
        println!("   {note}");
    }
    for m in result.metrics.iter() {
        println!(
            "   {:<28} {:>16} {:<6} (n={})",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        );
    }
    for f in &result.failures {
        println!("   FAILED CHECK: {f}");
    }
    println!(
        "   attempted {} failed {} correct {}",
        result.attempted,
        result.failed,
        result.correct()
    );
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                json(&m.name),
                json(&m.value),
                json(&m.unit),
                m.samples
            )
        })
        .collect();
    let failures: Vec<String> = result.failures.iter().map(json).collect();
    format!(
        "{{\"provenance\":{prov},\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{{}}}}}",
        result.correct(),
        result.attempted,
        result.failed,
        failures.join(","),
        metrics.join(",")
    )
}

/// The final line: the required metrics only, each prefixed with its
/// workload when `prefixed`.
fn summary_line(results: &[RunResult], trace: bool, prefixed: bool) -> String {
    let mut metrics = Vec::new();
    for r in results {
        for name in required(trace) {
            if let Some(m) = r.metrics.get(name) {
                let key = if prefixed {
                    format!("{}.{name}", r.workload)
                } else {
                    name.to_string()
                };
                metrics.push(format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json(&key),
                    json(&m.value),
                    json(&m.unit)
                ));
            }
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        results.iter().all(RunResult::correct),
        results.iter().map(|r| r.attempted).sum::<u64>(),
        results.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for name in names {
        let mut result = run_workload(name, &args);
        let record = report(&mut result, &args);
        let path = args.out.join(format!(
            "result-{name}-seed{}-trace{}.json",
            args.seed,
            u8::from(args.trace)
        ));
        if let Err(e) = write_file(&path, &record) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        results.push(result);
    }
    println!("{}", summary_line(&results, args.trace, results.len() > 1));
    if results.iter().all(RunResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2opt_core::json::parse_json;

    /// The metric lists in this file and in `BENCHMARK.json` agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match &doc.as_object().expect("object")[key] {
                t2opt_core::json::JsonValue::Array(items) => items
                    .iter()
                    .map(|m| {
                        m.as_object().expect("metric object")["name"]
                            .as_str()
                            .expect("name")
                            .to_string()
                    })
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), WORKLOADS);
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(metrics::valid_metric_name(name), "{name}");
        }
    }
}
