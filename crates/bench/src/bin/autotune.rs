//! Empirical layout autotuning driver: searches the Fig. 3 parameter
//! space for a stream workload on the simulated T2 and cross-validates the
//! result against the analytic advisor.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin autotune                   # Fig. 4 offset sweep
//! cargo run --release -p t2opt-bench --bin autotune -- --grid         # full 4-D default grid
//! cargo run --release -p t2opt-bench --bin autotune -- --strategy seeded
//! cargo run --release -p t2opt-bench --bin autotune -- --strategy transfer --cache tune.json
//! cargo run --release -p t2opt-bench --bin autotune -- --strategy model   # surrogate pre-filter
//! cargo run --release -p t2opt-bench --bin autotune -- --workload lbm-ijkv   # Fig. 7 sweep
//! cargo run --release -p t2opt-bench --bin autotune -- --workload jacobi
//! cargo run --release -p t2opt-bench --bin autotune -- --smoke        # CI-sized problem
//! cargo run --release -p t2opt-bench --bin autotune -- --cache results/tune.json
//! ```
//!
//! `--workload` picks the kernel to tune: `mix` (default stream mix),
//! `triad`, `jacobi`, or `lbm-ijkv` / `lbm-ivjk` (the Fig. 7 D3Q19
//! propagation step in either layout; these default to the LBM padding
//! sweep instead of the offset sweep). For LBM and Jacobi, `--n` is the
//! cubic interior dimension, not the array length.
//!
//! With `--cache`, re-running the same sweep is incremental: already
//! measured candidates are served from the content-addressed cache and the
//! report counts zero new simulations. A shared cache also powers
//! `--strategy transfer`: the coordinate descent starts from the best
//! layout another kernel family cached on the same chip, or from the
//! grid's origin when there is none.
//!
//! `--telemetry <path>` prints the run's cache and pool counters
//! (`telemetry: autotune.*` lines on stdout) and writes the run's trace —
//! a `tune.run` span and one span per simulated trial under it — to
//! `<path>` as Chrome-trace JSON.
//!
//! `--chip <preset>` tunes for a different simulated topology (default
//! `ultrasparc-t2`): the sweep grids, the advisor cross-validation, and
//! the cache fingerprints all follow that chip's interleave period, and
//! the JSON output records the preset name.
//!
//! `--policy <fifo|read-first[:cap]>` selects the controllers'
//! queue-arbitration discipline (default `fifo`). The chip fingerprint
//! covers it, so cached results for different policies never mix.

use serde::Serialize;
use std::sync::Arc;
use t2opt_autotune::{ParamSpace, ResultCache, SearchStrategy, TuneReport, Tuner, Workload};
use t2opt_bench::{chip_from_args, write_json, Args, Table};
use t2opt_kernels::lbm::LbmLayout;
use t2opt_telemetry::export::traces_chrome_trace;
use t2opt_telemetry::metrics::Sink;
use t2opt_telemetry::trace::{TraceBuffer, TraceCtx};

/// Result-cache effectiveness for this run: how many trials were served
/// from the store vs freshly simulated, and how many entries the cache
/// holds afterwards (what a `--cache` file would persist).
#[derive(Serialize)]
struct CacheStats {
    hits: u64,
    misses: u64,
    entries: usize,
}

/// JSON envelope recording which chip preset and queue policy the tuning
/// ran on.
#[derive(Serialize)]
struct AutotuneOutput {
    chip: String,
    policy: String,
    cache: CacheStats,
    report: TuneReport,
}

fn main() {
    let args = Args::from_env(
        &[
            "cache",
            "chip",
            "json",
            "n",
            "policy",
            "reads",
            "step",
            "strategy",
            "telemetry",
            "threads",
            "workload",
            "writes",
        ],
        &["grid", "list-chips", "smoke"],
    );
    if args.has_flag("list-chips") {
        t2opt_bench::list_chips();
    }
    let smoke = args.has_flag("smoke");
    let (spec, chip) = chip_from_args(&args);
    let policy_name = chip.policy.name();
    let threads: usize = args
        .get("threads", if smoke { 16 } else { 64 })
        .min(chip.max_threads());

    let kind = args.get_str("workload").unwrap_or("mix").to_string();
    let workload = match kind.as_str() {
        "mix" => Workload::StreamMix {
            reads: args.get("reads", 2),
            writes: args.get("writes", 1),
            n: args.get("n", if smoke { 1 << 12 } else { 1 << 19 }),
            threads,
            ntimes: 1,
            warmup: !smoke,
        },
        "triad" => {
            let n = args.get("n", if smoke { 1 << 12 } else { 1 << 19 });
            if smoke {
                Workload::triad_smoke(n, threads)
            } else {
                Workload::triad(n, threads)
            }
        }
        "jacobi" => {
            let dim = args.get("n", if smoke { 64 } else { 512 });
            if smoke {
                Workload::jacobi_smoke(dim, threads)
            } else {
                Workload::jacobi(dim, threads)
            }
        }
        "lbm-ijkv" | "lbm-ivjk" => {
            let layout = if kind == "lbm-ijkv" {
                LbmLayout::IJKv
            } else {
                LbmLayout::IvJK
            };
            let n = args.get("n", if smoke { 16 } else { 34 });
            if smoke {
                Workload::lbm_smoke(n, layout, threads)
            } else {
                Workload::lbm(n, layout, threads)
            }
        }
        other => panic!("unknown workload {other:?} (mix | triad | jacobi | lbm-ijkv | lbm-ivjk)"),
    };
    let space = if args.has_flag("grid") {
        ParamSpace::for_chip(&spec)
    } else if kind.starts_with("lbm") {
        ParamSpace::lbm_padding_sweep()
    } else {
        // The Fig. 4 sweep over one interleave period; `--step` overrides
        // the granularity (T2 default: 64 B steps over 512 B).
        let period = spec.interleave_period();
        let step = args.get("step", (period / 8).max(spec.line_size()));
        ParamSpace::offset_sweep(step, period)
    };
    let strategy = match args.get_str("strategy").unwrap_or("exhaustive") {
        "exhaustive" => SearchStrategy::Exhaustive,
        "seeded" => SearchStrategy::advisor_seeded(),
        "transfer" => SearchStrategy::transfer_seeded(),
        "model" => SearchStrategy::model_pruned(),
        other => panic!("unknown strategy {other:?} (exhaustive | seeded | transfer | model)"),
    };

    // One trace with room for `tune.run` and a span per candidate.
    let telemetry = args
        .get_str("telemetry")
        .map(|path| (path, Sink::new(), TraceBuffer::new(1, space.len() + 1)));
    let mut tuner = Tuner::new(workload.clone(), chip, space).strategy(strategy);
    if let Some(path) = args.get_str("cache") {
        tuner = tuner.cache(ResultCache::at_path(path).expect("failed to load result cache"));
    }
    if let Some((_, sink, _)) = &telemetry {
        tuner = tuner.telemetry(Arc::clone(sink));
    }

    eprintln!(
        "autotune: {} workload on {} ({} controllers), N = {}, {threads} threads, {strategy:?}",
        workload.tag(),
        spec.name,
        policy_name,
        workload.n()
    );
    let ctx = match &telemetry {
        // No parent span: `tune.run` roots the trace.
        Some((_, _, traces)) => traces.start("autotune").child_of(0),
        None => TraceCtx::disabled(),
    };
    let report = {
        let _entered = ctx.enter();
        tuner.run()
    };

    let mut table = Table::new(vec![
        "base_align",
        "seg_align",
        "shift",
        "block_offset",
        "GB/s",
        "pred.eff",
        "cached",
    ]);
    for t in &report.trials {
        table.row(vec![
            t.spec.base_align.to_string(),
            t.spec.seg_align.to_string(),
            t.spec.shift.to_string(),
            t.spec.block_offset.to_string(),
            format!("{:.2}", t.gbs),
            format!("{:.2}", t.predicted_efficiency),
            if t.from_cache {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    table.print();

    println!(
        "\nbest: base_align {} seg_align {} shift {} block_offset {} -> {:.2} GB/s ({:.2}x over worst)",
        report.best.spec.base_align,
        report.best.spec.seg_align,
        report.best.spec.shift,
        report.best.spec.block_offset,
        report.best.gbs,
        report.best_over_worst(),
    );
    println!(
        "trials: {} ({} simulated, {} cache hits)",
        report.trials.len(),
        report.simulations_run,
        report.cache_hits
    );
    match report.agreement.spearman {
        Some(rho) => println!("advisor agreement: Spearman rho = {rho:.3}"),
        None => println!("advisor agreement: undefined (degenerate sweep)"),
    }
    if report.agreement.divergences.is_empty() {
        println!(
            "no divergences beyond {:.0}%",
            report.agreement.tolerance * 100.0
        );
    }
    for d in &report.agreement.divergences {
        println!(
            "divergence: offset {} measured {:.0}% vs predicted {:.0}% of best",
            d.spec.block_offset,
            d.measured_rel * 100.0,
            d.predicted_rel * 100.0
        );
    }

    if let Some(path) = args.get_str("json") {
        let out = AutotuneOutput {
            chip: spec.name.clone(),
            policy: policy_name.to_string(),
            cache: CacheStats {
                hits: report.cache_hits,
                misses: report.cache_misses,
                entries: tuner.cache_ref().len(),
            },
            report: report.clone(),
        };
        write_json(path, &out).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }

    if let Some((path, sink, traces)) = &telemetry {
        for (name, value) in sink.counter_values() {
            println!("telemetry: {name} = {value}");
        }
        let trace = traces_chrome_trace(&traces.recent(1));
        std::fs::write(path, trace).expect("failed to write Chrome trace");
        eprintln!("wrote Chrome trace {path}");
    }
}
