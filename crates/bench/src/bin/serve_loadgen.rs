//! Load generator for the `t2opt-serve` advice daemon: drives concurrent
//! keep-alive clients across the chip-preset × workload matrix and reports
//! throughput plus p50/p99 latency for the cold-miss (advisor/model tier)
//! and warm-hit (cache tier) paths.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin serve_loadgen -- --quick --json BENCH_serve.json
//! cargo run --release -p t2opt-bench --bin serve_loadgen                      # full matrix
//! cargo run --release -p t2opt-bench --bin serve_loadgen -- --addr 127.0.0.1:8080
//! ```
//!
//! Without `--addr` the daemon is started in-process on an ephemeral port
//! with an in-memory store, so the benchmark is self-contained. The run
//! has four phases:
//!
//! 1. **cold pass** — every distinct query once; answers must come from
//!    the advisor/model tier (no query ever blocks on a simulation),
//! 2. **settle** — poll `/metrics` until the background refinement queue
//!    drains (every cold query upgraded to a measured store entry),
//! 3. **warm pass** — `--clients` threads (persistent connections) hammer
//!    the same matrix round-robin for `--requests` total queries; answers
//!    must now come from the cache tier,
//! 4. **p99 cross-check** (in-process runs only) — a dedicated
//!    single-worker server with refinement disabled answers
//!    `--xcheck-requests` sequential advisor-tier queries; the client p99
//!    must land within one log2 bucket of the p99 recovered from the
//!    server's latency histogram over the Prometheus exposition.
//!
//! The JSON envelope cross-checks the client-side tier counts against the
//! server's own `/metrics` counters (`consistent: true`) and carries the
//! phase-4 verdict (`p99_bucket_consistent: true`).
//!
//! `--no-trace` disables request tracing and lock-wait timing on an
//! in-process server (the always-on counters and latency histograms keep
//! working), for measuring the tracing-off overhead contract.

use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use t2opt_bench::expfmt::{check_prometheus, prom_quantile_bucket};
use t2opt_bench::{write_json, Args};
use t2opt_core::chip::PRESET_NAMES;
use t2opt_core::json::{parse_json, JsonValue};
use t2opt_serve::{AdviceService, Client, Server, ServerConfig, WORKLOAD_NAMES};
use t2opt_store::Store;
use t2opt_telemetry::metrics::Histogram;

/// Latency distribution for one response tier, in milliseconds.
#[derive(Serialize)]
struct LatencyStats {
    count: usize,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    mean_ms: f64,
}

impl LatencyStats {
    fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.total_cmp(b));
        let count = samples.len();
        let pick = |q: f64| {
            if count == 0 {
                return 0.0;
            }
            samples[((count as f64 * q) as usize).min(count - 1)]
        };
        LatencyStats {
            count,
            p50_ms: pick(0.50),
            p99_ms: pick(0.99),
            max_ms: samples.last().copied().unwrap_or(0.0),
            mean_ms: if count == 0 {
                0.0
            } else {
                samples.iter().sum::<f64>() / count as f64
            },
        }
    }
}

/// `BENCH_serve.json` envelope.
#[derive(Serialize)]
struct ServeBenchOutput {
    quick: bool,
    presets: Vec<String>,
    workloads: Vec<String>,
    clients: usize,
    total_requests: usize,
    cold: LatencyStats,
    warm: LatencyStats,
    warm_throughput_rps: f64,
    refine_settled: bool,
    settle_seconds: f64,
    client_cache_tier: usize,
    client_advisor_tier: usize,
    server_cache_tier: f64,
    server_advisor_tier: f64,
    consistent: bool,
    /// Log2 bucket of the phase-4 client-side p99 latency (µs).
    client_p99_bucket: Option<usize>,
    /// Log2 bucket of the phase-4 server's advisor-tier latency-histogram
    /// p99, recovered from the Prometheus scrape.
    server_p99_bucket: Option<usize>,
    /// Whether the two phase-4 p99 buckets agree within one log2 bucket
    /// (`false` when the phase was skipped against an external `--addr`).
    p99_bucket_consistent: bool,
}

fn metrics_field(body: &str, section: &str, field: &str) -> f64 {
    parse_json(body)
        .ok()
        .and_then(|v| v.as_object()?[section].as_object()?[field].as_f64())
        .unwrap_or(f64::NAN)
}

fn main() {
    let args = Args::from_env(
        &[
            "addr",
            "clients",
            "json",
            "queue-cap",
            "refiners",
            "requests",
            "settle-timeout",
            "threads",
            "xcheck-requests",
        ],
        &["no-trace", "quick"],
    );
    let quick = args.has_flag("quick");
    let clients: usize = args.get("clients", 8);
    let total_requests: usize = args
        .get("requests", if quick { 1200 } else { 4000 })
        .max(1000);
    let threads: usize = args.get("threads", 8);
    let settle_deadline = Duration::from_secs(args.get("settle-timeout", 300));

    let workloads: Vec<&str> = if quick {
        vec!["triad", "mix"]
    } else {
        WORKLOAD_NAMES.to_vec()
    };
    let matrix: Vec<String> = PRESET_NAMES
        .iter()
        .flat_map(|chip| {
            workloads.iter().map(move |w| {
                format!(r#"{{"chip":"{chip}","workload":"{w}","threads":{threads}}}"#)
            })
        })
        .collect();

    // Either hammer an external daemon or bring one up in-process. The
    // worker pool is sized so every client thread keeps a dedicated
    // connection, plus one slot for this thread's metrics polling.
    let (addr, server_thread) = match args.get_str("addr") {
        Some(addr) => (addr.parse().expect("--addr must be host:port"), None),
        None => {
            let service = AdviceService::new(Store::in_memory(8), args.get("queue-cap", 64));
            if args.has_flag("no-trace") {
                service.set_tracing(false);
            }
            let server = Server::bind(
                "127.0.0.1:0",
                service,
                ServerConfig {
                    workers: clients + 1,
                    refiners: args.get("refiners", 2),
                },
            )
            .expect("failed to start in-process server");
            let addr = server.local_addr().expect("bound socket has an address");
            (addr, Some(std::thread::spawn(move || server.serve())))
        }
    };
    eprintln!(
        "serve_loadgen: {} distinct queries ({} presets x {} workloads) against {addr}, \
         {clients} clients, {total_requests} warm requests",
        matrix.len(),
        PRESET_NAMES.len(),
        workloads.len()
    );

    let mut control = Client::connect(addr).expect("failed to connect");

    // Phase 1: cold pass. Every answer must be immediate (advisor tier).
    let mut cold_samples = Vec::with_capacity(matrix.len());
    let mut cold_advisor = 0usize;
    let mut cold_cache = 0usize;
    for query in &matrix {
        let start = Instant::now();
        let (status, body) = control.post("/advise", query).expect("cold advise failed");
        cold_samples.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(status, 200, "cold advise rejected: {body}");
        let answer = parse_json(&body).expect("cold advise returned bad JSON");
        match answer.as_object().unwrap()["tier"].as_str() {
            Some("advisor") => cold_advisor += 1,
            Some("cache") => cold_cache += 1,
            tier => panic!("unknown tier {tier:?} in {body}"),
        }
    }
    eprintln!(
        "cold pass: {} queries, {cold_advisor} advisor tier, {cold_cache} cache tier",
        matrix.len()
    );

    // Phase 2: wait for the background refinements to land in the store.
    let settle_start = Instant::now();
    let refine_settled = loop {
        let (_, body) = control.get("/metrics").expect("metrics poll failed");
        if metrics_field(&body, "refine", "depth") == 0.0
            && matches!(
                parse_json(&body).unwrap().as_object().unwrap()["refine"]
                    .as_object()
                    .unwrap()["settled"],
                JsonValue::Bool(true)
            )
        {
            break true;
        }
        if settle_start.elapsed() > settle_deadline {
            eprintln!("WARNING: refinement did not settle within {settle_deadline:?}");
            break false;
        }
        std::thread::sleep(Duration::from_millis(200));
    };
    let settle_seconds = settle_start.elapsed().as_secs_f64();
    eprintln!("settle: refinement queue drained in {settle_seconds:.1}s");

    // Phase 3: warm pass — concurrent clients over persistent connections.
    let next = AtomicUsize::new(0);
    let cache_tier = AtomicUsize::new(0);
    let advisor_tier = AtomicUsize::new(0);
    let warm_start = Instant::now();
    let mut warm_samples: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (matrix, next) = (&matrix, &next);
                let (cache_tier, advisor_tier) = (&cache_tier, &advisor_tier);
                scope.spawn(move || {
                    let mut client = Client::connect(addr)
                        .unwrap_or_else(|e| panic!("client {c} failed to connect: {e}"));
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total_requests {
                            return samples;
                        }
                        let query = &matrix[i % matrix.len()];
                        let start = Instant::now();
                        let (status, body) =
                            client.post("/advise", query).expect("warm advise failed");
                        samples.push(start.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(status, 200, "warm advise rejected: {body}");
                        if body.contains(r#""tier":"cache""#) {
                            cache_tier.fetch_add(1, Ordering::Relaxed);
                        } else {
                            advisor_tier.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let warm_elapsed = warm_start.elapsed().as_secs_f64();
    warm_samples.truncate(total_requests);
    let warm_throughput_rps = warm_samples.len() as f64 / warm_elapsed;

    // Cross-check client-observed tiers against the server's own counters.
    let (_, body) = control.get("/metrics").expect("final metrics failed");
    let server_cache_tier = metrics_field(&body, "serve", "cache_tier");
    let server_advisor_tier = metrics_field(&body, "serve", "advisor_tier");
    let client_cache_tier = cold_cache + cache_tier.load(Ordering::Relaxed);
    let client_advisor_tier = cold_advisor + advisor_tier.load(Ordering::Relaxed);
    // Only a server we started ourselves has counters that begin at zero.
    let consistent = server_thread.is_none()
        || (server_cache_tier == client_cache_tier as f64
            && server_advisor_tier == client_advisor_tier as f64);

    // The main server's Prometheus exposition must validate regardless of
    // which phases ran.
    let (status, prom) = control
        .get_with_accept("/metrics?format=prometheus", "text/plain")
        .expect("prometheus scrape failed");
    assert_eq!(status, 200, "prometheus scrape rejected");
    check_prometheus(&prom).expect("prometheus exposition must validate");
    let warm_stats = LatencyStats::from_samples(warm_samples.clone());

    // Phase 4: p99 histogram cross-check. A dedicated single-worker server
    // with refinement disabled (no refiner threads; queued jobs just sit)
    // answers every query from the advisor tier, so its latency histogram
    // holds exactly this pass's samples and no background simulation
    // competes for CPU. The client stopwatch and the server's first-byte →
    // response-ready histogram then differ only by per-request syscall and
    // context-switch time, which the advisor tier's model evaluation
    // dominates — the two p99s must land within one log2 bucket.
    let in_process = server_thread.is_some();
    let xcheck_requests: usize = args.get("xcheck-requests", 256);
    let (client_p99_bucket, server_p99_bucket) = if in_process {
        let service = AdviceService::new(Store::in_memory(8), 1);
        if args.has_flag("no-trace") {
            service.set_tracing(false);
        }
        let server = Server::bind(
            "127.0.0.1:0",
            service,
            ServerConfig {
                workers: 1,
                refiners: 0,
            },
        )
        .expect("failed to start cross-check server");
        let xaddr = server.local_addr().expect("bound socket has an address");
        let handle = std::thread::spawn(move || server.serve());
        let mut client = Client::connect(xaddr).expect("cross-check client failed to connect");
        // Full-width queries (threads = 64, clamped per chip) maximize the
        // advisor tier's per-request model work, so shared in-server time
        // dominates the client's extra syscall/context-switch overhead.
        let xmatrix: Vec<String> = PRESET_NAMES
            .iter()
            .flat_map(|chip| {
                workloads
                    .iter()
                    .map(move |w| format!(r#"{{"chip":"{chip}","workload":"{w}","threads":64}}"#))
            })
            .collect();
        let mut samples_us = Vec::with_capacity(xcheck_requests);
        for i in 0..xcheck_requests {
            let query = &xmatrix[i % xmatrix.len()];
            let start = Instant::now();
            let (status, body) = client
                .post("/advise", query)
                .expect("cross-check advise failed");
            samples_us.push(start.elapsed().as_secs_f64() * 1e6);
            assert_eq!(status, 200, "cross-check advise rejected: {body}");
            assert!(
                body.contains(r#""tier":"advisor""#),
                "with refinement disabled every answer must stay advisor tier: {body}"
            );
        }
        let (status, xprom) = client
            .get_with_accept("/metrics?format=prometheus", "text/plain")
            .expect("cross-check scrape failed");
        assert_eq!(status, 200, "cross-check scrape rejected");
        check_prometheus(&xprom).expect("cross-check exposition must validate");
        let server_bucket = prom_quantile_bucket(&xprom, "serve_latency_advisor_tier_us", 0.99);
        samples_us.sort_by(f64::total_cmp);
        let p99_us =
            samples_us[((samples_us.len() as f64 * 0.99) as usize).min(samples_us.len() - 1)];
        let client_bucket = Some(Histogram::bucket_of(p99_us as u64));
        let (status, _) = client
            .post("/shutdown", "")
            .expect("cross-check shutdown failed");
        assert_eq!(status, 200);
        handle
            .join()
            .expect("cross-check server panicked")
            .expect("cross-check server error");
        (client_bucket, server_bucket)
    } else {
        (None, None)
    };
    let p99_bucket_consistent = matches!(
        (client_p99_bucket, server_p99_bucket),
        (Some(c), Some(s)) if c.abs_diff(s) <= 1
    );
    if in_process {
        eprintln!(
            "p99 cross-check: {xcheck_requests} advisor-tier requests, client bucket \
             {client_p99_bucket:?}, server histogram bucket {server_p99_bucket:?}, \
             consistent={p99_bucket_consistent}"
        );
    }

    if let Some(handle) = server_thread {
        let (status, _) = control.post("/shutdown", "").expect("shutdown failed");
        assert_eq!(status, 200);
        handle
            .join()
            .expect("server thread panicked")
            .expect("server error");
    }

    let out = ServeBenchOutput {
        quick,
        presets: PRESET_NAMES.iter().map(|s| s.to_string()).collect(),
        workloads: workloads.iter().map(|s| s.to_string()).collect(),
        clients,
        total_requests: matrix.len() + warm_samples.len(),
        cold: LatencyStats::from_samples(cold_samples),
        warm: warm_stats,
        warm_throughput_rps,
        refine_settled,
        settle_seconds,
        client_cache_tier,
        client_advisor_tier,
        server_cache_tier,
        server_advisor_tier,
        consistent,
        client_p99_bucket,
        server_p99_bucket,
        p99_bucket_consistent,
    };

    println!(
        "cold (advisor tier): n={} p50={:.3}ms p99={:.3}ms",
        out.cold.count, out.cold.p50_ms, out.cold.p99_ms
    );
    println!(
        "warm (cache tier):   n={} p50={:.3}ms p99={:.3}ms  ({:.0} req/s over {clients} clients)",
        out.warm.count, out.warm.p50_ms, out.warm.p99_ms, out.warm_throughput_rps
    );
    println!(
        "tiers: client cache={client_cache_tier} advisor={client_advisor_tier}, \
         server cache={server_cache_tier} advisor={server_advisor_tier}, consistent={consistent}"
    );
    assert!(consistent, "client tier counts disagree with /metrics");
    // Phase 4 only runs against a server we started ourselves.
    if in_process {
        assert!(
            p99_bucket_consistent,
            "cross-check client p99 (bucket {client_p99_bucket:?}) disagrees with the server's \
             advisor-tier histogram p99 (bucket {server_p99_bucket:?}) by more than one log2 bucket"
        );
    }

    let path = args.get_str("json").unwrap_or("BENCH_serve.json");
    write_json(path, &out).expect("failed to write JSON");
    eprintln!("wrote {path}");
}
