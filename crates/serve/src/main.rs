//! `t2opt-serve` daemon entry point.
//!
//! ```text
//! cargo run --release -p t2opt-serve -- --port 8080 --store-dir results/store
//! cargo run --release -p t2opt-serve -- --port 0 --port-file /tmp/serve.port
//! ```
//!
//! Options (all optional; an unknown option, a missing value or a
//! non-numeric count exits 2 and names the option, and `--help` prints
//! the accepted list and exits 0):
//! - `--host H` bind host (default `127.0.0.1`)
//! - `--port P` bind port (default `0` = ephemeral; the chosen port is
//!   printed and, with `--port-file`, written to a file for scripts)
//! - `--store-dir DIR` durable sharded store (default: in-memory)
//! - `--shards N` shard count for a fresh store dir (default 8)
//! - `--workers N` request worker threads (default 8)
//! - `--refiners N` background refiner threads (default 2). Jobs on
//!   different chips refine side by side, all on two shared trial workers;
//!   jobs on one chip refine one after another on that chip's trial cache,
//!   so the refined answers are the same for any count
//! - `--queue-cap N` refinement queue capacity (default 64)
//! - `--log PATH` append JSONL logs to PATH instead of stderr
//! - `--no-trace` disable request tracing and store lock-wait timing
//!   (the `/trace` buffer stays empty; counters and latency histograms
//!   remain live)
//!
//! The log level comes from `T2OPT_LOG` (`error|warn|info|debug`,
//! default `info`).
//!
//! SIGINT/SIGTERM (or `POST /shutdown`) trigger graceful shutdown:
//! in-flight requests drain, refiners stop after their current job, and
//! dirty store shards are compacted to disk.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use t2opt_core::cli::Args;
use t2opt_serve::{AdviceService, Server, ServerConfig};
use t2opt_store::Store;
use t2opt_telemetry::logger::{self, log_line, Level};

/// Set by the signal handler; observed by the server's accept loop.
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, Ordering::Relaxed);
}

type SigHandler = extern "C" fn(i32);
extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> isize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// The `--key value` options the daemon reads.
const KEYS: &[&str] = &[
    "host",
    "port",
    "port-file",
    "store-dir",
    "shards",
    "workers",
    "refiners",
    "queue-cap",
    "log",
];

/// The bare switches the daemon reads.
const FLAGS: &[&str] = &["no-trace"];

fn main() {
    let args = Args::from_env(KEYS, FLAGS);
    logger::init_from_env(args.get_str("log"));
    let host = args.get_str("host").unwrap_or("127.0.0.1");
    let port: u16 = args.get("port", 0);
    let shards: usize = args.get("shards", 8);
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: args.get("workers", defaults.workers),
        refiners: args.get("refiners", defaults.refiners),
    };
    let queue_cap: usize = args.get("queue-cap", 64);

    let store = match args.get_str("store-dir") {
        Some(dir) => Store::open_dir(dir, shards).expect("failed to open store dir"),
        None => Store::in_memory(shards),
    };
    let service = AdviceService::new(store, queue_cap);
    if args.has_flag("no-trace") {
        service.set_tracing(false);
    }

    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }

    let (workers, refiners) = (config.workers, config.refiners);
    let server = Server::bind(format!("{host}:{port}"), service, config)
        .expect("failed to bind")
        .observe_signal(&SIGNALED);
    let addr = server.local_addr().expect("bound socket has an address");
    log_line(
        Level::Info,
        "t2opt-serve listening",
        &[
            ("addr", logger::json_str(&addr.to_string())),
            ("workers", workers.to_string()),
            ("refiners", refiners.to_string()),
        ],
    );
    if let Some(path) = args.get_str("port-file") {
        let mut f = std::fs::File::create(path).expect("failed to create port file");
        writeln!(f, "{}", addr.port()).expect("failed to write port file");
    }
    server.serve().expect("server error");
    log_line(Level::Info, "t2opt-serve: store flushed, bye", &[]);
}
