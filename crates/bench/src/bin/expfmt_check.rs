//! Exposition-format checker for CI: validates a Prometheus text scrape
//! (default) or a Chrome-trace JSON document (`--chrome-trace`) read from
//! a file or stdin, exiting nonzero with a diagnostic on the first
//! violation.
//!
//! ```text
//! curl -s "$ADDR/metrics?format=prometheus" | cargo run -p t2opt-bench --bin expfmt_check
//! curl -s "$ADDR/trace" | cargo run -p t2opt-bench --bin expfmt_check -- --chrome-trace
//! cargo run -p t2opt-bench --bin expfmt_check -- --file scrape.prom --require serve_requests_total
//! ```
//!
//! `--require NAME` (repeatable via commas) additionally asserts that the
//! named Prometheus families are present.

use t2opt_bench::expfmt::{check_chrome_trace, check_prometheus};
use t2opt_bench::Args;

fn main() {
    let args = Args::from_env(&["file", "require"], &["chrome-trace"]);
    let input = match args.get_str("file") {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}"))),
        None => {
            use std::io::Read;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| fail(&format!("cannot read stdin: {e}")));
            buf
        }
    };
    if input.trim().is_empty() {
        fail("empty input");
    }

    if args.has_flag("chrome-trace") {
        match check_chrome_trace(&input) {
            Ok(n) => println!("expfmt_check: OK, {n} trace events"),
            Err(e) => fail(&format!("invalid Chrome trace: {e}")),
        }
        return;
    }

    match check_prometheus(&input) {
        Ok(summary) => {
            if let Some(required) = args.get_str("require") {
                for name in required.split(',').filter(|n| !n.is_empty()) {
                    if !summary.types.contains_key(name) {
                        fail(&format!("required family {name} is missing"));
                    }
                }
            }
            println!(
                "expfmt_check: OK, {} families, {} samples",
                summary.types.len(),
                summary.samples
            );
        }
        Err(e) => fail(&format!("invalid Prometheus exposition: {e}")),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("expfmt_check: FAIL: {msg}");
    std::process::exit(1);
}
