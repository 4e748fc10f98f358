//! End-to-end tests over real TCP: the full cold → refine → warm serve
//! path, refined answers that do not depend on the refiner count, metrics
//! consistency, graceful shutdown with store flush, bounded-queue drop
//! accounting, and hostile or pipelined input.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use t2opt_core::json::{parse_json, JsonValue};
use t2opt_core::layout::LayoutSpec;
use t2opt_serve::{AdviceService, Client, Server, ServerConfig};
use t2opt_store::Store;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("t2opt-serve-e2e")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn obj(body: &str) -> std::collections::BTreeMap<String, JsonValue> {
    parse_json(body)
        .unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
        .as_object()
        .expect("top-level object")
        .clone()
}

/// Polls `/metrics` until the refinement queue settles (all accepted jobs
/// completed or dropped) or the deadline passes.
fn await_settled(client: &mut Client, deadline: Duration) {
    let start = Instant::now();
    loop {
        let (status, body) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        let refine = obj(&body)["refine"].as_object().unwrap().clone();
        if matches!(refine["settled"], JsonValue::Bool(true)) {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "refinement did not settle within {deadline:?}: {body}"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}

#[test]
fn cold_advise_refines_to_cache_tier_and_survives_restart() {
    let dir = tmp_dir("lifecycle");
    let query = r#"{"chip":"budget-2mc","workload":"triad","threads":8}"#;

    // --- first server lifetime: cold query, refinement, clean shutdown
    let store = Store::open_dir(&dir, 4).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        AdviceService::new(store, 16),
        ServerConfig {
            workers: 2,
            refiners: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.serve().unwrap());

    let mut client = Client::connect(addr).unwrap();
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(obj(&body)["status"].as_str(), Some("ok"));

    let (status, body) = client.post("/advise", query).unwrap();
    assert_eq!(status, 200, "cold advise failed: {body}");
    let cold = obj(&body);
    assert_eq!(
        cold["tier"].as_str(),
        Some("advisor"),
        "cold query must be advisor tier"
    );
    assert_eq!(cold["source"].as_str(), Some("model-predicted"));

    await_settled(&mut client, Duration::from_secs(120));

    let (_, body) = client.post("/advise", query).unwrap();
    let warm = obj(&body);
    assert_eq!(
        warm["tier"].as_str(),
        Some("cache"),
        "settled query must be cache tier"
    );
    assert!(matches!(warm["refined"], JsonValue::Bool(true)));
    assert_eq!(
        warm["key"].as_str(),
        cold["key"].as_str(),
        "same query, same key"
    );

    // Metrics consistency: one advisor-tier answer, one cache-tier answer.
    let (_, body) = client.get("/metrics").unwrap();
    let metrics = obj(&body);
    let serve = metrics["serve"].as_object().unwrap();
    assert_eq!(serve["advisor_tier"].as_f64(), Some(1.0));
    assert_eq!(serve["cache_tier"].as_f64(), Some(1.0));
    let refine = metrics["refine"].as_object().unwrap();
    assert_eq!(refine["completed"].as_f64(), Some(1.0));
    assert_eq!(refine["dropped"].as_f64(), Some(0.0));

    let (status, _) = client.post("/shutdown", "").unwrap();
    assert_eq!(status, 200);
    serving.join().expect("server thread panicked");

    // --- second lifetime: the refined entry was flushed and reloads
    let store = Store::open_dir(&dir, 4).unwrap();
    assert!(!store.is_empty(), "shutdown must flush the refined entry");
    let server = Server::bind(
        "127.0.0.1:0",
        AdviceService::new(store, 16),
        ServerConfig {
            workers: 2,
            refiners: 0,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve().unwrap());
    let mut client = Client::connect(addr).unwrap();
    let (_, body) = client.post("/advise", query).unwrap();
    assert_eq!(
        obj(&body)["tier"].as_str(),
        Some("cache"),
        "a restarted server must answer from the durable store"
    );
    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    serving.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends `queries` in order to a fresh in-memory daemon with `refiners`
/// refiner threads, waits for refinement to settle, and returns each
/// query's refined store entry: the bits of its GB/s, its tag and its
/// layout.
fn refined_entries(queries: &[String], refiners: usize) -> Vec<(u64, String, LayoutSpec)> {
    let server = Server::bind(
        "127.0.0.1:0",
        AdviceService::new(Store::in_memory(2), queries.len()),
        ServerConfig {
            workers: 2,
            refiners,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let service = server.service();
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve().unwrap());

    let mut client = Client::connect(addr).unwrap();
    let keys: Vec<String> = queries
        .iter()
        .map(|q| {
            let (status, body) = client.post("/advise", q).unwrap();
            assert_eq!(status, 200, "{q}: {body}");
            obj(&body)["key"].as_str().unwrap().to_string()
        })
        .collect();
    await_settled(&mut client, Duration::from_secs(300));
    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    serving.join().unwrap();

    keys.iter()
        .map(|key| {
            let entry = service.store().peek_entry(key).expect("a stored answer");
            let meta = entry.meta.expect("refined entries carry their layout");
            assert!(meta.tag.ends_with("#refined"), "{key}: {}", meta.tag);
            (entry.gbs.to_bits(), meta.tag, meta.spec)
        })
        .collect()
}

#[test]
fn refined_answers_do_not_depend_on_the_refiner_count() {
    // Three chips, one of them NUMA, and three workload families in one
    // fixed shuffled order: a chip's later jobs are transfer-seeded from
    // its earlier families' winners, so a job that saw another cache than
    // the single refiner's would show in its answer.
    let queries: Vec<String> = [
        ("2s-numa", "jacobi"),
        ("budget-2mc", "triad"),
        ("ultrasparc-t2", "mix"),
        ("budget-2mc", "jacobi"),
        ("2s-numa", "triad"),
        ("ultrasparc-t2", "jacobi"),
        ("budget-2mc", "mix"),
        ("ultrasparc-t2", "triad"),
        ("2s-numa", "mix"),
    ]
    .iter()
    .map(|(chip, workload)| format!(r#"{{"chip":"{chip}","workload":"{workload}","threads":8}}"#))
    .collect();
    let single = refined_entries(&queries, 1);
    for refiners in [2, 3] {
        assert_eq!(
            refined_entries(&queries, refiners),
            single,
            "{refiners} refiners answer otherwise than one"
        );
    }
}

#[test]
fn bounded_queue_drops_oldest_and_reports_it() {
    // No refiners: jobs pile up in a 2-slot queue, so the third distinct
    // query must evict the oldest pending job.
    let server = Server::bind(
        "127.0.0.1:0",
        AdviceService::new(Store::in_memory(2), 2),
        ServerConfig {
            workers: 2,
            refiners: 0,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve().unwrap());

    let mut client = Client::connect(addr).unwrap();
    for workload in ["triad", "jacobi", "mix"] {
        let (status, _) = client
            .post("/advise", &format!(r#"{{"workload":"{workload}"}}"#))
            .unwrap();
        assert_eq!(status, 200);
    }
    let (_, body) = client.get("/metrics").unwrap();
    let refine = obj(&body)["refine"].as_object().unwrap().clone();
    assert_eq!(refine["enqueued"].as_f64(), Some(3.0));
    assert_eq!(refine["dropped"].as_f64(), Some(1.0));
    assert_eq!(refine["depth"].as_f64(), Some(2.0));

    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    serving.join().unwrap();
}

#[test]
fn trace_endpoint_exports_the_cold_miss_chain_over_tcp() {
    let server = Server::bind(
        "127.0.0.1:0",
        AdviceService::new(Store::in_memory(2), 4),
        ServerConfig {
            workers: 2,
            refiners: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.serve().unwrap());

    let mut client = Client::connect(addr).unwrap();
    let (status, body) = client.post("/advise", r#"{"workload":"triad"}"#).unwrap();
    assert_eq!(status, 200);
    assert_eq!(obj(&body)["tier"].as_str(), Some("advisor"));
    await_settled(&mut client, Duration::from_secs(120));

    let (status, trace) = client.get("/trace?n=64").unwrap();
    assert_eq!(status, 200);
    let doc = obj(&trace);
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    // The cold advise's full chain is present: connection-level spans, the
    // service tiers, and the late refinement spans resumed by trace id.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.as_object()?.get("name")?.as_str())
        .collect();
    for expected in [
        "accept",
        "parse",
        "store.miss",
        "advisor.model",
        "refine.enqueue",
        "refine.run",
        "tune.run",
        "store.upgrade",
        "request",
    ] {
        assert!(
            names.contains(&expected),
            "span {expected:?} missing from /trace export: {names:?}"
        );
    }

    let (status, _) = client.post("/shutdown", "").unwrap();
    assert_eq!(status, 200);
    serving.join().unwrap();
}

#[test]
fn metrics_negotiates_formats_and_scrapes_are_idempotent() {
    let server = Server::bind(
        "127.0.0.1:0",
        AdviceService::new(Store::in_memory(2), 4),
        ServerConfig {
            workers: 2,
            refiners: 0,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve().unwrap());

    let mut client = Client::connect(addr).unwrap();
    // Two identical advises: one store miss, then one more miss (the
    // placeholder is advisor-tier until refinement, which is disabled).
    for _ in 0..2 {
        let (status, _) = client.post("/advise", r#"{"workload":"mix"}"#).unwrap();
        assert_eq!(status, 200);
    }

    // Default is JSON; `?format=prometheus` and the Accept header both
    // negotiate the text exposition.
    let (_, json_body) = client.get("/metrics").unwrap();
    assert!(json_body.starts_with('{'), "default /metrics is JSON");
    let (_, by_query) = client.get("/metrics?format=prometheus").unwrap();
    assert!(
        by_query.starts_with("# HELP"),
        "query param negotiates text"
    );
    let (_, by_accept) = client.get_with_accept("/metrics", "text/plain").unwrap();
    assert!(by_accept.starts_with("# HELP"), "Accept negotiates text");
    assert!(by_query.contains("# TYPE serve_advise_total counter"));
    assert!(by_query.contains("serve_latency_advisor_tier_us_bucket{le=\"+Inf\"}"));

    // Store counters publish set-to-current into the sink at scrape time:
    // back-to-back scrapes with no traffic in between must report the
    // same values, in both formats (the regression was each scrape
    // re-adding the store's totals).
    let prom_line = |text: &str, name: &str| -> String {
        text.lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("{name} missing from scrape"))
            .to_string()
    };
    let first = client.get("/metrics?format=prometheus").unwrap().1;
    for _ in 0..3 {
        let again = client.get("/metrics?format=prometheus").unwrap().1;
        for name in ["store_hits_total ", "store_misses_total "] {
            assert_eq!(
                prom_line(&first, name),
                prom_line(&again, name),
                "idle rescrape changed {name}"
            );
        }
    }
    let json_store = obj(&client.get("/metrics").unwrap().1)["store"]
        .as_object()
        .unwrap()
        .clone();
    let prom_misses: f64 = prom_line(&first, "store_misses_total ")
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(
        json_store["misses"].as_f64(),
        Some(prom_misses),
        "JSON and Prometheus scrapes must agree on store counters"
    );

    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    serving.join().unwrap();
}

#[test]
fn unknown_paths_and_bad_bodies_get_http_errors() {
    let server = Server::bind(
        "127.0.0.1:0",
        AdviceService::new(Store::in_memory(1), 2),
        ServerConfig {
            workers: 1,
            refiners: 0,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve().unwrap());

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.get("/nope").unwrap().0, 404);
    assert_eq!(client.post("/advise", "{broken").unwrap().0, 400);
    assert_eq!(
        client.post("/advise", r#"{"chip":"z80"}"#).unwrap().0,
        400,
        "unknown chip preset must be a client error"
    );
    // The connection survives error responses (keep-alive).
    assert_eq!(client.get("/healthz").unwrap().0, 200);

    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    serving.join().unwrap();
}

#[test]
fn a_deeply_nested_body_is_a_400_and_the_daemon_keeps_serving() {
    let server = Server::bind(
        "127.0.0.1:0",
        AdviceService::new(Store::in_memory(1), 2),
        ServerConfig {
            workers: 2,
            refiners: 0,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve().unwrap());

    // The largest body the daemon reads, all `[`: parsed recursively
    // without a nesting limit, it overflows the worker's stack.
    let mut client = Client::connect(addr).unwrap();
    let (status, body) = client.post("/advise", &"[".repeat(64 * 1024)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("deeper than 128 levels"), "{body}");
    assert_eq!(
        Client::connect(addr).unwrap().get("/healthz").unwrap().0,
        200
    );

    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    serving.join().unwrap();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = Server::bind(
        "127.0.0.1:0",
        AdviceService::new(Store::in_memory(1), 2),
        ServerConfig {
            workers: 1,
            refiners: 0,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.serve().unwrap());

    // Two requests in one write; the second closes the connection, so
    // both responses end at EOF.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .unwrap_or_else(|e| panic!("second response missing ({e}) after {text:?}"));
    let responses: Vec<&str> = text.split("HTTP/1.1 ").skip(1).collect();
    assert_eq!(responses.len(), 2, "{text:?}");
    assert!(responses[0].starts_with("200 OK"), "{text:?}");
    assert!(responses[0].contains("Connection: keep-alive"), "{text:?}");
    assert!(responses[1].starts_with("200 OK"), "{text:?}");
    assert!(responses[1].contains("Connection: close"), "{text:?}");

    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    serving.join().unwrap();
}
