//! The `serve-advise` workload: the advice daemon in-process with its
//! defaults over an in-memory store, driven by two closed-loop clients.

use crate::metrics::{geomean, median, tail_percentile, Metrics};
use crate::simlayers::{stats_digest, SimCase, SimLayers};
use crate::spans::Tracer;
use crate::RunResult;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use t2opt_autotune::surrogate::{model_for_chip, surrogate_score};
use t2opt_autotune::{ResultCache, Workload};
use t2opt_core::chip::{ChipSpec, PRESET_NAMES};
use t2opt_core::json::parse_json;
use t2opt_serve::service::{query_key, resolve_workload};
use t2opt_serve::{
    AdviceService, Client, RefineJob, RefineQueue, Server, ServerConfig, WORKLOAD_NAMES,
};
use t2opt_sim::ChipConfig;
use t2opt_store::{Entry, Store};

/// Requested thread counts; a preset with fewer hardware threads clamps
/// them, which merges its largest counts into one key.
const THREAD_COUNTS: [usize; 4] = [8, 16, 32, 64];
/// The daemon's defaults (`t2opt-serve` flags `--shards`, `--queue-cap`).
const SHARDS: usize = 8;
const QUEUE_CAP: usize = 64;
/// Rounds in an untraced run, at least; each has a fresh daemon.
const MIN_ROUNDS: usize = 2;
/// How long a round may overrun waiting for refinement before it fails
/// (about ten times the sizing box's refinement time).
const REFINE_GRACE: Duration = Duration::from_secs(20);
/// Cache-tier traffic a round keeps after refinement, however long
/// refinement took, so every round adds repeats to the latency pools.
const MIN_STEADY: Duration = Duration::from_millis(500);
/// How long a client that may not send yet sleeps before it draws again.
/// Waking this often keeps both vCPUs out of idle while the refiner runs:
/// on the sizing box, refinement passes with two threads polling at this
/// rate varied about a third less than with the clients asleep.
const WAIT_NAP: Duration = Duration::from_micros(200);
/// Extra daemon set-ups timed before every round and after the last, so
/// `setup_s` is a median of samples spread over the whole run.
const SETUP_BATCH: usize = 20;
/// Passes over the key set for the direct-call timings.
const DIRECT_REPS: usize = 20;
/// Failure descriptions kept per run; later ones are only counted.
const MAX_FAILURE_NOTES: usize = 20;
/// Latency samples kept per client and run (2 MiB of `f64`).
const SAMPLE_CAP: usize = 1 << 18;

/// One distinct `/advise` query.
#[derive(Debug, Clone)]
pub struct Query {
    pub chip: &'static str,
    pub label: &'static str,
    pub threads: usize,
}

impl Query {
    fn body(&self) -> String {
        format!(
            r#"{{"chip":"{}","workload":"{}","threads":{}}}"#,
            self.chip, self.label, self.threads
        )
    }

    fn spec(&self) -> ChipSpec {
        ChipSpec::preset(self.chip).expect("preset names are exhaustive")
    }

    fn workload(&self) -> Workload {
        resolve_workload(self.label, self.threads).expect("labels come from WORKLOAD_NAMES")
    }

    /// The store key the service files this query under.
    fn key(&self) -> String {
        let config = ChipConfig::from_spec(&self.spec());
        query_key(&ResultCache::chip_fingerprint(&config), &self.workload())
    }
}

/// Every preset x workload label x thread count, thread counts clamped to
/// the preset's hardware threads as the service clamps them.
pub fn key_set() -> Vec<Query> {
    let mut keys: Vec<Query> = Vec::new();
    for chip in PRESET_NAMES {
        let max = ChipSpec::preset(chip).expect("preset").max_threads();
        for label in WORKLOAD_NAMES {
            for t in THREAD_COUNTS {
                let threads = t.min(max);
                if !keys
                    .iter()
                    .any(|q| q.chip == chip && q.label == label && q.threads == threads)
                {
                    keys.push(Query {
                        chip,
                        label,
                        threads,
                    });
                }
            }
        }
    }
    keys
}

/// The small key set the stream workloads' traced runs use for the
/// serving layers: the triad on every preset at 8 threads.
fn off_path_keys() -> Vec<Query> {
    key_set()
        .into_iter()
        .filter(|q| q.label == "triad" && q.threads == 8)
        .collect()
}

/// xorshift64*, seeded.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    /// A key's first request; it queues that key's refinement.
    New(usize),
    /// A key whose refinement has landed.
    Repeat(usize),
    /// Nothing may be sent yet.
    Wait,
}

/// The one query stream both clients draw from. New keys enter in the
/// seeded order, one at a time, and only while fewer than the queue's
/// capacity are waiting for refinement, so no job is ever dropped and the
/// refiner sees them in that order. The single refiner completes jobs in
/// queue order, so the first `completed` keys are the refined ones.
/// Only the keep-alive client introduces new keys: a client that connects
/// anew waits out the acceptor's 10 ms nap on every request, and whichever
/// client drew the previous new key draws the next one first, so with both
/// introducing, a race would decide whether keys arrive every few tens of
/// µs or every 10 ms, and with it whether the refiner waits for work.
/// Repeats (seeded, uniform over the keys) start once every key is
/// refined: while cache-tier traffic saturates one of the two vCPUs the
/// refiner only gets what is left, which tripled the run-to-run drift of
/// `refine_s` against the simulator's.
struct QueryStream {
    order: Vec<usize>,
    introduced: usize,
    new_in_flight: bool,
    rng: Rng,
    first_at: Option<Instant>,
    refined_at: Option<Instant>,
}

impl QueryStream {
    fn new(order: Vec<usize>, seed: u64) -> Self {
        QueryStream {
            order,
            introduced: 0,
            new_in_flight: false,
            rng: Rng::new(seed ^ 0x5EED),
            first_at: None,
            refined_at: None,
        }
    }

    fn draw(&mut self, completed: u64, capacity: usize, introduces: bool) -> Draw {
        let now = Instant::now();
        let refined = (completed as usize).min(self.introduced);
        if refined == self.order.len() && self.refined_at.is_none() {
            self.refined_at = Some(now);
        }
        if introduces
            && self.introduced < self.order.len()
            && !self.new_in_flight
            && self.introduced - refined < capacity
        {
            self.first_at.get_or_insert(now);
            self.new_in_flight = true;
            self.introduced += 1;
            return Draw::New(self.order[self.introduced - 1]);
        }
        if refined < self.order.len() {
            return Draw::Wait;
        }
        Draw::Repeat(self.order[self.rng.below(refined)])
    }

    fn answered(&mut self, draw: Draw) {
        if matches!(draw, Draw::New(_)) {
            self.new_in_flight = false;
        }
    }
}

/// One parsed `/advise` answer.
struct Answer {
    cache_tier: bool,
    gbs: f64,
}

fn advise(client: &mut Client, body: &str) -> Result<Answer, String> {
    let (status, text) = client
        .post("/advise", body)
        .map_err(|e| format!("request error: {e}"))?;
    if status != 200 {
        return Err(format!("status {status}: {text}"));
    }
    let doc = parse_json(&text).map_err(|e| format!("bad JSON ({e:?}): {text}"))?;
    let obj = doc.as_object().ok_or("answer is not an object")?;
    let cache_tier = match obj.get("tier").and_then(|t| t.as_str()) {
        Some("cache") => true,
        Some("advisor") => false,
        other => return Err(format!("unknown tier {other:?}")),
    };
    let gbs = obj
        .get("gbs")
        .and_then(|g| g.as_f64())
        .ok_or("answer has no gbs")?;
    Ok(Answer { cache_tier, gbs })
}

/// One client's latencies, in µs, pooled over every round of a run. The
/// buffer is allocated and touched once, and percentiles sort it in place,
/// so peak memory does not grow with the number of requests a machine
/// completes; past its capacity a seeded reservoir keeps a uniform sample.
struct Samples {
    buf: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl Samples {
    fn new(seed: u64) -> Self {
        let mut buf = Vec::with_capacity(SAMPLE_CAP);
        buf.resize(SAMPLE_CAP, f64::NAN);
        buf.clear();
        Samples {
            buf,
            seen: 0,
            rng: Rng::new(seed),
        }
    }

    fn push(&mut self, elapsed: Duration) {
        let us = elapsed.as_nanos() as f64 / 1e3;
        self.seen += 1;
        if self.buf.len() < SAMPLE_CAP {
            self.buf.push(us);
        } else {
            let j = (self.rng.next() % self.seen) as usize;
            if j < SAMPLE_CAP {
                self.buf[j] = us;
            }
        }
    }

    fn summary(&mut self) -> Latency {
        Latency {
            n: self.seen,
            p50_us: median(&mut self.buf),
            p90_us: tail_percentile(&mut self.buf, 0.9),
        }
    }
}

/// One client's latency summary.
#[derive(Debug, Default, Clone, Copy)]
struct Latency {
    n: u64,
    p50_us: Option<f64>,
    p90_us: Option<f64>,
}

/// The two clients' latency pools.
struct Pools {
    keepalive: Samples,
    connect: Samples,
}

impl Pools {
    fn new(seed: u64) -> Self {
        Pools {
            keepalive: Samples::new(seed),
            connect: Samples::new(seed ^ 1),
        }
    }

    /// Keep-alive and per-connection summaries.
    fn summary(&mut self) -> [Latency; 2] {
        [self.keepalive.summary(), self.connect.summary()]
    }
}

/// What one round (one daemon lifetime) measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    refine_s: Option<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Refined GB/s per key index, from the closing verification pass.
    gbs: Vec<f64>,
    enqueued: u64,
    dropped: u64,
    completed: u64,
    order: Vec<usize>,
    service: Option<Arc<AdviceService>>,
}

impl Round {
    fn fail(&mut self, what: String) {
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(what);
        }
    }
}

/// Tallies shared by the two client threads.
#[derive(Default)]
struct Tally {
    cache: u64,
    advisor: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// What the two client threads share.
struct Clients<'a> {
    addr: std::net::SocketAddr,
    bodies: &'a [String],
    stream: &'a Mutex<QueryStream>,
    tally: &'a Mutex<Tally>,
    stop: &'a AtomicBool,
    queue: &'a RefineQueue,
    tracer: &'a Tracer,
}

impl Clients<'_> {
    /// One closed-loop client: draw, send, wait for the answer, repeat. A
    /// keep-alive client reuses one connection; the other connects anew
    /// for every request.
    fn run(&self, keep_alive: bool, samples: &mut Samples) {
        let mut conn: Option<Client> = None;
        while !self.stop.load(Ordering::Relaxed) {
            let draw = self.stream.lock().expect("query stream lock").draw(
                self.queue.completed(),
                self.queue.capacity(),
                keep_alive,
            );
            let (Draw::New(k) | Draw::Repeat(k)) = draw else {
                std::thread::sleep(WAIT_NAP);
                continue;
            };
            let span_name = if keep_alive {
                "client.keepalive"
            } else {
                "client.connect"
            };
            let span = self.tracer.span(span_name, self.tracer.new_group(), 0);
            let t = Instant::now();
            let result = match conn.take() {
                Some(c) => Ok(c),
                None => Client::connect(self.addr).map_err(|e| format!("connect: {e}")),
            }
            .and_then(|mut c| {
                let answer = advise(&mut c, &self.bodies[k]);
                if keep_alive && answer.is_ok() {
                    conn = Some(c);
                }
                answer
            });
            let elapsed = t.elapsed();
            drop(span);
            self.stream
                .lock()
                .expect("query stream lock")
                .answered(draw);
            let mut tally = self.tally.lock().expect("tally lock");
            tally.attempted += 1;
            match result {
                Ok(a) => {
                    samples.push(elapsed);
                    if a.cache_tier {
                        tally.cache += 1;
                    } else {
                        tally.advisor += 1;
                    }
                }
                Err(e) => {
                    tally.failed += 1;
                    if tally.failures.len() < MAX_FAILURE_NOTES {
                        tally.failures.push(e);
                    }
                }
            }
        }
    }
}

fn start_daemon() -> std::io::Result<Server> {
    let service = AdviceService::new(Store::in_memory(SHARDS), QUEUE_CAP);
    Server::bind("127.0.0.1:0", service, ServerConfig::default())
}

/// Brings up a daemon, drives it with the two clients for at least
/// `min_s` seconds and until every key is refined, verifies every key
/// answers from the cache tier, checks the server's tier counters against
/// the clients', and shuts the daemon down. The clients' latencies go
/// into `pools`.
fn round(keys: &[Query], seed: u64, min_s: f64, pools: &mut Pools, tracer: &Tracer) -> Round {
    let mut r = Round::default();
    let t = Instant::now();
    let server = match start_daemon() {
        Ok(s) => s,
        Err(e) => {
            r.attempted = 1;
            r.failed = 1;
            r.fail(format!("cannot start the daemon: {e}"));
            return r;
        }
    };
    r.setup_s = t.elapsed().as_secs_f64();
    let addr = server
        .local_addr()
        .expect("a bound listener has an address");
    let service = server.service();
    let shutdown = server.shutdown_handle();
    let queue = service.refine_queue();
    let bodies: Vec<String> = keys.iter().map(Query::body).collect();
    r.order = permutation(keys.len(), seed);
    let stream = Mutex::new(QueryStream::new(r.order.clone(), seed));
    let tally = Mutex::new(Tally::default());
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(min_s);

    let ctx = Clients {
        addr,
        bodies: &bodies,
        stream: &stream,
        tally: &tally,
        stop: &stop,
        queue: &queue,
        tracer,
    };
    let served = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve());
        let ctx = &ctx;
        let Pools { keepalive, connect } = pools;
        let keepalive = scope.spawn(move || ctx.run(true, keepalive));
        let per_conn = scope.spawn(move || ctx.run(false, connect));
        let hard_deadline = deadline + REFINE_GRACE;
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let refined_at = stream.lock().expect("query stream lock").refined_at;
            let now = Instant::now();
            let steady = refined_at.is_some_and(|t| now >= t + MIN_STEADY);
            if (now >= deadline && steady) || now >= hard_deadline {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        keepalive.join().expect("keep-alive client panicked");
        per_conn.join().expect("per-connection client panicked");
        verify(&mut r, addr, &bodies, &tally);
        shutdown.store(true, Ordering::Relaxed);
        daemon.join().expect("daemon thread panicked")
    });
    if let Err(e) = served {
        r.fail(format!("daemon exited with an error: {e}"));
    }
    let tally = tally.into_inner().expect("tally lock");
    r.attempted += tally.attempted;
    r.failed += tally.failed;
    for f in tally.failures {
        r.fail(f);
    }
    let stream = stream.into_inner().expect("query stream lock");
    match (stream.first_at, stream.refined_at) {
        (Some(a), Some(b)) => r.refine_s = Some((b - a).as_secs_f64()),
        _ => r.fail(format!(
            "refinement unfinished: {} of {} keys after {:.1} s",
            queue.completed(),
            keys.len(),
            min_s + REFINE_GRACE.as_secs_f64()
        )),
    }
    r.enqueued = queue.enqueued();
    r.dropped = queue.dropped();
    r.completed = queue.completed();
    r.service = Some(service);
    r
}

/// The closing checks of a round, over one keep-alive connection: every
/// key answers from the cache tier, and the server's tier counters equal
/// the clients' counts.
fn verify(r: &mut Round, addr: std::net::SocketAddr, bodies: &[String], tally: &Mutex<Tally>) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            r.attempted += 1;
            r.failed += 1;
            r.fail(format!("verification connect: {e}"));
            return;
        }
    };
    let mut tally = tally.lock().expect("tally lock");
    for body in bodies {
        r.attempted += 1;
        match advise(&mut client, body) {
            Ok(a) => {
                if a.cache_tier {
                    tally.cache += 1;
                    r.gbs.push(a.gbs);
                } else {
                    tally.advisor += 1;
                    r.fail(format!("not refined by the end of the round: {body}"));
                }
            }
            Err(e) => {
                r.failed += 1;
                r.fail(format!("verification: {e}"));
            }
        }
    }
    r.attempted += 1;
    let counters = client
        .get("/metrics")
        .map_err(|e| e.to_string())
        .and_then(|(status, text)| {
            let doc = parse_json(&text).map_err(|e| format!("{e:?}"))?;
            let serve = doc
                .as_object()
                .and_then(|o| o.get("serve")?.as_object().cloned())
                .ok_or("no serve section")?;
            let field = |name: &str| serve.get(name).and_then(|v| v.as_f64()).map(|v| v as u64);
            match (status, field("cache_tier"), field("advisor_tier")) {
                (200, Some(c), Some(a)) => Ok((c, a)),
                _ => Err(format!("status {status}: {text}")),
            }
        });
    match counters {
        Ok((cache, advisor)) if (cache, advisor) == (tally.cache, tally.advisor) => {}
        Ok((cache, advisor)) => r.fail(format!(
            "server counted {cache} cache / {advisor} advisor answers, clients {} / {}",
            tally.cache, tally.advisor
        )),
        Err(e) => {
            r.failed += 1;
            r.fail(format!("/metrics: {e}"));
        }
    }
}

/// Times `DIRECT_REPS` passes of direct `advise` calls over `bodies`,
/// returning µs per call; every answer must come from the expected tier.
fn direct_advise(
    service: &AdviceService,
    bodies: &[String],
    cache_tier: bool,
    tracer: &Tracer,
    failures: &mut Vec<String>,
) -> Vec<f64> {
    let tier = if cache_tier {
        "\"tier\":\"cache\""
    } else {
        "\"tier\":\"advisor\""
    };
    let mut us = Vec::with_capacity(bodies.len() * DIRECT_REPS);
    for _ in 0..DIRECT_REPS {
        for body in bodies {
            let _s = tracer.span("service.advise", tracer.new_group(), 0);
            let t = Instant::now();
            let response = service.advise(body);
            us.push(t.elapsed().as_secs_f64() * 1e6);
            if response.status != 200 || !response.body.contains(tier) {
                failures.push(format!("direct advise expected {tier}: {}", response.body));
                return us;
            }
        }
    }
    us
}

/// Host ns per call of `f` over `n` calls.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// The serving-stack per-layer metrics: model, store, direct service
/// calls by tier, HTTP and accept overhead, the live queue counters, and
/// the tuner replayed over the round's jobs in the round's order.
/// `plain` holds an untraced round's latencies, which the direct calls
/// are subtracted from.
fn serve_layers(
    keys: &[Query],
    live: &Round,
    plain: &[Latency; 2],
    tracer: &Tracer,
    out: &mut RunResult,
) {
    let [keepalive, connect] = plain;
    let keepalive_us = keepalive.p50_us.unwrap_or(f64::NAN);
    let connect_us = connect.p50_us.unwrap_or(f64::NAN);
    let bodies: Vec<String> = keys.iter().map(Query::body).collect();
    let group = tracer.new_group();
    let m = &mut out.metrics;
    let n = keys.len();

    let models: Vec<_> = keys
        .iter()
        .map(|q| {
            let spec = q.spec();
            let model = model_for_chip(&ChipConfig::from_spec(&spec));
            (model, q.workload(), spec.advisor().suggest_layout())
        })
        .collect();
    let calls = n * DIRECT_REPS * 10;
    let ns = {
        let _s = tracer.span("model.surrogate_score", group, 0);
        ns_per_call(calls, |i| {
            let (model, workload, spec) = &models[i % n];
            black_box(surrogate_score(model, workload, spec));
        })
    };
    m.put("model.ns_per_predict", ns, "ns", calls);

    let store = Store::in_memory(SHARDS);
    let store_keys: Vec<String> = keys.iter().map(Query::key).collect();
    for (i, k) in store_keys.iter().enumerate() {
        store.insert(k, i as f64 + 1.0);
    }
    let calls = n * DIRECT_REPS * 50;
    let get_ns = {
        let _s = tracer.span("store.get_entry", group, 0);
        ns_per_call(calls, |i| {
            black_box(store.get_entry(&store_keys[i % n]));
        })
    };
    let update_ns = {
        let _s = tracer.span("store.update", group, 0);
        ns_per_call(calls, |i| {
            black_box(store.update(&store_keys[i % n], |cur| cur.cloned()));
        })
    };
    if store.len() != n {
        out.fail(format!("store holds {} entries, expected {n}", store.len()));
    }
    let m = &mut out.metrics;
    m.put("store.get_ns", get_ns, "ns", calls);
    m.put("store.update_ns", update_ns, "ns", calls);

    let mut failures = Vec::new();
    let service = live
        .service
        .as_ref()
        .expect("a finished round keeps its service");
    let mut cache_us = direct_advise(service, &bodies, true, tracer, &mut failures);
    let cold = AdviceService::new(Store::in_memory(SHARDS), QUEUE_CAP);
    let mut advisor_us = direct_advise(&cold, &bodies, false, tracer, &mut failures);
    let cache_med = median(&mut cache_us).unwrap_or(f64::NAN);
    let m = &mut out.metrics;
    m.put("service.advise_us.cache", cache_med, "us", cache_us.len());
    m.put(
        "service.advise_us.advisor",
        median(&mut advisor_us).unwrap_or(f64::NAN),
        "us",
        advisor_us.len(),
    );
    m.put(
        "http.overhead_us",
        keepalive_us - cache_med,
        "us",
        cache_us.len(),
    );
    m.put(
        "server.accept_wait_ms",
        (connect_us - keepalive_us) / 1e3,
        "ms",
        connect.n as usize,
    );
    m.put("refine.enqueued", live.enqueued as f64, "count", 1);
    m.put("refine.dropped", live.dropped as f64, "count", 1);
    m.put("refine.completed", live.completed as f64, "count", 1);

    // The tuner, replayed over the same jobs in the same order on a
    // daemon-less service; its answers must equal the live ones.
    let replay = AdviceService::new(Store::in_memory(SHARDS), QUEUE_CAP);
    let mut trials = ResultCache::in_memory();
    let mut job_s = Vec::with_capacity(n);
    // Each tuner run resets the cache counters, so they are read per job.
    let (mut hits, mut misses) = (0u64, 0u64);
    for &k in &live.order {
        let q = &keys[k];
        let job = RefineJob::new(q.key(), q.chip, q.workload());
        let _s = tracer.span("run_refinement", tracer.new_group(), 0);
        let t = Instant::now();
        trials = replay.run_refinement(&job, trials);
        job_s.push(t.elapsed().as_secs_f64());
        hits += trials.hits();
        misses += trials.misses();
    }
    for (k, q) in keys.iter().enumerate() {
        let replayed = replay.store().peek_entry(&q.key()).map(|e| e.gbs);
        if replayed != live.gbs.get(k).copied() {
            failures.push(format!(
                "replayed refinement of {} gives {replayed:?} GB/s, live {:?}",
                q.body(),
                live.gbs.get(k)
            ));
        }
    }
    let (hits, misses) = (hits as f64, misses as f64);
    let m = &mut out.metrics;
    m.put("tune.job_s", job_s.iter().sum::<f64>() / n as f64, "s", n);
    m.put("tune.sims_per_job", misses / n as f64, "count", n);
    m.put(
        "tune.cache_hit_frac",
        hits / (hits + misses).max(1.0),
        "ratio",
        n,
    );
    out.attempted += (2 * bodies.len() * DIRECT_REPS + n) as u64;
    if !failures.is_empty() {
        out.failed += failures.len() as u64;
        failures.truncate(MAX_FAILURE_NOTES);
        for f in failures {
            out.fail(f);
        }
    }
}

/// The daemon-facing numbers of a set of rounds, under `prefix`: the
/// percentiles of the latencies pooled over the rounds, the median
/// refinement time over rounds, and the quality of the refined answers.
fn round_metrics(
    rounds: &[Round],
    latency: &[Latency; 2],
    prefix: &str,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) {
    let [keepalive, connect] = latency;
    let mut put =
        |name: &str, value: Option<f64>, scale: f64, unit: &'static str, n: u64| match value {
            Some(v) => m.put(&format!("{prefix}{name}"), v * scale, unit, n as usize),
            None => failures.push(format!("{prefix}{name}: too few samples")),
        };
    if prefix.is_empty() {
        put("advise_p50_ms", keepalive.p50_us, 1e-3, "ms", keepalive.n);
    }
    put("advise_p90_ms", keepalive.p90_us, 1e-3, "ms", keepalive.n);
    put("connect_p50_ms", connect.p50_us, 1e-3, "ms", connect.n);
    put("connect_p90_ms", connect.p90_us, 1e-3, "ms", connect.n);
    let mut refine: Vec<f64> = rounds.iter().filter_map(|r| r.refine_s).collect();
    put(
        "refine_s",
        median(&mut refine),
        1.0,
        "s",
        refine.len() as u64,
    );
    let gbs: Vec<Option<f64>> = rounds.iter().map(|r| geomean(&r.gbs)).collect();
    match gbs.first().copied().flatten() {
        Some(g) if gbs.iter().all(|&x| x == Some(g)) => m.put(
            &format!("{prefix}advice_gbs"),
            g,
            "GB/s",
            rounds[0].gbs.len(),
        ),
        _ => failures.push(format!(
            "refined answers differ between rounds of one seed: {gbs:?}"
        )),
    }
}

fn absorb(out: &mut RunResult, r: &mut Round) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    for f in r.failures.drain(..) {
        out.fail(f);
    }
}

/// The untraced run: fresh daemons, round after round, until a further
/// round would end after `seconds`.
pub fn run(seed: u64, seconds: f64) -> RunResult {
    let mut out = RunResult::new("serve-advise");
    let start = Instant::now();
    let keys = key_set();
    let mut setup_s = Vec::new();
    let time_setups = |setup_s: &mut Vec<f64>| {
        for _ in 0..SETUP_BATCH {
            let t = Instant::now();
            black_box(start_daemon().expect("daemon set-up"));
            setup_s.push(t.elapsed().as_secs_f64());
        }
    };
    let off = Tracer::new(false);
    let mut pools = Pools::new(seed);
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        time_setups(&mut setup_s);
        let t = Instant::now();
        let mut r = round(&keys, seed, 0.0, &mut pools, &off);
        let took = t.elapsed().as_secs_f64();
        // Only traced runs look inside a finished daemon; keeping every
        // round's service alive would grow memory round by round.
        r.service = None;
        // A round that never finished refining already overran; stop.
        let unfinished = r.refine_s.is_none();
        rounds.push(r);
        let left = seconds - start.elapsed().as_secs_f64();
        if unfinished || (rounds.len() >= MIN_ROUNDS && left < took) {
            break;
        }
    }
    time_setups(&mut setup_s);
    setup_s.extend(rounds.iter().map(|r| r.setup_s));
    let mut failures = Vec::new();
    let m = &mut out.metrics;
    m.put(
        "setup_s",
        median(&mut setup_s).expect("set-ups ran"),
        "s",
        setup_s.len(),
    );
    let [keepalive, connect] = pools.summary();
    round_metrics(&rounds, &[keepalive, connect], "", m, &mut failures);
    // The gated end-to-end slots: refinement time, and the keep-alive
    // round trip's p50 over every round's requests, which crosses the
    // HTTP, worker, service, store and cache-tier path. The per-connection
    // p50 is printed but not gated: each fresh connection waits out most
    // of the acceptor's 10 ms nap, and the serving work before and after
    // that wait cancels out of it.
    for (slot, from, scale, unit) in [
        ("result_s", "refine_s", 1.0, "s"),
        ("op_us", "advise_p50_ms", 1e3, "us"),
    ] {
        if let Some(v) = m.get(from).cloned() {
            m.put(slot, v.value * scale, unit, v.samples);
        }
    }
    for f in failures {
        out.fail(f);
    }
    let refine: Vec<String> = rounds
        .iter()
        .map(|r| r.refine_s.map_or("-".into(), |v| format!("{v:.3}")))
        .collect();
    out.notes
        .push(format!("refine_s per round: {}", refine.join(" ")));
    out.notes.push(format!(
        "{} keys, {} rounds, {} keep-alive and {} per-connection requests",
        keys.len(),
        rounds.len(),
        keepalive.n,
        connect.n
    ));
    for r in &mut rounds {
        absorb(&mut out, r);
    }
    out
}

/// The traced run: an untraced round and a traced round, then every layer
/// measured on its own, including the simulations behind the answers.
pub fn run_traced(seed: u64, seconds: f64, tracer: &Tracer) -> RunResult {
    let mut out = RunResult::new("serve-advise");
    let keys = key_set();
    let round_s = seconds / 4.0;
    let mut pools = Pools::new(seed);
    let mut plain = round(&keys, seed, round_s, &mut pools, &Tracer::new(false));
    let plain_latency = pools.summary();
    pools = Pools::new(seed);
    let mut traced = round(&keys, seed, round_s, &mut pools, tracer);
    let [traced_keepalive, _] = pools.summary();
    let mut failures = Vec::new();
    round_metrics(
        std::slice::from_ref(&plain),
        &plain_latency,
        "serve.",
        &mut out.metrics,
        &mut failures,
    );
    let ka_plain = plain_latency[0].p50_us.unwrap_or(f64::NAN);
    let ka_traced = traced_keepalive.p50_us.unwrap_or(f64::NAN);
    out.metrics.put(
        "bench.trace_overhead_frac",
        ka_traced / ka_plain - 1.0,
        "ratio",
        traced_keepalive.n as usize,
    );
    serve_layers(&keys, &traced, &plain_latency, tracer, &mut out);
    if traced.gbs != plain.gbs {
        failures.push("traced and untraced rounds refined to different answers".into());
    }
    sim_layers(&keys, &traced, tracer, &mut out);
    for f in failures {
        out.fail(f);
    }
    absorb(&mut out, &mut plain);
    absorb(&mut out, &mut traced);
    out
}

/// The simulator layers, measured on the simulations behind the daemon's
/// answers: each key's refined layout, simulated as the tuner simulates
/// it. Each must reproduce the answered GB/s exactly.
fn sim_layers(keys: &[Query], live: &Round, tracer: &Tracer, out: &mut RunResult) {
    let service = live
        .service
        .as_ref()
        .expect("a finished round keeps its service");
    let mut layers = SimLayers::default();
    let mut gbs = Vec::with_capacity(keys.len());
    let mut digest = 0u64;
    for q in keys {
        let Some(Entry {
            gbs: answered,
            meta: Some(meta),
        }) = service.store().peek_entry(&q.key())
        else {
            out.fail(format!("no refined entry for {}", q.body()));
            continue;
        };
        let workload = q.workload();
        let base = ChipConfig::from_spec(&q.spec());
        let mut chip = base.clone();
        chip.placement = meta.spec.placement;
        let n_cores = chip.core.n_cores;
        let programs = || workload.build_programs(&meta.spec);
        let core_of = |tid: usize| tid % n_cores;
        let case = SimCase {
            chip,
            measure_after_barrier: workload.warmup(),
            programs: &programs,
            core_of: &core_of,
        };
        let stats = layers.measure(&case, tracer, q.label);
        let simulated = stats.reported_bandwidth_gbs(&base, workload.reported_bytes());
        if simulated != answered {
            out.fail(format!(
                "{}: refined answer {answered} GB/s, its layout simulates to {simulated}",
                q.body()
            ));
        }
        gbs.push(simulated);
        digest = t2opt_store::fnv1a64(format!("{digest}{}", stats_digest(&stats)).as_bytes()) >> 16;
    }
    out.attempted += layers.sims;
    if !layers.failures.is_empty() {
        out.failed += 1;
        for f in layers.failures.drain(..) {
            out.fail(f);
        }
    }
    layers.report(&mut out.metrics, geomean(&gbs).unwrap_or(f64::NAN), digest);
}

/// The serving layers for a workload that does not use them: one short
/// traced round over the triad on every preset, then the same per-layer
/// measurements as `serve-advise`.
pub fn off_path_layers(seed: u64, tracer: &Tracer, out: &mut RunResult) {
    let keys = off_path_keys();
    let mut pools = Pools::new(seed);
    let mut live = round(&keys, seed, 1.5, &mut pools, tracer);
    let latency = pools.summary();
    let mut failures = Vec::new();
    round_metrics(
        std::slice::from_ref(&live),
        &latency,
        "serve.",
        &mut out.metrics,
        &mut failures,
    );
    serve_layers(&keys, &live, &latency, tracer, out);
    for f in failures {
        out.fail(f);
    }
    absorb(out, &mut live);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_set_covers_presets_labels_and_clamped_threads() {
        let keys = key_set();
        assert_eq!(keys.len(), 115, "budget-2mc clamps 64 threads to 32");
        let mut store_keys: Vec<String> = keys.iter().map(Query::key).collect();
        store_keys.sort();
        store_keys.dedup();
        assert_eq!(
            store_keys.len(),
            keys.len(),
            "every query has its own store key"
        );
        assert_eq!(off_path_keys().len(), PRESET_NAMES.len());
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(115, 7);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..115).collect::<Vec<_>>());
        assert_eq!(a, permutation(115, 7));
        assert_ne!(a, permutation(115, 8));
    }

    #[test]
    fn query_stream_paces_new_keys_by_the_queue() {
        let mut s = QueryStream::new(vec![2, 0, 1], 1);
        assert_eq!(
            s.draw(0, 2, false),
            Draw::Wait,
            "only the introducing client sends new keys"
        );
        let first = s.draw(0, 2, true);
        assert_eq!(first, Draw::New(2));
        assert_eq!(
            s.draw(0, 2, true),
            Draw::Wait,
            "one new key in flight at a time"
        );
        s.answered(first);
        let second = s.draw(0, 2, true);
        assert_eq!(second, Draw::New(0));
        s.answered(second);
        assert_eq!(
            s.draw(0, 2, true),
            Draw::Wait,
            "queue capacity reached, nothing refined"
        );
        let third = s.draw(1, 2, true);
        assert_eq!(third, Draw::New(1));
        s.answered(third);
        assert_eq!(
            s.draw(2, 2, true),
            Draw::Wait,
            "no repeats until every key is refined"
        );
        assert!(s.refined_at.is_none());
        assert!(matches!(s.draw(3, 2, false), Draw::Repeat(_)));
        assert!(s.refined_at.is_some());
    }
}
