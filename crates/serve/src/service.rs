//! The advice service: tiered answers to "what layout for workload W on
//! chip C with T threads?".
//!
//! Tier contract (the escalation path DESIGN §11 documents):
//!
//! 1. **Store hit, refined** — a background autotune already ran for this
//!    query; answer from the store (`tier: "cache"`, measured GB/s).
//! 2. **Store hit, advisor placeholder** — refinement is still pending;
//!    answer the closed-form advisor layout with the analytic model's
//!    predicted bandwidth (`tier: "advisor"`) and make sure a refinement
//!    job is queued.
//! 3. **Miss** — compute the advisor layout + model prediction
//!    immediately (microseconds, never a simulation), store it as a
//!    placeholder, and enqueue a background refinement that upgrades the
//!    entry when it lands.
//!
//! Every query is answered synchronously from closed-form math or the
//! store; simulations only ever run on refiner threads.

use crate::http::Response;
use crate::refine::{RefineJob, RefineQueue};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use t2opt_autotune::surrogate::{model_for_chip, surrogate_score};
use t2opt_autotune::{ParamSpace, ResultCache, SearchStrategy, Tuner, Workload};
use t2opt_core::chip::{ChipSpec, PRESET_NAMES};
use t2opt_core::json::{parse_json, to_json_string};
use t2opt_core::layout::LayoutSpec;
use t2opt_kernels::lbm::LbmLayout;
use t2opt_model::PerfModel;
use t2opt_parallel::TaskPool;
use t2opt_sim::ChipConfig;
use t2opt_store::{Entry, Store, TrialMeta};
use t2opt_telemetry::export::{prometheus_text, traces_chrome_trace};
use t2opt_telemetry::logger::{log_line, Level};
use t2opt_telemetry::metrics::{Counter, Histogram, Sink};
use t2opt_telemetry::trace::{TraceBuffer, TraceCtx};

/// Workload labels the service accepts.
pub const WORKLOAD_NAMES: [&str; 5] = ["triad", "jacobi", "lbm-ijkv", "lbm-ivjk", "mix"];

/// Tag suffix marking a store entry as an unrefined advisor placeholder.
const ADVISOR_SUFFIX: &str = "#advisor";
/// Tag suffix marking a store entry as an autotuned (refined) result.
const REFINED_SUFFIX: &str = "#refined";

/// Everything precomputed per chip preset at service construction, so the
/// hot path never rebuilds models or advisors.
struct ChipEntry {
    spec: ChipSpec,
    config: ChipConfig,
    fingerprint: String,
    model: PerfModel,
    advisor_spec: LayoutSpec,
}

/// One parsed `/advise` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdviseQuery {
    /// Chip preset name (see [`PRESET_NAMES`]).
    pub chip: String,
    /// Workload label (see [`WORKLOAD_NAMES`]).
    pub workload: String,
    /// Requested thread count, clamped to the chip's hardware threads.
    pub threads: usize,
}

/// The JSON body answered to `/advise`.
#[derive(Debug, Clone, Serialize)]
pub struct AdviseAnswer {
    /// Chip preset the advice is for.
    pub chip: String,
    /// Workload label the advice is for.
    pub workload: String,
    /// Thread count actually used (after clamping).
    pub threads: usize,
    /// `"cache"` (refined, measured) or `"advisor"` (closed-form + model).
    pub tier: String,
    /// Whether a background autotune has upgraded this entry.
    pub refined: bool,
    /// The advised layout.
    pub layout: LayoutSpec,
    /// Bandwidth in GB/s: measured for `"cache"`, model-predicted for
    /// `"advisor"`.
    pub gbs: f64,
    /// `"measured"` or `"model-predicted"`.
    pub source: String,
    /// The store key for this query (stable across requests).
    pub key: String,
}

/// How many recent request traces `GET /trace` retains by default.
const TRACE_BUF_TRACES: usize = 64;
/// Span cap per retained trace.
const TRACE_BUF_SPANS: usize = 64;
/// Default trace count returned by `GET /trace`.
const TRACE_DEFAULT_N: usize = 32;
/// Workers of the pool every refinement of a service simulates its trials
/// on: the most simulations its refiners run at once, together.
const TRIAL_WORKERS: usize = 2;

/// Shared, thread-safe service state behind every endpoint.
pub struct AdviceService {
    store: Store,
    chips: BTreeMap<String, ChipEntry>,
    refine: Arc<RefineQueue>,
    /// Every refinement's trials run here, started by the first one.
    trial_pool: OnceLock<Arc<TaskPool>>,
    sink: Arc<Sink>,
    traces: Arc<TraceBuffer>,
    // Hot-path instruments, resolved once at construction so request
    // handling never takes the sink's registry mutex.
    lat_cache_us: Arc<Histogram>,
    lat_advisor_us: Arc<Histogram>,
    queue_wait_us: Arc<Histogram>,
    bad_parse: Arc<Counter>,
    bad_chip: Arc<Counter>,
    bad_workload: Arc<Counter>,
}

impl AdviceService {
    /// Builds a service over `store` with a refinement queue of the given
    /// capacity, precomputing per-preset advisors and models. Tracing
    /// starts enabled; see [`AdviceService::set_tracing`].
    pub fn new(store: Store, queue_capacity: usize) -> Self {
        let chips: BTreeMap<String, ChipEntry> = PRESET_NAMES
            .iter()
            .map(|&name| {
                let spec = ChipSpec::preset(name).expect("preset names are exhaustive");
                let config = ChipConfig::from_spec(&spec);
                ChipEntry {
                    fingerprint: ResultCache::chip_fingerprint(&config),
                    model: model_for_chip(&config),
                    advisor_spec: spec.advisor().suggest_layout(),
                    spec,
                    config,
                }
            })
            .map(|e| (e.spec.name.clone(), e))
            .collect();
        let sink = Sink::new();
        // Pre-register every counter the Prometheus exposition should
        // show even at zero.
        for name in [
            "serve.requests",
            "serve.advise",
            "serve.cache_tier",
            "serve.advisor_tier",
            "serve.not_found",
            "serve.bad_method",
        ] {
            sink.counter(name);
        }
        store.metrics().set_lock_timing(true);
        AdviceService {
            store,
            chips,
            refine: Arc::new(RefineQueue::new(queue_capacity)),
            trial_pool: OnceLock::new(),
            traces: TraceBuffer::new(TRACE_BUF_TRACES, TRACE_BUF_SPANS),
            lat_cache_us: sink.histogram("serve.latency.cache_tier_us"),
            lat_advisor_us: sink.histogram("serve.latency.advisor_tier_us"),
            queue_wait_us: sink.histogram("refine.queue_wait_us"),
            bad_parse: sink.counter("serve.bad_requests.parse"),
            bad_chip: sink.counter("serve.bad_requests.chip"),
            bad_workload: sink.counter("serve.bad_requests.workload"),
            sink,
        }
    }

    /// Turns request tracing (the `/trace` span buffer) and store
    /// lock-wait timing on or off together. Off restores the overhead
    /// contract of one relaxed load per probe site; the always-on counters
    /// and latency histograms are plain relaxed atomics either way.
    pub fn set_tracing(&self, on: bool) {
        self.traces.set_enabled(on);
        self.store.metrics().set_lock_timing(on);
    }

    /// The request-trace buffer backing `GET /trace`.
    pub fn traces(&self) -> Arc<TraceBuffer> {
        Arc::clone(&self.traces)
    }

    /// The backing store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The background refinement queue.
    pub fn refine_queue(&self) -> Arc<RefineQueue> {
        Arc::clone(&self.refine)
    }

    /// The telemetry sink the service publishes its counters through.
    pub fn sink(&self) -> Arc<Sink> {
        Arc::clone(&self.sink)
    }

    /// Routes one HTTP request to its endpoint (untraced; see
    /// [`AdviceService::handle_request`] for the daemon's full path).
    pub fn handle(&self, method: &str, path: &str, body: &str) -> Response {
        self.handle_request(method, path, body, "", &TraceCtx::disabled(), 0, None)
    }

    /// Routes one HTTP request to its endpoint, carrying the request's
    /// trace context and worker thread id. `path` may include a query
    /// string; `accept` is the `Accept` header value (for `/metrics`
    /// content negotiation); `received_at` is when the request's first
    /// byte arrived, so the per-tier latency histograms cover nearly the
    /// same interval a client's stopwatch does.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_request(
        &self,
        method: &str,
        path: &str,
        body: &str,
        accept: &str,
        ctx: &TraceCtx,
        tid: u32,
        received_at: Option<Instant>,
    ) -> Response {
        self.sink.counter("serve.requests").inc();
        let (route, query) = match path.split_once('?') {
            Some((r, q)) => (r, q),
            None => (path, ""),
        };
        match (method, route) {
            ("POST", "/advise") => self.advise_request(body, ctx, tid, received_at),
            ("GET", "/metrics") => {
                if wants_prometheus(query, accept) {
                    Response::text(self.metrics_prometheus(), "text/plain; version=0.0.4")
                } else {
                    Response::json(self.metrics_json())
                }
            }
            ("GET", "/trace") => {
                let n = query_param(query, "n")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(TRACE_DEFAULT_N);
                Response::json(traces_chrome_trace(&self.traces.recent(n)))
            }
            ("GET", "/healthz") => Response::json(format!(
                r#"{{"status":"ok","entries":{},"shards":{}}}"#,
                self.store.len(),
                self.store.shard_count()
            )),
            ("GET" | "POST", _) => {
                self.sink.counter("serve.not_found").inc();
                Response::error(404, &format!("no such endpoint {route}"))
            }
            _ => {
                self.sink.counter("serve.bad_method").inc();
                Response::error(
                    405,
                    "use POST /advise, GET /metrics, GET /trace, GET /healthz",
                )
            }
        }
    }

    /// The `/advise` endpoint: parse, resolve the tier, answer (untraced;
    /// records the handler-local latency into the per-tier histograms —
    /// the daemon instead records end-to-end latency via
    /// [`AdviceService::record_advise_latency`]).
    pub fn advise(&self, body: &str) -> Response {
        self.advise_request(body, &TraceCtx::disabled(), 0, None)
    }

    /// `/advise` with trace context: records one span per stage into the
    /// request's trace. When `received_at` is `None` (embedded use, no
    /// surrounding connection loop) the handler also records its own
    /// latency into the per-tier histogram; when the daemon supplies the
    /// first-byte arrival time it records the fuller first-byte →
    /// response-written interval itself after the write.
    pub fn advise_request(
        &self,
        body: &str,
        ctx: &TraceCtx,
        tid: u32,
        received_at: Option<Instant>,
    ) -> Response {
        self.sink.counter("serve.advise").inc();
        let t0 = Instant::now();
        let (response, tier) = self.advise_inner(body, ctx, tid);
        if received_at.is_none() {
            let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
            match tier {
                Some(Tier::Cache) => self.lat_cache_us.record(us),
                Some(Tier::Advisor) => self.lat_advisor_us.record(us),
                None => {}
            }
        }
        response
    }

    /// Records one `/advise` answer's end-to-end latency (first byte →
    /// response written, microseconds) into the per-tier histogram. The
    /// daemon calls this after the response write so the histogram's
    /// quantiles are comparable to a client-side stopwatch; the tier is
    /// read back from the answer body.
    pub fn record_advise_latency(&self, response: &Response, us: u64) {
        if response.status != 200 {
            return;
        }
        if response.body.contains(r#""tier":"cache""#) {
            self.lat_cache_us.record(us);
        } else if response.body.contains(r#""tier":"advisor""#) {
            self.lat_advisor_us.record(us);
        }
    }

    fn advise_inner(&self, body: &str, ctx: &TraceCtx, tid: u32) -> (Response, Option<Tier>) {
        let query = match parse_query(body) {
            Ok(q) => q,
            Err(msg) => {
                self.bad_parse.inc();
                log_line(
                    Level::Debug,
                    "advise rejected",
                    &[("class", "\"parse\"".into())],
                );
                return (Response::error(400, &msg), None);
            }
        };
        let Some(chip) = self.chips.get(&query.chip) else {
            self.bad_chip.inc();
            log_line(
                Level::Debug,
                "advise rejected",
                &[("class", "\"chip\"".into())],
            );
            return (
                Response::error(
                    400,
                    &format!("unknown chip {:?}; presets: {PRESET_NAMES:?}", query.chip),
                ),
                None,
            );
        };
        let threads = query.threads.clamp(1, chip.spec.max_threads());
        let Some(workload) = resolve_workload(&query.workload, threads) else {
            self.bad_workload.inc();
            log_line(
                Level::Debug,
                "advise rejected",
                &[("class", "\"workload\"".into())],
            );
            return (
                Response::error(
                    400,
                    &format!(
                        "unknown workload {:?}; labels: {WORKLOAD_NAMES:?}",
                        query.workload
                    ),
                ),
                None,
            );
        };
        let key = query_key(&chip.fingerprint, &workload);

        // Store lookup span, named by its outcome.
        let lookup_start = Instant::now();
        let stored = self.store.get_entry(&key);
        let lookup_us = lookup_start.elapsed().as_secs_f64() * 1e6;
        ctx.record(
            if stored.is_some() {
                "store.hit"
            } else {
                "store.miss"
            },
            tid,
            self.traces.us_of(lookup_start),
            lookup_us,
        );
        let refined = stored.as_ref().is_some_and(|e| {
            e.meta
                .as_ref()
                .is_some_and(|m| m.tag.ends_with(REFINED_SUFFIX))
        });
        let (answer, tier) = if refined {
            self.sink.counter("serve.cache_tier").inc();
            let e = stored.expect("refined implies an entry");
            let answer = AdviseAnswer {
                chip: query.chip.clone(),
                workload: query.workload.clone(),
                threads,
                tier: "cache".into(),
                refined: true,
                layout: e.meta.expect("refined implies meta").spec,
                gbs: e.gbs,
                source: "measured".into(),
                key,
            };
            (answer, Tier::Cache)
        } else {
            self.sink.counter("serve.advisor_tier").inc();
            let predicted;
            {
                let _model_span = ctx.span("advisor.model", tid);
                predicted = surrogate_score(&chip.model, &workload, &chip.advisor_spec);
                if stored.is_none() {
                    // First sight of this query: store the placeholder
                    // unless a racing refinement landed in the meantime.
                    let placeholder = Entry {
                        gbs: predicted,
                        meta: Some(TrialMeta {
                            tag: format!("{}{ADVISOR_SUFFIX}", workload.tag()),
                            chip: chip.fingerprint.clone(),
                            spec: chip.advisor_spec.clone(),
                        }),
                    };
                    self.store
                        .update(&key, |cur| cur.is_none().then_some(placeholder));
                }
            }
            // Pending placeholder either way: make sure refinement is
            // queued (the queue dedupes by key). The enqueue span's id
            // rides on the job so the background refinement parents to it.
            {
                let enq_span = ctx.span("refine.enqueue", tid);
                self.refine.enqueue(
                    RefineJob::new(key.clone(), query.chip.clone(), workload.clone())
                        .traced(ctx.trace_id(), enq_span.id()),
                );
            }
            let answer = AdviseAnswer {
                chip: query.chip.clone(),
                workload: query.workload.clone(),
                threads,
                tier: "advisor".into(),
                refined: false,
                layout: chip.advisor_spec.clone(),
                gbs: predicted,
                source: "model-predicted".into(),
                key,
            };
            (answer, Tier::Advisor)
        };
        (Response::json(to_json_string(&answer)), Some(tier))
    }

    /// Runs one queued refinement job to completion: a `ModelPruned` (or,
    /// when the trial cache can seed it, `TransferSeeded`) autotune over
    /// the chip's offset sweep, then a monotone store upgrade. The trial
    /// cache is threaded through so later jobs on the same chip reuse
    /// simulations and transfer seeds from earlier ones; entries of other
    /// chips never match a key or seed one. The trials run on the
    /// service's pool of two workers, which jobs running side by side
    /// share: a job alone gets both, and together they never simulate more
    /// than two trials at once. Only refiner threads call this — never the
    /// request path.
    pub fn run_refinement(&self, job: &RefineJob, trials: ResultCache) -> ResultCache {
        let wait_us = job.enqueued_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.queue_wait_us.record(wait_us);
        // Rejoin the originating request's trace (no-op when the job was
        // untraced or the trace has been evicted).
        let ctx = self.traces.resume(job.trace_id, job.parent_span);
        let _ambient = ctx.enter();
        let Some(chip) = self.chips.get(&job.chip) else {
            return trials; // chip disappeared — impossible for presets
        };
        let tag = job.workload.tag();
        let strategy = if trials
            .transfer_seed(&tag, &chip.fingerprint, chip.spec.interleave_period())
            .is_some()
        {
            SearchStrategy::transfer_seeded()
        } else {
            SearchStrategy::model_pruned()
        };
        let space = if tag.starts_with("lbm") {
            ParamSpace::lbm_padding_sweep()
        } else {
            ParamSpace::offset_sweep_for(&chip.spec)
        };
        let run_span = ctx.span("refine.run", 0);
        let mut tuner = Tuner::new(job.workload.clone(), chip.config.clone(), space)
            .strategy(strategy)
            .cache(trials)
            .shared_pool(Arc::clone(
                self.trial_pool
                    .get_or_init(|| Arc::new(TaskPool::new(TRIAL_WORKERS))),
            ));
        // The tuner records `tune.run` and its trial spans under refine.run.
        let report = {
            let _tuning = ctx.child_of(run_span.id()).enter();
            tuner.run()
        };
        let upgraded = Entry {
            gbs: report.best.gbs,
            meta: Some(TrialMeta {
                tag: format!("{tag}{REFINED_SUFFIX}"),
                chip: chip.fingerprint.clone(),
                spec: report.best.spec.clone(),
            }),
        };
        let best_gbs = upgraded.gbs;
        // Monotone upgrade: never replace a refined entry with a worse
        // one; always replace an advisor placeholder.
        {
            let _up_span = ctx.child_of(run_span.id()).span("store.upgrade", 0);
            self.store.update(&job.key, |cur| match cur {
                Some(e)
                    if e.gbs >= upgraded.gbs
                        && e.meta
                            .as_ref()
                            .is_some_and(|m| m.tag.ends_with(REFINED_SUFFIX)) =>
                {
                    None
                }
                _ => Some(upgraded),
            });
        }
        drop(run_span);
        self.refine.mark_completed();
        log_line(
            Level::Info,
            "refinement completed",
            &[
                ("key", t2opt_telemetry::logger::json_str(&job.key)),
                ("chip", t2opt_telemetry::logger::json_str(&job.chip)),
                ("gbs", format!("{best_gbs:.3}")),
                ("queue_wait_us", wait_us.to_string()),
            ],
        );
        tuner.into_cache()
    }

    /// Total rejected `/advise` bodies across all rejection classes —
    /// the backward-compatible `bad_requests` JSON field.
    fn bad_requests_total(&self) -> u64 {
        self.bad_parse.get() + self.bad_chip.get() + self.bad_workload.get()
    }

    /// The JSON `/metrics` document: serve counters, refinement queue
    /// state, and the store snapshot. Also publishes store counters into
    /// the telemetry sink. `bad_requests` is the sum of the per-class
    /// rejection counters, so the shape predates the class split.
    pub fn metrics_json(&self) -> String {
        self.store.metrics().publish(&self.sink);
        let counter = |name: &str| self.sink.counter(name).get();
        format!(
            r#"{{"serve":{{"requests":{},"advise":{},"cache_tier":{},"advisor_tier":{},"bad_requests":{}}},"refine":{},"store":{}}}"#,
            counter("serve.requests"),
            counter("serve.advise"),
            counter("serve.cache_tier"),
            counter("serve.advisor_tier"),
            self.bad_requests_total(),
            self.refine.snapshot_json(),
            to_json_string(&self.store.snapshot()),
        )
    }

    /// The Prometheus text-exposition `/metrics` document (format 0.0.4):
    /// every sink counter and histogram, the store's lock-wait histogram,
    /// and the refinement queue gauges. The `serve.bad_requests.*`
    /// counters render as one `serve_bad_requests_total` family labelled
    /// by rejection `class`.
    pub fn metrics_prometheus(&self) -> String {
        self.store.metrics().publish(&self.sink);
        let mut counters = self.sink.counter_values();
        counters.push(("refine.queue_depth".into(), self.refine.depth() as u64));
        counters.push(("refine.enqueued".into(), self.refine.enqueued()));
        counters.push(("refine.completed".into(), self.refine.completed()));
        counters.push(("refine.dropped".into(), self.refine.dropped()));
        let mut histograms = self.sink.histogram_values();
        histograms.push((
            "store.lock_wait_us".into(),
            self.store.metrics().lock_wait(),
        ));
        prometheus_text(&counters, &histograms, &[("serve.bad_requests.", "class")])
    }
}

/// Which answer tier served an `/advise` request (drives the per-tier
/// latency histograms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Cache,
    Advisor,
}

/// `/metrics` content negotiation: an explicit `?format=` wins, then an
/// `Accept` header mentioning `text/plain`; JSON is the default.
fn wants_prometheus(query: &str, accept: &str) -> bool {
    match query_param(query, "format") {
        Some("prometheus") | Some("openmetrics") => true,
        Some(_) => false, // explicit format (e.g. json) wins over Accept
        None => accept.contains("text/plain"),
    }
}

/// The value of `name` in a `k=v&k=v` query string, if present.
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then_some(v)
    })
}

/// The store key for one `(chip, workload)` query. Keyed on the chip's
/// full configuration fingerprint — not its preset name — so an edited
/// custom spec can never alias a preset's stored results. The workload
/// already encodes its thread count and problem size, so distinct thread
/// counts get distinct keys.
pub fn query_key(chip_fingerprint: &str, workload: &Workload) -> String {
    t2opt_store::fnv1a64_hex(to_json_string(&(chip_fingerprint, workload)).as_bytes())
}

/// Maps a workload label to its CI-sized (smoke) workload: serve answers
/// must stay interactive, so refinement simulates the small variants.
pub fn resolve_workload(label: &str, threads: usize) -> Option<Workload> {
    Some(match label {
        "triad" => Workload::triad_smoke(1 << 12, threads),
        "jacobi" => Workload::jacobi_smoke(64, threads),
        "lbm-ijkv" => Workload::lbm_smoke(16, LbmLayout::IJKv, threads),
        "lbm-ivjk" => Workload::lbm_smoke(16, LbmLayout::IvJK, threads),
        "mix" => Workload::StreamMix {
            reads: 2,
            writes: 1,
            n: 1 << 12,
            threads,
            ntimes: 1,
            warmup: false,
        },
        _ => return None,
    })
}

fn parse_query(body: &str) -> Result<AdviseQuery, String> {
    let doc = parse_json(body).map_err(|e| format!("bad JSON body: {e}"))?;
    let obj = doc
        .as_object()
        .ok_or("body must be a JSON object like {\"chip\":…,\"workload\":…,\"threads\":…}")?;
    let field_str = |name: &str, default: &str| -> Result<String, String> {
        match obj.get(name) {
            None => Ok(default.to_string()),
            Some(v) => v
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("field {name:?} must be a string")),
        }
    };
    let threads = match obj.get("threads") {
        None => 16,
        Some(v) => {
            let t = v.as_f64().ok_or("field \"threads\" must be a number")?;
            if !(1.0..=4096.0).contains(&t) || t.fract() != 0.0 {
                return Err(format!(
                    "field \"threads\" must be an integer in [1, 4096], got {t}"
                ));
            }
            t as usize
        }
    };
    Ok(AdviseQuery {
        chip: field_str("chip", PRESET_NAMES[0])?,
        workload: field_str("workload", "triad")?,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2opt_core::json::JsonValue;

    fn service() -> AdviceService {
        AdviceService::new(Store::in_memory(2), 8)
    }

    fn parse_answer(resp: &Response) -> BTreeMap<String, JsonValue> {
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        parse_json(&resp.body).unwrap().as_object().unwrap().clone()
    }

    #[test]
    fn cold_advise_answers_from_advisor_tier_and_queues_refinement() {
        let svc = service();
        let resp = svc.advise(r#"{"chip":"ultrasparc-t2","workload":"triad","threads":32}"#);
        let obj = parse_answer(&resp);
        assert_eq!(obj["tier"].as_str(), Some("advisor"));
        assert_eq!(obj["source"].as_str(), Some("model-predicted"));
        assert!(obj["gbs"].as_f64().unwrap() > 0.0);
        assert_eq!(svc.refine_queue().depth(), 1);
        // Re-asking does not duplicate the pending job, and stays advisor
        // tier until a refiner upgrades the entry.
        let again = svc.advise(r#"{"chip":"ultrasparc-t2","workload":"triad","threads":32}"#);
        assert_eq!(parse_answer(&again)["tier"].as_str(), Some("advisor"));
        assert_eq!(svc.refine_queue().depth(), 1);
    }

    #[test]
    fn refinement_upgrades_the_entry_to_cache_tier() {
        let svc = service();
        let body = r#"{"chip":"budget-2mc","workload":"triad","threads":8}"#;
        svc.advise(body);
        let queue = svc.refine_queue();
        let lease = queue
            .try_pop()
            .expect("advise must have queued a refinement");
        svc.run_refinement(lease.job(), ResultCache::in_memory());
        let obj = parse_answer(&svc.advise(body));
        assert_eq!(obj["tier"].as_str(), Some("cache"));
        assert_eq!(obj["source"].as_str(), Some("measured"));
        assert!(matches!(obj["refined"], JsonValue::Bool(true)));
        assert_eq!(obj["key"].as_str().unwrap().len(), 16);
    }

    #[test]
    fn bad_requests_are_400_and_counted_by_class() {
        let svc = service();
        assert_eq!(svc.advise("{not json").status, 400);
        assert_eq!(svc.advise(r#"{"chip":"z80"}"#).status, 400);
        assert_eq!(svc.advise(r#"{"workload":"sort"}"#).status, 400);
        assert_eq!(svc.advise(r#"{"threads":0}"#).status, 400);
        let counter = |name: &str| svc.sink().counter(name).get();
        assert_eq!(
            counter("serve.bad_requests.parse"),
            2,
            "bad JSON + bad threads"
        );
        assert_eq!(counter("serve.bad_requests.chip"), 1);
        assert_eq!(counter("serve.bad_requests.workload"), 1);
        // The JSON document still reports the backward-compatible sum.
        let doc = parse_json(&svc.metrics_json()).unwrap();
        let serve = doc.as_object().unwrap()["serve"]
            .as_object()
            .unwrap()
            .clone();
        assert_eq!(serve["bad_requests"].as_f64(), Some(4.0));
    }

    #[test]
    fn unknown_endpoints_and_methods_have_their_own_counters() {
        let svc = service();
        assert_eq!(svc.handle("GET", "/nope", "").status, 404);
        assert_eq!(svc.handle("DELETE", "/advise", "").status, 405);
        assert_eq!(svc.sink().counter("serve.not_found").get(), 1);
        assert_eq!(svc.sink().counter("serve.bad_method").get(), 1);
        // Neither counts as a bad /advise body.
        assert_eq!(svc.bad_requests_total(), 0);
    }

    #[test]
    fn metrics_negotiates_prometheus_by_query_or_accept_header() {
        let svc = service();
        let ctx = TraceCtx::disabled();
        let json = svc.handle_request("GET", "/metrics", "", "", &ctx, 0, None);
        assert_eq!(json.content_type, "application/json");
        let by_query =
            svc.handle_request("GET", "/metrics?format=prometheus", "", "", &ctx, 0, None);
        assert_eq!(by_query.content_type, "text/plain; version=0.0.4");
        assert!(by_query
            .body
            .contains("# TYPE serve_requests_total counter"));
        let by_accept = svc.handle_request("GET", "/metrics", "", "text/plain", &ctx, 0, None);
        assert_eq!(by_accept.content_type, "text/plain; version=0.0.4");
        // An explicit format=json beats an Accept header asking for text.
        let explicit = svc.handle_request(
            "GET",
            "/metrics?format=json",
            "",
            "text/plain",
            &ctx,
            0,
            None,
        );
        assert_eq!(explicit.content_type, "application/json");
    }

    #[test]
    fn prometheus_exposition_carries_class_labels_and_histograms() {
        let svc = service();
        svc.advise("{not json");
        svc.advise(r#"{"chip":"z80"}"#);
        svc.advise(r#"{"workload":"triad","threads":8}"#);
        let text = svc.metrics_prometheus();
        assert!(
            text.contains(r#"serve_bad_requests_total{class="parse"} 1"#),
            "missing parse class in:\n{text}"
        );
        assert!(text.contains(r#"serve_bad_requests_total{class="chip"} 1"#));
        assert!(text.contains("# TYPE serve_latency_advisor_tier_us histogram"));
        assert!(
            text.contains("serve_latency_advisor_tier_us_count 1"),
            "advisor answer must land in the advisor-tier histogram:\n{text}"
        );
        assert!(text.contains("# TYPE store_lock_wait_us histogram"));
        assert!(text.contains("refine_enqueued_total 1"));
    }

    #[test]
    fn traced_advise_records_the_cold_miss_span_chain() {
        let svc = service();
        let traces = svc.traces();
        let ctx = traces.start("POST /advise");
        let resp = svc.handle_request(
            "POST",
            "/advise",
            r#"{"chip":"budget-2mc","workload":"triad","threads":8}"#,
            "",
            &ctx,
            3,
            None,
        );
        assert_eq!(resp.status, 200);
        // Run the queued refinement so the late spans join the trace.
        let queue = svc.refine_queue();
        let lease = queue.try_pop().expect("refinement queued");
        let job = lease.job();
        assert_eq!(job.trace_id, ctx.trace_id(), "job carries the trace");
        assert_ne!(job.parent_span, 0, "job parents to the enqueue span");
        let simulated = svc.run_refinement(job, ResultCache::in_memory()).len();
        ctx.finish_root("request", 3);
        let t = &traces.recent(1)[0];
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        for stage in [
            "store.miss",
            "advisor.model",
            "refine.enqueue",
            "refine.run",
            "tune.run",
            "store.upgrade",
            "request",
        ] {
            assert!(names.contains(&stage), "missing {stage} in {names:?}");
        }
        // store.upgrade is a child of refine.run, which parents to the
        // request's refine.enqueue span.
        let span_of = |n: &str| t.spans().iter().find(|s| s.name == n).unwrap();
        assert_eq!(span_of("refine.run").parent_id, job.parent_span);
        assert_eq!(
            span_of("store.upgrade").parent_id,
            span_of("refine.run").span_id
        );
        assert_eq!(span_of("refine.enqueue").span_id, job.parent_span);
        // The tuner's spans continue the chain: refine.run → tune.run →
        // one trial span per simulation (the cache started empty).
        let tune_run = span_of("tune.run");
        assert_eq!(tune_run.parent_id, span_of("refine.run").span_id);
        let trials: Vec<_> = t
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("trial "))
            .collect();
        assert!(simulated > 0);
        assert_eq!(trials.len(), simulated);
        assert!(trials.iter().all(|s| s.parent_id == tune_run.span_id));
        assert_eq!(t.spans_dropped(), 0);
    }

    #[test]
    fn trace_endpoint_returns_chrome_trace_json() {
        let svc = service();
        let traces = svc.traces();
        let ctx = traces.start("POST /advise");
        svc.handle_request(
            "POST",
            "/advise",
            r#"{"workload":"triad"}"#,
            "",
            &ctx,
            0,
            None,
        );
        ctx.finish_root("request", 0);
        let resp = svc.handle("GET", "/trace?n=5", "");
        assert_eq!(resp.status, 200);
        let doc = parse_json(&resp.body).unwrap();
        let events = doc.as_object().unwrap()["traceEvents"].as_array().unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().any(|e| {
            e.as_object()
                .and_then(|o| o.get("name"))
                .and_then(|n| n.as_str())
                == Some("request")
        }));
    }

    #[test]
    fn disabled_tracing_records_no_traces_but_keeps_histograms() {
        let svc = service();
        svc.set_tracing(false);
        let traces = svc.traces();
        let ctx = traces.start("POST /advise");
        svc.handle_request(
            "POST",
            "/advise",
            r#"{"workload":"triad"}"#,
            "",
            &ctx,
            0,
            None,
        );
        ctx.finish_root("request", 0);
        assert!(traces.is_empty(), "disabled tracing must retain nothing");
        let snap = svc
            .sink()
            .histogram("serve.latency.advisor_tier_us")
            .snapshot();
        assert_eq!(snap.count, 1, "latency histograms are always on");
    }

    #[test]
    fn threads_clamp_to_the_chip_capacity() {
        let svc = service();
        let resp = svc.advise(r#"{"chip":"budget-2mc","workload":"triad","threads":4096}"#);
        let obj = parse_answer(&resp);
        let max = ChipSpec::preset("budget-2mc").unwrap().max_threads();
        assert_eq!(obj["threads"].as_f64(), Some(max as f64));
    }

    #[test]
    fn query_keys_are_byte_stable() {
        // Store entries written by earlier daemons are found again only if
        // the JSON of `(fingerprint, workload)` keeps its bytes. The literal
        // was captured before the JSON writer was last rewritten.
        let chip = ChipConfig::from_spec(&ChipSpec::preset("2s-numa").unwrap());
        let fingerprint = ResultCache::chip_fingerprint(&chip);
        let workload = resolve_workload("lbm-ivjk", 32).unwrap();
        assert_eq!(query_key(&fingerprint, &workload), "d48c67b75ac8b80d");
    }

    #[test]
    fn metrics_json_is_parseable_and_counts_tiers() {
        let svc = service();
        svc.advise(r#"{"workload":"triad"}"#);
        let doc = parse_json(&svc.metrics_json()).unwrap();
        let obj = doc.as_object().unwrap();
        let serve = obj["serve"].as_object().unwrap();
        assert_eq!(serve["advisor_tier"].as_f64(), Some(1.0));
        assert!(obj["refine"].as_object().is_some());
        assert!(obj["store"].as_object().unwrap()["shard_occupancy"]
            .as_array()
            .is_some());
    }
}
