//! The search engine: strategies, parallel trial execution, and the
//! [`TuneReport`] with its advisor cross-validation.
//!
//! A [`Tuner`] evaluates candidate [`LayoutSpec`]s from a [`ParamSpace`]
//! against a [`Workload`] by running the memory-system simulator, batching
//! independent trials onto a [`ThreadPool`] (each simulated trial is
//! single-threaded host work, so trials — not simulator internals — are the
//! parallel grain). Results are memoized in a content-addressed
//! [`ResultCache`], checked *before* dispatch: a warm cache re-runs a sweep
//! with zero new simulations. Tuners that run side by side can share one
//! [`TaskPool`] for their trials instead.

use crate::cache::{ResultCache, TrialMeta};
use crate::space::{ParamSpace, N_DIMS};
use crate::workload::Workload;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use t2opt_core::advisor::LayoutAdvisor;
use t2opt_core::layout::LayoutSpec;
use t2opt_kernels::common::place_threads;
use t2opt_parallel::{Placement, PoolMetricsSnapshot, TaskPool, ThreadPool};
use t2opt_sim::{ChipConfig, Simulation};
use t2opt_telemetry::metrics::Sink;
use t2opt_telemetry::trace::TraceCtx;

/// How the tuner walks the parameter space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SearchStrategy {
    /// Measure every candidate of the space. Exact; cost is the product of
    /// the dimension sizes.
    Exhaustive,
    /// Coordinate descent seeded at the in-space candidate nearest to the
    /// analytic [`LayoutAdvisor::suggest_layout`] — the paper's closed-form
    /// optimum — and refined locally. When the model is right this
    /// converges in one round; when the mapping diverges from the model the
    /// descent walks away from the seed and the report's agreement check
    /// flags it.
    AdvisorSeeded {
        /// Upper bound on full rounds over the grid's dimensions.
        max_rounds: usize,
    },
    /// Surrogate pre-filter: the closed-form `t2opt-model` predictor (built
    /// from the *same* simulator configuration the trials run on, see
    /// [`crate::surrogate::model_for_chip`]) scores every candidate of the
    /// grid at zero simulation cost, and only the best `keep_percent` % —
    /// extended to include every candidate tying the cutoff score, so a
    /// flat model plateau is never split arbitrarily — is actually
    /// simulated. On the pinned T2 grids this finds the same winner as
    /// [`SearchStrategy::Exhaustive`] with strictly fewer simulations;
    /// the report's [`Agreement`] section flags the cases where the model
    /// mis-ranks and the pruning would be unsafe.
    ModelPruned {
        /// Percentage (1–100) of the grid to simulate, model-best first.
        keep_percent: u32,
    },
    /// Coordinate descent seeded by the best *cross-kernel* cached layout:
    /// [`crate::cache::ResultCache::transfer_seed`] picks the
    /// relatively-best layout any other workload family measured on this
    /// chip (residue classes mod the chip's interleave period make layouts
    /// transferable), and the descent refines from there. With an empty or
    /// unrelated cache it is the plain cyclic coordinate descent from the
    /// space's origin `[0, 0, 0, 0, 0]`: sweep one dimension at a time
    /// (each sweep is one parallel batch), move to its best value, repeat
    /// until a full round improves nothing or `max_rounds` is reached.
    TransferSeeded {
        /// Upper bound on full rounds over the grid's dimensions.
        max_rounds: usize,
    },
}

impl SearchStrategy {
    /// The default refinement budget used by the convenience constructors.
    pub const DEFAULT_ROUNDS: usize = 4;

    /// The default fraction of the grid the surrogate pre-filter keeps.
    /// Half (plus cutoff ties) is the smallest default that preserves the
    /// exhaustive winner on the pinned T2 grids: simulator micro-effects
    /// (bank conflicts, service jitter) split layouts the closed-form
    /// model scores identically, so the winner can sit one model plateau
    /// below the top and a tighter cut would drop it. It does not hold on
    /// every preset: on `t2-page-interleave` at 64 threads the pruned
    /// search over `offset_sweep_for` answers 0.9744 (jacobi), 0.9825
    /// (triad) and 0.9877 (mix) of the exhaustive best.
    pub const DEFAULT_KEEP_PERCENT: u32 = 50;

    /// Advisor-seeded descent with the default round budget.
    pub fn advisor_seeded() -> Self {
        SearchStrategy::AdvisorSeeded {
            max_rounds: Self::DEFAULT_ROUNDS,
        }
    }

    /// Model-pruned exhaustive search with the default keep fraction.
    pub fn model_pruned() -> Self {
        SearchStrategy::ModelPruned {
            keep_percent: Self::DEFAULT_KEEP_PERCENT,
        }
    }

    /// Cache-transfer-seeded descent with the default round budget.
    pub fn transfer_seeded() -> Self {
        SearchStrategy::TransferSeeded {
            max_rounds: Self::DEFAULT_ROUNDS,
        }
    }
}

/// One measured candidate.
#[derive(Debug, Clone, Serialize)]
pub struct Trial {
    /// The layout that was measured.
    pub spec: LayoutSpec,
    /// Simulated bandwidth (GB/s, kernel-reported bytes).
    pub gbs: f64,
    /// The analytic advisor's predicted controller-utilization efficiency
    /// for the same layout (averaged over threads), in `(0, 1]`.
    pub predicted_efficiency: f64,
    /// Whether the measurement was served from the result cache.
    pub from_cache: bool,
}

/// A trial whose measured and predicted *relative* quality disagree: the
/// analytic model mis-ranks this layout — evidence that the real mapping
/// policy differs from the modelled one.
#[derive(Debug, Clone, Serialize)]
pub struct Divergence {
    /// The layout in question.
    pub spec: LayoutSpec,
    /// Measured bandwidth relative to the sweep's best (in `(0, 1]`).
    pub measured_rel: f64,
    /// Predicted efficiency relative to the sweep's best prediction.
    pub predicted_rel: f64,
}

/// Cross-validation of the analytic model against the measurements.
#[derive(Debug, Clone, Serialize)]
pub struct Agreement {
    /// Spearman rank correlation between predicted efficiency and measured
    /// bandwidth over all trials; `None` when undefined (fewer than two
    /// trials, or a constant side).
    pub spearman: Option<f64>,
    /// Relative-quality gap above which a trial is flagged.
    pub tolerance: f64,
    /// Trials whose measured and predicted relative quality differ by more
    /// than `tolerance`, worst first.
    pub divergences: Vec<Divergence>,
}

/// The outcome of one [`Tuner::run`].
#[derive(Debug, Clone, Serialize)]
pub struct TuneReport {
    /// The tuned workload.
    pub workload: Workload,
    /// The strategy that produced the trials.
    pub strategy: SearchStrategy,
    /// Every distinct candidate measured, best first (ties keep
    /// measurement order, so reports are deterministic).
    pub trials: Vec<Trial>,
    /// The winning trial (`trials[0]`).
    pub best: Trial,
    /// Trial lookups served by the result cache.
    pub cache_hits: u64,
    /// Trial lookups that missed the cache.
    pub cache_misses: u64,
    /// Fresh simulations actually executed (= `cache_misses`; kept separate
    /// so a cache-policy change can't silently skew acceptance checks).
    pub simulations_run: u64,
    /// Advisor cross-validation over the trials.
    pub agreement: Agreement,
}

impl TuneReport {
    /// Speedup of the best layout over the worst measured one — for the
    /// offset sweep this is the paper's Fig. 4 gain.
    pub fn best_over_worst(&self) -> f64 {
        match self.trials.last() {
            Some(worst) if worst.gbs > 0.0 => self.best.gbs / worst.gbs,
            _ => 1.0,
        }
    }

    /// Speedup of the best layout over a given measured candidate, if that
    /// candidate is among the trials.
    pub fn speedup_over(&self, spec: &LayoutSpec) -> Option<f64> {
        self.trials
            .iter()
            .find(|t| &t.spec == spec)
            .map(|t| self.best.gbs / t.gbs)
    }
}

/// Relative-quality gap above which the agreement check flags a trial.
const DIVERGENCE_TOLERANCE: f64 = 0.25;

/// A batch objective over grid points, in groups (see [`descend_impl`]).
type Objective<'a> = dyn FnMut(&[&[[usize; N_DIMS]]]) -> Vec<f64> + 'a;

/// A coordinate descent: grid `dims`, start point, round budget and
/// objective to the final position and value ([`descend_impl`]).
type Descent =
    fn([usize; N_DIMS], [usize; N_DIMS], usize, &mut Objective<'_>) -> ([usize; N_DIMS], f64);

/// Where one [`Tuner::run`] simulates its trials.
enum Trials {
    /// A pool of the run's own.
    Own(ThreadPool),
    /// A pool shared with other tuners ([`Tuner::shared_pool`]).
    Shared(Arc<TaskPool>),
}

impl Trials {
    fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
        match self {
            Trials::Own(pool) => pool.map(items, f),
            Trials::Shared(pool) => pool.map(items, f),
        }
    }

    /// The own pool's counters, if it keeps them.
    fn metrics(&self) -> Option<PoolMetricsSnapshot> {
        match self {
            Trials::Own(pool) => pool.metrics(),
            Trials::Shared(_) => None,
        }
    }
}

/// What one [`Tuner::run`] measures, resolved from its strategy.
enum Walk {
    /// One parallel batch of grid points, in the given order.
    Batch(Vec<[usize; N_DIMS]>),
    /// Coordinate descent from `start` (see [`descend_impl`]).
    Descent {
        start: [usize; N_DIMS],
        max_rounds: usize,
    },
}

/// The empirical layout autotuner; see the module docs.
pub struct Tuner {
    workload: Workload,
    chip: ChipConfig,
    space: ParamSpace,
    strategy: SearchStrategy,
    cache: ResultCache,
    pool_threads: usize,
    shared_pool: Option<Arc<TaskPool>>,
    sink: Option<Arc<Sink>>,
}

impl Tuner {
    /// A tuner over `space` for `workload` on `chip`, with the exhaustive
    /// strategy, an in-memory cache, and one trial-runner thread per host
    /// CPU. The advisor used for cross-validation is derived from the
    /// chip's mapping policy.
    pub fn new(workload: Workload, chip: ChipConfig, space: ParamSpace) -> Self {
        let host = std::thread::available_parallelism().map_or(4, |n| n.get());
        Tuner {
            workload,
            chip,
            space,
            strategy: SearchStrategy::Exhaustive,
            cache: ResultCache::in_memory(),
            pool_threads: host,
            shared_pool: None,
            sink: None,
        }
    }

    /// Attaches a telemetry sink: cache traffic and pool activity become
    /// `autotune.*` counters, added once per [`Tuner::run`]. Spans do not
    /// go through the sink: `run` records them into the thread's entered
    /// [`TraceCtx`].
    pub fn telemetry(mut self, sink: Arc<Sink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Selects the search strategy.
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the result cache (e.g. with a file-backed one).
    pub fn cache(mut self, cache: ResultCache) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the host thread-pool size used to run trials.
    pub fn pool_threads(mut self, n: usize) -> Self {
        self.pool_threads = n.max(1);
        self
    }

    /// Runs trials on `pool`, which other tuners may share, instead of on
    /// a pool of [`Tuner::pool_threads`] workers of each run's own. Tuners
    /// running side by side then never run more trials at once than the
    /// pool has workers, and one running alone gets them all. Which trials
    /// run, and what they measure, does not change. The pool counters of
    /// [`Tuner::telemetry`] cover only a run's own pool.
    pub fn shared_pool(mut self, pool: Arc<TaskPool>) -> Self {
        self.shared_pool = Some(pool);
        self
    }

    /// The current result cache (hit/miss counters reflect the last run).
    pub fn cache_ref(&self) -> &ResultCache {
        &self.cache
    }

    /// Consumes the tuner, returning its cache (e.g. to save it).
    pub fn into_cache(self) -> ResultCache {
        self.cache
    }

    /// The advisor matching the chip's mapping policy and socket topology.
    pub fn advisor(&self) -> LayoutAdvisor {
        LayoutAdvisor::new(self.chip.map).with_numa(self.chip.numa, self.chip.mem.read_service)
    }

    /// Runs the configured search and returns the report. Counters in the
    /// report cover this invocation only; the cache itself persists across
    /// invocations, so a second run over the same space performs zero new
    /// simulations.
    ///
    /// When the calling thread has entered a [`TraceCtx`], the run records
    /// a `tune.run` span into it and, under that, one span per simulated
    /// trial (cache hits get none).
    ///
    /// # Panics
    /// Panics if the space is empty or the workload does not fit the chip.
    pub fn run(&mut self) -> TuneReport {
        self.run_with(descend_impl)
    }

    /// [`Tuner::run`] with the descent the descending strategies walk.
    fn run_with(&mut self, descend: Descent) -> TuneReport {
        assert!(
            !self.space.is_empty(),
            "parameter space has an empty dimension"
        );
        self.workload.validate(&self.chip);
        self.cache.reset_counters();

        let ctx = TraceCtx::current();
        let run_span = ctx.span("tune.run", 0);
        let trial_ctx = ctx.child_of(run_span.id());
        let pool = match &self.shared_pool {
            Some(pool) => Trials::Shared(Arc::clone(pool)),
            None if self.sink.is_some() => Trials::Own(ThreadPool::instrumented(self.pool_threads)),
            None => Trials::Own(ThreadPool::new(self.pool_threads)),
        };
        let mut trials: Vec<Trial> = Vec::new();
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        let mut simulations_run = 0u64;

        // Resolve what the strategy walks before the walk borrows `self`
        // for its objective closure.
        let mut transfer_seed_used = false;
        let walk = match self.strategy {
            SearchStrategy::Exhaustive => Walk::Batch(self.space.indices().collect()),
            SearchStrategy::ModelPruned { keep_percent } => {
                Walk::Batch(self.model_pruned_candidates(keep_percent))
            }
            SearchStrategy::AdvisorSeeded { max_rounds } => Walk::Descent {
                start: self.space.nearest_index(&self.advisor().suggest_layout()),
                max_rounds,
            },
            SearchStrategy::TransferSeeded { max_rounds } => {
                let fingerprint = ResultCache::chip_fingerprint(&self.chip);
                let period = self.chip.interleave_period();
                let seed = self
                    .cache
                    .transfer_seed(&self.workload.tag(), &fingerprint, period)
                    .map(|spec| self.space.nearest_index(&spec));
                transfer_seed_used = seed.is_some();
                Walk::Descent {
                    start: seed.unwrap_or([0; N_DIMS]),
                    max_rounds,
                }
            }
        };

        let dims = self.space.dims();
        let mut eval = |groups: &[&[[usize; N_DIMS]]]| {
            self.measure(
                groups,
                &pool,
                &mut trials,
                &mut seen,
                &mut simulations_run,
                &trial_ctx,
            )
        };
        match walk {
            Walk::Batch(batch) => {
                eval(&[&batch]);
            }
            Walk::Descent { start, max_rounds } => {
                descend(dims, start, max_rounds, &mut eval);
            }
        }

        // Rank best-first; ties keep measurement order (stable sort), so a
        // fixed configuration always yields the identical report.
        trials.sort_by(|a, b| b.gbs.partial_cmp(&a.gbs).expect("bandwidth is finite"));
        let best = trials
            .first()
            .expect("non-empty space yields trials")
            .clone();
        let agreement = agreement_check(&trials);

        // Persistence is best effort — a read-only cache location must not
        // fail the tuning run — but not silent.
        if let Err(e) = self.cache.save() {
            eprintln!("t2opt-autotune: warning: could not persist result cache: {e}");
        }

        if let Some(sink) = &self.sink {
            sink.counter("autotune.cache_hits").add(self.cache.hits());
            sink.counter("autotune.cache_misses")
                .add(self.cache.misses());
            sink.counter("autotune.simulations_run")
                .add(simulations_run);
            if transfer_seed_used {
                sink.counter("autotune.transfer_seed_used").add(1);
            }
            if let Some(m) = pool.metrics() {
                sink.counter("autotune.pool_jobs").add(m.jobs);
                sink.counter("autotune.pool_busy_ns")
                    .add(m.worker_busy_ns.iter().sum());
                // A sum and its count, not their ratio: both add up across
                // runs sharing the sink.
                sink.counter("autotune.pool_queue_latency_sum_ns")
                    .add(m.queue_latency_ns.sum);
                sink.counter("autotune.pool_pickups")
                    .add(m.queue_latency_ns.count);
            }
        }

        TuneReport {
            workload: self.workload.clone(),
            strategy: self.strategy,
            best,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            simulations_run,
            agreement,
            trials,
        }
    }

    /// Ranks the whole grid with the analytic surrogate and returns the
    /// model-best `keep_percent` % of candidates, extended across ties at
    /// the cutoff score (the model's efficiency statistic plateaus at 1.0
    /// for every fully spread layout, and splitting such a plateau would
    /// make the kept set — and possibly the winner — depend on grid
    /// enumeration order). Costs zero simulations.
    fn model_pruned_candidates(&self, keep_percent: u32) -> Vec<[usize; N_DIMS]> {
        let keep_percent = keep_percent.clamp(1, 100) as usize;
        let model = crate::surrogate::model_for_chip(&self.chip);
        let mut scored: Vec<([usize; N_DIMS], f64)> = self
            .space
            .indices()
            .map(|idx| {
                let spec = self.space.spec_at(idx);
                let gbs = crate::surrogate::surrogate_score(&model, &self.workload, &spec);
                (idx, gbs)
            })
            .collect();
        // Model-best first; equal scores keep row-major order so the kept
        // set is deterministic.
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("model scores are finite")
                .then(a.0.cmp(&b.0))
        });
        let keep = (scored.len() * keep_percent).div_ceil(100).max(1);
        let cutoff = scored[keep - 1].1;
        let mut kept: Vec<[usize; N_DIMS]> = scored
            .iter()
            .take_while(|(_, gbs)| *gbs >= cutoff)
            .map(|(idx, _)| *idx)
            .collect();
        // Evaluate the survivors in row-major order — the same relative
        // order the exhaustive walk uses — so measured-bandwidth ties break
        // identically and pruning never flips the reported winner.
        kept.sort();
        kept
    }

    /// Measures the candidates of `groups` (cache first, then one parallel
    /// batch for the misses of every group), records fresh distinct trials,
    /// and returns each candidate's bandwidth in input order, group after
    /// group. Trials are recorded group by group, each group's cache hits
    /// before its misses: the order one call per group would record.
    fn measure(
        &mut self,
        groups: &[&[[usize; N_DIMS]]],
        pool: &Trials,
        trials: &mut Vec<Trial>,
        seen: &mut BTreeMap<String, usize>,
        simulations_run: &mut u64,
        trial_ctx: &TraceCtx,
    ) -> Vec<f64> {
        let advisor = self.advisor();
        let specs: Vec<LayoutSpec> = groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|&i| self.space.spec_at(i))
            .collect();
        let keys: Vec<String> = specs
            .iter()
            .map(|s| ResultCache::key(&self.workload, &self.chip, s))
            .collect();

        // Cache pass. Candidates repeated within one call (distinct grid
        // points can normalize to the same spec) or measured by an earlier
        // call are neither re-simulated nor double-counted: only the first
        // occurrence of an unknown key is dispatched. A miss takes its
        // trial slot after its group's hits and is filled in after the
        // batch.
        let mut pending: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        let mut to_run: Vec<usize> = Vec::new();
        let mut first = 0;
        for group in groups {
            let group_misses = to_run.len();
            for i in first..first + group.len() {
                let key = &keys[i];
                if seen.contains_key(key) || pending.contains(key.as_str()) {
                    continue;
                }
                match self.cache.get(key) {
                    Some(gbs) => {
                        seen.insert(key.clone(), trials.len());
                        trials.push(Trial {
                            spec: specs[i].clone(),
                            gbs,
                            predicted_efficiency: self
                                .workload
                                .predicted_efficiency(&advisor, &specs[i]),
                            from_cache: true,
                        });
                    }
                    None => {
                        pending.insert(key.as_str());
                        to_run.push(i);
                    }
                }
            }
            for &i in &to_run[group_misses..] {
                seen.insert(keys[i].clone(), trials.len());
                trials.push(Trial {
                    spec: specs[i].clone(),
                    gbs: f64::NAN,
                    predicted_efficiency: f64::NAN,
                    from_cache: false,
                });
            }
            first += group.len();
        }

        // Parallel batch over the misses, one trial per claim. Simulator
        // programs are built inside the workers (`Program` is not `Send`),
        // and the simulator is deterministic, so the batch result does not
        // depend on worker interleaving.
        if !to_run.is_empty() {
            let workload = &self.workload;
            let chip = &self.chip;
            let n_cores = self.chip.core.n_cores;
            let scatter = Placement::Scatter { n_cores };
            let measured = pool.map(&to_run, |tid, &i| {
                let spec = &specs[i];
                // Named only when recorded: a disabled context allocates nothing.
                let _span = trial_ctx
                    .is_enabled()
                    .then(|| trial_ctx.span(trial_span_name(spec), tid as u32));
                // The candidate's NUMA page placement rides on the layout
                // spec; the engine takes it from the config.
                let mut trial_chip = chip.clone();
                trial_chip.placement = spec.placement;
                let mut sim = Simulation::new(trial_chip);
                if workload.warmup() {
                    sim = sim.measure_after_barrier(0);
                }
                let programs = workload.build_programs(spec);
                let stats = sim.run(place_threads(programs, &scatter, n_cores));
                stats.reported_bandwidth_gbs(chip, workload.reported_bytes())
            });
            *simulations_run += to_run.len() as u64;
            let tag = self.workload.tag();
            let fingerprint = ResultCache::chip_fingerprint(&self.chip);
            for (&i, gbs) in to_run.iter().zip(measured) {
                // Fresh measurements carry transfer meta so later searches
                // of *other* kernels can seed from them.
                self.cache.insert_with_meta(
                    keys[i].clone(),
                    gbs,
                    TrialMeta {
                        tag: tag.clone(),
                        chip: fingerprint.clone(),
                        spec: specs[i].clone(),
                    },
                );
                let trial = &mut trials[seen[&keys[i]]];
                trial.gbs = gbs;
                trial.predicted_efficiency =
                    self.workload.predicted_efficiency(&advisor, &specs[i]);
            }
        }

        keys.iter().map(|key| trials[seen[key]].gbs).collect()
    }
}

/// A trial span's name: every coordinate of the candidate, so no two
/// trials of one space share a name.
fn trial_span_name(spec: &LayoutSpec) -> String {
    format!(
        "trial ba{} sa{} sh{} bo{} {}",
        spec.base_align,
        spec.seg_align,
        spec.shift,
        spec.block_offset,
        spec.placement.label()
    )
}

/// Cyclic coordinate descent over the grid `dims` from `start`, driven by
/// a batch objective (higher is better): sweep one dimension at a time,
/// move to its best value, stop when a full round improves nothing or
/// `max_rounds` is reached. Returns the final position and value.
///
/// The objective takes groups of grid points and returns their values in
/// order. The start is measured with the first line of more than one
/// value, as a group of its own ahead of the line, so both run in one
/// batch; a line of one value holds only the current point and is not
/// measured again. With no such line, or `max_rounds` 0, the start is
/// measured alone.
///
/// A free function over the objective so the descent is unit-testable
/// against synthetic landscapes; [`Tuner::run`] passes a closure that simulates
/// (cache-first) and records trials.
pub(crate) fn descend_impl(
    dims: [usize; N_DIMS],
    start: [usize; N_DIMS],
    max_rounds: usize,
    eval: &mut Objective<'_>,
) -> ([usize; N_DIMS], f64) {
    let mut cur = start;
    let mut cur_gbs = None;
    for _ in 0..max_rounds {
        let mut improved = false;
        for dim in (0..N_DIMS).filter(|&d| dims[d] > 1) {
            let line = line_through(cur, dim, dims[dim]);
            let gbs = match cur_gbs {
                Some(_) => eval(&[&line]),
                None => {
                    let mut values = eval(&[&[cur], &line]);
                    cur_gbs = Some(values.remove(0));
                    values
                }
            };
            let (best_v, best_gbs) = line_argmax(&gbs);
            if best_gbs > cur_gbs.expect("measured with the first line") {
                cur[dim] = best_v;
                cur_gbs = Some(best_gbs);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let cur_gbs = cur_gbs.unwrap_or_else(|| eval(&[&[cur]])[0]);
    (cur, cur_gbs)
}

/// The `n` grid points through `cur` along dimension `dim`.
fn line_through(cur: [usize; N_DIMS], dim: usize, n: usize) -> Vec<[usize; N_DIMS]> {
    (0..n)
        .map(|v| {
            let mut idx = cur;
            idx[dim] = v;
            idx
        })
        .collect()
}

/// Argmax along a line; ties go to the lowest grid value so the walk is
/// deterministic.
fn line_argmax(gbs: &[f64]) -> (usize, f64) {
    let (best_v, &best_gbs) = gbs
        .iter()
        .enumerate()
        .max_by(|(ai, a), (bi, b)| {
            a.partial_cmp(b)
                .expect("bandwidth is finite")
                .then(bi.cmp(ai))
        })
        .expect("dimension is non-empty");
    (best_v, best_gbs)
}

/// Builds the [`Agreement`] section: Spearman rank correlation plus the
/// list of trials whose relative measured and predicted quality diverge.
fn agreement_check(trials: &[Trial]) -> Agreement {
    let measured: Vec<f64> = trials.iter().map(|t| t.gbs).collect();
    let predicted: Vec<f64> = trials.iter().map(|t| t.predicted_efficiency).collect();
    let max_m = measured.iter().cloned().fold(f64::MIN, f64::max);
    let max_p = predicted.iter().cloned().fold(f64::MIN, f64::max);

    let mut divergences: Vec<Divergence> = trials
        .iter()
        .filter_map(|t| {
            let measured_rel = if max_m > 0.0 { t.gbs / max_m } else { 1.0 };
            let predicted_rel = if max_p > 0.0 {
                t.predicted_efficiency / max_p
            } else {
                1.0
            };
            ((measured_rel - predicted_rel).abs() > DIVERGENCE_TOLERANCE).then(|| Divergence {
                spec: t.spec.clone(),
                measured_rel,
                predicted_rel,
            })
        })
        .collect();
    divergences.sort_by(|a, b| {
        let ga = (a.measured_rel - a.predicted_rel).abs();
        let gb = (b.measured_rel - b.predicted_rel).abs();
        gb.partial_cmp(&ga).expect("relative quality is finite")
    });

    Agreement {
        spearman: t2opt_core::corr::spearman(&measured, &predicted),
        tolerance: DIVERGENCE_TOLERANCE,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2opt_telemetry::trace::TraceBuffer;

    fn smoke_tuner(space: ParamSpace) -> Tuner {
        Tuner::new(
            Workload::triad_smoke(1 << 12, 16),
            ChipConfig::ultrasparc_t2(),
            space,
        )
        .pool_threads(4)
    }

    #[test]
    fn exhaustive_covers_the_space_and_ranks_trials() {
        let space = ParamSpace::offset_sweep(128, 512);
        let mut tuner = smoke_tuner(space.clone());
        let report = tuner.run();
        assert_eq!(report.trials.len(), space.len());
        assert_eq!(report.simulations_run, space.len() as u64);
        assert_eq!(report.cache_hits, 0);
        for pair in report.trials.windows(2) {
            assert!(pair[0].gbs >= pair[1].gbs, "trials must be ranked");
        }
        assert_eq!(report.best.spec, report.trials[0].spec);
    }

    #[test]
    fn offset_sweep_beats_the_aliased_baseline() {
        let mut tuner = smoke_tuner(ParamSpace::offset_sweep(128, 512));
        let report = tuner.run();
        // The aliased candidate (block offset 0) convoys all three arrays
        // on one controller; any spread offset must win clearly.
        let aliased = LayoutSpec::new().base_align(8192);
        assert_ne!(report.best.spec.block_offset, 0);
        assert!(
            report.speedup_over(&aliased).unwrap() > 1.5,
            "best must beat the aliased baseline by 1.5x: {report:?}"
        );
    }

    #[test]
    fn warm_cache_reruns_simulate_nothing_and_agree() {
        let mut tuner = smoke_tuner(ParamSpace::offset_sweep(128, 512));
        let cold = tuner.run();
        assert!(cold.simulations_run > 0);
        let warm = tuner.run();
        assert_eq!(warm.simulations_run, 0, "warm rerun must be pure cache");
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_hits, cold.trials.len() as u64);
        assert_eq!(warm.best.spec, cold.best.spec);
        assert_eq!(warm.best.gbs, cold.best.gbs);
        assert!(warm.trials.iter().all(|t| t.from_cache));
    }

    #[test]
    fn model_pruned_matches_exhaustive_with_fewer_simulations() {
        let space = ParamSpace::t2_default();
        let exhaustive = smoke_tuner(space.clone()).run();
        let pruned = smoke_tuner(space.clone())
            .strategy(SearchStrategy::model_pruned())
            .run();
        assert_eq!(
            pruned.best.spec, exhaustive.best.spec,
            "surrogate pruning must preserve the exhaustive winner"
        );
        assert!(
            pruned.simulations_run < exhaustive.simulations_run,
            "pruning must simulate strictly fewer candidates: {} vs {}",
            pruned.simulations_run,
            exhaustive.simulations_run
        );
        assert!(!pruned.trials.is_empty());
    }

    #[test]
    fn model_pruned_keeps_ties_at_the_cutoff() {
        // On the offset sweep most spread layouts tie at model efficiency
        // 1.0, so a 25 % cut extends across the whole plateau — only the
        // strictly worse aliased candidates are dropped.
        let space = ParamSpace::offset_sweep(64, 512);
        let tuner = smoke_tuner(space.clone());
        let kept = tuner.model_pruned_candidates(SearchStrategy::DEFAULT_KEEP_PERCENT);
        assert!(kept.len() < space.len(), "something must be pruned");
        assert!(
            kept.len() > space.len() / 4,
            "tied scores at the cutoff must all be kept: {} of {}",
            kept.len(),
            space.len()
        );
    }

    #[test]
    fn cold_transfer_seeded_descent_measures_fewer_trials_than_exhaustive() {
        let space = ParamSpace::t2_default();
        let mut cd = smoke_tuner(space.clone()).strategy(SearchStrategy::transfer_seeded());
        let report = cd.run();
        assert!(
            report.trials.len() < space.len(),
            "descent must prune the grid: {} of {}",
            report.trials.len(),
            space.len()
        );
        assert!(report.best.gbs > 0.0);
    }

    #[test]
    fn advisor_seeded_finds_a_spread_offset() {
        let mut tuner = smoke_tuner(ParamSpace::offset_sweep(128, 512))
            .strategy(SearchStrategy::advisor_seeded());
        let report = tuner.run();
        assert_ne!(
            report.best.spec.block_offset % 512,
            0,
            "advisor-seeded search must keep a de-aliasing offset"
        );
    }

    #[test]
    fn determinism_across_fresh_tuners() {
        let run = || {
            let mut t = smoke_tuner(ParamSpace::offset_sweep(128, 512));
            let r = t.run();
            (r.best.spec.clone(), r.best.gbs, r.trials.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tuners_sharing_a_pool_report_what_pools_of_their_own_do() {
        // Two searches, each alone on a pool of its own, then both at once
        // on one shared pool of two workers.
        let tuners = || {
            [
                smoke_tuner(ParamSpace::offset_sweep(128, 512)),
                smoke_tuner(ParamSpace::t2_default()).strategy(SearchStrategy::transfer_seeded()),
            ]
        };
        let report = |mut tuner: Tuner| t2opt_core::json::to_json_string(&tuner.run());
        let alone: Vec<String> = tuners().into_iter().map(report).collect();
        let pool = Arc::new(TaskPool::new(2));
        let shared: Vec<String> = std::thread::scope(|s| {
            let runs: Vec<_> = tuners()
                .into_iter()
                .map(|tuner| {
                    let tuner = tuner.shared_pool(Arc::clone(&pool));
                    s.spawn(move || report(tuner))
                })
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        assert_eq!(shared, alone);
    }

    #[test]
    fn telemetry_sink_records_trials_and_cache_traffic() {
        let sink = Sink::new();
        let traces = TraceBuffer::new(2, 16);
        let idle = traces.start("idle");
        // Entered with no parent, so `tune.run` is the root of its trace.
        let ctx = traces.start("tune").child_of(0);
        let mut tuner =
            smoke_tuner(ParamSpace::offset_sweep(128, 512)).telemetry(Arc::clone(&sink));
        let cold = {
            let _entered = ctx.enter();
            tuner.run()
        };
        let spans_of = |id: u64| {
            let recent = traces.recent(2);
            let t = recent.iter().find(|t| t.trace_id == id).expect("retained");
            t.spans().to_vec()
        };
        assert!(spans_of(idle.trace_id()).is_empty(), "never entered");
        let spans = spans_of(ctx.trace_id());
        let run_span = spans
            .iter()
            .find(|s| s.name == "tune.run")
            .unwrap_or_else(|| panic!("run span missing: {spans:?}"));
        assert_ne!(run_span.trace_id, 0, "run span roots a trace");
        assert_eq!(run_span.parent_id, 0, "run span is the trace root");
        let trial_spans: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("trial "))
            .collect();
        assert_eq!(trial_spans.len() as u64, cold.simulations_run);
        // Every trial span parents to the run span within its trace.
        assert!(trial_spans
            .iter()
            .all(|s| s.trace_id == run_span.trace_id && s.parent_id == run_span.span_id));
        let counters: BTreeMap<String, u64> = sink.counter_values().into_iter().collect();
        assert_eq!(counters["autotune.cache_misses"], cold.simulations_run);
        assert_eq!(counters["autotune.cache_hits"], 0);
        assert!(counters["autotune.pool_jobs"] > 0);
        // A warm rerun on a thread with no entered trace adds hits, not
        // misses or spans.
        let warm = tuner.run();
        assert_eq!(warm.simulations_run, 0);
        assert_eq!(spans_of(ctx.trace_id()).len(), spans.len());
        let counters: BTreeMap<String, u64> = sink.counter_values().into_iter().collect();
        assert_eq!(counters["autotune.cache_hits"], cold.trials.len() as u64);
        assert_eq!(counters["autotune.cache_misses"], cold.simulations_run);
    }

    #[test]
    fn pool_latency_counters_add_up_across_runs_on_one_sink() {
        let sink = Sink::new();
        // (latency sum, pickups, jobs) after each of two fresh tuners, so
        // both runs simulate through a pool of their own.
        let mut after = Vec::new();
        for _ in 0..2 {
            let report = smoke_tuner(ParamSpace::offset_sweep(128, 512))
                .telemetry(Arc::clone(&sink))
                .run();
            assert!(report.simulations_run > 0);
            let c: BTreeMap<String, u64> = sink.counter_values().into_iter().collect();
            after.push((
                c["autotune.pool_queue_latency_sum_ns"],
                c["autotune.pool_pickups"],
                c["autotune.pool_jobs"],
            ));
        }
        let ((sum1, n1, _), (sum2, n2, jobs)) = (after[0], after[1]);
        // Each of the 4 workers picks up every job once, in both runs, and
        // both figures keep adding, so the mean over the two runs is
        // sum2 / n2.
        assert_eq!(n2, 4 * jobs);
        assert_eq!(n2, 2 * n1, "pickups add up across runs");
        assert!(sum1 > 0 && sum2 > sum1, "latency adds up across runs");
    }

    #[test]
    fn trial_span_names_cover_every_coordinate() {
        let base = LayoutSpec::new();
        let variants = [
            base.clone().base_align(8192),
            base.clone().seg_align(512),
            base.clone().shift(64),
            base.clone().block_offset(128),
            base.clone()
                .placement(t2opt_core::mapping::PagePlacement::Interleave),
        ];
        let mut names: Vec<String> = variants.iter().map(trial_span_name).collect();
        names.push(trial_span_name(&base));
        let distinct: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "{names:?}");
    }

    #[test]
    fn jacobi_workload_tunes_toward_shifted_rows() {
        // A small Fig. 6 instance: plain contiguous rows of a 64-row grid
        // alias (64 × 512 B rows ≡ 0 mod 512); the advisor-style
        // 512-align + 128-shift candidate must win.
        let space = ParamSpace {
            base_aligns: vec![8192],
            seg_aligns: vec![1, 512],
            shifts: vec![0, 128],
            block_offsets: vec![0],
            placements: vec![t2opt_core::mapping::PagePlacement::FirstTouch],
        };
        let mut tuner = Tuner::new(
            Workload::jacobi_smoke(64, 16),
            ChipConfig::ultrasparc_t2(),
            space,
        )
        .pool_threads(4);
        let report = tuner.run();
        assert_eq!(
            report.best.spec.shift, 128,
            "only the 128 B row shift rotates controllers: {report:?}"
        );
        let plain = LayoutSpec::new().base_align(8192);
        assert!(
            report.speedup_over(&plain).unwrap() > 1.3,
            "shifted rows must clearly beat aliased rows: {report:?}"
        );
    }

    /// A deceptive non-separable 3×3 landscape over (seg_align, shift):
    /// the origin is a local optimum for *both* axis sweeps — every
    /// single-coordinate move from (0, 0) loses — while the global optimum
    /// sits diagonally at (2, 2). Exactly the trap coordinate descent
    /// cannot leave.
    const DECEPTIVE: [[f64; 3]; 3] = [[10.0, 6.0, 7.0], [6.0, 8.0, 9.0], [7.0, 9.0, 20.0]];
    const DECEPTIVE_DIMS: [usize; N_DIMS] = [1, 3, 3, 1, 1];

    fn deceptive_eval(batch: &[[usize; N_DIMS]]) -> Vec<f64> {
        batch.iter().map(|i| DECEPTIVE[i[1]][i[2]]).collect()
    }

    #[test]
    fn coordinate_descent_stalls_on_the_deceptive_landscape() {
        let (pos, val) = descend_impl(DECEPTIVE_DIMS, [0; N_DIMS], 8, &mut |groups| {
            deceptive_eval(&groups.concat())
        });
        assert_eq!(pos, [0; N_DIMS], "every axis sweep from the origin loses");
        assert_eq!(val, 10.0);
    }

    /// The descent before the start joined its first line's batch: the
    /// start alone, then one batch per line. [`descend_impl`] must record
    /// exactly what this one records.
    fn descend_two_batch(
        dims: [usize; N_DIMS],
        start: [usize; N_DIMS],
        max_rounds: usize,
        eval: &mut Objective<'_>,
    ) -> ([usize; N_DIMS], f64) {
        let mut cur = start;
        let mut cur_gbs = eval(&[&[cur]])[0];
        for _ in 0..max_rounds {
            let mut improved = false;
            for dim in 0..N_DIMS {
                let (best_v, best_gbs) = line_argmax(&eval(&[&line_through(cur, dim, dims[dim])]));
                if best_gbs > cur_gbs {
                    cur[dim] = best_v;
                    cur_gbs = best_gbs;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        (cur, cur_gbs)
    }

    /// The groups of every objective call a descent made, in order.
    type Calls = Vec<Vec<Vec<[usize; N_DIMS]>>>;

    /// Every call `descend` makes to the deceptive objective, and its
    /// answer.
    fn deceptive_calls(
        descend: Descent,
        start: [usize; N_DIMS],
        max_rounds: usize,
    ) -> (Calls, ([usize; N_DIMS], f64)) {
        let mut calls = Vec::new();
        let answer = descend(DECEPTIVE_DIMS, start, max_rounds, &mut |groups| {
            calls.push(groups.iter().map(|g| g.to_vec()).collect());
            deceptive_eval(&groups.concat())
        });
        (calls, answer)
    }

    #[test]
    fn the_start_is_measured_with_its_first_line() {
        let start = [0, 1, 2, 0, 0];
        let (calls, _) = deceptive_calls(descend_impl, start, 8);
        // Dimension 0 has one value, so the first line is dimension 1's.
        let line: Vec<[usize; N_DIMS]> = (0..3).map(|v| [0, v, 2, 0, 0]).collect();
        assert_eq!(calls[0], vec![vec![start], line]);
        assert!(calls[1..].iter().all(|c| c.len() == 1 && c[0].len() == 3));
        // No round: the start alone.
        let (calls, answer) = deceptive_calls(descend_impl, start, 0);
        assert_eq!(calls, vec![vec![vec![start]]]);
        assert_eq!(answer, (start, DECEPTIVE[1][2]));
    }

    #[test]
    fn the_descent_visits_what_the_two_batch_descent_visits() {
        // First occurrences, in order: what the tuner records as trials.
        let visited = |calls: &Calls| {
            let mut seen: Vec<[usize; N_DIMS]> = Vec::new();
            for p in calls.iter().flatten().flatten() {
                if !seen.contains(p) {
                    seen.push(*p);
                }
            }
            seen
        };
        for (sa, sh) in (0..3).flat_map(|a| (0..3).map(move |b| (a, b))) {
            for rounds in [1, 2, 8] {
                let start = [0, sa, sh, 0, 0];
                let (calls, answer) = deceptive_calls(descend_impl, start, rounds);
                let (old_calls, old_answer) = deceptive_calls(descend_two_batch, start, rounds);
                assert_eq!(answer, old_answer, "from {start:?}, {rounds} rounds");
                assert_eq!(visited(&calls), visited(&old_calls));
                assert!(calls.len() < old_calls.len());
            }
        }
    }

    /// `tuner` run with `descend` inside a trace of its own: the report as
    /// JSON and the names of its trial spans, sorted (workers finish in
    /// any order).
    fn traced_run(mut tuner: Tuner, descend: Descent) -> (String, Vec<String>) {
        let traces = TraceBuffer::new(1, 64);
        let ctx = traces.start("tune").child_of(0);
        let report = {
            let _entered = ctx.enter();
            tuner.run_with(descend)
        };
        let mut spans: Vec<String> = traces.recent(1)[0]
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("trial "))
            .map(|s| s.name.clone())
            .collect();
        spans.sort();
        (t2opt_core::json::to_json_string(&report), spans)
    }

    /// The bandwidth a test cache holds for the candidate at a row-major
    /// position, if any.
    type CachedValue<'a> = &'a dyn Fn(usize) -> Option<f64>;

    #[test]
    fn one_batch_start_records_what_the_two_batch_descent_records() {
        let chip = ChipConfig::ultrasparc_t2();
        let cases = [
            (
                Workload::triad_smoke(1 << 12, 16),
                ParamSpace::offset_sweep_for(&t2opt_core::chip::ChipSpec::ultrasparc_t2()),
            ),
            (
                Workload::lbm_smoke(16, t2opt_kernels::lbm::LbmLayout::IvJK, 16),
                ParamSpace::lbm_padding_sweep(),
            ),
        ];
        for (workload, space) in cases {
            let tuner = |strategy: SearchStrategy, cache: ResultCache| {
                Tuner::new(workload.clone(), chip.clone(), space.clone())
                    .strategy(strategy)
                    .cache(cache)
                    .pool_threads(2)
            };
            // Every candidate's bandwidth, in row-major order.
            let candidates = space.candidates();
            let exhaustive = tuner(SearchStrategy::Exhaustive, ResultCache::in_memory()).run();
            let gbs: Vec<f64> = candidates
                .iter()
                .map(|c| exhaustive.trials.iter().find(|t| &t.spec == c).unwrap().gbs)
                .collect();
            let cache_of = |keep: CachedValue| {
                let mut cache = ResultCache::in_memory();
                for (i, spec) in candidates.iter().enumerate() {
                    if let Some(v) = keep(i) {
                        cache.insert(ResultCache::key(&workload, &chip, spec), v);
                    }
                }
                cache
            };
            for strategy in [
                SearchStrategy::advisor_seeded(),
                SearchStrategy::transfer_seeded(),
            ] {
                // These caches hold no foreign family, so a transfer-seeded
                // descent starts at the origin.
                let start = match strategy {
                    SearchStrategy::AdvisorSeeded { .. } => {
                        let advisor = tuner(strategy, ResultCache::in_memory()).advisor();
                        space.nearest_index(&advisor.suggest_layout())
                    }
                    _ => [0; N_DIMS],
                };
                let s = space.indices().position(|i| i == start).unwrap();
                // The half-warm caches hold every other candidate. With the
                // start cached, at their own bandwidth; with the start
                // missing, at the start's bandwidth, so its line's hits tie
                // with it exactly and the trial order decides the ranking.
                let caches: [(&str, CachedValue); 4] = [
                    ("cold", &|_| None),
                    ("warm", &|i| Some(gbs[i])),
                    ("half-warm, start cached", &|i| {
                        (i % 2 == s % 2).then_some(gbs[i])
                    }),
                    ("half-warm, start missing", &|i| {
                        (i % 2 != s % 2).then_some(gbs[s])
                    }),
                ];
                for (name, keep) in caches {
                    let case = format!("{} {strategy:?} {name}", workload.tag());
                    let (report, spans) = traced_run(tuner(strategy, cache_of(keep)), descend_impl);
                    let (old_report, old_spans) =
                        traced_run(tuner(strategy, cache_of(keep)), descend_two_batch);
                    assert_eq!(report, old_report, "{case}");
                    assert_eq!(spans, old_spans, "{case}");
                }
            }
        }
    }

    /// A Jacobi space with a *unique* optimum at (shift 64, offset 0) and
    /// the origin placed at offset 64, so a cold descent must move twice
    /// (shift, then offset) and its second round sweeps lines a seeded
    /// start never visits. seg_align is omitted: 512 B rows make it a
    /// no-op, and its exact ties would let path order pick the winner.
    fn jacobi_transfer_space() -> ParamSpace {
        ParamSpace {
            base_aligns: vec![8192],
            seg_aligns: vec![1],
            shifts: vec![0, 64, 128],
            block_offsets: vec![64, 0, 128],
            placements: vec![t2opt_core::mapping::PagePlacement::FirstTouch],
        }
    }

    fn jacobi_transfer_tuner() -> Tuner {
        Tuner::new(
            Workload::jacobi_smoke(64, 16),
            ChipConfig::ultrasparc_t2(),
            jacobi_transfer_space(),
        )
        .pool_threads(4)
        .strategy(SearchStrategy::transfer_seeded())
    }

    #[test]
    fn transfer_seeded_falls_back_to_origin_descent_when_cache_is_cold() {
        let sink = Sink::new();
        let report = jacobi_transfer_tuner().telemetry(Arc::clone(&sink)).run();
        assert!(report.simulations_run > 0);
        let counters: BTreeMap<String, u64> = sink.counter_values().into_iter().collect();
        assert!(
            !counters.contains_key("autotune.transfer_seed_used"),
            "no foreign entries, nothing to transfer: {counters:?}"
        );
    }

    #[test]
    fn transfer_seeded_warm_run_same_winner_fewer_simulations() {
        // Cold: nothing cached, descent starts at the space origin.
        let cold = jacobi_transfer_tuner().run();

        // Warm: a foreign "triad" family already measured the paper's
        // rotating layout as its winner on this chip; the Jacobi search is
        // seeded from it.
        let chip = ChipConfig::ultrasparc_t2();
        let fingerprint = ResultCache::chip_fingerprint(&chip);
        let mut cache = ResultCache::in_memory();
        let winner = LayoutSpec::new().base_align(8192).shift(64);
        for (key, gbs, spec) in [
            ("t0", 16.0, winner.clone()),
            ("t1", 4.0, LayoutSpec::new().base_align(8192)),
        ] {
            cache.insert_with_meta(
                key.into(),
                gbs,
                TrialMeta {
                    tag: "triad".into(),
                    chip: fingerprint.clone(),
                    spec,
                },
            );
        }
        let sink = Sink::new();
        let warm = jacobi_transfer_tuner()
            .cache(cache)
            .telemetry(Arc::clone(&sink))
            .run();

        assert_eq!(
            warm.best.spec, cold.best.spec,
            "transfer changes the path, not the destination"
        );
        assert!(
            warm.simulations_run < cold.simulations_run,
            "warm start must simulate strictly less: {} vs {}",
            warm.simulations_run,
            cold.simulations_run
        );
        let counters: BTreeMap<String, u64> = sink.counter_values().into_iter().collect();
        assert_eq!(counters["autotune.transfer_seed_used"], 1);
        assert_eq!(counters["autotune.simulations_run"], warm.simulations_run);
    }

    #[test]
    fn a_triad_sweep_seeds_a_jacobi_search_through_a_shared_cache() {
        // End to end: an actual triad tuning run populates the cache, and
        // the Jacobi search transfers its winner.
        let chip = ChipConfig::ultrasparc_t2();
        let triad_space = ParamSpace {
            base_aligns: vec![8192],
            seg_aligns: vec![1, 512],
            shifts: vec![0, 128],
            block_offsets: vec![0],
            placements: vec![t2opt_core::mapping::PagePlacement::FirstTouch],
        };
        let mut triad = Tuner::new(
            Workload::triad_smoke(1 << 12, 16),
            chip.clone(),
            triad_space,
        )
        .pool_threads(4);
        triad.run();
        let shared = triad.into_cache();

        let sink = Sink::new();
        let report = jacobi_transfer_tuner()
            .cache(shared)
            .telemetry(Arc::clone(&sink))
            .run();
        let counters: BTreeMap<String, u64> = sink.counter_values().into_iter().collect();
        assert_eq!(
            counters.get("autotune.transfer_seed_used"),
            Some(&1),
            "a populated foreign family must seed the search"
        );
        assert!(report.best.gbs > 0.0);
    }

    #[test]
    fn agreement_flags_misranked_trials() {
        let mk = |gbs: f64, pred: f64| Trial {
            spec: LayoutSpec::new(),
            gbs,
            predicted_efficiency: pred,
            from_cache: false,
        };
        // Model says both are perfect; measurement halves the second one.
        let agr = agreement_check(&[mk(10.0, 1.0), mk(4.0, 1.0)]);
        assert_eq!(agr.divergences.len(), 1);
        assert!((agr.divergences[0].measured_rel - 0.4).abs() < 1e-12);
        // Perfectly proportional trials raise no flags.
        let agr = agreement_check(&[mk(10.0, 1.0), mk(9.0, 0.9)]);
        assert!(agr.divergences.is_empty());
        assert!(agr.spearman.unwrap() > 0.99);
    }
}
