//! The differential-pinning matrices: FIFO, and the engine paths FIFO
//! does not reach.
//!
//! The queue-policy refactor (DESIGN.md §13) moved memory-controller
//! service-time decisions out of the enqueue path and into an arbitration
//! step, with the historical FIFO discipline as the pinned default. The
//! contract is *bitwise* equality: under `PolicyKind::Fifo` every
//! [`SimStats`] field must match the pre-refactor engine exactly, on every
//! registered chip preset, for read-heavy and write-heavy workloads, on
//! both the probe-off and the traced path.
//!
//! This module defines that matrix once, for two consumers:
//!
//! * `examples/policy_golden.rs` regenerates `tests/golden/policy_fifo.json`
//!   (run it only when the matrix itself is *intentionally* extended — the
//!   committed file was captured from the pre-refactor engine and is the
//!   ground truth the refactor is held to);
//! * `tests/policy_differential.rs` re-runs the matrix and compares against
//!   the committed file field by field.
//!
//! The matrix shrinks each preset's L2 to 256 KiB so the 3 × 256 KiB STREAM
//! arrays overflow it and the memory controllers — the refactored layer —
//! see real traffic at a tier-1-friendly problem size. The aliasing lives
//! in the controller mapping, which the cache size does not touch. Two
//! stock-T2 cases (the Fig. 4 layout extremes at 64 threads) cover the
//! unshrunk calibrated machine.
//!
//! The FIFO matrix never reaches the arbitrated controller path, the NUMA
//! presets, or events scheduled far beyond the engine's event-queue ring
//! (DESIGN.md §13). [`run_engine_paths_matrix`] pins those, at the same
//! sizes, against `tests/golden/engine_paths.json`: a capture of the
//! engine as it was before its event queue became a calendar queue, which
//! must pop exactly the old binary heap's order. Its last six cases (NUMA
//! under read-first, four outstanding misses, no gang window) were
//! appended from the engine as it was before its run loop was split into
//! a memory system and a thread table.
//!
//! `SimStats` do not see *when* the engine reports a stall, a NACK or a
//! controller service. [`run_probe_digests`] runs every case of both
//! matrices once more with a probe that folds each hook call and its
//! arguments into one 64-bit value, and pins the result
//! against `tests/golden/probe_digests.json`: a capture of the engine as it
//! was before its FIFO and arbitrated controllers shared one service step.
//!
//! [`run_model_digests`] pins the closed-form side the same way: one
//! 64-bit digest per case of the f64 bits of every [`ModelPrediction`]
//! field and of every advisor [`Prediction`] field, over the layouts the
//! serve path scores and the `model_validate` grids
//! ([`validation_workload`], [`validation_space`]), against
//! `tests/golden/model_predictions.json`: a capture of the advisor and
//! the model as they were while each still walked the mapping period
//! with its own copy of the loop.
//!
//! [`run_program_digests`] pins the tuner's simulator input: one 64-bit
//! digest per case of every op of every thread's
//! [`Workload::build_programs`] output, over the serve workloads and
//! warm, multi-sweep variants that reach the toggled grids, against
//! `tests/golden/workload_programs.json`: a capture of the programs as
//! they were while `Workload` still built them apart from the units the
//! model reads.
//!
//! [`ModelPrediction`]: t2opt_model::ModelPrediction
//! [`Prediction`]: t2opt_core::advisor::Prediction

use std::collections::BTreeMap;
use t2opt_autotune::surrogate::{model_for_chip, validation_space, validation_workload};
use t2opt_autotune::{ParamSpace, Workload};
use t2opt_core::advisor::LayoutAdvisor;
use t2opt_core::chip::{ChipSpec, PRESET_NAMES};
use t2opt_core::json::JsonValue;
use t2opt_core::layout::LayoutSpec;
use t2opt_core::mapping::PagePlacement;
use t2opt_kernels::common::place_threads;
use t2opt_kernels::lbm::LbmLayout;
use t2opt_kernels::stream::{self, StreamConfig, StreamKernel};
use t2opt_kernels::triad::{self, TriadConfig, TriadLayout};
use t2opt_model::PerfModel;
use t2opt_parallel::Placement;
use t2opt_serve::service::{resolve_workload, WORKLOAD_NAMES};
use t2opt_sim::policy::PolicyKind;
use t2opt_sim::telemetry::probe::{SimProbe, StallKind};
use t2opt_sim::telemetry::timeline::TraceConfig;
use t2opt_sim::trace::{Op, Program};
use t2opt_sim::{ChipConfig, SimStats, Simulation, ThreadSpec};

/// Where the committed pre-refactor capture lives, relative to the
/// workspace root.
pub const GOLDEN_PATH: &str = "tests/golden/policy_fifo.json";

/// Where the committed engine-paths capture lives, relative to the
/// workspace root.
pub const ENGINE_PATHS_GOLDEN_PATH: &str = "tests/golden/engine_paths.json";

/// Where the committed probe-stream digests live, relative to the
/// workspace root.
pub const PROBE_DIGESTS_GOLDEN_PATH: &str = "tests/golden/probe_digests.json";

/// Where the committed model-prediction digests live, relative to the
/// workspace root.
pub const MODEL_GOLDEN_PATH: &str = "tests/golden/model_predictions.json";

/// Where the committed workload-program digests live, relative to the
/// workspace root.
pub const PROGRAMS_GOLDEN_PATH: &str = "tests/golden/workload_programs.json";

/// Serialized envelope of one matrix capture.
#[derive(serde::Serialize)]
pub struct GoldenFile {
    /// All matrix cases, in matrix order.
    pub cases: Vec<GoldenCase>,
}

/// One (workload, chip) cell of the matrix.
#[derive(serde::Serialize)]
pub struct GoldenCase {
    /// Stable case name, `<preset>/<workload>`.
    pub name: String,
    /// The statistics the FIFO engine produced for it.
    pub stats: SimStats,
}

/// Serialized envelope of a digest capture (probe streams or model
/// predictions).
#[derive(serde::Serialize)]
pub struct DigestFile {
    /// Every case of the matrix, in matrix order.
    pub cases: Vec<DigestCase>,
}

/// One case's digest.
#[derive(serde::Serialize)]
pub struct DigestCase {
    /// The case name, as in the matrix it comes from.
    pub name: String,
    /// The digest as 16 hex digits: a JSON number could not hold all 64
    /// bits.
    pub digest: String,
}

/// A 64-bit digest of a sequence of words. As a [`SimProbe`] it folds
/// every hook call and its arguments, in call order: two runs agree on it
/// only if the engine reported the same controller services, bank
/// accesses, NACKs, stalls, barrier releases and window resets, with the
/// same cycles, in the same order.
#[derive(Debug, Default)]
struct Digest(u64);

impl Digest {
    /// The digest of every call so far.
    fn digest(&self) -> u64 {
        self.0
    }

    /// Folds one call: a hook tag, then its arguments. Each word passes
    /// through the splitmix64 finalizer, so a change in any bit of any
    /// argument, or in the order of two calls, moves the whole digest.
    fn fold(&mut self, words: &[u64]) {
        for &w in words {
            let mut z = (self.0 ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            self.0 = z ^ (z >> 31);
        }
    }
}

impl SimProbe for Digest {
    fn mc_service(
        &mut self,
        mc: usize,
        at: u64,
        busy_added: u64,
        queue_len: usize,
        is_write: bool,
    ) {
        self.fold(&[
            1,
            mc as u64,
            at,
            busy_added,
            queue_len as u64,
            is_write as u64,
        ]);
    }

    fn bank_access(&mut self, bank: usize, at: u64) {
        self.fold(&[2, bank as u64, at]);
    }

    fn nack(&mut self, at: u64, tid: u32, mc: usize, bank: usize, mc_full: bool) {
        self.fold(&[3, at, tid as u64, mc as u64, bank as u64, mc_full as u64]);
    }

    fn stall(&mut self, tid: u32, kind: StallKind, from: u64, until: u64) {
        self.fold(&[4, tid as u64, kind as u64, from, until]);
    }

    fn barrier_release(&mut self, id: u32, at: u64) {
        self.fold(&[5, id as u64, at]);
    }

    fn window_reset(&mut self, at: u64) {
        self.fold(&[6, at]);
    }
}

/// One matrix case, ready to run: a configured simulation and its threads.
struct Case {
    name: String,
    sim: Simulation,
    threads: Vec<ThreadSpec>,
    /// Collect the statistics through the `Timeline` recorder (the probe
    /// path) instead of the uninstrumented entry point.
    traced: bool,
}

impl Case {
    /// The case's statistics.
    fn stats(self) -> (String, SimStats) {
        let stats = if self.traced {
            let trace = TraceConfig::with_interval(4096);
            self.sim.run_traced(self.threads, &trace).0
        } else {
            self.sim.run(self.threads)
        };
        (self.name, stats)
    }

    /// The digest of the case's probe stream.
    fn probe_digest(self) -> (String, u64) {
        let mut probe = Digest::default();
        self.sim.run_with_probe(self.threads, &mut probe);
        (self.name, probe.digest())
    }
}

/// The preset config with the L2 shrunk to 256 KiB (see module docs).
fn shrunk(preset: &str) -> ChipConfig {
    let mut c = ChipConfig::preset(preset).expect("registry preset resolves");
    c.l2.bytes = 1 << 18;
    c
}

fn scatter(chip: &ChipConfig) -> Placement {
    Placement::Scatter {
        n_cores: chip.core.n_cores,
    }
}

fn is_numa(preset: &str) -> bool {
    ChipSpec::preset(preset)
        .expect("registry preset resolves")
        .sockets
        .is_numa()
}

/// The matrix's thread count on `chip`.
fn matrix_threads(chip: &ChipConfig) -> usize {
    chip.max_threads().min(16)
}

/// One N = 2^15 STREAM run of `kernel` at `offset` words, scattered,
/// measured after the warm-up sweep as `stream::run_sim` does.
fn stream_case(name: String, chip: &ChipConfig, kernel: StreamKernel, offset: usize) -> Case {
    let cfg = StreamConfig::fig2(1 << 15, offset, matrix_threads(chip));
    let programs = stream::build_trace(&cfg, kernel, chip);
    Case {
        name,
        sim: Simulation::new(chip.clone()).measure_after_barrier(0),
        threads: place_threads(programs, &scatter(chip), chip.core.n_cores),
        traced: false,
    }
}

/// The three STREAM regimes of both matrices: read-heavy fully aliased
/// and advisor-spread, plus a write-heavy kernel (north-bound convoy,
/// spread pipelining, south-bound pressure).
const STREAM_CASES: [(&str, StreamKernel, usize); 3] = [
    ("triad-aliased", StreamKernel::Triad, 0),
    ("triad-spread", StreamKernel::Triad, 16),
    ("copy-8", StreamKernel::Copy, 8),
];

/// The FIFO matrix's cases, in matrix order.
fn fifo_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for preset in PRESET_NAMES {
        // The golden file is a *pre-NUMA* capture: it pins the single-socket
        // engine bitwise. NUMA presets are covered by their own suites
        // (`tests/chip_matrix.rs`, the engine-paths matrix below) —
        // including them here would change the committed matrix, not pin it.
        if is_numa(preset) {
            continue;
        }
        let chip = shrunk(preset);
        for (label, kernel, offset) in STREAM_CASES {
            out.push(stream_case(
                format!("{preset}/{label}"),
                &chip,
                kernel,
                offset,
            ));
        }
        // The probe path: a traced run must produce the same statistics.
        out.push(Case {
            traced: true,
            ..stream_case(
                format!("{preset}/triad-aliased-traced"),
                &chip,
                StreamKernel::Triad,
                0,
            )
        });
    }
    // Stock calibrated T2 at full thread count: the Fig. 4 layout extremes,
    // measured after the warm-up sweep as `triad::run_sim` does.
    let chip = ChipConfig::ultrasparc_t2();
    for (label, layout) in [
        ("align8k", TriadLayout::Align8k),
        ("offset128", TriadLayout::AlignOffset(128)),
    ] {
        let cfg = TriadConfig {
            n: 1 << 14,
            layout,
            threads: 64,
            ntimes: 1,
        };
        let programs = triad::build_trace(&cfg, &chip);
        out.push(Case {
            name: format!("t2-stock/triad64-{label}"),
            sim: Simulation::new(chip.clone()).measure_after_barrier(0),
            threads: place_threads(programs, &Placement::t2_scatter(), chip.core.n_cores),
            traced: false,
        });
    }
    out
}

/// Runs the full matrix and returns `(name, stats)` per case.
pub fn run_matrix() -> Vec<(String, SimStats)> {
    fifo_cases().into_iter().map(Case::stats).collect()
}

/// Delays the overflow case's rounds open with, in cycles. Each lies far
/// beyond the engine's event-queue ring, and they grow so that every
/// round's wake-ups sit past everything scheduled before them.
const OVERFLOW_DELAYS: [u32; 4] = [5_000, 20_000, 70_000, 150_000];

/// Programs whose events overflow the engine's event-queue ring and then
/// meet same-tick events pushed inside it.
///
/// Every round starts with all threads at one tick (tick 0, then each
/// barrier release). Even threads then delay by `d`; odd threads by `d - 1`
/// and then by 1. So at tick `release + d` the even threads' wake-ups
/// arrive from the overflow store while the odd threads' are pushed
/// straight into the ring, and the even ones must still pop first: they
/// were scheduled first. Then every thread issues a burst of misses. The
/// threads are not interchangeable — bursts differ in length, stream
/// offset and store mix, and each core (`tid / 4`) hosts both parities —
/// so the pop order decides which thread gets a memory pipe, a queue slot
/// or a controller's next jitter draw first, and that shows in the
/// statistics. Each round's lines fall into the sets of the rounds before
/// it (256 KiB apart, on the shrunk L2), so from the second round on they
/// evict dirty lines and the write-backs give the arbitrated policies
/// something to reorder.
fn delay_overflow_programs(threads: usize) -> Vec<Program> {
    (0..threads as u64)
        .map(|t| {
            let base = t * (1 << 20) + (t % 4) * 128;
            let burst = 24 + 4 * (t % 5);
            let mut ops = Vec::new();
            for (round, &d) in OVERFLOW_DELAYS.iter().enumerate() {
                if t % 2 == 0 {
                    ops.push(Op::Delay(d));
                } else {
                    ops.extend([Op::Delay(d - 1), Op::Delay(1)]);
                }
                for i in 0..burst {
                    let addr = base + round as u64 * (1 << 18) + i * 64;
                    ops.push(if (i + t) % 4 == 3 {
                        Op::Write(addr)
                    } else {
                        Op::Read(addr)
                    });
                }
                ops.push(Op::Barrier(round as u32));
            }
            Box::new(ops.into_iter()) as Program
        })
        .collect()
}

/// The engine-paths matrix's cases, in matrix order:
///
/// * `read-first` on every single-socket preset × the three STREAM
///   regimes — the arbitrated controller path and its events;
/// * `2s-numa` and `4s-numa-wide` under every page placement — the NUMA
///   remap and the inter-socket link;
/// * the overflow case ([`delay_overflow_programs`]) on the shrunk T2,
///   under FIFO and `read-first`;
/// * configurations callers run that the cases above miss: both NUMA
///   presets under `read-first` with interleaved pages (`policy_convoy`
///   runs every preset under both policies), and the shrunk T2 with four
///   outstanding misses or no gang window (the ablations), under FIFO and
///   `read-first`.
fn engine_paths_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for preset in PRESET_NAMES.into_iter().filter(|p| !is_numa(p)) {
        let mut chip = shrunk(preset);
        chip.policy = PolicyKind::parse("read-first").expect("registered policy");
        for (label, kernel, offset) in STREAM_CASES {
            out.push(stream_case(
                format!("{preset}/read-first/{label}"),
                &chip,
                kernel,
                offset,
            ));
        }
    }
    for preset in PRESET_NAMES.into_iter().filter(|p| is_numa(p)) {
        for placement in PagePlacement::ALL {
            let mut chip = shrunk(preset);
            chip.placement = placement;
            out.push(stream_case(
                format!("{preset}/{}/triad-aliased", placement.label()),
                &chip,
                StreamKernel::Triad,
                0,
            ));
        }
    }
    for policy in ["fifo", "read-first"] {
        let mut chip = shrunk("ultrasparc-t2");
        chip.policy = PolicyKind::parse(policy).expect("registered policy");
        let threads = delay_overflow_programs(16)
            .into_iter()
            .enumerate()
            .map(|(t, program)| ThreadSpec::new(t / 4, program))
            .collect();
        out.push(Case {
            name: format!("ultrasparc-t2/{policy}/delay-overflow"),
            sim: Simulation::new(chip),
            threads,
            traced: false,
        });
    }
    for preset in PRESET_NAMES.into_iter().filter(|p| is_numa(p)) {
        let mut chip = shrunk(preset);
        chip.policy = PolicyKind::parse("read-first").expect("registered policy");
        chip.placement = PagePlacement::Interleave;
        out.push(stream_case(
            format!("{preset}/read-first/interleave/triad-aliased"),
            &chip,
            StreamKernel::Triad,
            0,
        ));
    }
    for policy in ["fifo", "read-first"] {
        let mut chip = shrunk("ultrasparc-t2");
        chip.policy = PolicyKind::parse(policy).expect("registered policy");
        let mut overlapped = chip.clone();
        overlapped.core.outstanding_misses = 4;
        out.push(stream_case(
            format!("ultrasparc-t2/{policy}/outstanding-4/triad-spread"),
            &overlapped,
            StreamKernel::Triad,
            16,
        ));
        let mut ungated = chip;
        ungated.core.gang_window = None;
        out.push(stream_case(
            format!("ultrasparc-t2/{policy}/no-gang-window/triad-aliased"),
            &ungated,
            StreamKernel::Triad,
            0,
        ));
    }
    out
}

/// Runs the engine-paths matrix and returns `(name, stats)` per case.
pub fn run_engine_paths_matrix() -> Vec<(String, SimStats)> {
    engine_paths_cases().into_iter().map(Case::stats).collect()
}

/// Runs every case of both matrices with a probe `Digest` and returns
/// `(name, digest)` per case, FIFO matrix first.
pub fn run_probe_digests() -> Vec<(String, u64)> {
    fifo_cases()
        .into_iter()
        .chain(engine_paths_cases())
        .map(Case::probe_digest)
        .collect()
}

/// Thread counts the model matrix asks the serve path for, before the
/// per-chip clamp.
const SERVE_THREADS: [usize; 4] = [8, 16, 32, 64];

/// A candidate's name: every coordinate of the layout.
fn layout_label(spec: &LayoutSpec) -> String {
    format!(
        "ba{} sa{} sh{} bo{} {}",
        spec.base_align,
        spec.seg_align,
        spec.shift,
        spec.block_offset,
        spec.placement.label()
    )
}

/// The digest of everything the closed form says about `workload` under
/// `layout`: every field of the model's placed prediction, then every
/// field of the advisor's prediction for each lockstep unit, then the
/// advisor's locality factor for the placement.
fn model_digest(
    model: &PerfModel,
    advisor: &LayoutAdvisor,
    workload: &Workload,
    layout: &LayoutSpec,
) -> u64 {
    let shape = workload.model_shape(layout);
    let p = model.predict_placed(&shape, layout.placement);
    let mut d = Digest::default();
    d.fold(&[
        p.gbs.to_bits(),
        p.cycles.to_bits(),
        p.time_secs.to_bits(),
        p.efficiency.to_bits(),
        p.bound as u64,
        p.concurrent_controllers.to_bits(),
    ]);
    for unit in &shape.units {
        let a = advisor.predict(&unit.streams);
        d.fold(&[
            a.efficiency.to_bits(),
            a.bound as u64,
            a.concurrent_controllers.to_bits(),
        ]);
        d.fold(&a.controller_load);
    }
    d.fold(&[advisor.locality_factor(layout.placement).to_bits()]);
    d.digest()
}

/// The serve cases of the model matrix for one preset, as
/// `(name, workload, layout)` in matrix order: every serve workload label
/// × 8/16/32/64 threads (clamped to the chip, duplicates dropped), each
/// built as the serve path builds it, at the advisor's layout and at
/// every candidate of the space its refinement searches. Names read
/// `<label>/t<threads>/<layout>`.
pub fn serve_cases(spec: &ChipSpec) -> Vec<(String, Workload, LayoutSpec)> {
    let advisor_layout = spec.advisor().suggest_layout();
    let mut threads = SERVE_THREADS
        .map(|t| t.clamp(1, spec.max_threads()))
        .to_vec();
    threads.dedup();
    let mut out = Vec::new();
    for label in WORKLOAD_NAMES {
        for &t in &threads {
            let workload = resolve_workload(label, t).expect("serve labels resolve");
            let space = if workload.tag().starts_with("lbm") {
                ParamSpace::lbm_padding_sweep()
            } else {
                ParamSpace::offset_sweep_for(spec)
            };
            let mut layouts = vec![("advisor".to_string(), advisor_layout.clone())];
            layouts.extend(
                space
                    .candidates()
                    .into_iter()
                    .map(|l| (layout_label(&l), l)),
            );
            for (tag, layout) in layouts {
                out.push((format!("{label}/t{t}/{tag}"), workload.clone(), layout));
            }
        }
    }
    out
}

/// Runs the model matrix and returns `(name, digest)` per case, in order:
///
/// * every preset's [`serve_cases`];
/// * every preset's `model_validate` grid ([`validation_space`] over
///   [`validation_workload`]).
///
/// The model is the surrogate the tuner and the serve path use
/// ([`model_for_chip`]); the advisor is the chip's own
/// ([`ChipSpec::advisor`]).
pub fn run_model_digests() -> Vec<(String, u64)> {
    let chips = PRESET_NAMES.map(|p| ChipSpec::preset(p).expect("registry preset resolves"));
    let mut out = Vec::new();
    for spec in &chips {
        let model = model_for_chip(&ChipConfig::from_spec(spec));
        let advisor = spec.advisor();
        for (name, workload, layout) in serve_cases(spec) {
            let digest = model_digest(&model, &advisor, &workload, &layout);
            out.push((format!("{}/{name}", spec.name), digest));
        }
    }
    for spec in &chips {
        let model = model_for_chip(&ChipConfig::from_spec(spec));
        let advisor = spec.advisor();
        let workload = validation_workload(spec);
        for layout in validation_space(spec).candidates() {
            let digest = model_digest(&model, &advisor, &workload, &layout);
            out.push((
                format!("{}/validate/{}", spec.name, layout_label(&layout)),
                digest,
            ));
        }
    }
    out
}

/// The digest of every op `workload` hands the simulator under `layout`:
/// each thread's index, then every op of its program as a tag and its
/// operand.
fn program_digest(workload: &Workload, layout: &LayoutSpec) -> u64 {
    let mut d = Digest::default();
    for (t, program) in workload.build_programs(layout).into_iter().enumerate() {
        d.fold(&[t as u64]);
        for op in program {
            d.fold(&match op {
                Op::Read(addr) => [1, addr],
                Op::Write(addr) => [2, addr],
                Op::Compute(flops) => [3, u64::from(flops)],
                Op::Delay(cycles) => [4, u64::from(cycles)],
                Op::Barrier(id) => [5, u64::from(id)],
            });
        }
    }
    d.digest()
}

/// Runs the programs matrix and returns `(name, digest)` per case, in
/// order: every workload below under the packed layout, the T2 advisor's
/// layout, and a shifted, padded layout.
///
/// * every serve workload label at 8, 16 and 64 threads, built as the
///   serve path builds it ([`resolve_workload`]);
/// * at 5 and 7 threads, the warm constructors ([`Workload::triad`],
///   [`Workload::jacobi`], [`Workload::lbm`] in both layouts) and
///   multi-sweep variants whose odd sweeps read the second toggle grid.
pub fn run_program_digests() -> Vec<(String, u64)> {
    let layouts = [
        ("packed", LayoutSpec::new()),
        ("advisor", LayoutAdvisor::t2().suggest_layout()),
        (
            "shifted",
            LayoutSpec::new()
                .base_align(8192)
                .seg_align(512)
                .shift(128)
                .block_offset(64),
        ),
    ];
    let mut workloads = Vec::new();
    for label in WORKLOAD_NAMES {
        for t in [8, 16, 64] {
            let workload = resolve_workload(label, t).expect("serve labels resolve");
            workloads.push((format!("{label}/t{t}"), workload));
        }
    }
    for threads in [5, 7] {
        for (label, workload) in [
            ("triad-warm", Workload::triad(1000, threads)),
            ("jacobi-warm", Workload::jacobi(20, threads)),
            ("lbm-ijkv-warm", Workload::lbm(6, LbmLayout::IJKv, threads)),
            ("lbm-ivjk-warm", Workload::lbm(6, LbmLayout::IvJK, threads)),
            (
                "mix-x2-warm",
                Workload::StreamMix {
                    reads: 3,
                    writes: 2,
                    n: 1000,
                    threads,
                    ntimes: 2,
                    warmup: true,
                },
            ),
            (
                "jacobi-x3-warm",
                Workload::Jacobi {
                    dim: 21,
                    threads,
                    ntimes: 3,
                    warmup: true,
                },
            ),
            (
                "lbm-ivjk-x2",
                Workload::Lbm {
                    n: 6,
                    layout: LbmLayout::IvJK,
                    threads,
                    y_rows: 4,
                    ntimes: 2,
                    warmup: false,
                },
            ),
        ] {
            workloads.push((format!("{label}/t{threads}"), workload));
        }
    }
    let mut out = Vec::new();
    for (name, workload) in &workloads {
        for (tag, layout) in &layouts {
            out.push((format!("{name}/{tag}"), program_digest(workload, layout)));
        }
    }
    out
}

fn field_u64(obj: &JsonValue, key: &str) -> u64 {
    obj.as_object()
        .and_then(|o| o.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("golden stats missing u64 field {key:?}")) as u64
}

fn field_vec(obj: &JsonValue, key: &str) -> Vec<u64> {
    obj.as_object()
        .and_then(|o| o.get(key))
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("golden stats missing array field {key:?}"))
        .iter()
        .map(|v| v.as_f64().expect("numeric array element") as u64)
        .collect()
}

/// Reconstructs a [`SimStats`] from its golden JSON object. Every field is
/// named explicitly: if `SimStats` grows a counter, this fails to reflect
/// it and the differential test's `PartialEq` flags the drift instead of
/// silently defaulting it.
pub fn stats_from_json(v: &JsonValue) -> SimStats {
    SimStats {
        start_cycle: field_u64(v, "start_cycle"),
        end_cycle: field_u64(v, "end_cycle"),
        mc_read_bytes: field_vec(v, "mc_read_bytes"),
        mc_write_bytes: field_vec(v, "mc_write_bytes"),
        mc_busy_cycles: field_vec(v, "mc_busy_cycles"),
        l2_hits: field_u64(v, "l2_hits"),
        l2_misses: field_u64(v, "l2_misses"),
        l2_writebacks: field_u64(v, "l2_writebacks"),
        bank_accesses: field_vec(v, "bank_accesses"),
        mem_ops: field_u64(v, "mem_ops"),
        nacks: field_u64(v, "nacks"),
        flops: field_u64(v, "flops"),
    }
}

/// Loads a committed capture's cases as `(name, value)` pairs, `value`
/// read from each case object by `read`.
fn load_cases<T>(
    path: &std::path::Path,
    read: impl Fn(&BTreeMap<String, JsonValue>) -> T,
) -> Vec<(String, T)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()));
    let doc = t2opt_core::json::parse_json(&text).expect("golden file parses");
    let cases = doc
        .as_object()
        .and_then(|o| o.get("cases"))
        .and_then(JsonValue::as_array)
        .expect("golden file has a cases array");
    cases
        .iter()
        .map(|c| {
            let obj = c.as_object().expect("case is an object");
            let name = obj
                .get("name")
                .and_then(JsonValue::as_str)
                .expect("case has a name")
                .to_string();
            (name, read(obj))
        })
        .collect()
}

/// Loads the committed golden file as `(name, stats)` pairs.
pub fn load_golden(path: &std::path::Path) -> Vec<(String, SimStats)> {
    load_cases(path, |obj| {
        stats_from_json(obj.get("stats").expect("case has stats"))
    })
}

/// Loads a committed digest capture as `(name, digest)` pairs.
pub fn load_digests(path: &std::path::Path) -> Vec<(String, u64)> {
    load_cases(path, |obj| {
        let hex = obj
            .get("digest")
            .and_then(JsonValue::as_str)
            .expect("case has a digest");
        u64::from_str_radix(hex, 16).expect("digest is 16 hex digits")
    })
}
