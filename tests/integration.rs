//! Cross-crate integration tests: the full pipeline from layout advice
//! through host execution to simulator reproduction.

use t2opt::prelude::*;
use t2opt_core::iter::seg_zip3;
use t2opt_kernels::jacobi::{self, JacobiConfig, JacobiHost};
use t2opt_kernels::lbm::{self, LbmConfig, LbmLayout};
use t2opt_kernels::stream::{self, StreamConfig, StreamKernel};
use t2opt_kernels::triad::{self, TriadConfig, TriadLayout};

/// The headline claim end to end: the advisor's suggested offsets recover
/// the bandwidth that page alignment destroys, on the simulated T2. The
/// aliasing is periodic in addresses mod 512 B, so a small N with
/// per-thread segments ≡ 0 mod 512 reproduces the Fig. 4 gap exactly.
fn advisor_offsets_check(n: usize) {
    let advisor = LayoutAdvisor::t2();
    let offsets = advisor.suggest_offsets(4);
    assert_eq!(offsets, vec![0, 128, 256, 384]);

    let chip = ChipConfig::ultrasparc_t2();
    let run = |layout| {
        let cfg = TriadConfig {
            n,
            layout,
            threads: 64,
            ntimes: 1,
        };
        triad::run_sim(&cfg, &chip, &Placement::t2_scatter()).gbs
    };
    let aligned = run(TriadLayout::Align8k);
    let optimal = run(TriadLayout::AlignOffset(offsets[1] as u32));
    assert!(
        optimal > 1.6 * aligned,
        "suggested offsets must substantially beat page alignment: {aligned:.1} -> {optimal:.1} GB/s"
    );
}

#[test]
fn advisor_offsets_fix_the_aliasing() {
    advisor_offsets_check(1 << 14);
}

/// Paper-scale variant (arrays ≫ L2); tier-2, run in CI via `-- --ignored`.
#[test]
#[ignore = "paper-scale problem size; run with -- --ignored"]
fn advisor_offsets_fix_the_aliasing_full() {
    advisor_offsets_check(1 << 19);
}

/// The advisor's prediction must rank layouts the same way the simulator
/// does (analysis agrees with "measurement").
fn prediction_ranking_check(n: usize) {
    let advisor = LayoutAdvisor::t2();
    let chip = ChipConfig::ultrasparc_t2();
    let mut predicted = Vec::new();
    let mut simulated = Vec::new();
    // Compare the unambiguous extremes (all-congruent floor vs the
    // suggested-offset ceiling); intermediate offsets rank too close
    // together in the simulator to give a stable ordering test.
    for (offsets, layout) in [
        ([0u64, 0, 0, 0], TriadLayout::Align8k),
        ([0, 128, 256, 384], TriadLayout::AlignOffset(128)),
    ] {
        let streams = [
            StreamDesc::write(offsets[0]),
            StreamDesc::read(offsets[1]),
            StreamDesc::read(offsets[2]),
            StreamDesc::read(offsets[3]),
        ];
        predicted.push(advisor.predict(&streams).efficiency);
        let cfg = TriadConfig {
            n,
            layout,
            threads: 64,
            ntimes: 1,
        };
        simulated.push(triad::run_sim(&cfg, &chip, &Placement::t2_scatter()).gbs);
    }
    assert!(
        predicted[0] < predicted[1] && simulated[0] < simulated[1],
        "advisor ranking must match simulation: predicted {predicted:?}, simulated {simulated:?}"
    );
}

#[test]
fn prediction_ranks_like_simulation() {
    prediction_ranking_check(1 << 14);
}

/// Paper-scale variant; tier-2, run in CI via `-- --ignored`.
#[test]
#[ignore = "paper-scale problem size; run with -- --ignored"]
fn prediction_ranks_like_simulation_full() {
    prediction_ranking_check(1 << 19);
}

/// Host STREAM values must be numerically correct regardless of threads.
#[test]
fn host_stream_values_correct() {
    let pool = ThreadPool::new(6);
    let cfg = StreamConfig {
        n: 50_000,
        offset: 13,
        threads: 6,
        ntimes: 1,
    };
    for k in [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ] {
        assert!(stream::run_host(&cfg, k, &pool) > 0.0);
    }
}

/// The segmented triad produces bit-identical results to a plain loop, for
/// every layout variant.
#[test]
fn segmented_numerics_are_bit_identical() {
    let n = 12_345;
    for (seg_align, shift, offset) in [(0, 0, 0), (512, 128, 0), (512, 0, 256), (4096, 64, 32)] {
        let spec = LayoutSpec::new()
            .base_align(8192)
            .seg_align(seg_align)
            .shift(shift)
            .block_offset(offset);
        let mut a = SegArray::<f64>::builder(n)
            .segments(7)
            .spec(spec.clone())
            .build();
        let mut b = SegArray::<f64>::builder(n)
            .segments(7)
            .spec(spec.clone())
            .build();
        let mut c = SegArray::<f64>::builder(n).segments(7).spec(spec).build();
        b.fill_with(|i| (i as f64).sin());
        c.fill_with(|i| (i as f64).cos());
        let scalar = 2.5;
        seg_zip3(&mut a, &b, &c, |a, b, c| {
            for i in 0..a.len() {
                a[i] = b[i] + scalar * c[i];
            }
        });
        let reference: Vec<f64> = (0..n)
            .map(|i| (i as f64).sin() + scalar * (i as f64).cos())
            .collect();
        assert_eq!(
            a.to_vec(),
            reference,
            "layout (seg_align={seg_align}, shift={shift}, offset={offset}) changed the numerics"
        );
    }
}

/// Jacobi: the simulator's optimized-vs-plain ordering must match the
/// paper at an aliased problem size (rows ≡ 0 mod 512 B), and the host
/// solver must converge.
fn jacobi_check(sim_n: usize) {
    // Host convergence to the linear solution.
    let pool = ThreadPool::new(8);
    let n = 33;
    let mut solver = JacobiHost::new(n, |i, _| i as f64);
    solver.run(4000, &pool, Schedule::StaticChunk(1));
    for i in (1..n - 1).step_by(5) {
        assert!(
            (solver.get(i, n / 2) - i as f64).abs() < 1e-4,
            "u({i}, mid) = {} should approach {i}",
            solver.get(i, n / 2)
        );
    }

    // Simulator ordering.
    let chip = ChipConfig::ultrasparc_t2();
    let opt = jacobi::run_sim(
        &JacobiConfig::optimized(sim_n, 64),
        &chip,
        &Placement::t2_scatter(),
    );
    let plain = jacobi::run_sim(
        &JacobiConfig::plain(sim_n, 64),
        &chip,
        &Placement::t2_scatter(),
    );
    assert!(
        opt.mlups > plain.mlups,
        "optimized ({:.0}) must beat plain ({:.0}) at N = {sim_n}",
        opt.mlups,
        plain.mlups
    );
}

#[test]
fn jacobi_end_to_end() {
    // N = 128: rows are 1 KB ≡ 0 mod 512 B, so the plain layout aliases
    // just as it does at the paper's N = 1024.
    jacobi_check(128);
}

/// Paper-scale variant; tier-2, run in CI via `-- --ignored`.
#[test]
#[ignore = "paper-scale problem size; run with -- --ignored"]
fn jacobi_end_to_end_full() {
    jacobi_check(1024);
}

/// LBM: IvJK must beat IJKv at the thrashing size, and physics must be
/// layout-independent on the host.
fn lbm_check(n: usize, threads: usize) {
    let chip = ChipConfig::ultrasparc_t2();
    let ijkv = lbm::run_sim(
        &LbmConfig::new(n, LbmLayout::IJKv, threads, false),
        &chip,
        &Placement::t2_scatter(),
    );
    let ivjk = lbm::run_sim(
        &LbmConfig::new(n, LbmLayout::IvJK, threads, false),
        &chip,
        &Placement::t2_scatter(),
    );
    assert!(
        ivjk.mlups > 1.3 * ijkv.mlups,
        "IvJK ({:.1}) must clearly beat IJKv ({:.1}) at the thrashing size",
        ivjk.mlups,
        ijkv.mlups
    );
    assert!(
        ivjk.l2_hit_rate > ijkv.l2_hit_rate,
        "the IJKv penalty should show as cache thrashing: {:.2} vs {:.2}",
        ijkv.l2_hit_rate,
        ivjk.l2_hit_rate
    );
}

#[test]
fn lbm_end_to_end() {
    // N = 30 → N+2 = 32: a power-of-two domain thrashes IJKv the same
    // way the paper's N+2 = 64 does, at an eighth of the sites.
    lbm_check(30, 32);
}

/// The paper's N = 62 (→ N+2 = 64) "ruinous" size at full thread count;
/// tier-2, run in CI via `-- --ignored`.
#[test]
#[ignore = "paper-scale problem size; run with -- --ignored"]
fn lbm_end_to_end_full() {
    lbm_check(62, 64);
}

/// The empirical autotuner must rediscover the advisor's analysis (§2.3)
/// from measurements alone: on the T2 policy the exhaustive tuner's best
/// triad block offset falls in the advisor's suggested offset class
/// (≢ 0 mod 64 DP words = 512 B), beats the fully aliased baseline by the
/// paper's margin, is deterministic, and a warm-cache rerun performs zero
/// new simulations.
#[test]
fn autotuner_matches_advisor_and_reuses_cache() {
    let chip = ChipConfig::ultrasparc_t2();
    let workload = Workload::triad_smoke(1 << 14, 64);
    let space = ParamSpace::offset_sweep(128, 512);
    let cache_path = std::env::temp_dir().join(format!(
        "t2opt-integration-cache-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_path);

    let mut tuner = Tuner::new(workload.clone(), chip.clone(), space.clone())
        .strategy(SearchStrategy::Exhaustive)
        .cache(ResultCache::at_path(&cache_path).unwrap());
    let report = tuner.run();

    // Offset class: the winner must de-alias the three arrays, i.e. land
    // off the 512 B super-line period — the class LayoutAdvisor::t2()
    // suggests ([0, 128, 256, 384] per-array steps, non-zero mod 512).
    let best_offset = report.best.spec.block_offset;
    assert_ne!(
        best_offset % 512,
        0,
        "best offset must leave the aliased class: {report:?}"
    );
    let suggested = LayoutAdvisor::t2().suggest_offsets(4);
    assert!(
        suggested.contains(&best_offset),
        "best offset {best_offset} should be one of the advisor's {suggested:?}"
    );

    // Acceptance: ≥ 1.5× the fully aliased (offset ≡ 0 mod 512 B) baseline.
    let aliased = LayoutSpec::new().base_align(8192);
    let speedup = report
        .speedup_over(&aliased)
        .expect("the sweep includes the aliased baseline");
    assert!(
        speedup >= 1.5,
        "best layout must reach 1.5x over the aliased baseline, got {speedup:.2}x"
    );

    // Determinism: an independent cold run reproduces the result exactly.
    let rerun = Tuner::new(workload.clone(), chip.clone(), space.clone()).run();
    assert_eq!(rerun.best.spec, report.best.spec);
    assert_eq!(rerun.best.gbs, report.best.gbs);

    // Warm cache (reloaded from disk): zero new simulations, same winner.
    let mut warm =
        Tuner::new(workload, chip, space).cache(ResultCache::at_path(&cache_path).unwrap());
    let warm_report = warm.run();
    assert_eq!(
        warm_report.simulations_run, 0,
        "warm rerun must be pure cache"
    );
    assert_eq!(warm_report.cache_hits, report.trials.len() as u64);
    assert_eq!(warm_report.best.spec, report.best.spec);
    let _ = std::fs::remove_file(&cache_path);
}

/// The time-resolved telemetry must detect mod-512 aliasing at runtime:
/// on the fully aliased layout the report flags (nearly) every active
/// window and names the congruent streams; on the advisor's 128 B spread
/// it names no culprits. The tier-1 variant shrinks the simulated L2 to
/// 512 KB so 1<<16-element arrays still miss on every sweep (the aliasing
/// lives in the MC mapping, which the cache size does not touch).
#[test]
fn telemetry_flags_aliasing_and_clears_advisor_layout() {
    let mut chip = ChipConfig::ultrasparc_t2();
    chip.l2.bytes = 1 << 19;
    let trace = |offset: usize| {
        let cfg = StreamConfig::fig2(1 << 16, offset, 64);
        let (_, timeline) = stream::run_sim_traced(
            &cfg,
            StreamKernel::Triad,
            &chip,
            &Placement::t2_scatter(),
            4096,
        );
        AliasReport::analyze(&timeline, &AliasConfig::default())
    };

    // Offset 0: A, B, C bases all congruent mod 512 B — the convoy.
    let aliased = trace(0);
    assert!(
        aliased.windows_considered > 0,
        "the traced run must produce active windows"
    );
    assert!(
        aliased.flagged_fraction >= 0.8,
        "aliased layout must flag >= 80% of active windows, got {:.0}% ({}/{})",
        aliased.flagged_fraction * 100.0,
        aliased.windows_flagged,
        aliased.windows_considered
    );
    let named: Vec<&str> = aliased
        .aliased_streams
        .iter()
        .flatten()
        .map(String::as_str)
        .collect();
    for s in ["A", "B", "C"] {
        assert!(
            named.contains(&s),
            "the report must name stream {s} as a culprit, got {named:?}"
        );
    }

    // Offset 16 DP words = 128 B: consecutive arrays on consecutive
    // controllers (the advisor's suggestion). At this run length a couple
    // of barrier-transition windows may dip below the parallelism
    // threshold, but no stream group shares a residue class and flags
    // stay in the noise floor.
    let spread = trace(16);
    assert!(
        spread.flagged_fraction <= 0.05,
        "advisor-spread layout must stay at the flag noise floor: {}",
        spread.summary()
    );
    assert!(spread.aliased_streams.is_empty());
}

/// Paper-scale variant on the stock 4 MB L2 with the strict zero-flag
/// assertion; tier-2, run in CI via `-- --ignored`.
#[test]
#[ignore = "paper-scale problem size; run with -- --ignored"]
fn telemetry_flags_aliasing_and_clears_advisor_layout_full() {
    let chip = ChipConfig::ultrasparc_t2();
    let trace = |offset: usize| {
        let cfg = StreamConfig::fig2(1 << 18, offset, 64);
        let (_, timeline) = stream::run_sim_traced(
            &cfg,
            StreamKernel::Triad,
            &chip,
            &Placement::t2_scatter(),
            4096,
        );
        AliasReport::analyze(&timeline, &AliasConfig::default())
    };

    let aliased = trace(0);
    assert!(aliased.windows_considered > 0);
    assert!(
        aliased.flagged_fraction >= 0.8,
        "aliased layout must flag >= 80% of active windows: {}",
        aliased.summary()
    );
    let spread = trace(16);
    assert_eq!(
        spread.windows_flagged,
        0,
        "advisor-spread layout must produce zero flags: {}",
        spread.summary()
    );
    assert!(spread.aliased_streams.is_empty());
}

/// Tracing must be observationally free: a traced run's SimStats are
/// bitwise identical to the untraced run's (the `NoProbe` path is the
/// same machine).
#[test]
fn telemetry_disabled_is_bitwise_identical() {
    let chip = ChipConfig::ultrasparc_t2();
    let cfg = StreamConfig::fig2(1 << 16, 8, 32);
    let plain = stream::run_sim(&cfg, StreamKernel::Triad, &chip, &Placement::t2_scatter());
    let (traced, timeline) = stream::run_sim_traced(
        &cfg,
        StreamKernel::Triad,
        &chip,
        &Placement::t2_scatter(),
        4096,
    );
    assert_eq!(
        plain.stats, traced.stats,
        "tracing perturbed the simulation"
    );
    assert_eq!(plain.reported_gbs, traced.reported_gbs);
    assert!(!timeline.windows.is_empty());
}

/// The whole prelude is usable as documented in the README.
#[test]
fn prelude_surface() {
    let map = AddressMap::ultrasparc_t2();
    assert_eq!(map.num_controllers(), 4);
    let pool = ThreadPool::new(2);
    let mut sum = 0.0f64;
    let total = std::sync::Mutex::new(&mut sum);
    pool.parallel_for(0..100, Schedule::StaticChunk(4), |_t, r| {
        let mut guard = total.lock().unwrap();
        **guard += r.len() as f64;
    });
    assert_eq!(sum, 100.0);
    let co = Coalesce2::new(3, 5);
    assert_eq!(co.len(), 15);
}

/// The Fig. 7 qualitative result, rediscovered by the autotuner rather
/// than asserted from the closed form: at d = 36 the IJKv velocity stride
/// (36³ · 8 B = 729 · 512 B) is fully aliased, so its best layout *must*
/// shift the velocity blocks apart, while IvJK's short pencils
/// (19 · 36 · 8 B) skew the controllers naturally and need at most one
/// cache line of padding — and forcing its pencils onto 512 B boundaries
/// re-creates the aliasing the natural stride avoids.
#[test]
fn lbm_autotune_reproduces_fig7_padding_asymmetry() {
    let chip = ChipConfig::ultrasparc_t2();
    let tune = |layout| {
        Tuner::new(
            Workload::lbm_smoke(34, layout, 16),
            chip.clone(),
            ParamSpace::lbm_padding_sweep(),
        )
        .strategy(SearchStrategy::Exhaustive)
        .pool_threads(4)
        .run()
    };
    let ijkv = tune(LbmLayout::IJKv);
    let ivjk = tune(LbmLayout::IvJK);
    let packed = LayoutSpec::new().base_align(8192);

    // IJKv demands padding: its winner is shifted by at least a cache
    // line, and strictly beats the packed layout.
    assert!(
        ijkv.best.spec.shift >= 64,
        "aliased IJKv must want a shifted layout, got {:?}",
        ijkv.best.spec
    );
    assert!(
        ijkv.speedup_over(&packed).unwrap() > 1.0,
        "shifting must strictly beat packed IJKv"
    );

    // IvJK needs at most one cache line of padding: its winner shifts by
    // no more than 64 B and packed is within a few percent of it.
    assert!(
        ivjk.best.spec.shift <= 64,
        "naturally skewed IvJK must not need more than one line of padding, got {:?}",
        ivjk.best.spec
    );
    let ivjk_packed_gap = ivjk.speedup_over(&packed).unwrap();
    assert!(
        ivjk_packed_gap < 1.03,
        "packed IvJK must sit within 3% of its tuned best, gap {ivjk_packed_gap:.4}"
    );

    // The cross-layout asymmetry itself: packed IvJK beats packed IJKv.
    let gbs_at = |report: &TuneReport, spec: &LayoutSpec| {
        report
            .trials
            .iter()
            .find(|t| &t.spec == spec)
            .map(|t| t.gbs)
            .unwrap()
    };
    assert!(
        gbs_at(&ivjk, &packed) > gbs_at(&ijkv, &packed),
        "packed IvJK must beat packed IJKv (natural controller skew)"
    );

    // And forcing IvJK's pencils onto 512 B boundaries re-aliases them.
    let force_aligned = LayoutSpec::new().base_align(8192).seg_align(512);
    assert!(
        ivjk.speedup_over(&force_aligned).unwrap() > 1.05,
        "512 B-aligning IvJK pencils must cost noticeably"
    );
}

/// Differential check of tuner vs advisor on the LBM workload: the
/// empirical winner's simulated bandwidth must match or beat the
/// advisor's closed-form pick. On IvJK it must *strictly* beat it — the
/// advisor's segment-alignment rule backfires on naturally skewed
/// pencils, which is precisely the case empirical tuning exists for.
#[test]
fn lbm_tuner_matches_or_beats_the_advisor_pick() {
    let chip = ChipConfig::ultrasparc_t2();
    let pick = LayoutAdvisor::t2().suggest_layout();
    let tune = |layout| {
        Tuner::new(
            Workload::lbm_smoke(34, layout, 16),
            chip.clone(),
            ParamSpace::lbm_padding_sweep(),
        )
        .strategy(SearchStrategy::Exhaustive)
        .pool_threads(4)
        .run()
    };
    for layout in [LbmLayout::IJKv, LbmLayout::IvJK] {
        let report = tune(layout);
        let speedup = report
            .speedup_over(&pick)
            .expect("the advisor pick must be inside the padding sweep");
        assert!(
            speedup >= 1.0,
            "{layout:?}: tuner winner must not lose to the advisor pick"
        );
        if layout == LbmLayout::IvJK {
            assert!(
                speedup > 1.05,
                "IvJK: empirical tuning must beat the advisor's forced alignment, got {speedup:.4}"
            );
        }
    }
}

/// Convoy regression for the queue-policy layer (DESIGN.md §13): on the
/// aliased triad — every stream congruent mod 512 B, the paper's Fig. 2/4
/// worst case — a read-over-write controller strictly beats FIFO, because
/// demand loads (which a T2 thread blocks on with its single outstanding
/// miss) no longer queue behind fire-and-forget write-backs. And under
/// *every* policy the spread layout keeps beating the aliased one — a
/// smarter controller narrows the convoy but does not replace the paper's
/// layout fix.
#[test]
fn read_over_write_beats_fifo_on_the_aliased_triad() {
    // Small L2 keeps the run DRAM-bound at test-sized N (same trick as
    // the telemetry aliasing test); divergences were measured at 3-16%.
    let run = |policy, layout| {
        let mut chip = ChipConfig::ultrasparc_t2();
        chip.l2.bytes = 1 << 19;
        chip.policy = policy;
        let cfg = TriadConfig {
            n: 1 << 15,
            layout,
            threads: 16,
            ntimes: 1,
        };
        triad::run_sim(&cfg, &chip, &Placement::t2_scatter())
            .stats
            .cycles()
    };
    let read_first = PolicyKind::ReadFirst { starvation_cap: 8 };
    let aliased = TriadLayout::Align8k;
    let spread = TriadLayout::AlignOffset(128);

    let fifo_aliased = run(PolicyKind::Fifo, aliased);
    let rf_aliased = run(read_first, aliased);
    assert!(
        (rf_aliased as f64) < 0.98 * fifo_aliased as f64,
        "read-over-write must strictly beat FIFO on the aliased triad: \
         {rf_aliased} vs {fifo_aliased} cycles"
    );

    for policy in [PolicyKind::Fifo, read_first] {
        let a = run(policy, aliased);
        let s = run(policy, spread);
        assert!(
            s < a,
            "{}: the advisor's spread layout must keep beating the aliased \
             one ({s} vs {a} cycles) — reordering narrows the convoy, it \
             does not dissolve it",
            policy.name()
        );
    }
}
