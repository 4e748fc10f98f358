//! Autotuning the Fig. 7 D3Q19 LBM propagation step: the empirical tuner
//! sweeps padding/shift candidates for both propagation-optimized layouts
//! and rediscovers the paper's asymmetry — IJKv (velocity-major blocks,
//! fully aliased velocity stride at d = 36) demands inter-block padding,
//! while IvJK (velocity-interleaved pencils) skews the controllers
//! naturally and runs near-optimally packed.
//!
//! Run with: `cargo run --release --example autotune_lbm`
//! Larger:   `cargo run --release --example autotune_lbm -- --full`

use t2opt::kernels::lbm::LbmLayout;
use t2opt::prelude::*;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let chip = ChipConfig::ultrasparc_t2();
    // n = 34 gives a d = 36 padded box: the IJKv velocity stride is
    // 36³ · 8 B = 729 · 512 B ≡ 0 (mod 512) — every velocity block lands
    // on the same controller phase, the worst case of Fig. 7.
    let (n, threads) = if full { (34, 64) } else { (34, 16) };
    println!("autotuning D3Q19 LBM: {n}³ interior, {threads} threads\n");

    let packed = LayoutSpec::new().base_align(8192);
    let mut reports = Vec::new();
    for layout in [LbmLayout::IJKv, LbmLayout::IvJK] {
        let workload = if full {
            Workload::lbm(n, layout, threads)
        } else {
            Workload::lbm_smoke(n, layout, threads)
        };
        let report = Tuner::new(workload, chip.clone(), ParamSpace::lbm_padding_sweep())
            .strategy(SearchStrategy::Exhaustive)
            .pool_threads(4)
            .run();
        println!("{layout:?}: seg_align shift block_offset  GB/s");
        for t in &report.trials {
            println!(
                "  {:8} {:5} {:12}  {:.3}",
                t.spec.seg_align, t.spec.shift, t.spec.block_offset, t.gbs
            );
        }
        println!(
            "  best shift {} / offset {} at {:.3} GB/s; packed costs {:.1}%\n",
            report.best.spec.shift,
            report.best.spec.block_offset,
            report.best.gbs,
            (report.speedup_over(&packed).unwrap() - 1.0) * 100.0,
        );
        reports.push(report);
    }
    println!(
        "Fig. 7 asymmetry: IJKv wants shift {} (aliased stride), IvJK shift {} (natural skew)",
        reports[0].best.spec.shift, reports[1].best.spec.shift
    );
}
