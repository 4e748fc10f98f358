//! Policy convoy study: does a smarter controller queue dissolve the
//! paper's Fig. 2/4 offset collapse?
//!
//! The paper's central pathology is a *layout* problem: with all four
//! triad arrays congruent mod 512 B, every stream hits the same memory
//! controller and threads convoy behind one 64-entry FIFO queue. This
//! binary asks how much of that collapse a reordering queue discipline
//! (read-over-write priority) can claw back **without** fixing the
//! layout — and how each policy behaves on the advisor's spread layout
//! (each stream on its own controller).
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin policy_convoy
//! cargo run --release -p t2opt-bench --bin policy_convoy -- --json BENCH_policy.json
//! cargo run --release -p t2opt-bench --bin policy_convoy -- --smoke --json BENCH_policy.json
//! cargo run --release -p t2opt-bench --bin policy_convoy -- --chip wide-8mc --n 65536
//! ```
//!
//! Output: one row per chip preset × policy × layout with cycles, GB/s,
//! controller balance, and NACK count; per-policy summary with the
//! convoy-collapse ratio (spread GB/s ÷ aliased GB/s — the paper's ~4×
//! for FIFO on the T2) and the speedup over FIFO on each layout.
//!
//! Measured shape on the T2 preset: read-over-write beats FIFO on *both*
//! layouts (with a single outstanding miss per thread, every cycle a
//! demand load spends behind a fire-and-forget write-back is pure
//! latency), and no policy closes the aliased-vs-spread gap — the paper's
//! layout fix, not the controller, remains the lever.
//! `tests/integration.rs` pins the aliased win and the layout gap.

use serde::Serialize;
use t2opt_bench::experiments::chip_scatter;
use t2opt_bench::{chip_preset, write_json, Args, Table};
use t2opt_core::chip::{ChipSpec, PRESET_NAMES};
use t2opt_kernels::triad::{self, TriadConfig, TriadLayout};
use t2opt_sim::policy::PolicyKind;
use t2opt_sim::ChipConfig;

/// One measured cell of the study.
#[derive(Debug, Clone, Serialize)]
struct ConvoyRow {
    /// Chip preset name.
    chip: String,
    /// Queue policy name (with cap where applicable).
    policy: String,
    /// "aliased" (all arrays congruent mod the interleave period) or
    /// "spread" (128 B relative offsets, one stream per controller).
    layout: String,
    /// Simulated threads: `--threads` clamped to the preset's hardware
    /// threads.
    threads: usize,
    /// Measured-window cycles.
    cycles: u64,
    /// Reported bandwidth at 32 B/element, GB/s.
    gbs: f64,
    /// Controller busy balance (1.0 = even, 1/n_mcs = one controller).
    mc_balance: f64,
    /// NACKed (retried) controller/bank admissions.
    nacks: u64,
}

/// Per-chip × policy summary: the convoy-collapse ratio and the
/// divergence from FIFO on both layouts.
#[derive(Debug, Clone, Serialize)]
struct ConvoySummary {
    chip: String,
    policy: String,
    /// spread GB/s ÷ aliased GB/s — how deep the offset collapse is under
    /// this policy (FIFO on the T2: the paper's ~4×).
    collapse_ratio: f64,
    /// Aliased-layout speedup over FIFO (>1 = the policy claws back some
    /// of the convoy; <1 = reordering makes it worse).
    aliased_speedup_vs_fifo: f64,
    /// Spread-layout speedup over FIFO (>1 for read-over-write, whose
    /// latency win is layout-independent).
    spread_speedup_vs_fifo: f64,
}

/// `BENCH_policy.json` envelope.
#[derive(Serialize)]
struct ConvoyOutput {
    n: usize,
    rows: Vec<ConvoyRow>,
    summary: Vec<ConvoySummary>,
}

/// The policy matrix under study: the pinned default plus the reordering
/// discipline at its default starvation cap.
fn policy_matrix() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Fifo,
        PolicyKind::ReadFirst {
            starvation_cap: t2opt_sim::policy::DEFAULT_STARVATION_CAP,
        },
    ]
}

/// Policy label including the cap, so JSON rows are self-describing.
fn policy_label(kind: PolicyKind) -> String {
    match kind.starvation_cap() {
        Some(cap) => format!("{}:{cap}", kind.name()),
        None => kind.name().to_string(),
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.has_flag("smoke");
    // Footprint must dwarf the presets' L2 (4 arrays x 8 B x n), or the
    // measured sweep runs from cache and every policy looks identical.
    let n: usize = args.get("n", if smoke { 1 << 18 } else { 1 << 19 });
    let threads: usize = args.get("threads", if smoke { 16 } else { 32 });
    let chips: Vec<ChipSpec> = match args.get_str("chip") {
        Some(name) => vec![chip_preset(name)],
        None => PRESET_NAMES.iter().map(|name| chip_preset(name)).collect(),
    };

    let mut rows: Vec<ConvoyRow> = Vec::new();
    for spec in &chips {
        let base = ChipConfig::from_spec(spec);
        let threads = threads.min(base.max_threads());
        // Aliased: every array base congruent mod the interleave period —
        // the Fig. 4 "align 8k" floor. Spread: 128 B relative offsets, the
        // Fig. 4 ceiling (each stream maps to its own controller on the
        // T2's 512 B period).
        let layouts = [
            ("aliased", TriadLayout::Align8k),
            ("spread", TriadLayout::AlignOffset(128)),
        ];
        for kind in policy_matrix() {
            let mut chip = base.clone();
            chip.policy = kind;
            for (label, layout) in layouts {
                let cfg = TriadConfig {
                    n,
                    layout,
                    threads,
                    ntimes: 1,
                };
                let res = triad::run_sim(&cfg, &chip, &chip_scatter(&chip));
                rows.push(ConvoyRow {
                    chip: spec.name.clone(),
                    policy: policy_label(kind),
                    layout: label.to_string(),
                    threads,
                    cycles: res.stats.cycles(),
                    gbs: res.gbs,
                    mc_balance: res.stats.mc_balance(),
                    nacks: res.stats.nacks,
                });
            }
        }
    }

    let mut table = Table::new(vec![
        "chip",
        "policy",
        "layout",
        "cycles",
        "GB/s",
        "mc_balance",
        "nacks",
    ]);
    for r in &rows {
        table.row(vec![
            r.chip.clone(),
            r.policy.clone(),
            r.layout.clone(),
            r.cycles.to_string(),
            format!("{:.2}", r.gbs),
            format!("{:.2}", r.mc_balance),
            r.nacks.to_string(),
        ]);
    }
    table.print();

    // Summaries: collapse ratio per policy, divergence vs FIFO per layout.
    let cell = |chip: &str, policy: &str, layout: &str| -> &ConvoyRow {
        rows.iter()
            .find(|r| r.chip == chip && r.policy == policy && r.layout == layout)
            .expect("matrix cell present")
    };
    let fifo_label = policy_label(PolicyKind::Fifo);
    let mut summary = Vec::new();
    for spec in &chips {
        for kind in policy_matrix() {
            let label = policy_label(kind);
            let aliased = cell(&spec.name, &label, "aliased");
            let spread = cell(&spec.name, &label, "spread");
            let fifo_aliased = cell(&spec.name, &fifo_label, "aliased");
            let fifo_spread = cell(&spec.name, &fifo_label, "spread");
            summary.push(ConvoySummary {
                chip: spec.name.clone(),
                policy: label,
                collapse_ratio: spread.gbs / aliased.gbs,
                aliased_speedup_vs_fifo: aliased.gbs / fifo_aliased.gbs,
                spread_speedup_vs_fifo: spread.gbs / fifo_spread.gbs,
            });
        }
    }

    println!();
    let mut stable = Table::new(vec![
        "chip",
        "policy",
        "collapse spread/aliased",
        "aliased vs fifo",
        "spread vs fifo",
    ]);
    for s in &summary {
        stable.row(vec![
            s.chip.clone(),
            s.policy.clone(),
            format!("{:.2}x", s.collapse_ratio),
            format!("{:.3}x", s.aliased_speedup_vs_fifo),
            format!("{:.3}x", s.spread_speedup_vs_fifo),
        ]);
    }
    stable.print();

    if let Some(path) = args.get_str("json") {
        let out = ConvoyOutput { n, rows, summary };
        write_json(path, &out).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
