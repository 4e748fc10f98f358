//! # t2opt-bench
//!
//! Figure-regeneration harness for Hager, Zeiser & Wellein (2008): shared
//! infrastructure (table/JSON output, experiment drivers, and the
//! `t2opt_core::cli` parser re-exported as [`Args`]) for the
//! `fig2_stream` … `fig7_lbm` binaries and the `ablation_*` studies.
//!
//! Each binary prints the same series the corresponding paper figure plots
//! (bandwidth vs offset, MLUPs/s vs domain size, …) as an aligned text
//! table, and optionally dumps JSON via `--json <path>`. Use `--full` for
//! paper-scale problem sizes (slower) — the defaults are scaled down but
//! preserve every qualitative feature (the aliasing period depends on
//! addresses mod 512 B, not on total size, as long as arrays dwarf the
//! 4 MB L2).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod experiments;
pub mod expfmt;
pub mod output;

pub use output::{to_json_string, write_json, Table};
pub use t2opt_core::cli::Args;

use t2opt_core::chip::{ChipSpec, PRESET_NAMES};
use t2opt_sim::policy::{PolicyKind, POLICY_NAMES};
use t2opt_sim::ChipConfig;

/// Resolves the `--policy <name>` flag into a queue-arbitration policy.
/// Defaults to `fifo` (the calibrated T2 discipline); accepts the
/// registry names with an optional `:N` starvation-cap suffix (e.g.
/// `read-first:16`). An unknown spelling exits with status 2 and the
/// listing (user error, not a panic).
pub fn policy_from_args(args: &Args) -> PolicyKind {
    let raw = args.get_str("policy").unwrap_or("fifo");
    match PolicyKind::parse(raw) {
        Some(kind) => kind,
        None => {
            eprintln!(
                "unknown queue policy {raw:?}; available: {} (optionally with :<cap>)",
                POLICY_NAMES.join(", ")
            );
            std::process::exit(2);
        }
    }
}

/// Prints the chip-preset registry with each preset's geometry — name,
/// controllers (grouped by socket on NUMA presets), cores × threads, and
/// the controller-aliasing period — then exits. Backs the `--list-chips`
/// flag on the figure and tuner binaries.
pub fn list_chips() -> ! {
    println!("available chip presets:");
    for name in PRESET_NAMES {
        let spec = ChipSpec::preset(name).expect("registry names resolve");
        let sockets = spec.n_sockets();
        let mcs = if sockets > 1 {
            format!(
                "{} MCs ({} sockets x {})",
                spec.num_controllers(),
                sockets,
                spec.mcs_per_socket()
            )
        } else {
            format!("{} MCs", spec.num_controllers())
        };
        let mut line = format!(
            "  {:<16} {mcs}, {} cores x {} threads, period {} B",
            spec.name,
            spec.n_cores,
            spec.threads_per_core,
            spec.interleave_period()
        );
        if sockets > 1 {
            line.push_str(&format!(
                " (local {} B), remote +{} cyc read / +{} cyc write, link {} cyc/line",
                spec.local_period(),
                spec.sockets.remote_read_extra,
                spec.sockets.remote_write_extra,
                spec.sockets.link_cycles_per_line
            ));
        }
        println!("{line}");
    }
    std::process::exit(0);
}

/// The chip preset `name`. An unknown name exits with status 2 and the
/// registry listing (user error, not a panic).
pub fn chip_preset(name: &str) -> ChipSpec {
    ChipSpec::preset(name).unwrap_or_else(|| {
        eprintln!(
            "unknown chip preset {name:?}; available: {}",
            PRESET_NAMES.join(", ")
        );
        std::process::exit(2);
    })
}

/// Resolves the `--chip <preset>` and `--policy <name>` flags into a chip
/// spec and its simulator configuration. Defaults to `ultrasparc-t2` with
/// FIFO controllers; an unknown preset exits as [`chip_preset`] does.
pub fn chip_from_args(args: &Args) -> (ChipSpec, ChipConfig) {
    let spec = chip_preset(args.get_str("chip").unwrap_or(PRESET_NAMES[0]));
    let mut config = ChipConfig::from_spec(&spec);
    config.policy = policy_from_args(args);
    (spec, config)
}
