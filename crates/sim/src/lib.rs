//! # t2opt-sim
//!
//! A discrete-event, cache-line-granularity simulator of the Sun
//! UltraSPARC T2 memory subsystem, built to reproduce the experiments of
//! Hager, Zeiser & Wellein, *"Data Access Optimizations for Highly Threaded
//! Multi-Core CPUs with Multiple Memory Controllers"* (2008) without the
//! (long discontinued) hardware.
//!
//! ## What is modelled
//!
//! * 8 in-order cores × 8 hardware threads at 1.2 GHz, each thread limited
//!   to a **single outstanding L2 miss** — the property that makes thread
//!   count and controller spreading matter so much on this chip;
//! * two memory pipes and one shared FPU per core;
//! * a shared 4 MB, 16-way, 8-banked L2 (write-back, write-allocate, LRU);
//! * four FB-DIMM memory controllers with dual unidirectional channels
//!   (2:1 read:write bandwidth, shared southbound command/write path) and
//!   finite input queues with NACK/retry;
//! * the T2's address interleave: **bits 8:7 → controller, bit 6 → bank**
//!   (via [`t2opt_core::mapping::MapPolicy`], swappable for ablations).
//!
//! ## What is not modelled
//!
//! Instruction fetch, L1 caches (the L2 hit latency subsumes the small L1),
//! TLBs (the paper argues pages ≥ 4 kB make virtual≈physical for this
//! purpose), the integer pipes' 4-thread groups, and coherence between
//! cores (the kernels under study partition their data). Timing parameters
//! are calibrated to the paper's *measured* bandwidths, not the brochure
//! numbers — see `ChipConfig::ultrasparc_t2` and DESIGN.md §6.
//!
//! ## Quick example
//!
//! ```
//! use t2opt_sim::prelude::*;
//!
//! // One thread streaming 64 KiB of loads from address 0.
//! let sim = Simulation::t2();
//! let program = StreamLoop::new(vec![StreamSpec::load(0)], 8192, 8, 0.0, 64);
//! let stats = sim.run(vec![ThreadSpec::new(0, Box::new(program))]);
//! assert_eq!(stats.total_read_bytes(), 8192 * 8);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod mc;
pub mod policy;
mod queue;
pub mod stats;
pub mod trace;

pub use t2opt_telemetry as telemetry;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::config::{ChipConfig, CoreConfig, L2Config, MemConfig};
    pub use crate::engine::{Simulation, ThreadSpec};
    pub use crate::policy::{MemRequest, PolicyKind, ReqClass, POLICY_NAMES};
    pub use crate::stats::SimStats;
    pub use crate::trace::{chain_with_barriers, Dir, Op, Program, StreamLoop, StreamSpec};
    pub use t2opt_core::mapping::{AddressMap, MapPolicy};
    pub use t2opt_telemetry::alias::{AliasConfig, AliasReport};
    pub use t2opt_telemetry::timeline::{StreamLabel, Timeline, TraceConfig};
}

pub use config::ChipConfig;
pub use engine::{Simulation, ThreadSpec};
pub use stats::SimStats;
