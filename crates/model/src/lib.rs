//! # t2opt-model
//!
//! An ECM-style closed-form performance model for interleaved-controller
//! chips: given a [`ChipSpec`](t2opt_core::chip::ChipSpec) and a workload
//! description (stream sets, thread count, layout candidate), predict the
//! absolute bandwidth — FB-DIMM read/write asymmetry, per-controller queue
//! contention, and convoy collapse of aliased streams included — *without
//! running the simulator*.
//!
//! The paper's §2.3 claim is that optimal layouts follow from analysis, "no
//! trial and error required". The `LayoutAdvisor` in `t2opt-core` delivers
//! the *ranking* half of that claim; this crate delivers the *absolute
//! numbers* half, in the style of the execution-cache-memory models of
//! Afzal/Hager/Wellein (arXiv:2011.00243): a kernel's runtime is the
//! maximum of a bandwidth (capacity) term and a latency (concurrency)
//! term, each derived in closed form from the chip's service times and the
//! stream set's controller distribution.
//!
//! ## The two terms
//!
//! **Capacity.** Every cache line a stream moves occupies its memory
//! controller for a service time: `read_service` cycles for a load or a
//! read-for-ownership, `write_service` for a write-back (the T2's FB-DIMM
//! channels write at half the read bandwidth, so `write_service =
//! 2 × read_service`). The advisor's phase walk
//! ([`LayoutAdvisor::analyze`](t2opt_core::advisor::LayoutAdvisor::analyze)),
//! run here at these cycle costs instead of the advisor's (1, 2),
//! yields the fraction `eff ∈ (0, 1]` of the aggregate controller
//! bandwidth the layout can actually use (1 with perfectly spread
//! streams, `→ 1/n_mc` in full convoy), so
//!
//! ```text
//! T_cap = Σ_lines service_cycles / (n_mc · eff)
//! ```
//!
//! **Latency.** Each thread sustains at most `outstanding` blocking misses
//! (one on the T2), and every miss pays the full round trip: crossbar +
//! DRAM latency, the southbound command slot, its own service time — plus
//! the time spent queued behind the other in-flight misses that target the
//! same controller. Aliased layouts concentrate all in-flight misses on
//! one controller (the convoy of §2.1), multiplying that queue wait by
//! `n_mc`; spread layouts divide it. With `B` blocking misses and `C`
//! concurrent misses chip-wide,
//!
//! ```text
//! Λ_eff = extra_latency + hit_latency + command_cycles + read_service
//!         + (min(C / spread, queue_depth) − 1) · read_service
//! T_lat = B · Λ_eff / C
//! ```
//!
//! where `spread` is the mean number of distinct controllers the blocking
//! units of one lockstep phase touch (the advisor's
//! `concurrent_controllers`).
//!
//! The predicted runtime is `max(T_cap, T_lat)`; bandwidth is the
//! workload's reported bytes over that time. See DESIGN.md §10 for the
//! calibration reasoning and the validation contract against the
//! simulator (Spearman ≥ 0.9 on every chip preset's offset sweep, pinned
//! in `tests/model_validation.rs` at the workspace root).
//!
//! ## Example
//!
//! ```
//! use t2opt_core::advisor::StreamDesc;
//! use t2opt_core::chip::ChipSpec;
//! use t2opt_model::{KernelShape, PerfModel, StreamUnit};
//!
//! let spec = ChipSpec::ultrasparc_t2();
//! let model = PerfModel::for_spec(&spec);
//! // 64 threads, each streaming a triad whose arrays all alias mod 512 B
//! // vs the paper's spread offsets [0, 128, 256].
//! let shape = |offsets: [u64; 3]| KernelShape {
//!     units: (0..64)
//!         .map(|t| {
//!             let seg = t * 4096; // per-thread segment, ≡ 0 mod 512
//!             StreamUnit::new(
//!                 vec![
//!                     StreamDesc::read(seg + offsets[0]),
//!                     StreamDesc::read(seg + offsets[1]),
//!                     StreamDesc::write(seg + offsets[2]),
//!                 ],
//!                 32,
//!             )
//!         })
//!         .collect(),
//!     threads: 64,
//!     reported_bytes: 3 * 8 * (1 << 14),
//! };
//! let aliased = model.predict(&shape([0, 0, 0]));
//! let spread = model.predict(&shape([0, 128, 256]));
//! assert!(spread.gbs > 2.0 * aliased.gbs);
//! ```

#![warn(missing_docs)]

pub mod predict;
pub mod shape;
pub mod timing;

pub use predict::{ModelBound, ModelPrediction, PerfModel};
pub use shape::{KernelShape, StreamUnit};
pub use timing::ModelTiming;
