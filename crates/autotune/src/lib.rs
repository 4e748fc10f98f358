//! # t2opt-autotune — empirical layout autotuning
//!
//! The analytic [`LayoutAdvisor`](t2opt_core::advisor::LayoutAdvisor)
//! reproduces the paper's closed-form layout rules, but those rules are
//! derived *for a known address-mapping policy*. When the mapping is
//! undocumented (the common case on commodity parts) production HPC stacks
//! fall back to empirical search. This crate is that complementary path: it
//! searches the `(base_align, seg_align, shift, block_offset)` space of
//! Fig. 3 by running the deterministic memory-system simulator
//! ([`t2opt_sim::Simulation`]) on each candidate, batching independent
//! trials across a host [`t2opt_parallel::ThreadPool`].
//!
//! The pieces:
//!
//! - [`Workload`] — what to measure: a stream mix, the STREAM triad, the
//!   Jacobi sweep, or the D3Q19 LBM propagation step (Fig. 7's IJKv/IvJK
//!   layouts), with problem size, thread count, and measurement protocol.
//! - [`ParamSpace`] — the candidate grid over the four layout parameters.
//! - [`SearchStrategy`] — how to walk it: [`SearchStrategy::Exhaustive`],
//!   [`SearchStrategy::AdvisorSeeded`] (coordinate descent from the paper's
//!   closed form), [`SearchStrategy::TransferSeeded`] (coordinate descent
//!   from the best layout a *different* kernel's sweep cached on the same
//!   chip; from the grid's origin when the cache holds none), or
//!   [`SearchStrategy::ModelPruned`] (rank the whole grid with the
//!   closed-form [`t2opt_model`] surrogate first — zero simulations — then
//!   simulate only the model's top fraction; see [`surrogate`]).
//! - [`ResultCache`] — persistent, content-addressed memoization of trials,
//!   so repeated sweeps and CI runs are incremental; a warm cache re-runs a
//!   sweep with **zero** new simulations. Since format v2 each entry also
//!   carries [`cache::TrialMeta`], enabling the cross-kernel
//!   [`ResultCache::transfer_seed`] lookup.
//! - [`Tuner`] / [`TuneReport`] — the engine and its output: ranked trials,
//!   the winner, cache counters, and an [`Agreement`] section
//!   cross-validating the analytic prediction against the measurements
//!   (Spearman rank correlation + explicit divergence flags — the
//!   observability hook for mapping policies the model does not cover).
//!
//! ```
//! use t2opt_autotune::{ParamSpace, SearchStrategy, Tuner, Workload};
//! use t2opt_sim::ChipConfig;
//!
//! // Tune the Fig. 4 triad offset sweep on the T2 (CI-sized problem).
//! let mut tuner = Tuner::new(
//!     Workload::triad_smoke(1 << 12, 16),
//!     ChipConfig::ultrasparc_t2(),
//!     ParamSpace::offset_sweep(128, 512),
//! )
//! .strategy(SearchStrategy::Exhaustive)
//! .pool_threads(4);
//! let report = tuner.run();
//! assert_ne!(report.best.spec.block_offset % 512, 0, "de-aliasing offset wins");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod space;
pub mod surrogate;
pub mod tuner;
pub mod workload;

pub use cache::{ResultCache, TrialMeta};
pub use space::{ParamSpace, N_DIMS};
pub use tuner::{Agreement, Divergence, SearchStrategy, Trial, TuneReport, Tuner};
pub use workload::Workload;

/// Convenience re-exports for `use t2opt_autotune::prelude::*`.
pub mod prelude {
    pub use crate::cache::ResultCache;
    pub use crate::space::ParamSpace;
    pub use crate::tuner::{SearchStrategy, TuneReport, Tuner};
    pub use crate::workload::Workload;
}
