//! # t2opt — data access optimizations for highly threaded multi-core CPUs
//! with multiple memory controllers
//!
//! A production-quality Rust reproduction of Hager, Zeiser & Wellein,
//! *"Data Access Optimizations for Highly Threaded Multi-Core CPUs with
//! Multiple Memory Controllers"* (2008, arXiv:0712.2302), including a
//! discrete-event simulator of the Sun UltraSPARC T2 memory subsystem the
//! paper measured on.
//!
//! This facade crate re-exports the six member crates:
//!
//! * [`core`] — segmented arrays with byte-exact layout
//!   control (alignment / padding / shift / offset, Fig. 3), segmented
//!   iterators, and the analytic memory-controller layout advisor;
//! * [`sim`] — the UltraSPARC T2 memory-system simulator
//!   (banked L2, four memory controllers, bits-8:7 interleave);
//! * [`parallel`] — an OpenMP-style thread pool with
//!   static/dynamic/guided schedules, placement (pinning) and loop
//!   coalescing;
//! * [`kernels`] — STREAM, vector triad, 2-D Jacobi and
//!   D3Q19 lattice-Boltzmann, as host code and as simulator traces;
//! * [`autotune`] — the empirical counterpart to the
//!   analytic advisor: searches the layout space by running batched
//!   simulator trials in parallel, with a persistent result cache and an
//!   advisor-agreement cross-check;
//! * [`telemetry`] — zero-cost-when-disabled counters,
//!   histograms and request traces, time-resolved simulator timelines with
//!   MC-imbalance (aliasing) diagnostics, and Chrome-trace / JSON-lines /
//!   ASCII-heatmap exporters.
//!
//! ## Quickstart
//!
//! ```
//! use t2opt::prelude::*;
//!
//! // Ask the advisor for offsets that spread four streams over the T2's
//! // four memory controllers, and build arrays accordingly.
//! let advisor = LayoutAdvisor::t2();
//! let offsets = advisor.suggest_offsets(4);
//! assert_eq!(offsets, vec![0, 128, 256, 384]);
//!
//! let a = SegArray::<f64>::builder(1 << 16)
//!     .segments(8)
//!     .base_align(8192)
//!     .block_offset(offsets[1])
//!     .build();
//! assert_eq!(a.base_addr() % 8192, 0);
//! ```

pub mod golden;

pub use t2opt_autotune as autotune;
pub use t2opt_core as core;
pub use t2opt_kernels as kernels;
pub use t2opt_parallel as parallel;
pub use t2opt_sim as sim;
pub use t2opt_telemetry as telemetry;

/// One-stop imports for the common types of all member crates.
pub mod prelude {
    pub use t2opt_autotune::prelude::*;
    pub use t2opt_core::prelude::*;
    pub use t2opt_parallel::{Coalesce2, Coalesce3, Placement, Schedule, ThreadPool};
    pub use t2opt_sim::prelude::*;
    pub use t2opt_telemetry::prelude::*;
}
