//! # t2opt-core
//!
//! Data-layout control for highly threaded multi-core CPUs with multiple
//! memory controllers — the software contribution of Hager, Zeiser & Wellein,
//! *"Data Access Optimizations for Highly Threaded Multi-Core CPUs with
//! Multiple Memory Controllers"* (2008).
//!
//! On processors like the Sun UltraSPARC T2, physical addresses are mapped to
//! memory controllers by a handful of low address bits (bits 8:7 on the T2,
//! with bit 6 selecting the L2 bank). Concurrent access streams whose base
//! addresses are congruent modulo the 512-byte "super-line" therefore pile up
//! on a single controller and lose up to 4× of the achievable bandwidth.
//!
//! This crate provides the tools the paper develops to defeat that aliasing:
//!
//! * [`mapping`] — models of the address → controller/bank mapping
//!   ([`mapping::AddressMap`], [`mapping::MapPolicy`]).
//! * [`alloc`] — aligned raw allocation ([`alloc::AlignedBuf`]), the
//!   `posix_memalign` equivalent used to place arrays on exact boundaries.
//! * [`layout`] — the four-parameter layout model of the paper's Fig. 3:
//!   base *alignment*, per-segment *padding* (segment alignment), per-segment
//!   *shift*, and whole-block *offset* ([`layout::LayoutSpec`]).
//! * [`seg_array`] — [`seg_array::SegArray`], a segmented array placed
//!   according to a [`layout::LayoutSpec`]; segments can be handed out as
//!   independent mutable slices for parallel kernels.
//! * [`iter`] — segmented iterators and hierarchical algorithms in the style
//!   of Austern's *Segmented Iterators and Hierarchical Algorithms*: an outer
//!   iteration over segments and a tight inner loop over contiguous slices,
//!   so that STL-style genericity costs nothing in the kernel.
//! * [`advisor`] — the analytic layout advisor: predicts how a set of
//!   concurrent streams distributes over the memory controllers and derives
//!   optimal offsets/shifts *without trial and error* (§2.3 of the paper).
//! * [`chip`] — named chip topologies ([`chip::ChipSpec`]): the preset
//!   registry from which every higher layer (simulator, autotuner,
//!   telemetry, bench CLIs) derives its geometry instead of assuming T2.
//! * [`corr`] — rank-correlation statistics ([`corr::spearman`]) shared by
//!   every layer that cross-validates one predictor against another.
//! * [`cli`] — the command-line parser every binary declares its options
//!   to ([`cli::Args`]).
//!
//! ## Quick example
//!
//! ```
//! use t2opt_core::prelude::*;
//!
//! // Four read/write streams of a vector triad A = B + C * D, laid out with
//! // the paper's optimal byte offsets 0, 128, 256, 384 so that at any loop
//! // index all four UltraSPARC T2 memory controllers are addressed at once.
//! let map = AddressMap::ultrasparc_t2();
//! let spec = LayoutSpec::new()
//!     .base_align(8192)
//!     .block_offset(128); // applied per array below
//!
//! let a = SegArray::<f64>::builder(1 << 16).segments(8).spec(spec.clone().block_offset(0)).build();
//! let b = SegArray::<f64>::builder(1 << 16).segments(8).spec(spec.clone().block_offset(128)).build();
//! assert_ne!(map.controller(a.segment_base_addr(0) as u64),
//!            map.controller(b.segment_base_addr(0) as u64));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod advisor;
pub mod alloc;
pub mod chip;
pub mod cli;
pub mod corr;
pub mod iter;
pub mod json;
pub mod layout;
pub mod mapping;
pub mod seg_array;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::advisor::{LayoutAdvisor, StreamDesc, StreamKind};
    pub use crate::alloc::AlignedBuf;
    pub use crate::chip::ChipSpec;
    pub use crate::iter::{HierExt, SegChunks};
    pub use crate::layout::{LayoutSpec, SegmentPlan};
    pub use crate::mapping::{AddressMap, MapPolicy, PagePlacement};
    pub use crate::seg_array::{SegArray, SegArrayBuilder};
}

/// Cache line size of the UltraSPARC T2 (and virtually every modern CPU), in
/// bytes. Used as the default granularity for offsets and padding.
pub const CACHE_LINE: usize = 64;

/// The T2 "super-line": the period, in bytes, after which the
/// line → controller/bank mapping repeats (4 controllers × 2 banks × 64 B).
pub const SUPER_LINE: usize = 512;
