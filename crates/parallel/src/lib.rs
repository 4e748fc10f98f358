//! # t2opt-parallel
//!
//! An OpenMP-flavoured shared-memory parallel runtime, modelling the
//! environment of Hager, Zeiser & Wellein (2008): a fixed team of worker
//! threads with optional scatter *placement* (the Solaris
//! `processor_bind()` / `SUNW_MP_PROCBIND` pinning the paper relies on),
//! the OpenMP loop *schedules* the paper runs (`static`, `static,chunk`),
//! and two-level loop *coalescing* (the manual `collapse` the paper uses to
//! remove the LBM "modulo effect").
//!
//! A worker gets mutable output one way: [`ThreadPool::run_parts`] moves
//! part `k` of a list split before the region (for example by
//! [`schedule::split_static`]) to worker `k`, and [`ThreadPool::map`]
//! returns one result per item in item order. A [`TaskPool`] takes such
//! maps from many threads at once and runs their items on one team.
//!
//! The same [`Schedule`] and [`Placement`] types drive both host execution
//! (here) and the T2 simulator (`t2opt-sim`), so an experiment's
//! iteration→thread→core map is identical in both worlds.
//!
//! ```
//! use t2opt_parallel::{ThreadPool, Schedule};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let hits = AtomicUsize::new(0);
//! pool.parallel_for(0..1000, Schedule::StaticChunk(1), |_tid, range| {
//!     hits.fetch_add(range.len(), Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 1000);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod coalesce;
pub mod placement;
pub mod pool;
pub mod schedule;
pub mod tasks;

pub use coalesce::Coalesce2;
pub use placement::Placement;
pub use pool::{PoolMetricsSnapshot, ThreadPool};
pub use schedule::{chunk_assignment, split_static, Chunk, Schedule};
pub use tasks::TaskPool;
