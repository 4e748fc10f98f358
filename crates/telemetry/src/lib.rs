//! Telemetry substrate for the t2opt workspace.
//!
//! The paper (and the repo up to now) diagnoses memory-controller aliasing
//! only through end-to-end bandwidth: one aggregate
//! [`SimStats`](https://docs.rs/t2opt-sim) per run. *When* and *where* a
//! controller saturates is invisible, yet that is exactly the signal that
//! separates "all threads hit one controller at a time" (the mod-512
//! convoy of §2.1) from a genuinely balanced run. This crate supplies the
//! missing layers:
//!
//! * [`metrics`] — host-side primitives: atomic [`metrics::Counter`]s,
//!   fixed-log2-bucket [`metrics::Histogram`]s, a bounded
//!   [`metrics::RingLog`] event buffer, and the [`metrics::Sink`] registry
//!   of named counters and histograms, which host code attaches only when
//!   it wants metrics.
//! * [`probe`] — the simulator-side hook trait [`probe::SimProbe`]. The
//!   engine is generic over it and runs with the no-op [`probe::NoProbe`]
//!   unless tracing is requested, so the uninstrumented path monomorphizes
//!   to exactly the pre-instrumentation code: disabled telemetry is
//!   *zero*-cost and bitwise deterministic.
//! * [`timeline`] — time-resolved collection: per-MC busy cycles and
//!   NACKs bucketed into fixed windows of `interval` cycles, assembled into
//!   a [`timeline::Timeline`].
//! * [`alias`] — the [`alias::AliasReport`] analysis pass: per-window MC
//!   imbalance (max/mean), effective-parallelism flagging (the runtime
//!   signature of mod-512 congruence aliasing), and naming of the offending
//!   address streams.
//! * [`export`] — Chrome-trace (`chrome://tracing` / Perfetto),
//!   Prometheus text-exposition, and terminal ASCII-heatmap exporters.
//! * [`trace`] — the one span system: cheap xorshift trace/span ids, a
//!   [`trace::TraceCtx`] carried across the accept → parse →
//!   tier-decision → refinement → tuner-trial → store chain (explicitly,
//!   or entered as the thread's ambient context), and a bounded
//!   [`trace::TraceBuffer`] retaining recent traces.
//! * [`logger`] — a minimal leveled structured logger (JSON lines with
//!   the ambient trace id stamped on every line).

#![warn(missing_docs)]

pub mod alias;
pub mod export;
pub mod logger;
pub mod metrics;
pub mod probe;
pub mod timeline;
pub mod trace;

/// The most commonly used telemetry types.
pub mod prelude {
    pub use crate::alias::{AliasConfig, AliasReport};
    pub use crate::export::{ascii_heatmap, chrome_trace, prometheus_text, traces_chrome_trace};
    pub use crate::logger::{log_line, Level, Logger};
    pub use crate::metrics::{Counter, Histogram, RingLog, Sink};
    pub use crate::probe::{NoProbe, SimProbe, StallKind};
    pub use crate::timeline::{StreamLabel, Timeline, TimelineRecorder, TraceConfig};
    pub use crate::trace::{SpanRecord, TraceBuffer, TraceCtx};
}
