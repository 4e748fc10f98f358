//! Request-scoped tracing, the workspace's one span system: cheap
//! xorshift-derived trace/span ids, a [`TraceCtx`] that rides one request
//! through every serving stage down to the tuner's trials, and a bounded
//! [`TraceBuffer`] retaining the most recent traces for export
//! (`GET /trace` and `autotune --telemetry` render them as Chrome-trace
//! JSON via [`crate::export::traces_chrome_trace`]).
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when off.** [`TraceBuffer::start`] on a disabled
//!    buffer is one relaxed atomic load and returns a [`TraceCtx`] whose
//!    every method is a no-op branch; so is the context of a thread that
//!    entered none ([`TraceCtx::current`]).
//! 2. **Bounded memory.** The buffer holds at most `max_traces` traces of
//!    at most `max_spans` spans each ([`crate::metrics::RingLog`] per
//!    trace); a long-running daemon cannot leak through its own tracing.
//! 3. **Late spans join their trace.** Background refinement finishes
//!    long after its triggering request; [`TraceBuffer::resume`] rebuilds
//!    a context from the (trace id, parent span id) pair carried on the
//!    refinement job, and the spans land in the original trace unless it
//!    has already been evicted.
//! 4. **Code deep in the call tree needs no tracing argument.**
//!    [`TraceCtx::enter`] makes a context the thread's ambient one until
//!    its guard drops: the logger stamps its trace id on every line, and
//!    the tuner records its run and trial spans through it.

use crate::metrics::RingLog;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One completed span: a named timed region on a host thread, tied into
/// its trace by the three id fields.
#[derive(Debug, Clone, Serialize)]
pub struct SpanRecord {
    /// Span name (e.g. `"refine.run"`).
    pub name: String,
    /// Logical thread id supplied by the instrumented code.
    pub tid: u32,
    /// Start time in microseconds since the owning buffer's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's own id.
    pub span_id: u64,
    /// Id of the enclosing span (0 = root of its trace).
    pub parent_id: u64,
}

/// A fresh process-unique nonzero id. The generator is a global counter
/// stepped by the golden-ratio increment and finished with an xorshift
/// mix, so ids are cheap (one relaxed RMW, three shifts), well spread
/// across 64 bits, and never zero (zero means "no trace" everywhere).
pub fn next_id() -> u64 {
    static STATE: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);
    let x = STATE.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    let mut v = x ^ 0x2545_f491_4f6c_dd1d;
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
    if v == 0 {
        1
    } else {
        v
    }
}

/// One retained request trace: its id, a human label (`"POST /advise"`),
/// when it started (microseconds since the buffer's epoch), and the spans
/// recorded so far (bounded; overflow is counted, not kept).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Trace id (nonzero).
    pub trace_id: u64,
    /// Human-readable label, normally `"METHOD /path"`.
    pub label: String,
    /// Start time in microseconds since the owning buffer's epoch.
    pub start_us: f64,
    spans: RingLog<SpanRecord>,
}

impl TraceRecord {
    /// The spans recorded into this trace so far, in completion order.
    pub fn spans(&self) -> &[SpanRecord] {
        self.spans.as_slice()
    }

    /// Spans rejected because the per-trace cap was hit.
    pub fn spans_dropped(&self) -> u64 {
        self.spans.dropped()
    }
}

/// A bounded buffer of the most recent request traces. Shared via `Arc`
/// between the request workers (producers), the refiner threads (late
/// producers), and the `/trace` endpoint (consumer).
#[derive(Debug)]
pub struct TraceBuffer {
    epoch: Instant,
    enabled: AtomicBool,
    max_traces: usize,
    max_spans: usize,
    traces: Mutex<VecDeque<TraceRecord>>,
    started: AtomicU64,
    evicted: AtomicU64,
}

impl TraceBuffer {
    /// A buffer retaining at most `max_traces` traces of at most
    /// `max_spans` spans each. Starts **enabled**; call
    /// [`TraceBuffer::set_enabled`]`(false)` for the no-op path.
    pub fn new(max_traces: usize, max_spans: usize) -> Arc<Self> {
        Arc::new(TraceBuffer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            max_traces: max_traces.max(1),
            max_spans: max_spans.max(1),
            traces: Mutex::new(VecDeque::new()),
            started: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        })
    }

    /// Whether tracing records anything (one relaxed load).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns tracing on or off. Off makes every derived [`TraceCtx`]
    /// operation a no-op; already-retained traces stay readable.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Microseconds since the buffer was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Converts an [`Instant`] taken elsewhere (e.g. the acceptor's
    /// enqueue timestamp) into this buffer's microsecond timebase.
    pub fn us_of(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Traces started since creation (including since-evicted ones).
    pub fn started(&self) -> u64 {
        self.started.load(Ordering::Relaxed)
    }

    /// Traces evicted to make room for newer ones.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Opens a new trace labelled `label` starting now. On a disabled
    /// buffer this is one relaxed load and a no-op context.
    pub fn start(self: &Arc<Self>, label: impl Into<String>) -> TraceCtx {
        let now = self.now_us();
        self.start_at(label, now)
    }

    /// [`TraceBuffer::start`], but backdated to `start_us` (the request's
    /// first byte or accept time, which precede the parse that names it).
    pub fn start_at(self: &Arc<Self>, label: impl Into<String>, start_us: f64) -> TraceCtx {
        if !self.is_enabled() {
            return TraceCtx::disabled();
        }
        let trace_id = next_id();
        let root_span = next_id();
        {
            let mut traces = self.lock();
            if traces.len() == self.max_traces {
                traces.pop_front();
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            traces.push_back(TraceRecord {
                trace_id,
                label: label.into(),
                start_us,
                spans: RingLog::new(self.max_spans),
            });
        }
        self.started.fetch_add(1, Ordering::Relaxed);
        TraceCtx {
            buf: Some(Arc::clone(self)),
            trace_id,
            root_span,
            parent: root_span,
            root_start_us: start_us,
        }
    }

    /// Rebuilds a context for spans that finish after their request did
    /// (background refinement). `trace_id = 0`, an unknown parent, or a
    /// disabled buffer all yield a no-op context; spans recorded through
    /// the result join the original trace if it is still retained.
    pub fn resume(self: &Arc<Self>, trace_id: u64, parent: u64) -> TraceCtx {
        if trace_id == 0 || !self.is_enabled() {
            return TraceCtx::disabled();
        }
        TraceCtx {
            buf: Some(Arc::clone(self)),
            trace_id,
            root_span: 0,
            parent,
            root_start_us: 0.0,
        }
    }

    /// The most recent `n` traces, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TraceRecord> {
        let traces = self.lock();
        let skip = traces.len().saturating_sub(n);
        traces.iter().skip(skip).cloned().collect()
    }

    /// Traces currently retained.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn append(&self, trace_id: u64, span: SpanRecord) {
        let mut traces = self.lock();
        // Newest traces are at the back and are the likeliest target.
        if let Some(t) = traces.iter_mut().rev().find(|t| t.trace_id == trace_id) {
            t.spans.push(span);
        }
        // Evicted trace: the late span is dropped with it.
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<TraceRecord>> {
        self.traces.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

thread_local! {
    static CURRENT: RefCell<TraceCtx> = const { RefCell::new(TraceCtx::disabled()) };
}

/// The trace id ambient on this thread (0 when none) — what the
/// structured logger stamps on every line so logs join traces.
pub fn current_trace() -> u64 {
    CURRENT.try_with(|c| c.borrow().trace_id).unwrap_or(0)
}

/// RAII guard from [`TraceCtx::enter`]; restores the previous ambient
/// context on drop.
pub struct CurrentTraceGuard {
    previous: TraceCtx,
}

impl Drop for CurrentTraceGuard {
    fn drop(&mut self) {
        let previous = std::mem::replace(&mut self.previous, TraceCtx::disabled());
        // Fails only while the thread's locals are being torn down.
        let _ = CURRENT.try_with(|c| c.replace(previous));
    }
}

/// The per-request tracing handle threaded accept → parse → service →
/// store → refinement → tuner trials. Cloneable; a disabled context is a
/// handful of no-op branches.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    buf: Option<Arc<TraceBuffer>>,
    trace_id: u64,
    root_span: u64,
    parent: u64,
    root_start_us: f64,
}

impl TraceCtx {
    /// A context that records nothing.
    pub const fn disabled() -> Self {
        TraceCtx {
            buf: None,
            trace_id: 0,
            root_span: 0,
            parent: 0,
            root_start_us: 0.0,
        }
    }

    /// Whether spans recorded through this context are retained.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// The trace id (0 when disabled).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The span id new spans parent to (the request root span, unless
    /// re-parented via [`TraceCtx::child_of`]).
    pub fn parent_span(&self) -> u64 {
        self.parent
    }

    /// A context recording into the same trace but parenting new spans to
    /// `parent` instead of the root.
    pub fn child_of(&self, parent: u64) -> TraceCtx {
        TraceCtx {
            parent,
            ..self.clone()
        }
    }

    /// Makes this context the thread's ambient one until the guard drops:
    /// the structured logger stamps its trace id, and code that takes no
    /// context argument records through [`TraceCtx::current`]. Guards
    /// nest; each restores the context it replaced.
    pub fn enter(&self) -> CurrentTraceGuard {
        let previous = CURRENT.with(|c| c.replace(self.clone()));
        CurrentTraceGuard { previous }
    }

    /// The context entered on this thread (a disabled one when none is).
    pub fn current() -> TraceCtx {
        CURRENT
            .try_with(|c| c.borrow().clone())
            .unwrap_or_else(|_| TraceCtx::disabled())
    }

    /// Starts a span named `name` on logical thread `tid`; it is recorded
    /// into the trace when the guard drops.
    pub fn span(&self, name: impl Into<String>, tid: u32) -> TraceSpan {
        match &self.buf {
            Some(buf) => TraceSpan {
                ctx: Some((Arc::clone(buf), self.trace_id, self.parent)),
                name: name.into(),
                tid,
                start_us: buf.now_us(),
                span_id: next_id(),
            },
            None => TraceSpan {
                ctx: None,
                name: String::new(),
                tid: 0,
                start_us: 0.0,
                span_id: 0,
            },
        }
    }

    /// Records a span with explicit timestamps (for stages measured
    /// before the trace existed, like accept-queue wait and parse).
    /// Returns the new span's id (0 when disabled).
    pub fn record(&self, name: impl Into<String>, tid: u32, start_us: f64, dur_us: f64) -> u64 {
        let Some(buf) = &self.buf else { return 0 };
        let span_id = next_id();
        buf.append(
            self.trace_id,
            SpanRecord {
                name: name.into(),
                tid,
                start_us,
                dur_us: dur_us.max(0.0),
                trace_id: self.trace_id,
                span_id,
                parent_id: self.parent,
            },
        );
        span_id
    }

    /// Closes the trace's root span: one span covering the whole request,
    /// from the backdated trace start to now, parented to nothing. Call
    /// once, after the response is written.
    pub fn finish_root(&self, name: impl Into<String>, tid: u32) {
        let Some(buf) = &self.buf else { return };
        buf.append(
            self.trace_id,
            SpanRecord {
                name: name.into(),
                tid,
                start_us: self.root_start_us,
                dur_us: (buf.now_us() - self.root_start_us).max(0.0),
                trace_id: self.trace_id,
                span_id: self.root_span,
                parent_id: 0,
            },
        );
    }
}

/// RAII guard from [`TraceCtx::span`]; appends the span to its trace on
/// drop.
pub struct TraceSpan {
    ctx: Option<(Arc<TraceBuffer>, u64, u64)>,
    name: String,
    tid: u32,
    start_us: f64,
    span_id: u64,
}

impl TraceSpan {
    /// This span's id (0 when disabled) — use as a child's parent.
    pub fn id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some((buf, trace_id, parent)) = self.ctx.take() {
            let record = SpanRecord {
                name: std::mem::take(&mut self.name),
                tid: self.tid,
                start_us: self.start_us,
                dur_us: buf.now_us() - self.start_us,
                trace_id,
                span_id: self.span_id,
                parent_id: parent,
            };
            buf.append(trace_id, record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }

    #[test]
    fn spans_accumulate_under_their_trace() {
        let buf = TraceBuffer::new(4, 8);
        let ctx = buf.start("POST /advise");
        assert!(ctx.is_enabled());
        {
            let _s = ctx.span("store.miss", 3);
        }
        ctx.record("parse", 3, 1.0, 2.0);
        ctx.finish_root("request", 3);
        let traces = buf.recent(10);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.label, "POST /advise");
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["store.miss", "parse", "request"]);
        // Stage spans parent to the root span; the root parents to 0.
        let root = &t.spans()[2];
        assert_eq!(root.parent_id, 0);
        assert!(t.spans()[..2].iter().all(|s| s.parent_id == root.span_id));
        assert!(t
            .spans()
            .iter()
            .all(|s| s.trace_id == t.trace_id && s.tid == 3 && s.dur_us >= 0.0));
    }

    #[test]
    fn buffer_evicts_oldest_trace() {
        let buf = TraceBuffer::new(2, 4);
        let first = buf.start("a");
        buf.start("b").finish_root("request", 0);
        buf.start("c").finish_root("request", 0);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.evicted(), 1);
        let labels: Vec<String> = buf.recent(10).into_iter().map(|t| t.label).collect();
        assert_eq!(labels, vec!["b", "c"]);
        // A late span for the evicted trace is silently dropped.
        first.record("late", 0, 0.0, 1.0);
        assert!(buf.recent(10).iter().all(|t| t.label != "a"));
    }

    #[test]
    fn resume_joins_the_original_trace() {
        let buf = TraceBuffer::new(4, 8);
        let ctx = buf.start("POST /advise");
        let root_parent = ctx.parent_span();
        let resumed = buf.resume(ctx.trace_id(), root_parent);
        {
            let _s = resumed.span("refine.run", 7);
        }
        let t = &buf.recent(1)[0];
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].name, "refine.run");
        assert_eq!(t.spans()[0].parent_id, root_parent);
        assert_eq!(buf.resume(0, 0).trace_id(), 0, "0 resumes to disabled");
    }

    #[test]
    fn disabled_buffer_hands_out_noop_contexts() {
        let buf = TraceBuffer::new(4, 8);
        buf.set_enabled(false);
        let ctx = buf.start("ignored");
        assert!(!ctx.is_enabled());
        {
            let _s = ctx.span("x", 0);
        }
        ctx.record("y", 0, 0.0, 1.0);
        ctx.finish_root("request", 0);
        assert!(buf.is_empty());
        assert_eq!(buf.started(), 0);
    }

    #[test]
    fn per_trace_span_cap_counts_overflow() {
        let buf = TraceBuffer::new(1, 2);
        let ctx = buf.start("busy");
        for i in 0..5 {
            ctx.record(format!("s{i}"), 0, 0.0, 1.0);
        }
        let t = &buf.recent(1)[0];
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans_dropped(), 3);
    }

    #[test]
    fn ambient_trace_follows_enter_guards() {
        let buf = TraceBuffer::new(2, 2);
        let outer = buf.start("req");
        let inner = buf.start("inner").child_of(42);
        let ambient = || (current_trace(), TraceCtx::current().parent_span());
        assert_eq!(ambient(), (0, 0));
        {
            let _g = outer.enter();
            assert_eq!(ambient(), (outer.trace_id(), outer.parent_span()));
            {
                let _g = inner.enter();
                assert_eq!(ambient(), (inner.trace_id(), 42));
            }
            // The inner guard restores the outer context, not "none".
            assert_eq!(ambient(), (outer.trace_id(), outer.parent_span()));
            assert!(TraceCtx::current().is_enabled());
        }
        assert_eq!(ambient(), (0, 0));
        assert!(!TraceCtx::current().is_enabled());
    }
}
