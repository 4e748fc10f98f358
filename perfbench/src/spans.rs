//! In-memory spans around the benchmark's calls into each layer, written
//! once at the end as Chrome-trace JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use t2opt_core::json::to_json_string as json;

/// One finished span. `group` is shared by every span of one request or
/// simulation; `parent` is 0 for a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub group: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// Span recorder. A disabled tracer reads no clock and stores nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

/// Spans kept in memory; later spans are still timed but only counted, so
/// a long traced run cannot grow without bound.
const MAX_SPANS: usize = 50_000;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A fresh id for a new group (request or simulation).
    pub fn new_group(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, group: u64, parent: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                name,
                id: 0,
                parent,
                group,
                start: None,
            };
        }
        SpanGuard {
            tracer: self,
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            group,
            start: Some(Instant::now()),
        }
    }

    fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Chrome-trace JSON (`traceEvents` of complete `X` events); `tid`
    /// carries the group so one request's spans share a row.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                json(&s.name),
                s.group,
                json(&s.start_us),
                json(&(s.end_us - s.start_us)),
                s.id,
                s.parent
            ));
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_spans\":{}}}}}",
            self.dropped()
        ));
        out
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    parent: u64,
    group: u64,
    start: Option<Instant>,
}

impl SpanGuard<'_> {
    /// This span's id, for parenting children to it (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let us = |t: Instant| t.duration_since(self.tracer.epoch).as_secs_f64() * 1e6;
        self.tracer.push(Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            group: self.group,
            start_us: us(start),
            end_us: us(Instant::now()),
        });
    }
}

/// Per span name: (count, total µs, self µs). Self time is a span's
/// duration minus the part of it its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_us - s.start_us;
        let covered = children.get(&s.id).map_or(0.0, |c| covered_us(c, s));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `span`.
fn covered_us(intervals: &[(f64, f64)], span: &Span) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(span.start_us), b.min(span.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: f64, end: f64) -> Span {
        Span {
            name,
            id,
            parent,
            group: 1,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 1, 0, 0.0, 100.0),
            span("a", 2, 1, 10.0, 40.0),
            span("b", 3, 1, 30.0, 50.0), // overlaps a: union is 10..50
            span("c", 4, 2, 15.0, 20.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 100.0, 60.0));
        assert_eq!(t["a"], (1, 30.0, 25.0));
        assert_eq!(t["b"], (1, 20.0, 20.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("x", 1, 0);
            assert_eq!(g.id(), 0);
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_exports() {
        let t = Tracer::new(true);
        let group = t.new_group();
        {
            let outer = t.span("outer", group, 0);
            let _inner = t.span("inner", group, outer.id());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
        let doc = t.chrome_trace();
        assert!(t2opt_core::json::parse_json(&doc).is_ok(), "{doc}");
    }
}
