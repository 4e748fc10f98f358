//! Exporters: Chrome-trace (`chrome://tracing` / Perfetto), Prometheus
//! text exposition, and a terminal ASCII heatmap.
//!
//! All JSON is produced through `t2opt_core::json` (the workspace's
//! dependency-free JSON writer). The Chrome-trace envelope
//! (`{"traceEvents": [...]}`) is assembled by hand around
//! serde-serialized event objects because the events have different
//! shapes, and the vendored derive writes an enum variant tagged
//! (`{"V":…}`), where Chrome traces expect bare objects.

use crate::metrics::HistogramSnapshot;
use crate::timeline::Timeline;
use crate::trace::TraceRecord;
use serde::Serialize;
use t2opt_core::json::to_json_string;

#[derive(Serialize)]
struct NameArgs {
    name: String,
}

#[derive(Serialize)]
struct MetaEvent {
    ph: String,
    pid: u32,
    tid: u32,
    name: String,
    args: NameArgs,
}

#[derive(Serialize)]
struct SliceEvent {
    ph: String,
    pid: u32,
    tid: u32,
    name: String,
    cat: String,
    ts: f64,
    dur: f64,
}

#[derive(Serialize)]
struct ValueArgs {
    value: f64,
}

#[derive(Serialize)]
struct CounterEvent {
    ph: String,
    pid: u32,
    tid: u32,
    name: String,
    ts: f64,
    args: ValueArgs,
}

/// Process id used for simulator-timeline rows in the Chrome trace.
const SIM_PID: u32 = 1;

fn meta(pid: u32, tid: u32, key: &str, name: &str) -> String {
    to_json_string(&MetaEvent {
        ph: "M".to_string(),
        pid,
        tid,
        name: key.to_string(),
        args: NameArgs {
            name: name.to_string(),
        },
    })
}

fn envelope(events: Vec<String>) -> String {
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

/// Renders a [`Timeline`] as a Chrome-trace JSON string. `cycles_per_us`
/// converts simulator cycles to trace microseconds (1200 for the 1.2 GHz
/// T2); timeline timestamps are rebased to the measurement-window open.
pub fn chrome_trace(timeline: &Timeline, cycles_per_us: f64) -> String {
    assert!(cycles_per_us > 0.0, "need a positive cycle rate");
    let us = |cycle: u64| cycle.saturating_sub(timeline.start_cycle) as f64 / cycles_per_us;
    let mut events = Vec::new();
    events.push(meta(SIM_PID, 0, "process_name", "t2opt-sim"));
    for mc in 0..timeline.n_mcs {
        events.push(meta(SIM_PID, mc as u32, "thread_name", &format!("MC{mc}")));
    }
    for w in &timeline.windows {
        for mc in 0..timeline.n_mcs {
            let busy = w.mc_busy[mc];
            if busy == 0 {
                continue;
            }
            events.push(to_json_string(&SliceEvent {
                ph: "X".to_string(),
                pid: SIM_PID,
                tid: mc as u32,
                name: "busy".to_string(),
                cat: "mc".to_string(),
                ts: us(w.start_cycle),
                dur: busy.min(timeline.interval) as f64 / cycles_per_us,
            }));
        }
        events.push(to_json_string(&CounterEvent {
            ph: "C".to_string(),
            pid: SIM_PID,
            tid: 0,
            name: "effective_parallelism".to_string(),
            ts: us(w.start_cycle),
            args: ValueArgs {
                value: w.effective_parallelism(),
            },
        }));
        events.push(to_json_string(&CounterEvent {
            ph: "C".to_string(),
            pid: SIM_PID,
            tid: 0,
            name: "nacks".to_string(),
            ts: us(w.start_cycle),
            args: ValueArgs {
                value: w.mc_nacks.iter().sum::<u64>() as f64,
            },
        }));
    }
    envelope(events)
}

#[derive(Serialize)]
struct SpanIdArgs {
    trace: String,
    span: String,
    parent: String,
}

#[derive(Serialize)]
struct TracedSliceEvent {
    ph: String,
    pid: u32,
    tid: u32,
    name: String,
    cat: String,
    ts: f64,
    dur: f64,
    args: SpanIdArgs,
}

/// Renders recent request traces (from a [`crate::trace::TraceBuffer`])
/// as Chrome-trace JSON loadable in Perfetto / `chrome://tracing`. Each
/// trace becomes its own process row named `"<label> <trace-id-hex>"`;
/// span/parent ids ride along as hex strings in `args` so the tree is
/// reconstructable from the export alone.
pub fn traces_chrome_trace(traces: &[TraceRecord]) -> String {
    let mut events = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let pid = 100 + i as u32;
        events.push(meta(
            pid,
            0,
            "process_name",
            &format!("{} {:016x}", t.label, t.trace_id),
        ));
        for s in t.spans() {
            events.push(to_json_string(&TracedSliceEvent {
                ph: "X".to_string(),
                pid,
                tid: s.tid,
                name: s.name.clone(),
                cat: "request".to_string(),
                ts: s.start_us,
                dur: s.dur_us,
                args: SpanIdArgs {
                    trace: format!("{:016x}", s.trace_id),
                    span: format!("{:016x}", s.span_id),
                    parent: format!("{:016x}", s.parent_id),
                },
            }));
        }
    }
    envelope(events)
}

/// Sanitizes an internal dotted metric name (`serve.bad_requests`) into
/// the Prometheus name charset `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escapes a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n` (the three escapes the text exposition format defines).
fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` docstring: `\` → `\\`, newline → `\n`.
fn prom_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One metric family being assembled: header lines emitted once, sample
/// lines in input order.
struct PromFamily {
    name: String,
    kind: &'static str,
    help: String,
    samples: Vec<String>,
}

fn family_mut<'a>(
    families: &'a mut Vec<PromFamily>,
    name: &str,
    kind: &'static str,
    help: String,
) -> &'a mut PromFamily {
    if let Some(i) = families.iter().position(|f| f.name == name) {
        &mut families[i]
    } else {
        families.push(PromFamily {
            name: name.to_string(),
            kind,
            help,
            samples: Vec::new(),
        });
        families.last_mut().expect("just pushed")
    }
}

/// Renders counters and histogram snapshots in the Prometheus text
/// exposition format (version 0.0.4): `# HELP`/`# TYPE` per family, all
/// of a family's samples grouped, label values escaped per the format.
///
/// `label_rules` maps an internal name *prefix* to a label name: a
/// counter `serve.bad_requests.parse` under the rule
/// `("serve.bad_requests.", "class")` renders as
/// `serve_bad_requests_total{class="parse"}`, so a family of sibling
/// counters becomes one labeled Prometheus family. Names are sanitized
/// to the Prometheus charset; counters get the conventional `_total`
/// suffix.
///
/// Histograms render with exact integer bucket bounds: the log2 bucket
/// `[2^(i-1), 2^i)` contains integers up to `2^i - 1`, so its cumulative
/// line is `le="2^i-1"` (and bucket 0, holding only the value 0, is
/// `le="0"`). Buckets above the highest non-empty one are elided; the
/// mandatory `le="+Inf"`, `_sum`, and `_count` lines always appear.
pub fn prometheus_text(
    counters: &[(String, u64)],
    histograms: &[(String, HistogramSnapshot)],
    label_rules: &[(&str, &str)],
) -> String {
    let mut families: Vec<PromFamily> = Vec::new();
    for (name, value) in counters {
        let rule = label_rules
            .iter()
            .find(|(prefix, _)| name.starts_with(prefix) && name.len() > prefix.len());
        match rule {
            Some((prefix, label)) => {
                let base = prefix.trim_end_matches('.');
                let fam_name = format!("{}_total", prom_name(base));
                let fam = family_mut(
                    &mut families,
                    &fam_name,
                    "counter",
                    format!("t2opt counter family {base}"),
                );
                fam.samples.push(format!(
                    "{fam_name}{{{label}=\"{}\"}} {value}",
                    prom_label_value(&name[prefix.len()..])
                ));
            }
            None => {
                let fam_name = format!("{}_total", prom_name(name));
                let fam = family_mut(
                    &mut families,
                    &fam_name,
                    "counter",
                    format!("t2opt counter {name}"),
                );
                fam.samples.push(format!("{fam_name} {value}"));
            }
        }
    }
    for (name, snap) in histograms {
        let fam_name = prom_name(name);
        let fam = family_mut(
            &mut families,
            &fam_name,
            "histogram",
            format!("t2opt log2-bucket histogram {name}"),
        );
        let highest = snap
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, &c) in snap.buckets.iter().take(highest).enumerate() {
            cumulative += c;
            let le: u128 = if i == 0 { 0 } else { (1u128 << i) - 1 };
            fam.samples
                .push(format!("{fam_name}_bucket{{le=\"{le}\"}} {cumulative}"));
        }
        fam.samples.push(format!(
            "{fam_name}_bucket{{le=\"+Inf\"}} {}",
            cumulative.max(snap.count)
        ));
        fam.samples.push(format!("{fam_name}_sum {}", snap.sum));
        fam.samples
            .push(format!("{fam_name}_count {}", cumulative.max(snap.count)));
    }
    let mut out = String::new();
    for fam in families {
        out.push_str(&format!("# HELP {} {}\n", fam.name, prom_help(&fam.help)));
        out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind));
        for s in fam.samples {
            out.push_str(&s);
            out.push('\n');
        }
    }
    out
}

/// Utilization shade ramp, lowest to highest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders a `cycles × MC` utilization heatmap for the terminal: one row
/// per controller, one column per (group of) window(s), shaded by busy
/// fraction, plus an `eff` row showing each column's effective parallelism
/// as a digit.
pub fn ascii_heatmap(timeline: &Timeline, max_cols: usize) -> String {
    let max_cols = max_cols.max(1);
    let n = timeline.windows.len();
    if n == 0 {
        return "MC heatmap: (empty timeline)\n".to_string();
    }
    let group = n.div_ceil(max_cols);
    let cols = n.div_ceil(group);
    let mut out = format!(
        "MC utilization heatmap: cycles {}..{} ({} windows of {} cycles, {} per column)\n",
        timeline.start_cycle, timeline.end_cycle, n, timeline.interval, group,
    );
    for mc in 0..timeline.n_mcs {
        out.push_str(&format!("  MC{mc} |"));
        for c in 0..cols {
            let lo = c * group;
            let hi = (lo + group).min(n);
            let mean: f64 =
                (lo..hi).map(|w| timeline.utilization(w, mc)).sum::<f64>() / (hi - lo) as f64;
            let idx = (mean * (RAMP.len() - 1) as f64).round() as usize;
            out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
        }
        out.push_str("|\n");
    }
    out.push_str("  eff |");
    for c in 0..cols {
        let lo = c * group;
        let hi = (lo + group).min(n);
        let mean: f64 = (lo..hi)
            .map(|w| timeline.windows[w].effective_parallelism())
            .sum::<f64>()
            / (hi - lo) as f64;
        let digit = (mean.round() as u64).min(9);
        out.push(char::from_digit(digit as u32, 10).unwrap_or('9'));
    }
    out.push_str("|\n");
    out.push_str(&format!(
        "  shade: '{}' = idle … '{}' = saturated; eff = Σbusy/max busy per column\n",
        RAMP[0] as char,
        RAMP[RAMP.len() - 1] as char,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::SimProbe;
    use crate::timeline::{StreamLabel, Timeline, TimelineRecorder, TraceConfig};
    use t2opt_core::json::parse_json;

    fn sample_timeline() -> Timeline {
        let cfg = TraceConfig::with_interval(100)
            .streams(vec![StreamLabel::new("A", 0), StreamLabel::new("B", 512)]);
        let mut r = TimelineRecorder::new(4, &cfg);
        r.mc_service(0, 10, 80, 4, false);
        r.mc_service(1, 120, 60, 2, true);
        r.nack(130, 1, 1, 3, true);
        r.finish(200)
    }

    #[test]
    fn chrome_trace_parses_and_has_events() {
        let t = sample_timeline();
        let json = chrome_trace(&t, 1200.0);
        let v = parse_json(&json).expect("valid JSON");
        let events = v
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert!(events.len() >= 8);
        // Every event has a ph.
        assert!(events
            .iter()
            .all(|e| e.as_object().and_then(|o| o.get("ph")).is_some()));
    }

    #[test]
    fn heatmap_renders_all_mcs() {
        let t = sample_timeline();
        let map = ascii_heatmap(&t, 80);
        assert!(map.contains("MC0"));
        assert!(map.contains("MC3"));
        assert!(map.contains("eff"));
        // Window 0 has MC0 at 80% busy → a dense shade in row MC0.
        let mc0_row = map.lines().find(|l| l.contains("MC0")).unwrap();
        assert!(mc0_row.contains('%') || mc0_row.contains('@') || mc0_row.contains('#'));
    }

    #[test]
    fn heatmap_groups_windows_to_fit() {
        let t = sample_timeline();
        let map = ascii_heatmap(&t, 1);
        let mc0_row = map.lines().find(|l| l.contains("MC0")).unwrap();
        let cells = mc0_row.split('|').nth(1).unwrap();
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn empty_timeline_heatmap_is_graceful() {
        let cfg = TraceConfig::default();
        let t = TimelineRecorder::new(4, &cfg).finish(0);
        assert!(ascii_heatmap(&t, 80).contains("empty"));
    }

    #[test]
    fn traces_chrome_trace_is_perfetto_shaped() {
        let buf = crate::trace::TraceBuffer::new(4, 8);
        let ctx = buf.start("POST /advise");
        ctx.record("parse", 1, 0.5, 1.0);
        {
            let _s = ctx.span("store.miss", 1);
        }
        ctx.finish_root("request", 1);
        buf.start("GET /metrics").finish_root("request", 2);

        let json = traces_chrome_trace(&buf.recent(10));
        let v = parse_json(&json).expect("valid JSON");
        let events = v
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(|e| e.as_array())
            .expect("traceEvents array")
            .to_vec();
        // 2 process-name metas + 3 spans + 1 span.
        assert_eq!(events.len(), 6);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.as_object().unwrap()["ph"].as_str() == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        // Each trace gets its own pid row.
        let pids: std::collections::BTreeSet<i64> = metas
            .iter()
            .map(|e| e.as_object().unwrap()["pid"].as_f64().unwrap() as i64)
            .collect();
        assert_eq!(pids.len(), 2);
        // X events carry the span-id args for tree reconstruction.
        let x = events
            .iter()
            .map(|e| e.as_object().unwrap())
            .find(|o| o["ph"].as_str() == Some("X"))
            .unwrap();
        let args = x["args"].as_object().unwrap();
        for key in ["trace", "span", "parent"] {
            assert_eq!(args[key].as_str().map(str::len), Some(16), "{key} is hex64");
        }
    }

    #[test]
    fn prometheus_counters_group_into_labeled_families() {
        let counters = vec![
            ("serve.bad_requests.chip".to_string(), 2),
            ("serve.bad_requests.parse".to_string(), 5),
            ("serve.requests".to_string(), 40),
        ];
        let text = prometheus_text(&counters, &[], &[("serve.bad_requests.", "class")]);
        let lines: Vec<&str> = text.lines().collect();
        // One header pair per family, samples grouped under it.
        assert_eq!(
            lines
                .iter()
                .filter(|l| *l == &"# TYPE serve_bad_requests_total counter")
                .count(),
            1
        );
        assert!(lines.contains(&"serve_bad_requests_total{class=\"chip\"} 2"));
        assert!(lines.contains(&"serve_bad_requests_total{class=\"parse\"} 5"));
        assert!(lines.contains(&"serve_requests_total 40"));
        assert!(lines.contains(&"# TYPE serve_requests_total counter"));
    }

    #[test]
    fn prometheus_histogram_lines_are_cumulative_with_exact_bounds() {
        let h = crate::metrics::Histogram::new();
        h.record(0);
        h.record(1);
        h.record(100); // bucket 7
        h.record(100);
        let text = prometheus_text(
            &[],
            &[("serve.latency.cache_tier_us".to_string(), h.snapshot())],
            &[],
        );
        let expected = "\
# HELP serve_latency_cache_tier_us t2opt log2-bucket histogram serve.latency.cache_tier_us
# TYPE serve_latency_cache_tier_us histogram
serve_latency_cache_tier_us_bucket{le=\"0\"} 1
serve_latency_cache_tier_us_bucket{le=\"1\"} 2
serve_latency_cache_tier_us_bucket{le=\"3\"} 2
serve_latency_cache_tier_us_bucket{le=\"7\"} 2
serve_latency_cache_tier_us_bucket{le=\"15\"} 2
serve_latency_cache_tier_us_bucket{le=\"31\"} 2
serve_latency_cache_tier_us_bucket{le=\"63\"} 2
serve_latency_cache_tier_us_bucket{le=\"127\"} 4
serve_latency_cache_tier_us_bucket{le=\"+Inf\"} 4
serve_latency_cache_tier_us_sum 201
serve_latency_cache_tier_us_count 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_empty_histogram_still_has_inf_sum_count() {
        let h = crate::metrics::Histogram::new();
        let text = prometheus_text(&[], &[("x".to_string(), h.snapshot())], &[]);
        assert!(text.contains("x_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("x_sum 0\n"));
        assert!(text.contains("x_count 0\n"));
    }

    #[test]
    fn prometheus_label_escaping_golden() {
        // Exact-format golden: backslash, double quote, and newline in a
        // label value must escape per the text exposition format.
        let counters = vec![(
            "lbl.a\\b\"c\nd".to_string(),
            1, //
        )];
        let text = prometheus_text(&counters, &[], &[("lbl.", "v")]);
        let expected = "\
# HELP lbl_total t2opt counter family lbl
# TYPE lbl_total counter
lbl_total{v=\"a\\\\b\\\"c\\nd\"} 1
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        let text = prometheus_text(&[("1weird-name.x".to_string(), 3)], &[], &[]);
        assert!(text.contains("_1weird_name_x_total 3"));
    }
}
