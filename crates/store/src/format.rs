//! On-disk codecs: the v2 single-file snapshot format inherited from the
//! autotuner's `ResultCache`, and the JSON-lines append-log record.
//!
//! The snapshot format is byte-compatible with what `ResultCache::save`
//! has written since version 2, so existing v2 cache files keep loading
//! and files written through the store keep loading in old checkouts:
//!
//! ```json
//! {"version":2,"entries":{"89ab…":12.5},"meta":{"89ab…":{"tag":"triad",…}}}
//! ```
//!
//! Any other version, including the meta-less version 1, is rejected as
//! unsupported. The append log is one JSON object per line —
//! `{"key":"…","gbs":12.5,"meta":{…}}` — replayed over the snapshot on
//! open. A torn final line (the crash case an append-only log exists for)
//! is discarded, never an error.

use crate::{Entry, TrialMeta};
use std::collections::BTreeMap;
use t2opt_core::json::{parse_json, to_json_string, JsonValue};
use t2opt_core::layout::LayoutSpec;
use t2opt_core::mapping::PagePlacement;

/// Snapshot format version; bump when the entry semantics change in a way
/// that invalidates old measurements.
pub const FORMAT_VERSION: f64 = 2.0;

/// Serializes a shard's entries as a v2 snapshot document.
pub fn snapshot_to_string(entries: &BTreeMap<String, Entry>) -> String {
    let values: BTreeMap<&str, f64> = entries.iter().map(|(k, e)| (k.as_str(), e.gbs)).collect();
    let meta: BTreeMap<&str, &TrialMeta> = entries
        .iter()
        .filter_map(|(k, e)| e.meta.as_ref().map(|m| (k.as_str(), m)))
        .collect();
    format!(
        r#"{{"version":{FORMAT_VERSION},"entries":{},"meta":{}}}"#,
        to_json_string(&values),
        to_json_string(&meta)
    )
}

/// Parses a v2 snapshot document into an entry table.
pub fn parse_snapshot(text: &str) -> Result<BTreeMap<String, Entry>, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let obj = doc.as_object().ok_or("top level must be an object")?;
    match obj.get("version").and_then(JsonValue::as_f64) {
        Some(v) if v == FORMAT_VERSION => {}
        other => return Err(format!("unsupported cache version {other:?}")),
    }
    let mut entries: BTreeMap<String, Entry> = obj
        .get("entries")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"entries\" object")?
        .iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|gbs| (k.clone(), Entry { gbs, meta: None }))
                .ok_or_else(|| format!("entry {k:?} is not a number"))
        })
        .collect::<Result<_, _>>()?;
    if let Some(table) = obj.get("meta").and_then(JsonValue::as_object) {
        for (k, v) in table {
            let meta = parse_meta(v).map_err(|e| format!("meta {k:?}: {e}"))?;
            // Meta without a value row is tolerated but unreachable data;
            // attach it only where an entry exists.
            if let Some(entry) = entries.get_mut(k) {
                entry.meta = Some(meta);
            }
        }
    }
    Ok(entries)
}

/// Serializes one append-log record — a key plus its entry, self-delimited
/// by the newline the log writer appends (no trailing newline here).
pub fn log_line(key: &str, entry: &Entry) -> String {
    let head = format!(
        r#"{{"key":{},"gbs":{}"#,
        to_json_string(&key),
        to_json_string(&entry.gbs)
    );
    match &entry.meta {
        Some(m) => format!("{head},\"meta\":{}}}", to_json_string(m)),
        None => format!("{head}}}"),
    }
}

/// Parses one log line back into `(key, entry)`.
pub fn parse_log_line(line: &str) -> Result<(String, Entry), String> {
    let doc = parse_json(line).map_err(|e| e.to_string())?;
    let obj = doc.as_object().ok_or("log record must be an object")?;
    let key = obj
        .get("key")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"key\"")?
        .to_owned();
    let gbs = obj
        .get("gbs")
        .and_then(JsonValue::as_f64)
        .ok_or("missing numeric field \"gbs\"")?;
    let meta = match obj.get("meta") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(parse_meta(v)?),
    };
    Ok((key, Entry { gbs, meta }))
}

/// Parses one `TrialMeta` object (shared by the snapshot and log codecs).
pub fn parse_meta(v: &JsonValue) -> Result<TrialMeta, String> {
    let obj = v.as_object().ok_or("must be an object")?;
    let field_str = |name: &str| -> Result<String, String> {
        obj.get(name)
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field {name:?}"))
    };
    let spec = obj
        .get("spec")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"spec\" object")?;
    let field_usize = |name: &str| -> Result<usize, String> {
        spec.get(name)
            .and_then(JsonValue::as_f64)
            .map(|f| f as usize)
            .ok_or_else(|| format!("missing numeric spec field {name:?}"))
    };
    let (ba, sa) = (field_usize("base_align")?, field_usize("seg_align")?);
    for (name, v) in [("base_align", ba), ("seg_align", sa)] {
        if !v.max(1).is_power_of_two() {
            return Err(format!("spec field {name:?} = {v} is not a power of two"));
        }
    }
    // The serializer spells a placement by its variant name. Files from
    // before the placement axis lack the field: they were all first-touch.
    let placement = match spec.get("placement") {
        None => PagePlacement::FirstTouch,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or("spec field \"placement\" is not a string")?;
            PagePlacement::ALL
                .into_iter()
                .find(|p| to_json_string(p) == to_json_string(&name))
                .ok_or_else(|| format!("unknown spec placement {name:?}"))?
        }
    };
    Ok(TrialMeta {
        tag: field_str("tag")?,
        chip: field_str("chip")?,
        // Rebuild through the setters so loaded specs are canonical.
        spec: LayoutSpec::new()
            .base_align(ba)
            .seg_align(sa)
            .shift(field_usize("shift")?)
            .block_offset(field_usize("block_offset")?)
            .placement(placement),
    })
}

/// Replays an append log over `entries`, last record per key winning. A
/// malformed line ends the replay (the expected case is a torn tail from a
/// crash mid-append); the number of applied records is returned.
pub fn replay_log(entries: &mut BTreeMap<String, Entry>, text: &str) -> usize {
    let mut applied = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_log_line(line) {
            Ok((key, entry)) => {
                entries.insert(key, entry);
                applied += 1;
            }
            Err(_) => break,
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(gbs: f64, meta: Option<TrialMeta>) -> Entry {
        Entry { gbs, meta }
    }

    fn meta(tag: &str) -> TrialMeta {
        TrialMeta {
            tag: tag.into(),
            chip: "cafe".into(),
            spec: LayoutSpec::new().base_align(8192).shift(128),
        }
    }

    #[test]
    fn snapshot_round_trips_and_matches_legacy_bytes() {
        let mut entries = BTreeMap::new();
        entries.insert("aa".to_string(), entry(1.25, None));
        entries.insert("bb".to_string(), entry(2.5, Some(meta("triad"))));
        let text = snapshot_to_string(&entries);
        // The legacy ResultCache layout: version, entries map, meta map.
        assert_eq!(
            text,
            concat!(
                r#"{"version":2,"entries":{"aa":1.25,"bb":2.5},"meta":{"bb":{"tag":"triad","#,
                r#""chip":"cafe","spec":{"base_align":8192,"seg_align":1,"shift":128,"#,
                r#""block_offset":0,"placement":"FirstTouch"}}}}"#
            )
        );
        let back = parse_snapshot(&text).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn unknown_versions_and_garbage_are_errors() {
        assert!(parse_snapshot(r#"{"version":1,"entries":{"aa":3.5}}"#).is_err());
        assert!(parse_snapshot(r#"{"version":99,"entries":{}}"#).is_err());
        assert!(parse_snapshot("{not json").is_err());
        assert!(parse_snapshot(r#"{"version":2}"#).is_err());
    }

    #[test]
    fn log_line_with_meta_matches_legacy_bytes() {
        let mut m = meta("lbm_IvJK");
        m.spec = m.spec.block_offset(64).placement(PagePlacement::Remote);
        assert_eq!(
            log_line("89ab", &entry(0.1, Some(m))),
            concat!(
                r#"{"key":"89ab","gbs":0.1,"meta":{"tag":"lbm_IvJK","chip":"cafe","#,
                r#""spec":{"base_align":8192,"seg_align":1,"shift":128,"block_offset":64,"#,
                r#""placement":"Remote"}}}"#
            )
        );
    }

    #[test]
    fn log_lines_round_trip() {
        for e in [entry(7.5, None), entry(0.25, Some(meta("jacobi")))] {
            let line = log_line("89ab", &e);
            assert!(!line.contains('\n'));
            let (k, back) = parse_log_line(&line).unwrap();
            assert_eq!(k, "89ab");
            assert_eq!(back, e);
        }
    }

    #[test]
    fn placements_round_trip_through_both_codecs() {
        for placement in PagePlacement::ALL {
            let mut m = meta("triad");
            m.spec = m.spec.placement(placement);
            let e = entry(4.5, Some(m));
            let snapshot = snapshot_to_string(&BTreeMap::from([("aa".to_string(), e.clone())]));
            assert_eq!(parse_snapshot(&snapshot).unwrap()["aa"], e, "{placement:?}");
            let (_, back) = parse_log_line(&log_line("aa", &e)).unwrap();
            assert_eq!(back, e, "{placement:?}");
        }
    }

    #[test]
    fn placement_defaults_to_first_touch_and_unknown_names_are_errors() {
        let spec = r#""spec":{"base_align":64,"seg_align":1,"shift":0,"block_offset":0"#;
        let line = |tail: &str| {
            format!(r#"{{"key":"aa","gbs":1,"meta":{{"tag":"t","chip":"c",{spec}{tail}}}}}}}"#)
        };
        let (_, e) = parse_log_line(&line("")).unwrap();
        assert_eq!(e.meta.unwrap().spec.placement, PagePlacement::FirstTouch);
        assert!(parse_log_line(&line(r#","placement":"remote""#)).is_err());
        assert!(parse_log_line(&line(r#","placement":2"#)).is_err());
    }

    #[test]
    fn replay_applies_last_write_and_discards_torn_tail() {
        let mut entries = BTreeMap::new();
        let text = format!(
            "{}\n{}\n{}",
            log_line("aa", &entry(1.0, None)),
            log_line("aa", &entry(2.0, Some(meta("triad")))),
            // A torn tail: the crash case. Must be discarded silently.
            r#"{"key":"bb","gb"#
        );
        assert_eq!(replay_log(&mut entries, &text), 2);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries["aa"].gbs, 2.0);
        assert!(entries["aa"].meta.is_some());
    }
}
