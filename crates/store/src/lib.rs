//! Sharded embedded result store for layout-tuning trials.
//!
//! This crate promotes the autotuner's single-file `ResultCache` into a
//! small embedded store suitable for a long-running service:
//!
//! - **Sharding.** Keys route to one of N shards by FNV-1a 64 of the key,
//!   so concurrent writers touching different keys rarely contend.
//! - **Reader/writer locking.** Each shard sits behind a
//!   [`std::sync::RwLock`]: any number of concurrent readers, one writer.
//! - **Append-only durability.** In directory mode every accepted write is
//!   appended to the shard's JSON-lines log before the call returns;
//!   [`Store::compact`] folds the log into an atomic snapshot rewrite.
//! - **Atomic persistence.** Snapshots are written to a sibling temp file
//!   and `rename`d into place, so a reader (or a crash) never observes a
//!   partially-written file.
//! - **Metrics.** Hits, misses, appends, compactions, and per-shard
//!   occupancy via [`StoreMetrics`], publishable into a
//!   `t2opt-telemetry` [`Sink`](t2opt_telemetry::metrics::Sink).
//!
//! A 1-shard store in [`Store::single_file`] mode reads and writes the
//! exact v2 `ResultCache` JSON document, which is what lets the autotuner's
//! cache become a thin facade over this crate without breaking any
//! existing cache file or test pin.

#![warn(missing_docs)]

pub mod format;
pub mod metrics;

pub use metrics::{StoreMetrics, StoreSnapshot};

use serde::Serialize;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};
use t2opt_core::json::{parse_json, JsonValue};
use t2opt_core::layout::LayoutSpec;

/// Side-table record describing what a stored entry measured. `tag` groups
/// entries into workload families (rankings transfer *between* families,
/// absolute values never do), `chip` fences off measurements from different
/// memory systems, and `spec` is the layout the bandwidth was measured
/// under. Re-exported by `t2opt-autotune` as `cache::TrialMeta`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TrialMeta {
    /// Workload-family tag (`Workload::tag`).
    pub tag: String,
    /// Chip fingerprint, stored as a hex string: the minimal JSON parser
    /// reads numbers as `f64`, which cannot round-trip a 64-bit hash.
    pub chip: String,
    /// The candidate layout the entry measured.
    pub spec: LayoutSpec,
}

/// One stored trial: a measured (or predicted) bandwidth plus its optional
/// transfer side-table record.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Bandwidth in GB/s.
    pub gbs: f64,
    /// Transfer metadata; `None` for bare inserts.
    pub meta: Option<TrialMeta>,
}

/// Where a store keeps its bytes.
#[derive(Debug, Clone)]
enum Backing {
    /// No persistence; `save`/`compact` are no-ops.
    Memory,
    /// One shard, one v2 `ResultCache` JSON document, no side log. Writes
    /// mark the shard dirty; `save` rewrites the whole file atomically.
    SingleFile(PathBuf),
    /// N shards under a directory: `shard-<i>.json` snapshot plus
    /// `shard-<i>.log` append log, with `manifest.json` pinning the shard
    /// count so key routing is stable across reopens.
    Dir(PathBuf),
}

#[derive(Debug)]
struct Shard {
    entries: BTreeMap<String, Entry>,
    /// Entries changed since the last snapshot write.
    dirty: bool,
    /// Append log handle (directory mode only).
    log: Option<File>,
}

impl Shard {
    fn empty() -> Self {
        Shard {
            entries: BTreeMap::new(),
            dirty: false,
            log: None,
        }
    }
}

/// A sharded, content-addressed map from trial key to [`Entry`]. All
/// methods take `&self`; interior mutability is per-shard `RwLock`s.
#[derive(Debug)]
pub struct Store {
    shards: Vec<RwLock<Shard>>,
    backing: Backing,
    metrics: StoreMetrics,
}

/// Manifest document version for directory-mode stores.
const MANIFEST_VERSION: f64 = 1.0;

impl Store {
    /// An in-memory store with `n_shards` shards and no persistence.
    pub fn in_memory(n_shards: usize) -> Self {
        assert!(n_shards > 0, "store needs at least one shard");
        Store {
            shards: (0..n_shards).map(|_| RwLock::new(Shard::empty())).collect(),
            backing: Backing::Memory,
            metrics: StoreMetrics::default(),
        }
    }

    /// A 1-shard store backed by a single v2 `ResultCache` JSON file. If
    /// the file exists it is loaded (a malformed file is an `InvalidData`
    /// error — delete it to start over); otherwise the store starts empty
    /// and the file appears on the first [`Store::save`].
    pub fn single_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let store = Store {
            shards: vec![RwLock::new(Shard::empty())],
            backing: Backing::SingleFile(path.clone()),
            metrics: StoreMetrics::default(),
        };
        if path.exists() {
            let text = std::fs::read_to_string(&path)?;
            let entries = format::parse_snapshot(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt result cache {}: {e}", path.display()),
                )
            })?;
            store.write_shard(0).entries = entries;
        }
        Ok(store)
    }

    /// Opens (or creates) a directory-mode store. `n_shards` applies only
    /// on first creation; an existing `manifest.json` pins the shard count
    /// thereafter, so key→shard routing never changes under saved data.
    /// Each shard loads its snapshot, then replays its append log over it
    /// (a torn trailing record from a crash is discarded).
    pub fn open_dir(dir: impl AsRef<Path>, n_shards: usize) -> io::Result<Self> {
        assert!(n_shards > 0, "store needs at least one shard");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let manifest = dir.join("manifest.json");
        let n = if manifest.exists() {
            read_manifest(&manifest)?
        } else {
            write_atomic(
                &manifest,
                &format!(r#"{{"version":{MANIFEST_VERSION},"shards":{n_shards}}}"#),
            )?;
            n_shards
        };
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let mut shard = Shard::empty();
            let snap_path = dir.join(format!("shard-{i}.json"));
            if snap_path.exists() {
                let text = std::fs::read_to_string(&snap_path)?;
                shard.entries = format::parse_snapshot(&text).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt store shard {}: {e}", snap_path.display()),
                    )
                })?;
            }
            let log_path = dir.join(format!("shard-{i}.log"));
            if log_path.exists() {
                let text = std::fs::read_to_string(&log_path)?;
                if format::replay_log(&mut shard.entries, &text) > 0 {
                    // Replayed records are not in the snapshot yet.
                    shard.dirty = true;
                }
            }
            shard.log = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&log_path)?,
            );
            shards.push(RwLock::new(shard));
        }
        Ok(Store {
            shards,
            backing: Backing::Dir(dir),
            metrics: StoreMetrics::default(),
        })
    }

    /// Number of shards (fixed for the store's lifetime).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to: `fnv1a64(key) mod shard_count`.
    pub fn shard_for(&self, key: &str) -> usize {
        (fnv1a64(key.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// The store's counters.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Counters plus current per-shard occupancy, ready to serialize.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.metrics.snapshot(self.occupancy())
    }

    /// Entries per shard, indexed by shard number.
    pub fn occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .collect()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.occupancy().iter().sum()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks `key` up (bandwidth only), counting a hit or a miss.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.get_entry(key).map(|e| e.gbs)
    }

    /// Looks `key` up with its metadata, counting a hit or a miss.
    pub fn get_entry(&self, key: &str) -> Option<Entry> {
        let found = self.peek_entry(key);
        match found {
            Some(_) => self.metrics.hit(),
            None => self.metrics.miss(),
        }
        found
    }

    /// Looks `key` up without touching the hit/miss counters.
    pub fn peek(&self, key: &str) -> Option<f64> {
        self.peek_entry(key).map(|e| e.gbs)
    }

    /// [`Store::peek`], with metadata.
    pub fn peek_entry(&self, key: &str) -> Option<Entry> {
        self.read_shard(self.shard_for(key))
            .entries
            .get(key)
            .cloned()
    }

    /// The fundamental write primitive: atomically read-modify-write one
    /// key under its shard's write lock. `f` sees the current entry (if
    /// any) and returns the replacement, or `None` to leave the key
    /// unchanged. Returns whether the stored entry actually changed; only
    /// a change dirties the shard and appends to its log.
    pub fn update(&self, key: &str, f: impl FnOnce(Option<&Entry>) -> Option<Entry>) -> bool {
        let mut shard = self.write_shard(self.shard_for(key));
        let current = shard.entries.get(key);
        let Some(next) = f(current) else {
            return false;
        };
        if current == Some(&next) {
            return false;
        }
        if let Some(log) = &mut shard.log {
            // A failed append is not fatal: the shard stays dirty, so the
            // entry still reaches disk at the next save/compact.
            let _ = writeln!(log, "{}", format::log_line(key, &next));
        }
        shard.entries.insert(key.to_string(), next);
        shard.dirty = true;
        self.metrics.append();
        true
    }

    /// Records a bandwidth under `key`, preserving any existing metadata.
    pub fn insert(&self, key: &str, gbs: f64) {
        self.update(key, |cur| {
            Some(Entry {
                gbs,
                meta: cur.and_then(|e| e.meta.clone()),
            })
        });
    }

    /// Records a bandwidth plus its transfer metadata under `key`.
    pub fn insert_with_meta(&self, key: &str, gbs: f64, meta: TrialMeta) {
        self.update(key, |_| {
            Some(Entry {
                gbs,
                meta: Some(meta),
            })
        });
    }

    /// Monotone upgrade: stores `(gbs, meta)` only when `key` is absent or
    /// the new bandwidth is strictly better than the stored one. A refined
    /// result can therefore never be replaced by a worse one, no matter how
    /// writes race. Returns whether the entry was upgraded.
    pub fn upgrade_max(&self, key: &str, gbs: f64, meta: TrialMeta) -> bool {
        self.update(key, |cur| match cur {
            Some(e) if e.gbs >= gbs => None,
            _ => Some(Entry {
                gbs,
                meta: Some(meta),
            }),
        })
    }

    /// Cross-kernel seeding: the best layout any *foreign* workload family
    /// (different [`TrialMeta::tag`]) measured on the same chip, with shift
    /// and block offset reduced mod `period` (the memory-controller
    /// interleave period — layouts in the same residue class produce the
    /// same controller walk, so the reduction only canonicalizes).
    ///
    /// Ranking is *relative within each family*: each entry scores
    /// `gbs / family_max`, so a slow kernel's clear winner beats a fast
    /// kernel's mediocre candidate. Ties break to the lexicographically
    /// smallest key across the whole store, keeping the seed deterministic
    /// regardless of sharding.
    pub fn transfer_seed(&self, target_tag: &str, chip: &str, period: usize) -> Option<LayoutSpec> {
        assert!(period > 0, "interleave period must be positive");
        // Collect candidates from every shard into one key-ordered map so
        // the tie-break matches the historical single-map behavior.
        let mut candidates: BTreeMap<String, (f64, TrialMeta)> = BTreeMap::new();
        for lock in &self.shards {
            let shard = lock.read().unwrap_or_else(PoisonError::into_inner);
            for (key, e) in &shard.entries {
                let Some(m) = &e.meta else { continue };
                if m.tag == target_tag || m.chip != chip {
                    continue;
                }
                candidates.insert(key.clone(), (e.gbs, m.clone()));
            }
        }
        let mut family_max: BTreeMap<&str, f64> = BTreeMap::new();
        for (gbs, m) in candidates.values() {
            let best = family_max.entry(m.tag.as_str()).or_insert(f64::MIN);
            *best = best.max(*gbs);
        }
        let mut winner: Option<(f64, &TrialMeta)> = None;
        for (gbs, m) in candidates.values() {
            let fam = family_max[m.tag.as_str()];
            let score = if fam > 0.0 { gbs / fam } else { 0.0 };
            // Keys iterate ascending, so keeping `>` strict breaks ties to
            // the smallest key.
            if winner.is_none_or(|(best, _)| score > best) {
                winner = Some((score, m));
            }
        }
        winner.map(|(_, m)| {
            m.spec
                .clone()
                .shift(m.spec.shift % period)
                .block_offset(m.spec.block_offset % period)
        })
    }

    /// Persists outstanding changes in the cheapest complete way: a no-op
    /// for in-memory stores and for directory mode (where every accepted
    /// write already reached the append log); an atomic whole-file rewrite
    /// for dirty single-file stores.
    pub fn save(&self) -> io::Result<()> {
        match &self.backing {
            Backing::Memory | Backing::Dir(_) => Ok(()),
            Backing::SingleFile(path) => {
                let mut shard = self.write_shard(0);
                if !shard.dirty {
                    return Ok(());
                }
                write_atomic(path, &format::snapshot_to_string(&shard.entries))?;
                shard.dirty = false;
                Ok(())
            }
        }
    }

    /// Folds every dirty shard's state into an atomic snapshot rewrite and
    /// truncates its append log. Also the shutdown flush for directory
    /// stores. In-memory stores: no-op; single-file stores: same as
    /// [`Store::save`] but counted as a compaction.
    pub fn compact(&self) -> io::Result<()> {
        match &self.backing {
            Backing::Memory => Ok(()),
            Backing::SingleFile(path) => {
                let mut shard = self.write_shard(0);
                if !shard.dirty {
                    return Ok(());
                }
                write_atomic(path, &format::snapshot_to_string(&shard.entries))?;
                shard.dirty = false;
                self.metrics.compaction();
                Ok(())
            }
            Backing::Dir(dir) => {
                for i in 0..self.shards.len() {
                    let mut shard = self.write_shard(i);
                    if !shard.dirty {
                        continue;
                    }
                    let snap = dir.join(format!("shard-{i}.json"));
                    write_atomic(&snap, &format::snapshot_to_string(&shard.entries))?;
                    // Truncate the log only after the snapshot is durable.
                    let log_path = dir.join(format!("shard-{i}.log"));
                    shard.log = Some(
                        OpenOptions::new()
                            .create(true)
                            .write(true)
                            .truncate(true)
                            .open(&log_path)?,
                    );
                    shard.dirty = false;
                    self.metrics.compaction();
                }
                Ok(())
            }
        }
    }

    // The lock-wait histogram (`StoreMetrics::lock_wait`) measures how
    // long callers block acquiring a shard lock — the serving stack's
    // "was it store contention?" signal. Timing is off by default; when
    // off the only cost is one relaxed load per acquisition.

    fn read_shard(&self, i: usize) -> std::sync::RwLockReadGuard<'_, Shard> {
        if self.metrics.lock_timing() {
            let t0 = std::time::Instant::now();
            let guard = self.shards[i]
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            self.metrics
                .record_lock_wait(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
            guard
        } else {
            self.shards[i]
                .read()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }

    fn write_shard(&self, i: usize) -> std::sync::RwLockWriteGuard<'_, Shard> {
        if self.metrics.lock_timing() {
            let t0 = std::time::Instant::now();
            let guard = self.shards[i]
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            self.metrics
                .record_lock_wait(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
            guard
        } else {
            self.shards[i]
                .write()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }
}

fn read_manifest(path: &Path) -> io::Result<usize> {
    let corrupt = |e: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt store manifest {}: {e}", path.display()),
        )
    };
    let text = std::fs::read_to_string(path)?;
    let doc = parse_json(&text).map_err(|e| corrupt(e.to_string()))?;
    let obj = doc
        .as_object()
        .ok_or_else(|| corrupt("top level must be an object".into()))?;
    match obj.get("version").and_then(JsonValue::as_f64) {
        Some(v) if v == MANIFEST_VERSION => {}
        other => return Err(corrupt(format!("unsupported manifest version {other:?}"))),
    }
    let shards = obj
        .get("shards")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| corrupt("missing numeric field \"shards\"".into()))?;
    if shards < 1.0 || shards.fract() != 0.0 {
        return Err(corrupt(format!("invalid shard count {shards}")));
    }
    Ok(shards as usize)
}

/// Writes `text` to `path` atomically: the bytes land in a uniquely-named
/// sibling temp file first and are `rename`d into place, so concurrent
/// readers (and post-crash reopens) see either the old document or the new
/// one, never a prefix.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 over `bytes`, as the 16-hex-digit string used for trial keys
/// and chip fingerprints.
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("t2opt-store-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta(tag: &str, chip: &str, spec: LayoutSpec) -> TrialMeta {
        TrialMeta {
            tag: tag.into(),
            chip: chip.into(),
            spec,
        }
    }

    #[test]
    fn routing_covers_all_shards_and_is_deterministic() {
        let store = Store::in_memory(4);
        let mut seen = [false; 4];
        for i in 0..64 {
            let key = format!("{i:016x}");
            let shard = store.shard_for(&key);
            assert_eq!(shard, store.shard_for(&key));
            seen[shard] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 keys must touch all 4 shards");
    }

    #[test]
    fn get_counts_hits_and_misses_peek_does_not() {
        let store = Store::in_memory(2);
        assert_eq!(store.get("aa"), None);
        store.insert("aa", 7.5);
        assert_eq!(store.get("aa"), Some(7.5));
        assert_eq!(store.peek("aa"), Some(7.5));
        assert_eq!(store.peek("zz"), None);
        assert_eq!((store.metrics().hits(), store.metrics().misses()), (1, 1));
    }

    #[test]
    fn insert_preserves_meta_and_clean_writes_do_not_dirty() {
        let store = Store::in_memory(1);
        let m = meta("triad", "cafe", LayoutSpec::new().shift(64));
        store.insert_with_meta("aa", 5.0, m.clone());
        store.insert("aa", 6.0);
        assert_eq!(store.peek_entry("aa").unwrap().meta, Some(m));
        let appends = store.metrics().appends();
        store.insert("aa", 6.0);
        assert_eq!(store.metrics().appends(), appends, "no-op insert is free");
    }

    #[test]
    fn upgrade_max_is_monotone() {
        let store = Store::in_memory(1);
        let worse = meta("triad", "cafe", LayoutSpec::new());
        let better = meta("triad", "cafe", LayoutSpec::new().shift(128));
        assert!(store.upgrade_max("aa", 5.0, worse.clone()));
        assert!(!store.upgrade_max("aa", 4.0, worse));
        assert!(store.upgrade_max("aa", 6.0, better.clone()));
        let e = store.peek_entry("aa").unwrap();
        assert_eq!((e.gbs, e.meta), (6.0, Some(better)));
    }

    #[test]
    fn dir_store_replays_log_and_compacts() {
        let dir = tmp_dir("replay");
        {
            let store = Store::open_dir(&dir, 4).unwrap();
            store.insert_with_meta("aa", 1.0, meta("triad", "cafe", LayoutSpec::new()));
            store.insert("bb", 2.0);
            store.insert("aa", 3.0);
            // No compact, no save: entries must survive via the logs alone.
        }
        let store = Store::open_dir(&dir, 4).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.peek("aa"), Some(3.0));
        assert!(store.peek_entry("aa").unwrap().meta.is_some());
        store.compact().unwrap();
        assert!(store.metrics().compactions() > 0);
        // After compaction the logs are empty and snapshots carry the data.
        let reopened = Store::open_dir(&dir, 4).unwrap();
        assert_eq!(reopened.peek("bb"), Some(2.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_store_discards_torn_log_tail() {
        let dir = tmp_dir("torn");
        {
            let store = Store::open_dir(&dir, 1).unwrap();
            store.insert("aa", 1.5);
        }
        // Simulate a crash mid-append: a partial record at the log tail.
        let log = dir.join("shard-0.log");
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(br#"{"key":"bb","gb"#).unwrap();
        drop(f);
        let store = Store::open_dir(&dir, 1).unwrap();
        assert_eq!(store.peek("aa"), Some(1.5));
        assert_eq!(store.len(), 1, "torn tail must be discarded, not kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_pins_shard_count_across_reopen() {
        let dir = tmp_dir("manifest");
        {
            let store = Store::open_dir(&dir, 3).unwrap();
            store.insert("aa", 1.0);
        }
        // Asking for a different count later must not re-rout saved keys.
        let store = Store::open_dir(&dir, 8).unwrap();
        assert_eq!(store.shard_count(), 3);
        assert_eq!(store.peek("aa"), Some(1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_file_mode_round_trips_v2_documents() {
        let dir = tmp_dir("single");
        let path = dir.join("cache.json");
        let store = Store::single_file(&path).unwrap();
        store.insert_with_meta(
            "aa",
            9.0,
            meta("triad", "cafe", LayoutSpec::new().base_align(8192)),
        );
        store.save().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(r#"{"version":2,"entries":"#));
        let reloaded = Store::single_file(&path).unwrap();
        assert_eq!(reloaded.peek("aa"), Some(9.0));
        assert!(reloaded.peek_entry("aa").unwrap().meta.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_timing_records_waits_once_enabled() {
        let store = Store::in_memory(2);
        store.insert("aa", 1.0);
        assert_eq!(store.metrics().lock_wait().count, 0, "timing off: silent");
        store.metrics().set_lock_timing(true);
        store.get("aa");
        store.insert("bb", 2.0);
        assert!(store.metrics().lock_wait().count >= 2);
    }

    #[test]
    fn transfer_seed_matches_legacy_semantics_across_shards() {
        let chip = "cafe";
        let store = Store::in_memory(4);
        let good = LayoutSpec::new().base_align(8192).block_offset(128);
        store.insert_with_meta("s0", 2.0, meta("stream_mix", chip, good.clone()));
        store.insert_with_meta("s1", 0.5, meta("stream_mix", chip, LayoutSpec::new()));
        store.insert_with_meta("t0", 16.0, meta("triad", chip, good.clone().shift(64)));
        store.insert_with_meta("t1", 10.0, meta("triad", chip, LayoutSpec::new()));
        // Both family winners score 1.0; the tie breaks to the smallest
        // key "s0" even though entries are spread over four shards.
        assert_eq!(store.transfer_seed("jacobi", chip, 512), Some(good));
        assert_eq!(store.transfer_seed("stream_mix", "beef", 512), None);
    }
}
