//! Persistent, content-addressed trial-result cache.
//!
//! Every simulated trial is fully determined by `(workload, chip config,
//! candidate layout)`; its measured bandwidth is therefore cacheable under a
//! hash of that triple. The cache keys on the FNV-1a 64 digest of the
//! triple's canonical JSON serialization, so *any* change to the workload,
//! the chip, or the candidate produces a fresh key, while re-running the
//! same sweep (or extending it) reuses every previous trial — repeated
//! sweeps and CI runs are incremental.
//!
//! Since the `t2opt-store` crate landed, [`ResultCache`] is a thin
//! compatibility facade over a 1-shard [`t2opt_store::Store`] in
//! single-file mode: the on-disk format is the same single JSON object
//! (human-inspectable and diff-friendly), saves are crash-safe (temp file +
//! atomic rename), and the hit/miss counters ride on the store's metrics:
//!
//! ```json
//! {"version":2,"entries":{"89ab…":12.5},"meta":{"89ab…":{"tag":"triad",…}}}
//! ```
//!
//! Version 2 adds the optional `meta` side-table: for each key, the
//! workload-family tag, a chip fingerprint, and the candidate layout. That
//! is what makes the cache *transferable across kernels*: the exact keys of
//! a triad sweep never match a Jacobi or LBM trial, but the layouts that
//! ranked best under the same chip live in the same mod-512 residue classes
//! (the T2's controller interleave is pure address arithmetic), so
//! [`ResultCache::transfer_seed`] can hand a new search the best *foreign*
//! layout as its starting point.

use crate::workload::Workload;
use std::path::Path;
use t2opt_core::json::to_json_string;
use t2opt_core::layout::LayoutSpec;
use t2opt_sim::ChipConfig;
use t2opt_store::{fnv1a64_hex, Store};

pub use t2opt_store::TrialMeta;

/// A content-addressed map from trial key to measured bandwidth (GB/s),
/// optionally backed by a JSON file. See the module docs.
#[derive(Debug)]
pub struct ResultCache {
    store: Store,
}

impl ResultCache {
    /// An empty cache with no backing file (every sweep starts cold;
    /// [`ResultCache::save`] is a no-op).
    pub fn in_memory() -> Self {
        ResultCache {
            store: Store::in_memory(1),
        }
    }

    /// A cache backed by `path`. If the file exists it is loaded (a
    /// malformed file is an `InvalidData` error — delete it to start over);
    /// if not, the cache starts empty and the file is created on
    /// [`ResultCache::save`].
    pub fn at_path(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(ResultCache {
            store: Store::single_file(path)?,
        })
    }

    /// The content address of one trial: FNV-1a 64 (hex) over the canonical
    /// JSON of `(workload, chip, candidate)`.
    pub fn key(workload: &Workload, chip: &ChipConfig, spec: &LayoutSpec) -> String {
        fnv1a64_hex(to_json_string(&(workload, chip, spec)).as_bytes())
    }

    /// Looks `key` up, counting the outcome as a hit or a miss.
    pub fn get(&mut self, key: &str) -> Option<f64> {
        self.store.get(key)
    }

    /// Looks `key` up without touching the hit/miss counters.
    pub fn peek(&self, key: &str) -> Option<f64> {
        self.store.peek(key)
    }

    /// Records a measured bandwidth under `key`, preserving any transfer
    /// metadata already stored there.
    pub fn insert(&mut self, key: String, gbs: f64) {
        self.store.insert(&key, gbs);
    }

    /// Records a measured bandwidth plus the transfer side-table record
    /// describing it (see [`TrialMeta`]); entries inserted this way become
    /// visible to [`ResultCache::transfer_seed`].
    pub fn insert_with_meta(&mut self, key: String, gbs: f64, meta: TrialMeta) {
        self.store.insert_with_meta(&key, gbs, meta);
    }

    /// FNV-1a 64 fingerprint (hex) of a chip's canonical JSON — the fence
    /// [`ResultCache::transfer_seed`] uses to keep layouts measured on one
    /// memory system from seeding searches on another.
    pub fn chip_fingerprint(chip: &ChipConfig) -> String {
        fnv1a64_hex(to_json_string(chip).as_bytes())
    }

    /// Cross-kernel seeding: the best layout any *foreign* workload family
    /// (different [`TrialMeta::tag`]) measured on the same chip, with its
    /// shift and block offset reduced mod `period` (the memory-controller
    /// interleave period — on the T2, 512 B; layouts in the same residue
    /// class produce the same controller walk, so the reduction only
    /// canonicalizes, never changes behavior).
    ///
    /// Ranking is *relative within each family*: each entry scores
    /// `gbs / family_max`, so a slow kernel's clear winner beats a fast
    /// kernel's mediocre candidate. Absolute bandwidths never transfer.
    /// Ties break to the lexicographically smallest key, keeping the seed
    /// deterministic for a given cache state.
    pub fn transfer_seed(&self, target_tag: &str, chip: &str, period: usize) -> Option<LayoutSpec> {
        self.store.transfer_seed(target_tag, chip, period)
    }

    /// Writes the cache back to its backing file — atomically, via a
    /// sibling temp file and `rename`, so a concurrent reader (or a crash
    /// mid-save) never observes a partially-written document. A no-op for
    /// in-memory caches and when nothing changed since the last load/save.
    pub fn save(&mut self) -> std::io::Result<()> {
        self.store.save()
    }

    /// Number of cached trials.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the cache holds no trials.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Lookups served from the cache since the last counter reset.
    pub fn hits(&self) -> u64 {
        self.store.metrics().hits()
    }

    /// Lookups that required a fresh simulation since the last counter
    /// reset.
    pub fn misses(&self) -> u64 {
        self.store.metrics().misses()
    }

    /// Zeroes the hit/miss counters (e.g. between tuner invocations that
    /// share one cache).
    pub fn reset_counters(&mut self) {
        self.store.metrics().reset_hit_miss();
    }

    /// The underlying 1-shard store (read-only), for callers that want its
    /// metrics snapshot or occupancy.
    pub fn store(&self) -> &Store {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("t2opt-autotune-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let chip = ChipConfig::ultrasparc_t2();
        let w = Workload::triad_smoke(1 << 10, 8);
        let spec = LayoutSpec::new().base_align(8192);
        let k1 = ResultCache::key(&w, &chip, &spec);
        let k2 = ResultCache::key(&w, &chip, &spec);
        assert_eq!(k1, k2, "same triple, same key");
        assert_eq!(k1.len(), 16);

        let other_spec = ResultCache::key(&w, &chip, &spec.clone().block_offset(128));
        assert_ne!(k1, other_spec, "candidate must be part of the address");
        let other_load = ResultCache::key(&Workload::triad_smoke(1 << 11, 8), &chip, &spec);
        assert_ne!(k1, other_load, "workload must be part of the address");
    }

    #[test]
    fn key_and_fingerprint_cover_the_full_numa_configuration() {
        // The cache is addressed by the chip's full configuration, not its
        // preset name: two chips differing only in socket topology, and
        // two layout specs differing only in page placement, must never
        // alias onto one record.
        let w = Workload::triad_smoke(1 << 10, 8);
        let spec = LayoutSpec::new().base_align(8192);
        let flat = ChipConfig::ultrasparc_t2();
        let mut numa = ChipConfig::ultrasparc_t2();
        numa.numa.n_sockets = 2;
        numa.numa.remote_read_extra = 120;
        assert_ne!(
            ResultCache::key(&w, &flat, &spec),
            ResultCache::key(&w, &numa, &spec),
            "socket topology must be part of the address"
        );
        assert_ne!(
            ResultCache::chip_fingerprint(&flat),
            ResultCache::chip_fingerprint(&numa),
            "socket topology must be part of the fingerprint"
        );

        let remote = spec
            .clone()
            .placement(t2opt_core::mapping::PagePlacement::Remote);
        assert_ne!(
            ResultCache::key(&w, &flat, &spec),
            ResultCache::key(&w, &flat, &remote),
            "page placement must be part of the address"
        );
    }

    #[test]
    fn keys_and_fingerprints_are_byte_stable() {
        // Every `--cache` file and store directory is addressed by these
        // digests of the JSON writer's output, so a change in the bytes it
        // writes for a chip, a workload or a layout orphans every entry
        // written before it. The literals were captured before the writer
        // was last rewritten.
        use t2opt_core::chip::{ChipSpec, PRESET_NAMES};
        use t2opt_core::mapping::PagePlacement;
        use t2opt_kernels::lbm::LbmLayout;

        let fingerprints: Vec<String> = PRESET_NAMES
            .iter()
            .map(|name| {
                let spec = ChipSpec::preset(name).expect("registry names resolve");
                ResultCache::chip_fingerprint(&ChipConfig::from_spec(&spec))
            })
            .collect();
        assert_eq!(
            fingerprints,
            [
                "4a43f835f548a684",
                "abf9dad4378003f7",
                "c04b9200499ef275",
                "6501a83c123db868",
                "7b9fc705826a495e",
                "e3bc883ac2e0299b",
            ]
        );

        let chip = ChipConfig::ultrasparc_t2();
        let spec = LayoutSpec::new()
            .base_align(8192)
            .seg_align(512)
            .shift(128)
            .block_offset(64)
            .placement(PagePlacement::Interleave);
        let workloads = [
            Workload::StreamMix {
                reads: 2,
                writes: 1,
                n: 1 << 12,
                threads: 16,
                ntimes: 1,
                warmup: false,
            },
            Workload::triad(1 << 20, 64),
            Workload::jacobi_smoke(64, 8),
            Workload::lbm_smoke(16, LbmLayout::IvJK, 32),
        ];
        let keys: Vec<String> = workloads
            .iter()
            .map(|w| ResultCache::key(w, &chip, &spec))
            .collect();
        assert_eq!(
            keys,
            [
                "e79e46565394dbe7",
                "23c72e1c31dfd933",
                "327c8b620da1c617",
                "993aeaeea61ceae1",
            ]
        );
    }

    #[test]
    fn canonical_specs_share_a_key() {
        // seg_align 0 and 1 normalize to the same spec, so they must hit
        // the same cache line.
        let chip = ChipConfig::ultrasparc_t2();
        let w = Workload::triad_smoke(1 << 10, 8);
        assert_eq!(
            ResultCache::key(&w, &chip, &LayoutSpec::new().seg_align(0)),
            ResultCache::key(&w, &chip, &LayoutSpec::new().seg_align(1)),
        );
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = ResultCache::in_memory();
        assert_eq!(c.get("00"), None);
        c.insert("00".into(), 7.5);
        assert_eq!(c.get("00"), Some(7.5));
        assert_eq!(c.get("01"), None);
        assert_eq!((c.hits(), c.misses()), (1, 2));
        c.reset_counters();
        assert_eq!((c.hits(), c.misses()), (0, 0));
    }

    #[test]
    fn round_trips_through_disk() {
        let path = tmp_path("roundtrip.json");
        let _ = std::fs::remove_file(&path);
        let mut c = ResultCache::at_path(&path).unwrap();
        c.insert("aa".into(), 1.25);
        c.insert("bb".into(), 2.5);
        c.save().unwrap();

        let mut reloaded = ResultCache::at_path(&path).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get("aa"), Some(1.25));
        assert_eq!(reloaded.get("bb"), Some(2.5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_without_changes_is_cheap_and_corrupt_files_error() {
        let path = tmp_path("corrupt.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = ResultCache::at_path(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);

        let mut mem = ResultCache::in_memory();
        mem.insert("aa".into(), 1.0);
        mem.save().unwrap();
    }

    #[test]
    fn rejects_unknown_version() {
        let path = tmp_path("version.json");
        std::fs::write(&path, r#"{"version":99,"entries":{}}"#).unwrap();
        assert!(ResultCache::at_path(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    fn meta(tag: &str, chip: &str, spec: LayoutSpec) -> TrialMeta {
        TrialMeta {
            tag: tag.into(),
            chip: chip.into(),
            spec,
        }
    }

    #[test]
    fn meta_round_trips_through_disk() {
        let path = tmp_path("meta_roundtrip.json");
        let _ = std::fs::remove_file(&path);
        let chip = ResultCache::chip_fingerprint(&ChipConfig::ultrasparc_t2());
        let spec = LayoutSpec::new().base_align(8192).seg_align(512).shift(128);
        let mut c = ResultCache::at_path(&path).unwrap();
        c.insert_with_meta("aa".into(), 9.0, meta("triad", &chip, spec.clone()));
        c.save().unwrap();

        let reloaded = ResultCache::at_path(&path).unwrap();
        assert_eq!(
            reloaded.transfer_seed("jacobi", &chip, 512),
            Some(spec),
            "meta must survive a save/load cycle"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transfer_seed_ranks_relatively_within_families() {
        let chip = "cafe";
        let mut c = ResultCache::in_memory();
        // Slow family: clear winner at 2 GB/s (score 1.0 on "good").
        let good = LayoutSpec::new().base_align(8192).block_offset(128);
        c.insert_with_meta("s0".into(), 2.0, meta("stream_mix", chip, good.clone()));
        c.insert_with_meta(
            "s1".into(),
            0.5,
            meta("stream_mix", chip, LayoutSpec::new()),
        );
        // Fast family: higher absolute bandwidths, but "bad" is only its
        // runner-up (score 10/16 < 1.0).
        c.insert_with_meta(
            "t0".into(),
            16.0,
            meta("triad", chip, good.clone().shift(64)),
        );
        c.insert_with_meta("t1".into(), 10.0, meta("triad", chip, LayoutSpec::new()));
        let seed = c.transfer_seed("jacobi", chip, 512).unwrap();
        // Both family winners score 1.0; the tie breaks to the smaller
        // key "s0" — proving absolute bandwidth does not leak across.
        assert_eq!(seed, good);
    }

    #[test]
    fn transfer_seed_skips_own_family_and_foreign_chips() {
        let mut c = ResultCache::in_memory();
        c.insert_with_meta(
            "j0".into(),
            99.0,
            meta("jacobi", "cafe", LayoutSpec::new().shift(64)),
        );
        c.insert_with_meta(
            "x0".into(),
            99.0,
            meta("triad", "beef", LayoutSpec::new().shift(64)),
        );
        assert_eq!(
            c.transfer_seed("jacobi", "cafe", 512),
            None,
            "own-family and wrong-chip entries must not seed"
        );
        assert!(c.transfer_seed("lbm_IvJK", "cafe", 512).is_some());
    }

    #[test]
    fn transfer_seed_canonicalizes_mod_period() {
        let mut c = ResultCache::in_memory();
        let spec = LayoutSpec::new()
            .base_align(8192)
            .shift(512 + 128)
            .block_offset(1024 + 64);
        c.insert_with_meta("a0".into(), 5.0, meta("triad", "cafe", spec));
        let seed = c.transfer_seed("jacobi", "cafe", 512).unwrap();
        assert_eq!(seed.shift, 128);
        assert_eq!(seed.block_offset, 64);
    }

    #[test]
    fn concurrent_reader_never_observes_a_partial_save() {
        // Crash-safety pin for the temp-file + rename save path: a reader
        // re-opening the file while a writer saves repeatedly must always
        // see a complete, parseable document — never a prefix.
        let path = tmp_path("atomic_save.json");
        let _ = std::fs::remove_file(&path);
        {
            let mut c = ResultCache::at_path(&path).unwrap();
            c.insert("seed".into(), 1.0);
            c.save().unwrap();
        }
        let writer_path = path.clone();
        let writer = std::thread::spawn(move || {
            let mut c = ResultCache::at_path(&writer_path).unwrap();
            for i in 0..200u32 {
                // Grow the document each round so a torn write would show
                // up as a truncated (unparseable) JSON object.
                c.insert(format!("{i:08x}{i:08x}"), f64::from(i));
                c.save().unwrap();
            }
        });
        let mut observed = 0usize;
        while !writer.is_finished() {
            let reloaded = ResultCache::at_path(&path)
                .expect("reader observed a partially-written cache file");
            assert!(!reloaded.is_empty());
            observed += 1;
        }
        writer.join().unwrap();
        assert!(observed > 0, "reader must have raced at least one save");
        let _ = std::fs::remove_file(&path);
    }
}
