//! Shared banked L2 cache model: set-associative, LRU, write-back,
//! write-allocate.
//!
//! The T2's eight L2 banks share one 4 MB, 16-way array; bit 6 of the
//! address selects the bank within a controller pair (timing handled by the
//! engine), while this module tracks contents: hits, misses, dirty
//! evictions. Stores allocate (read-for-ownership) and mark lines dirty;
//! dirty victims produce write-backs — the traffic that makes the "actual"
//! STREAM triad volume 4/3 of the reported one.

use crate::config::L2Config;
use std::sync::{Mutex, PoisonError};

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line absent; it has been allocated. If a dirty victim was evicted,
    /// its line base address is returned for the write-back.
    Miss {
        /// Base address of the evicted dirty line, if any.
        writeback: Option<u64>,
    },
}

/// The L2 content model.
///
/// A flat tag store: one set's ways sit side by side in `tags` and `meta`,
/// and `first_way` points at them. A set gets its ways on its first
/// access, so a run that touches few sets writes few, and the arrays,
/// reserved for every set, never reallocate. A dropped cache leaves its
/// arrays on a process-wide spare list for the next [`L2Cache::new`], so
/// a run of simulations allocates its tag stores once.
pub struct L2Cache {
    /// Per set, the index of its first way in `tags` and `meta`, or
    /// [`UNTOUCHED`] until the set's first access.
    first_way: Vec<u32>,
    /// Per way, the line's tag + 1; 0 marks an invalid way.
    tags: Vec<u64>,
    /// Per way, the last-use tick << 1 | dirty; 0 for an invalid way.
    meta: Vec<u64>,
    ways: usize,
    set_mask: u64,
    set_bits: u32,
    line_bits: u32,
    tick: u64,
}

/// `first_way` of a set that has not been accessed yet.
const UNTOUCHED: u32 = u32::MAX;

/// The most lines (sets × ways) a cache can hold: `first_way` indexes them
/// with a `u32`.
pub(crate) const MAX_LINES: usize = UNTOUCHED as usize;

/// The arrays of a dropped cache: `first_way`, `tags` and `meta`.
type TagStore = (Vec<u32>, Vec<u64>, Vec<u64>);

/// Tag stores of dropped caches, for [`L2Cache::new`] to reuse. It holds
/// at most as many as were ever alive at once, in any thread: a store
/// freed instead would stay resident in its thread's allocator arena.
static SPARE: Mutex<Vec<TagStore>> = Mutex::new(Vec::new());

impl L2Cache {
    /// Builds an empty cache with the given geometry.
    pub fn new(cfg: &L2Config) -> Self {
        assert!(cfg.ways > 0, "ways must be positive");
        // A line of 2 B or more keeps a stored tag (tag + 1) from overflowing.
        assert!(cfg.line > 1, "line must be at least 2 B");
        let n_sets = cfg.sets();
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        let lines = n_sets * cfg.ways;
        assert!(
            lines <= MAX_LINES,
            "{lines} lines exceed the {MAX_LINES} a cache indexes"
        );
        let spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let (mut first_way, mut tags, mut meta) = spare.unwrap_or_default();
        first_way.clear();
        first_way.resize(n_sets, UNTOUCHED);
        tags.clear();
        tags.reserve_exact(lines);
        meta.clear();
        meta.reserve_exact(lines);
        L2Cache {
            first_way,
            tags,
            meta,
            ways: cfg.ways,
            set_mask: n_sets as u64 - 1,
            set_bits: n_sets.trailing_zeros(),
            line_bits: cfg.line.trailing_zeros(),
            tick: 0,
        }
    }

    /// The set and the stored tag (tag + 1) of the line containing `addr`.
    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_bits;
        ((line & self.set_mask) as usize, (line >> self.set_bits) + 1)
    }

    /// Accesses the line containing `addr`. On a miss the line is allocated
    /// (LRU victim), and a dirty victim's address is reported for
    /// write-back. `is_write` marks the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> Access {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        let mut first = self.first_way[set] as usize;
        if first == UNTOUCHED as usize {
            first = self.tags.len();
            self.first_way[set] = first as u32;
            self.tags.resize(first + self.ways, 0);
            self.meta.resize(first + self.ways, 0);
        }
        let ways = first..first + self.ways;
        let (tags, meta) = (&mut self.tags[ways.clone()], &mut self.meta[ways]);
        let stamp = (self.tick << 1) | u64::from(is_write);
        if let Some(w) = tags.iter().position(|&t| t == tag) {
            meta[w] = stamp | (meta[w] & 1);
            return Access::Hit;
        }
        // Miss: the victim is the first way with the smallest `meta`. An
        // invalid way's 0 sorts below every valid way's unique stamp, so
        // this is the first invalid way, else the least recently used.
        let mut victim = 0;
        for w in 1..meta.len() {
            if meta[w] < meta[victim] {
                victim = w;
            }
        }
        let (old_tag, old_meta) = (tags[victim], meta[victim]);
        tags[victim] = tag;
        meta[victim] = stamp;
        let writeback = (old_tag != 0 && old_meta & 1 == 1).then(|| {
            let line = ((old_tag - 1) << self.set_bits) | set as u64;
            line << self.line_bits
        });
        Access::Miss { writeback }
    }

    /// Whether the line containing `addr` is currently cached (no LRU
    /// update).
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let first = self.first_way[set] as usize;
        first != UNTOUCHED as usize && self.tags[first..first + self.ways].contains(&tag)
    }

    /// Number of valid lines currently held (a scan of every touched set;
    /// for tests).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }
}

impl Drop for L2Cache {
    fn drop(&mut self) {
        let store = (
            std::mem::take(&mut self.first_way),
            std::mem::take(&mut self.tags),
            std::mem::take(&mut self.meta),
        );
        SPARE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(store);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> L2Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        L2Cache::new(&L2Config {
            bytes: 512,
            ways: 2,
            line: 64,
            bank_cycles: 2,
            hit_latency: 26,
            mshr_per_bank: 8,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.access(0x1000, false), Access::Miss { writeback: None });
        assert_eq!(c.access(0x1000, false), Access::Hit);
        assert_eq!(c.access(0x1030, false), Access::Hit, "same line");
        assert_eq!(
            c.access(0x1040, false),
            Access::Miss { writeback: None },
            "next line"
        );
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache();
        // Set stride = 4 sets × 64 B = 256 B; these three map to set 0.
        c.access(0x0000, false);
        c.access(0x0100, false);
        c.access(0x0000, false); // refresh line 0
        c.access(0x0200, false); // evicts 0x0100 (LRU)
        assert!(c.contains(0x0000));
        assert!(!c.contains(0x0100));
        assert!(c.contains(0x0200));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small_cache();
        c.access(0x0000, true); // dirty
        c.access(0x0100, false);
        match c.access(0x0200, false) {
            Access::Miss {
                writeback: Some(addr),
            } => assert_eq!(addr, 0x0000),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small_cache();
        c.access(0x0000, false);
        c.access(0x0100, false);
        assert_eq!(c.access(0x0200, false), Access::Miss { writeback: None });
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small_cache();
        c.access(0x0000, false);
        c.access(0x0000, true); // hit, now dirty
        c.access(0x0100, false);
        match c.access(0x0200, false) {
            Access::Miss {
                writeback: Some(addr),
            } => assert_eq!(addr, 0x0000),
            other => panic!("dirty bit lost: {other:?}"),
        }
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small_cache();
        for i in 0..1000u64 {
            c.access(i * 64, i % 3 == 0);
            assert!(c.occupancy() <= 8);
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn t2_sized_cache_thrashing_pattern() {
        // The LBM pathology: many streams separated by a multiple of the
        // set-stride all land in the same sets and thrash a 16-way cache
        // when there are more than 16 streams.
        let cfg = L2Config {
            bytes: 4 << 20,
            ways: 16,
            line: 64,
            bank_cycles: 2,
            hit_latency: 26,
            mshr_per_bank: 8,
        };
        let mut c = L2Cache::new(&cfg);
        let set_stride = (cfg.sets() * cfg.line) as u64; // 256 KiB
                                                         // 38 streams (19 read + 19 write in D3Q19) at set-aligned spacing:
        let streams = 38u64;
        // Touch each stream once, then re-touch: everything got evicted.
        for s in 0..streams {
            c.access(s * set_stride, false);
        }
        let mut rehits = 0;
        for s in 0..streams {
            if matches!(c.access(s * set_stride, false), Access::Hit) {
                rehits += 1;
            }
        }
        assert!(
            rehits < 16,
            "38 set-conflicting streams cannot all survive in a 16-way set (rehits={rehits})"
        );
    }
}
