//! Address → memory-controller / L2-bank mapping models.
//!
//! The Sun UltraSPARC T2 employs "a very simple scheme to map addresses to
//! controllers and banks: bits 8 and 7 of the physical memory address select
//! the memory controller to use, while bit 6 determines the L2 bank"
//! (Hager et al. 2008, §1). Consecutive 64-byte cache lines are thus served
//! in turn by consecutive cache banks and memory controllers, with the whole
//! mapping repeating every 512 bytes.
//!
//! [`AddressMap`] captures that bit-sliced interleave in a configurable way;
//! [`MapPolicy`] adds alternative mappings used by the ablation studies
//! (XOR-folded hashing, page-granular interleave).

use serde::Serialize;

/// A bit-sliced interleave map from byte addresses to memory controllers and
/// cache banks.
///
/// The default [`AddressMap::ultrasparc_t2`] instance reproduces the T2:
/// 64-byte lines, controller = bits 8:7, bank-within-controller = bit 6
/// (so the *global* bank index is bits 8:6 — eight banks, two per controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AddressMap {
    /// log2 of the cache line size in bytes (6 on the T2 → 64 B lines).
    pub line_bits: u32,
    /// Lowest bit of the controller-select field (7 on the T2).
    pub mc_lo_bit: u32,
    /// Number of controller-select bits (2 on the T2 → 4 controllers).
    pub mc_bits: u32,
    /// Lowest bit of the bank-select field *within* a controller
    /// (6 on the T2).
    pub bank_lo_bit: u32,
    /// Number of bank-select bits per controller (1 on the T2 → 2 banks per
    /// controller, 8 global banks).
    pub bank_bits: u32,
}

impl AddressMap {
    /// The UltraSPARC T2 mapping: line 64 B, controller = bits 8:7,
    /// bank = bit 6.
    pub const fn ultrasparc_t2() -> Self {
        AddressMap {
            line_bits: 6,
            mc_lo_bit: 7,
            mc_bits: 2,
            bank_lo_bit: 6,
            bank_bits: 1,
        }
    }

    /// Cache line size in bytes.
    #[inline]
    pub const fn line_size(&self) -> u64 {
        1 << self.line_bits
    }

    /// Number of memory controllers.
    #[inline]
    pub const fn num_controllers(&self) -> u32 {
        1 << self.mc_bits
    }

    /// Number of L2 banks per controller.
    #[inline]
    pub const fn banks_per_controller(&self) -> u32 {
        1 << self.bank_bits
    }

    /// Total number of L2 banks.
    #[inline]
    pub const fn num_banks(&self) -> u32 {
        1 << (self.bank_bits + self.mc_bits)
    }

    /// The period, in bytes, after which the mapping repeats
    /// (512 B on the T2).
    #[inline]
    pub const fn super_line(&self) -> u64 {
        1 << (self.mc_lo_bit + self.mc_bits)
    }

    /// Memory controller serving `addr`.
    #[inline]
    pub const fn controller(&self, addr: u64) -> u32 {
        ((addr >> self.mc_lo_bit) & ((1 << self.mc_bits) - 1)) as u32
    }

    /// Bank index *within* the controller serving `addr`.
    #[inline]
    pub const fn local_bank(&self, addr: u64) -> u32 {
        ((addr >> self.bank_lo_bit) & ((1 << self.bank_bits) - 1)) as u32
    }

    /// Global L2 bank index of `addr` (controller-major).
    #[inline]
    pub const fn bank(&self, addr: u64) -> u32 {
        self.controller(addr) * self.banks_per_controller() + self.local_bank(addr)
    }

    /// Index of the cache line containing `addr`.
    #[inline]
    pub const fn line_index(&self, addr: u64) -> u64 {
        addr >> self.line_bits
    }

    /// Base address of the cache line containing `addr`.
    #[inline]
    pub const fn line_base(&self, addr: u64) -> u64 {
        addr & !((1 << self.line_bits) - 1)
    }
}

impl Default for AddressMap {
    fn default() -> Self {
        AddressMap::ultrasparc_t2()
    }
}

/// Controller-selection policy. [`MapPolicy::Sliced`] is the real T2;
/// the other variants exist for ablation experiments ("what would a less
/// aliasing-prone controller hash have done?").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MapPolicy {
    /// Plain bit-sliced interleave, exactly as on the T2.
    Sliced(AddressMap),
    /// Bit-sliced interleave whose controller bits are XOR-folded with
    /// higher address bits, destroying the simple congruence classes that
    /// cause stream aliasing (the classic "XOR bank hash" used by several
    /// later designs).
    XorFold {
        /// Underlying sliced map supplying geometry (line size, counts).
        base: AddressMap,
        /// How many higher `mc_bits`-wide fields get folded in.
        folds: u32,
    },
    /// Page-granular interleave: controller = (addr / page) mod n_mc. This
    /// turns fine-grained aliasing into coarse page-placement effects.
    PageInterleave {
        /// Underlying sliced map supplying geometry.
        base: AddressMap,
        /// Interleave granularity in bytes (e.g. 4096).
        page: u64,
    },
}

impl MapPolicy {
    /// The real T2 policy.
    pub const fn t2() -> Self {
        MapPolicy::Sliced(AddressMap::ultrasparc_t2())
    }

    /// The period, in bytes, at which controller selection repeats for the
    /// purposes of data layout — the policy-aware generalization of
    /// [`AddressMap::super_line`].
    ///
    /// * [`MapPolicy::Sliced`]: the geometric super-line (512 B on the T2).
    /// * [`MapPolicy::XorFold`]: the exact period is `super_line <<
    ///   (folds · mc_bits)` — astronomically large for realistic folds and
    ///   useless as a layout granularity. The low `mc`-field residues are
    ///   still the classes a layout can steer, so the super-line is kept as
    ///   the practical period.
    /// * [`MapPolicy::PageInterleave`]: `page × num_controllers` — offsets
    ///   below one page never change controllers, so layout advice must
    ///   operate at page granularity.
    #[inline]
    pub const fn interleave_period(&self) -> u64 {
        match self {
            MapPolicy::Sliced(m) => m.super_line(),
            MapPolicy::XorFold { base, .. } => base.super_line(),
            MapPolicy::PageInterleave { base, page } => *page * base.num_controllers() as u64,
        }
    }

    /// Geometry of the underlying map.
    #[inline]
    pub const fn geometry(&self) -> &AddressMap {
        match self {
            MapPolicy::Sliced(m) => m,
            MapPolicy::XorFold { base, .. } => base,
            MapPolicy::PageInterleave { base, .. } => base,
        }
    }

    /// Memory controller serving `addr` under this policy.
    #[inline]
    pub fn controller(&self, addr: u64) -> u32 {
        match *self {
            MapPolicy::Sliced(m) => m.controller(addr),
            MapPolicy::XorFold { base, folds } => {
                let mask = (1u64 << base.mc_bits) - 1;
                let mut sel = (addr >> base.mc_lo_bit) & mask;
                let mut bit = base.mc_lo_bit + base.mc_bits;
                for _ in 0..folds {
                    sel ^= (addr >> bit) & mask;
                    bit += base.mc_bits;
                }
                sel as u32
            }
            MapPolicy::PageInterleave { base, page } => {
                ((addr / page) % base.num_controllers() as u64) as u32
            }
        }
    }

    /// Global L2 bank of `addr` under this policy. Bank selection follows the
    /// controller selection so that banks stay associated with controllers.
    #[inline]
    pub fn bank(&self, addr: u64) -> u32 {
        let g = self.geometry();
        self.controller(addr) * g.banks_per_controller() + g.local_bank(addr)
    }
}

impl Default for MapPolicy {
    fn default() -> Self {
        MapPolicy::t2()
    }
}

/// OS page-placement policy on a multi-socket machine: which socket a
/// page's backing memory lives on. On a single socket every policy is the
/// identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum PagePlacement {
    /// The page lives on the socket of the thread that touched it first —
    /// the default policy of every mainstream OS, and the locality-optimal
    /// one for socket-partitioned streams.
    #[default]
    FirstTouch,
    /// Pages round-robin over sockets (`page_index mod n_sockets`),
    /// trading peak local bandwidth for uniformity: a fraction
    /// `(S-1)/S` of all lines crosses the inter-socket link.
    Interleave,
    /// Adversarial placement: every page lands one socket away from its
    /// first toucher. This is Bergstrom's all-remote STREAM configuration
    /// — the far end of the local/remote bandwidth gap — and the
    /// wrong-socket baseline the advisor must beat.
    Remote,
}

impl PagePlacement {
    /// All placements, in the order the tuner's placement axis uses.
    pub const ALL: [PagePlacement; 3] = [
        PagePlacement::FirstTouch,
        PagePlacement::Interleave,
        PagePlacement::Remote,
    ];

    /// Stable lower-case label, as printed in tables, trial span names and
    /// bench reports. Serialized specs spell a placement by its variant
    /// name instead (`"FirstTouch"`), and that is what stores read back.
    pub fn label(&self) -> &'static str {
        match self {
            PagePlacement::FirstTouch => "first-touch",
            PagePlacement::Interleave => "interleave",
            PagePlacement::Remote => "remote",
        }
    }

    /// Parses a [`PagePlacement::label`] spelling.
    pub fn parse(s: &str) -> Option<Self> {
        PagePlacement::ALL.into_iter().find(|p| p.label() == s)
    }

    /// The fraction of lines that cross the inter-socket link under this
    /// placement when every thread streams through its own data, assuming
    /// balanced sockets. First touch is fully local; interleave spreads
    /// pages uniformly so `(S-1)/S` of them are remote to any one thread;
    /// remote placement is remote by construction.
    pub fn remote_fraction(&self, n_sockets: usize) -> f64 {
        if n_sockets <= 1 {
            return 0.0;
        }
        match self {
            PagePlacement::FirstTouch => 0.0,
            PagePlacement::Interleave => (n_sockets - 1) as f64 / n_sockets as f64,
            PagePlacement::Remote => 1.0,
        }
    }
}

/// One recorded first access to a page: who touched it, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTouch {
    /// Page index (`addr / page_bytes`).
    pub page: u64,
    /// Touching thread id.
    pub thread: u32,
    /// Touch time (simulator cycles or any monotone stamp).
    pub time: u64,
}

/// The pure first-touch page-placement model: given *all* recorded touches
/// of a run, assigns each page a home socket. The winner per page is the
/// earliest touch, ties broken by the lowest thread id — so the assignment
/// is a function of the touch *set*, deterministic under any permutation
/// of the input order (the property `tests/proptest_numa.rs` pins).
///
/// `thread_socket` maps a thread id to its socket.
pub fn first_touch_homes(
    touches: &[PageTouch],
    n_sockets: usize,
    thread_socket: impl Fn(u32) -> usize,
) -> std::collections::BTreeMap<u64, usize> {
    let mut winner: std::collections::BTreeMap<u64, (u64, u32)> = std::collections::BTreeMap::new();
    for t in touches {
        let cand = (t.time, t.thread);
        winner
            .entry(t.page)
            .and_modify(|w| {
                if cand < *w {
                    *w = cand;
                }
            })
            .or_insert(cand);
    }
    winner
        .into_iter()
        .map(|(page, (_, thread))| (page, thread_socket(thread).min(n_sockets - 1)))
        .collect()
}

/// Incremental page → home-socket table, the engine-facing counterpart of
/// [`first_touch_homes`]: pages are resolved in access order (the
/// simulator is deterministic, so "first access wins" is well-defined
/// there). `Interleave` needs no state; the other policies memoize the
/// first toucher's verdict.
#[derive(Debug, Clone)]
pub struct PageHomes {
    placement: PagePlacement,
    n_sockets: usize,
    page_shift: u32,
    homes: std::collections::HashMap<u64, u32>,
}

impl PageHomes {
    /// A table for `n_sockets` sockets and `page_bytes`-sized pages
    /// (rounded to a power of two shift).
    pub fn new(placement: PagePlacement, n_sockets: usize, page_bytes: u64) -> Self {
        assert!(n_sockets >= 1, "need at least one socket");
        let page_shift = page_bytes.max(1).next_power_of_two().trailing_zeros();
        PageHomes {
            placement,
            n_sockets,
            page_shift,
            homes: std::collections::HashMap::new(),
        }
    }

    /// The home socket of the page containing `addr`, resolving it on
    /// first touch by `toucher_socket`.
    #[inline]
    pub fn home(&mut self, addr: u64, toucher_socket: u32) -> u32 {
        if self.n_sockets == 1 {
            return 0;
        }
        let page = addr >> self.page_shift;
        match self.placement {
            PagePlacement::Interleave => (page % self.n_sockets as u64) as u32,
            PagePlacement::FirstTouch => *self.homes.entry(page).or_insert(toucher_socket),
            PagePlacement::Remote => *self
                .homes
                .entry(page)
                .or_insert((toucher_socket + 1) % self.n_sockets as u32),
        }
    }

    /// Number of distinct pages resolved so far (0 for `Interleave`).
    pub fn resolved_pages(&self) -> usize {
        self.homes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t2_constants() {
        let m = AddressMap::ultrasparc_t2();
        assert_eq!(m.line_size(), 64);
        assert_eq!(m.num_controllers(), 4);
        assert_eq!(m.banks_per_controller(), 2);
        assert_eq!(m.num_banks(), 8);
        assert_eq!(m.super_line(), 512);
    }

    #[test]
    fn consecutive_lines_rotate_banks_then_controllers() {
        // §1: "Consecutive 64-byte cache lines are thus served in turn by
        // consecutive cache banks and memory controllers."
        let m = AddressMap::ultrasparc_t2();
        let banks: Vec<u32> = (0..8).map(|i| m.bank(i * 64)).collect();
        assert_eq!(banks, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let mcs: Vec<u32> = (0..8).map(|i| m.controller(i * 64)).collect();
        assert_eq!(mcs, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn mapping_is_periodic_with_super_line() {
        let m = AddressMap::ultrasparc_t2();
        for addr in (0..4096u64).step_by(8) {
            assert_eq!(m.controller(addr), m.controller(addr + 512));
            assert_eq!(m.bank(addr), m.bank(addr + 512));
        }
    }

    #[test]
    fn offset_512_bytes_same_controller() {
        // The Fig. 2 pathology: base addresses congruent mod 512 B share a
        // controller.
        let m = AddressMap::ultrasparc_t2();
        let a = 0x1000_0000u64;
        let b = a + 64 * 8; // offset of 64 DP words = 512 B
        assert_eq!(m.controller(a), m.controller(b));
        // Odd multiple of 32 DP words (256 B) flips bit 8 → different MC.
        let c = a + 32 * 8;
        assert_ne!(m.controller(a), m.controller(c));
    }

    #[test]
    fn line_arithmetic() {
        let m = AddressMap::ultrasparc_t2();
        assert_eq!(m.line_index(0), 0);
        assert_eq!(m.line_index(63), 0);
        assert_eq!(m.line_index(64), 1);
        assert_eq!(m.line_base(130), 128);
    }

    #[test]
    fn xor_fold_breaks_congruence() {
        // Two addresses 512 B apart map to the same MC under the sliced
        // policy but (for suitable high bits) not under XOR folding.
        let sliced = MapPolicy::t2();
        let folded = MapPolicy::XorFold {
            base: AddressMap::ultrasparc_t2(),
            folds: 4,
        };
        let a = 0x1000_0000u64;
        let mut diverged = false;
        for k in 1..64u64 {
            let b = a + k * 512;
            assert_eq!(sliced.controller(a), sliced.controller(b));
            if folded.controller(a) != folded.controller(b) {
                diverged = true;
            }
        }
        assert!(diverged, "XOR fold should break the 512 B congruence class");
    }

    #[test]
    fn page_interleave_constant_within_page() {
        let p = MapPolicy::PageInterleave {
            base: AddressMap::ultrasparc_t2(),
            page: 4096,
        };
        let base = 7 * 4096u64;
        let mc = p.controller(base);
        for off in (0..4096).step_by(64) {
            assert_eq!(p.controller(base + off), mc);
        }
        assert_ne!(p.controller(base), p.controller(base + 4096));
    }

    #[test]
    fn interleave_period_tracks_the_policy() {
        assert_eq!(MapPolicy::t2().interleave_period(), 512);
        let folded = MapPolicy::XorFold {
            base: AddressMap::ultrasparc_t2(),
            folds: 4,
        };
        assert_eq!(folded.interleave_period(), 512);
        let paged = MapPolicy::PageInterleave {
            base: AddressMap::ultrasparc_t2(),
            page: 4096,
        };
        assert_eq!(paged.interleave_period(), 4096 * 4);
        // Controller selection genuinely repeats with that period.
        for addr in (0..paged.interleave_period()).step_by(64) {
            assert_eq!(
                paged.controller(addr),
                paged.controller(addr + paged.interleave_period())
            );
        }
    }

    #[test]
    fn first_touch_homes_pick_earliest_touch_lowest_thread() {
        let touches = [
            PageTouch {
                page: 0,
                thread: 5,
                time: 10,
            },
            PageTouch {
                page: 0,
                thread: 1,
                time: 10,
            }, // tie → lower thread
            PageTouch {
                page: 1,
                thread: 7,
                time: 3,
            },
            PageTouch {
                page: 1,
                thread: 0,
                time: 4,
            }, // later → loses
        ];
        let homes = first_touch_homes(&touches, 2, |t| (t / 4) as usize);
        assert_eq!(homes[&0], 0, "thread 1 wins the tie and lives on socket 0");
        assert_eq!(homes[&1], 1, "thread 7 touched first and lives on socket 1");
    }

    #[test]
    fn page_homes_policies_resolve_as_documented() {
        let mut ft = PageHomes::new(PagePlacement::FirstTouch, 2, 4096);
        assert_eq!(ft.home(0, 1), 1);
        assert_eq!(ft.home(64, 0), 1, "same page keeps its first home");
        assert_eq!(ft.home(4096, 0), 0);
        assert_eq!(ft.resolved_pages(), 2);

        let mut il = PageHomes::new(PagePlacement::Interleave, 2, 4096);
        assert_eq!(il.home(0, 1), 0);
        assert_eq!(il.home(4096, 1), 1);
        assert_eq!(il.resolved_pages(), 0, "interleave is stateless");

        let mut rm = PageHomes::new(PagePlacement::Remote, 2, 4096);
        assert_eq!(rm.home(0, 0), 1, "remote places one socket away");
        assert_eq!(rm.home(0, 1), 1, "…and sticks");

        let mut single = PageHomes::new(PagePlacement::Remote, 1, 4096);
        assert_eq!(single.home(0, 0), 0, "one socket: everything is local");
    }

    #[test]
    fn placement_labels_round_trip_and_remote_fractions_bound() {
        for p in PagePlacement::ALL {
            assert_eq!(PagePlacement::parse(p.label()), Some(p));
            assert_eq!(p.remote_fraction(1), 0.0);
            let f = p.remote_fraction(4);
            assert!((0.0..=1.0).contains(&f));
        }
        assert_eq!(PagePlacement::FirstTouch.remote_fraction(4), 0.0);
        assert_eq!(PagePlacement::Remote.remote_fraction(4), 1.0);
        assert!((PagePlacement::Interleave.remote_fraction(4) - 0.75).abs() < 1e-12);
        assert_eq!(PagePlacement::parse("nope"), None);
    }

    #[test]
    fn xor_fold_uniform_over_all_controllers() {
        let folded = MapPolicy::XorFold {
            base: AddressMap::ultrasparc_t2(),
            folds: 4,
        };
        let mut counts = [0usize; 4];
        for line in 0..4096u64 {
            counts[folded.controller(line * 64) as usize] += 1;
        }
        for c in counts {
            assert_eq!(c, 1024, "XOR fold must remain a balanced hash");
        }
    }
}
