//! Analytic layout advisor.
//!
//! §2.3 of the paper stresses that the optimal layout parameters "can be
//! obtained by analyzing the data access properties of the loop kernel,
//! together with some knowledge about the mapping between addresses and
//! memory controllers. No 'trial and error' is required."
//!
//! [`LayoutAdvisor`] is that analysis as a library: describe the concurrent
//! access streams of a kernel as [`StreamDesc`]s, and the advisor predicts
//! the controller-utilization efficiency of a candidate layout
//! ([`LayoutAdvisor::predict`]) and derives optimal byte offsets and shifts
//! ([`LayoutAdvisor::suggest_offsets`], [`LayoutAdvisor::suggest_shift`])
//! directly from the mapping geometry.
//!
//! # The phase walk
//!
//! All streams advance in lockstep, one cache line per *phase*.
//! [`LayoutAdvisor::analyze`] walks one mapping period phase by phase and
//! charges each stream's line to its controller:
//!
//! * a **blocking** line (a load or a read-for-ownership) that the issuing
//!   thread must wait for costs the *read cost* — on the T2 every thread
//!   is limited to a single outstanding miss, so blocking lines cannot be
//!   smoothed across phases: a phase lasts at least as long as the
//!   most-loaded controller's blocking work (`max_c blocking_c`, the
//!   convoy constraint);
//! * a **buffered** line (a write-back) costs the *write cost* and drains
//!   through the controller queues whenever its controller is free — it
//!   constrains only the long-run per-controller and aggregate throughput.
//!
//! Total time over one mapping period is therefore
//!
//! ```text
//! T = max( Σ_p max_c blocking(c,p),   // convoy
//!          total_work / n_mc,         // aggregate capacity
//!          max_c Σ_p work(c,p) )      // per-controller capacity
//! ```
//!
//! and efficiency = `(total_work / n_mc) / T ∈ (0, 1]`. With every stream
//! congruent mod 512 B the convoy term dominates and efficiency collapses
//! toward `1/n_mc` — the Fig. 2/Fig. 4 dips; with the suggested offsets all
//! three terms coincide and efficiency is 1.
//!
//! The walk runs at two cost settings. [`LayoutAdvisor::predict`] prices a
//! read at 1 and a write-back at 2, because the T2's FB-DIMM channels
//! write at half the read bandwidth (21 vs 42 GB/s nominal). The
//! `t2opt-model` capacity term prices them at the chip's `read_service`
//! and `write_service` cycles.

use crate::chip::SocketTopology;
use crate::mapping::{MapPolicy, PagePlacement};
use serde::Serialize;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Direction of an access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StreamKind {
    /// Pure load stream: one blocking unit per line.
    Read,
    /// Store stream through a write-allocate cache: one blocking
    /// read-for-ownership unit plus a buffered write-back per line.
    Write,
    /// Pure write-back / non-temporal store stream: buffered units only
    /// (e.g. architectures that claim ownership without a prior read,
    /// footnote 1 of the paper).
    Writeback,
}

impl StreamKind {
    /// Blocking lines per line (loads the thread must wait on).
    #[inline]
    pub fn blocking(self) -> u32 {
        match self {
            StreamKind::Read | StreamKind::Write => 1,
            StreamKind::Writeback => 0,
        }
    }

    /// Buffered write-back lines per line.
    #[inline]
    pub fn writebacks(self) -> u32 {
        match self {
            StreamKind::Read => 0,
            StreamKind::Write | StreamKind::Writeback => 1,
        }
    }
}

/// One unit-stride access stream of a loop kernel: a base byte address (or
/// base offset within an allocation) plus its direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StreamDesc {
    /// Byte address of the stream's first element.
    pub base: u64,
    /// Access direction.
    pub kind: StreamKind,
}

impl StreamDesc {
    /// A read stream at `base`.
    pub fn read(base: u64) -> Self {
        StreamDesc {
            base,
            kind: StreamKind::Read,
        }
    }

    /// A store stream (RFO + write-back) at `base`.
    pub fn write(base: u64) -> Self {
        StreamDesc {
            base,
            kind: StreamKind::Write,
        }
    }

    /// A pure write-back / non-temporal store stream at `base`.
    pub fn writeback(base: u64) -> Self {
        StreamDesc {
            base,
            kind: StreamKind::Writeback,
        }
    }
}

/// Result of a layout prediction.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Prediction {
    /// Controller-utilization efficiency in (0, 1]. 1.0 = all controllers
    /// saturated; `→ 1/n_mc` = full convoy on a single controller.
    pub efficiency: f64,
    /// Which of the three constraints set the time (for diagnostics).
    pub bound: Bound,
    /// Total occupancy units per controller over one period (who is the
    /// hotspot).
    pub controller_load: Vec<u64>,
    /// Mean number of distinct controllers hit by blocking units per phase —
    /// the paper's informal "how many controllers are addressed
    /// concurrently".
    pub concurrent_controllers: f64,
}

/// Which constraint bounds the runtime in a [`Prediction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Bound {
    /// Convoy: blocking units concentrate on few controllers per phase.
    Convoy,
    /// Aggregate controller bandwidth.
    Aggregate,
    /// A single controller's long-run occupancy.
    Hotspot,
}

/// One walk of a stream set over the mapping period
/// ([`LayoutAdvisor::analyze`]), in the costs it was given.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAnalysis {
    /// Cost charged to each socket-local controller.
    pub load: Vec<u64>,
    /// Σ over phases of the largest per-controller blocking cost.
    pub convoy: u64,
    /// Σ over phases of the number of controllers hit by blocking lines.
    pub distinct: usize,
    /// Phases walked (lines per stream).
    pub phases: usize,
}

impl PhaseAnalysis {
    /// Total cost over the walk.
    pub fn total(&self) -> u64 {
        self.load.iter().sum()
    }

    /// The three lower bounds on the walk's time: `(convoy, ideal,
    /// hotspot)`, where `ideal` is the per-controller cost of an even
    /// spread and `hotspot` the most-loaded controller's cost.
    fn bounds(&self) -> (f64, f64, f64) {
        let ideal = self.total() as f64 / self.load.len() as f64;
        let hotspot = *self.load.iter().max().expect("at least one controller") as f64;
        (self.convoy as f64, ideal, hotspot)
    }

    /// Controller-utilization efficiency in `(0, 1]`:
    /// `ideal / max(convoy, ideal, hotspot)`, and 1 when nothing was
    /// charged.
    pub fn efficiency(&self) -> f64 {
        let (convoy, ideal, hotspot) = self.bounds();
        if self.total() == 0 {
            1.0
        } else {
            ideal / convoy.max(ideal).max(hotspot)
        }
    }

    /// Mean distinct controllers hit by blocking lines per phase.
    pub fn concurrent_controllers(&self) -> f64 {
        self.distinct as f64 / self.phases as f64
    }
}

/// The analytic advisor for a given controller mapping policy (and, on
/// multi-socket chips, its socket topology).
///
/// # Affinity dominates aliasing
///
/// On a NUMA chip the advisor reasons in two stages, in order of impact:
///
/// 1. **Placement first.** Any page on the wrong socket pays the remote
///    latency hop *and* serializes on the shared inter-socket link, whose
///    per-line occupancy caps all-remote bandwidth far below one socket's
///    local aggregate. No byte offset can buy that back, so the advisor
///    always suggests socket-local (first-touch) placement before it
///    considers offsets ([`LayoutAdvisor::locality_factor`] quantifies the
///    cost of ignoring this).
/// 2. **Offset within the socket.** Under first-touch placement the raw
///    controller index folds into the home socket's group, so the
///    aliasing arithmetic happens modulo the *per-socket* period: all
///    offset/shift/alignment suggestions use `period / n_sockets` and the
///    `mcs_per_socket` local controllers.
#[derive(Debug, Clone)]
pub struct LayoutAdvisor {
    policy: MapPolicy,
    sockets: SocketTopology,
    /// One remote line's inter-socket-link occupancy, in units of one
    /// local controller's per-line read service (0 on a single socket).
    remote_cost_ratio: f64,
}

impl LayoutAdvisor {
    /// Advisor for the given mapping policy on a single socket.
    pub fn new(policy: MapPolicy) -> Self {
        LayoutAdvisor {
            policy,
            sockets: SocketTopology::single(),
            remote_cost_ratio: 0.0,
        }
    }

    /// Attaches a socket topology. `sockets.link_cycles_per_line` is
    /// normalized against `read_service` (the local controllers' per-line
    /// occupancy) so the placement factor compares link and controller
    /// capacity in the same units.
    pub fn with_numa(mut self, sockets: SocketTopology, read_service: u64) -> Self {
        self.sockets = sockets;
        self.remote_cost_ratio = if sockets.is_numa() {
            sockets.link_cycles_per_line as f64 / read_service.max(1) as f64
        } else {
            0.0
        };
        self
    }

    /// Advisor for the real UltraSPARC T2 mapping.
    pub fn t2() -> Self {
        LayoutAdvisor::new(MapPolicy::t2())
    }

    /// The mapping policy in use.
    pub fn policy(&self) -> &MapPolicy {
        &self.policy
    }

    /// The socket topology in use.
    pub fn sockets(&self) -> &SocketTopology {
        &self.sockets
    }

    /// Controllers per socket under the contiguous grouping.
    fn mcs_per_socket(&self) -> usize {
        let n_mc = self.policy.geometry().num_controllers() as usize;
        (n_mc / self.sockets.n_sockets.max(1)).max(1)
    }

    /// The per-socket interleave period — the period the aliasing
    /// arithmetic actually runs at once pages are socket-local (equal to
    /// the full period on one socket).
    pub fn local_period(&self) -> usize {
        self.policy.interleave_period() as usize / self.sockets.n_sockets.max(1)
    }

    /// The bandwidth factor a page placement keeps relative to socket-local
    /// placement, in `(0, 1]`: 1.0 for first touch, and for placements
    /// with a remote line fraction `f` the ratio of the local aggregate
    /// rate to the link-throttled rate. This is the "affinity dominates
    /// aliasing" number — on the shipped NUMA presets it is far below the
    /// worst aliasing penalty, which tops out at `1/mcs_per_socket`.
    pub fn locality_factor(&self, placement: PagePlacement) -> f64 {
        let f = placement.remote_fraction(self.sockets.n_sockets);
        if f == 0.0 {
            return 1.0;
        }
        let n_mc = self.policy.geometry().num_controllers() as f64;
        // Per line: local service occupies one of n_mc controllers
        // (aggregate time 1/n_mc in service units); the remote fraction
        // additionally serializes on the single shared link.
        let local_time = 1.0 / n_mc;
        let link_time = f * self.remote_cost_ratio;
        local_time / local_time.max(link_time)
    }

    /// Walks `streams` over one mapping period, one line per phase, and
    /// charges `read_cost` per blocking line and `write_cost` per
    /// write-back line to the line's controller. See the module docs.
    ///
    /// Policies with an exact period (bit-sliced and page-granular maps)
    /// walk one full interleave period; hashed policies, whose true period
    /// is impractically large, walk `4 · super_line / line · n_mc` phases.
    /// On a multi-socket chip the raw controller index folds into the home
    /// socket's group of `mcs_per_socket` controllers (first-touch
    /// placement), so two addresses whose raw controllers differ only in
    /// the socket bits still alias.
    pub fn analyze(
        &self,
        streams: &[StreamDesc],
        read_cost: u64,
        write_cost: u64,
    ) -> PhaseAnalysis {
        let geo = self.policy.geometry();
        let line = geo.line_size();
        let phases = match self.policy {
            MapPolicy::Sliced(_) | MapPolicy::PageInterleave { .. } => {
                (self.policy.interleave_period() / line) as usize
            }
            MapPolicy::XorFold { .. } => {
                4 * (geo.super_line() / line) as usize * geo.num_controllers() as usize
            }
        };
        let mps = self.mcs_per_socket();
        walk(mps, phases, read_cost, write_cost, |p| {
            streams.iter().map(move |s| {
                let mc = self.policy.controller(s.base + p * line) as usize % mps;
                (s.kind, mc)
            })
        })
    }

    /// A memo of [`LayoutAdvisor::analyze`] at `read_cost` and
    /// `write_cost`, for a caller that analyzes many stream sets against
    /// one map: each distinct set is walked once. See [`PhaseMemo`].
    pub fn phase_memo(&self, read_cost: u64, write_cost: u64) -> PhaseMemo<'_> {
        let line = self.policy.geometry().line_size();
        let mps = self.mcs_per_socket();
        let table = self
            .line_period()
            .map(|lines| {
                (0..lines)
                    .map(|l| self.policy.controller(l * line) % mps as u32)
                    .collect()
            })
            .unwrap_or_default();
        PhaseMemo {
            advisor: self,
            read_cost,
            write_cost,
            table,
            index: HashMap::default(),
            walks: Vec::new(),
            key: Vec::new(),
            walked: 0,
        }
    }

    /// The lines in one interleave period when the controller of every
    /// address is a function of its line index modulo that many lines:
    /// sliced maps whose controller field lies at or above the line bits,
    /// and page-interleave maps of whole-line pages. `None` for every
    /// other map, hashed ones included.
    fn line_period(&self) -> Option<u64> {
        let line = self.policy.geometry().line_size();
        let exact = match self.policy {
            MapPolicy::Sliced(m) => m.mc_lo_bit >= m.line_bits,
            MapPolicy::PageInterleave { page, .. } => page > 0 && page % line == 0,
            MapPolicy::XorFold { .. } => false,
        };
        exact.then(|| self.policy.interleave_period() / line)
    }

    /// Predicts the controller-utilization efficiency of a set of lockstep
    /// streams: [`LayoutAdvisor::analyze`] at a read cost of 1 and a
    /// write-back cost of 2, labelled with the constraint that set the
    /// time.
    ///
    /// On a multi-socket chip the streams are assumed socket-local
    /// (first-touch placement). Combine with
    /// [`LayoutAdvisor::locality_factor`] for non-local placements.
    pub fn predict(&self, streams: &[StreamDesc]) -> Prediction {
        let a = self.analyze(streams, 1, 2);
        let (convoy, ideal, hotspot) = a.bounds();
        let bound = if convoy >= hotspot && convoy > ideal {
            Bound::Convoy
        } else if hotspot >= convoy && hotspot > ideal {
            Bound::Hotspot
        } else {
            Bound::Aggregate
        };
        Prediction {
            efficiency: a.efficiency(),
            bound,
            concurrent_controllers: a.concurrent_controllers(),
            controller_load: a.load,
        }
    }

    /// Suggested byte offsets for `n` equally-important streams so that at
    /// every phase the streams spread maximally over the controllers: stream
    /// `i` is offset by `(i mod n_mc) · period / n_mc` bytes, where `period`
    /// is the policy's [`MapPolicy::interleave_period`].
    ///
    /// For four streams on the T2 this yields the paper's optimum
    /// `[0, 128, 256, 384]` (§2.2: offsets 128/256/384 for B, C, D with A at
    /// the page boundary). Under page interleave the step grows to one page,
    /// the smallest offset that changes controllers at all.
    /// On a NUMA chip the offsets stay inside the *per-socket* period and
    /// rotate over the local controllers — crossing into another socket's
    /// residues would trade a cheap aliasing fix for an expensive affinity
    /// break (see the type-level docs); the step is identical because both
    /// the period and the controller count divide by `n_sockets`.
    pub fn suggest_offsets(&self, n: usize) -> Vec<usize> {
        let mps = self.mcs_per_socket();
        let step = self.local_period() / mps;
        (0..n).map(|i| (i % mps) * step).collect()
    }

    /// Suggested per-segment shift so that successive segments rotate through
    /// the (socket-local) controllers: `period / n_mc` (128 B on the T2, the
    /// paper's Jacobi choice — and the same value on the NUMA presets, where
    /// it is `local_period / mcs_per_socket`).
    pub fn suggest_shift(&self) -> usize {
        self.local_period() / self.mcs_per_socket()
    }

    /// Suggested segment alignment: the interleave period (512 B on the T2),
    /// so that shifts translate exactly into controller rotation. On NUMA
    /// chips this is the per-socket period — the granularity the folded
    /// mapping actually repeats at.
    pub fn suggest_seg_align(&self) -> usize {
        self.local_period()
    }

    /// The advisor's complete closed-form layout for the mapping: page base
    /// alignment (so offsets are exact), segments padded to the super-line,
    /// successive segments shifted by [`LayoutAdvisor::suggest_shift`], and a
    /// per-array block offset of `super_line / n_mc` — array `j` of a
    /// multi-array kernel is placed at `j ·` that offset, reproducing
    /// [`LayoutAdvisor::suggest_offsets`]. On the T2 this is
    /// `base_align 8192, seg_align 512, shift 128, block_offset 128`.
    ///
    /// This is the seed the empirical autotuner's advisor-seeded search
    /// starts from (§2.3: the optimum "can be obtained by analyzing the data
    /// access properties of the loop kernel … no 'trial and error' is
    /// required").
    /// On NUMA chips the layout additionally pins first-touch placement —
    /// affinity before offsets — and all byte parameters use the
    /// per-socket period.
    pub fn suggest_layout(&self) -> crate::layout::LayoutSpec {
        let period = self.local_period();
        let page = 8192usize.max(period);
        crate::layout::LayoutSpec::new()
            .base_align(page)
            .seg_align(self.suggest_seg_align())
            .shift(self.suggest_shift())
            .block_offset(period / self.mcs_per_socket())
            .placement(PagePlacement::FirstTouch)
    }

    /// Brute-force check of the analytic suggestion: searches offsets over
    /// multiples of `granularity` bytes within one interleave period for the
    /// stream combination maximizing predicted efficiency. Stream 0's offset
    /// varies too (only relative placement matters, but the search space is
    /// cheap). Returns (offsets, efficiency).
    ///
    /// Exponential in the number of streams — intended for ≤ 4 streams, as a
    /// validation that the closed-form [`LayoutAdvisor::suggest_offsets`] is
    /// optimal, not as a production path.
    pub fn search_offsets(&self, kinds: &[StreamKind], granularity: usize) -> (Vec<usize>, f64) {
        assert!(!kinds.is_empty());
        assert!(granularity > 0);
        let period = self.policy.interleave_period() as usize;
        let choices = period / granularity;
        let n = kinds.len();
        let mut best = (vec![0usize; n], f64::NEG_INFINITY);
        let mut current = vec![0usize; n];
        self.search_rec(kinds, granularity, choices, 0, &mut current, &mut best);
        best
    }

    fn search_rec(
        &self,
        kinds: &[StreamKind],
        granularity: usize,
        choices: usize,
        depth: usize,
        current: &mut Vec<usize>,
        best: &mut (Vec<usize>, f64),
    ) {
        if depth == kinds.len() {
            let streams: Vec<StreamDesc> = kinds
                .iter()
                .zip(current.iter())
                .map(|(&kind, &off)| StreamDesc {
                    base: off as u64,
                    kind,
                })
                .collect();
            let eff = self.predict(&streams).efficiency;
            if eff > best.1 {
                *best = (current.clone(), eff);
            }
            return;
        }
        for c in 0..choices {
            current[depth] = c * granularity;
            self.search_rec(kinds, granularity, choices, depth + 1, current, best);
        }
    }
}

impl Default for LayoutAdvisor {
    fn default() -> Self {
        LayoutAdvisor::t2()
    }
}

/// The phase loop behind every walk: `lines(p)` yields the kind and the
/// socket-local controller of each stream's line at phase `p`.
fn walk<I>(
    mps: usize,
    phases: usize,
    read_cost: u64,
    write_cost: u64,
    mut lines: impl FnMut(u64) -> I,
) -> PhaseAnalysis
where
    I: Iterator<Item = (StreamKind, usize)>,
{
    let mut load = vec![0u64; mps];
    let mut blocking = vec![0u64; mps];
    let mut convoy = 0u64;
    let mut distinct = 0usize;
    for p in 0..phases as u64 {
        blocking.fill(0);
        for (kind, mc) in lines(p) {
            let read = u64::from(kind.blocking()) * read_cost;
            blocking[mc] += read;
            load[mc] += read + u64::from(kind.writebacks()) * write_cost;
        }
        convoy += *blocking.iter().max().expect("at least one controller");
        distinct += blocking.iter().filter(|&&b| b > 0).count();
    }
    PhaseAnalysis {
        load,
        convoy,
        distinct,
        phases,
    }
}

/// [`LayoutAdvisor::analyze`] at fixed costs over many stream sets, each
/// distinct set walked once ([`LayoutAdvisor::phase_memo`]).
///
/// On a map whose controller is a function of the line index modulo the
/// period's `P` lines, a set's walk depends only on its streams' kinds and
/// on their line indices minus the first stream's, modulo `P`: moving
/// every stream by whole lines only rotates the walk's phases, and `load`,
/// `convoy` and `distinct` are sums over phases. The memo keys each set by
/// exactly that and walks it over a per-period table of socket-folded
/// controllers, so equal keys give equal analyses bit for bit. On any
/// other map (`XorFold`, sliced maps with controller bits below the line
/// bits, pages that are not whole lines) every set is walked by
/// [`LayoutAdvisor::analyze`] itself.
#[derive(Debug)]
pub struct PhaseMemo<'a> {
    advisor: &'a LayoutAdvisor,
    read_cost: u64,
    write_cost: u64,
    /// Socket-folded controller of each line of one period; empty when the
    /// map has no exact line period and every set falls back to `analyze`.
    table: Vec<u32>,
    /// Key → position in `walks`.
    index: HashMap<Vec<u64>, usize, BuildHasherDefault<KeyHasher>>,
    /// One analysis per distinct key, or the latest one on the fallback.
    walks: Vec<PhaseAnalysis>,
    /// The key being looked up: per stream, its line offset from the
    /// first stream modulo the period, shifted left by 2, or'ed with its
    /// kind's discriminant.
    key: Vec<u64>,
    /// Phase walks run, for [`PhaseMemo::walks`].
    walked: usize,
}

impl PhaseMemo<'_> {
    /// The analysis of `streams`, equal field by field to
    /// `analyze(streams, read_cost, write_cost)`.
    pub fn analyze(&mut self, streams: &[StreamDesc]) -> &PhaseAnalysis {
        if self.table.is_empty() {
            let a = self
                .advisor
                .analyze(streams, self.read_cost, self.write_cost);
            self.walked += 1;
            self.walks.clear();
            self.walks.push(a);
            return &self.walks[0];
        }
        let lines = self.table.len() as u64;
        let line_bits = self.advisor.policy.geometry().line_bits;
        let first = streams.first().map_or(0, |s| (s.base >> line_bits) % lines);
        self.key.clear();
        self.key.extend(streams.iter().map(|s| {
            let offset = ((s.base >> line_bits) % lines + lines - first) % lines;
            offset << 2 | s.kind as u64
        }));
        let i = match self.index.get(self.key.as_slice()) {
            Some(&i) => i,
            None => {
                let a = self.walk_key(streams);
                self.walked += 1;
                self.walks.push(a);
                self.index.insert(self.key.clone(), self.walks.len() - 1);
                self.walks.len() - 1
            }
        };
        &self.walks[i]
    }

    /// Phase walks run so far: one per distinct key on a map with an exact
    /// line period, one per call otherwise.
    pub fn walks(&self) -> usize {
        self.walked
    }

    /// Walks `streams` at the current key's offsets, from line 0 of the
    /// table.
    fn walk_key(&self, streams: &[StreamDesc]) -> PhaseAnalysis {
        let table = &self.table;
        let lines = table.len();
        let mps = self.advisor.mcs_per_socket();
        walk(mps, lines, self.read_cost, self.write_cost, |p| {
            streams.iter().zip(&self.key).map(move |(s, &k)| {
                let line = (k >> 2) as usize + p as usize;
                let line = if line >= lines { line - lines } else { line };
                (s.kind, table[line] as usize)
            })
        })
    }
}

/// Multiply-rotate hashing of [`PhaseMemo`] keys, about one multiply per
/// stream. The keys are line offsets the memo computes itself; a
/// collision costs time within one memo, never a wrong answer.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Vector triad A = B + C·D: store A, load B, C, D.
    fn triad_streams(offsets: [u64; 4]) -> Vec<StreamDesc> {
        vec![
            StreamDesc::write(offsets[0]),
            StreamDesc::read(offsets[1]),
            StreamDesc::read(offsets[2]),
            StreamDesc::read(offsets[3]),
        ]
    }

    #[test]
    fn congruent_streams_convoy() {
        // All four arrays congruent mod 512 B — the Fig. 4 "align 8k" floor.
        // Blocking units pile 4-deep on a single controller every phase.
        let adv = LayoutAdvisor::t2();
        let p = adv.predict(&triad_streams([0, 0, 0, 0]));
        assert_eq!(p.bound, Bound::Convoy);
        assert!((p.concurrent_controllers - 1.0).abs() < 1e-12);
        // total work/phase = 3 reads + 1 rfo + 2 wb = 6; ideal 1.5; convoy 4.
        assert!(
            (p.efficiency - 1.5 / 4.0).abs() < 1e-12,
            "got {}",
            p.efficiency
        );
    }

    #[test]
    fn suggested_offsets_reach_full_efficiency() {
        let adv = LayoutAdvisor::t2();
        let offs = adv.suggest_offsets(4);
        assert_eq!(offs, vec![0, 128, 256, 384]);
        let p = adv.predict(&triad_streams([
            offs[0] as u64,
            offs[1] as u64,
            offs[2] as u64,
            offs[3] as u64,
        ]));
        assert!(
            (p.efficiency - 1.0).abs() < 1e-12,
            "paper's optimal offsets must saturate all controllers, got {}",
            p.efficiency
        );
        assert!((p.concurrent_controllers - 4.0).abs() < 1e-12);
    }

    #[test]
    fn congruent_vs_optimal_ratio_matches_fig4() {
        // Fig. 4: hard limits at ~16 and ~3.7 GB/s — a factor ≈ 4.3. Our
        // model predicts optimal/congruent = 1.0 / 0.375 ≈ 2.7 from
        // bandwidth terms alone (the rest is latency serialization, which
        // the simulator adds). Require at least the 2.5× bandwidth part.
        let adv = LayoutAdvisor::t2();
        let worst = adv.predict(&triad_streams([0, 0, 0, 0])).efficiency;
        let best = adv.predict(&triad_streams([0, 128, 256, 384])).efficiency;
        assert!(best / worst > 2.5, "ratio {}", best / worst);
    }

    #[test]
    fn offset_64_words_is_as_bad_as_zero() {
        // Fig. 2: performance "returns to the same level at an offset of 64
        // [DP words]" = 512 B.
        let adv = LayoutAdvisor::t2();
        let zero = adv.predict(&triad_streams([0, 0, 0, 0])).efficiency;
        let off512 = adv.predict(&triad_streams([0, 512, 1024, 1536])).efficiency;
        assert!((zero - off512).abs() < 1e-12);
    }

    #[test]
    fn odd_multiple_of_32_words_improves() {
        // Fig. 2: "At odd multiples of 32, the situation is improved because
        // bit 8 is different for array B's base and thus two controllers are
        // addressed" — the paper expects up to 100%; the bandwidth part of
        // our model gives 1.5×, the rest is latency (simulator territory).
        let adv = LayoutAdvisor::t2();
        // STREAM triad A = B + s·C with COMMON-block layout: B and C offset
        // from A by k and 2k DP words.
        let stream_triad = |k: u64| {
            vec![
                StreamDesc::write(0),
                StreamDesc::read(k * 8),
                StreamDesc::read(2 * k * 8),
            ]
        };
        let zero = adv.predict(&stream_triad(0));
        let thirty_two = adv.predict(&stream_triad(32));
        assert!((zero.concurrent_controllers - 1.0).abs() < 1e-12);
        assert!((thirty_two.concurrent_controllers - 2.0).abs() < 1e-12);
        assert!(
            thirty_two.efficiency > 1.45 * zero.efficiency,
            "offset 32 should improve efficiency: {} -> {}",
            zero.efficiency,
            thirty_two.efficiency
        );
    }

    #[test]
    fn shift_suggestion_is_128_bytes_on_t2() {
        let adv = LayoutAdvisor::t2();
        assert_eq!(adv.suggest_shift(), 128);
        assert_eq!(adv.suggest_seg_align(), 512);
    }

    #[test]
    fn suggested_layout_is_the_paper_optimum() {
        let spec = LayoutAdvisor::t2().suggest_layout();
        assert_eq!(spec.base_align, 8192);
        assert_eq!(spec.seg_align, 512);
        assert_eq!(spec.shift, 128);
        assert_eq!(spec.block_offset, 128);
        // Per-array offsets j · block_offset reproduce suggest_offsets.
        let offs: Vec<usize> = (0..4).map(|j| j * spec.block_offset).collect();
        assert_eq!(offs, LayoutAdvisor::t2().suggest_offsets(4));
    }

    #[test]
    fn search_confirms_analytic_offsets() {
        // Exhaustive search at 128 B granularity over 4 read streams must
        // find a layout with all controllers concurrently busy
        // (efficiency 1.0), matching the closed form.
        let adv = LayoutAdvisor::t2();
        let kinds = [StreamKind::Read; 4];
        let (offs, eff) = adv.search_offsets(&kinds, 128);
        assert!(
            (eff - 1.0).abs() < 1e-12,
            "search should reach 1.0, got {eff}"
        );
        let mut mcs: Vec<u32> = offs
            .iter()
            .map(|&o| adv.policy().controller(o as u64))
            .collect();
        mcs.sort_unstable();
        assert_eq!(mcs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn controller_load_histogram_accounts_all_units() {
        let adv = LayoutAdvisor::t2();
        let streams = triad_streams([0, 128, 256, 384]);
        let p = adv.predict(&streams);
        // 8 phases × (write 3 + read 1 × 3) = 48.
        assert_eq!(p.controller_load.iter().sum::<u64>(), 48);
    }

    #[test]
    fn writeback_only_streams_never_convoy() {
        // Pure write-back traffic is buffered: even congruent streams rotate
        // through all controllers over the period and the queues smooth them
        // out, so there is no convoy and no hotspot — this is why footnote 1
        // of the paper notes that non-temporal stores help on x86.
        let adv = LayoutAdvisor::t2();
        let streams = vec![
            StreamDesc::writeback(0),
            StreamDesc::writeback(0),
            StreamDesc::writeback(0),
        ];
        let p = adv.predict(&streams);
        assert_ne!(p.bound, Bound::Convoy);
        assert!((p.efficiency - 1.0).abs() < 1e-12, "got {}", p.efficiency);
    }

    #[test]
    fn empty_streams_are_trivially_efficient() {
        let adv = LayoutAdvisor::t2();
        assert_eq!(adv.predict(&[]).efficiency, 1.0);
    }

    #[test]
    fn page_interleave_suggestions_operate_at_page_granularity() {
        use crate::mapping::AddressMap;
        let adv = LayoutAdvisor::new(MapPolicy::PageInterleave {
            base: AddressMap::ultrasparc_t2(),
            page: 4096,
        });
        // Sub-page offsets cannot change the controller, so the advisor
        // must step whole pages: [0, 4096, 8192, 12288].
        let offs = adv.suggest_offsets(4);
        assert_eq!(offs, vec![0, 4096, 8192, 12288]);
        assert_eq!(adv.suggest_shift(), 4096);
        assert_eq!(adv.suggest_seg_align(), 16384);
        let spec = adv.suggest_layout();
        assert_eq!(spec.base_align, 16384);
        assert_eq!(spec.block_offset, 4096);
        // The page-stepped streams saturate all four controllers, while the
        // T2's 128 B offsets are near-worthless under page interleave: the
        // streams share a page (and thus a controller) for all but the few
        // boundary-straddling phases per page.
        let streams: Vec<StreamDesc> = offs.iter().map(|&o| StreamDesc::read(o as u64)).collect();
        assert!((adv.predict(&streams).efficiency - 1.0).abs() < 1e-12);
        let fine: Vec<StreamDesc> = [0u64, 128, 256, 384]
            .iter()
            .map(|&o| StreamDesc::read(o))
            .collect();
        let eff = adv.predict(&fine).efficiency;
        assert!((0.25..0.30).contains(&eff), "got {eff}");
    }

    #[test]
    fn numa_advisor_folds_aliasing_into_the_socket() {
        let spec = crate::chip::ChipSpec::numa_2s();
        let adv = spec.advisor();
        // Offsets stay inside the 512 B per-socket period with the T2 step.
        assert_eq!(adv.suggest_offsets(4), vec![0, 128, 256, 384]);
        assert_eq!(adv.suggest_shift(), 128);
        assert_eq!(adv.suggest_seg_align(), 512);
        assert_eq!(adv.local_period(), 512);
        // A 512 B offset changes the *raw* controller (bit 9) but not the
        // local one — under first-touch placement it still aliases.
        assert_ne!(
            spec.map.controller(0),
            spec.map.controller(512),
            "raw map must differ so the fold is doing real work"
        );
        let aliased = adv.predict(&triad_streams([0, 512, 1024, 1536]));
        assert_eq!(aliased.bound, Bound::Convoy);
        assert!((aliased.concurrent_controllers - 1.0).abs() < 1e-12);
        let spread = adv.predict(&triad_streams([0, 128, 256, 384]));
        assert!((spread.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn affinity_dominates_aliasing_on_the_numa_presets() {
        for name in ["2s-numa", "4s-numa-wide"] {
            let spec = crate::chip::ChipSpec::preset(name).unwrap();
            let adv = spec.advisor();
            let local = adv.locality_factor(PagePlacement::FirstTouch);
            let inter = adv.locality_factor(PagePlacement::Interleave);
            let remote = adv.locality_factor(PagePlacement::Remote);
            assert_eq!(local, 1.0);
            assert!(local > inter && inter > remote, "{name}: {inter} {remote}");
            // The worst aliasing penalty within a socket is 1/mps; the
            // wrong-socket penalty must be deeper than that.
            let worst_alias = 1.0 / spec.mcs_per_socket() as f64;
            assert!(
                remote < worst_alias,
                "{name}: wrong socket ({remote}) must cost more than \
                 the worst convoy ({worst_alias})"
            );
            // The suggested layout pins first-touch placement.
            assert_eq!(adv.suggest_layout().placement, PagePlacement::FirstTouch);
        }
        // Single-socket chips: placement is a no-op.
        let t2 = LayoutAdvisor::t2();
        for p in PagePlacement::ALL {
            assert_eq!(t2.locality_factor(p), 1.0);
        }
    }

    #[test]
    fn hashed_window_counts_raw_controllers_on_two_sockets() {
        use crate::mapping::AddressMap;
        // The 2s-numa geometry under an XOR fold: 8 raw controllers, 4 per
        // socket, 16 lines per super-line. The averaging window scales
        // with the raw controller count (4 · 16 · 8 = 512 phases), not the
        // per-socket one (256), while the load still folds into the 4
        // local controllers.
        let adv = LayoutAdvisor::new(MapPolicy::XorFold {
            base: AddressMap {
                line_bits: 6,
                mc_lo_bit: 7,
                mc_bits: 3,
                bank_lo_bit: 6,
                bank_bits: 3,
            },
            folds: 2,
        })
        .with_numa(crate::chip::ChipSpec::numa_2s().sockets, 12);
        let a = adv.analyze(&triad_streams([0, 128, 256, 384]), 1, 2);
        assert_eq!(a.phases, 512);
        assert_eq!(a.load.len(), 4);
        // 4 blocking lines + 1 write-back of cost 2 per phase.
        assert_eq!(a.total(), 512 * 6);
    }

    #[test]
    fn xor_fold_policy_makes_congruent_streams_benign() {
        use crate::mapping::{AddressMap, MapPolicy};
        let adv = LayoutAdvisor::new(MapPolicy::XorFold {
            base: AddressMap::ultrasparc_t2(),
            folds: 8, // folds cover bits 7..23, reaching the 2^20 separation
        });
        // Large power-of-two separations, congruent mod 512 — catastrophic
        // on the sliced map, mostly fine under the fold.
        let sep = 1u64 << 20;
        let streams: Vec<StreamDesc> = (0..4).map(|i| StreamDesc::read(i as u64 * sep)).collect();
        let folded = adv.predict(&streams).efficiency;
        let sliced = LayoutAdvisor::t2().predict(&streams).efficiency;
        assert!((sliced - 0.25).abs() < 1e-12);
        assert!(
            folded > 0.5,
            "fold should spread congruent streams, got {folded}"
        );
    }

    #[test]
    fn convoy_takes_its_tie_with_the_hotspot() {
        use crate::mapping::AddressMap;
        // Over a period of a sliced or page-interleaved map every
        // controller carries the same load, so the convoy and hotspot
        // bounds never tie above the ideal there. The XOR fold
        // `ablation_mapping` runs does: this set walks 128 phases to a
        // hottest controller of 196, equal to the convoy sum, against an
        // ideal of 192.
        let adv = LayoutAdvisor::new(MapPolicy::XorFold {
            base: AddressMap::ultrasparc_t2(),
            folds: 10,
        });
        let streams = [
            StreamDesc::read(0x1000_0000),
            StreamDesc::write(0x1000_0040),
            StreamDesc::writeback(0x1000_0180),
        ];
        let a = adv.analyze(&streams, 1, 2);
        assert_eq!(a.phases, 128);
        assert_eq!(a.load, vec![188, 196, 189, 195]);
        assert_eq!(a.convoy, 196);
        assert_eq!(adv.predict(&streams).bound, Bound::Convoy);
    }
}
