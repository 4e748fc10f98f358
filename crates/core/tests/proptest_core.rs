//! Property-based tests for the core layout machinery.

use proptest::prelude::*;
use t2opt_core::advisor::{LayoutAdvisor, StreamDesc, StreamKind};
use t2opt_core::chip::{ChipSpec, SocketTopology, PRESET_NAMES};
use t2opt_core::layout::{LayoutSpec, SegmentPlan};
use t2opt_core::mapping::{AddressMap, MapPolicy};
use t2opt_core::seg_array::SegArray;

/// Arbitrary layout specs. Shifts/offsets are multiples of 8 so the
/// layouts stay element-aligned for `u64`/`f64` host arrays (byte-granular
/// values are legal for trace-only layouts; `SegArray` rejects them).
fn arb_spec() -> impl Strategy<Value = LayoutSpec> {
    (
        prop_oneof![Just(64usize), Just(128), Just(512), Just(4096), Just(8192)],
        prop_oneof![Just(0usize), Just(1), Just(64), Just(512), Just(4096)],
        0usize..75,
        0usize..75,
    )
        .prop_map(|(base_align, seg_align, shift, offset)| {
            LayoutSpec::new()
                .base_align(base_align)
                .seg_align(seg_align)
                .shift(shift * 8)
                .block_offset(offset * 8)
        })
}

proptest! {
    /// Any (spec, len, segments) combination yields a valid layout:
    /// disjoint, ordered, exactly covering `len` elements.
    #[test]
    fn layout_plan_always_valid(
        spec in arb_spec(),
        len in 0usize..10_000,
        segs in 1usize..40,
    ) {
        let layout = spec.plan(len, 8, &SegmentPlan::Count(segs));
        layout.validate();
        prop_assert_eq!(layout.seg_sizes.iter().sum::<usize>(), len);
        // The paper's size rule: ⌊N/t⌋+1 for the first N mod t, ⌊N/t⌋ after.
        for (s, &size) in layout.seg_sizes.iter().enumerate() {
            let expected = len / segs + usize::from(s < len % segs);
            prop_assert_eq!(size, expected);
        }
    }

    /// Per-segment alignment (pre-shift) holds for every segment after the
    /// first, and the cumulative shift is exactly s·shift.
    #[test]
    fn shift_and_alignment_arithmetic(
        len in 1usize..5_000,
        segs in 1usize..30,
        shift in 0usize..300,
    ) {
        let spec = LayoutSpec::new().seg_align(512).shift(shift);
        let layout = spec.plan(len, 8, &SegmentPlan::Count(segs));
        for (s, &start) in layout.seg_byte_starts.iter().enumerate() {
            let unshifted = start - s * shift;
            if s > 0 {
                prop_assert_eq!(unshifted % 512, 0, "segment {} misaligned", s);
            }
        }
    }

    /// A built SegArray stores and retrieves every element faithfully for
    /// arbitrary layouts (no overlap, no loss).
    #[test]
    fn seg_array_round_trip(
        spec in arb_spec(),
        len in 0usize..4_096,
        segs in 1usize..20,
    ) {
        let mut arr = SegArray::<u64>::builder(len).segments(segs).spec(spec).build();
        arr.fill_with(|i| (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD);
        for i in (0..len).step_by(97.max(len / 50 + 1)) {
            prop_assert_eq!(arr.get(i), (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD);
        }
        let v = arr.to_vec();
        prop_assert_eq!(v.len(), len);
        for (i, &x) in v.iter().enumerate() {
            prop_assert_eq!(x, (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD);
        }
    }

    /// segments_mut hands out genuinely disjoint slices: writing a marker
    /// through one never shows through another.
    #[test]
    fn segments_mut_disjoint(
        len in 1usize..2_048,
        segs in 1usize..16,
        shift in 0usize..25,
    ) {
        let spec = LayoutSpec::new().seg_align(512).shift(shift * 8);
        let mut arr = SegArray::<u64>::builder(len).segments(segs).spec(spec).build();
        {
            let slices = arr.segments_mut();
            for (k, sl) in slices.into_iter().enumerate() {
                for x in sl.iter_mut() {
                    *x = k as u64 + 1;
                }
            }
        }
        for k in 0..arr.num_segments() {
            prop_assert!(arr.segment(k).iter().all(|&x| x == k as u64 + 1));
        }
    }

    /// The T2 mapping is a balanced 4-way split of any 512-aligned window:
    /// each controller serves exactly 2 of every 8 consecutive lines.
    #[test]
    fn mapping_balanced_over_any_window(start_line in 0u64..1_000_000) {
        let map = AddressMap::ultrasparc_t2();
        let base = start_line * 512; // super-line aligned
        let mut counts = [0u32; 4];
        for l in 0..8 {
            counts[map.controller(base + l * 64) as usize] += 1;
        }
        prop_assert_eq!(counts, [2, 2, 2, 2]);
    }

    /// Advisor efficiency is always in (0, 1], and adding 512 B to every
    /// base never changes the prediction (periodicity).
    #[test]
    fn advisor_bounds_and_periodicity(
        bases in proptest::collection::vec(0u64..4096, 1..6),
        write_mask in 0u32..64,
    ) {
        let advisor = LayoutAdvisor::t2();
        let streams: Vec<StreamDesc> = bases
            .iter()
            .enumerate()
            .map(|(i, &b)| StreamDesc {
                base: b,
                kind: if write_mask & (1 << i) != 0 {
                    StreamKind::Write
                } else {
                    StreamKind::Read
                },
            })
            .collect();
        let p = advisor.predict(&streams);
        prop_assert!(p.efficiency > 0.0 && p.efficiency <= 1.0 + 1e-12);
        let shifted: Vec<StreamDesc> = streams
            .iter()
            .map(|s| StreamDesc { base: s.base + 512, kind: s.kind })
            .collect();
        let q = advisor.predict(&shifted);
        prop_assert!((p.efficiency - q.efficiency).abs() < 1e-12);
    }

    /// The phase walk is linear in its costs, on every preset's map:
    /// scaling the read and the write cost by `k` scales every
    /// controller's load and the convoy sum by exactly `k`, and leaves the
    /// distinct-controller count and the phase count unchanged.
    #[test]
    fn phase_walk_scales_with_its_costs(
        preset in 0..PRESET_NAMES.len(),
        streams in proptest::collection::vec((0u64..65_536, 0u8..3), 1..6),
        read in 0u64..32,
        write in 0u64..64,
        k in 1u64..8,
    ) {
        let advisor = ChipSpec::preset(PRESET_NAMES[preset]).unwrap().advisor();
        let streams: Vec<StreamDesc> = streams
            .into_iter()
            .map(|(base, kind)| StreamDesc {
                base,
                kind: match kind {
                    0 => StreamKind::Read,
                    1 => StreamKind::Write,
                    _ => StreamKind::Writeback,
                },
            })
            .collect();
        let unit = advisor.analyze(&streams, read, write);
        let scaled = advisor.analyze(&streams, k * read, k * write);
        let expect: Vec<u64> = unit.load.iter().map(|&l| k * l).collect();
        prop_assert_eq!(scaled.load, expect);
        prop_assert_eq!(scaled.convoy, k * unit.convoy);
        prop_assert_eq!(scaled.distinct, unit.distinct);
        prop_assert_eq!(scaled.phases, unit.phases);
    }

    /// The closed-form offset suggestion is never beaten by exhaustive
    /// search at 128 B granularity (read streams).
    #[test]
    fn suggestion_is_optimal_for_reads(n in 1usize..5) {
        let advisor = LayoutAdvisor::t2();
        let offs = advisor.suggest_offsets(n);
        let streams: Vec<StreamDesc> =
            offs.iter().map(|&o| StreamDesc::read(o as u64)).collect();
        let suggested = advisor.predict(&streams).efficiency;
        let (_, searched) = advisor.search_offsets(&vec![StreamKind::Read; n], 128);
        prop_assert!(suggested >= searched - 1e-12);
    }
}

/// Arbitrary bit-sliced geometries with disjoint fields: the bank field
/// starts at or above the line bits, the controller field at or above the
/// bank field (the T2 is the gap-free instance of this family). Covers
/// 1–8 controllers, 1–4 banks per controller, 16–128 B lines, and
/// super-lines from 128 B to 64 KiB.
fn arb_geometry() -> impl Strategy<Value = AddressMap> {
    (4u32..8, 0u32..3, 0u32..3, 1u32..4, 0u32..3).prop_map(
        |(line_bits, bank_gap, bank_bits, mc_bits, mc_gap)| {
            let bank_lo_bit = line_bits + bank_gap;
            let mc_lo_bit = bank_lo_bit + bank_bits + mc_gap;
            AddressMap {
                line_bits,
                mc_lo_bit,
                mc_bits,
                bank_lo_bit,
                bank_bits,
            }
        },
    )
}

proptest! {
    /// Over one super-line, consecutive cache lines visit every
    /// (controller, bank) combination equally often — the load-balance
    /// property the whole layout method depends on.
    #[test]
    fn geometry_uniform_over_one_super_line(
        geo in arb_geometry(),
        window in 0u64..1_000_000,
    ) {
        let base = window * geo.super_line();
        let lines = (geo.super_line() / geo.line_size()) as usize;
        let mut counts = vec![0u32; geo.num_banks() as usize];
        for l in 0..lines {
            counts[geo.bank(base + l as u64 * geo.line_size()) as usize] += 1;
        }
        let expected = lines as u32 / geo.num_banks();
        prop_assert!(
            counts.iter().all(|&c| c == expected),
            "non-uniform bank counts {counts:?} for {geo:?}"
        );
    }

    /// The mapping is periodic with period `super_line()` at every address
    /// (not only at line boundaries).
    #[test]
    fn geometry_periodic_with_super_line(
        geo in arb_geometry(),
        addr in 0u64..(1 << 40),
        periods in 1u64..8,
    ) {
        let shifted = addr + periods * geo.super_line();
        prop_assert_eq!(geo.controller(addr), geo.controller(shifted));
        prop_assert_eq!(geo.local_bank(addr), geo.local_bank(shifted));
        prop_assert_eq!(geo.bank(addr), geo.bank(shifted));
    }

    /// controller / local_bank / bank stay mutually consistent and within
    /// range for random geometries and addresses.
    #[test]
    fn geometry_fields_mutually_consistent(
        geo in arb_geometry(),
        addr in 0u64..(1 << 40),
    ) {
        let mc = geo.controller(addr);
        let local = geo.local_bank(addr);
        prop_assert!(mc < geo.num_controllers());
        prop_assert!(local < geo.banks_per_controller());
        prop_assert_eq!(geo.bank(addr), mc * geo.banks_per_controller() + local);
        prop_assert_eq!(
            geo.num_banks(),
            geo.num_controllers() * geo.banks_per_controller()
        );
        // Line arithmetic agrees with the bit fields.
        prop_assert_eq!(geo.line_base(addr) % geo.line_size(), 0);
        prop_assert_eq!(geo.line_index(addr), addr / geo.line_size());
        prop_assert_eq!(geo.bank(geo.line_base(addr)), geo.bank(addr));
    }
}

/// The advisor of memo-test map `map`: 0–5 the presets (socket folds
/// included), 6 a sliced map, 7 a page-interleave map, 8 an XOR fold.
/// The random geometries put the controller field as low as one bit
/// below the line bits and the page as much as a line fraction off whole
/// lines, so both fall back to `analyze` in part of the cases. Returns the
/// advisor and whether its map has an exact line period.
fn memo_advisor(
    map: usize,
    (line_bits, mc_gap, mc_bits, page_lines, page_off, sockets): (u32, u32, u32, u64, u64, u32),
) -> (LayoutAdvisor, bool) {
    if map < PRESET_NAMES.len() {
        return (ChipSpec::preset(PRESET_NAMES[map]).unwrap().advisor(), true);
    }
    let geo = AddressMap {
        line_bits,
        mc_lo_bit: line_bits + mc_gap - 1,
        mc_bits,
        bank_lo_bit: line_bits,
        bank_bits: 0,
    };
    let line = geo.line_size();
    let (policy, exact) = match map {
        6 => (MapPolicy::Sliced(geo), mc_gap > 0),
        7 => (
            MapPolicy::PageInterleave {
                base: geo,
                page: page_lines * line + page_off * line / 4,
            },
            page_off == 0,
        ),
        _ => (
            MapPolicy::XorFold {
                base: geo,
                folds: mc_gap + 1,
            },
            false,
        ),
    };
    let n_sockets = 1usize << sockets.min(mc_bits);
    let topology = SocketTopology {
        n_sockets,
        ..SocketTopology::single()
    };
    (LayoutAdvisor::new(policy).with_numa(topology, 12), exact)
}

proptest! {
    /// The memoized walk of every stream set equals `analyze` of that set,
    /// field by field, on the presets, random sliced and page-interleave
    /// geometries and an XOR fold. Each call walks sets of 1–40 streams of
    /// mixed kinds at sub-line offsets above 2^40, with variants that move
    /// every stream by the same whole lines, move streams by whole periods
    /// independently, or change one stream's kind. On a map with an exact
    /// line period the two moves reuse the set's walk.
    #[test]
    fn memoized_phase_walks_equal_analyze(
        map in 0usize..9,
        geometry in (4u32..8, 0u32..3, 1u32..4, 1u64..5, 0u64..3, 0u32..3),
        costs in (1u64..32, 0u64..64),
        seed in 1u64..u64::MAX,
    ) {
        let (advisor, exact) = memo_advisor(map, geometry);
        let (read, write) = costs;
        let period = advisor.policy().interleave_period();
        let line = advisor.policy().geometry().line_size();
        let mut rng = proptest::TestRng::new(seed);
        let mut memo = advisor.phase_memo(read, write);
        for _ in 0..3 {
            let n = 1 + rng.below(40) as usize;
            let set: Vec<StreamDesc> = (0..n)
                .map(|_| StreamDesc {
                    base: (1 << 40) + rng.below(1 << 24),
                    kind: [StreamKind::Read, StreamKind::Write, StreamKind::Writeback]
                        [rng.below(3) as usize],
                })
                .collect();
            let shift = rng.below(1 << 20) * line;
            let translated: Vec<StreamDesc> = set
                .iter()
                .map(|s| StreamDesc { base: s.base + shift, ..*s })
                .collect();
            let congruent: Vec<StreamDesc> = set
                .iter()
                .map(|s| StreamDesc { base: s.base + shift + rng.below(4) * period, ..*s })
                .collect();
            let mut rekinded = set.clone();
            rekinded[0].kind = match rekinded[0].kind {
                StreamKind::Read => StreamKind::Write,
                StreamKind::Write => StreamKind::Writeback,
                StreamKind::Writeback => StreamKind::Read,
            };
            for (streams, reuses_walk) in [
                (&set, false),
                (&translated, exact),
                (&congruent, exact),
                (&rekinded, false),
            ] {
                let walks = memo.walks();
                let got = memo.analyze(streams).clone();
                let want = advisor.analyze(streams, read, write);
                prop_assert_eq!(&got.load, &want.load, "{:?}", advisor);
                prop_assert_eq!(got.convoy, want.convoy);
                prop_assert_eq!(got.distinct, want.distinct);
                prop_assert_eq!(got.phases, want.phases);
                if reuses_walk {
                    prop_assert_eq!(memo.walks(), walks, "a moved set walked again");
                }
            }
        }
    }
}
