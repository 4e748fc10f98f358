//! Property-based tests for the closed-form performance model: the
//! efficiency statistic stays in (0, 1], predictions are invariant under
//! translation by the chip's interleave period, and the predicted time is
//! monotone in the work.

use proptest::prelude::*;
use t2opt_core::advisor::{StreamDesc, StreamKind};
use t2opt_core::chip::{ChipSpec, PRESET_NAMES};
use t2opt_model::{KernelShape, PerfModel, StreamUnit};

/// Arbitrary kernel shapes on a given address range: 1–5 units of 1–5
/// streams each, any mix of kinds, non-trivial line counts.
fn arb_shape() -> impl Strategy<Value = KernelShape> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0u64..65_536, 0u8..3), 1..6),
            1..6,
        ),
        1u64..256,
        1usize..64,
    )
        .prop_map(|(units, lines, threads)| KernelShape {
            units: units
                .into_iter()
                .map(|streams| {
                    StreamUnit::new(
                        streams
                            .into_iter()
                            .map(|(base, kind)| StreamDesc {
                                base,
                                kind: match kind {
                                    0 => StreamKind::Read,
                                    1 => StreamKind::Write,
                                    _ => StreamKind::Writeback,
                                },
                            })
                            .collect(),
                        lines,
                    )
                })
                .collect(),
            threads,
            reported_bytes: lines * 64,
        })
}

proptest! {
    /// Model efficiency is in (0, 1] for every preset and any stream mix.
    #[test]
    fn efficiency_stays_in_unit_interval(shape in arb_shape(), preset in 0..PRESET_NAMES.len()) {
        let spec = ChipSpec::preset(PRESET_NAMES[preset]).unwrap();
        let model = PerfModel::for_spec(&spec);
        let p = model.predict(&shape);
        prop_assert!(
            p.efficiency > 0.0 && p.efficiency <= 1.0 + 1e-12,
            "efficiency {} out of (0, 1] on {}",
            p.efficiency,
            spec.name
        );
        prop_assert!(p.cycles >= 0.0 && p.cycles.is_finite());
        prop_assert!(p.gbs >= 0.0 && p.gbs.is_finite());
    }

    /// Translating every stream by any multiple of the chip's interleave
    /// period leaves the prediction bitwise unchanged (the mapping is
    /// periodic, and the model must inherit that exactly).
    #[test]
    fn prediction_invariant_under_period_translation(
        shape in arb_shape(),
        preset in 0..PRESET_NAMES.len(),
        periods in 1u64..8,
    ) {
        let spec = ChipSpec::preset(PRESET_NAMES[preset]).unwrap();
        let model = PerfModel::for_spec(&spec);
        let delta = periods * spec.interleave_period() as u64;
        prop_assert_eq!(model.predict(&shape), model.predict(&shape.translated(delta)));
    }

    /// Sub-period translations may change the prediction, but never the
    /// invariants; and doubling every unit's line count can only increase
    /// the predicted cycles (work monotonicity).
    #[test]
    fn more_lines_never_run_faster(shape in arb_shape()) {
        let model = PerfModel::for_spec(&ChipSpec::ultrasparc_t2());
        let base = model.predict(&shape);
        let doubled = KernelShape {
            units: shape
                .units
                .iter()
                .map(|u| StreamUnit::new(u.streams.clone(), u.lines * 2))
                .collect(),
            ..shape.clone()
        };
        let big = model.predict(&doubled);
        prop_assert!(big.cycles >= base.cycles);
    }
}
