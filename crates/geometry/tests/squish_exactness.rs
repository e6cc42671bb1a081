//! The squish encoder and the per-step [`FeatureIndex`] against the former
//! per-cell encoder (`oracle`), compared `f64::to_bits`.

mod oracle;

use camo_geometry::{
    segment_features_basic, segment_features_stacked, AdaptiveSquishTensor, Clip, Coord,
    FeatureConfig, FeatureIndex, MaskState, Point, Rect, SquishPattern,
};
use camo_workloads::{metal_test_set, via_test_set};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The via test set, then the metal test set, each with its fragmentation.
fn masks() -> &'static [MaskState] {
    static MASKS: OnceLock<Vec<MaskState>> = OnceLock::new();
    MASKS.get_or_init(|| {
        let via = via_test_set()
            .into_iter()
            .map(|c| MaskState::from_clip(&c.clip, &c.fragmentation()));
        let metal = metal_test_set()
            .into_iter()
            .map(|c| MaskState::from_clip(&c.clip, &c.fragmentation()));
        via.chain(metal).collect()
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_pattern(new: &SquishPattern, old: &SquishPattern) {
    assert_eq!((new.cols, new.rows), (old.cols, old.rows));
    assert_eq!(new.delta_x, old.delta_x);
    assert_eq!(new.delta_y, old.delta_y);
    assert_eq!(bits(&new.matrix), bits(&old.matrix));
}

/// The x (or y) of the `pick`-th vertex of the mask geometry.
fn vertex_coord(mask: &MaskState, pick: usize, x: bool) -> Coord {
    let vertices: Vec<Point> = mask
        .mask_polygons()
        .iter()
        .flat_map(|p| p.vertices().to_vec())
        .collect();
    let v = vertices[pick % vertices.len()];
    if x {
        v.x
    } else {
        v.y
    }
}

/// A window of one of five kinds: anywhere (off the clip too), 0 or 1 nm
/// wide or tall, with every side on a geometry coordinate, centred on a
/// segment's control point, or far off the clip.
fn window(
    mask: &MaskState,
    kind: usize,
    x: Coord,
    y: Coord,
    w: Coord,
    h: Coord,
    pick: usize,
) -> Rect {
    match kind {
        0 => Rect::new(x, y, x + w, y + h),
        1 if pick.is_multiple_of(2) => Rect::new(x, y, x + (pick / 2 % 2) as Coord, y + h),
        1 => Rect::new(x, y, x + w, y + (pick / 2 % 2) as Coord),
        2 => Rect::new(
            vertex_coord(mask, pick, true),
            vertex_coord(mask, pick / 3 + 1, false),
            vertex_coord(mask, pick / 5 + 2, true),
            vertex_coord(mask, pick / 7 + 3, false),
        ),
        3 => {
            let segment = &mask.fragments().segments[pick % mask.segment_count()];
            Rect::centered_at(segment.control_point(), w, h)
        }
        _ => Rect::new(x - 3000, y + 3000, x - 3000 + w, y + 3000 + h),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random in-range offsets on a via or metal clip with an extra empty
    /// SRAF near its geometry, encoded in a random window (cell centres on scanlines and
    /// polygon boundaries included) with and without target scanlines, and
    /// three segments' features through one index: every pattern field and
    /// tensor value equals the former encoder's, bit for bit.
    #[test]
    fn encoder_matches_the_per_cell_oracle_bit_for_bit(
        clip_pick in 0usize..23,
        offsets in prop::collection::vec(-20i64..=20, 180),
        shape in (0usize..5, -400i64..2400, -400i64..2400, 0i64..600, 0i64..600, 0usize..10_000),
        size in 1usize..=20,
        sliver in (0usize..10_000, -1i64..=1, -100i64..100, 1i64..200, prop::bool::ANY),
    ) {
        // The empty SRAF sits within 1 nm of a target vertex, where a 1 nm
        // cell's centre can land on it.
        let base = &masks()[clip_pick];
        let (vertex, shift, along, length, vertical) = sliver;
        let (vx, vy) = (vertex_coord(base, vertex, true), vertex_coord(base, vertex, false));
        let empty = if vertical {
            Rect::new(vx + shift, vy + along, vx + shift, vy + along + length)
        } else {
            Rect::new(vx + along, vy + shift, vx + along + length, vy + shift)
        };
        let mut clip: Clip = base.clip().clone();
        clip.add_sraf(empty);
        let mut mask = MaskState::new(clip, base.fragments().clone());
        for (id, &offset) in offsets.iter().take(mask.segment_count()).enumerate() {
            mask.move_segment(id, offset);
        }
        let (kind, x, y, w, h, pick) = shape;
        let window = window(&mask, kind, x, y, w, h, pick);

        let polygons = mask.mask_polygons();
        let srafs = mask.sraf_rects();
        let (mut target_x, mut target_y) = (Vec::new(), Vec::new());
        for target in mask.clip().targets() {
            for (a, b) in target.edges() {
                if a.x == b.x {
                    target_x.push(a.x);
                } else {
                    target_y.push(a.y);
                }
            }
        }
        for (extra_x, extra_y) in [(&[][..], &[][..]), (&target_x[..], &target_y[..])] {
            let new = SquishPattern::encode(window, &polygons, srafs, extra_x, extra_y);
            let old = oracle::encode(window, &polygons, srafs, extra_x, extra_y);
            assert_same_pattern(&new, &old);
            prop_assert_eq!(
                bits(&AdaptiveSquishTensor::from_pattern(&new, size).data),
                bits(&oracle::from_pattern(&old, size).data)
            );
        }

        let config = FeatureConfig { window: w, tensor_size: size };
        let mut index = FeatureIndex::new(&mask, &config);
        for k in 0..3 {
            let segment = (pick + k * 7919) % mask.segment_count();
            let stacked = oracle::segment_features_stacked(&mask, segment, &config);
            let basic = oracle::segment_features_basic(&mask, segment, &config);
            prop_assert_eq!(bits(&index.stacked(segment)), bits(&stacked));
            prop_assert_eq!(bits(&index.basic(segment)), bits(&basic));
            if k == 0 {
                prop_assert_eq!(bits(&segment_features_stacked(&mask, segment, &config)), bits(&stacked));
                prop_assert_eq!(bits(&segment_features_basic(&mask, segment, &config)), bits(&basic));
            }
        }
    }
}
