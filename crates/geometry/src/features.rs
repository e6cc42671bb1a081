//! Per-segment feature encoding shared by the learning-based OPC engines.
//!
//! Every learning-based engine in this workspace (RL-OPC and CAMO) observes a
//! segment through a square window centred at its control point, encoded as
//! an adaptive squish tensor:
//!
//! * RL-OPC uses the 3-channel encoding of the *current mask* (plus SRAFs),
//! * CAMO concatenates a second 3-channel tensor whose grid additionally
//!   carries scanlines at the *target* edges, highlighting how far each edge
//!   has moved (6 channels total, as described in Section 3.2 of the paper).
//!
//! An engine encodes every segment at every step, so it builds one
//! [`FeatureIndex`] per mask state and encodes all segments from it.

use crate::mask::MaskState;
use crate::point::Coord;
use crate::rect::Rect;
use crate::squish::{write_tensor, Scanlines, SquishGeometry, SquishPattern, SquishScratch};

/// Configuration of the segment feature encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Window side length centred at the control point, nm (the paper uses
    /// 500 nm).
    pub window: Coord,
    /// Side length of the fixed-size adaptive squish tensor.
    pub tensor_size: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self {
            window: 500,
            tensor_size: 16,
        }
    }
}

impl FeatureConfig {
    /// Length of the 3-channel feature vector.
    pub fn basic_len(&self) -> usize {
        3 * self.tensor_size * self.tensor_size
    }

    /// Length of the 6-channel (CAMO) feature vector.
    pub fn stacked_len(&self) -> usize {
        2 * self.basic_len()
    }
}

/// The window rectangle observed by `segment` of `mask`.
pub fn segment_window(mask: &MaskState, segment: usize, config: &FeatureConfig) -> Rect {
    let cp = mask.fragments().segments[segment].control_point();
    Rect::centered_at(cp, config.window, config.window)
}

/// 3-channel adaptive squish encoding of the mask geometry around `segment`
/// (the RL-OPC observation). Encoding several segments of one mask state is
/// cheaper through one [`FeatureIndex`].
///
/// # Panics
///
/// Panics if `segment` is out of range.
pub fn segment_features_basic(
    mask: &MaskState,
    segment: usize,
    config: &FeatureConfig,
) -> Vec<f64> {
    FeatureIndex::new(mask, config).basic(segment)
}

/// 6-channel CAMO encoding: the mask tensor concatenated with a second tensor
/// whose grid also carries scanlines at the target-pattern edges inside the
/// window, so that the relative movement of every edge is visible to the
/// policy. Encoding several segments of one mask state is cheaper through
/// one [`FeatureIndex`].
///
/// # Panics
///
/// Panics if `segment` is out of range.
pub fn segment_features_stacked(
    mask: &MaskState,
    segment: usize,
    config: &FeatureConfig,
) -> Vec<f64> {
    FeatureIndex::new(mask, config).stacked(segment)
}

/// Everything the segment encoder reads from one mask state, built once and
/// shared by all of its segments (one OPC step).
///
/// It holds the moved mask polygons from a single
/// [`MaskState::mask_polygons`] call with their bounding boxes, the SRAF
/// rectangles, and two sorted candidate scanline sets: the mask's edge
/// coordinates, and those plus the target edges. A segment's window then
/// takes its scanlines by binary search and its occupancy from the few
/// polygons near it. The encodings equal [`segment_features_basic`] /
/// [`segment_features_stacked`] bit for bit.
#[derive(Debug)]
pub struct FeatureIndex<'a> {
    mask: &'a MaskState,
    config: FeatureConfig,
    geometry: SquishGeometry,
    mask_lines: Scanlines,
    target_lines: Scanlines,
    pattern: SquishPattern,
    scratch: SquishScratch,
}

impl<'a> FeatureIndex<'a> {
    /// Indexes the current geometry of `mask`.
    pub fn new(mask: &'a MaskState, config: &FeatureConfig) -> Self {
        let polygons = mask.mask_polygons();
        let srafs = mask.sraf_rects();
        let mut target_x = Vec::new();
        let mut target_y = Vec::new();
        for target in mask.clip().targets() {
            for (a, b) in target.edges() {
                if a.x == b.x {
                    target_x.push(a.x);
                } else {
                    target_y.push(a.y);
                }
            }
        }
        Self {
            mask,
            config: *config,
            mask_lines: Scanlines::new(&polygons, srafs, &[], &[]),
            target_lines: Scanlines::new(&polygons, srafs, &target_x, &target_y),
            geometry: SquishGeometry::new(polygons, srafs),
            pattern: SquishPattern::empty(),
            scratch: SquishScratch::default(),
        }
    }

    /// The 3-channel encoding of `segment` ([`segment_features_basic`]).
    ///
    /// # Panics
    ///
    /// Panics if `segment` is out of range.
    pub fn basic(&mut self, segment: usize) -> Vec<f64> {
        let window = segment_window(self.mask, segment, &self.config);
        let mut out = vec![0.0; self.config.basic_len()];
        self.write(window, false, &mut out);
        out
    }

    /// The 6-channel encoding of `segment` ([`segment_features_stacked`]).
    ///
    /// # Panics
    ///
    /// Panics if `segment` is out of range.
    pub fn stacked(&mut self, segment: usize) -> Vec<f64> {
        let window = segment_window(self.mask, segment, &self.config);
        let mut out = vec![0.0; self.config.stacked_len()];
        let (mask_part, target_part) = out.split_at_mut(self.config.basic_len());
        self.write(window, false, mask_part);
        self.write(window, true, target_part);
        out
    }

    /// Writes one 3-channel tensor of `window`, on the mask's scanlines or,
    /// with `with_targets`, on those plus the target edges.
    fn write(&mut self, window: Rect, with_targets: bool, out: &mut [f64]) {
        let lines = if with_targets {
            &self.target_lines
        } else {
            &self.mask_lines
        };
        self.geometry
            .encode_into(window, lines, &mut self.scratch, &mut self.pattern);
        write_tensor(
            &self.pattern,
            self.config.tensor_size,
            out,
            &mut self.scratch,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::FragmentationParams;
    use crate::Clip;

    fn via_mask() -> MaskState {
        let mut clip = Clip::new(Rect::new(0, 0, 2000, 2000));
        clip.add_target(Rect::new(965, 965, 1035, 1035).to_polygon());
        clip.add_target(Rect::new(1265, 965, 1335, 1035).to_polygon());
        MaskState::from_clip(&clip, &FragmentationParams::via_layer())
    }

    #[test]
    fn feature_lengths_match_config() {
        let mask = via_mask();
        let cfg = FeatureConfig::default();
        assert_eq!(
            segment_features_basic(&mask, 0, &cfg).len(),
            cfg.basic_len()
        );
        assert_eq!(
            segment_features_stacked(&mask, 0, &cfg).len(),
            cfg.stacked_len()
        );
        assert_eq!(cfg.stacked_len(), 2 * cfg.basic_len());
    }

    #[test]
    fn features_are_bounded() {
        let mask = via_mask();
        let cfg = FeatureConfig {
            window: 400,
            tensor_size: 8,
        };
        for seg in 0..mask.segment_count() {
            for v in segment_features_stacked(&mask, seg, &cfg) {
                assert!((0.0..=1.0).contains(&v), "feature {v} out of range");
            }
        }
    }

    #[test]
    fn moving_a_segment_changes_its_features() {
        let mut mask = via_mask();
        let cfg = FeatureConfig::default();
        let before = segment_features_stacked(&mask, 0, &cfg);
        mask.move_segment(0, 2);
        let after = segment_features_stacked(&mask, 0, &cfg);
        assert_ne!(
            before, after,
            "edge movement must be visible in the encoding"
        );
    }

    #[test]
    fn window_is_centred_on_control_point() {
        let mask = via_mask();
        let cfg = FeatureConfig::default();
        let window = segment_window(&mask, 0, &cfg);
        assert_eq!(window.width(), cfg.window);
        let cp = mask.fragments().segments[0].control_point();
        assert!(window.contains_point(cp));
    }

    #[test]
    fn neighbouring_pattern_appears_in_window() {
        // Segment windows are 500 nm wide, so the 300 nm-away neighbour via
        // must contribute occupancy to the encoding.
        let mask = via_mask();
        let cfg = FeatureConfig::default();
        let right_seg = mask
            .fragments()
            .segments
            .iter()
            .find(|s| s.control_point().x == 1035)
            .expect("right edge of the first via");
        let features = segment_features_basic(&mask, right_seg.id, &cfg);
        let occupancy_sum: f64 = features[..cfg.tensor_size * cfg.tensor_size].iter().sum();
        assert!(
            occupancy_sum >= 2.0,
            "expected both vias visible, sum={occupancy_sum}"
        );
    }
}
