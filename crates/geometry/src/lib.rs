//! Layout geometry substrate for the CAMO-RS workspace.
//!
//! This crate provides the geometric foundation every other crate builds on:
//!
//! * integer-nanometre [`Point`]/[`Rect`]/[`Polygon`] primitives,
//! * [`Clip`]s (layout windows holding target patterns and SRAFs),
//! * boundary [`fragment`](segment::fragment_polygon)ation into movable
//!   [`Segment`]s with control points and EPE measure points,
//! * [`MaskState`]: a target clip plus per-segment offsets, reconstructable
//!   into concrete mask polygons,
//! * scanline [`Raster`]isation of rectilinear polygons, and
//! * [`squish`] pattern encoding (Figure 3 of the CAMO paper) including the
//!   fixed-size adaptive squish tensor used as policy-network input, and the
//!   per-step [`FeatureIndex`] that encodes every segment of one mask state.
//!
//! All coordinates are in integer nanometres ([`Coord`]); masks are therefore
//! updated exactly, with no floating-point drift across OPC iterations.
//!
//! # Example
//!
//! ```
//! use camo_geometry::{Clip, Rect, FragmentationParams};
//!
//! // A 2 µm clip with a single 70 nm via.
//! let mut clip = Clip::new(Rect::new(0, 0, 2000, 2000));
//! clip.add_target(Rect::new(965, 965, 1035, 1035).to_polygon());
//! let frags = clip.fragment(&FragmentationParams::via_layer());
//! assert_eq!(frags.segments.len(), 4); // one segment per via edge
//! ```

pub mod features;
pub mod grid;
pub mod mask;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod segment;
pub mod squish;

pub use features::{
    segment_features_basic, segment_features_stacked, segment_window, FeatureConfig, FeatureIndex,
};
pub use grid::{CoverageScratch, PixelWindow, Raster};
pub use mask::MaskState;
pub use point::{Coord, Point, Vector};
pub use polygon::Polygon;
pub use rect::Rect;
pub use segment::{
    fragment_polygon, ControlPoint, Direction, FragmentationParams, Fragments, MeasurePoint,
    Orientation, Segment, SegmentId,
};
pub use squish::{AdaptiveSquishTensor, SquishPattern};

/// A rectangular layout window ("clip") holding target patterns and SRAFs.
///
/// A clip corresponds to one benchmark case in the CAMO paper (a 2 µm × 2 µm
/// via-layer clip or a 1.5 µm × 1.5 µm metal-layer clip).
#[derive(Debug, Clone, PartialEq)]
pub struct Clip {
    /// Region covered by this clip.
    region: Rect,
    /// Target (design-intent) patterns.
    targets: Vec<Polygon>,
    /// Sub-resolution assist features. These are part of the mask but are
    /// never measured and never moved by the OPC engines.
    srafs: Vec<Rect>,
    /// Human-readable name, e.g. `"V3"` or `"M10"`.
    name: String,
}

impl Clip {
    /// Creates an empty clip covering `region`.
    pub fn new(region: Rect) -> Self {
        Self {
            region,
            targets: Vec::new(),
            srafs: Vec::new(),
            name: String::new(),
        }
    }

    /// Creates an empty named clip covering `region`.
    pub fn with_name(region: Rect, name: impl Into<String>) -> Self {
        let mut c = Self::new(region);
        c.name = name.into();
        c
    }

    /// The clip region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// The clip name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the clip name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a target pattern. The polygon is normalised to counter-clockwise
    /// orientation.
    pub fn add_target(&mut self, polygon: Polygon) {
        self.targets.push(polygon.normalized());
    }

    /// Adds a sub-resolution assist feature rectangle.
    pub fn add_sraf(&mut self, rect: Rect) {
        self.srafs.push(rect);
    }

    /// Target patterns.
    pub fn targets(&self) -> &[Polygon] {
        &self.targets
    }

    /// SRAF rectangles.
    pub fn srafs(&self) -> &[Rect] {
        &self.srafs
    }

    /// Removes all SRAFs.
    pub fn clear_srafs(&mut self) {
        self.srafs.clear();
    }

    /// Total target area in nm².
    pub fn target_area(&self) -> i64 {
        self.targets.iter().map(|p| p.area()).sum()
    }

    /// Fragments every target boundary into segments according to `params`.
    pub fn fragment(&self, params: &FragmentationParams) -> Fragments {
        let mut all = Fragments::default();
        for (poly_id, poly) in self.targets.iter().enumerate() {
            let frags = fragment_polygon(poly, poly_id, params);
            all.extend(frags);
        }
        all
    }

    /// Builds the initial [`MaskState`] for this clip (all offsets zero).
    pub fn initial_mask(&self, params: &FragmentationParams) -> MaskState {
        MaskState::new(self.clone(), self.fragment(params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_roundtrip() {
        let mut clip = Clip::with_name(Rect::new(0, 0, 2000, 2000), "V1");
        clip.add_target(Rect::new(100, 100, 170, 170).to_polygon());
        clip.add_sraf(Rect::new(300, 100, 320, 170));
        assert_eq!(clip.name(), "V1");
        assert_eq!(clip.targets().len(), 1);
        assert_eq!(clip.srafs().len(), 1);
        assert_eq!(clip.target_area(), 70 * 70);
        assert_eq!(clip.region().width(), 2000);
    }

    #[test]
    fn clip_fragment_counts_via() {
        let mut clip = Clip::new(Rect::new(0, 0, 2000, 2000));
        clip.add_target(Rect::new(0, 0, 70, 70).to_polygon());
        clip.add_target(Rect::new(500, 500, 570, 570).to_polygon());
        let frags = clip.fragment(&FragmentationParams::via_layer());
        // Via layer: each edge is a single segment, 4 per via.
        assert_eq!(frags.segments.len(), 8);
        assert_eq!(frags.measure_points.len(), 8);
    }

    #[test]
    fn clear_srafs_removes_all() {
        let mut clip = Clip::new(Rect::new(0, 0, 100, 100));
        clip.add_sraf(Rect::new(0, 0, 10, 10));
        clip.add_sraf(Rect::new(20, 0, 30, 10));
        clip.clear_srafs();
        assert!(clip.srafs().is_empty());
    }
}
