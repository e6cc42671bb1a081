//! Edge-placement-error measurement.
//!
//! EPE is measured at the measure points produced by fragmentation: from each
//! point the printed contour is located along the outward normal with
//! sub-pixel precision, and the signed displacement between the target edge
//! and the contour is reported.
//!
//! Sign convention (matching the modulator discussion in the CAMO paper): a
//! **positive** EPE means the printed contour lies *inside* the target (the
//! feature under-prints and the mask segment should move outward); a
//! **negative** EPE means the contour overshoots the target edge.

use camo_geometry::{MeasurePoint, Raster};

/// Per-layout EPE measurement results.
#[derive(Debug, Clone, PartialEq)]
pub struct EpeReport {
    /// Signed EPE per measure point, nm (same order as the input points).
    pub per_point: Vec<f64>,
    /// Search range used, nm; points with no contour crossing are clamped to
    /// this magnitude.
    pub search_range: f64,
}

impl EpeReport {
    /// Sum of |EPE| over all measure points, nm — the figure the paper's
    /// tables report per clip.
    pub fn total_abs(&self) -> f64 {
        self.per_point.iter().map(|e| e.abs()).sum()
    }

    /// Mean |EPE| per measure point, nm.
    pub fn mean_abs(&self) -> f64 {
        if self.per_point.is_empty() {
            0.0
        } else {
            self.total_abs() / self.per_point.len() as f64
        }
    }

    /// Largest |EPE|, nm.
    pub fn max_abs(&self) -> f64 {
        self.per_point.iter().map(|e| e.abs()).fold(0.0, f64::max)
    }

    /// Number of points whose |EPE| exceeds `limit` nm.
    pub fn violations(&self, limit: f64) -> usize {
        self.per_point.iter().filter(|e| e.abs() > limit).count()
    }
}

/// Measures the signed EPE at every measure point.
///
/// `intensity` is the nominal aerial image; `threshold` the resist print
/// threshold; `search_range` the maximum |EPE| searched for, in nm.
pub fn measure_epe(
    intensity: &Raster,
    threshold: f64,
    points: &[MeasurePoint],
    search_range: f64,
) -> EpeReport {
    let per_point = points
        .iter()
        .map(|mp| epe_at_point(intensity, threshold, mp, search_range))
        .collect();
    EpeReport {
        per_point,
        search_range,
    }
}

/// Locates the contour crossing along the outward normal of one measure point
/// and returns the signed EPE (positive = contour inside the target).
fn epe_at_point(
    intensity: &Raster,
    threshold: f64,
    point: &MeasurePoint,
    search_range: f64,
) -> f64 {
    let dir = point.outward.unit();
    let (dx, dy) = (dir.dx as f64, dir.dy as f64);
    let (ox, oy) = (point.location.x as f64, point.location.y as f64);
    let step = 0.5_f64;
    let n_steps = (search_range / step).ceil() as i64;

    let sample = |d: f64| intensity.sample_bilinear(ox + dx * d, oy + dy * d);

    // Walk from deep inside the target (negative d) outward, recording where
    // the intensity falls through the threshold. The contour position is the
    // crossing closest to the target edge (d = 0).
    let mut best: Option<f64> = None;
    let mut prev_d = -search_range;
    let mut prev_v = sample(prev_d);
    for i in (-n_steps + 1)..=n_steps {
        let d = i as f64 * step;
        let v = sample(d);
        let crosses = (prev_v > threshold) != (v > threshold);
        if crosses {
            // Linear interpolation of the crossing position.
            let t = if (v - prev_v).abs() > 1e-12 {
                (threshold - prev_v) / (v - prev_v)
            } else {
                0.5
            };
            let cross = prev_d + t * (d - prev_d);
            match best {
                Some(b) if cross.abs() >= b.abs() => {}
                _ => best = Some(cross),
            }
        }
        prev_d = d;
        prev_v = v;
    }

    match best {
        // Contour at d (outward positive). Positive EPE = contour inside.
        Some(d) => -d,
        // No crossing in range: the feature either failed to print (maximum
        // inner EPE) or floods the whole window (maximum outer EPE).
        None => {
            if sample(0.0) > threshold {
                -search_range
            } else {
                search_range
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aerial::{aerial_image, rasterize_mask};
    use crate::kernel::OpticalModel;
    use crate::resist::ResistModel;
    use camo_geometry::{Clip, FragmentationParams, MaskState, Rect};

    fn evaluate(size: i64, bias: i64) -> EpeReport {
        let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
        let half = size / 2;
        clip.add_target(Rect::new(500 - half, 500 - half, 500 + half, 500 + half).to_polygon());
        let mut mask = MaskState::from_clip(&clip, &FragmentationParams::via_layer());
        mask.apply_uniform_bias(bias);
        let raster = rasterize_mask(&mask, 5, 0);
        let image = aerial_image(&raster, &OpticalModel::default(), 0.0);
        measure_epe(
            &image,
            ResistModel::default().threshold,
            &mask.fragments().measure_points,
            40.0,
        )
    }

    #[test]
    fn underprinted_via_has_positive_epe() {
        // A small isolated via prints smaller than target: contour inside.
        let report = evaluate(70, 0);
        assert_eq!(report.per_point.len(), 4);
        assert!(
            report.per_point.iter().all(|&e| e > 0.0),
            "{:?}",
            report.per_point
        );
    }

    #[test]
    fn outward_bias_reduces_epe() {
        let base = evaluate(70, 0);
        let biased = evaluate(70, 6);
        assert!(biased.total_abs() < base.total_abs());
    }

    #[test]
    fn strong_overbias_flips_epe_sign() {
        let over = evaluate(70, 18);
        assert!(
            over.per_point.iter().all(|&e| e < 0.0),
            "{:?}",
            over.per_point
        );
    }

    #[test]
    fn report_statistics_are_consistent() {
        let report = evaluate(70, 0);
        assert!(report.max_abs() <= report.total_abs());
        assert!(report.mean_abs() <= report.max_abs() + 1e-12);
        assert_eq!(report.violations(0.0), 4);
        assert_eq!(report.violations(1000.0), 0);
    }

    #[test]
    fn missing_feature_clamps_to_search_range() {
        // A tiny 10 nm via never prints: EPE clamps to +search_range.
        let report = evaluate(10, 0);
        assert!(report.per_point.iter().all(|&e| (e - 40.0).abs() < 1e-9));
    }
}
