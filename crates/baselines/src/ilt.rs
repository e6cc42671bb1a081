//! A pixel-based inverse-lithography (ILT) baseline.
//!
//! The paper situates CAMO against the ILT family (MOSAIC, A2-ILT) without
//! tabulating them; this engine provides that reference point for ablation
//! studies. It performs steepest-descent optimisation of a continuous pixel
//! mask against an image-fidelity cost, then projects the freeform result
//! back onto the segment-offset mask representation (a crude form of mask
//! rule enforcement), so its output is directly comparable to the
//! segment-based engines.

use crate::engine::{OpcConfig, OpcEngine, OpcOutcome, MAX_MOVE};
use camo_geometry::{Clip, Coord, Raster};
use camo_litho::aerial::convolve_separable;
use camo_litho::LithoSimulator;
use std::time::Duration;

/// Pixel-domain ILT with gradient descent on image fidelity.
#[derive(Debug, Clone, PartialEq)]
pub struct PixelIlt {
    config: OpcConfig,
    /// Number of gradient-descent iterations.
    pub iterations: usize,
    /// Gradient-descent step size.
    pub step_size: f64,
}

impl PixelIlt {
    /// Creates the engine with default ILT hyper-parameters.
    pub fn new(config: OpcConfig) -> Self {
        Self {
            config,
            iterations: 20,
            step_size: 4.0,
        }
    }

    /// Rasterises the target patterns of a clip as the desired print image.
    fn target_image(&self, clip: &Clip, simulator: &LithoSimulator) -> Raster {
        let mut raster = Raster::new(clip.region(), simulator.config().pixel_size);
        for p in clip.targets() {
            raster.fill_polygon(p, 1.0);
        }
        raster
    }

    /// One steepest-descent pass on the continuous pixel mask.
    fn descend(&self, mask_px: &mut Raster, target: &Raster, simulator: &LithoSimulator) {
        let cfg = simulator.config();
        let threshold = cfg.resist.threshold;
        let steep = cfg.resist.steepness;
        let mut gradient = vec![0.0; mask_px.data().len()];
        for kernel in cfg.optical.kernels() {
            let taps = kernel.taps(cfg.pixel_size, 0.0);
            let amplitude = convolve_separable(mask_px, &taps);
            // Printability and its derivative at every pixel.
            let mut chain = Raster::with_dimensions(
                mask_px.origin(),
                mask_px.pixel_size(),
                mask_px.width(),
                mask_px.height(),
            );
            for ((c, &a), (&t, &m)) in chain
                .data_mut()
                .iter_mut()
                .zip(amplitude.data())
                .zip(target.data().iter().zip(mask_px.data()))
            {
                let _ = m;
                let intensity_k = kernel.weight * a * a;
                // Local sigmoid print estimate per kernel (kernels are summed
                // in the real model; treating them separately yields a valid
                // descent direction and keeps the gradient separable).
                let z = 1.0 / (1.0 + (-steep * (intensity_k - threshold * kernel.weight)).exp());
                let dz = steep * z * (1.0 - z);
                *c = 2.0 * (z - t) * dz * kernel.weight * 2.0 * a;
            }
            let back = convolve_separable(&chain, &taps);
            for (g, &b) in gradient.iter_mut().zip(back.data()) {
                *g += b;
            }
        }
        for (m, &g) in mask_px.data_mut().iter_mut().zip(&gradient) {
            *m = (*m - self.step_size * g).clamp(0.0, 1.0);
        }
    }

    /// Projects a continuous pixel mask back to per-segment offsets by
    /// locating the 0.5 level of the pixel mask along each segment's outward
    /// normal.
    fn project_to_segments(&self, clip: &Clip, mask_px: &Raster) -> Vec<Coord> {
        let fragments = clip.fragment(&self.config.fragmentation);
        fragments
            .segments
            .iter()
            .map(|seg| {
                let cp = seg.control_point();
                let dir = seg.outward.unit();
                let mut offset = 0i64;
                // March outward/inward looking for the mask boundary.
                for d in -8i64..=8 {
                    let p = camo_geometry::Point::new(cp.x + dir.dx * d, cp.y + dir.dy * d);
                    if mask_px.sample(p) > 0.5 {
                        offset = offset.max(d);
                    }
                }
                offset.clamp(-MAX_MOVE * 4, MAX_MOVE * 4)
            })
            .collect()
    }
}

impl OpcEngine for PixelIlt {
    fn name(&self) -> &str {
        "Pixel-ILT"
    }

    fn optimize(&mut self, clip: &Clip, simulator: &LithoSimulator) -> OpcOutcome {
        let target = self.target_image(clip, simulator);
        let initial = self.config.initial_mask(clip);
        let mut mask_px = simulator.rasterize(&initial);
        let mut trajectory = vec![simulator.evaluate_epe(&initial).total_abs()];
        for _ in 0..self.iterations {
            self.descend(&mut mask_px, &target, simulator);
        }
        let offsets = self.project_to_segments(clip, &mask_px);
        let mut mask = camo_geometry::MaskState::from_clip(clip, &self.config.fragmentation);
        mask.apply_moves(&offsets);
        let result = simulator.evaluate(&mask);
        trajectory.push(result.total_epe());
        OpcOutcome {
            mask,
            result,
            steps: self.iterations,
            runtime: Duration::ZERO,
            epe_trajectory: trajectory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_geometry::Rect;
    use camo_litho::LithoConfig;

    fn via_clip() -> Clip {
        let mut clip = Clip::new(Rect::new(0, 0, 800, 800));
        clip.add_target(Rect::new(365, 365, 435, 435).to_polygon());
        clip
    }

    #[test]
    fn ilt_produces_a_finite_outcome() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut engine = PixelIlt::new(OpcConfig::via_layer());
        engine.iterations = 5;
        let outcome = engine.optimize(&via_clip(), &sim);
        assert!(outcome.total_epe().is_finite());
        assert!(outcome.pv_band() >= 0.0);
        assert_eq!(outcome.steps, 5);
    }

    #[test]
    fn ilt_mask_grows_underprinting_features() {
        // The 70 nm via under-prints, so ILT should push segments outward
        // (non-negative projected offsets on average).
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut engine = PixelIlt::new(OpcConfig::via_layer());
        engine.iterations = 10;
        let outcome = engine.optimize(&via_clip(), &sim);
        let mean_offset: f64 = outcome
            .mask
            .offsets()
            .iter()
            .map(|&o| o as f64)
            .sum::<f64>()
            / outcome.mask.segment_count() as f64;
        assert!(
            mean_offset >= 0.0,
            "expected outward bias, got {mean_offset}"
        );
    }

    #[test]
    fn engine_name_is_stable() {
        assert_eq!(PixelIlt::new(OpcConfig::default()).name(), "Pixel-ILT");
    }
}
