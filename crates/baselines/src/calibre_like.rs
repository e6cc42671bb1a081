//! A Calibre-style model-based iterative OPC engine.
//!
//! Commercial OPC engines iterate: simulate, measure the EPE of every
//! segment, move each segment proportionally to (and against) its error with
//! a damping factor, repeat. This engine implements that loop on our
//! lithography substrate. It serves two roles, mirroring the paper:
//!
//! 1. the "Calibre" baseline column of Tables 1 and 2, and
//! 2. the teacher whose per-step movements CAMO's Phase-1 imitation mimics.

use crate::engine::{OpcConfig, OpcEngine, OpcOutcome, MAX_MOVE};
use camo_geometry::{Clip, Coord};
use camo_litho::{EpeReport, LithoSimulator};

/// Damped EPE-feedback model-based OPC.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibreLikeOpc {
    config: OpcConfig,
    /// Proportional gain applied to the per-segment EPE when choosing the
    /// next movement.
    pub gain: f64,
}

impl CalibreLikeOpc {
    /// Creates the engine with the default damping gain.
    pub fn new(config: OpcConfig) -> Self {
        Self { config, gain: 0.6 }
    }

    /// The run configuration.
    pub fn config(&self) -> &OpcConfig {
        &self.config
    }

    /// The movement this engine would apply to every segment given the
    /// current EPE report: `clamp(round(gain · EPE), ±MAX_MOVE)`.
    ///
    /// A positive EPE (under-printing) produces an outward (positive) move.
    /// This is also the teacher signal consumed by CAMO's imitation phase.
    pub fn teacher_moves(&self, epe: &EpeReport) -> Vec<Coord> {
        epe.per_point
            .iter()
            .map(|&e| {
                let m = (self.gain * e).round() as Coord;
                m.clamp(-MAX_MOVE, MAX_MOVE)
            })
            .collect()
    }
}

impl OpcEngine for CalibreLikeOpc {
    fn name(&self) -> &str {
        "Calibre-like"
    }

    fn optimize(&mut self, clip: &Clip, simulator: &LithoSimulator) -> OpcOutcome {
        let mask = self.config.initial_mask(clip);
        self.config
            .run_steps(&mask, simulator, |_, epe| self.teacher_moves(epe))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_geometry::Rect;
    use camo_litho::{LithoConfig, LithoSimulator};
    use std::time::Duration;

    fn via_clip() -> Clip {
        let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
        clip.add_target(Rect::new(465, 465, 535, 535).to_polygon());
        clip
    }

    #[test]
    fn optimization_reduces_epe() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut engine = CalibreLikeOpc::new(OpcConfig::via_layer());
        let outcome = engine.optimize(&via_clip(), &sim);
        let first = outcome.epe_trajectory.first().copied().expect("non-empty");
        let last = outcome.epe_trajectory.last().copied().expect("non-empty");
        assert!(last < first, "EPE should improve: {first} -> {last}");
        assert!(outcome.steps <= 10);
        // Engines never read the clock; harnesses stamp the runtime.
        assert_eq!(outcome.runtime, Duration::ZERO);
    }

    #[test]
    fn teacher_moves_follow_epe_sign() {
        let engine = CalibreLikeOpc::new(OpcConfig::via_layer());
        let report = EpeReport {
            per_point: vec![5.0, -5.0, 0.2, -0.2],
            search_range: 40.0,
        };
        let moves = engine.teacher_moves(&report);
        assert_eq!(moves, vec![2, -2, 0, 0]);
    }

    #[test]
    fn early_exit_stops_iterations() {
        // With an absurdly lax exit criterion the engine never iterates.
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut config = OpcConfig::via_layer();
        config.early_exit_epe = 1_000.0;
        let mut engine = CalibreLikeOpc::new(config);
        let outcome = engine.optimize(&via_clip(), &sim);
        assert_eq!(outcome.steps, 0);
        assert_eq!(outcome.epe_trajectory.len(), 1);
    }

    #[test]
    fn engine_reports_its_name() {
        let engine = CalibreLikeOpc::new(OpcConfig::default());
        assert_eq!(engine.name(), "Calibre-like");
    }
}
