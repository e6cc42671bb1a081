//! The CAMO inference engine.

use crate::config::CamoConfig;
use crate::graph::SegmentGraph;
use crate::modulator::Modulator;
use crate::policy::CamoPolicy;
use camo_baselines::{OpcConfig, OpcEngine, OpcOutcome, ACTION_COUNT};
use camo_geometry::{Clip, FeatureIndex, MaskState};
use camo_litho::{EpeReport, LithoSimulator};
use camo_nn::softmax;
use camo_rl::{argmax, sample_index};
use rand::rngs::StdRng;

/// The shared action table's index → movement map, also reachable from here
/// for CAMO's callers.
pub use camo_baselines::action_to_move;

/// The CAMO OPC engine: modulated, correlation-aware policy inference.
///
/// The engine itself is stateless between clips: greedy inference needs no
/// randomness, and stochastic (training) decisions draw from a caller-owned
/// generator derived per episode via [`camo_rl::episode_rng`]. Cloning an
/// engine and optimising clips on separate threads therefore produces
/// results bit-identical to a serial loop.
#[derive(Debug, Clone)]
pub struct CamoEngine {
    opc: OpcConfig,
    config: CamoConfig,
    policy: CamoPolicy,
    modulator: Modulator,
}

impl CamoEngine {
    /// Creates an engine with a freshly initialised (untrained) policy.
    pub fn new(opc: OpcConfig, config: CamoConfig) -> Self {
        let policy = CamoPolicy::new(&config);
        let modulator = Modulator::new(config.modulator_k, config.modulator_n, config.modulator_b);
        Self {
            opc,
            config,
            policy,
            modulator,
        }
    }

    /// The OPC run configuration (step budget, early exit, fragmentation).
    pub fn opc_config(&self) -> &OpcConfig {
        &self.opc
    }

    /// The CAMO hyper-parameters.
    pub fn config(&self) -> &CamoConfig {
        &self.config
    }

    /// The policy network (e.g. for parameter counting).
    pub fn policy(&self) -> &CamoPolicy {
        &self.policy
    }

    /// Mutable access to the policy network (used by the trainer).
    pub fn policy_mut(&mut self) -> &mut CamoPolicy {
        &mut self.policy
    }

    /// The modulator in use.
    pub fn modulator(&self) -> &Modulator {
        &self.modulator
    }

    /// Encodes the observation of every segment of `mask` (6-channel stacked
    /// squish features, Section 3.2), from one [`FeatureIndex`] of the mask.
    pub fn node_features(&self, mask: &MaskState) -> Vec<Vec<f64>> {
        let mut index = FeatureIndex::new(mask, &self.config.features);
        (0..mask.segment_count())
            .map(|seg| index.stacked(seg))
            .collect()
    }

    /// Builds the segment graph of a mask's fragmentation.
    pub fn graph(&self, mask: &MaskState) -> SegmentGraph {
        SegmentGraph::build(mask.fragments(), self.config.graph_threshold)
    }

    /// Chooses an action per segment. When an episode generator is supplied
    /// actions are drawn from the (optionally modulated) distribution;
    /// otherwise the modulated argmax of Eq. (6) is used. Returns
    /// `(action, unmodulated logits)` per segment.
    ///
    /// `epe` must carry one per-point value per segment of `mask` (the
    /// invariant documented on [`MaskState`]); this is debug-asserted, and
    /// in release builds a missing value falls back to `0.0` (no
    /// modulation) instead of panicking.
    pub fn decide(
        &self,
        mask: &MaskState,
        graph: &SegmentGraph,
        epe: &EpeReport,
        rng: Option<&mut StdRng>,
    ) -> Vec<(usize, Vec<f64>)> {
        self.decide_on_features(&self.node_features(mask), graph, epe, rng)
    }

    /// [`Self::decide`] on the mask's features as [`Self::node_features`]
    /// returned them, for a caller that keeps the features too (the
    /// REINFORCE rollout records them), so a step encodes its mask once.
    pub fn decide_on_features(
        &self,
        features: &[Vec<f64>],
        graph: &SegmentGraph,
        epe: &EpeReport,
        mut rng: Option<&mut StdRng>,
    ) -> Vec<(usize, Vec<f64>)> {
        debug_assert_eq!(
            epe.per_point.len(),
            features.len(),
            "per-point EPE count must match the mask's segment count"
        );
        let logits = self.policy.forward_inference(features, graph.adjacency());
        logits
            .into_iter()
            .enumerate()
            .map(|(seg, l)| {
                let probs = softmax(&l);
                let dist: [f64; ACTION_COUNT] = if self.config.use_modulator {
                    let seg_epe = epe.per_point.get(seg).copied().unwrap_or(0.0);
                    self.modulator.modulate(seg_epe, &probs)
                } else {
                    let mut d = [0.0; ACTION_COUNT];
                    d.copy_from_slice(&probs);
                    d
                };
                let action = match rng.as_deref_mut() {
                    Some(r) => sample_index(&dist, r),
                    None => argmax(&dist),
                };
                (action, l)
            })
            .collect()
    }
}

impl OpcEngine for CamoEngine {
    fn name(&self) -> &str {
        "CAMO"
    }

    /// Optimises `clip` by the shared step loop, deciding greedily with
    /// the segment graph of the initial mask (movements change offsets, not
    /// the fragmentation, so the graph holds for every step).
    fn optimize(&mut self, clip: &Clip, simulator: &LithoSimulator) -> OpcOutcome {
        let mask = self.opc.initial_mask(clip);
        let graph = self.graph(&mask);
        self.opc.run_steps(&mask, simulator, |mask, epe| {
            self.decide(mask, &graph, epe, None)
                .iter()
                .map(|(a, _)| action_to_move(*a))
                .collect()
        })
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
    fn untrained_engine_produces_valid_outcome() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut opc = OpcConfig::via_layer();
        opc.max_steps = 3;
        let mut engine = CamoEngine::new(opc, CamoConfig::fast());
        let outcome = engine.optimize(&via_clip(), &sim);
        assert_eq!(engine.name(), "CAMO");
        assert!(outcome.total_epe().is_finite());
        assert!(!outcome.epe_trajectory.is_empty());
        assert!(outcome.steps <= 3);
    }

    #[test]
    fn modulator_steers_untrained_policy_toward_improvement() {
        // Even with random policy weights, the modulated argmax should behave
        // like EPE feedback on a strongly under-printing via and reduce EPE.
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut opc = OpcConfig::via_layer();
        opc.max_steps = 6;
        let mut engine = CamoEngine::new(opc, CamoConfig::fast());
        let outcome = engine.optimize(&via_clip(), &sim);
        let first = outcome.epe_trajectory.first().copied().expect("non-empty");
        let last = outcome.epe_trajectory.last().copied().expect("non-empty");
        assert!(
            last <= first,
            "modulated CAMO should not degrade EPE: {first} -> {last}"
        );
    }

    #[test]
    fn decide_returns_one_action_per_segment() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let engine = CamoEngine::new(OpcConfig::via_layer(), CamoConfig::fast());
        let mask = engine.opc_config().initial_mask(&via_clip());
        let graph = engine.graph(&mask);
        let epe = sim.evaluate_epe(&mask);
        let decisions = engine.decide(&mask, &graph, &epe, None);
        assert_eq!(decisions.len(), mask.segment_count());
        for (a, logits) in &decisions {
            assert!(*a < ACTION_COUNT);
            assert_eq!(logits.len(), ACTION_COUNT);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "per-point EPE count must match")]
    fn decide_rejects_mismatched_epe_report_in_debug() {
        // An EPE report with fewer points than segments used to panic with
        // an opaque out-of-bounds index; now the invariant is asserted
        // explicitly (and release builds fall back to unmodulated decisions).
        let engine = CamoEngine::new(OpcConfig::via_layer(), CamoConfig::fast());
        let mask = engine.opc_config().initial_mask(&via_clip());
        let graph = engine.graph(&mask);
        let bogus = camo_litho::EpeReport {
            per_point: vec![4.0], // 1 value for a 4-segment via
            search_range: 40.0,
        };
        let _ = engine.decide(&mask, &graph, &bogus, None);
    }

    #[test]
    fn disabling_modulator_changes_decisions() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let with = CamoEngine::new(OpcConfig::via_layer(), CamoConfig::fast());
        let without = CamoEngine::new(
            OpcConfig::via_layer(),
            CamoConfig::fast().without_modulator(),
        );
        let mask = with.opc_config().initial_mask(&via_clip());
        let graph = with.graph(&mask);
        let epe = sim.evaluate_epe(&mask);
        let a: Vec<usize> = with
            .decide(&mask, &graph, &epe, None)
            .iter()
            .map(|(a, _)| *a)
            .collect();
        let b: Vec<usize> = without
            .decide(&mask, &graph, &epe, None)
            .iter()
            .map(|(a, _)| *a)
            .collect();
        // With a strongly positive EPE the modulator pushes toward outward
        // moves; the untrained policy alone is near-uniform, so decisions
        // should differ for at least one segment.
        assert_ne!(a, b);
        // And the modulated decisions are outward.
        assert!(
            a.iter().all(|&x| x >= 2),
            "modulated actions should not be inward: {a:?}"
        );
    }
}
