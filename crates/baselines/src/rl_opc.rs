//! The RL-OPC baseline (Liang et al., TCAD'23).
//!
//! RL-OPC moves the same five-way action space as CAMO, but every segment is
//! decided **independently** from its own local features: there is no graph
//! feature fusion, no sequential (RNN) coordination and no OPC-inspired
//! modulator. The policy is a small MLP over the 3-channel adaptive squish
//! encoding, trained with REINFORCE on the global improvement reward.

use crate::engine::{action_to_move, OpcConfig, OpcEngine, OpcOutcome, ACTION_COUNT};
use camo_geometry::{Clip, Coord, FeatureConfig, FeatureIndex, MaskState};
use camo_litho::LithoSimulator;
use camo_nn::{cross_entropy_grad, softmax, Linear, Optimizer, Relu, Sgd, Tensor};
use camo_rl::{
    argmax, episode_rng, reinforce_coefficients, sample_index, ReinforceConfig, RewardConfig,
};
use rand::rngs::StdRng;

/// Hyper-parameters of the RL-OPC baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RlOpcConfig {
    /// Segment observation encoding.
    pub features: FeatureConfig,
    /// Hidden width of the two-layer MLP policy.
    pub hidden: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// REINFORCE settings (discount and return normalisation).
    pub reinforce: ReinforceConfig,
    /// Reward weighting (Eq. (3)).
    pub reward: RewardConfig,
    /// Episodes simulated per training clip per epoch.
    pub episodes_per_clip: usize,
    /// RNG seed for initialisation and action sampling.
    ///
    /// Action sampling follows the same stream-derivation contract as
    /// CAMO: each training episode draws from an independent generator
    /// derived via `camo_rl::episode_rng(seed, episode_ordinal)`, where the
    /// ordinal counts episodes in `(epoch, clip, episode)` order, instead
    /// of threading one mutable generator across clips.
    pub seed: u64,
}

impl Default for RlOpcConfig {
    fn default() -> Self {
        Self {
            features: FeatureConfig::default(),
            hidden: 64,
            learning_rate: 3e-4,
            reinforce: ReinforceConfig::default(),
            reward: RewardConfig::default(),
            episodes_per_clip: 1,
            seed: 17,
        }
    }
}

/// The RL-OPC engine.
#[derive(Debug, Clone)]
pub struct RlOpc {
    opc: OpcConfig,
    config: RlOpcConfig,
    fc1: Linear,
    relu: Relu,
    fc2: Linear,
}

impl RlOpc {
    /// Creates an untrained RL-OPC engine.
    pub fn new(opc: OpcConfig, config: RlOpcConfig) -> Self {
        let input = config.features.basic_len();
        Self {
            fc1: Linear::new(input, config.hidden, config.seed),
            relu: Relu::new(),
            fc2: Linear::new(config.hidden, ACTION_COUNT, config.seed.wrapping_add(1)),
            opc,
            config,
        }
    }

    /// The run configuration.
    pub fn opc_config(&self) -> &OpcConfig {
        &self.opc
    }

    /// Policy logits for one segment observation, caching activations for
    /// the backward pass.
    fn logits(&mut self, features: &[f64]) -> Vec<f64> {
        let x = Tensor::from_vec(features.to_vec(), vec![1, features.len()]);
        let h = self.fc1.forward(&x);
        let h = self.relu.forward(&h);
        self.fc2.forward(&h).into_vec()
    }

    /// Policy logits for one segment observation (inference only).
    fn logits_inference(&self, features: &[f64]) -> Vec<f64> {
        let x = Tensor::from_vec(features.to_vec(), vec![1, features.len()]);
        let h = self.fc1.forward_inference(&x);
        let h = self.relu.forward_inference(&h);
        self.fc2.forward_inference(&h).into_vec()
    }

    /// Accumulates the policy gradient for one (observation, action) pair
    /// with coefficient `coeff` (the REINFORCE return or 1.0 for imitation).
    fn accumulate_gradient(&mut self, features: &[f64], action: usize, coeff: f64) {
        let logits = self.logits(features);
        let dlogits = cross_entropy_grad(&logits, action, coeff);
        let grad = Tensor::from_vec(dlogits, vec![1, ACTION_COUNT]);
        let g = self.fc2.backward(&grad);
        let g = self.relu.backward(&g);
        let _ = self.fc1.backward(&g);
    }

    fn apply_update(&mut self) {
        let mut optimizer = Sgd::new(self.config.learning_rate, 0.0).with_grad_clip(5.0);
        let mut params = self.fc1.parameters_mut();
        params.extend(self.fc2.parameters_mut());
        optimizer.step(&mut params);
    }

    fn zero_grad(&mut self) {
        self.fc1.zero_grad();
        self.fc2.zero_grad();
    }

    /// Selects actions for every segment: stochastic sampling when an
    /// episode generator is supplied, greedy (argmax) otherwise.
    fn select_actions(
        &self,
        mask: &MaskState,
        mut rng: Option<&mut StdRng>,
    ) -> Vec<(Vec<f64>, usize)> {
        let n = mask.segment_count();
        let mut out = Vec::with_capacity(n);
        let mut index = FeatureIndex::new(mask, &self.config.features);
        for seg in 0..n {
            let features = index.basic(seg);
            let logits = self.logits_inference(&features);
            let probs = softmax(&logits);
            let action = match rng.as_deref_mut() {
                Some(r) => sample_index(&probs, r),
                None => argmax(&probs),
            };
            out.push((features, action));
        }
        out
    }

    /// REINFORCE training on a set of clips for `epochs` epochs.
    ///
    /// Every episode samples from its own generator derived from
    /// `(config.seed, episode ordinal)` — see [`RlOpcConfig::seed`].
    pub fn train(&mut self, clips: &[Clip], simulator: &LithoSimulator, epochs: usize) -> Vec<f64> {
        let mut epoch_rewards = Vec::with_capacity(epochs);
        let mut episode_ordinal = 0u64;
        for _ in 0..epochs {
            let mut epoch_total = 0.0;
            for clip in clips {
                for _ in 0..self.config.episodes_per_clip {
                    let mut rng = episode_rng(self.config.seed, episode_ordinal);
                    episode_ordinal += 1;
                    epoch_total += self.train_episode(clip, simulator, &mut rng);
                }
            }
            epoch_rewards.push(epoch_total);
        }
        epoch_rewards
    }

    fn train_episode(&mut self, clip: &Clip, simulator: &LithoSimulator, rng: &mut StdRng) -> f64 {
        let mask = self.opc.initial_mask(clip);
        let reward = &self.config.reward;
        let (trajectory, steps) = self.opc.rollout(&mask, simulator, reward, |mask, _| {
            let decisions = self.select_actions(mask, Some(&mut *rng));
            (moves_of(&decisions), decisions)
        });
        let coeffs = reinforce_coefficients(&trajectory, &self.config.reinforce);
        self.zero_grad();
        for (decisions, &coeff) in steps.iter().zip(&coeffs) {
            let per_segment = coeff / decisions.len().max(1) as f64;
            for (features, action) in decisions {
                self.accumulate_gradient(features, *action, per_segment);
            }
        }
        self.apply_update();
        trajectory.total_reward()
    }
}

/// The movements of one step's `(observation, action)` decisions.
fn moves_of(decisions: &[(Vec<f64>, usize)]) -> Vec<Coord> {
    decisions.iter().map(|(_, a)| action_to_move(*a)).collect()
}

impl OpcEngine for RlOpc {
    fn name(&self) -> &str {
        "RL-OPC"
    }

    fn optimize(&mut self, clip: &Clip, simulator: &LithoSimulator) -> OpcOutcome {
        let mask = self.opc.initial_mask(clip);
        self.opc.run_steps(&mask, simulator, |mask, _| {
            moves_of(&self.select_actions(mask, None))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_geometry::Rect;
    use camo_litho::LithoConfig;

    fn small_clip() -> Clip {
        let mut clip = Clip::new(Rect::new(0, 0, 600, 600));
        clip.add_target(Rect::new(265, 265, 335, 335).to_polygon());
        clip
    }

    fn tiny_config() -> RlOpcConfig {
        RlOpcConfig {
            features: FeatureConfig {
                window: 300,
                tensor_size: 8,
            },
            hidden: 16,
            ..RlOpcConfig::default()
        }
    }

    #[test]
    fn action_mapping_covers_five_moves() {
        // The policy head scores exactly the shared action table.
        let engine = RlOpc::new(OpcConfig::via_layer(), tiny_config());
        let features = vec![0.1; engine.config.features.basic_len()];
        assert_eq!(engine.logits_inference(&features).len(), ACTION_COUNT);
        let moves: Vec<Coord> = (0..ACTION_COUNT).map(action_to_move).collect();
        assert_eq!(moves, vec![-2, -1, 0, 1, 2]);
    }

    #[test]
    fn untrained_policy_produces_valid_outcome() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut config = OpcConfig::via_layer();
        config.max_steps = 3;
        let mut engine = RlOpc::new(config, tiny_config());
        let outcome = engine.optimize(&small_clip(), &sim);
        assert!(outcome.total_epe().is_finite());
        assert!(outcome.steps <= 3);
        assert_eq!(outcome.mask.segment_count(), 4);
    }

    #[test]
    fn training_runs_and_updates_parameters() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut config = OpcConfig::via_layer();
        config.max_steps = 2;
        let mut engine = RlOpc::new(config, tiny_config());
        let before = engine.fc2.forward_inference(&Tensor::zeros(vec![1, 16]));
        let rewards = engine.train(&[small_clip()], &sim, 2);
        assert_eq!(rewards.len(), 2);
        let after = engine.fc2.forward_inference(&Tensor::zeros(vec![1, 16]));
        // Bias terms should have moved (the update touched the parameters).
        assert_ne!(before.data(), after.data());
    }

    #[test]
    fn greedy_decisions_are_deterministic() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut engine_a = RlOpc::new(OpcConfig::via_layer(), tiny_config());
        let mut engine_b = RlOpc::new(OpcConfig::via_layer(), tiny_config());
        let a = engine_a.optimize(&small_clip(), &sim);
        let b = engine_b.optimize(&small_clip(), &sim);
        assert_eq!(a.mask.offsets(), b.mask.offsets());
        let _ = sim; // keep the simulator alive for clarity
    }
}
