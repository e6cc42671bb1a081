//! Two-phase CAMO training (Algorithm 1 of the paper).
//!
//! * **Phase 1 — imitation**: the policy mimics per-step movements of the
//!   Calibre-like teacher on the training clips (behaviour cloning with the
//!   cross-entropy objective). The modulator is not used in this phase.
//! * **Phase 2 — modulated REINFORCE**: the policy samples actions from the
//!   modulated distribution `p̂ ⊙ π_θ(a|s)`, the environment returns the
//!   EPE/PV-band improvement reward of Eq. (3), and parameters are updated
//!   with the REINFORCE gradient computed on the *unmodulated* policy output,
//!   exactly as the paper prescribes.
//!
//! # Epoch structure and determinism
//!
//! Each epoch evaluates every clip's episode against the **same frozen
//! policy snapshot** and applies a single parameter update from the sum of
//! the per-episode gradients, reduced in clip order. Episodes are therefore
//! independent of one another: [`CamoTrainer::imitation_episode`] and
//! [`CamoTrainer::reinforce_episode`] take `&self` plus an immutable engine
//! and may run concurrently (the `camo-runtime` crate does exactly that),
//! while [`CamoTrainer::finish_imitation_epoch`] /
//! [`CamoTrainer::finish_reinforce_epoch`] perform the fixed-order
//! reduction and update. Stochastic action sampling draws from a generator
//! derived per episode from `(config.seed, epoch, clip_index)` — see
//! [`CamoConfig::seed`](crate::CamoConfig) — so epoch results are
//! bit-identical however the episodes are scheduled, while successive
//! epochs still explore fresh streams.
//!
//! Every episode opens its evaluator session through the one shared
//! `&LithoSimulator`: the simulator's immutable
//! [`camo_litho::LithoContext`] (kernel taps derived once per
//! configuration) and its workspace pool are common to the whole training
//! run, so concurrent episodes borrow shared state instead of rebuilding
//! per-episode simulation setup — a training run on `T` threads holds at
//! most `T` workspaces regardless of epoch or clip count.

use crate::engine::CamoEngine;
use camo_baselines::{action_to_move, move_to_action, CalibreLikeOpc};
use camo_geometry::Clip;
use camo_litho::LithoSimulator;
use camo_nn::{cross_entropy_grad, log_softmax, Optimizer, Sgd};
use camo_rl::{episode_rng, reinforce_coefficients};

/// Per-epoch statistics produced by training.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingReport {
    /// Mean behaviour-cloning loss per Phase-1 epoch.
    pub imitation_losses: Vec<f64>,
    /// Total episode reward per Phase-2 epoch (summed over training clips).
    pub rl_rewards: Vec<f64>,
}

impl TrainingReport {
    /// True when Phase-1 made progress (final loss below the first).
    pub fn imitation_improved(&self) -> bool {
        match (self.imitation_losses.first(), self.imitation_losses.last()) {
            (Some(first), Some(last)) => last <= first,
            _ => false,
        }
    }
}

/// The gradient contribution of one training episode, computed against a
/// frozen snapshot of the engine's policy.
#[derive(Debug, Clone)]
pub struct EpisodeGrads {
    /// One flat gradient per policy parameter tensor, in
    /// [`CamoPolicy::parameters_mut`](crate::CamoPolicy::parameters_mut)
    /// order.
    pub grads: Vec<Vec<f64>>,
    /// Summed cross-entropy loss (imitation) or total episode reward
    /// (REINFORCE).
    pub metric: f64,
    /// Number of (segment, step) samples behind an imitation `metric`; 0
    /// for REINFORCE episodes.
    pub samples: usize,
}

/// Runs the two-phase training procedure against a set of training clips.
#[derive(Debug, Clone)]
pub struct CamoTrainer {
    teacher: CalibreLikeOpc,
}

impl CamoTrainer {
    /// Creates a trainer whose Phase-1 teacher uses the engine's OPC
    /// configuration.
    pub fn new(engine: &CamoEngine) -> Self {
        Self {
            teacher: CalibreLikeOpc::new(engine.opc_config().clone()),
        }
    }

    /// Runs Phase 1 followed by Phase 2 on `clips`, updating the engine's
    /// policy in place.
    pub fn train(
        &mut self,
        engine: &mut CamoEngine,
        clips: &[Clip],
        simulator: &LithoSimulator,
    ) -> TrainingReport {
        let imitation_epochs = engine.config().imitation_epochs;
        let rl_epochs = engine.config().rl_epochs;
        let mut report = TrainingReport::default();
        for _ in 0..imitation_epochs {
            report
                .imitation_losses
                .push(self.imitation_epoch(engine, clips, simulator));
        }
        for epoch in 0..rl_epochs {
            report
                .rl_rewards
                .push(self.reinforce_epoch_at(engine, clips, simulator, epoch));
        }
        report
    }

    /// One epoch of behaviour cloning; returns the mean cross-entropy loss.
    pub fn imitation_epoch(
        &mut self,
        engine: &mut CamoEngine,
        clips: &[Clip],
        simulator: &LithoSimulator,
    ) -> f64 {
        let episodes: Vec<EpisodeGrads> = clips
            .iter()
            .map(|clip| self.imitation_episode(engine, clip, simulator))
            .collect();
        Self::finish_imitation_epoch(engine, &episodes)
    }

    /// One epoch of modulated REINFORCE (as epoch 0); returns the summed
    /// episode reward. Multi-epoch schedules should use
    /// [`Self::reinforce_epoch_at`] so each epoch explores fresh streams.
    pub fn reinforce_epoch(
        &mut self,
        engine: &mut CamoEngine,
        clips: &[Clip],
        simulator: &LithoSimulator,
    ) -> f64 {
        self.reinforce_epoch_at(engine, clips, simulator, 0)
    }

    /// One epoch of modulated REINFORCE with episode streams offset by
    /// `epoch`: clip `i` samples from stream `epoch * clips.len() + i`, so
    /// successive epochs explore fresh randomness while any scheduling of
    /// the episodes within an epoch stays bit-identical.
    pub fn reinforce_epoch_at(
        &self,
        engine: &mut CamoEngine,
        clips: &[Clip],
        simulator: &LithoSimulator,
        epoch: usize,
    ) -> f64 {
        let base = epoch * clips.len();
        let episodes: Vec<EpisodeGrads> = clips
            .iter()
            .enumerate()
            .map(|(i, clip)| self.reinforce_episode(engine, base + i, clip, simulator))
            .collect();
        Self::finish_reinforce_epoch(engine, &episodes)
    }

    /// The behaviour-cloning gradient of one clip's teacher trajectory,
    /// against the engine's current (frozen) policy.
    ///
    /// Teacher movements depend only on the measured EPE, never on the
    /// policy, so the trajectory — and hence the gradient — is a pure
    /// function of `(engine, clip)` and can be computed concurrently with
    /// other episodes.
    pub fn imitation_episode(
        &self,
        engine: &CamoEngine,
        clip: &Clip,
        simulator: &LithoSimulator,
    ) -> EpisodeGrads {
        let teacher_steps = engine.config().teacher_steps;
        let mask = engine.opc_config().initial_mask(clip);
        let graph = engine.graph(&mask);
        let mut eval = simulator.evaluator(&mask);
        let mut policy = engine.policy().clone();
        policy.zero_grad();
        let mut total_loss = 0.0;
        let mut samples = 0usize;
        for _ in 0..teacher_steps {
            let epe = eval.epe();
            let teacher_moves = self.teacher.teacher_moves(&epe);
            let targets: Vec<usize> = teacher_moves.iter().map(|&m| move_to_action(m)).collect();
            let features = engine.node_features(eval.mask());
            let logits = policy.forward(&features, graph.adjacency());
            let n = logits.len().max(1);
            let grads: Vec<Vec<f64>> = logits
                .iter()
                .zip(&targets)
                .map(|(l, &t)| cross_entropy_grad(l, t, 1.0 / n as f64))
                .collect();
            for (l, &t) in logits.iter().zip(&targets) {
                total_loss += -log_softmax(l)[t];
                samples += 1;
            }
            policy.backward(&grads);
            eval.apply_moves(&teacher_moves);
        }
        EpisodeGrads {
            grads: extract_grads(&mut policy),
            metric: total_loss,
            samples,
        }
    }

    /// The REINFORCE gradient of one sampled episode on `clip`, against the
    /// engine's current (frozen) policy.
    ///
    /// Actions are drawn from a generator derived from
    /// `(engine.config().seed, episode_stream)` — for per-clip episodes the
    /// stream is `epoch * clips.len() + clip_index` — so the episode is a
    /// pure function of its inputs and can be computed concurrently with
    /// other episodes.
    pub fn reinforce_episode(
        &self,
        engine: &CamoEngine,
        episode_stream: usize,
        clip: &Clip,
        simulator: &LithoSimulator,
    ) -> EpisodeGrads {
        let mut rng = episode_rng(engine.config().seed, episode_stream as u64);
        let (opc, reward) = (engine.opc_config(), &engine.config().reward);
        let mask = opc.initial_mask(clip);
        let graph = engine.graph(&mask);
        // Per step: the features observed and the actions taken.
        let (trajectory, steps) = opc.rollout(&mask, simulator, reward, |mask, epe| {
            let features = engine.node_features(mask);
            let actions: Vec<usize> = engine
                .decide_on_features(&features, &graph, epe, Some(&mut rng))
                .iter()
                .map(|(a, _)| *a)
                .collect();
            let moves = actions.iter().map(|&a| action_to_move(a)).collect();
            (moves, (features, actions))
        });

        // REINFORCE gradient on the original (unmodulated) policy outputs.
        let coefficients = reinforce_coefficients(&trajectory, &engine.config().reinforce);
        let mut policy = engine.policy().clone();
        policy.zero_grad();
        for ((features, actions), &coeff) in steps.iter().zip(&coefficients) {
            let logits = policy.forward(features, graph.adjacency());
            let n = logits.len().max(1) as f64;
            let grads: Vec<Vec<f64>> = logits
                .iter()
                .zip(actions)
                .map(|(l, &a)| cross_entropy_grad(l, a, coeff / n))
                .collect();
            policy.backward(&grads);
        }
        EpisodeGrads {
            grads: extract_grads(&mut policy),
            metric: trajectory.total_reward(),
            samples: 0,
        }
    }

    /// Reduces a Phase-1 epoch's episodes in order, applies the update and
    /// returns the mean cross-entropy loss.
    pub fn finish_imitation_epoch(engine: &mut CamoEngine, episodes: &[EpisodeGrads]) -> f64 {
        let (loss, samples) = episodes
            .iter()
            .fold((0.0, 0usize), |(l, s), e| (l + e.metric, s + e.samples));
        Self::apply_epoch_update(engine, episodes);
        if samples == 0 {
            0.0
        } else {
            loss / samples as f64
        }
    }

    /// Reduces a Phase-2 epoch's episodes in order, applies the update and
    /// returns the summed episode reward.
    pub fn finish_reinforce_epoch(engine: &mut CamoEngine, episodes: &[EpisodeGrads]) -> f64 {
        let reward = episodes.iter().map(|e| e.metric).sum();
        Self::apply_epoch_update(engine, episodes);
        reward
    }

    /// Sums the episode gradients **in slice order** into the engine's
    /// policy and takes one clipped SGD step. The fixed reduction order is
    /// what makes parallel epochs bit-identical to serial ones: however the
    /// episodes were computed, the floating-point additions happen in the
    /// same sequence.
    fn apply_epoch_update(engine: &mut CamoEngine, episodes: &[EpisodeGrads]) {
        let lr = engine.config().learning_rate;
        let policy = engine.policy_mut();
        policy.zero_grad();
        let mut params = policy.parameters_mut();
        for episode in episodes {
            assert_eq!(
                episode.grads.len(),
                params.len(),
                "episode gradient layout must match the policy"
            );
            for (param, grad) in params.iter_mut().zip(&episode.grads) {
                for (dst, &src) in param.grad.data_mut().iter_mut().zip(grad) {
                    *dst += src;
                }
            }
        }
        let mut optimizer = Sgd::new(lr, 0.0).with_grad_clip(5.0);
        optimizer.step(&mut params);
    }
}

/// Snapshots a policy's accumulated gradients as flat vectors, in parameter
/// order.
fn extract_grads(policy: &mut crate::CamoPolicy) -> Vec<Vec<f64>> {
    policy
        .parameters_mut()
        .iter()
        .map(|p| p.grad.data().to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CamoConfig;
    use camo_baselines::OpcConfig;
    use camo_geometry::Rect;
    use camo_litho::{LithoConfig, LithoSimulator};

    fn training_clips() -> Vec<Clip> {
        let mut a = Clip::new(Rect::new(0, 0, 800, 800));
        a.add_target(Rect::new(365, 365, 435, 435).to_polygon());
        let mut b = Clip::new(Rect::new(0, 0, 800, 800));
        b.add_target(Rect::new(265, 365, 335, 435).to_polygon());
        b.add_target(Rect::new(465, 365, 535, 435).to_polygon());
        vec![a, b]
    }

    fn fast_engine() -> CamoEngine {
        let mut opc = OpcConfig::via_layer();
        opc.max_steps = 2;
        CamoEngine::new(opc, CamoConfig::fast())
    }

    #[test]
    fn imitation_loss_decreases_over_epochs() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut engine = fast_engine();
        let mut trainer = CamoTrainer::new(&engine);
        let clips = training_clips();
        let mut losses = Vec::new();
        for _ in 0..4 {
            losses.push(trainer.imitation_epoch(&mut engine, &clips, &sim));
        }
        assert!(
            losses.last().expect("non-empty") < losses.first().expect("non-empty"),
            "imitation loss should decrease: {losses:?}"
        );
    }

    #[test]
    fn full_training_produces_report() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut engine = fast_engine();
        let mut trainer = CamoTrainer::new(&engine);
        let report = trainer.train(&mut engine, &training_clips(), &sim);
        assert_eq!(
            report.imitation_losses.len(),
            engine.config().imitation_epochs
        );
        assert_eq!(report.rl_rewards.len(), engine.config().rl_epochs);
        assert!(report.imitation_improved());
        assert!(report.rl_rewards.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn reinforce_epoch_runs_without_modulator() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut opc = OpcConfig::via_layer();
        opc.max_steps = 2;
        let mut engine = CamoEngine::new(opc, CamoConfig::fast().without_modulator());
        let mut trainer = CamoTrainer::new(&engine);
        let reward = trainer.reinforce_epoch(&mut engine, &training_clips(), &sim);
        assert!(reward.is_finite());
    }

    #[test]
    fn episodes_are_pure_functions_of_engine_and_clip() {
        // The same (engine, clip, clip_index) must yield the same gradients
        // no matter how often or in which order episodes are computed —
        // the property the parallel runtime's bit-identity rests on.
        let sim = LithoSimulator::new(LithoConfig::fast());
        let engine = fast_engine();
        let trainer = CamoTrainer::new(&engine);
        let clips = training_clips();
        let a = trainer.reinforce_episode(&engine, 1, &clips[1], &sim);
        let first = trainer.imitation_episode(&engine, &clips[0], &sim);
        let b = trainer.reinforce_episode(&engine, 1, &clips[1], &sim);
        assert_eq!(a.grads, b.grads);
        assert_eq!(a.metric, b.metric);
        let again = trainer.imitation_episode(&engine, &clips[0], &sim);
        assert_eq!(first.grads, again.grads);
    }

    #[test]
    fn epoch_update_sums_episodes_in_order() {
        let sim = LithoSimulator::new(LithoConfig::fast());
        let clips = training_clips();
        let mut by_epoch = fast_engine();
        let trainer = CamoTrainer::new(&by_epoch);
        let episodes: Vec<EpisodeGrads> = clips
            .iter()
            .map(|c| trainer.imitation_episode(&by_epoch, c, &sim))
            .collect();
        // Manually reduce against a second engine and compare parameters.
        let mut manual = fast_engine();
        CamoTrainer::finish_imitation_epoch(&mut manual, &episodes);
        CamoTrainer::finish_imitation_epoch(&mut by_epoch, &episodes);
        let a: Vec<Vec<f64>> = manual
            .policy_mut()
            .parameters_mut()
            .iter()
            .map(|p| p.value.data().to_vec())
            .collect();
        let b: Vec<Vec<f64>> = by_epoch
            .policy_mut()
            .parameters_mut()
            .iter()
            .map(|p| p.value.data().to_vec())
            .collect();
        assert_eq!(a, b);
    }
}
