//! The correlation-aware policy network.
//!
//! Architecture (Section 3.2 of the paper): per-segment squish features are
//! embedded by a fully-connected encoder, fused along the segment graph by a
//! GraphSAGE layer, processed *sequentially* by a stacked RNN (so each
//! decision sees the context of previously visited segments) and projected to
//! five movement logits by a linear head.

use crate::config::CamoConfig;
use camo_baselines::ACTION_COUNT;
use camo_nn::{Linear, Param, Relu, RnnStack, SageLayer, Tensor};

/// The CAMO policy network: encoder → GraphSAGE → RNN → linear head.
#[derive(Debug, Clone)]
pub struct CamoPolicy {
    encoder: Linear,
    encoder_act: Relu,
    sage: SageLayer,
    rnn: RnnStack,
    head: Linear,
    feature_len: usize,
}

impl CamoPolicy {
    /// Builds the policy described by `config`, with deterministic
    /// initialisation from `config.seed`.
    pub fn new(config: &CamoConfig) -> Self {
        let feature_len = config.feature_len();
        Self {
            encoder: Linear::new(feature_len, config.embedding, config.seed),
            encoder_act: Relu::new(),
            sage: SageLayer::new(
                config.embedding,
                config.embedding,
                config.seed.wrapping_add(11),
            ),
            rnn: RnnStack::new(
                config.embedding,
                config.hidden,
                config.rnn_layers,
                config.seed.wrapping_add(23),
            ),
            head: Linear::new(config.hidden, ACTION_COUNT, config.seed.wrapping_add(41)),
            feature_len,
        }
    }

    /// Expected per-node feature length.
    pub fn feature_len(&self) -> usize {
        self.feature_len
    }

    /// Total number of trainable scalar parameters.
    pub fn parameter_count(&mut self) -> usize {
        self.parameters_mut().iter().map(|p| p.len()).sum()
    }

    fn features_tensor(&self, features: &[Vec<f64>]) -> Tensor {
        let n = features.len();
        let mut data = Vec::with_capacity(n * self.feature_len);
        for f in features {
            assert_eq!(f.len(), self.feature_len, "feature length mismatch");
            data.extend_from_slice(f);
        }
        Tensor::from_vec(data, vec![n, self.feature_len])
    }

    /// Forward pass producing one logit vector (length 5) per segment, in the
    /// same order as the input features. Caches intermediate activations for
    /// [`Self::backward`].
    ///
    /// # Panics
    ///
    /// Panics if the feature lengths or the adjacency size are inconsistent.
    pub fn forward(&mut self, features: &[Vec<f64>], adjacency: &[Vec<usize>]) -> Vec<Vec<f64>> {
        let x = self.features_tensor(features);
        let embedded = self.encoder.forward(&x);
        let embedded = self.encoder_act.forward(&embedded);
        let fused = self.sage.forward(&embedded, adjacency);
        let sequence: Vec<Vec<f64>> = rows(&fused);
        let hidden = self.rnn.forward_sequence(&sequence);
        let hidden_tensor = from_rows(&hidden);
        let logits = self.head.forward(&hidden_tensor);
        rows(&logits)
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(
        &self,
        features: &[Vec<f64>],
        adjacency: &[Vec<usize>],
    ) -> Vec<Vec<f64>> {
        let x = self.features_tensor(features);
        let embedded = self.encoder.forward_inference(&x);
        let embedded = self.encoder_act.forward_inference(&embedded);
        let fused = self.sage.forward_inference(&embedded, adjacency);
        let sequence: Vec<Vec<f64>> = rows(&fused);
        let hidden = self.rnn.forward_sequence_inference(&sequence);
        let hidden_tensor = from_rows(&hidden);
        let logits = self.head.forward_inference(&hidden_tensor);
        rows(&logits)
    }

    /// Backward pass from per-segment logit gradients; accumulates parameter
    /// gradients across calls until [`Self::zero_grad`].
    ///
    /// # Panics
    ///
    /// Panics if `forward` was not called first or the gradient shape does
    /// not match the last forward pass.
    pub fn backward(&mut self, grad_logits: &[Vec<f64>]) {
        let grad = from_rows(grad_logits);
        let grad_hidden = self.head.backward(&grad);
        let grad_hidden_rows = rows(&grad_hidden);
        let grad_sequence = self.rnn.backward_sequence(&grad_hidden_rows);
        let grad_fused = from_rows(&grad_sequence);
        let grad_embedded = self.sage.backward(&grad_fused);
        let grad_embedded = self.encoder_act.backward(&grad_embedded);
        let _ = self.encoder.backward(&grad_embedded);
    }

    /// Mutable access to every trainable parameter.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.encoder.parameters_mut();
        params.extend(self.sage.parameters_mut());
        params.extend(self.rnn.parameters_mut());
        params.extend(self.head.parameters_mut());
        params
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.encoder.zero_grad();
        self.sage.zero_grad();
        self.rnn.zero_grad();
        self.head.zero_grad();
    }
}

fn rows(t: &Tensor) -> Vec<Vec<f64>> {
    let n = t.shape()[0];
    let d = t.shape()[1];
    (0..n)
        .map(|i| t.data()[i * d..(i + 1) * d].to_vec())
        .collect()
}

fn from_rows(rows: &[Vec<f64>]) -> Tensor {
    let n = rows.len();
    let d = rows.first().map(|r| r.len()).unwrap_or(0);
    let mut data = Vec::with_capacity(n * d);
    for r in rows {
        assert_eq!(r.len(), d, "ragged row widths");
        data.extend_from_slice(r);
    }
    Tensor::from_vec(data, vec![n, d])
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_nn::{cross_entropy_grad, Optimizer, Sgd};

    fn tiny_policy() -> (CamoPolicy, Vec<Vec<f64>>, Vec<Vec<usize>>) {
        let mut config = CamoConfig::fast();
        config.features.tensor_size = 2; // feature length = 2*3*4 = 24
        config.embedding = 8;
        config.hidden = 6;
        config.rnn_layers = 2;
        let policy = CamoPolicy::new(&config);
        let n = 4;
        let features: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..config.feature_len())
                    .map(|j| ((i * 7 + j) as f64 * 0.13).sin() * 0.5)
                    .collect()
            })
            .collect();
        let adjacency = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
        (policy, features, adjacency)
    }

    #[test]
    fn forward_produces_one_logit_vector_per_segment() {
        let (mut policy, features, adjacency) = tiny_policy();
        let logits = policy.forward(&features, &adjacency);
        assert_eq!(logits.len(), 4);
        assert!(logits.iter().all(|l| l.len() == ACTION_COUNT));
        assert!(policy.parameter_count() > 0);
        // Inference path matches the training path bit for bit.
        let inference = policy.forward_inference(&features, &adjacency);
        for (a, b) in logits.iter().zip(&inference) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let config = CamoConfig::fast();
        let a = CamoPolicy::new(&config);
        let b = CamoPolicy::new(&config);
        let features = vec![vec![0.3; config.feature_len()]; 3];
        let adjacency = vec![vec![1], vec![0, 2], vec![1]];
        assert_eq!(
            a.forward_inference(&features, &adjacency),
            b.forward_inference(&features, &adjacency)
        );
    }

    #[test]
    fn end_to_end_gradient_check() {
        let (mut policy, features, adjacency) = tiny_policy();
        // Loss: sum of all logits.
        let logits = policy.forward(&features, &adjacency);
        let grad: Vec<Vec<f64>> = logits.iter().map(|l| vec![1.0; l.len()]).collect();
        policy.zero_grad();
        policy.backward(&grad);
        let analytic = policy.head.parameters_mut()[0].grad.clone();
        let eps = 1e-6;
        let loss = |p: &CamoPolicy| -> f64 {
            p.forward_inference(&features, &adjacency)
                .iter()
                .map(|l| l.iter().sum::<f64>())
                .sum()
        };
        for idx in [0usize, 3, 7] {
            let mut plus = policy.clone();
            plus.head.parameters_mut()[0].value.data_mut()[idx] += eps;
            let mut minus = policy.clone();
            minus.head.parameters_mut()[0].value.data_mut()[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 1e-4,
                "head grad mismatch at {idx}: {numeric} vs {}",
                analytic.data()[idx]
            );
        }
        // Also check a weight deep in the encoder to make sure gradients flow
        // through the whole chain.
        let analytic_enc = policy.encoder.parameters_mut()[0].grad.clone();
        let nonzero = analytic_enc
            .data()
            .iter()
            .filter(|g| g.abs() > 1e-12)
            .count();
        assert!(nonzero > 0, "encoder must receive gradient");
        let idx = analytic_enc
            .data()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut plus = policy.clone();
        plus.encoder.parameters_mut()[0].value.data_mut()[idx] += eps;
        let mut minus = policy.clone();
        minus.encoder.parameters_mut()[0].value.data_mut()[idx] -= eps;
        let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
        assert!(
            (numeric - analytic_enc.data()[idx]).abs() < 1e-4,
            "encoder grad mismatch: {numeric} vs {}",
            analytic_enc.data()[idx]
        );
    }

    #[test]
    fn training_step_reduces_cross_entropy() {
        let (mut policy, features, adjacency) = tiny_policy();
        let targets = vec![4usize, 4, 0, 2];
        let nll = |p: &CamoPolicy| -> f64 {
            p.forward_inference(&features, &adjacency)
                .iter()
                .zip(&targets)
                .map(|(l, &t)| -camo_nn::log_softmax(l)[t])
                .sum()
        };
        let before = nll(&policy);
        for _ in 0..20 {
            let logits = policy.forward(&features, &adjacency);
            let grads: Vec<Vec<f64>> = logits
                .iter()
                .zip(&targets)
                .map(|(l, &t)| cross_entropy_grad(l, t, 1.0))
                .collect();
            policy.zero_grad();
            policy.backward(&grads);
            let mut opt = Sgd::new(0.05, 0.0);
            opt.step(&mut policy.parameters_mut());
        }
        let after = nll(&policy);
        assert!(
            after < before,
            "imitation loss must decrease: {before} -> {after}"
        );
    }

    #[test]
    fn changing_an_earlier_segment_affects_later_decisions() {
        // The RNN must propagate context: perturbing node 0's features changes
        // node 3's logits even though they are not graph neighbours.
        let (policy, features, _) = tiny_policy();
        let adjacency = vec![vec![], vec![], vec![], vec![]];
        let base = policy.forward_inference(&features, &adjacency);
        let mut perturbed = features.clone();
        for v in &mut perturbed[0] {
            *v += 0.4;
        }
        let changed = policy.forward_inference(&perturbed, &adjacency);
        let diff: f64 = base[3]
            .iter()
            .zip(&changed[3])
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 1e-9,
            "sequential correlation must flow through the RNN"
        );
    }
}
