//! Multi-layer Elman RNN with backpropagation through time.
//!
//! CAMO processes the node embeddings of one clip as a *sequence*, letting
//! later segments see the context of earlier ones. The paper uses a 3-layer
//! recurrent module with hidden size 64; [`RnnStack`] implements exactly that
//! forward recurrence (Eq. (5) of the paper) together with full BPTT.

use crate::init::xavier_uniform;
use crate::tensor::{Param, Tensor};

/// One recurrent layer: `h_t = tanh(U x_t + W h_{t-1} + b)`.
#[derive(Debug, Clone, PartialEq)]
struct RnnCell {
    u: Param,
    w: Param,
    b: Param,
    input_size: usize,
    hidden_size: usize,
    /// The last forward's inputs `x_t`, one per step.
    inputs: Vec<Vec<f64>>,
    /// The last forward's hidden states `h_t` (`h_{t-1}` is the previous
    /// step's, zero before the first).
    hidden: Vec<Vec<f64>>,
}

impl RnnCell {
    fn new(input_size: usize, hidden_size: usize, seed: u64) -> Self {
        Self {
            u: Param::new(xavier_uniform(vec![hidden_size, input_size], seed)),
            w: Param::new(xavier_uniform(
                vec![hidden_size, hidden_size],
                seed.wrapping_add(1),
            )),
            b: Param::new(Tensor::zeros(vec![hidden_size])),
            input_size,
            hidden_size,
            inputs: Vec::new(),
            hidden: Vec::new(),
        }
    }

    fn step(&self, x: &[f64], h_prev: &[f64]) -> Vec<f64> {
        let hs = self.hidden_size;
        let is = self.input_size;
        let u = self.u.value.data();
        let w = self.w.value.data();
        let b = self.b.value.data();
        let mut h = vec![0.0; hs];
        for i in 0..hs {
            let mut acc = b[i];
            for j in 0..is {
                acc += u[i * is + j] * x[j];
            }
            for j in 0..hs {
                acc += w[i * hs + j] * h_prev[j];
            }
            h[i] = acc.tanh();
        }
        h
    }

    fn forward_sequence(&mut self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let outputs = self.forward_sequence_inference(inputs);
        self.inputs = inputs.to_vec();
        self.hidden = outputs.clone();
        outputs
    }

    fn forward_sequence_inference(&self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut h = vec![0.0; self.hidden_size];
        let mut outputs = Vec::with_capacity(inputs.len());
        for x in inputs {
            h = self.step(x, &h);
            outputs.push(h.clone());
        }
        outputs
    }

    /// BPTT over the cached sequence. `grad_outputs[t]` is the gradient of
    /// the loss with respect to `h_t` coming from above; returns the gradient
    /// with respect to each input.
    fn backward_sequence(&mut self, grad_outputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let steps = self.inputs.len();
        assert_eq!(grad_outputs.len(), steps, "gradient/step count mismatch");
        let hs = self.hidden_size;
        let is = self.input_size;
        let mut grad_inputs = vec![vec![0.0; is]; steps];
        let mut dh_next = vec![0.0; hs];
        let zero = vec![0.0; hs];
        let u = self.u.value.data().to_vec();
        let w = self.w.value.data().to_vec();
        for t in (0..steps).rev() {
            let (x, h) = (&self.inputs[t], &self.hidden[t]);
            let h_prev = if t == 0 { &zero } else { &self.hidden[t - 1] };
            // Total gradient on h_t: from the output head plus from h_{t+1}.
            let mut dh: Vec<f64> = grad_outputs[t].clone();
            for i in 0..hs {
                dh[i] += dh_next[i];
            }
            // Through the tanh.
            let dpre: Vec<f64> = (0..hs).map(|i| dh[i] * (1.0 - h[i] * h[i])).collect();
            {
                let ugrad = self.u.grad.data_mut();
                for i in 0..hs {
                    for j in 0..is {
                        ugrad[i * is + j] += dpre[i] * x[j];
                    }
                }
            }
            {
                let wgrad = self.w.grad.data_mut();
                for i in 0..hs {
                    for j in 0..hs {
                        wgrad[i * hs + j] += dpre[i] * h_prev[j];
                    }
                }
            }
            {
                let bgrad = self.b.grad.data_mut();
                for i in 0..hs {
                    bgrad[i] += dpre[i];
                }
            }
            for j in 0..is {
                let mut acc = 0.0;
                for i in 0..hs {
                    acc += u[i * is + j] * dpre[i];
                }
                grad_inputs[t][j] = acc;
            }
            for j in 0..hs {
                let mut acc = 0.0;
                for i in 0..hs {
                    acc += w[i * hs + j] * dpre[i];
                }
                dh_next[j] = acc;
            }
        }
        grad_inputs
    }
}

/// A stack of recurrent layers processing a sequence of feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnStack {
    cells: Vec<RnnCell>,
    input_size: usize,
    hidden_size: usize,
}

impl RnnStack {
    /// Creates a stack of `layers` recurrent layers. The first layer maps
    /// `input_size → hidden_size`, later layers `hidden_size → hidden_size`.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn new(input_size: usize, hidden_size: usize, layers: usize, seed: u64) -> Self {
        assert!(layers > 0, "an RNN stack needs at least one layer");
        let cells = (0..layers)
            .map(|l| {
                let in_sz = if l == 0 { input_size } else { hidden_size };
                RnnCell::new(in_sz, hidden_size, seed.wrapping_add(97 * l as u64))
            })
            .collect();
        Self {
            cells,
            input_size,
            hidden_size,
        }
    }

    /// Input feature size.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden-state size (also the per-step output size).
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.cells.len()
    }

    /// Processes a sequence; returns the top layer's hidden state per step.
    /// Caches activations for [`Self::backward_sequence`].
    pub fn forward_sequence(&mut self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut current: Vec<Vec<f64>> = inputs.to_vec();
        for cell in &mut self.cells {
            current = cell.forward_sequence(&current);
        }
        current
    }

    /// Processes a sequence without caching (inference only).
    pub fn forward_sequence_inference(&self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut current: Vec<Vec<f64>> = inputs.to_vec();
        for cell in &self.cells {
            current = cell.forward_sequence_inference(&current);
        }
        current
    }

    /// Backpropagates through time; `grad_outputs[t]` is the gradient with
    /// respect to the top layer's hidden state at step `t`. Returns gradients
    /// with respect to the original inputs.
    pub fn backward_sequence(&mut self, grad_outputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut grads: Vec<Vec<f64>> = grad_outputs.to_vec();
        for cell in self.cells.iter_mut().rev() {
            grads = cell.backward_sequence(&grads);
        }
        grads
    }

    /// Mutable access to all parameters of all layers.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        for cell in &mut self.cells {
            params.push(&mut cell.u);
            params.push(&mut cell.w);
            params.push(&mut cell.b);
        }
        params
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for cell in &mut self.cells {
            cell.u.zero_grad();
            cell.w.zero_grad();
            cell.b.zero_grad();
        }
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.u.len() + c.w.len() + c.b.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss(rnn: &RnnStack, inputs: &[Vec<f64>]) -> f64 {
        rnn.forward_sequence_inference(inputs)
            .iter()
            .map(|h| h.iter().sum::<f64>())
            .sum()
    }

    #[test]
    fn forward_shapes() {
        let mut rnn = RnnStack::new(6, 4, 3, 1);
        let seq = vec![vec![0.1; 6]; 5];
        let out = rnn.forward_sequence(&seq);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].len(), 4);
        assert_eq!(rnn.num_layers(), 3);
        assert!(rnn.parameter_count() > 0);
    }

    #[test]
    fn later_steps_depend_on_earlier_inputs() {
        let mut rnn = RnnStack::new(3, 4, 2, 2);
        let base = vec![
            vec![0.2, -0.1, 0.4],
            vec![0.0, 0.3, -0.2],
            vec![0.1, 0.1, 0.1],
        ];
        let mut altered = base.clone();
        altered[0][0] += 0.5;
        let out_base = rnn.forward_sequence(&base);
        let out_alt = rnn.forward_sequence(&altered);
        // Changing the first input changes the last hidden state: the RNN
        // carries context forward (the correlation-awareness CAMO relies on).
        let diff: f64 = out_base[2]
            .iter()
            .zip(&out_alt[2])
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6);
    }

    #[test]
    fn bptt_gradient_check_parameters() {
        let mut rnn = RnnStack::new(2, 3, 2, 7);
        let seq = vec![vec![0.5, -0.2], vec![0.1, 0.4], vec![-0.3, 0.2]];
        let out = rnn.forward_sequence(&seq);
        let grads: Vec<Vec<f64>> = out.iter().map(|h| vec![1.0; h.len()]).collect();
        rnn.backward_sequence(&grads);
        let eps = 1e-6;
        // Check a sample of parameters from each matrix of the first cell.
        let analytic_u = rnn.cells[0].u.grad.clone();
        let analytic_w = rnn.cells[1].w.grad.clone();
        for idx in [0usize, 1, 3] {
            let mut plus = rnn.clone();
            plus.cells[0].u.value.data_mut()[idx] += eps;
            let mut minus = rnn.clone();
            minus.cells[0].u.value.data_mut()[idx] -= eps;
            let numeric = (loss(&plus, &seq) - loss(&minus, &seq)) / (2.0 * eps);
            assert!(
                (numeric - analytic_u.data()[idx]).abs() < 1e-5,
                "U grad mismatch at {idx}: {numeric} vs {}",
                analytic_u.data()[idx]
            );
        }
        for idx in [0usize, 4, 8] {
            let mut plus = rnn.clone();
            plus.cells[1].w.value.data_mut()[idx] += eps;
            let mut minus = rnn.clone();
            minus.cells[1].w.value.data_mut()[idx] -= eps;
            let numeric = (loss(&plus, &seq) - loss(&minus, &seq)) / (2.0 * eps);
            assert!(
                (numeric - analytic_w.data()[idx]).abs() < 1e-5,
                "W grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn bptt_gradient_check_inputs() {
        let mut rnn = RnnStack::new(2, 3, 1, 13);
        let seq = vec![vec![0.5, -0.2], vec![0.1, 0.4]];
        let out = rnn.forward_sequence(&seq);
        let grads: Vec<Vec<f64>> = out.iter().map(|h| vec![1.0; h.len()]).collect();
        let gin = rnn.backward_sequence(&grads);
        let eps = 1e-6;
        for t in 0..2 {
            for j in 0..2 {
                let mut sp = seq.clone();
                sp[t][j] += eps;
                let mut sm = seq.clone();
                sm[t][j] -= eps;
                let numeric = (loss(&rnn, &sp) - loss(&rnn, &sm)) / (2.0 * eps);
                assert!((numeric - gin[t][j]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rnn = RnnStack::new(2, 3, 2, 3);
        let seq = vec![vec![0.5, -0.2]];
        let out = rnn.forward_sequence(&seq);
        rnn.backward_sequence(&[vec![1.0; out[0].len()]]);
        rnn.zero_grad();
        for p in rnn.parameters_mut() {
            assert_eq!(p.grad.sum(), 0.0);
        }
    }
}
