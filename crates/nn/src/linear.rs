//! Fully-connected (affine) layer.

use crate::init::xavier_uniform;
use crate::tensor::{Param, Tensor};

/// An affine layer `y = x Wᵀ + b` operating on `[batch, in]` inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Param,
    bias: Param,
    input_cache: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a layer mapping `in_features` to `out_features`, with Xavier
    /// initialisation derived from `seed`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Self {
            weight: Param::new(xavier_uniform(vec![out_features, in_features], seed)),
            bias: Param::new(Tensor::zeros(vec![out_features])),
            input_cache: None,
            in_features,
            out_features,
        }
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Forward pass on `[batch, in_features]`; caches the input for backward.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 2-D with the expected width.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.forward_inference(input);
        self.input_cache = Some(input.clone());
        out
    }

    /// Forward pass without caching (inference only).
    ///
    /// # Panics
    ///
    /// Panics if the input is not 2-D with the expected width.
    pub fn forward_inference(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Linear expects a 2-D input");
        assert_eq!(input.shape()[1], self.in_features, "input width mismatch");
        let mut out = input.matmul(&self.weight.value.transposed());
        let batch = out.shape()[0];
        for b in 0..batch {
            for o in 0..self.out_features {
                let v = out.at2(b, o) + self.bias.value.data()[o];
                out.set2(b, o, v);
            }
        }
        out
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// Panics if `forward` was not called first.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .input_cache
            .as_ref()
            .expect("Linear::backward called before forward");
        // dW = grad_outputᵀ · input ; db = Σ_batch grad_output ; dx = grad_output · W
        let dw = grad_output.transposed().matmul(input);
        self.weight.grad.add_scaled(&dw, 1.0);
        let batch = grad_output.shape()[0];
        for b in 0..batch {
            for o in 0..self.out_features {
                self.bias.grad.data_mut()[o] += grad_output.at2(b, o);
            }
        }
        grad_output.matmul(&self.weight.value)
    }

    /// Mutable access to the layer's parameters (weight, bias).
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check of the weight gradient.
    #[test]
    fn gradient_check_weights() {
        let mut layer = Linear::new(3, 2, 11);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], vec![2, 3]);
        // Loss = sum of outputs.
        let y = layer.forward(&x);
        let grad_out = Tensor::ones(y.shape().to_vec());
        layer.backward(&grad_out);
        let analytic = layer.weight.grad.clone();

        let eps = 1e-6;
        for idx in 0..analytic.len() {
            let mut plus = layer.clone();
            plus.zero_grad();
            plus.weight.value.data_mut()[idx] += eps;
            let lp = plus.forward(&x).sum();
            let mut minus = layer.clone();
            minus.weight.value.data_mut()[idx] -= eps;
            let lm = minus.forward(&x).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 1e-5,
                "weight grad mismatch at {idx}: {numeric} vs {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut layer = Linear::new(3, 2, 5);
        let x = Tensor::from_vec(vec![0.1, 0.2, 0.3], vec![1, 3]);
        let y = layer.forward(&x);
        let gx = layer.backward(&Tensor::ones(y.shape().to_vec()));
        let eps = 1e-6;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = layer.forward_inference(&xp).sum();
            let lm = layer.forward_inference(&xm).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - gx.data()[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn bias_gradient_is_batch_sum() {
        let mut layer = Linear::new(2, 2, 3);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let y = layer.forward(&x);
        layer.backward(&Tensor::ones(y.shape().to_vec()));
        assert_eq!(layer.bias.grad.data(), &[2.0, 2.0]);
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut layer = Linear::new(4, 3, 9);
        let x = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4], vec![1, 4]);
        let a = layer.forward(&x);
        let b = layer.forward_inference(&x);
        assert_eq!(a, b);
    }
}
