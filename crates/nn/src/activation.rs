//! The element-wise activation layer.

use crate::tensor::Tensor;

/// Rectified linear unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Relu {
    input_cache: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; caches the input for backward.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.input_cache = Some(input.clone());
        self.forward_inference(input)
    }

    /// Forward pass without caching.
    pub fn forward_inference(&self, input: &Tensor) -> Tensor {
        input.map(|v| v.max(0.0))
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `forward` was not called first.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .input_cache
            .as_ref()
            .expect("Relu::backward called before forward");
        Tensor::from_vec(
            input
                .data()
                .iter()
                .zip(grad_output.data())
                .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
                .collect(),
            input.shape().to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negative_inputs() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], vec![1, 3]);
        assert_eq!(relu.forward(&x).data(), &[0.0, 0.0, 2.0]);
        let g = relu.backward(&Tensor::ones(vec![1, 3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }
}
