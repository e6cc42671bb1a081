//! GraphSAGE mean-aggregation layer.
//!
//! CAMO fuses each segment's local features with those of its spatial
//! neighbours along the segment graph (Eq. (4) of the paper). This module
//! implements the GraphSAGE formulation with mean aggregation and a combine
//! step `h_v = ReLU(W_self·x_v + W_neigh·mean(x_u) + b)`.

use crate::init::xavier_uniform;
use crate::tensor::{Param, Tensor};

/// One GraphSAGE layer over node features `[n, in]` and an adjacency list.
#[derive(Debug, Clone, PartialEq)]
pub struct SageLayer {
    w_self: Param,
    w_neigh: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cache: Option<SageCache>,
}

#[derive(Debug, Clone, PartialEq)]
struct SageCache {
    input: Tensor,
    aggregated: Tensor,
    pre_activation: Tensor,
    adjacency: Vec<Vec<usize>>,
}

impl SageLayer {
    /// Creates a layer mapping `in_features` to `out_features`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Self {
            w_self: Param::new(xavier_uniform(vec![out_features, in_features], seed)),
            w_neigh: Param::new(xavier_uniform(
                vec![out_features, in_features],
                seed.wrapping_add(31),
            )),
            bias: Param::new(Tensor::zeros(vec![out_features])),
            in_features,
            out_features,
            cache: None,
        }
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output embedding width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Mean of each node's neighbour features; nodes without neighbours
    /// aggregate to zero.
    fn aggregate(&self, nodes: &Tensor, adjacency: &[Vec<usize>]) -> Tensor {
        let n = nodes.shape()[0];
        let d = nodes.shape()[1];
        let mut agg = Tensor::zeros(vec![n, d]);
        for (v, neigh) in adjacency.iter().enumerate() {
            if neigh.is_empty() {
                continue;
            }
            let scale = 1.0 / neigh.len() as f64;
            for &u in neigh {
                for j in 0..d {
                    let val = agg.at2(v, j) + nodes.at2(u, j) * scale;
                    agg.set2(v, j, val);
                }
            }
        }
        agg
    }

    /// Forward pass: `[n, in] -> [n, out]` with caching for backward.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency list length differs from the node count or any
    /// neighbour index is out of range.
    pub fn forward(&mut self, nodes: &Tensor, adjacency: &[Vec<usize>]) -> Tensor {
        let (aggregated, pre_activation) = self.pre_activation(nodes, adjacency);
        let out = pre_activation.map(|v| v.max(0.0));
        self.cache = Some(SageCache {
            input: nodes.clone(),
            aggregated,
            pre_activation,
            adjacency: adjacency.to_vec(),
        });
        out
    }

    /// Forward pass without caching (inference only).
    ///
    /// # Panics
    ///
    /// As [`Self::forward`].
    pub fn forward_inference(&self, nodes: &Tensor, adjacency: &[Vec<usize>]) -> Tensor {
        self.pre_activation(nodes, adjacency).1.map(|v| v.max(0.0))
    }

    /// The neighbour aggregate and the pre-activation
    /// `W_self·x_v + W_neigh·mean(x_u) + b` of every node.
    fn pre_activation(&self, nodes: &Tensor, adjacency: &[Vec<usize>]) -> (Tensor, Tensor) {
        let n = nodes.shape()[0];
        assert_eq!(nodes.shape()[1], self.in_features, "input width mismatch");
        assert_eq!(adjacency.len(), n, "adjacency length must equal node count");
        for neigh in adjacency {
            for &u in neigh {
                assert!(u < n, "neighbour index {u} out of range");
            }
        }
        let agg = self.aggregate(nodes, adjacency);
        let self_term = nodes.matmul(&self.w_self.value.transposed());
        let neigh_term = agg.matmul(&self.w_neigh.value.transposed());
        let mut pre = &self_term + &neigh_term;
        for v in 0..n {
            for j in 0..self.out_features {
                let val = pre.at2(v, j) + self.bias.value.data()[j];
                pre.set2(v, j, val);
            }
        }
        (agg, pre)
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input node features.
    ///
    /// # Panics
    ///
    /// Panics if `forward` was not called first.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        // Borrow the cache field by field: the parameter gradients below
        // need `&mut` to the weights while the cache is only read.
        let Self {
            w_self,
            w_neigh,
            bias,
            in_features,
            out_features,
            cache,
        } = self;
        let cache = cache
            .as_ref()
            .expect("SageLayer::backward called before forward");
        let n = cache.input.shape()[0];
        // Through the ReLU.
        let mut dpre = grad_output.clone();
        for (g, &p) in dpre.data_mut().iter_mut().zip(cache.pre_activation.data()) {
            if p <= 0.0 {
                *g = 0.0;
            }
        }
        // Parameter gradients.
        let dw_self = dpre.transposed().matmul(&cache.input);
        let dw_neigh = dpre.transposed().matmul(&cache.aggregated);
        w_self.grad.add_scaled(&dw_self, 1.0);
        w_neigh.grad.add_scaled(&dw_neigh, 1.0);
        for v in 0..n {
            for j in 0..*out_features {
                bias.grad.data_mut()[j] += dpre.at2(v, j);
            }
        }
        // Input gradients: the self path plus the aggregation path.
        let mut grad_input = dpre.matmul(&w_self.value);
        let d_agg = dpre.matmul(&w_neigh.value);
        for (w, neigh) in cache.adjacency.iter().enumerate() {
            if neigh.is_empty() {
                continue;
            }
            let scale = 1.0 / neigh.len() as f64;
            for &u in neigh {
                for j in 0..*in_features {
                    let val = grad_input.at2(u, j) + d_agg.at2(w, j) * scale;
                    grad_input.set2(u, j, val);
                }
            }
        }
        grad_input
    }

    /// Mutable access to the layer's parameters.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_self, &mut self.w_neigh, &mut self.bias]
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.w_self.zero_grad();
        self.w_neigh.zero_grad();
        self.bias.zero_grad();
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.w_self.len() + self.w_neigh.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_adjacency(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect()
    }

    #[test]
    fn forward_shape_and_isolation() {
        let mut layer = SageLayer::new(4, 3, 5);
        let nodes = Tensor::from_vec((0..12).map(|i| i as f64 * 0.1).collect(), vec![3, 4]);
        let adj = vec![vec![], vec![], vec![]];
        let out = layer.forward(&nodes, &adj);
        assert_eq!(out.shape(), &[3, 3]);
        // With no neighbours, output depends only on the node's own features.
        let mut nodes2 = nodes.clone();
        nodes2.set2(2, 0, 99.0);
        let out2 = layer.forward(&nodes2, &adj);
        for j in 0..3 {
            assert!((out.at2(0, j) - out2.at2(0, j)).abs() < 1e-12);
        }
    }

    #[test]
    fn neighbours_influence_embeddings() {
        let mut layer = SageLayer::new(2, 2, 9);
        let nodes = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], vec![2, 2]);
        let isolated = layer.forward(&nodes, &[vec![], vec![]]);
        let connected = layer.forward(&nodes, &[vec![1], vec![0]]);
        let diff: f64 = isolated
            .data()
            .iter()
            .zip(connected.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-9, "neighbour features must change embeddings");
    }

    #[test]
    fn gradient_check_parameters_and_inputs() {
        let mut layer = SageLayer::new(3, 2, 21);
        let nodes = Tensor::from_vec(
            vec![
                0.5, -0.2, 0.3, 0.1, 0.4, -0.6, -0.1, 0.2, 0.7, 0.9, -0.3, 0.0,
            ],
            vec![4, 3],
        );
        let adj = chain_adjacency(4);
        let out = layer.forward(&nodes, &adj);
        let gin = layer.backward(&Tensor::ones(out.shape().to_vec()));
        let loss = |l: &SageLayer, x: &Tensor| l.forward_inference(x, &adj).sum();
        let eps = 1e-6;
        // Parameter gradients (sample a few indices from each matrix).
        for idx in [0usize, 2, 5] {
            let mut plus = layer.clone();
            plus.w_neigh.value.data_mut()[idx] += eps;
            let mut minus = layer.clone();
            minus.w_neigh.value.data_mut()[idx] -= eps;
            let numeric = (loss(&plus, &nodes) - loss(&minus, &nodes)) / (2.0 * eps);
            assert!(
                (numeric - layer.w_neigh.grad.data()[idx]).abs() < 1e-5,
                "w_neigh grad mismatch at {idx}"
            );
        }
        // Input gradients.
        for idx in [0usize, 4, 7, 11] {
            let mut xp = nodes.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = nodes.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            assert!(
                (numeric - gin.data()[idx]).abs() < 1e-5,
                "input grad mismatch at {idx}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "adjacency length")]
    fn adjacency_length_is_validated() {
        let mut layer = SageLayer::new(2, 2, 1);
        let nodes = Tensor::zeros(vec![3, 2]);
        let _ = layer.forward(&nodes, &[vec![], vec![]]);
    }
}
