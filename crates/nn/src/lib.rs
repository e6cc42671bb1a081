//! Minimal neural-network substrate for CAMO-RS.
//!
//! The CAMO paper implements its policy network in PyTorch. The network is
//! small (a feature encoder, a GraphSAGE fusion layer, a 3-layer RNN and a
//! linear head), so this crate provides a from-scratch, dependency-free
//! implementation with **manual reverse-mode backpropagation**:
//!
//! * [`Tensor`]: a dense row-major n-d array of `f64`,
//! * [`Param`]: a trainable tensor with an accumulated gradient,
//! * [`Linear`] and the [`Relu`] activation,
//! * [`softmax()`], [`log_softmax`] and [`cross_entropy_grad`],
//! * [`SageLayer`]: GraphSAGE mean-aggregation over an adjacency list,
//! * [`RnnStack`]: a multi-layer Elman RNN with backpropagation through time,
//! * [`Sgd`]: stochastic gradient descent with optional momentum.
//!
//! Every differentiable module exposes `forward`/`backward` pairs that cache
//! whatever the backward pass needs; gradient correctness is verified by
//! finite-difference tests in each module.
//!
//! # Example
//!
//! ```
//! use camo_nn::{Linear, Tensor, Sgd, Optimizer};
//!
//! let mut layer = Linear::new(4, 2, 42);
//! let x = Tensor::from_vec(vec![1.0, 0.5, -0.5, 2.0], vec![1, 4]);
//! let y = layer.forward(&x);
//! assert_eq!(y.shape(), &[1, 2]);
//! let grad = Tensor::ones(vec![1, 2]);
//! let _gx = layer.backward(&grad);
//! let mut opt = Sgd::new(0.01, 0.0);
//! opt.step(&mut layer.parameters_mut());
//! ```

pub mod activation;
pub mod init;
pub mod linear;
pub mod optim;
pub mod rnn;
pub mod sage;
pub mod softmax;
pub mod tensor;

pub use activation::Relu;
pub use init::xavier_uniform;
pub use linear::Linear;
pub use optim::{Optimizer, Sgd};
pub use rnn::RnnStack;
pub use sage::SageLayer;
pub use softmax::{cross_entropy_grad, log_softmax, softmax};
pub use tensor::{Param, Tensor};
