//! Reinforcement-learning substrate for CAMO-RS.
//!
//! Both CAMO and the RL-OPC baseline are policy-gradient agents in the sense
//! of Williams' REINFORCE. This crate collects the algorithm-level pieces
//! that are independent of any particular policy network:
//!
//! * the OPC improvement [`reward`] of Eq. (3) of the paper,
//! * [`Trajectory`] recording and discounted-return computation,
//! * the [`reinforce`] coefficient calculation (return × log-prob gradient),
//! * shared action [`sampling`] and the `(seed, episode)` RNG-derivation
//!   contract that keeps parallel and serial training bit-identical.
//!
//! The episode loop itself is `camo_baselines::OpcConfig::rollout`, shared
//! by both agents' trainers.
//!
//! # Example
//!
//! ```
//! use camo_rl::{RewardConfig, Trajectory};
//!
//! let cfg = RewardConfig::default();
//! let r = cfg.reward(100.0, 80.0, 5000.0, 4900.0);
//! assert!(r > 0.0); // both EPE and PV band improved
//!
//! let mut traj = Trajectory::new();
//! traj.push(0.5);
//! traj.push(1.0);
//! let returns = traj.discounted_returns(0.9);
//! assert_eq!(returns.len(), 2);
//! ```

pub mod reinforce;
pub mod reward;
pub mod sampling;
pub mod trajectory;

pub use reinforce::{normalize_returns, reinforce_coefficients, ReinforceConfig};
pub use reward::RewardConfig;
pub use sampling::{argmax, episode_rng, episode_seed, sample_index};
pub use trajectory::Trajectory;
