//! Baseline OPC engines for CAMO-RS.
//!
//! The paper compares CAMO against three engines; each has an equivalent
//! here, built on the same geometry / lithography substrate so that the
//! comparison isolates the optimisation strategy:
//!
//! * [`CalibreLikeOpc`] — a damped EPE-feedback, model-based iterative OPC
//!   loop, the standard algorithm behind commercial engines. It doubles as
//!   the Phase-1 imitation teacher for CAMO.
//! * [`DamoLikeOpc`] — a one-shot corrector standing in for the DAMO
//!   generative model: a single correction is computed from the initial EPE
//!   using a gain fitted on the training set, with no iterative feedback.
//! * [`RlOpc`] — the RL-OPC baseline (Liang et al., TCAD'23): a per-segment
//!   policy over the same five movements trained with REINFORCE, but without
//!   graph feature fusion, without the RNN, and without the modulator.
//!
//! All engines implement the [`OpcEngine`] trait and produce an
//! [`OpcOutcome`] carrying the final mask, its evaluation and the per-step
//! EPE trajectory — the quality columns of Tables 1 and 2. The iterative
//! engines (Calibre-like, RL-OPC and CAMO) differ only in how they choose
//! each step's movements: they share one step loop,
//! [`OpcConfig::run_steps`], one REINFORCE rollout for training,
//! [`OpcConfig::rollout`], and one action table ([`MAX_MOVE`],
//! [`ACTION_COUNT`], [`action_to_move`], [`move_to_action`]). Engines never
//! read the clock; the benchmark harness times each call.
//!
//! # Example
//!
//! ```
//! use camo_baselines::{CalibreLikeOpc, OpcConfig, OpcEngine};
//! use camo_geometry::{Clip, Rect};
//! use camo_litho::{LithoConfig, LithoSimulator};
//!
//! let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
//! clip.add_target(Rect::new(465, 465, 535, 535).to_polygon());
//! let sim = LithoSimulator::new(LithoConfig::fast());
//! let mut engine = CalibreLikeOpc::new(OpcConfig::via_layer());
//! let outcome = engine.optimize(&clip, &sim);
//! assert!(outcome.result.total_epe().is_finite());
//! ```

pub mod calibre_like;
pub mod damo_like;
pub mod engine;
pub mod ilt;
pub mod rl_opc;

pub use calibre_like::CalibreLikeOpc;
pub use damo_like::DamoLikeOpc;
pub use engine::{
    action_to_move, move_to_action, OpcConfig, OpcEngine, OpcOutcome, ACTION_COUNT, MAX_MOVE,
};
pub use ilt::PixelIlt;
pub use rl_opc::{RlOpc, RlOpcConfig};
