//! Deterministic parallel batch runtime for CAMO-RS.
//!
//! Every benchmark table, training epoch and workload sweep in this
//! workspace iterates over a set of independent clips, and each clip's
//! [`MaskEvaluator`](camo_litho::MaskEvaluator) session is self-contained —
//! multi-clip parallelism is therefore the cheapest large speedup
//! available. This crate provides it without sacrificing reproducibility:
//!
//! * [`pool`] — a hand-rolled scoped worker pool on `std::thread` (the
//!   build is offline, so no `rayon`), exposing [`scope`] and
//!   [`parallel_map`] with dynamic work claiming but input-ordered results;
//! * [`batch`] — [`optimize_batch`] / [`sweep_cases`] for multi-clip
//!   inference, and [`imitation_epoch`] / [`reinforce_epoch`] / [`train`]
//!   for training with per-clip episodes computed concurrently;
//! * [`layout`] — [`evaluate_layout`] / [`sweep_layout`] for layouts larger
//!   than one clip, tiled by [`camo_litho::tiling`] and swept as an
//!   ordinary clip batch;
//! * [`queue`] — a bounded MPMC [`BoundedQueue`] whose `try_push` is the
//!   backpressure primitive long-lived front-ends build *reject with
//!   retry-after* on, and whose close-then-drain semantics make graceful
//!   shutdown possible (the request queue `camo-serve`'s workers pop).
//!
//! Every clip (or tile) in a batch shares one immutable
//! [`camo_litho::LithoContext`] — kernel taps are derived once per
//! configuration, never per clip — and scratch buffers come from the
//! simulator's [`camo_litho::WorkspacePool`], so a sweep holds at most one
//! workspace per live session regardless of batch size.
//!
//! # Determinism contract
//!
//! Results are **bit-identical to the serial path at any thread count**,
//! property-tested in `tests/properties.rs`:
//!
//! * inference engines decide greedily and are cloned per clip, so no state
//!   crosses clips;
//! * training episodes sample from generators derived from
//!   `(seed, epoch, clip_index)` (see `CamoConfig::seed`) instead of one
//!   mutable stream threaded across clips;
//! * epoch gradients are reduced in clip order on the caller's thread, so
//!   floating-point summation order never depends on scheduling.
//!
//! ```
//! use camo::{CamoConfig, CamoEngine};
//! use camo_baselines::OpcConfig;
//! use camo_geometry::{Clip, Rect};
//! use camo_litho::{LithoConfig, LithoSimulator};
//! use camo_runtime::optimize_batch;
//!
//! let clips: Vec<Clip> = (0..3)
//!     .map(|i| {
//!         let mut clip = Clip::new(Rect::new(0, 0, 800, 800));
//!         let x = 305 + 30 * i;
//!         clip.add_target(Rect::new(x, 365, x + 70, 435).to_polygon());
//!         clip
//!     })
//!     .collect();
//! let simulator = LithoSimulator::new(LithoConfig::fast());
//! let mut opc = OpcConfig::via_layer();
//! opc.max_steps = 2;
//! let engine = CamoEngine::new(opc, CamoConfig::fast());
//!
//! let outcomes = optimize_batch(&engine, &clips, &simulator, 2);
//! assert_eq!(outcomes.len(), clips.len());
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod layout;
pub mod pool;
pub mod queue;

pub use batch::{
    imitation_epoch, optimize_batch, reinforce_epoch, reinforce_epoch_at, sweep_cases, train,
};
pub use layout::{evaluate_layout, sweep_layout};
pub use pool::{available_threads, parallel_map, scope, Scope};
pub use queue::{BoundedQueue, PushError};
