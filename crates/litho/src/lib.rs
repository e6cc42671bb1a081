//! Lithography simulation substrate for CAMO-RS.
//!
//! The CAMO paper evaluates masks with a Calibre-compatible industrial
//! lithography simulator. That simulator is proprietary, so this crate
//! provides the closest open equivalent exercising the same code path:
//!
//! * a **partially-coherent optical model** approximated by a weighted sum of
//!   Gaussian kernels (a SOCS-style decomposition, [`kernel`]),
//! * an **aerial image** computed by separable convolution of the rasterised
//!   mask ([`aerial`]),
//! * a **sigmoid/threshold resist model** ([`resist`]),
//! * **process corners** (dose and defocus variation) and the **PV band**
//!   ([`process`], [`pvband`]),
//! * **EPE measurement** at standard measure points with sub-pixel contour
//!   localisation ([`epe`]),
//! * printed **contour extraction** ([`contour`]), and
//! * rule-based **SRAF insertion** ([`sraf`]) standing in for the
//!   Calibre-inserted assist features of the via-layer benchmarks.
//!
//! The facade type is [`LithoSimulator`]; OPC engines only consume its
//! [`SimulationResult`] (per-point EPE, total EPE, PV-band area), which is
//! exactly the information the paper's engines consume from Calibre.
//!
//! # Architecture: shared context, pooled workspaces, tiled layouts
//!
//! Simulation state is split along the mutability boundary:
//!
//! * [`LithoContext`] ([`context`]) is the **shared immutable** half: the
//!   configuration, the guard band, per-corner print thresholds and the
//!   kernel taps discretised for every process corner. It is built once per
//!   [`LithoConfig`] (inside [`LithoSimulator::new`]) and `Arc`-shared by
//!   every session, batch worker and thread — hot-path tap lookup is a
//!   plain immutable read, no locking, no interior mutability.
//! * [`SimWorkspace`] ([`pipeline`]) is the **mutable** half: the mask
//!   raster, convolution scratch and cached per-corner intensity images of
//!   one evaluation session. Workspaces are recycled through the
//!   simulator's [`WorkspacePool`] ([`pool`]): a session checks one out
//!   (fully reset, buffers reused), and returns it on drop. Checkout never
//!   blocks — an empty pool falls back to allocation — so a batch on `T`
//!   threads converges to `T` workspaces for any number of clips, and
//!   retention is bounded in count *and* bytes so burst load cannot pin
//!   layout-sized buffers forever.
//!
//! Long-lived serving processes pick simulators out of a [`ContextCache`]
//! ([`context_cache`]): an LRU keyed by [`LithoConfig::fingerprint`], so
//! every request under one process configuration shares one context and
//! one workspace pool across its whole lifetime. The same fingerprint is
//! the **routing key** of `camo-serve`'s multi-process shard tier: the
//! router ranks shards per fingerprint (rendezvous hashing), so each
//! configuration's requests land on one shard — each shard process owns
//! its own `ContextCache` and keeps a hot context for the configurations
//! routed to it.
//!
//! Evaluation itself is the scratch-buffer pipeline: masks are rasterised
//! *analytically* (exact per-pixel area coverage, no intermediate 1 nm
//! grid) and convolution is windowed over the mask content with a
//! branch-free interior; it skips the exact zeros beside each row's mask
//! content and in empty rows without changing a bit. The three kernels of
//! the separable convolution run hand-written AVX2 when the CPU has it and
//! their scalar bodies otherwise, bit-identically ([`simd_backend`] names
//! the path in use); everything else is plain Rust. OPC loops hold a
//! [`MaskEvaluator`] session
//! ([`LithoSimulator::evaluator`]): each [`MaskEvaluator::apply_moves`]
//! re-rasterises only the pixels the movements touched and re-convolves the
//! images the session has read over planned windows around them (padded by
//! the kernel support), allocation-free in the steady state and bit-for-bit
//! identical to full evaluation. The seed's original implementation is kept
//! under the `reference-impl` feature as `reference` for parity tests and
//! speedup tracking (`perf_snapshot`).
//!
//! On top of the session API, [`tiling`] scales to layouts larger than one
//! clip: a [`Tiler`] splits a layout mask into overlapping tile clips (a
//! pixel-aligned core grid grown by a guard-band halo), the tiles are swept
//! like any batch of clips, and [`tiling::evaluate_layout`] stitches the
//! per-tile EPE/PV-band results into a layout-level [`LayoutReport`] that
//! is **bit-identical** to whole-layout evaluation (see the module docs for
//! the invariants that make this exact rather than approximate).
//!
//! # Example
//!
//! ```
//! use camo_geometry::{Clip, Rect, FragmentationParams, MaskState};
//! use camo_litho::{LithoConfig, LithoSimulator};
//!
//! let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
//! clip.add_target(Rect::new(465, 465, 535, 535).to_polygon());
//! let mask = MaskState::from_clip(&clip, &FragmentationParams::via_layer());
//! let sim = LithoSimulator::new(LithoConfig::default());
//! let result = sim.evaluate(&mask);
//! assert_eq!(result.epe.per_point.len(), 4); // one EPE value per via edge
//! ```

pub mod aerial;
pub mod context;
pub mod context_cache;
pub mod contour;
pub mod epe;
pub mod evaluator;
pub mod kernel;
pub mod pipeline;
pub mod pool;
pub mod process;
pub mod pvband;
#[cfg(any(test, feature = "reference-impl"))]
pub mod reference;
pub mod resist;
mod simd;
pub mod simulator;
pub mod sraf;
pub mod tiling;
pub mod trace;

pub use aerial::rasterize_mask;
pub use context::LithoContext;
pub use context_cache::ContextCache;
pub use contour::{contour_cells, print_image};
pub use epe::{measure_epe, EpeReport};
pub use evaluator::{MaskEvaluator, RefreshStats};
pub use kernel::{GaussianKernel, OpticalModel};
pub use pipeline::{tap_derivation_count, SimWorkspace};
pub use pool::WorkspacePool;
pub use process::ProcessCorner;
pub use pvband::{pv_band_area, pv_band_area_in};
pub use resist::ResistModel;
pub use simd::backend as simd_backend;
pub use simulator::{LithoConfig, LithoSimulator, SimulationResult};
pub use sraf::{insert_srafs, SrafRules};
pub use tiling::{LayoutReport, LayoutTile, TileEvaluation, Tiler};
pub use trace::{NoopSink, TraceSink};
