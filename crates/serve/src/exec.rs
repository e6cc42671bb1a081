//! Request execution: specs → engines/simulators → batch runtime calls.
//!
//! This module is the single place where wire specs are materialised into
//! concrete engines and where coalesced batches hit `camo-runtime`. The
//! server dispatcher and the offline verifier (`camo-client --verify`, the
//! end-to-end identity tests) both call these functions, so "server result
//! == offline result" reduces to the runtime's own determinism contract:
//! engines are rebuilt identically from the same [`JobSpec`], simulators
//! share one [`camo_litho::LithoContext`] per configuration, and
//! [`optimize_batch`]/[`sweep_cases`]/[`evaluate_layout`] are bit-identical
//! to serial loops at any thread count.
//!
//! # Coalescing
//!
//! Two queued requests are **compatible** when [`coalesce_key`] returns the
//! same key: same request kind, same lithography fingerprint and (for
//! optimization) the same engine/step specification. The dispatcher merges
//! compatible single-clip requests into one `optimize_batch` /
//! `parallel_map` call, so a burst of small requests shares one context
//! lookup and one worker-pool fan-out instead of paying per-request setup.

use crate::wire::{EngineKind, JobSpec, Layer, LithoSpec, RequestBody, ResponseBody, WireOutcome};
use camo::{CamoConfig, CamoEngine};
use camo_baselines::{CalibreLikeOpc, OpcConfig, OpcOutcome};
use camo_geometry::{Clip, Coord, MaskState};
use camo_litho::{LithoSimulator, SimulationResult, Tiler};
use camo_runtime::{evaluate_layout, optimize_batch, parallel_map, sweep_cases};
use camo_workloads::generate_layout;

/// The OPC layer presets a [`Layer`] names.
impl Layer {
    /// The OPC schedule for this layer.
    pub fn opc_config(self) -> OpcConfig {
        match self {
            Self::Via => OpcConfig::via_layer(),
            Self::Metal => OpcConfig::metal_layer(),
        }
    }
}

impl JobSpec {
    /// The concrete OPC configuration (layer preset plus step override).
    pub fn opc_config(&self) -> OpcConfig {
        let mut opc = self.layer.opc_config();
        if let Some(steps) = self.max_steps {
            opc.max_steps = steps;
        }
        opc
    }
}

/// A concrete engine built from a [`JobSpec`] — an enum rather than a trait
/// object because the batch runtime needs `Clone + Sync`.
#[derive(Debug, Clone)]
pub enum Engine {
    /// Calibre-like damped feedback.
    Calibre(CalibreLikeOpc),
    /// The CAMO policy engine (fast configuration).
    Camo(Box<CamoEngine>),
}

/// Builds the engine a [`JobSpec`] describes. Deterministic: the same spec
/// always yields a bit-identical engine (CAMO policies initialise from the
/// spec's seed).
pub fn build_engine(job: &JobSpec) -> Engine {
    let opc = job.opc_config();
    match job.engine {
        EngineKind::Calibre => Engine::Calibre(CalibreLikeOpc::new(opc)),
        EngineKind::Camo { seed } => {
            let config = CamoConfig {
                seed,
                ..CamoConfig::fast()
            };
            Engine::Camo(Box::new(CamoEngine::new(opc, config)))
        }
    }
}

/// Optimises `clips` with the engine `job` describes, on up to `threads`
/// pool threads — exactly what an offline caller gets from
/// [`optimize_batch`] with the same spec.
pub fn run_optimize(
    job: &JobSpec,
    clips: &[Clip],
    sim: &LithoSimulator,
    threads: usize,
) -> Vec<OpcOutcome> {
    match build_engine(job) {
        Engine::Calibre(engine) => optimize_batch(&engine, clips, sim, threads),
        Engine::Camo(engine) => optimize_batch(&*engine, clips, sim, threads),
    }
}

/// Optimises named cases as one sweep (see [`sweep_cases`]).
pub fn run_sweep(
    job: &JobSpec,
    cases: &[(String, Clip)],
    sim: &LithoSimulator,
    threads: usize,
) -> Vec<(String, OpcOutcome)> {
    match build_engine(job) {
        Engine::Calibre(engine) => sweep_cases(&engine, cases, sim, threads),
        Engine::Camo(engine) => sweep_cases(&*engine, cases, sim, threads),
    }
}

/// Builds the initial mask an evaluate request describes: the layer's
/// fragmentation plus a uniform outward bias.
pub fn evaluate_mask(layer: Layer, bias: Coord, clip: &Clip) -> MaskState {
    let mut mask = MaskState::from_clip(clip, &layer.opc_config().fragmentation);
    mask.apply_uniform_bias(bias);
    mask
}

/// Evaluates a batch of `(layer, bias, clip)` probes on the pool.
pub fn run_evaluate(
    probes: &[(Layer, Coord, Clip)],
    sim: &LithoSimulator,
    threads: usize,
) -> Vec<SimulationResult> {
    parallel_map(threads, probes, |_, (layer, bias, clip)| {
        sim.evaluate(&evaluate_mask(*layer, *bias, clip))
    })
}

/// Tiled layout evaluation: generates the layout deterministically from
/// `(params, seed)` and sweeps its tiles (see [`evaluate_layout`]).
pub fn run_layout(
    params: &camo_workloads::LayoutParams,
    seed: u64,
    tile_nm: Coord,
    sim: &LithoSimulator,
    threads: usize,
) -> camo_litho::LayoutReport {
    let case = generate_layout(format!("serve{seed}"), params, seed);
    let mask = case.initial_mask();
    evaluate_layout(sim, &mask, &Tiler::new(tile_nm), threads)
}

/// Converts a runtime outcome into its wire form (the bits the identity
/// tests diff).
pub fn wire_outcome(outcome: &OpcOutcome) -> WireOutcome {
    WireOutcome {
        offsets: outcome.mask.offsets().to_vec(),
        epe_per_point: outcome.result.epe.per_point.clone(),
        pv_band: outcome.result.pv_band,
        steps: outcome.steps,
    }
}

/// Converts a simulation result into the evaluation response body.
pub fn wire_evaluation(result: &SimulationResult) -> ResponseBody {
    ResponseBody::Evaluation {
        epe_per_point: result.epe.per_point.clone(),
        pv_band: result.pv_band,
    }
}

/// The key under which requests may share one batch execution. `None` for
/// kinds that never coalesce (sweep and layout execute as their own batch;
/// ping/metrics/restart/shutdown/hello never reach the dispatcher).
pub fn coalesce_key(body: &RequestBody) -> Option<CoalesceKey> {
    match body {
        RequestBody::Optimize { job, .. } => Some(CoalesceKey {
            kind: "optimize",
            litho_fp: job.litho.to_config().fingerprint(),
            job: Some(job.clone()),
        }),
        RequestBody::Evaluate { litho, .. } => Some(CoalesceKey {
            kind: "evaluate",
            litho_fp: litho.to_config().fingerprint(),
            job: None,
        }),
        _ => None,
    }
}

/// See [`coalesce_key`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalesceKey {
    kind: &'static str,
    litho_fp: u64,
    job: Option<JobSpec>,
}

/// Maps a generated workload case ([`camo_workloads::ServeCase`]) onto a
/// wire request body under `job`'s configuration — shared by the
/// `camo-client` load generator and the bench harness.
pub fn case_body(case: &camo_workloads::ServeCase, job: &JobSpec) -> RequestBody {
    use camo_workloads::ServeCase;
    match case {
        ServeCase::Optimize { clip } => RequestBody::Optimize {
            job: job.clone(),
            clip: clip.clone(),
        },
        ServeCase::Evaluate { clip, bias } => RequestBody::Evaluate {
            litho: job.litho.clone(),
            layer: job.layer,
            bias: *bias,
            clip: clip.clone(),
        },
        ServeCase::Sweep { cases } => RequestBody::Sweep {
            job: job.clone(),
            cases: cases.clone(),
        },
        ServeCase::Layout {
            params,
            seed,
            tile_nm,
        } => RequestBody::Layout {
            litho: job.litho.clone(),
            params: params.clone(),
            seed: *seed,
            tile_nm: *tile_nm,
        },
    }
}

/// The lithography spec a request runs under (`None` for the control
/// kinds: ping, metrics, trace, restart, shutdown, hello).
pub fn litho_spec(body: &RequestBody) -> Option<&LithoSpec> {
    match body {
        RequestBody::Optimize { job, .. } | RequestBody::Sweep { job, .. } => Some(&job.litho),
        RequestBody::Evaluate { litho, .. } | RequestBody::Layout { litho, .. } => Some(litho),
        RequestBody::Ping
        | RequestBody::Metrics
        | RequestBody::Trace
        | RequestBody::Restart { .. }
        | RequestBody::Shutdown
        | RequestBody::Hello { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_geometry::Rect;

    fn clip() -> Clip {
        let mut c = Clip::with_name(Rect::new(0, 0, 800, 800), "t");
        c.add_target(Rect::new(365, 365, 435, 435).to_polygon());
        c
    }

    #[test]
    fn coalesce_keys_separate_incompatible_jobs() {
        let a = RequestBody::Optimize {
            job: JobSpec::fast_calibre_via(),
            clip: clip(),
        };
        let b = RequestBody::Optimize {
            job: JobSpec {
                max_steps: Some(1),
                ..JobSpec::fast_calibre_via()
            },
            clip: clip(),
        };
        let c = RequestBody::Evaluate {
            litho: LithoSpec::fast(),
            layer: Layer::Via,
            bias: 3,
            clip: clip(),
        };
        assert_eq!(coalesce_key(&a), coalesce_key(&a.clone()));
        assert_ne!(coalesce_key(&a), coalesce_key(&b));
        assert_ne!(coalesce_key(&a), coalesce_key(&c));
        // Evaluate requests coalesce across layers/biases: only the litho
        // configuration must match.
        let d = RequestBody::Evaluate {
            litho: LithoSpec::fast(),
            layer: Layer::Metal,
            bias: 0,
            clip: clip(),
        };
        assert_eq!(coalesce_key(&c), coalesce_key(&d));
        assert_eq!(coalesce_key(&RequestBody::Ping), None);
    }

    #[test]
    fn engines_rebuild_deterministically() {
        let job = JobSpec {
            engine: EngineKind::Camo { seed: 11 },
            max_steps: Some(2),
            ..JobSpec::fast_calibre_via()
        };
        let sim = LithoSimulator::new(job.litho.to_config());
        let a = run_optimize(&job, &[clip()], &sim, 1);
        let b = run_optimize(&job, &[clip()], &sim, 1);
        assert_eq!(a[0].mask.offsets(), b[0].mask.offsets());
        assert_eq!(a[0].result.pv_band.to_bits(), b[0].result.pv_band.to_bits());
    }
}
