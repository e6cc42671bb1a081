//! Request execution: specs → engines/simulators → tasks.
//!
//! This module is the single place where wire specs are materialised into
//! concrete engines and simulators. The server runs each request as the
//! tasks of its `Plan`: one per optimize clip, sweep case, evaluate probe
//! or layout tile. Each task is the per-item body of a `camo-runtime` batch
//! call — `engine.clone().optimize(clip, sim)` as in [`optimize_batch`] and
//! [`sweep_cases`], `sim.evaluate(..)` of the [`evaluate_mask`], and
//! [`evaluate_tile`] followed by one [`stitch_layout`] as in
//! [`evaluate_layout`]. The offline verifier (`camo-client --verify`, the
//! end-to-end identity tests) calls those batch functions through
//! [`run_optimize`]/[`run_sweep`]/[`run_layout`], so "server result ==
//! offline result" reduces to the runtime's own determinism contract:
//! engines are rebuilt identically from the same [`JobSpec`], simulators
//! share one [`camo_litho::LithoContext`] per configuration, and the batch
//! calls are bit-identical to serial loops at any thread count.

use crate::wire::{EngineKind, JobSpec, Layer, LithoSpec, RequestBody, ResponseBody, WireOutcome};
use camo::{CamoConfig, CamoEngine};
use camo_baselines::{CalibreLikeOpc, OpcConfig, OpcEngine, OpcOutcome};
use camo_geometry::{Clip, Coord, MaskState};
use camo_litho::tiling::{evaluate_tile, stitch_layout, tile_layout, LayoutTile, TileEvaluation};
use camo_litho::{LithoSimulator, SimulationResult, Tiler};
use camo_runtime::{evaluate_layout, optimize_batch, sweep_cases};
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

impl Engine {
    /// Optimises `clip` on a fresh clone of this engine: the per-clip body
    /// of [`optimize_batch`].
    fn optimize(&self, clip: &Clip, sim: &LithoSimulator) -> OpcOutcome {
        match self {
            Self::Calibre(engine) => engine.clone().optimize(clip, sim),
            Self::Camo(engine) => CamoEngine::clone(engine).optimize(clip, sim),
        }
    }
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

/// The layout mask a layout request describes, generated deterministically
/// from `(params, seed)`.
fn layout_mask(params: &camo_workloads::LayoutParams, seed: u64) -> MaskState {
    generate_layout(format!("serve{seed}"), params, seed).initial_mask()
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
    let mask = layout_mask(params, seed);
    evaluate_layout(sim, &mask, &Tiler::new(tile_nm), threads)
}

/// A request split into independent tasks, all on one simulator. Optimize
/// and evaluate requests are one task, a sweep one per case and a layout
/// one per tile; every method takes the request body the plan was made
/// from.
pub(crate) struct Plan {
    sim: LithoSimulator,
    /// A layout request's mask and tiles (the tiles are its tasks).
    layout: Option<(MaskState, Vec<LayoutTile>)>,
}

/// What one task leaves for its request's response.
pub(crate) enum Output {
    /// A finished response frame: an optimize or evaluate result, or one
    /// sweep case.
    Frame(ResponseBody),
    /// A layout tile, stitched once every tile is in.
    Tile(TileEvaluation),
}

impl Plan {
    /// Plans `body` on `sim`, the simulator of its lithography spec. A
    /// layout is generated and tiled here.
    pub(crate) fn new(body: &RequestBody, sim: LithoSimulator) -> Self {
        let layout = match body {
            RequestBody::Layout {
                params,
                seed,
                tile_nm,
                ..
            } => {
                let mask = layout_mask(params, *seed);
                let tiles = tile_layout(&mask, sim.config(), &Tiler::new(*tile_nm));
                Some((mask, tiles))
            }
            _ => None,
        };
        Self { sim, layout }
    }

    /// How many tasks the request runs as.
    pub(crate) fn tasks(&self, body: &RequestBody) -> usize {
        match (body, &self.layout) {
            (RequestBody::Sweep { cases, .. }, _) => cases.len(),
            (_, Some((_, tiles))) => tiles.len(),
            _ => 1,
        }
    }

    /// Runs task `index`, building its engine through `engines`.
    pub(crate) fn run(&self, body: &RequestBody, index: usize, engines: &mut EngineMemo) -> Output {
        if let Some((_, tiles)) = &self.layout {
            return Output::Tile(evaluate_tile(&self.sim, &tiles[index]));
        }
        Output::Frame(match body {
            RequestBody::Optimize { job, clip } => {
                ResponseBody::Outcome(wire_outcome(&engines.get(job).optimize(clip, &self.sim)))
            }
            RequestBody::Sweep { job, cases } => {
                let (name, clip) = &cases[index];
                let outcome = engines.get(job).optimize(clip, &self.sim);
                ResponseBody::CaseOutcome {
                    index,
                    total: cases.len(),
                    name: name.clone(),
                    outcome: wire_outcome(&outcome),
                }
            }
            RequestBody::Evaluate {
                layer, bias, clip, ..
            } => wire_evaluation(&self.sim.evaluate(&evaluate_mask(*layer, *bias, clip))),
            _ => unreachable!("layouts run as tiles; control kinds are answered by the reader"),
        })
    }

    /// The response frames of a request whose tasks left `outputs`, in task
    /// order: the task frames as they are, or a layout's stitched report.
    pub(crate) fn finish(&self, outputs: Vec<Output>) -> Vec<ResponseBody> {
        let (mut frames, mut evals) = (Vec::new(), Vec::new());
        for output in outputs {
            match output {
                Output::Frame(body) => frames.push(body),
                Output::Tile(eval) => evals.push(eval),
            }
        }
        if let Some((mask, tiles)) = &self.layout {
            let report = stitch_layout(mask, tiles, &evals, self.sim.config().epe_search_range);
            frames.push(ResponseBody::LayoutReport {
                tiles: report.tiles,
                epe_per_point: report.epe.per_point,
                pv_band: report.pv_band,
            });
        }
        frames
    }
}

/// One worker's last built engine, keyed by its spec. A rebuild from the
/// same spec is bit-identical ([`build_engine`]), so reusing the last build
/// is safe, and consecutive tasks of one spec build it once.
#[derive(Default)]
pub(crate) struct EngineMemo(Option<(JobSpec, Engine)>);

impl EngineMemo {
    fn get(&mut self, job: &JobSpec) -> &Engine {
        if self.0.as_ref().is_some_and(|(spec, _)| spec != job) {
            self.0 = None;
        }
        let (_, engine) = self
            .0
            .get_or_insert_with(|| (job.clone(), build_engine(job)));
        engine
    }
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

    /// A sweep plan's tasks, run one by one in reverse order through one
    /// engine memo shared across job specs, finish into the frames of the
    /// batch call, bit for bit.
    #[test]
    fn planned_sweep_tasks_reproduce_the_batch_call() {
        let calibre = JobSpec {
            max_steps: Some(2),
            ..JobSpec::fast_calibre_via()
        };
        let camo = JobSpec {
            engine: EngineKind::Camo { seed: 5 },
            ..calibre.clone()
        };
        let sim = LithoSimulator::new(calibre.litho.to_config());
        let cases: Vec<(String, Clip)> = camo_workloads::via_test_set()
            .iter()
            .take(3)
            .map(|c| (c.clip.name().to_string(), c.clip.clone()))
            .collect();
        let mut engines = EngineMemo::default();
        for job in [&calibre, &camo, &calibre] {
            let body = RequestBody::Sweep {
                job: job.clone(),
                cases: cases.clone(),
            };
            let plan = Plan::new(&body, sim.clone());
            assert_eq!(plan.tasks(&body), cases.len());
            let mut outputs: Vec<Output> = (0..cases.len())
                .rev()
                .map(|index| plan.run(&body, index, &mut engines))
                .collect();
            outputs.reverse();
            let frames = plan.finish(outputs);
            let offline = run_sweep(job, &cases, &sim, 2);
            assert_eq!(frames.len(), offline.len());
            for (index, (frame, (name, outcome))) in frames.iter().zip(&offline).enumerate() {
                let ResponseBody::CaseOutcome {
                    index: got_index,
                    total,
                    name: got_name,
                    outcome: wire,
                } = frame
                else {
                    panic!("unexpected frame {frame:?}");
                };
                assert_eq!((*got_index, *total, got_name), (index, cases.len(), name));
                let expected = wire_outcome(outcome);
                assert_eq!(
                    (&wire.offsets, wire.steps),
                    (&expected.offsets, expected.steps)
                );
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&wire.epe_per_point), bits(&expected.epe_per_point));
                assert_eq!(wire.pv_band.to_bits(), expected.pv_band.to_bits());
            }
        }
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
