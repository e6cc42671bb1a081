//! Per-layer timing, measured from outside the program: a timing
//! [`TraceSink`] the litho pipeline reports its stages to, a replica of the
//! CAMO inference loop that times every public call it makes, and a wrapper
//! that stamps when each clip of a batch starts and ends.

use crate::stats::{median, Report};
use camo::engine::action_to_move;
use camo::CamoEngine;
use camo_baselines::{OpcEngine, OpcOutcome};
use camo_geometry::{Clip, Coord};
use camo_litho::trace::Stage;
use camo_litho::{LithoSimulator, TraceSink};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    /// Open stage spans of this thread: start instant and the time its
    /// nested spans took.
    static OPEN_STAGES: RefCell<Vec<(Instant, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Self time (nested stages subtracted) and calls per litho stage.
#[derive(Debug, Default)]
pub struct StageClock {
    self_ns: [AtomicU64; 5],
    calls: [AtomicU64; 5],
}

fn stage_index(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|&s| s == stage)
        .expect("Stage::ALL lists every stage")
}

impl TraceSink for StageClock {
    fn stage_start(&self, _stage: Stage) {
        OPEN_STAGES.with(|open| open.borrow_mut().push((Instant::now(), 0)));
    }

    fn stage_end(&self, stage: Stage) {
        let end = Instant::now();
        OPEN_STAGES.with(|open| {
            let mut open = open.borrow_mut();
            let Some((start, nested_ns)) = open.pop() else {
                return;
            };
            let total_ns = end.duration_since(start).as_nanos() as u64;
            if let Some(parent) = open.last_mut() {
                parent.1 += total_ns;
            }
            let i = stage_index(stage);
            self.self_ns[i].fetch_add(total_ns.saturating_sub(nested_ns), Relaxed);
            self.calls[i].fetch_add(1, Relaxed);
        });
    }
}

impl StageClock {
    /// `(self ns, calls)` per stage, in [`Stage::ALL`] order.
    pub fn snapshot(&self) -> [(u64, u64); 5] {
        std::array::from_fn(|i| (self.self_ns[i].load(Relaxed), self.calls[i].load(Relaxed)))
    }
}

/// The public calls the replica loop times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `CamoEngine::graph`.
    Graph,
    /// `LithoSimulator::evaluator` plus the first `MaskEvaluator::epe`.
    SessionOpen,
    /// `CamoEngine::node_features`.
    Features,
    /// `CamoPolicy::forward_inference`.
    Policy,
    /// `CamoEngine::decide`.
    Decide,
    /// `MaskEvaluator::apply_moves`.
    ApplyMoves,
    /// `MaskEvaluator::epe` after a step.
    StepEpe,
    /// `MaskEvaluator::evaluate` of the final mask.
    FinalEval,
    /// A whole clip, start to end.
    Clip,
}

const CALLS: usize = 9;

/// Counts the replica loop records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// OPC steps taken.
    Steps,
    /// Segments whose offset a step changed.
    SegmentMoves,
    /// Pixels re-rasterised by refreshes (`RefreshStats::rasterized_pixels`).
    RefreshPx,
    /// Pixels of the refreshes' dirty windows (`dirty_window_pixels`).
    WindowPx,
    /// Refreshes that rebuilt the whole raster.
    FullRefreshes,
}

const COUNTS: usize = 5;

/// Busy time per [`Call`] and totals per [`Count`], summed over threads.
#[derive(Debug, Default)]
struct CallClock {
    ns: [AtomicU64; CALLS],
    counts: [AtomicU64; COUNTS],
    /// Set when the side-call logits differ from `decide`'s.
    diverged: AtomicBool,
}

/// A [`CallClock`] reading: busy ns per call and the counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTotals {
    ns: [u64; CALLS],
    counts: [u64; COUNTS],
}

impl CallTotals {
    /// Busy milliseconds spent in `call`.
    pub fn ms(&self, call: Call) -> f64 {
        self.ns[call as usize] as f64 / 1e6
    }

    /// The total of `count`.
    pub fn count(&self, count: Count) -> f64 {
        self.counts[count as usize] as f64
    }

    /// Busy milliseconds of the top-level layer calls: every timed call
    /// except the clip span that encloses them.
    pub fn layer_ms(&self) -> f64 {
        [
            Call::Graph,
            Call::SessionOpen,
            Call::Features,
            Call::Policy,
            Call::Decide,
            Call::ApplyMoves,
            Call::StepEpe,
            Call::FinalEval,
        ]
        .iter()
        .map(|&c| self.ms(c))
        .sum()
    }
}

impl CallClock {
    fn time<T>(&self, call: Call, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns[call as usize].fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        out
    }

    fn add(&self, count: Count, n: usize) {
        self.counts[count as usize].fetch_add(n as u64, Relaxed);
    }

    fn totals(&self) -> CallTotals {
        CallTotals {
            ns: std::array::from_fn(|i| self.ns[i].load(Relaxed)),
            counts: std::array::from_fn(|i| self.counts[i].load(Relaxed)),
        }
    }
}

/// The CAMO inference loop of `CamoEngine::optimize`, driven call by call
/// from outside so each layer's public function can be timed.
///
/// Actions come from the real `CamoEngine::decide`. Feature extraction and
/// the policy forward pass run inside `decide`, where they cannot be timed
/// from outside, so the replica also calls them once more on the same
/// inputs and times those calls; that repeated work is part of the traced
/// run's slowdown. The traced outcomes must equal the untraced ones bit
/// for bit, or the run fails.
#[derive(Debug, Clone)]
pub struct TracedCamo {
    engine: CamoEngine,
    clock: Arc<CallClock>,
}

/// What the replica, the stage sink and the workspace pool recorded over
/// one unit of work: an OPC pass, or the recomputed requests of a phase.
#[derive(Debug, Clone, Copy)]
pub struct LayerSample {
    /// Busy time per call and the counts.
    pub calls: CallTotals,
    /// Set when a side call measured other logits than `decide` returned,
    /// i.e. the side calls did not time the work `decide` does.
    pub diverged: bool,
    stages: [(u64, u64); 5],
    pool_allocations: usize,
    pool_reuses: usize,
}

/// Runs `work` with a fresh replica of `engine` whose sessions open on
/// `sim` (which reports its stages to `stages`), and returns its result
/// with what the replica, the sink and `sim`'s pool recorded meanwhile.
pub fn traced<T>(
    engine: &CamoEngine,
    stages: &StageClock,
    sim: &LithoSimulator,
    work: impl FnOnce(&TracedCamo) -> T,
) -> (T, LayerSample) {
    let replica = TracedCamo {
        engine: engine.clone(),
        clock: Arc::default(),
    };
    let stages_before = stages.snapshot();
    let pool = sim.pool();
    let (allocations, reuses) = (pool.allocation_count(), pool.reuse_count());
    let out = work(&replica);
    let stages_after = stages.snapshot();
    let sample = LayerSample {
        calls: replica.clock.totals(),
        diverged: replica.clock.diverged.load(Relaxed),
        stages: std::array::from_fn(|i| {
            (
                stages_after[i].0 - stages_before[i].0,
                stages_after[i].1 - stages_before[i].1,
            )
        }),
        pool_allocations: pool.allocation_count() - allocations,
        pool_reuses: pool.reuse_count() - reuses,
    };
    (out, sample)
}

/// Pushes the `litho.*`, `geometry.*` and `core.*` metrics: per-sample
/// medians.
pub fn push_layer_metrics(report: &mut Report, samples: &[LayerSample]) {
    let med = |f: &dyn Fn(&LayerSample) -> f64| {
        median(&samples.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let ms = |name: &str, call: Call| (name.to_string(), med(&|s| s.calls.ms(call)), "ms");
    let count = |name: &str, c: Count| (name.to_string(), med(&|s| s.calls.count(c)), "count");
    let mut rows = vec![
        ms("litho.session_open_ms", Call::SessionOpen),
        ms("litho.apply_moves_ms", Call::ApplyMoves),
        ms("litho.step_epe_ms", Call::StepEpe),
        ms("litho.final_eval_ms", Call::FinalEval),
    ];
    for (i, stage) in Stage::ALL.iter().enumerate() {
        let name = stage.name();
        rows.push((
            format!("litho.stage.{name}_ms"),
            med(&|s| s.stages[i].0 as f64 / 1e6),
            "ms",
        ));
        rows.push((
            format!("litho.stage.{name}_calls"),
            med(&|s| s.stages[i].1 as f64),
            "count",
        ));
    }
    let refresh_px = med(&|s| s.calls.count(Count::RefreshPx));
    let window_px = med(&|s| s.calls.count(Count::WindowPx));
    let skip_ratio = if window_px > 0.0 {
        1.0 - refresh_px / window_px
    } else {
        0.0
    };
    rows.extend([
        ("litho.refresh_px".to_string(), refresh_px, "px"),
        ("litho.refresh_window_px".to_string(), window_px, "px"),
        ("litho.refresh_skip_ratio".to_string(), skip_ratio, "ratio"),
        count("litho.full_refreshes", Count::FullRefreshes),
        (
            "litho.pool_allocations".to_string(),
            med(&|s| s.pool_allocations as f64),
            "count",
        ),
        (
            "litho.pool_reuses".to_string(),
            med(&|s| s.pool_reuses as f64),
            "count",
        ),
        count("litho.steps", Count::Steps),
        count("litho.segment_moves", Count::SegmentMoves),
        ms("geometry.features_ms", Call::Features),
        ms("core.graph_ms", Call::Graph),
        ms("core.policy_ms", Call::Policy),
        ms("core.decide_ms", Call::Decide),
    ]);
    for (name, value, unit) in rows {
        report.push(name, value, unit);
    }
}

impl OpcEngine for TracedCamo {
    fn name(&self) -> &str {
        "CAMO (traced replica)"
    }

    fn optimize(&mut self, clip: &Clip, simulator: &LithoSimulator) -> OpcOutcome {
        let start = Instant::now();
        let (engine, clock) = (&self.engine, &*self.clock);
        let opc = engine.opc_config();
        let mask = opc.initial_mask(clip);
        let graph = clock.time(Call::Graph, || engine.graph(&mask));
        let (mut eval, mut epe) = clock.time(Call::SessionOpen, || {
            let mut eval = simulator.evaluator(&mask);
            let epe = eval.epe();
            (eval, epe)
        });
        let mut trajectory = vec![epe.total_abs()];
        let mut steps = 0;
        for _ in 0..opc.max_steps {
            if opc.early_exit(epe.mean_abs()) {
                break;
            }
            let features = clock.time(Call::Features, || engine.node_features(eval.mask()));
            let logits = clock.time(Call::Policy, || {
                engine
                    .policy()
                    .forward_inference(&features, graph.adjacency())
            });
            let decisions = clock.time(Call::Decide, || {
                engine.decide(eval.mask(), &graph, &epe, None)
            });
            let same = decisions.len() == logits.len()
                && decisions.iter().zip(&logits).all(|((_, a), b)| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                });
            if !same {
                clock.diverged.store(true, Relaxed);
            }
            let moves: Vec<Coord> = decisions.iter().map(|(a, _)| action_to_move(*a)).collect();
            let before = eval.mask().offsets().to_vec();
            clock.time(Call::ApplyMoves, || eval.apply_moves(&moves));
            let moved = before
                .iter()
                .zip(eval.mask().offsets())
                .filter(|(a, b)| a != b)
                .count();
            if moved > 0 {
                let stats = eval.last_refresh_stats();
                clock.add(Count::SegmentMoves, moved);
                clock.add(Count::RefreshPx, stats.rasterized_pixels);
                clock.add(Count::WindowPx, stats.dirty_window_pixels);
                clock.add(Count::FullRefreshes, usize::from(stats.full));
            }
            epe = clock.time(Call::StepEpe, || eval.epe());
            trajectory.push(epe.total_abs());
            steps += 1;
        }
        let result = clock.time(Call::FinalEval, || eval.evaluate());
        clock.add(Count::Steps, steps);
        let runtime = start.elapsed();
        clock.ns[Call::Clip as usize].fetch_add(runtime.as_nanos() as u64, Relaxed);
        OpcOutcome {
            mask: eval.into_mask(),
            result,
            steps,
            runtime,
            epe_trajectory: trajectory,
        }
    }
}

/// Wraps an engine and logs when each clip started and finished, relative
/// to the start of the batch.
#[derive(Debug, Clone)]
pub struct Stamped<E> {
    inner: E,
    epoch: Instant,
    log: Arc<Mutex<Vec<(Duration, Duration)>>>,
}

impl<E> Stamped<E> {
    /// Stamps relative to now.
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            epoch: Instant::now(),
            log: Arc::default(),
        }
    }

    /// `(start, end)` of every finished clip, in finishing order.
    pub fn stamps(&self) -> Vec<(Duration, Duration)> {
        self.log.lock().expect("stamp log poisoned").clone()
    }
}

impl<E: OpcEngine> OpcEngine for Stamped<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn optimize(&mut self, clip: &Clip, simulator: &LithoSimulator) -> OpcOutcome {
        let start = self.epoch.elapsed();
        let outcome = self.inner.optimize(clip, simulator);
        let end = self.epoch.elapsed();
        self.log
            .lock()
            .expect("stamp log poisoned")
            .push((start, end));
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_litho::trace::StageSpan;

    #[test]
    fn stage_clock_subtracts_nested_spans() {
        let clock = StageClock::default();
        {
            let _outer = StageSpan::enter(&clock, Stage::Epe);
            std::thread::sleep(Duration::from_millis(20));
            let _inner = StageSpan::enter(&clock, Stage::Convolve);
            std::thread::sleep(Duration::from_millis(20));
        }
        let snap = clock.snapshot();
        let (epe_ns, epe_calls) = snap[stage_index(Stage::Epe)];
        let (conv_ns, conv_calls) = snap[stage_index(Stage::Convolve)];
        assert_eq!((epe_calls, conv_calls), (1, 1));
        assert!(conv_ns >= 20_000_000 && epe_ns >= 20_000_000);
        // Unsubtracted, the outer span would read at least conv + 20 ms.
        assert!(epe_ns < conv_ns + 20_000_000, "{epe_ns} vs {conv_ns}");
    }
}
