//! The batch workloads `opc_via` and `opc_metal`: the served CAMO engine
//! optimises a seeded paper suite at paper litho (px5) through
//! `camo_runtime::optimize_batch` at two threads, in repeated passes.

use crate::layers::{push_layer_metrics, traced, Call, LayerSample, StageClock, Stamped};
use crate::serve::{outcome_matches, same_bits, Conn, ServeSample, Server};
use crate::stats::{median, peak_rss_mib, slot_quantile, Digest, Report};
use crate::suites::{camo_engine, metal_suite, paper_job, via_suite, THREADS};
use camo::CamoEngine;
use camo_baselines::{OpcEngine, OpcOutcome};
use camo_geometry::Clip;
use camo_litho::{LithoSimulator, SimulationResult};
use camo_runtime::optimize_batch;
use camo_serve::client::Completed;
use camo_serve::exec::evaluate_mask;
use camo_serve::wire::{JobSpec, Layer, RequestBody, ResponseBody};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed passes per run.
const MIN_PASSES: usize = 3;
/// Fewest sign-off evaluations per run, so that every clip's fastest
/// sign-off is taken over about 20 repeats even when a run fits only a few
/// passes (metal). They keep pace with the clock, so they are spread over
/// the whole run rather than bunched at its end.
const MIN_SIGNOFFS: usize = 200;

/// Everything one pass needs.
struct Setup {
    clips: Vec<Clip>,
    engine: CamoEngine,
    sim: LithoSimulator,
}

/// Builds the suite, the engine `serve` would build and the simulator,
/// then optimises one clip per worker thread as a discarded warm-up so
/// every thread has a pooled workspace before timing starts.
fn set_up(layer: Layer, seed: u64, job: &JobSpec) -> (Setup, f64) {
    let start = Instant::now();
    let clips = match layer {
        Layer::Via => via_suite(seed, &job.litho),
        Layer::Metal => metal_suite(seed, &job.litho),
    };
    let engine = camo_engine(job);
    let sim = LithoSimulator::new(job.litho.to_config());
    let warm = &clips[..THREADS.min(clips.len())];
    std::hint::black_box(optimize_batch(&engine, warm, &sim, THREADS));
    (Setup { clips, engine, sim }, start.elapsed().as_secs_f64())
}

fn same_result(a: &SimulationResult, b: &SimulationResult) -> bool {
    a.pv_band.to_bits() == b.pv_band.to_bits()
        && a.epe.per_point.len() == b.epe.per_point.len()
        && a.epe
            .per_point
            .iter()
            .zip(&b.epe.per_point)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Outcomes equal bit for bit (the runtime is not compared).
fn same_outcomes(a: &[OpcOutcome], b: &[OpcOutcome]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.steps == y.steps
                && x.mask.offsets() == y.mask.offsets()
                && same_result(&x.result, &y.result)
                && x.epe_trajectory.len() == y.epe_trajectory.len()
                && x.epe_trajectory
                    .iter()
                    .zip(&y.epe_trajectory)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn digest(outcomes: &[OpcOutcome]) -> u64 {
    let mut d = Digest::default();
    for o in outcomes {
        d.floats(&o.result.epe.per_point);
        d.floats(&[o.result.pv_band]);
        d.offsets(o.mask.offsets());
    }
    d.value()
}

/// One timed batch pass: outcomes, wall time and per-clip stamps.
fn batch_pass(setup: &Setup) -> (Vec<OpcOutcome>, Duration, Vec<(Duration, Duration)>) {
    let engine = Stamped::new(setup.engine.clone());
    let start = Instant::now();
    let outcomes = optimize_batch(&engine, &setup.clips, &setup.sim, THREADS);
    let wall = start.elapsed();
    (outcomes, wall, engine.stamps())
}

/// Sign-off: a one-shot dense evaluation of every final mask, timed into
/// `times`, must reproduce the incremental session's result bit for bit.
/// Returns the mismatches.
fn sign_off(sim: &LithoSimulator, outcomes: &[OpcOutcome], times: &mut Vec<f64>) -> u64 {
    let mut mismatches = 0;
    for o in outcomes {
        let start = Instant::now();
        let dense = sim.evaluate(&o.mask);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        mismatches += u64::from(!same_result(&dense, &o.result));
    }
    mismatches
}

/// The gate every run ends with: the batch outcomes equal a serial loop
/// of `engine.clone().optimize`. Returns the serial per-clip times too.
fn serial_gate(setup: &Setup, batch: &[OpcOutcome]) -> (bool, Vec<f64>) {
    let mut times = Vec::new();
    let serial: Vec<OpcOutcome> = setup
        .clips
        .iter()
        .map(|clip| {
            let start = Instant::now();
            let outcome = setup.engine.clone().optimize(clip, &setup.sim);
            times.push(start.elapsed().as_secs_f64() * 1e3);
            outcome
        })
        .collect();
    (same_outcomes(batch, &serial), times)
}

/// Runs one OPC workload and returns its report.
pub fn run(
    name: &str,
    layer: Layer,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: &Path,
) -> Report {
    let job = paper_job(layer);
    if trace {
        return run_traced(name, layer, seed, seconds, &job, serve_bin);
    }
    let mut setups = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first so two never count in the peak RSS.
        drop(setup.take());
        let (s, secs) = set_up(layer, seed, &job);
        setups.push(secs);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let n = setup.clips.len();

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut rates = Vec::new();
    let mut latencies = Vec::new();
    let mut signoffs = Vec::new();
    let mut reference: Option<Vec<OpcOutcome>> = None;
    let mut failed = 0u64;
    while rates.len() < MIN_PASSES || Instant::now() < deadline {
        let (outcomes, wall, stamps) = batch_pass(&setup);
        rates.push(n as f64 / wall.as_secs_f64());
        // Each clip's time from its claim to its outcome. Which worker is
        // free first, and so when a clip starts, is a race; its own time is
        // not. One slot per rank: the k-th shortest of each pass.
        let mut own: Vec<f64> = stamps
            .iter()
            .map(|(start, end)| (*end - *start).as_secs_f64() * 1e3)
            .collect();
        own.sort_by(f64::total_cmp);
        latencies.extend(own);
        let paced = MIN_SIGNOFFS as f64 * started.elapsed().as_secs_f64() / seconds;
        loop {
            failed += sign_off(&setup.sim, &outcomes, &mut signoffs);
            if signoffs.len() as f64 >= paced.min(MIN_SIGNOFFS as f64) {
                break;
            }
        }
        match &reference {
            None => reference = Some(outcomes),
            Some(r) => failed += u64::from(!same_outcomes(r, &outcomes)) * n as u64,
        }
    }
    let reference = reference.expect("at least one pass");
    while signoffs.len() < MIN_SIGNOFFS {
        failed += sign_off(&setup.sim, &reference, &mut signoffs);
    }
    let (serial_ok, _) = serial_gate(&setup, &reference);
    let passes = rates.len();
    let attempted = (passes * n + signoffs.len()) as u64;

    // The fastest pass, as every timing here is the fastest repeat (see
    // `slot_quantile`).
    let clips_per_s = rates.iter().copied().fold(0.0, f64::max);
    println!(
        "{name} seed={seed}: {n} clips x {passes} passes, {} sign-off evaluations; \
         attempted={attempted} succeeded={} failed={failed}",
        signoffs.len(),
        attempted - failed
    );
    println!(
        "{name} gates: passes and sign-offs identical={}, batch == serial loop={}",
        failed == 0,
        serial_ok
    );
    println!("{name} digest: {:#018x}", digest(&reference));
    let mut report = Report {
        correct: serial_ok && failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    report.push("clips_per_s", clips_per_s, "clips/s");
    report.push(
        "epe_sum_nm",
        reference.iter().map(|o| o.total_epe()).sum(),
        "nm",
    );
    report.push(
        "pvb_sum_nm2",
        reference.iter().map(|o| o.pv_band()).sum(),
        "nm2",
    );
    // Both sample sets repeat per slot, the rank for clip times and the
    // clip for sign-offs (suite order), so their quantiles are taken over
    // each slot's fastest repeat.
    let by_slot = |samples: &[f64], q| slot_quantile(samples, n, q).unwrap_or(0.0);
    report.push("req_ms_p50", by_slot(&latencies, 0.5), "ms");
    report.push("req_ms_p95", by_slot(&latencies, 0.95), "ms");
    report.push("evaluate_ms_p50", by_slot(&signoffs, 0.5), "ms");
    report.push("evaluate_ms_p95", by_slot(&signoffs, 0.95), "ms");
    // Every clip of a batch is one request and a pass keeps both workers
    // busy, so the saturated request rate is the clip rate.
    report.push("saturation_rps", clips_per_s, "req/s");
    report.push("setup_s", median(&setups).unwrap_or(0.0), "s");
    report.push("peak_rss_mb", peak_rss_mib("self").unwrap_or(0.0), "MiB");
    report
}

/// One traced pass: its wall time and what the layers recorded.
struct TracedPass {
    wall_ms: f64,
    sample: LayerSample,
}

fn run_traced(
    name: &str,
    layer: Layer,
    seed: u64,
    seconds: f64,
    job: &JobSpec,
    serve_bin: &Path,
) -> Report {
    let (setup, _) = set_up(layer, seed, job);
    let stage_clock = Arc::new(StageClock::default());
    let traced_sim =
        LithoSimulator::from_context(setup.sim.context_arc()).with_trace_sink(stage_clock.clone());
    let n = setup.clips.len();
    let half = Duration::from_secs_f64(seconds / 2.0);

    // Untraced passes first: the baseline of the slowdown and the outcomes
    // the traced replica must reproduce.
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut reference = None;
    while untraced.len() < 2 || start.elapsed() < half {
        let (outcomes, wall, _) = batch_pass(&setup);
        untraced.push(wall.as_secs_f64() * 1e3);
        reference.get_or_insert(outcomes);
    }
    let reference = reference.expect("at least one pass");

    let mut failed = 0u64;
    let mut passes: Vec<TracedPass> = Vec::new();
    let start = Instant::now();
    // The first traced pass only warms the traced simulator's pool.
    while passes.len() < 3 || start.elapsed() < half {
        let t = Instant::now();
        let (outcomes, sample) = traced(&setup.engine, &stage_clock, &traced_sim, |replica| {
            optimize_batch(replica, &setup.clips, &traced_sim, THREADS)
        });
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        failed += u64::from(!same_outcomes(&reference, &outcomes)) * n as u64;
        passes.push(TracedPass { wall_ms, sample });
    }
    let attempted = (passes.len() * n) as u64;
    passes.remove(0);
    let diverged = passes.iter().any(|p| p.sample.diverged);
    let (serial_ok, serial_ms) = serial_gate(&setup, &reference);
    let mut report = Report {
        correct: serial_ok && failed == 0 && !diverged,
        attempted,
        failed,
        metrics: Vec::new(),
    };

    let med = |f: &dyn Fn(&TracedPass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let threads = THREADS as f64;
    let untraced_ms = median(&untraced).unwrap_or(0.0);
    let traced_ms = med(&|p| p.wall_ms);
    let busy_share = med(&|p| p.sample.calls.ms(Call::Clip) / (threads * p.wall_ms));
    let unaccounted = med(&|p| {
        (p.sample.calls.ms(Call::Clip) - p.sample.calls.layer_ms()) / (threads * p.wall_ms)
    });
    println!(
        "{name} seed={seed} traced: {n} clips x {} passes; attempted={} succeeded={} failed={failed}",
        passes.len(),
        report.attempted,
        report.attempted - failed
    );
    println!(
        "{name} traced: median pass {traced_ms:.1} ms vs untraced {untraced_ms:.1} ms \
         (slowdown {:.2}x; the replica repeats features + policy outside decide)",
        traced_ms / untraced_ms
    );
    println!(
        "{name} traced: of pass wall time x {THREADS} threads, layer calls cover {:.1}% and \
         camo-runtime idle (no clip left to claim) {:.1}%; timed {:.1}%, unaccounted {:.1}%",
        100.0 * (busy_share - unaccounted),
        100.0 * (1.0 - busy_share),
        100.0 * (1.0 - unaccounted),
        100.0 * unaccounted
    );
    println!(
        "{name} gates: traced == untraced outcomes={}, side-call logits == decide's={}, \
         batch == serial loop={serial_ok}",
        failed == 0,
        !diverged
    );

    let samples: Vec<LayerSample> = passes.iter().map(|p| p.sample).collect();
    push_layer_metrics(&mut report, &samples);
    report.push("runtime.busy_share", busy_share, "ratio");
    report.push(
        "runtime.straggler_ms",
        med(&|p| p.wall_ms - p.sample.calls.ms(Call::Clip) / threads),
        "ms",
    );

    match served_suite(&setup, job, layer, serve_bin, &reference, &serial_ms) {
        Ok(served) => {
            report.correct &= served.correct;
            report.failed += served.failed;
            report.attempted += served.attempted;
            report.metrics.extend(served.metrics);
        }
        Err(e) => {
            eprintln!("{name}: serving the suite failed: {e}");
            report.correct = false;
        }
    }
    report
}

/// Serves the suite through a `serve` child, one request at a time: each
/// clip as an `optimize` request and as an `evaluate` request of its
/// initial mask. Served results must equal the batch outcomes; the
/// per-kind overhead is the served latency minus the offline compute time
/// of the same request (the serial loop's time for `optimize`).
fn served_suite(
    setup: &Setup,
    job: &JobSpec,
    layer: Layer,
    serve_bin: &Path,
    batch: &[OpcOutcome],
    serial_ms: &[f64],
) -> Result<Report, String> {
    let server = Server::spawn(serve_bin, THREADS)?;
    let mut conn = Conn::open(server.addr())?;
    let bias = setup.engine.opc_config().initial_bias;
    let evaluate = |clip: &Clip| RequestBody::Evaluate {
        litho: job.litho.clone(),
        layer,
        bias,
        clip: clip.clone(),
    };
    // Warm-up, discarded: builds the server's litho context.
    conn.call(evaluate(&setup.clips[0]))?;

    let mut report = Report::default();
    let mut sample = ServeSample::default();
    let mut ok = true;
    for (i, clip) in setup.clips.iter().enumerate() {
        let start = Instant::now();
        let dense = setup.sim.evaluate(&evaluate_mask(layer, bias, clip));
        let evaluate_ms = start.elapsed().as_secs_f64() * 1e3;
        let requests = [
            (
                RequestBody::Optimize {
                    job: job.clone(),
                    clip: clip.clone(),
                },
                serial_ms[i],
            ),
            (evaluate(clip), evaluate_ms),
        ];
        for (kind, (body, offline_ms)) in requests.into_iter().enumerate() {
            let (id, frame) = conn.frame(body)?;
            report.attempted += 1;
            let start = Instant::now();
            let reply = conn.call_frame(id, &frame)?;
            let served_ms = start.elapsed().as_secs_f64() * 1e3;
            let same = match (&reply.completed, kind) {
                (Completed::Single(ResponseBody::Outcome(wire)), 0) => {
                    outcome_matches(wire, &batch[i])
                }
                (
                    Completed::Single(ResponseBody::Evaluation {
                        epe_per_point,
                        pv_band,
                    }),
                    1,
                ) => {
                    pv_band.to_bits() == dense.pv_band.to_bits()
                        && same_bits(epe_per_point, &dense.epe.per_point)
                }
                _ => {
                    report.failed += 1;
                    false
                }
            };
            ok &= same;
            sample.record(kind, (id, &frame), &reply, served_ms, offline_ms)?;
        }
    }
    let metrics = conn.metrics()?;
    drop(conn);
    server.shutdown()?;
    println!("served suite: served == batch and offline results={ok}");
    report.correct = ok;
    sample.push(&mut report, &metrics);
    Ok(report)
}
