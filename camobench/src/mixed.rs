//! The serving workload `serve_mixed`: a `serve --threads 2` child gets the
//! default `request_stream` mix (optimize/evaluate/sweep/layout = 6/3/1/1)
//! of fast-litho CAMO jobs over one wire-v2 connection in rounds: each
//! round replays one seeded open-loop schedule at a fixed rate (`nominal`),
//! then runs a closed loop with a full window of pipelined requests
//! (`saturation`).

use crate::layers::{push_layer_metrics, traced, StageClock, TracedCamo};
use crate::serve::{
    clip_results, outcome_matches, same_bits, verify, Conn, Reply, ServeSample, Server, KINDS,
};
use crate::stats::{median, quantile, slot_quantile, Digest, Report};
use crate::suites::{camo_engine, stream_job, via_suite, SplitMix, THREADS};
use camo_baselines::OpcEngine;
use camo_geometry::Clip;
use camo_litho::LithoSimulator;
use camo_runtime::parallel_map;
use camo_serve::client::Completed;
use camo_serve::exec::{case_body, evaluate_mask, run_layout};
use camo_serve::wire::{JobSpec, RequestBody, ResponseBody, WireOutcome};
use camo_workloads::{request_stream, RequestStreamParams, ServeCase};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load of the nominal phase, requests per second: ~20% of the
/// server's capacity with one-step writes. About one read in ten then
/// waits 40–65 ms behind a sweep, so `evaluate_ms_p95` lies inside that
/// cluster. At 15 req/s only 3 to 9 of a run's ~92 reads waited, and the
/// 5th slowest jumped between 18 and 47 ms across seeds; at 30 req/s the
/// median read started to queue (its spread over five seeds was 0.28).
const RATE: f64 = 25.0;
/// Rounds per run. Each replays the same nominal schedule and then runs a
/// saturation segment, so every request position and the saturated rate
/// are measured this many times, spread over the run, and the metrics take
/// the fastest repeat (see `stats::slot_quantile`).
const ROUNDS: usize = 5;
/// Share of each round spent in the nominal phase.
const NOMINAL_SHARE: f64 = 0.75;
/// Requests kept in flight during the saturation phase: the smallest
/// window on the throughput plateau. `serve` coalesces up to 16 queued
/// requests per batch, so smaller windows leave its workers idle; on a
/// 2-core host, 15 s of saturation gave 86–89 req/s at 1, 170–178 at 8,
/// 215–224 at 16, 230–233 at 24, 225–229 at 32 and 223–225 at 48; with
/// five 1.5 s segments (seed 1, fastest segment) 177 at 8, then 228–239
/// at 16 to 48.
const WINDOW: usize = 24;
/// Requests a saturation segment can draw from (each segment replays them
/// from the start): enough for twice the plateau rate over the segment of
/// the longest run, 120 s.
const SATURATION_POOL: usize = 4096;
/// Requests per block of the stratified mix and schedule: the default
/// weights 6 + 3 + 1 + 1.
const BLOCK: usize = 11;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The generator fell behind its schedule, and the run is invalid, when
/// more than 1% of its sends were later than this after their due time.
/// One host hiccup delays a few sends; a server that stops reading blocks
/// the sender and delays every send after it.
const LAG_LIMIT_MS: f64 = 50.0;

/// Seed of the request arrangement: the order of kinds, the clip deal, the
/// inter-arrival gaps and `request_stream`'s biases, sweeps and layouts.
/// It is the same for every workload seed, so every run offers the same
/// work at the same times; the workload seed shifts the via clips by whole
/// fast-litho pixels, as in the OPC suites, which moves every coordinate
/// the server reads but neither the cost nor the results. Drawn from the
/// workload seed, the arrangement alone moved `req_ms_p50` by 0.30 (IQR
/// over median, seeds 2–6): the median request is an optimize whose clip
/// and queueing the draw decides.
const ARRANGEMENT: u64 = 1;

/// Stream seeds derived from the arrangement seed, one per use.
const WARMUP_SALT: u64 = 0x5741_524d;
const SCHEDULE_SALT: u64 = 0x5343_4844;
const SATURATION_SALT: u64 = 0x5341_5455;

fn kind_index(case: &ServeCase) -> usize {
    KINDS
        .iter()
        .position(|&k| k == case.kind())
        .expect("request_stream emits the four kinds")
}

/// `count` cases of the default `request_stream` mix, stratified: kinds are
/// drawn in blocks of 11 (6 optimize, 3 evaluate, 1 sweep, 1 layout, in a
/// seeded order) and each kind's clips are dealt from its own seeded deck
/// of `suite`, so a stream holds exactly the default proportions and every
/// clip about equally often. Biases, sweep sizes and layouts are
/// `request_stream`'s.
fn mixed_stream(seed: u64, count: usize, suite: &[Clip]) -> Vec<ServeCase> {
    let params = RequestStreamParams::default();
    let weights = [
        params.optimize_weight,
        params.evaluate_weight,
        params.sweep_weight,
        params.layout_weight,
    ];
    let block: Vec<usize> = (0..KINDS.len())
        .flat_map(|kind| std::iter::repeat_n(kind, weights[kind] as usize))
        .collect();
    debug_assert_eq!(block.len(), BLOCK);
    let mut pool_size = 4 * count.max(BLOCK);
    loop {
        let mut queues: [VecDeque<ServeCase>; 4] = Default::default();
        for case in request_stream(&params, seed, pool_size) {
            queues[kind_index(&case)].push_back(case);
        }
        let mut rng = SplitMix(seed);
        let mut out = Vec::with_capacity(count);
        'fill: while out.len() < count {
            for kind in shuffled(&block, &mut rng) {
                match queues[kind].pop_front() {
                    Some(case) if out.len() < count => out.push(case),
                    _ => break 'fill,
                }
            }
        }
        if out.len() == count {
            deal_clips(&mut out, &mut rng, suite);
            return out;
        }
        // Too few cases of some kind in the pool: draw a longer stream.
        pool_size *= 2;
    }
}

/// Replaces every case's clips with clips dealt from per-kind decks of
/// `suite`, each reshuffled when it runs out.
fn deal_clips(cases: &mut [ServeCase], rng: &mut SplitMix, suite: &[Clip]) {
    let mut decks: [Vec<Clip>; 3] = Default::default();
    let mut deal = |deck: usize, rng: &mut SplitMix| {
        if decks[deck].is_empty() {
            decks[deck] = shuffled(suite, rng);
        }
        decks[deck].pop().expect("a reshuffled deck is full")
    };
    for case in cases {
        match case {
            ServeCase::Optimize { clip } => *clip = deal(0, rng),
            ServeCase::Evaluate { clip, .. } => *clip = deal(1, rng),
            ServeCase::Sweep { cases } => {
                for (name, clip) in cases {
                    *clip = deal(2, rng);
                    let prefix = name.split(':').next().unwrap_or_default().to_string();
                    *name = format!("{prefix}:{}", clip.name());
                }
            }
            ServeCase::Layout { .. } => {}
        }
    }
}

/// Spawns the server, upgrades one connection and sends the warm-up: one
/// block of the mix.
fn set_up(bin: &Path, suite: &[Clip], job: &JobSpec) -> Result<(Server, Conn), String> {
    let server = Server::spawn(bin, THREADS)?;
    let mut conn = Conn::open(server.addr())?;
    let warm = mixed_stream(ARRANGEMENT ^ WARMUP_SALT, BLOCK, suite);
    let mut bodies = warm.iter().enumerate().map(|(i, c)| (i, case_body(c, job)));
    let warm_up = conn.closed_loop(&mut bodies, BLOCK, Duration::from_secs(60))?;
    let ok = warm_up
        .replies
        .values()
        .filter(|r| succeeded(&r.completed))
        .count();
    if ok != BLOCK {
        return Err(format!("only {ok} of {BLOCK} warm-up requests succeeded"));
    }
    Ok((server, conn))
}

fn succeeded(completed: &Completed) -> bool {
    matches!(completed, Completed::Single(_) | Completed::Sweep(_))
}

/// The open-loop schedule up to `secs`: exponential inter-arrival gaps at
/// [`RATE`], stratified like the mix — each block of [`BLOCK`] gaps holds
/// the exponential distribution's quantiles at `(i + 0.5) / BLOCK`, scaled
/// to a mean of exactly `1 / RATE`, in a seeded order.
fn schedule(seed: u64, secs: f64) -> Vec<Duration> {
    let mut rng = SplitMix(seed ^ SCHEDULE_SALT);
    let raw: Vec<f64> = (0..BLOCK)
        .map(|i| -(1.0 - (i as f64 + 0.5) / BLOCK as f64).ln())
        .collect();
    let scale = BLOCK as f64 / (RATE * raw.iter().sum::<f64>());
    let quantiles: Vec<f64> = raw.iter().map(|q| q * scale).collect();
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        for gap in shuffled(&quantiles, &mut rng) {
            t += gap;
            if t > secs {
                return due;
            }
            due.push(Duration::from_secs_f64(t));
        }
    }
}

/// A seeded Fisher–Yates permutation of `items`.
fn shuffled<T: Clone>(items: &[T], rng: &mut SplitMix) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    out
}

/// The served write outcomes of a reply, with the clip name each is for.
fn write_outcomes<'a>(
    case: &'a ServeCase,
    completed: &'a Completed,
) -> Vec<(&'a str, &'a WireOutcome)> {
    match (case, completed) {
        (ServeCase::Optimize { clip }, Completed::Single(ResponseBody::Outcome(o))) => {
            vec![(clip.name(), o)]
        }
        (ServeCase::Sweep { cases }, Completed::Sweep(replies)) => cases
            .iter()
            .zip(replies)
            .filter_map(|((_, clip), reply)| match reply {
                ResponseBody::CaseOutcome { outcome, .. } => Some((clip.name(), outcome)),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn digest_reply(d: &mut Digest, completed: &Completed) {
    let bodies: Vec<&ResponseBody> = match completed {
        Completed::Single(b) => vec![b],
        Completed::Sweep(bs) => bs.iter().collect(),
        _ => Vec::new(),
    };
    for b in bodies {
        match b {
            ResponseBody::Outcome(o) | ResponseBody::CaseOutcome { outcome: o, .. } => {
                d.floats(&o.epe_per_point);
                d.floats(&[o.pv_band]);
                d.offsets(&o.offsets);
            }
            ResponseBody::Evaluation {
                epe_per_point,
                pv_band,
            }
            | ResponseBody::LayoutReport {
                epe_per_point,
                pv_band,
                ..
            } => {
                d.floats(epe_per_point);
                d.floats(&[*pv_band]);
            }
            _ => {}
        }
    }
}

/// One nominal round as sent and received.
struct Round {
    /// Request ids and v2 frames, by position.
    frames: Vec<(u64, Vec<u8>)>,
    /// When each was sent, from the round's epoch.
    sent: Vec<Duration>,
    /// Every reply that arrived, by id.
    replies: BTreeMap<u64, Reply>,
}

/// Runs `serve_mixed` and returns its report; `Err` when the server could
/// not be started or driven at all.
pub fn run(seed: u64, seconds: f64, trace: bool, serve_bin: &Path) -> Result<Report, String> {
    let job = stream_job();
    let suite = via_suite(seed, &job.litho);
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let (server, conn) = set_up(serve_bin, &suite, &job)?;
        setups.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(conn);
            server.shutdown()?;
        } else {
            live = Some((server, conn));
        }
    }
    let (server, mut conn) = live.expect("at least one set-up");

    // ROUNDS rounds, each a replay of one nominal schedule (open loop at
    // RATE, latency from each request's due time) followed by a
    // saturation segment (closed loop with WINDOW requests in flight).
    let round_s = seconds / ROUNDS as f64;
    let due = schedule(ARRANGEMENT, round_s * NOMINAL_SHARE);
    let nominal = mixed_stream(ARRANGEMENT, due.len(), &suite);
    let bodies: Vec<RequestBody> = nominal.iter().map(|c| case_body(c, &job)).collect();
    let pool = mixed_stream(ARRANGEMENT ^ SATURATION_SALT, SATURATION_POOL, &suite);
    let segment = Duration::from_secs_f64(round_s * (1.0 - NOMINAL_SHARE));
    // Every position's latency in every round (`+inf` when it failed), and
    // the digest of its first successful reply, which every replay must
    // reproduce.
    let positions = nominal.len();
    let mut latencies = Vec::new();
    let mut digests: Vec<Option<u64>> = vec![None; positions];
    let mut replays_agree = true;
    let mut lags = Vec::new();
    let mut nominal_failed = 0u64;
    let mut first: Option<Round> = None;
    let mut case_of = BTreeMap::new();
    let mut sat_replies = BTreeMap::new();
    let mut sat_wall = Duration::ZERO;
    let (mut saturation_rps, mut clips_per_s) = (0.0f64, 0.0f64);
    let mut sat_in_window = 0usize;
    for _ in 0..ROUNDS {
        let frames = bodies
            .iter()
            .map(|b| conn.frame(b.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let (sent, replies) = conn.open_loop(&frames, &due)?;
        lags.extend(
            sent.iter()
                .zip(&due)
                .map(|(s, d)| s.saturating_sub(*d).as_secs_f64() * 1e3),
        );
        for (i, (id, _)) in frames.iter().enumerate() {
            latencies.push(match replies.get(id) {
                Some(reply) if succeeded(&reply.completed) => {
                    let mut d = Digest::default();
                    digest_reply(&mut d, &reply.completed);
                    replays_agree &= *digests[i].get_or_insert(d.value()) == d.value();
                    reply.at.saturating_sub(due[i]).as_secs_f64() * 1e3
                }
                // Refused, failed or timed out: misses every latency limit.
                _ => {
                    nominal_failed += 1;
                    f64::INFINITY
                }
            });
        }
        first.get_or_insert(Round {
            frames,
            sent,
            replies,
        });

        // Every segment replays the pool from its start.
        let mut pool_bodies = pool
            .iter()
            .enumerate()
            .map(|(i, c)| (i, case_body(c, &job)));
        let seg = conn.closed_loop(&mut pool_bodies, WINDOW, segment)?;
        let in_window: Vec<&Reply> = seg
            .replies
            .values()
            .filter(|r| succeeded(&r.completed) && r.at <= segment)
            .collect();
        // Rates over the time the last in-window reply arrived, so they do
        // not move in steps of one request per segment.
        let last_s = in_window
            .iter()
            .map(|r| r.at.as_secs_f64())
            .fold(f64::MIN_POSITIVE, f64::max);
        saturation_rps = saturation_rps.max(in_window.len() as f64 / last_s);
        clips_per_s = clips_per_s.max(
            in_window
                .iter()
                .map(|r| clip_results(&r.completed))
                .sum::<usize>() as f64
                / last_s,
        );
        sat_in_window += in_window.len();
        sat_wall += seg.wall;
        case_of.extend(seg.case_of);
        sat_replies.extend(seg.replies);
    }
    let Round {
        frames,
        sent,
        replies,
    } = first.expect("at least one round");
    let lag_ms_max = lags.iter().copied().fold(0.0, f64::max);
    let lag_ms_p99 = quantile(&lags, 0.99).unwrap_or(0.0);
    // Each position's fastest round: the rounds replay the same requests
    // on the same schedule (see `slot_quantile`).
    let evaluates: Vec<usize> = (0..positions)
        .filter(|&i| nominal[i].kind() == "evaluate")
        .collect();
    let evaluate_latencies: Vec<f64> = latencies
        .chunks(positions)
        .flat_map(|round| evaluates.iter().map(|&i| round[i]))
        .collect();
    let nominal_ok: Vec<(usize, &Reply)> = frames
        .iter()
        .enumerate()
        .filter_map(|(i, (id, _))| {
            replies
                .get(id)
                .filter(|r| succeeded(&r.completed))
                .map(|r| (i, r))
        })
        .collect();
    let sat_attempted = case_of.len() as u64;
    let sat_failed = case_of
        .keys()
        .filter(|id| !sat_replies.get(id).is_some_and(|r| succeeded(&r.completed)))
        .count() as u64;
    let budget_s = segment.as_secs_f64() * ROUNDS as f64;

    let metrics = conn.metrics()?;
    let peak_rss = server.peak_rss_mib().unwrap_or(0.0);
    drop(conn);
    server.shutdown()?;

    // Every served result must equal the offline recomputation.
    let sim = LithoSimulator::new(job.litho.to_config());
    let mut checks: Vec<(&ServeCase, &Completed)> = nominal_ok
        .iter()
        .map(|(i, r)| (&nominal[*i], &r.completed))
        .collect();
    let sat_ok: Vec<(&u64, &Reply)> = sat_replies
        .iter()
        .filter(|(_, r)| succeeded(&r.completed))
        .collect();
    checks.extend(
        sat_ok
            .iter()
            .map(|(id, r)| (&pool[case_of[*id]], &r.completed)),
    );
    let verdicts = parallel_map(THREADS, &checks, |_, (case, completed)| {
        verify(case, &job, completed, &sim)
    });
    let mismatches: Vec<&String> = verdicts.iter().filter_map(|v| v.as_ref().err()).collect();
    if let Some(first) = mismatches.first() {
        eprintln!(
            "serve_mixed: {} mismatches; first: {first}",
            mismatches.len()
        );
    }
    let compute: Vec<f64> = verdicts
        .iter()
        .map(|v| v.as_ref().map_or(0.0, |d| d.as_secs_f64() * 1e3))
        .collect();

    // Quality: one result per distinct clip the served writes cover.
    let mut by_clip: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut digest = Digest::default();
    for (i, reply) in &nominal_ok {
        digest_reply(&mut digest, &reply.completed);
        for (name, o) in write_outcomes(&nominal[*i], &reply.completed) {
            by_clip.insert(
                name,
                (o.epe_per_point.iter().map(|e| e.abs()).sum(), o.pv_band),
            );
        }
    }

    let nominal_attempted = (ROUNDS * positions) as u64;
    let attempted = nominal_attempted + sat_attempted;
    let failed = nominal_failed + sat_failed;
    let lag_ok = lag_ms_p99 <= LAG_LIMIT_MS;
    println!(
        "serve_mixed seed={seed} nominal: {ROUNDS} rounds of {positions} requests at {RATE} \
         req/s open loop, attempted={nominal_attempted} succeeded={} failed={nominal_failed}; \
         generator.lag_ms_max={lag_ms_max:.3}, p99 {lag_ms_p99:.3} (limit {LAG_LIMIT_MS})",
        nominal_attempted - nominal_failed
    );
    println!(
        "serve_mixed saturation: window {WINDOW}, attempted={sat_attempted} succeeded={} \
         failed={sat_failed}, {sat_in_window} completed within {budget_s:.1} s",
        sat_ok.len()
    );
    println!(
        "serve_mixed gates: served == offline for {} of {} results, replays == first \
         round={replays_agree}, schedule kept={lag_ok}",
        verdicts.len() - mismatches.len(),
        verdicts.len()
    );
    println!("serve_mixed digest: {:#018x}", digest.value());
    let mut report = Report {
        correct: mismatches.is_empty() && replays_agree && lag_ok,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    if !trace {
        report.push("clips_per_s", clips_per_s, "clips/s");
        report.push("epe_sum_nm", by_clip.values().map(|v| v.0).sum(), "nm");
        report.push("pvb_sum_nm2", by_clip.values().map(|v| v.1).sum(), "nm2");
        let all = |q| slot_quantile(&latencies, positions, q).unwrap_or(0.0);
        report.push("req_ms_p50", all(0.5), "ms");
        report.push("req_ms_p95", all(0.95), "ms");
        report.push(
            "evaluate_ms_p50",
            slot_quantile(&evaluate_latencies, evaluates.len(), 0.5).unwrap_or(0.0),
            "ms",
        );
        // The read tail is made of waits behind a sweep or layout that
        // begin in some rounds and not in others (a race with the
        // dispatcher), which a position's fastest round would hide: ~3% of
        // reads wait in every round, ~10% in some. So p95 is taken over
        // every round's raw samples.
        report.push(
            "evaluate_ms_p95",
            quantile(&evaluate_latencies, 0.95).unwrap_or(0.0),
            "ms",
        );
        report.push("saturation_rps", saturation_rps, "req/s");
        report.push("setup_s", median(&setups).unwrap_or(0.0), "s");
        report.push("peak_rss_mb", peak_rss, "MiB");
        return Ok(report);
    }

    // Traced: per-kind compute and overhead of the first round's nominal
    // requests.
    let mut sample = ServeSample::default();
    for (k, (i, reply)) in nominal_ok.iter().enumerate() {
        let served_ms = reply.at.saturating_sub(sent[*i]).as_secs_f64() * 1e3;
        let (id, frame) = &frames[*i];
        sample.record(
            kind_index(&nominal[*i]),
            (*id, frame),
            reply,
            served_ms,
            compute[k],
        )?;
    }
    // Offline compute runs each request on one thread; the server runs a
    // sweep's cases and a layout's tiles on two, so their overhead can read
    // below zero.
    for (kind, label) in KINDS.iter().enumerate() {
        println!(
            "serve_mixed traced: {label:<8} n={:<4} compute_ms p50={:.3} overhead_ms p50={:.3}",
            sample.compute_ms[kind].len(),
            median(&sample.compute_ms[kind]).unwrap_or(0.0),
            median(&sample.overhead_ms[kind]).unwrap_or(0.0)
        );
    }

    // Litho, geometry and core layers: the nominal requests recomputed
    // offline through the traced replica and a timing stage sink.
    let stage_clock = Arc::new(StageClock::default());
    let traced_sim =
        LithoSimulator::from_context(sim.context_arc()).with_trace_sink(stage_clock.clone());
    let (replays, layers) = traced(&camo_engine(&job), &stage_clock, &traced_sim, |replica| {
        parallel_map(THREADS, &nominal_ok, |_, (i, reply)| {
            replay(&nominal[*i], &job, &reply.completed, replica, &traced_sim)
        })
    });
    let replay_ok = replays.iter().all(|&ok| ok) && !layers.diverged;
    println!("serve_mixed gates: traced replica == served results={replay_ok}");
    report.correct &= replay_ok;
    push_layer_metrics(&mut report, &[layers]);

    // The runtime layer: the saturation segments' worker capacity against
    // its offline compute.
    let sat_compute_ms: f64 = compute[nominal_ok.len()..].iter().sum();
    let sat_wall_ms = sat_wall.as_secs_f64() * 1e3;
    report.push(
        "runtime.busy_share",
        sat_compute_ms / (THREADS as f64 * sat_wall_ms),
        "ratio",
    );
    report.push(
        "runtime.straggler_ms",
        sat_wall_ms - sat_compute_ms / THREADS as f64,
        "ms",
    );
    sample.push(&mut report, &metrics);
    Ok(report)
}

/// Recomputes one served request through the traced replica and the
/// traced simulator; true when it reproduces the served result.
fn replay(
    case: &ServeCase,
    job: &JobSpec,
    completed: &Completed,
    engine: &TracedCamo,
    sim: &LithoSimulator,
) -> bool {
    match (case, completed) {
        (
            ServeCase::Evaluate { clip, bias },
            Completed::Single(ResponseBody::Evaluation {
                epe_per_point,
                pv_band,
            }),
        ) => {
            let r = sim.evaluate(&evaluate_mask(job.layer, *bias, clip));
            same_bits(epe_per_point, &r.epe.per_point) && pv_band.to_bits() == r.pv_band.to_bits()
        }
        (
            ServeCase::Layout {
                params,
                seed,
                tile_nm,
            },
            Completed::Single(ResponseBody::LayoutReport {
                tiles,
                epe_per_point,
                pv_band,
            }),
        ) => {
            let r = run_layout(params, *seed, *tile_nm, sim, 1);
            r.tiles == *tiles
                && same_bits(epe_per_point, &r.epe.per_point)
                && pv_band.to_bits() == r.pv_band.to_bits()
        }
        _ => {
            let writes = write_outcomes(case, completed);
            let clips: Vec<&Clip> = match case {
                ServeCase::Optimize { clip } => vec![clip],
                ServeCase::Sweep { cases } => cases.iter().map(|(_, c)| c).collect(),
                _ => Vec::new(),
            };
            !clips.is_empty()
                && writes.len() == clips.len()
                && clips.iter().zip(&writes).all(|(clip, (_, wire))| {
                    outcome_matches(wire, &engine.clone().optimize(clip, sim))
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_serve::wire::LithoSpec;

    #[test]
    fn every_block_holds_the_default_mix_and_rate() {
        let suite = via_suite(3, &LithoSpec::fast());
        let cases = mixed_stream(9, 4 * BLOCK, &suite);
        for block in cases.chunks(BLOCK) {
            let mut counts = [0; 4];
            for case in block {
                counts[kind_index(case)] += 1;
            }
            assert_eq!(counts, [6, 3, 1, 1]);
        }
        let optimized: Vec<&str> = cases
            .iter()
            .filter_map(|c| match c {
                ServeCase::Optimize { clip } => Some(clip.name()),
                _ => None,
            })
            .collect();
        // 24 optimize requests deal the 13-clip deck once and 11 more.
        let mut distinct = optimized[..13].to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 13);
        let due = schedule(9, 100.0);
        let rate = due.len() as f64 / due.last().expect("non-empty").as_secs_f64();
        assert!((rate - RATE).abs() < 0.5, "offered {rate} req/s");
        assert_eq!(mixed_stream(9, 30, &suite), mixed_stream(9, 30, &suite));
    }
}
