//! The `camo-client` binary: load generator and offline verifier.
//!
//! ```text
//! camo-client [--addr 127.0.0.1:7878 | --front ADDR | --port-file PATH]
//!             [--requests N] [--seed S] [--smoke] [--engine calibre|camo]
//!             [--litho fast|default] [--max-steps N]
//!             [--verify] [--metrics] [--trace-out FILE]
//!             [--restart [SHARD]] [--shutdown]
//! ```
//!
//! `--front` addresses the front port of a `serve --shards N` router tier;
//! it is interchangeable with `--addr` because the routed protocol is
//! byte-for-byte the single-process protocol (and `--verify` holds through
//! the router: routed results are bit-identical to offline runs).
//!
//! The connection opens with the one-line text `hello` preface and runs
//! the whole session over binary frames; a refused preface (a server at
//! its connection cap answers `busy`) exits 1 with the server's reply.
//!
//! Generates a deterministic mixed request stream
//! ([`camo_workloads::request_stream`]), fires it at the server, retries
//! `busy` rejections on the [`camo_serve::busy_backoff`] schedule (the
//! server's `retry_after_ms` hint doubled per attempt, capped, with
//! deterministic per-seed jitter so a herd of clients decorrelates), and
//! prints a throughput summary. With `--verify`, every response is diffed
//! against a direct `camo-runtime` call built from the same specs —
//! **bit-identical** (`f64::to_bits`) or the process exits 1.
//!
//! `--metrics` fetches the server's `metrics` report after the load run
//! and renders it as plain text (counters, per-kind latency quantiles and
//! — through a router — per-shard status). `--trace-out FILE` pulls the
//! flight recorder (a `trace` request; against a router the reply merges
//! the router's spans with every live shard's) and writes the timeline as
//! Chrome trace-event JSON — open it at `chrome://tracing` or in Perfetto.
//! Tracing must be enabled server-side (`serve --trace-sample N`) for the
//! pull to contain spans. `--restart` asks a router tier
//! for a rolling restart (optionally of one shard index) and waits for the
//! `restarted` acknowledgement. With `--shutdown`, a `shutdown` request is
//! sent at the end and the clean acknowledgement is awaited.

use camo_baselines::OpcOutcome;
use camo_litho::ContextCache;
use camo_serve::cli::{flag_value, parsed_flag};
use camo_serve::client::{busy_backoff, Client, Completed, ResponseRouter};
use camo_serve::exec::{evaluate_mask, run_layout, run_optimize, run_sweep};
use camo_serve::wire::{
    EngineKind, JobSpec, Layer, LithoSpec, RequestBody, ResponseBody, WireOutcome,
};
use camo_serve::{chrome_trace_json, MetricsReport};
use camo_workloads::{request_stream, RequestStreamParams, ServeCase};
use std::collections::BTreeMap;
use std::time::Instant;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("camo-client: {message}");
    std::process::exit(1);
}

use camo_serve::exec::case_body as to_body;

fn outcome_matches(wire: &WireOutcome, offline: &OpcOutcome) -> bool {
    wire.offsets == offline.mask.offsets()
        && wire.steps == offline.steps
        && wire.epe_per_point.len() == offline.result.epe.per_point.len()
        && wire
            .epe_per_point
            .iter()
            .zip(&offline.result.epe.per_point)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && wire.pv_band.to_bits() == offline.result.pv_band.to_bits()
}

fn bits_match(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Recomputes one case offline and diffs it against the served result.
fn verify_case(
    index: usize,
    case: &ServeCase,
    job: &JobSpec,
    completed: &Completed,
    contexts: &ContextCache,
) -> Result<(), String> {
    let sim = contexts.get(&job.litho.to_config());
    match (case, completed) {
        (ServeCase::Optimize { clip }, Completed::Single(ResponseBody::Outcome(wire))) => {
            let offline = &run_optimize(job, std::slice::from_ref(clip), &sim, 1)[0];
            if outcome_matches(wire, offline) {
                Ok(())
            } else {
                Err(format!("request {index}: optimize outcome diverged"))
            }
        }
        (
            ServeCase::Evaluate { clip, bias },
            Completed::Single(ResponseBody::Evaluation {
                epe_per_point,
                pv_band,
            }),
        ) => {
            let offline = sim.evaluate(&evaluate_mask(job.layer, *bias, clip));
            if bits_match(epe_per_point, &offline.epe.per_point)
                && pv_band.to_bits() == offline.pv_band.to_bits()
            {
                Ok(())
            } else {
                Err(format!("request {index}: evaluation diverged"))
            }
        }
        (ServeCase::Sweep { cases }, Completed::Sweep(responses)) => {
            let offline = run_sweep(job, cases, &sim, 1);
            if offline.len() != responses.len() {
                return Err(format!("request {index}: sweep case count diverged"));
            }
            for (i, (body, (name, outcome))) in responses.iter().zip(&offline).enumerate() {
                match body {
                    ResponseBody::CaseOutcome {
                        name: got_name,
                        outcome: got,
                        ..
                    } if got_name == name && outcome_matches(got, outcome) => {}
                    _ => return Err(format!("request {index}: sweep case {i} diverged")),
                }
            }
            Ok(())
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
            let offline = run_layout(params, *seed, *tile_nm, &sim, 1);
            if *tiles == offline.tiles
                && bits_match(epe_per_point, &offline.epe.per_point)
                && pv_band.to_bits() == offline.pv_band.to_bits()
            {
                Ok(())
            } else {
                Err(format!("request {index}: layout report diverged"))
            }
        }
        (_, other) => Err(format!(
            "request {index} ({}) completed as unexpected {other:?}",
            case.kind()
        )),
    }
}

/// Blocks until the reply for `id` arrives, skipping unrelated frames.
fn await_reply(client: &mut Client, id: u64) -> ResponseBody {
    loop {
        match client.recv() {
            Ok(Some(response)) if response.id == id => return response.body,
            Ok(Some(_)) => continue,
            Ok(None) => fail("eof while awaiting a control reply"),
            Err(e) => fail(format!("recv: {e}")),
        }
    }
}

/// Renders a metrics report as plain text — counters, per-kind latency
/// quantiles and (through a router) per-shard status.
fn render_metrics(report: &MetricsReport) {
    println!(
        "metrics ({}): simd_arch={} queue_depth={} (hwm {}) in_flight={} (hwm {}) completed={} \
         busy_rejected={} redispatched={} respawns={}",
        report.role,
        report.simd_arch,
        report.queue_depth,
        report.queue_high_water,
        report.in_flight,
        report.in_flight_high_water,
        report.completed,
        report.busy_rejected,
        report.redispatched,
        report.respawns
    );
    for kind in &report.latency {
        println!(
            "  latency {:<9} count={:<6} p50={}us p99={}us max={}us",
            kind.kind,
            kind.latency.count,
            kind.latency.p50_us,
            kind.latency.p99_us,
            kind.latency.max_us
        );
    }
    for stage in &report.stage_latency {
        if stage.latency.count == 0 {
            continue;
        }
        println!(
            "  stage   {:<13} count={:<6} p50={}us p99={}us max={}us",
            stage.kind,
            stage.latency.count,
            stage.latency.p50_us,
            stage.latency.p99_us,
            stage.latency.max_us
        );
    }
    for shard in &report.shards {
        println!(
            "  shard {}: {}{} forwarded={} respawns={} queue_depth={} in_flight={} (hwm {}) \
             completed={} busy_rejected={}",
            shard.index,
            if shard.alive { "alive" } else { "dead" },
            if shard.benched { " (benched)" } else { "" },
            shard.forwarded,
            shard.respawns,
            shard.queue_depth,
            shard.in_flight,
            shard.in_flight_high_water,
            shard.completed,
            shard.busy_rejected
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = match flag_value(&args, "--port-file") {
        Some(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(format!("cannot read --port-file {path}: {e}")))
            .trim()
            .to_string(),
        None => flag_value(&args, "--front")
            .or_else(|| flag_value(&args, "--addr"))
            .unwrap_or_else(|| "127.0.0.1:7878".into()),
    };
    let requests: usize = parsed_flag(&args, "--requests", 16);
    let seed: u64 = parsed_flag(&args, "--seed", 42);
    let verify = args.iter().any(|a| a == "--verify");
    let metrics = args.iter().any(|a| a == "--metrics");
    // `--restart` is boolean-or-valued: bare it rolls the whole tier, with
    // a trailing index it restarts that one shard.
    let restart: Option<Option<usize>> = args.iter().position(|a| a == "--restart").map(|i| {
        args.get(i + 1)
            .filter(|next| !next.starts_with("--"))
            .map(|raw| {
                raw.parse()
                    .unwrap_or_else(|_| fail(format!("invalid --restart shard index {raw}")))
            })
    });
    let shutdown = args.iter().any(|a| a == "--shutdown");
    let stream_params = if args.iter().any(|a| a == "--smoke") {
        RequestStreamParams::smoke()
    } else {
        RequestStreamParams::default()
    };
    let litho = match flag_value(&args, "--litho").as_deref() {
        None | Some("fast") => LithoSpec::fast(),
        Some("default") => LithoSpec::paper(),
        Some(other) => fail(format!("unknown --litho '{other}'")),
    };
    let engine = match flag_value(&args, "--engine").as_deref() {
        None | Some("calibre") => EngineKind::Calibre,
        Some("camo") => EngineKind::Camo { seed: 2024 },
        Some(other) => fail(format!("unknown --engine '{other}'")),
    };
    let job = JobSpec {
        litho,
        layer: Layer::Via,
        engine,
        max_steps: flag_value(&args, "--max-steps").map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| fail(format!("invalid --max-steps {raw}")))
        }),
    };

    let cases = request_stream(&stream_params, seed, requests);
    let mut client =
        Client::connect(&addr).unwrap_or_else(|e| fail(format!("connect {addr}: {e}")));

    let start = Instant::now();
    // id → index of the case it carries (rebuilt on busy retries).
    let mut case_of: BTreeMap<u64, usize> = BTreeMap::new();
    for (index, case) in cases.iter().enumerate() {
        let id = client
            .send(to_body(case, &job))
            .unwrap_or_else(|e| fail(format!("send: {e}")));
        case_of.insert(id, index);
    }

    let mut router = ResponseRouter::new();
    let mut results: BTreeMap<usize, Completed> = BTreeMap::new();
    let mut busy_retries = 0usize;
    // Retry attempt count per case, driving the backoff schedule.
    let mut attempts: BTreeMap<usize, u32> = BTreeMap::new();
    while results.len() < cases.len() {
        let response = match client.recv() {
            Ok(Some(response)) => response,
            Ok(None) => fail("server closed the connection with requests outstanding"),
            Err(e) => fail(format!("recv: {e}")),
        };
        if response.id == 0 {
            // The server could not attribute this failure to a request (a
            // frame never decoded): one of ours will never complete.
            fail(format!(
                "server reported an unattributable failure: {:?}",
                response.body
            ));
        }
        let Some(id) = router.accept(response).unwrap_or_else(|e| fail(e)) else {
            continue;
        };
        let Some(index) = case_of.remove(&id) else {
            continue;
        };
        let Some(completed) = router.take(id) else {
            fail(format!("completed result for request {id} vanished"));
        };
        match completed {
            Completed::Rejected { retry_after_ms } => {
                busy_retries += 1;
                let attempt = attempts.entry(index).or_insert(0);
                std::thread::sleep(busy_backoff(retry_after_ms, *attempt, seed));
                *attempt = attempt.saturating_add(1);
                let new_id = client
                    .send(to_body(&cases[index], &job))
                    .unwrap_or_else(|e| fail(format!("retry send: {e}")));
                case_of.insert(new_id, index);
            }
            done => {
                results.insert(index, done);
            }
        }
    }
    let elapsed = start.elapsed();

    let mut kind_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for case in &cases {
        *kind_counts.entry(case.kind()).or_default() += 1;
    }
    let mix: Vec<String> = kind_counts
        .iter()
        .map(|(k, n)| format!("{n} {k}"))
        .collect();
    println!(
        "camo-client: {} request(s) complete in {:.3}s ({:.2} req/s; {}; {} busy retries)",
        cases.len(),
        elapsed.as_secs_f64(),
        cases.len() as f64 / elapsed.as_secs_f64(),
        mix.join(", "),
        busy_retries
    );

    for (index, completed) in &results {
        if let Completed::Failed(body) = completed {
            fail(format!("request {index} failed: {body:?}"));
        }
    }

    if verify {
        let contexts = ContextCache::new(4);
        for (index, case) in cases.iter().enumerate() {
            let completed = &results[&index];
            if let Err(message) = verify_case(index, case, &job, completed, &contexts) {
                fail(format!("BIT-IDENTITY FAILURE — {message}"));
            }
        }
        println!(
            "camo-client: offline bit-identity verified for all {} request(s)",
            cases.len()
        );
    }

    if let Some(shard) = restart {
        let id = client
            .send(RequestBody::Restart { shard })
            .unwrap_or_else(|e| fail(format!("restart send: {e}")));
        match await_reply(&mut client, id) {
            ResponseBody::Restarted { shards } => {
                println!("camo-client: rolling restart complete, shards {shards:?} reborn");
            }
            other => fail(format!("restart refused: {other:?}")),
        }
    }

    if metrics {
        let id = client
            .send(RequestBody::Metrics)
            .unwrap_or_else(|e| fail(format!("metrics send: {e}")));
        match await_reply(&mut client, id) {
            ResponseBody::Metrics(report) => render_metrics(&report),
            other => fail(format!("unexpected metrics reply: {other:?}")),
        }
    }

    if let Some(path) = flag_value(&args, "--trace-out") {
        let id = client
            .send(RequestBody::Trace)
            .unwrap_or_else(|e| fail(format!("trace send: {e}")));
        match await_reply(&mut client, id) {
            ResponseBody::Trace(report) => {
                let span_count =
                    report.spans.len() + report.shards.iter().map(|s| s.spans.len()).sum::<usize>();
                let dropped = report.dropped + report.shards.iter().map(|s| s.dropped).sum::<u64>();
                std::fs::write(&path, chrome_trace_json(&report))
                    .unwrap_or_else(|e| fail(format!("cannot write --trace-out {path}: {e}")));
                println!(
                    "camo-client: wrote {span_count} span(s) from {} ({} shard report(s), \
                     {dropped} dropped) to {path}",
                    report.role,
                    report.shards.len()
                );
            }
            other => fail(format!("unexpected trace reply: {other:?}")),
        }
    }

    if shutdown {
        let id = client
            .send(RequestBody::Shutdown)
            .unwrap_or_else(|e| fail(format!("shutdown send: {e}")));
        match await_reply(&mut client, id) {
            ResponseBody::ShuttingDown => println!("camo-client: server acknowledged shutdown"),
            other => fail(format!("unexpected shutdown reply: {other:?}")),
        }
    }
}
