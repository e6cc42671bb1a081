//! Performance snapshot of the lithography hot path and the batch runtime.
//!
//! Times the scratch-buffer pipeline against the seed's reference
//! implementation on a paper-style via clip at the default px5
//! configuration, measures multi-clip batch throughput (clips/s at 1, 2
//! and 4 pool threads) over the Table-1 via set — verifying along the way
//! that every batch run is bit-identical to the serial loop — and writes
//! `BENCH_litho.json` (op, mean ns, speedup, batch rows) so regressions
//! are visible across PRs:
//!
//! ```text
//! cargo run --release -p camo-bench --bin perf_snapshot
//! ```
//!
//! `--quick` switches to the fast lithography configuration, skips the
//! slow reference-implementation baselines and does **not** rewrite
//! `BENCH_litho.json`; `--threads N` restricts the batch sweep to one
//! thread count. CI runs `--quick --threads 1` and `--quick --threads 2`
//! on every PR so batch-determinism or throughput regressions surface
//! immediately.
//!
//! The **sparse-refresh row** always runs: it records how many pixels a
//! two-distant-moves incremental step actually re-rasterised vs the dense
//! union dirty window, and exits 1 if the step fell back to a dense
//! refresh.
//!
//! `--layout` adds the layout-scale section (it always runs in full mode):
//! a generated multi-tile layout is swept through the tiler at 1/2 threads
//! (tiles/s, verified bit-identical to whole-layout evaluation — exit 1 on
//! divergence), and the context-reuse speedup of the batch path (one shared
//! `LithoContext`/workspace pool vs a cold per-clip simulator) is measured;
//! both are recorded in `BENCH_litho.json`. CI smokes
//! `--quick --layout --threads 1` alongside the batch runs.
//!
//! `--serve` adds the serving section (also on by default in full mode): a
//! `camo-serve` server is started in-process on an ephemeral port, a
//! deterministic mixed request stream is fired at it over loopback, and
//! end-to-end requests/s is recorded per worker-thread count — plus a
//! queue-saturation probe (no workers, bounded queue) counting
//! typed `busy` rejections. Any failed or missing response exits 1. The
//! section also snapshots the server's `metrics` report and records
//! per-request-kind latency (p50/p99/max µs) — asserting the rows are
//! plausible (every kind the stream exercised has samples, p50 ≤ p99) and
//! exiting 1 otherwise, so the CI `--quick --serve` run is a tail-latency
//! regression gate, not just a throughput print.
//!
//! `--serve --shards N` adds the **router tier**: `N` real `serve` shard
//! processes are spawned (the binary next to this one, i.e.
//! `target/release/serve`), a router fronts them, and the same request
//! stream is measured end-to-end through `router + N shards` — recording
//! router-tier requests/s and the router-overhead-vs-direct ratio into
//! `BENCH_litho.json`. Full mode records shards 1 and 2. Routed responses
//! are checked complete the same way; any failure exits 1.
//!
//! The router section finishes with the **respawn-overhead row**: the same
//! stream is measured through a supervised 2-shard tier twice — untouched,
//! then with a shard killed mid-stream — and the row records both rates,
//! their ratio, and the respawn count the router's `metrics` report shows
//! afterwards (which must be ≥ 1, and every response must still complete;
//! anything else exits 1).

use camo::{CamoConfig, CamoEngine};
use camo_baselines::{OpcConfig, OpcEngine};
use camo_litho::{reference, LithoConfig, LithoSimulator, Tiler};
use camo_runtime::{evaluate_layout, optimize_batch};
use camo_workloads::{via_test_set, LayoutParams};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Core size of the layout-sweep benchmark tiles, nm.
const LAYOUT_TILE_NM: i64 = 1500;

fn mean_ns<F: FnMut()>(mut op: F, iters: usize) -> f64 {
    op(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

struct Row {
    op: &'static str,
    mean_ns: f64,
    reference_ns: Option<f64>,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        self.reference_ns.map(|r| r / self.mean_ns)
    }
}

/// Pixel accounting of one bitmask-sparse incremental refresh with two
/// distant simultaneous moves: the sparse path re-rasterises only the
/// marked spans of the union dirty window.
struct SparseRefreshRow {
    rasterized_pixels: usize,
    dirty_window_pixels: usize,
    sub_windows: usize,
}

impl SparseRefreshRow {
    fn skip_ratio(&self) -> f64 {
        self.dirty_window_pixels as f64 / self.rasterized_pixels.max(1) as f64
    }
}

/// Batch throughput of `optimize_batch` at one pool size.
struct BatchRow {
    threads: usize,
    clips: usize,
    clips_per_s: f64,
}

/// Tiled layout-sweep throughput at one pool size.
struct LayoutRow {
    threads: usize,
    tiles_per_s: f64,
}

/// Context-reuse measurement: the serial batch path with one shared
/// `LithoContext` + workspace pool vs a cold simulator per clip.
struct ContextReuse {
    clips: usize,
    shared_s: f64,
    cold_s: f64,
}

impl ContextReuse {
    fn speedup(&self) -> f64 {
        self.cold_s / self.shared_s
    }
}

/// End-to-end serving throughput at one worker-thread count.
struct ServeRow {
    threads: usize,
    requests: usize,
    requests_per_s: f64,
}

/// Steady vs during-respawn throughput through a supervised router tier,
/// plus the respawn count its `metrics` report shows afterwards.
struct RespawnRow {
    shards: usize,
    requests: usize,
    steady_requests_per_s: f64,
    respawn_requests_per_s: f64,
    respawns: usize,
}

impl RespawnRow {
    fn overhead_vs_steady(&self) -> f64 {
        self.steady_requests_per_s / self.respawn_requests_per_s
    }
}

/// Tracing-plane overhead row: the same stream through an untraced server
/// and one with tracing armed but sampled out — the gate that proves a
/// sampled-out request pays no clock reads on the serving hot path — plus
/// the stage-name coverage a full-sample run recorded.
struct TraceRow {
    requests: usize,
    baseline_requests_per_s: f64,
    sampled_out_requests_per_s: f64,
    stages_observed: usize,
}

impl TraceRow {
    fn overhead_vs_baseline(&self) -> f64 {
        self.baseline_requests_per_s / self.sampled_out_requests_per_s
    }
}

/// Queue-saturation probe: what a burst beyond the queue depth observes.
struct ServeSaturation {
    queue_depth: usize,
    submitted: usize,
    rejected: usize,
    retry_after_ms: u64,
}

/// End-to-end router-tier throughput at one shard count, paired with the
/// direct single-process rate over the *same* multi-configuration stream,
/// so the overhead ratio compares identical workloads.
struct RouterRow {
    shards: usize,
    requests: usize,
    configs: usize,
    requests_per_s: f64,
    direct_requests_per_s: f64,
}

impl RouterRow {
    fn overhead_vs_direct(&self) -> f64 {
        self.direct_requests_per_s / self.requests_per_s
    }
}

/// The `serve` binary the router bench spawns as shards: it is built into
/// the same directory as this snapshot binary.
fn serve_binary() -> Option<std::path::PathBuf> {
    let path = std::env::current_exe().ok()?.with_file_name("serve");
    path.exists().then_some(path)
}

/// The multi-configuration request mix the router rows measure: one
/// lithography configuration per shard, each chosen (by preference order)
/// to land on a distinct shard — a single-configuration stream would keep
/// every shard but one idle and the multi-shard rows meaningless.
fn tagged_cases(
    shards: usize,
    requests: usize,
) -> Vec<(camo_serve::wire::JobSpec, camo_workloads::ServeCase)> {
    use camo_serve::router::shard_preference;
    use camo_serve::wire::{JobSpec, LithoSpec};
    use camo_workloads::{multi_config_stream, RequestStreamParams};

    let litho_for = |px: i64| LithoSpec {
        pixel_size: Some(px),
        ..LithoSpec::fast()
    };
    let mut pixel_sizes: Vec<i64> = Vec::new();
    let mut covered = vec![false; shards];
    for px in 8i64..256 {
        let preferred = shard_preference(litho_for(px).to_config().fingerprint(), shards)[0];
        if !covered[preferred] {
            covered[preferred] = true;
            pixel_sizes.push(px);
        }
        if covered.iter().all(|&c| c) {
            break;
        }
    }
    multi_config_stream(&RequestStreamParams::smoke(), &pixel_sizes, 2024, requests)
        .into_iter()
        .map(|tagged| {
            let job = JobSpec {
                litho: litho_for(tagged.pixel_size),
                max_steps: Some(2),
                ..JobSpec::fast_calibre_via()
            };
            (job, tagged.case)
        })
        .collect()
}

/// Fires `cases` at `addr` and returns the wall-clock seconds; exits 1 on
/// any failed or missing response (after `drain` releases the serving
/// processes, so an exit never orphans spawned shards).
fn fire_cases(
    addr: std::net::SocketAddr,
    cases: &[(camo_serve::wire::JobSpec, camo_workloads::ServeCase)],
    what: &str,
    drain: impl FnOnce(),
) -> f64 {
    use camo_serve::client::{collect_responses, Client, Completed};
    use camo_serve::exec::case_body;

    let mut drain = Some(drain);
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            (drain.take().expect("drain once"))();
            eprintln!("{what}: connect failed: {e}");
            std::process::exit(1);
        }
    };
    let start = Instant::now();
    let ids: Vec<u64> = cases
        .iter()
        .map(|(job, case)| client.send(case_body(case, job)).expect("send"))
        .collect();
    let results = collect_responses(&mut client, &ids).expect("responses");
    let secs = start.elapsed().as_secs_f64();
    let mut regression = None;
    for (id, completed) in &results {
        match completed {
            Completed::Single(_) | Completed::Sweep(_) => {}
            other => {
                regression = Some(format!("request {id} completed as {other:?}"));
                break;
            }
        }
    }
    if results.len() != cases.len() {
        regression = Some(format!("{} of {} responses", results.len(), cases.len()));
    }
    drop(client);
    // Drain before any exit: `process::exit` skips destructors, which
    // would orphan spawned shard processes.
    (drain.take().expect("drain once"))();
    if let Some(what_failed) = regression {
        eprintln!("{what} REGRESSION: {what_failed}");
        std::process::exit(1);
    }
    secs
}

/// Measures the same multi-configuration stream end-to-end twice — through
/// a direct single-process server, then through `router + shards` real
/// serve processes — and reports both rates, so the overhead ratio
/// isolates the routing hop.
fn router_throughput(binary: &std::path::Path, shards: usize, requests: usize) -> RouterRow {
    use camo_serve::router::{route_spawned, RouterConfig};
    use camo_serve::shard::{ShardSet, ShardSpec};
    use camo_serve::{serve, ServerConfig};

    let cases = tagged_cases(shards, requests);
    let configs = shards; // one configuration per shard, by construction

    let direct = serve(ServerConfig {
        threads: 1,
        queue_depth: requests.max(8),
        ..ServerConfig::default()
    })
    .expect("bind direct baseline server");
    let direct_addr = direct.addr();
    let direct_secs = fire_cases(direct_addr, &cases, "DIRECT BENCH", move || {
        direct.shutdown();
    });

    let mut spec = ShardSpec::new(binary);
    spec.args = vec!["--threads".into(), "1".into()];
    let set = ShardSet::spawn(&spec, shards).unwrap_or_else(|e| {
        eprintln!("ROUTER BENCH: shard spawn failed: {e}");
        std::process::exit(1);
    });
    let handle = route_spawned(RouterConfig::default(), set).unwrap_or_else(|e| {
        eprintln!("ROUTER BENCH: router start failed: {e}");
        std::process::exit(1);
    });
    let routed_addr = handle.addr();
    let routed_secs = fire_cases(routed_addr, &cases, "ROUTER BENCH", move || {
        handle.shutdown();
    });

    RouterRow {
        shards,
        requests,
        configs,
        requests_per_s: requests as f64 / routed_secs,
        direct_requests_per_s: requests as f64 / direct_secs,
    }
}

/// Sends one `metrics` request on an already-connected client and blocks
/// for the report (control requests are answered inline by the reader).
fn fetch_metrics(client: &mut camo_serve::Client, what: &str) -> camo_serve::MetricsReport {
    use camo_serve::wire::{RequestBody, ResponseBody};
    let id = match client.send(RequestBody::Metrics) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("{what}: metrics send failed: {e}");
            std::process::exit(1);
        }
    };
    loop {
        match client.recv() {
            Ok(Some(response)) if response.id == id => match response.body {
                ResponseBody::Metrics(report) => return report,
                other => {
                    eprintln!("{what}: unexpected metrics reply: {other:?}");
                    std::process::exit(1);
                }
            },
            Ok(Some(_)) => continue,
            Ok(None) => {
                eprintln!("{what}: eof while awaiting metrics");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("{what}: metrics recv failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Asserts the per-kind latency rows a serving process reported are
/// plausible: every kind the stream exercised has samples, and within each
/// row `count > 0`, `p50 ≤ p99` and `p99 ≥ 1 µs`. Exits 1 otherwise — this
/// is what makes the CI `--quick --serve` run a tail-latency gate.
fn validate_latency(latency: &[camo_serve::KindLatency], expected_kinds: &[&str], what: &str) {
    for row in latency {
        let s = &row.latency;
        if s.count == 0 || s.p50_us > s.p99_us || s.p99_us == 0 {
            eprintln!("{what} REGRESSION: implausible latency row {row:?}");
            std::process::exit(1);
        }
    }
    for kind in expected_kinds {
        if !latency.iter().any(|row| row.kind == *kind) {
            eprintln!("{what} REGRESSION: stream exercised `{kind}` but no latency row for it");
            std::process::exit(1);
        }
    }
}

/// Fires `requests` mixed requests at an in-process server with `threads`
/// batch workers and returns the end-to-end rate plus the server's
/// per-kind latency rows (validated); exits 1 on any failed or missing
/// response.
fn serve_throughput(threads: usize, requests: usize) -> (ServeRow, Vec<camo_serve::KindLatency>) {
    use camo_serve::client::{collect_responses, Client, Completed};
    use camo_serve::exec::case_body;
    use camo_serve::wire::JobSpec;
    use camo_serve::{serve, ServerConfig};
    use camo_workloads::{request_stream, RequestStreamParams};

    let handle = serve(ServerConfig {
        threads,
        queue_depth: requests.max(8),
        ..ServerConfig::default()
    })
    .expect("bind serve bench server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let job = JobSpec {
        max_steps: Some(2),
        ..JobSpec::fast_calibre_via()
    };
    // Seed 2: its smoke stream mixes optimize/evaluate/sweep even in the
    // 12-request quick prefix, so the per-kind latency gate below covers
    // every kind in CI and not just the majority one.
    let cases = request_stream(&RequestStreamParams::smoke(), 2, requests);
    let start = Instant::now();
    let ids: Vec<u64> = cases
        .iter()
        .map(|case| client.send(case_body(case, &job)).expect("send"))
        .collect();
    let results = collect_responses(&mut client, &ids).expect("responses");
    let secs = start.elapsed().as_secs_f64();
    for (id, completed) in &results {
        match completed {
            Completed::Single(_) | Completed::Sweep(_) => {}
            other => {
                eprintln!("SERVE REGRESSION: request {id} completed as {other:?}");
                std::process::exit(1);
            }
        }
    }
    if results.len() != cases.len() {
        eprintln!(
            "SERVE REGRESSION: {} of {} responses",
            results.len(),
            cases.len()
        );
        std::process::exit(1);
    }
    let report = fetch_metrics(&mut client, "SERVE BENCH");
    let exercised: Vec<&str> = {
        let mut kinds: Vec<&str> = cases.iter().map(|c| c.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    };
    validate_latency(&report.latency, &exercised, "SERVE BENCH");
    handle.shutdown();
    (
        ServeRow {
            threads,
            requests,
            requests_per_s: requests as f64 / secs,
        },
        report.latency,
    )
}

/// Measures the respawn-overhead row: the same multi-configuration stream
/// through a supervised 2-shard router tier, untouched and then with a
/// shard killed mid-stream, waiting for the supervisor to respawn the
/// victim before reading the tier's respawn count from `metrics`.
fn respawn_overhead(binary: &std::path::Path, requests: usize) -> RespawnRow {
    use camo_serve::client::{collect_responses, Client, Completed};
    use camo_serve::exec::case_body;
    use camo_serve::router::{route_spawned, RouterConfig};
    use camo_serve::shard::{ShardSet, ShardSpec};
    use camo_serve::supervise::RespawnPolicy;
    use std::time::Duration;

    let shards = 2usize;
    let cases = tagged_cases(shards, requests);
    let mut spec = ShardSpec::new(binary);
    spec.args = vec!["--threads".into(), "1".into()];
    let set = ShardSet::spawn(&spec, shards).unwrap_or_else(|e| {
        eprintln!("RESPAWN BENCH: shard spawn failed: {e}");
        std::process::exit(1);
    });
    let handle = route_spawned(
        RouterConfig {
            probe_interval: Duration::from_millis(20),
            respawn: RespawnPolicy {
                initial_backoff: Duration::from_millis(50),
                max_backoff: Duration::from_millis(500),
                // The deliberate kill must not bench the victim.
                breaker_failures: 10_000,
                ..RespawnPolicy::default()
            },
            ..RouterConfig::default()
        },
        set,
    )
    .unwrap_or_else(|e| {
        eprintln!("RESPAWN BENCH: router start failed: {e}");
        std::process::exit(1);
    });

    // One closure measures a full stream pass; `kill` injects the failure
    // after half the stream is on the wire. Failures are returned, not
    // exited on: `process::exit` skips destructors, and the tier must be
    // drained first or the spawned shards would be orphaned.
    let run_pass = |kill: bool| -> Result<f64, String> {
        let mut client =
            Client::connect(handle.addr()).map_err(|e| format!("connect failed: {e}"))?;
        let start = Instant::now();
        let mut ids: Vec<u64> = Vec::new();
        for (i, (job, case)) in cases.iter().enumerate() {
            if kill && i == cases.len() / 2 {
                handle
                    .kill_shard(0)
                    .map_err(|e| format!("kill shard 0 failed: {e}"))?;
            }
            ids.push(
                client
                    .send(case_body(case, job))
                    .map_err(|e| format!("send failed: {e}"))?,
            );
        }
        let results =
            collect_responses(&mut client, &ids).map_err(|e| format!("responses: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        for (id, completed) in &results {
            match completed {
                Completed::Single(_) | Completed::Sweep(_) => {}
                other => return Err(format!("request {id} completed as {other:?}")),
            }
        }
        Ok(secs)
    };
    // The victim must come back before the tier is torn down — the row is
    // only evidence of self-healing if the respawn actually happened.
    let await_respawn = || -> Result<usize, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let report = handle.metrics();
            if report.shards.iter().all(|s| s.alive) && report.respawns >= 1 {
                return Ok(report.respawns);
            }
            if Instant::now() >= deadline {
                return Err(format!("killed shard never respawned: {report:?}"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    let outcome = run_pass(false)
        .map_err(|e| format!("steady pass: {e}"))
        .and_then(|steady| {
            let respawn = run_pass(true).map_err(|e| format!("kill pass: {e}"))?;
            Ok((steady, respawn, await_respawn()?))
        });
    handle.shutdown();
    let (steady_secs, respawn_secs, respawns) = outcome.unwrap_or_else(|e| {
        eprintln!("RESPAWN BENCH REGRESSION: {e}");
        std::process::exit(1);
    });

    RespawnRow {
        shards,
        requests,
        steady_requests_per_s: requests as f64 / steady_secs,
        respawn_requests_per_s: requests as f64 / respawn_secs,
        respawns,
    }
}

/// Measures the tracing plane: a full-sample run (`trace_sample: 1`) must
/// record every server-side lifecycle stage in its flight recorder (exit 1
/// on any missing stage — the timeline is only useful if it is complete),
/// and the overhead row compares an untraced server against one with
/// tracing armed but sampled out (`trace_sample` far above the request
/// count). The sampled-out path is gated: every span clock read is behind
/// a `trace.is_some()` check, so the ratio must stay near 1 — more than
/// 1.4x is a regression and exits 1 (the bound is lenient because quick
/// CI runs measure a dozen requests on a shared box).
fn trace_overhead(requests: usize) -> TraceRow {
    use camo_serve::client::{collect_responses, Client, Completed};
    use camo_serve::exec::case_body;
    use camo_serve::wire::{JobSpec, RequestBody, ResponseBody};
    use camo_serve::{serve, ServerConfig};
    use camo_workloads::{request_stream, RequestStreamParams};

    let job = JobSpec {
        max_steps: Some(2),
        ..JobSpec::fast_calibre_via()
    };
    let cases = request_stream(&RequestStreamParams::smoke(), 2, requests);
    let run_pass = |trace_sample: u64, pull_stages: bool| -> (f64, Vec<String>) {
        let handle = serve(ServerConfig {
            threads: 1,
            queue_depth: requests.max(8),
            trace_sample,
            ..ServerConfig::default()
        })
        .expect("bind trace bench server");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let start = Instant::now();
        let ids: Vec<u64> = cases
            .iter()
            .map(|case| client.send(case_body(case, &job)).expect("send"))
            .collect();
        let results = collect_responses(&mut client, &ids).expect("responses");
        let secs = start.elapsed().as_secs_f64();
        for (id, completed) in &results {
            match completed {
                Completed::Single(_) | Completed::Sweep(_) => {}
                other => {
                    eprintln!("TRACE BENCH REGRESSION: request {id} completed as {other:?}");
                    std::process::exit(1);
                }
            }
        }
        let mut stages = Vec::new();
        if pull_stages {
            let id = client.send(RequestBody::Trace).expect("trace send");
            loop {
                match client.recv() {
                    Ok(Some(response)) if response.id == id => match response.body {
                        ResponseBody::Trace(report) => {
                            stages = report.spans.iter().map(|s| s.stage.clone()).collect();
                            stages.sort_unstable();
                            stages.dedup();
                            break;
                        }
                        other => {
                            eprintln!("TRACE BENCH: unexpected trace reply: {other:?}");
                            std::process::exit(1);
                        }
                    },
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => {
                        eprintln!("TRACE BENCH: connection lost awaiting the trace pull");
                        std::process::exit(1);
                    }
                }
            }
        }
        handle.shutdown();
        (secs, stages)
    };

    // Full-sample pass: the stage-coverage evidence.
    let (_, stages) = run_pass(1, true);
    for expected in [
        "admit",
        "shard-queue",
        "plan",
        "context-fetch",
        "rasterize",
        "convolve",
        "resist",
        "epe",
        "pv-band",
        "encode",
        "write",
    ] {
        if !stages.iter().any(|s| s == expected) {
            eprintln!(
                "TRACE BENCH REGRESSION: full-sample run recorded no `{expected}` span \
                 (stages seen: {stages:?})"
            );
            std::process::exit(1);
        }
    }

    // Overhead passes, interleaved and best-of-two so one scheduler hiccup
    // cannot fail the gate in either direction.
    let mut baseline_secs = f64::INFINITY;
    let mut sampled_out_secs = f64::INFINITY;
    for _ in 0..2 {
        baseline_secs = baseline_secs.min(run_pass(0, false).0);
        sampled_out_secs = sampled_out_secs.min(run_pass(1_000_000, false).0);
    }
    let row = TraceRow {
        requests,
        baseline_requests_per_s: requests as f64 / baseline_secs,
        sampled_out_requests_per_s: requests as f64 / sampled_out_secs,
        stages_observed: stages.len(),
    };
    if row.overhead_vs_baseline() > 1.4 {
        eprintln!(
            "TRACE OVERHEAD REGRESSION: sampled-out tracing costs {:.2}x vs untraced \
             ({:.2} vs {:.2} req/s) — the disabled path must stay clock-free",
            row.overhead_vs_baseline(),
            row.sampled_out_requests_per_s,
            row.baseline_requests_per_s
        );
        std::process::exit(1);
    }
    row
}

/// Saturates a worker-less server and counts the typed rejections: a
/// burst of `queue_depth + overflow` requests must yield exactly `overflow`
/// `busy` responses carrying the retry hint.
fn serve_saturation(queue_depth: usize, overflow: usize) -> ServeSaturation {
    use camo_serve::client::{collect_responses, Client, Completed};
    use camo_serve::exec::case_body;
    use camo_serve::wire::JobSpec;
    use camo_serve::{serve, ServerConfig};
    use camo_workloads::{request_stream, RequestStreamParams};

    let retry_after_ms = 50;
    let handle = serve(ServerConfig {
        queue_depth,
        threads: 0,
        retry_after_ms,
        ..ServerConfig::default()
    })
    .expect("bind saturation server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let job = JobSpec {
        max_steps: Some(1),
        ..JobSpec::fast_calibre_via()
    };
    let submitted = queue_depth + overflow;
    let cases = request_stream(&RequestStreamParams::smoke(), 7, submitted);
    let ids: Vec<u64> = cases
        .iter()
        .map(|case| client.send(case_body(case, &job)).expect("send"))
        .collect();
    // Only the overflow requests respond (with busy); the queued ones are
    // answered `shutting_down` when the server drains at shutdown.
    let rejected_ids = &ids[queue_depth..];
    let results = collect_responses(&mut client, rejected_ids).expect("rejections");
    let rejected = results
        .values()
        .filter(|c| matches!(c, Completed::Rejected { .. }))
        .count();
    if rejected != overflow {
        eprintln!("SERVE REGRESSION: {rejected} busy rejections, expected {overflow}");
        std::process::exit(1);
    }
    handle.shutdown();
    ServeSaturation {
        queue_depth,
        submitted,
        rejected,
        retry_after_ms,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let layout_mode = std::env::args().any(|a| a == "--layout") || !quick;
    let serve_mode = std::env::args().any(|a| a == "--serve") || !quick;
    let only_threads = std::env::args().any(|a| a == "--threads");
    let thread_counts: Vec<usize> = if only_threads {
        // 0 keeps its documented "all hardware threads" meaning; the row is
        // labelled with the resolved count.
        let requested = camo_bench::threads_from_args();
        vec![if requested == 0 {
            camo_runtime::available_threads()
        } else {
            requested
        }]
    } else {
        vec![1, 2, 4]
    };

    let case = &via_test_set()[0];
    // The px5 configuration of the tables, or the fast configuration for CI.
    let config = if quick {
        LithoConfig::fast()
    } else {
        LithoConfig::default()
    };
    let guard = config.guard_band_nm();
    let sim = LithoSimulator::new(config.clone());
    let opc = OpcConfig::via_layer();
    let mask = opc.initial_mask(&case.clip);
    let iters = if quick { 5 } else { 20 };

    let mut rows: Vec<Row> = Vec::new();

    // Mask rasterisation: analytic coverage vs 1 nm fine grid + downsample.
    rows.push(Row {
        op: "rasterize",
        mean_ns: mean_ns(
            || {
                black_box(camo_litho::rasterize_mask(&mask, config.pixel_size, guard));
            },
            iters,
        ),
        reference_ns: (!quick).then(|| {
            mean_ns(
                || {
                    black_box(reference::rasterize_mask(&mask, config.pixel_size, guard));
                },
                iters,
            )
        }),
    });

    // Full evaluation (nominal EPE + PV band).
    rows.push(Row {
        op: "evaluate",
        mean_ns: mean_ns(
            || {
                black_box(sim.evaluate(&mask));
            },
            iters,
        ),
        reference_ns: (!quick).then(|| {
            mean_ns(
                || {
                    black_box(reference::evaluate(&config, &mask, guard));
                },
                iters,
            )
        }),
    });

    // Stateless EPE-only evaluation.
    rows.push(Row {
        op: "evaluate_epe",
        mean_ns: mean_ns(
            || {
                black_box(sim.evaluate_epe(&mask));
            },
            iters,
        ),
        reference_ns: (!quick).then(|| {
            mean_ns(
                || {
                    black_box(reference::evaluate_epe(&config, &mask, guard));
                },
                iters,
            )
        }),
    });

    // The per-step inner-loop cost: move every segment, re-measure EPE.
    // Incremental session vs the seed loop's full re-evaluation.
    let n = mask.segment_count();
    let step_moves = [vec![1i64; n], vec![-1i64; n]];
    let mut session = sim.evaluator(&mask);
    let _ = session.epe();
    let mut flip = 0usize;
    let incremental_ns = mean_ns(
        || {
            session.apply_moves(&step_moves[flip % 2]);
            flip += 1;
            black_box(session.epe());
        },
        iters,
    );
    let reference_step_ns = (!quick).then(|| {
        let mut seed_mask = mask.clone();
        let mut flip_ref = 0usize;
        mean_ns(
            || {
                seed_mask.apply_moves(&step_moves[flip_ref % 2]);
                flip_ref += 1;
                black_box(reference::evaluate_epe(&config, &seed_mask, guard));
            },
            iters,
        )
    });
    rows.push(Row {
        op: "evaluate_epe_incremental_step",
        mean_ns: incremental_ns,
        reference_ns: reference_step_ns,
    });

    // One CAMO engine step end-to-end (decide + move + re-evaluate),
    // recorded for trend tracking (no seed equivalent to compare against).
    let mut engine_opc = opc.clone();
    engine_opc.max_steps = 1;
    engine_opc.early_exit_epe = 0.0;
    let mut engine = CamoEngine::new(engine_opc, CamoConfig::fast());
    rows.push(Row {
        op: "camo_optimize_step",
        mean_ns: mean_ns(
            || {
                black_box(engine.optimize(&case.clip, &sim));
            },
            5,
        ),
        reference_ns: None,
    });

    // Sparse-refresh accounting: two vias at opposite ends of a wide clip,
    // all segments moved at once — the bitmask-sparse refresh must touch
    // far fewer pixels than the dense union dirty window spans.
    let sparse_refresh = {
        let mut wide = camo_geometry::Clip::new(camo_geometry::Rect::new(0, 0, 8000, 1000));
        wide.add_target(camo_geometry::Rect::new(200, 465, 270, 535).to_polygon());
        wide.add_target(camo_geometry::Rect::new(7700, 465, 7770, 535).to_polygon());
        let wide_mask = opc.initial_mask(&wide);
        let mut session = sim.evaluator(&wide_mask);
        let all_outward = vec![1; wide_mask.segment_count()];
        session.apply_moves(&all_outward);
        let stats = session.last_refresh_stats();
        if stats.full || stats.rasterized_pixels >= stats.dirty_window_pixels {
            eprintln!(
                "SPARSE REFRESH REGRESSION: distant moves fell back to a dense refresh: {stats:?}"
            );
            std::process::exit(1);
        }
        SparseRefreshRow {
            rasterized_pixels: stats.rasterized_pixels,
            dirty_window_pixels: stats.dirty_window_pixels,
            sub_windows: stats.sub_windows,
        }
    };

    // Batch throughput over the full via test set: clips/s per pool size,
    // with every run checked bit-identical to the serial loop.
    let clips: Vec<camo_geometry::Clip> = via_test_set().iter().map(|c| c.clip.clone()).collect();
    let mut batch_opc = opc.clone();
    if quick {
        batch_opc.max_steps = 2;
    }
    let batch_engine = CamoEngine::new(batch_opc, CamoConfig::fast());
    let serial: Vec<_> = clips
        .iter()
        .map(|clip| batch_engine.clone().optimize(clip, &sim))
        .collect();
    let mut batch_rows: Vec<BatchRow> = Vec::new();
    for &threads in &thread_counts {
        let start = Instant::now();
        let outcomes = optimize_batch(&batch_engine, &clips, &sim, threads);
        let secs = start.elapsed().as_secs_f64();
        for (i, (parallel, reference)) in outcomes.iter().zip(&serial).enumerate() {
            let same = parallel.mask.offsets() == reference.mask.offsets()
                && parallel.result.epe.per_point == reference.result.epe.per_point
                && parallel.result.pv_band.to_bits() == reference.result.pv_band.to_bits();
            if !same {
                eprintln!(
                    "DETERMINISM REGRESSION: optimize_batch with {threads} threads diverged \
                     from the serial loop on clip {i}"
                );
                std::process::exit(1);
            }
        }
        batch_rows.push(BatchRow {
            threads,
            clips: clips.len(),
            clips_per_s: clips.len() as f64 / secs,
        });
    }

    // Layout-scale section: tiled sweep throughput (verified bit-identical
    // to whole-layout evaluation) plus the context-reuse speedup of the
    // batch path.
    let mut layout_rows: Vec<LayoutRow> = Vec::new();
    let mut layout_meta: Option<(String, usize, usize, i64)> = None;
    let mut context_reuse: Option<ContextReuse> = None;
    if layout_mode {
        let params = if quick {
            LayoutParams::smoke()
        } else {
            LayoutParams::default()
        };
        let layout_case = camo_workloads::generate_layout("Lbench", &params, 9002);
        let layout_mask = layout_case.initial_mask();
        let tiler = Tiler::new(LAYOUT_TILE_NM);
        let whole = sim.evaluate(&layout_mask);
        let layout_threads: Vec<usize> = if only_threads {
            thread_counts.clone()
        } else {
            vec![1, 2]
        };
        for &threads in &layout_threads {
            let start = Instant::now();
            let report = evaluate_layout(&sim, &layout_mask, &tiler, threads);
            let secs = start.elapsed().as_secs_f64();
            let epe_same = report.epe.per_point.len() == whole.epe.per_point.len()
                && report
                    .epe
                    .per_point
                    .iter()
                    .zip(&whole.epe.per_point)
                    .all(|(t, w)| t.to_bits() == w.to_bits());
            if !epe_same || report.pv_band.to_bits() != whole.pv_band.to_bits() {
                eprintln!(
                    "TILING REGRESSION: tiled layout sweep with {threads} threads diverged \
                     from whole-layout evaluation"
                );
                std::process::exit(1);
            }
            layout_meta = Some((
                layout_case.clip.name().to_string(),
                layout_case.via_count,
                report.tiles,
                tiler.tile_nm(),
            ));
            layout_rows.push(LayoutRow {
                threads,
                tiles_per_s: report.tiles as f64 / secs,
            });
        }

        // Context reuse on the batch evaluation path: one shared simulator
        // (context built once, workspaces pooled) sweeping every clip, vs a
        // cold `LithoSimulator::new` per evaluation — which is what every
        // session effectively paid before the shared-context refactor
        // (per-session tap derivation + workspace allocation).
        let eval_masks: Vec<camo_geometry::MaskState> = via_test_set()
            .iter()
            .map(|c| opc.initial_mask(&c.clip))
            .collect();
        // Quick smoke keeps the timed work small; the full run averages
        // more reps since its numbers are persisted into BENCH_litho.json.
        let reps = if quick { 3 } else { 5 };
        for m in &eval_masks {
            let _ = black_box(sim.evaluate(m)); // warm the pool
        }
        let start = Instant::now();
        for _ in 0..reps {
            for m in &eval_masks {
                let _ = black_box(sim.evaluate(m));
            }
        }
        let shared_s = start.elapsed().as_secs_f64() / reps as f64;
        let start = Instant::now();
        for _ in 0..reps {
            for m in &eval_masks {
                let cold_sim = LithoSimulator::new(config.clone());
                let _ = black_box(cold_sim.evaluate(m));
            }
        }
        let cold_s = start.elapsed().as_secs_f64() / reps as f64;
        context_reuse = Some(ContextReuse {
            clips: eval_masks.len(),
            shared_s,
            cold_s,
        });
    }

    // Serving section: end-to-end requests/s over loopback per worker-thread
    // count, plus the queue-saturation probe.
    let mut serve_rows: Vec<ServeRow> = Vec::new();
    let mut serve_latency: Vec<camo_serve::KindLatency> = Vec::new();
    let mut serve_sat: Option<ServeSaturation> = None;
    let mut trace_row: Option<TraceRow> = None;
    let mut router_rows: Vec<RouterRow> = Vec::new();
    let mut respawn_row: Option<RespawnRow> = None;
    let args: Vec<String> = std::env::args().collect();
    let shards_flag = args.iter().any(|a| a == "--shards");
    if serve_mode {
        let serve_threads: Vec<usize> = if only_threads {
            thread_counts.clone()
        } else {
            vec![1, 2]
        };
        let requests = if quick { 12 } else { 32 };
        for &threads in &serve_threads {
            let (row, latency) = serve_throughput(threads, requests);
            serve_rows.push(row);
            // The persisted latency rows come from the first (1-thread in
            // full mode) run; every run's rows were validated regardless.
            if serve_latency.is_empty() {
                serve_latency = latency;
            }
        }
        serve_sat = Some(serve_saturation(4, 4));
        trace_row = Some(trace_overhead(requests));

        // Router tier: explicit `--shards N`, or shard counts 1 and 2 in
        // full mode (where the rows are persisted).
        let shard_counts: Vec<usize> = if shards_flag {
            vec![camo_serve::cli::parsed_flag(&args, "--shards", 1usize)]
        } else if quick {
            Vec::new()
        } else {
            vec![1, 2]
        };
        if !shard_counts.is_empty() {
            match serve_binary() {
                Some(binary) => {
                    for &shards in &shard_counts {
                        router_rows.push(router_throughput(&binary, shards, requests));
                    }
                    respawn_row = Some(respawn_overhead(&binary, requests));
                }
                None if shards_flag => {
                    eprintln!(
                        "ROUTER BENCH: no `serve` binary next to perf_snapshot — \
                         run `cargo build --release -p camo-serve` first"
                    );
                    std::process::exit(1);
                }
                None => {
                    eprintln!(
                        "router rows skipped: no `serve` binary next to perf_snapshot \
                         (cargo build --release -p camo-serve)"
                    );
                }
            }
        }
    }

    // Human-readable report.
    println!(
        "perf snapshot — clip {} ({} segments), px{} guard {} nm",
        case.clip.name(),
        n,
        config.pixel_size,
        guard
    );
    for row in &rows {
        match row.speedup() {
            Some(s) => println!(
                "{:32} {:>14.0} ns  (reference {:>14.0} ns, speedup {:.1}x)",
                row.op,
                row.mean_ns,
                row.reference_ns.unwrap_or(0.0),
                s
            ),
            None => println!("{:32} {:>14.0} ns", row.op, row.mean_ns),
        }
    }
    println!(
        "sparse refresh: {} px rasterized of {} px dense dirty window ({} sub-windows, {:.1}x skip)",
        sparse_refresh.rasterized_pixels,
        sparse_refresh.dirty_window_pixels,
        sparse_refresh.sub_windows,
        sparse_refresh.skip_ratio()
    );
    // Speedups are only meaningful against a measured 1-thread row.
    let serial_rate = batch_rows
        .iter()
        .find(|b| b.threads == 1)
        .map(|b| b.clips_per_s);
    for b in &batch_rows {
        let vs_serial = serial_rate
            .map(|s| format!(", {:.2}x vs 1 thread", b.clips_per_s / s))
            .unwrap_or_default();
        println!(
            "optimize_batch {:>2} thread(s)       {:>8.2} clips/s over {} clips (bit-identical to serial){}",
            b.threads, b.clips_per_s, b.clips, vs_serial
        );
    }
    if let Some((name, vias, tiles, tile_nm)) = &layout_meta {
        println!("layout sweep — {name} ({vias} vias, {tiles} tiles @ {tile_nm} nm cores)");
        let layout_serial = layout_rows
            .iter()
            .find(|r| r.threads == 1)
            .map(|r| r.tiles_per_s);
        for r in &layout_rows {
            let vs_serial = layout_serial
                .map(|s| format!(", {:.2}x vs 1 thread", r.tiles_per_s / s))
                .unwrap_or_default();
            println!(
                "evaluate_layout {:>2} thread(s)      {:>8.2} tiles/s (bit-identical to whole layout){}",
                r.threads, r.tiles_per_s, vs_serial
            );
        }
    }
    if let Some(cr) = &context_reuse {
        println!(
            "context reuse (batch evaluate, {} clips): shared {:.4}s vs cold-per-clip {:.4}s ({:.2}x)",
            cr.clips,
            cr.shared_s,
            cr.cold_s,
            cr.speedup()
        );
    }
    let serve_serial = serve_rows
        .iter()
        .find(|r| r.threads == 1)
        .map(|r| r.requests_per_s);
    for r in &serve_rows {
        let vs_serial = serve_serial
            .map(|s| format!(", {:.2}x vs 1 thread", r.requests_per_s / s))
            .unwrap_or_default();
        println!(
            "serve end-to-end {:>2} thread(s)     {:>8.2} req/s over {} mixed requests{}",
            r.threads, r.requests_per_s, r.requests, vs_serial
        );
    }
    for row in &serve_latency {
        println!(
            "serve latency {:<9}            count={:<6} p50={}us p99={}us max={}us",
            row.kind, row.latency.count, row.latency.p50_us, row.latency.p99_us, row.latency.max_us
        );
    }
    if let Some(sat) = &serve_sat {
        println!(
            "serve saturation: {} requests into queue depth {} -> {} typed busy rejections (retry_after {} ms)",
            sat.submitted, sat.queue_depth, sat.rejected, sat.retry_after_ms
        );
    }
    if let Some(t) = &trace_row {
        println!(
            "trace overhead: sampled-out {:.2} req/s vs untraced {:.2} req/s ({:.2}x, gate 1.40x); \
             full-sample run recorded {} distinct stage(s)",
            t.sampled_out_requests_per_s,
            t.baseline_requests_per_s,
            t.overhead_vs_baseline(),
            t.stages_observed
        );
    }
    for r in &router_rows {
        println!(
            "router end-to-end {:>2} shard(s) {:>8.2} req/s over {} mixed requests across {} config(s), \
             {:.2}x overhead vs direct ({:.2} req/s) on the same stream",
            r.shards,
            r.requests_per_s,
            r.requests,
            r.configs,
            r.overhead_vs_direct(),
            r.direct_requests_per_s
        );
    }
    if let Some(r) = &respawn_row {
        println!(
            "router kill/respawn {:>2} shard(s)  {:>8.2} req/s with a shard killed mid-stream vs \
             {:.2} req/s steady ({:.2}x overhead), {} respawn(s), every response complete",
            r.shards,
            r.respawn_requests_per_s,
            r.steady_requests_per_s,
            r.overhead_vs_steady(),
            r.respawns
        );
    }

    if quick {
        println!("\nquick mode: BENCH_litho.json left untouched");
        return;
    }

    // Machine-readable report.
    let mut json = String::from("{\n  \"bench\": \"litho_hot_path\",\n");
    let _ = writeln!(json, "  \"clip\": \"{}\",", case.clip.name());
    let _ = writeln!(json, "  \"pixel_size_nm\": {},", config.pixel_size);
    let _ = writeln!(json, "  \"guard_band_nm\": {},", guard);
    let _ = writeln!(json, "  \"segments\": {},", n);
    json.push_str("  \"ops\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"op\": \"{}\", \"mean_ns\": {:.0}, \"reference_mean_ns\": {}, \"speedup\": {}}}",
            row.op,
            row.mean_ns,
            row.reference_ns
                .map_or("null".to_string(), |r| format!("{r:.0}")),
            row.speedup().map_or("null".to_string(), |s| format!("{s:.2}")),
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"sparse_refresh\": {{\"op\": \"apply_moves_distant_pair\", \"rasterized_pixels\": {}, \"dirty_window_pixels\": {}, \"sub_windows\": {}, \"skip_ratio\": {:.2}}},",
        sparse_refresh.rasterized_pixels,
        sparse_refresh.dirty_window_pixels,
        sparse_refresh.sub_windows,
        sparse_refresh.skip_ratio()
    );
    json.push_str("  \"batch\": [\n");
    for (i, b) in batch_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"op\": \"optimize_batch\", \"threads\": {}, \"clips\": {}, \"clips_per_s\": {:.3}, \"speedup_vs_1_thread\": {}}}",
            b.threads,
            b.clips,
            b.clips_per_s,
            serial_rate.map_or("null".to_string(), |s| format!(
                "{:.2}",
                b.clips_per_s / s
            )),
        );
        json.push_str(if i + 1 < batch_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    if let Some((name, vias, tiles, tile_nm)) = &layout_meta {
        let layout_serial = layout_rows
            .iter()
            .find(|r| r.threads == 1)
            .map(|r| r.tiles_per_s);
        let _ = writeln!(
            json,
            "  \"layout\": {{\"name\": \"{name}\", \"vias\": {vias}, \"tiles\": {tiles}, \"tile_nm\": {tile_nm}, \"bit_identical_to_whole_layout\": true, \"rows\": ["
        );
        for (i, r) in layout_rows.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"op\": \"evaluate_layout\", \"threads\": {}, \"tiles_per_s\": {:.3}, \"speedup_vs_1_thread\": {}}}",
                r.threads,
                r.tiles_per_s,
                layout_serial.map_or("null".to_string(), |s| format!("{:.2}", r.tiles_per_s / s)),
            );
            json.push_str(if i + 1 < layout_rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        json.push_str("  ]},\n");
    }
    if let Some(cr) = &context_reuse {
        let _ = writeln!(
            json,
            "  \"context_reuse\": {{\"op\": \"evaluate_batch_serial\", \"clips\": {}, \"shared_context_s\": {:.4}, \"cold_context_per_clip_s\": {:.4}, \"speedup\": {:.2}}},",
            cr.clips,
            cr.shared_s,
            cr.cold_s,
            cr.speedup()
        );
    } else {
        json.push_str("  \"context_reuse\": null,\n");
    }
    if serve_rows.is_empty() && serve_sat.is_none() {
        json.push_str("  \"serve\": null\n");
    } else {
        json.push_str("  \"serve\": {\"rows\": [\n");
        for (i, r) in serve_rows.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"op\": \"serve_end_to_end\", \"threads\": {}, \"requests\": {}, \"requests_per_s\": {:.3}, \"speedup_vs_1_thread\": {}}}",
                r.threads,
                r.requests,
                r.requests_per_s,
                serve_serial.map_or("null".to_string(), |s| format!(
                    "{:.2}",
                    r.requests_per_s / s
                )),
            );
            json.push_str(if i + 1 < serve_rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        json.push_str("  ],\n  \"latency\": [\n");
        for (i, row) in serve_latency.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"kind\": \"{}\", \"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                row.kind, row.latency.count, row.latency.p50_us, row.latency.p99_us, row.latency.max_us,
            );
            json.push_str(if i + 1 < serve_latency.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        json.push_str("  ],\n");
        match &trace_row {
            Some(t) => {
                let _ = writeln!(
                    json,
                    "  \"trace\": {{\"op\": \"trace_sampled_out_overhead\", \"requests\": {}, \"baseline_requests_per_s\": {:.3}, \"sampled_out_requests_per_s\": {:.3}, \"overhead_vs_baseline\": {:.2}, \"stages_observed\": {}}},",
                    t.requests,
                    t.baseline_requests_per_s,
                    t.sampled_out_requests_per_s,
                    t.overhead_vs_baseline(),
                    t.stages_observed
                );
            }
            None => json.push_str("  \"trace\": null,\n"),
        }
        if router_rows.is_empty() {
            json.push_str("  \"router\": null,\n");
        } else {
            json.push_str("  \"router\": [\n");
            for (i, r) in router_rows.iter().enumerate() {
                let _ = write!(
                    json,
                    "    {{\"op\": \"router_end_to_end\", \"shards\": {}, \"configs\": {}, \"requests\": {}, \"requests_per_s\": {:.3}, \"direct_requests_per_s\": {:.3}, \"overhead_vs_direct\": {:.2}}}",
                    r.shards,
                    r.configs,
                    r.requests,
                    r.requests_per_s,
                    r.direct_requests_per_s,
                    r.overhead_vs_direct(),
                );
                json.push_str(if i + 1 < router_rows.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            json.push_str("  ],\n");
        }
        match &respawn_row {
            Some(r) => {
                let _ = writeln!(
                    json,
                    "  \"respawn\": {{\"op\": \"router_kill_respawn\", \"shards\": {}, \"requests\": {}, \"steady_requests_per_s\": {:.3}, \"respawn_requests_per_s\": {:.3}, \"overhead_vs_steady\": {:.2}, \"respawns\": {}}},",
                    r.shards,
                    r.requests,
                    r.steady_requests_per_s,
                    r.respawn_requests_per_s,
                    r.overhead_vs_steady(),
                    r.respawns
                );
            }
            None => json.push_str("  \"respawn\": null,\n"),
        }
        match &serve_sat {
            Some(sat) => {
                let _ = writeln!(
                    json,
                    "  \"saturation\": {{\"queue_depth\": {}, \"submitted\": {}, \"rejected_busy\": {}, \"retry_after_ms\": {}}}}}",
                    sat.queue_depth, sat.submitted, sat.rejected, sat.retry_after_ms
                );
            }
            None => json.push_str("  \"saturation\": null}\n"),
        }
    }
    json.push_str("}\n");
    std::fs::write("BENCH_litho.json", &json).expect("write BENCH_litho.json");
    println!("\nwrote BENCH_litho.json");
}
