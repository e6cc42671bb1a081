//! The `serve` binary: a long-lived OPC server on one TCP port — or, with
//! `--shards N`, the router of a multi-process shard tier.
//!
//! ```text
//! serve [--host 127.0.0.1] [--port 7878] [--threads N] [--queue-depth N]
//!       [--max-connections N] [--retry-after-ms N] [--context-capacity N]
//!       [--port-file PATH] [--trace-sample N]
//!       [--shards N|auto]
//!       [--probe-interval-ms N] [--probe-timeout-ms N]
//!       [--respawn-backoff-ms N] [--respawn-backoff-max-ms N]
//!       [--breaker-window-ms N] [--breaker-failures N]
//! ```
//!
//! Every connection opens with a one-line text `hello` answered by a
//! `hello_ack`; everything after it is binary frames (see
//! `docs/WIRE_PROTOCOL.md`).
//!
//! `--threads N` starts `N` long-lived worker threads; each runs whole
//! requests or single clips, sweep cases and layout tiles of one.
//!
//! `--port 0` binds an ephemeral port; the bound address is printed on
//! stdout and, with `--port-file`, written to a file so scripts (CI smoke)
//! can discover it. The process exits cleanly when a client sends a
//! `shutdown` request.
//!
//! With `--shards N`, the process re-executes itself `N` times as backend
//! shards (each a plain single-process server on its own ephemeral port,
//! inheriting the tuning flags above, `--queue-depth` included: the router
//! holds no queue of its own) and runs a [`camo_serve::router`] on the
//! front port instead of a server.
//! `--shards auto` sizes the tier elastically from the detected cores
//! (one shard per four available threads, at least two). A shard that dies
//! is respawned under the `--respawn-*`/`--breaker-*` schedule; a client
//! `shutdown` request drains the whole tier: the router stops accepting,
//! waits for in-flight responses, asks every shard to drain and exit, and
//! reaps the child processes before exiting itself. Zero or malformed
//! values for any knob are rejected up front (exit 2) rather than
//! producing a tier that cannot probe or respawn.

use camo_serve::cli::{flag_value, parsed_flag};
use camo_serve::{
    route_spawned, serve, RespawnPolicy, RouterConfig, ServerConfig, ShardSet, ShardSpec,
};
use std::net::SocketAddr;
use std::time::Duration;

/// Tuning flags forwarded verbatim from the router process to every shard.
const SHARD_FLAGS: &[&str] = &[
    "--threads",
    "--queue-depth",
    "--max-connections",
    "--retry-after-ms",
    "--context-capacity",
    "--trace-sample",
];

fn run_router(args: &[String], addr: SocketAddr, shards: usize) {
    let defaults = RouterConfig::default();
    let respawn_defaults = RespawnPolicy::default();
    let config = RouterConfig {
        addr,
        max_connections: parsed_flag(args, "--max-connections", defaults.max_connections),
        retry_after_ms: parsed_flag(args, "--retry-after-ms", defaults.retry_after_ms),
        probe_interval: Duration::from_millis(parsed_flag(
            args,
            "--probe-interval-ms",
            defaults.probe_interval.as_millis() as u64,
        )),
        probe_timeout: Duration::from_millis(parsed_flag(
            args,
            "--probe-timeout-ms",
            defaults.probe_timeout.as_millis() as u64,
        )),
        drain_timeout: defaults.drain_timeout,
        respawn: RespawnPolicy {
            initial_backoff: Duration::from_millis(parsed_flag(
                args,
                "--respawn-backoff-ms",
                respawn_defaults.initial_backoff.as_millis() as u64,
            )),
            max_backoff: Duration::from_millis(parsed_flag(
                args,
                "--respawn-backoff-max-ms",
                respawn_defaults.max_backoff.as_millis() as u64,
            )),
            breaker_window: Duration::from_millis(parsed_flag(
                args,
                "--breaker-window-ms",
                respawn_defaults.breaker_window.as_millis() as u64,
            )),
            breaker_failures: parsed_flag(
                args,
                "--breaker-failures",
                respawn_defaults.breaker_failures,
            ),
        },
        trace_sample: parsed_flag(args, "--trace-sample", defaults.trace_sample),
    };
    // Reject degenerate knobs (zero intervals, empty windows) before
    // anything binds or spawns; the typed message names the bad flag.
    // Validating before the shard spawn matters: `process::exit` skips
    // destructors, so children started first would be orphaned.
    if let Err(e) = config.validate() {
        eprintln!("invalid router configuration: {e}");
        std::process::exit(2);
    }
    let binary = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate the serve binary to re-execute: {e}");
        std::process::exit(1);
    });
    let mut spec = ShardSpec::new(binary);
    for flag in SHARD_FLAGS {
        if let Some(value) = flag_value(args, flag) {
            spec.args.push((*flag).to_string());
            spec.args.push(value);
        }
    }
    let set = ShardSet::spawn(&spec, shards).unwrap_or_else(|e| {
        eprintln!("shard spawn failed: {e}");
        std::process::exit(1);
    });
    let handle = route_spawned(config, set).unwrap_or_else(|e| {
        eprintln!("router start failed: {e}");
        std::process::exit(1);
    });
    println!(
        "camo-serve router listening on {} ({} shard(s): {:?}, simd {})",
        handle.addr(),
        shards,
        handle.shard_addrs(),
        camo_litho::simd_backend()
    );
    if let Some(path) = flag_value(args, "--port-file") {
        if let Err(e) = std::fs::write(&path, handle.addr().to_string()) {
            eprintln!("cannot write --port-file {path}: {e}");
            // `process::exit` would skip destructors and orphan the shard
            // processes; drain the tier first.
            handle.shutdown();
            std::process::exit(1);
        }
    }
    handle.wait_for_shutdown_request();
    let report = handle.shutdown();
    let forwarded: Vec<usize> = report.shards.iter().map(|s| s.forwarded).collect();
    println!(
        "camo-serve router shut down cleanly: {} request(s) completed, {} rejected, \
         {} redispatched, per-shard {:?}",
        report.completed, report.busy_rejected, report.redispatched, forwarded
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let defaults = ServerConfig::default();
    let host = flag_value(&args, "--host").unwrap_or_else(|| "127.0.0.1".into());
    let port: u16 = parsed_flag(&args, "--port", 7878);
    let addr: SocketAddr = format!("{host}:{port}").parse().unwrap_or_else(|_| {
        eprintln!("invalid --host/--port combination");
        std::process::exit(2);
    });
    let shards: usize = match flag_value(&args, "--shards").as_deref() {
        // Elastic sizing: one shard per four available threads keeps each
        // shard's worker pool meaningful, and a floor of two preserves
        // the tier's reason to exist (routing, failover) on small hosts.
        Some("auto") => (camo_runtime::available_threads() / 4).max(2),
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --shards: {raw} (expected a count or `auto`)");
            std::process::exit(2);
        }),
        None => 0,
    };
    if shards > 0 {
        run_router(&args, addr, shards);
        return;
    }
    let config = ServerConfig {
        addr,
        threads: parsed_flag(&args, "--threads", defaults.threads),
        queue_depth: parsed_flag(&args, "--queue-depth", defaults.queue_depth),
        max_connections: parsed_flag(&args, "--max-connections", defaults.max_connections),
        retry_after_ms: parsed_flag(&args, "--retry-after-ms", defaults.retry_after_ms),
        context_capacity: parsed_flag(&args, "--context-capacity", defaults.context_capacity),
        trace_sample: parsed_flag(&args, "--trace-sample", defaults.trace_sample),
    };
    let threads = config.threads;
    // Zero workers is an in-process test hook (a queue nothing drains),
    // never a server worth starting.
    if threads == 0 {
        eprintln!("invalid server configuration: threads must be positive");
        std::process::exit(2);
    }
    let queue_depth = config.queue_depth;
    let handle = match serve(config) {
        Ok(handle) => handle,
        Err(e @ camo_serve::ServeError::Config(_)) => {
            eprintln!("invalid server configuration: {e}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("serve start failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "camo-serve listening on {} ({} worker thread(s), queue depth {}, simd {})",
        handle.addr(),
        threads,
        queue_depth,
        camo_litho::simd_backend()
    );
    if let Some(path) = flag_value(&args, "--port-file") {
        if let Err(e) = std::fs::write(&path, handle.addr().to_string()) {
            eprintln!("cannot write --port-file {path}: {e}");
            std::process::exit(1);
        }
    }
    handle.wait_for_shutdown_request();
    let report = handle.shutdown();
    println!(
        "camo-serve shut down cleanly: {} request(s) served, {} rejected",
        report.completed, report.busy_rejected
    );
}
