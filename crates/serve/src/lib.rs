//! `camo-serve`: the long-lived OPC serving front-end.
//!
//! Everything below `camo-serve` computes; this crate *serves*. A single
//! process holds the expensive shared state — one immutable
//! [`camo_litho::LithoContext`] per lithography configuration (LRU-cached
//! via [`camo_litho::ContextCache`]) and a recycled
//! [`camo_litho::WorkspacePool`] per context — accepts
//! clip-optimization / evaluation / layout-sweep requests over TCP, and
//! streams per-clip outcomes back as they complete. The container this
//! repository builds in is offline, so there is no tokio and no serde: the
//! server is plain `std::net` + threads, and the wire format is the
//! hand-rolled binary codec in [`wire`].
//!
//! # Architecture
//!
//! ```text
//!                ┌────────────────────────── serve process ─────────────────────────┐
//!  client ──TCP──▶ acceptor ─▶ reader ──try_push──▶ BoundedQueue ──pop──▶ workers    │
//!  (camo-client)│     │          │ full → Busy{retry_after_ms}   ▲    (--threads)    │
//!               │     │          ▼                               └─ prepend tasks ─┤ │
//!               │     │        writer ◀─── responses (last task) ──────────────────┘ │
//!               │     │     (per conn, binary frames, completion order)              │
//!               │     └ max_connections cap                  ContextCache (LRU)      │
//!               └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! One serve process is one queue, one [`camo_litho::ContextCache`] and one
//! failure domain. The **shard tier** ([`router`] + [`shard`], started with
//! `serve --shards N`) multiplies all three: a router process accepts
//! clients on one front port and, on each connection's reader, forwards
//! framed requests to `N` supervised `serve` processes, routed
//! consistently by [`camo_litho::LithoConfig::fingerprint`] so each shard
//! keeps a hot context, with per-shard health probes, typed `busy`
//! propagation, redispatch-on-shard-death and a tier-wide graceful drain.
//! The protocol through the router is byte-for-byte the single-process
//! protocol, and the results stay bit-identical. See
//! `docs/ARCHITECTURE.md` for the full picture and `docs/WIRE_PROTOCOL.md`
//! for the wire specification.
//!
//! * [`wire`] — one codec: every connection opens with a one-line text
//!   `hello` answered by a text `hello_ack`, and everything after it is
//!   binary frames (length-prefixed little-endian, raw `f64` bit images,
//!   a 64 MiB frame bound for multi-clip sweeps). Typed
//!   requests/responses, strict validation, exact `f64` round-trips,
//!   typed errors (never panics) for truncated/oversized/malformed
//!   frames — and bit-identical served results.
//! * [`server`] — acceptor + per-connection reader/writer threads, the
//!   bounded request queue whose `try_push` failure becomes a typed
//!   [`wire::ResponseBody::Busy`] rejection (backpressure, never blocking,
//!   never silent drops), and a work-conserving executor: `threads`
//!   long-lived worker threads pop the queue, plan each request into one
//!   task per clip, sweep case or layout tile, and prepend the follow-on
//!   tasks for idle siblings to take.
//! * [`exec`] — the spec → engine/simulator materialisation and the task
//!   bodies shared by the server and the offline verifier: each task is
//!   the per-item body of a batch-runtime call, which is what reduces
//!   "server == offline" to the batch runtime's own determinism contract.
//! * [`client`] — blocking client plus [`client::ResponseRouter`]
//!   request-id correlation for the completion-ordered response stream.
//! * [`shard`] / [`router`] — the multi-process tier: `std::process`
//!   supervision of backend serve processes and the front-port router that
//!   load-balances over them by configuration fingerprint. Dead shards are
//!   **respawned** under the [`supervise`] policy (capped exponential
//!   backoff, flap-detection breaker), and a `restart` wire request rolls
//!   the tier one shard at a time.
//! * [`stats`] / [`supervise`] — the observability and self-healing
//!   building blocks: lock-free log2 latency histograms behind the
//!   `metrics` wire request, and the pure backoff/breaker schedule the
//!   router's supervisor follows.
//! * [`trace`] — camo-trace, the request-scoped tracing plane: sampled
//!   requests carry a `trace_id` through the wire frame, every hop records
//!   typed spans into a lock-free [`FlightRecorder`] ring, the `trace`
//!   wire request pulls a merged per-request timeline, and
//!   [`chrome_trace_json`] exports it for `chrome://tracing`.
//!
//! # Determinism
//!
//! Results are **bit-identical to offline runs**: engines rebuild
//! deterministically from their [`wire::JobSpec`] (CAMO policies seed from
//! the spec), episodes follow the `(seed, clip_index)` RNG contract, and
//! the batch runtime is bit-identical to serial loops at any thread count.
//! The end-to-end test (`tests/e2e.rs`) and `camo-client --verify` diff
//! server responses against direct `camo-runtime` calls with
//! `f64::to_bits` equality.
//!
//! # Binaries
//!
//! * `serve` — `--port/--threads/--queue-depth/--max-connections/...`;
//!   prints the bound address, optionally writes it to `--port-file`, and
//!   exits cleanly on a client `shutdown` request. With `--shards N` it
//!   runs as the router of a multi-process tier instead, re-executing
//!   itself `N` times as backend shards and draining them all on shutdown.
//! * `camo-client` — load generator over
//!   [`camo_workloads::request_stream`], with `--verify` (offline
//!   bit-identity diff), `--shutdown`, and `--front` to address a router
//!   front port (the protocol is identical, so this is spelling, not
//!   mechanism).

#![deny(missing_docs)]

pub mod cli;
pub mod client;
pub mod error;
pub mod exec;
mod front;
pub mod router;
pub mod server;
pub mod shard;
pub mod stats;
pub mod supervise;
pub mod trace;
pub mod wire;

pub use client::{
    busy_backoff, collect_responses, Client, ClientError, Completed, ResponseRouter,
    BUSY_BACKOFF_CAP_MS,
};
pub use error::ServeError;
pub use router::{route, route_spawned, shard_preference, RouterConfig, RouterHandle};
pub use server::{serve, ServerConfig, ServerHandle};
pub use shard::{ShardSet, ShardSpec};
pub use stats::{KindLatency, LatencySnapshot, MetricsReport, ShardStatus};
pub use supervise::{Backoff, FlapBreaker, RespawnPolicy};
pub use trace::{chrome_trace_json, FlightRecorder, ShardTrace, SpanRecord, TraceReport, Tracer};
pub use wire::{Request, RequestBody, Response, ResponseBody, WireError};
