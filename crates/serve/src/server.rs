//! The long-lived serving process: acceptor, per-connection reader/writer
//! threads, a bounded request queue with backpressure, and dispatchers that
//! coalesce compatible requests into batch-runtime calls.
//!
//! # Thread anatomy
//!
//! ```text
//! acceptor ──accept──▶ reader (1/conn) ──try_push──▶ BoundedQueue
//!                        │  full? ──▶ Busy{retry_after_ms} to writer
//!                        ▼
//!                      writer (1/conn) ◀──respond── dispatchers (ServicePool)
//! ```
//!
//! * The **acceptor** owns the listener (non-blocking, so shutdown is
//!   prompt) and enforces `max_connections` — excess connections receive a
//!   single text `busy` line in place of the `hello_ack` and are closed.
//! * Each connection's **reader** answers the text `hello` preface, then
//!   decodes binary frames and `try_push`es them into
//!   the shared [`BoundedQueue`]. A full queue is answered *immediately*
//!   with a typed [`ResponseBody::Busy`] rejection carrying a retry hint —
//!   the reader never blocks, never drops a request silently.
//! * **Dispatchers** run as jobs on a [`ServicePool`] (the runtime's
//!   graceful-shutdown pool). Each pops a request, opportunistically drains
//!   compatible neighbours ([`crate::exec::coalesce_key`]) and executes
//!   them as one `optimize_batch`/`parallel_map` call on `threads` worker
//!   threads. Simulators come from a shared [`ContextCache`], so every
//!   request under one process configuration shares one immutable
//!   [`camo_litho::LithoContext`] and one workspace pool.
//! * Each connection's **writer** streams binary response frames in
//!   completion order; clients correlate by request id.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (or a client `shutdown` request followed by
//! [`ServerHandle::wait_for_shutdown_request`]) stops the acceptor, closes
//! the request queue (later pushes answer `shutting_down`), lets the
//! dispatchers drain everything already queued, read-shuts every connection
//! so readers unblock, joins all threads and finally propagates the first
//! dispatcher panic, if any — the [`ServicePool`] contract.

use crate::error::ServeError;
use crate::exec::{
    coalesce_key, run_evaluate, run_layout, run_optimize, run_sweep, wire_evaluation, wire_outcome,
};
use crate::front::{acceptor_loop, AdmittedRequest, FrontHandler, FrontState, Outbound};
use crate::stats::{KindLatencies, MetricsReport};
use crate::trace::{RecorderSink, Stage, Tracer};
use crate::wire::{ErrorCode, RequestBody, Response, ResponseBody};
use camo_litho::{ContextCache, LithoConfig, LithoSimulator};
use camo_runtime::{BoundedQueue, ServicePool};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (port 0 picks an ephemeral port).
    pub addr: SocketAddr,
    /// Worker threads each batch execution fans out over.
    pub threads: usize,
    /// Request-queue depth; a full queue answers `busy` (backpressure).
    pub queue_depth: usize,
    /// Maximum simultaneously open connections.
    pub max_connections: usize,
    /// Dispatcher threads draining the queue. `0` is a test/bench hook: the
    /// queue is never drained, so saturation behaviour can be observed
    /// deterministically.
    pub dispatchers: usize,
    /// Retry hint carried by `busy` rejections, milliseconds.
    pub retry_after_ms: u64,
    /// Distinct lithography configurations cached (LRU beyond this).
    pub context_capacity: usize,
    /// Most requests one dispatcher drains into a single coalesced batch.
    pub coalesce_limit: usize,
    /// Trace every Nth admitted request (`0` disables tracing entirely —
    /// the litho pipeline gets a no-op sink and admission skips even the
    /// sampling counter's modulo).
    pub trace_sample: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            threads: 1,
            queue_depth: 64,
            max_connections: 32,
            dispatchers: 1,
            retry_after_ms: 50,
            context_capacity: 4,
            coalesce_limit: 16,
            trace_sample: 0,
        }
    }
}

impl ServerConfig {
    /// Rejects configurations that cannot serve (zero capacities). A zero
    /// `dispatchers` count is deliberately allowed — it is the documented
    /// saturation-test hook.
    pub fn validate(&self) -> Result<(), ServeError> {
        for (name, value) in [
            ("threads", self.threads),
            ("queue_depth", self.queue_depth),
            ("max_connections", self.max_connections),
            ("context_capacity", self.context_capacity),
            ("coalesce_limit", self.coalesce_limit),
        ] {
            if value == 0 {
                return Err(ServeError::Config(format!("{name} must be positive")));
            }
        }
        Ok(())
    }
}

/// Counters exposed for logging and the bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered with a result (every sweep counts once).
    pub served: usize,
    /// Requests rejected with `busy` (queue full) plus connections turned
    /// away at the connection cap.
    pub rejected: usize,
    /// Connections accepted.
    pub connections: usize,
}

struct Shared {
    config: ServerConfig,
    queue: BoundedQueue<AdmittedRequest>,
    contexts: ContextCache,
    front: FrontState,
    served: AtomicUsize,
    in_flight: AtomicUsize,
    /// Most requests ever simultaneously inside batch execution.
    in_flight_high_water: AtomicUsize,
    latency: KindLatencies,
    tracer: Arc<Tracer>,
}

impl Shared {
    fn request_shutdown(&self) {
        self.queue.close();
        self.front.begin_shutdown();
    }

    /// Cache lookup with an optional `context-fetch` span — the traced
    /// request pays two clock reads, the untraced path none.
    fn fetch_sim(&self, config: &LithoConfig, trace: Option<u64>) -> LithoSimulator {
        let start = trace.map(|_| Instant::now());
        let sim = self.contexts.get(config);
        if let (Some(id), Some(start)) = (trace, start) {
            self.tracer.record_since(id, Stage::ContextFetch, start);
        }
        sim
    }
}

impl FrontHandler for Shared {
    fn front(&self) -> &FrontState {
        &self.front
    }

    fn queue(&self) -> &BoundedQueue<AdmittedRequest> {
        &self.queue
    }

    fn on_shutdown_request(&self) {
        self.request_shutdown();
    }

    fn metrics(&self) -> ResponseBody {
        ResponseBody::Metrics(MetricsReport {
            role: "server".into(),
            simd_arch: camo_litho::simd_backend().into(),
            queue_depth: self.queue.len(),
            queue_high_water: self.queue.high_water(),
            in_flight: self.in_flight.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            in_flight_high_water: self.in_flight_high_water.load(Ordering::Relaxed), // relaxed-ok: stats gauge; reads are reporting-only
            completed: self.served.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            busy_rejected: self.front.rejected.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            redispatched: 0,
            respawns: 0,
            latency: self.latency.snapshot(),
            stage_latency: self.tracer.stage_latency(),
            shards: Vec::new(),
        })
    }

    fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    fn trace(&self) -> ResponseBody {
        ResponseBody::Trace(self.tracer.report("server"))
    }
}

/// A running server; dropping it without [`Self::shutdown`] aborts less
/// gracefully (threads are still joined, panics are not propagated).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    dispatchers: Option<ServicePool>,
}

/// Binds and starts a server; returns once the listener is live. Fails
/// typed — invalid configuration, bind failure, or a host too exhausted to
/// spawn the acceptor thread — instead of panicking.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, ServeError> {
    config.validate()?;
    let listener = TcpListener::bind(config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let tracer = Arc::new(Tracer::new(config.trace_sample));
    // With tracing off the pipeline keeps its no-op sink: the litho stages
    // announce boundaries into nothing, so disabled tracing costs nothing.
    let contexts = if config.trace_sample > 0 {
        ContextCache::with_sink(
            config.context_capacity,
            Arc::new(RecorderSink::new(Arc::clone(&tracer))),
        )
    } else {
        ContextCache::new(config.context_capacity)
    };
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_depth),
        contexts,
        front: FrontState::new(config.max_connections, config.retry_after_ms),
        served: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(0),
        in_flight_high_water: AtomicUsize::new(0),
        latency: KindLatencies::new(),
        tracer,
        config,
    });

    let dispatchers = match shared.config.dispatchers {
        0 => None,
        n => {
            let pool = ServicePool::new(n, n).map_err(|e| ServeError::Spawn {
                what: "dispatcher pool",
                source: e.source,
            })?;
            for _ in 0..n {
                let worker = Arc::clone(&shared);
                if pool.submit(move || dispatcher_loop(&worker)).is_err() {
                    // Unreachable for a fresh pool (submit fails only
                    // after close), but degrade typed: release the
                    // workers before reporting.
                    shared.queue.close();
                    pool.shutdown();
                    return Err(ServeError::Spawn {
                        what: "dispatcher",
                        source: io::Error::other("fresh dispatcher pool rejected a job"),
                    });
                }
            }
            Some(pool)
        }
    };

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("camo-serve-acceptor".into())
            .spawn(move || acceptor_loop(listener, &shared))
    };
    let acceptor = match acceptor {
        Ok(handle) => handle,
        Err(source) => {
            // Unwind what already started: close the queue so dispatcher
            // jobs exit, then join them by dropping the pool.
            shared.request_shutdown();
            drop(dispatchers);
            return Err(ServeError::Spawn {
                what: "acceptor",
                source,
            });
        }
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        dispatchers,
    })
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            served: self.shared.served.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            rejected: self.shared.front.rejected.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            connections: self.shared.front.connections.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
        }
    }

    /// Blocks until a client sends a `shutdown` request (the serve binary's
    /// main loop). Returns immediately if shutdown already began.
    pub fn wait_for_shutdown_request(&self) {
        self.shared.front.wait_for_shutdown();
    }

    /// Gracefully shuts down: stop accepting, let the dispatchers drain
    /// every queued request, flush and close all connections, join all
    /// threads, and propagate the first dispatcher panic (if any).
    pub fn shutdown(mut self) -> ServerStats {
        self.shared.request_shutdown();
        if let Some(pool) = self.dispatchers.take() {
            // Waits for the dispatcher jobs to drain the (closed) request
            // queue, then joins and propagates parked panics. If that
            // propagates, Drop still runs `finish` during unwinding.
            pool.shutdown();
        }
        self.finish()
    }

    /// Answers whatever is still queued (only possible when no dispatcher
    /// ran — the saturation-test mode) and joins the acceptor, which in
    /// turn joins every connection thread.
    fn finish(&mut self) -> ServerStats {
        while let Some(q) = self.shared.queue.try_pop() {
            let _ = q.reply.send(Outbound::traced(
                Response {
                    id: q.request.id,
                    body: ResponseBody::ShuttingDown,
                },
                q.request.trace,
            ));
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        if let Some(pool) = self.dispatchers.take() {
            // Drain and join without panic propagation (ServicePool::drop);
            // the explicit shutdown() path is the observable one.
            drop(pool);
        }
        self.finish();
    }
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

fn dispatcher_loop(shared: &Shared) {
    while let Some(first) = shared.queue.pop() {
        // Opportunistically drain whatever is queued right now, up to the
        // coalesce limit; execution below groups compatible requests.
        let mut pending: VecDeque<AdmittedRequest> = VecDeque::new();
        pending.push_back(first);
        while pending.len() < shared.config.coalesce_limit {
            match shared.queue.try_pop() {
                Some(q) => pending.push_back(q),
                None => break,
            }
        }
        // Queue-wait spans for the traced requests just dequeued; one clock
        // read for the whole drain, none when nothing is traced.
        if pending.iter().any(|q| q.request.trace.is_some()) {
            let dequeued = Instant::now();
            for q in &pending {
                if let Some(id) = q.request.trace {
                    shared
                        .tracer
                        .record(id, Stage::ShardQueue, q.admitted_at, dequeued);
                }
            }
        }
        while let Some(head) = pending.pop_front() {
            let traced_group =
                head.request.trace.is_some() || pending.iter().any(|q| q.request.trace.is_some());
            let group_start = traced_group.then(Instant::now);
            let key = coalesce_key(&head.request.body);
            let mut batch = vec![head];
            if let Some(key) = &key {
                let mut i = 0;
                while i < pending.len() {
                    if coalesce_key(&pending[i].request.body).as_ref() == Some(key) {
                        // `remove` can only return None for an
                        // out-of-range index, which the loop bound
                        // excludes; skipping is the graceful fallback.
                        if let Some(compatible) = pending.remove(i) {
                            batch.push(compatible);
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            if let Some(start) = group_start {
                let grouped = Instant::now();
                for q in &batch {
                    if let Some(id) = q.request.trace {
                        shared.tracer.record(id, Stage::Coalesce, start, grouped);
                    }
                }
            }
            execute_batch(shared, batch);
        }
    }
}

/// Executes one homogeneous batch and streams its responses. A panic inside
/// execution is converted into per-request `internal` errors so one
/// poisoned request cannot take the dispatcher down.
fn execute_batch(shared: &Shared, batch: Vec<AdmittedRequest>) {
    let entered = shared.in_flight.fetch_add(batch.len(), Ordering::Relaxed) + batch.len(); // relaxed-ok: gauge read only by metrics reporting
    shared
        .in_flight_high_water
        .fetch_max(entered, Ordering::Relaxed); // relaxed-ok: stats gauge; reads are reporting-only
                                                // While the batch runs, litho stage boundaries attribute to this trace
                                                // id (observational best-effort under concurrent dispatchers).
    let active = batch.iter().find_map(|q| q.request.trace);
    if let Some(id) = active {
        shared.tracer.set_active(id);
    }
    let responses = catch_unwind(AssertUnwindSafe(|| run_batch(shared, &batch)));
    if active.is_some() {
        shared.tracer.clear_active();
    }
    shared.in_flight.fetch_sub(batch.len(), Ordering::Relaxed); // relaxed-ok: gauge read only by metrics reporting
    match responses {
        Ok(per_request) => {
            for (q, responses) in batch.iter().zip(per_request) {
                // Count and sample before the reply is handed to the writer:
                // a client that has received its response must observe a
                // `metrics` report that already includes it.
                shared.served.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
                shared
                    .latency
                    .record(q.request.body.kind(), q.admitted_at.elapsed());
                for response in responses {
                    let _ = q.reply.send(Outbound::traced(response, q.request.trace));
                }
            }
        }
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "request execution panicked".to_string());
            for q in &batch {
                let _ = q.reply.send(Outbound::traced(
                    Response {
                        id: q.request.id,
                        body: ResponseBody::Error {
                            code: ErrorCode::Internal,
                            message: message.clone(),
                        },
                    },
                    q.request.trace,
                ));
            }
        }
    }
}

/// Runs one batch; `batch` is non-empty and homogeneous in coalesce key
/// (sweep/layout batches always have exactly one request).
fn run_batch(shared: &Shared, batch: &[AdmittedRequest]) -> Vec<Vec<Response>> {
    let threads = shared.config.threads;
    let trace = batch.iter().find_map(|q| q.request.trace);
    match &batch[0].request.body {
        RequestBody::Optimize { job, .. } => {
            let clips: Vec<_> = batch
                .iter()
                .map(|q| match &q.request.body {
                    RequestBody::Optimize { clip, .. } => clip.clone(),
                    _ => unreachable!("coalesced batch is homogeneous"),
                })
                .collect();
            let sim = shared.fetch_sim(&job.litho.to_config(), trace);
            let outcomes = run_optimize(job, &clips, &sim, threads);
            batch
                .iter()
                .zip(&outcomes)
                .map(|(q, outcome)| {
                    vec![Response {
                        id: q.request.id,
                        body: ResponseBody::Outcome(wire_outcome(outcome)),
                    }]
                })
                .collect()
        }
        RequestBody::Evaluate { litho, .. } => {
            let probes: Vec<_> = batch
                .iter()
                .map(|q| match &q.request.body {
                    RequestBody::Evaluate {
                        layer, bias, clip, ..
                    } => (*layer, *bias, clip.clone()),
                    _ => unreachable!("coalesced batch is homogeneous"),
                })
                .collect();
            let sim = shared.fetch_sim(&litho.to_config(), trace);
            let results = run_evaluate(&probes, &sim, threads);
            batch
                .iter()
                .zip(&results)
                .map(|(q, result)| {
                    vec![Response {
                        id: q.request.id,
                        body: wire_evaluation(result),
                    }]
                })
                .collect()
        }
        RequestBody::Sweep { job, cases } => {
            let sim = shared.fetch_sim(&job.litho.to_config(), trace);
            let outcomes = run_sweep(job, cases, &sim, threads);
            let id = batch[0].request.id;
            let total = outcomes.len();
            vec![outcomes
                .iter()
                .enumerate()
                .map(|(index, (name, outcome))| Response {
                    id,
                    body: ResponseBody::CaseOutcome {
                        index,
                        total,
                        name: name.clone(),
                        outcome: wire_outcome(outcome),
                    },
                })
                .collect()]
        }
        RequestBody::Layout {
            litho,
            params,
            seed,
            tile_nm,
        } => {
            let sim = shared.fetch_sim(&litho.to_config(), trace);
            let report = run_layout(params, *seed, *tile_nm, &sim, threads);
            vec![vec![Response {
                id: batch[0].request.id,
                body: ResponseBody::LayoutReport {
                    tiles: report.tiles,
                    epe_per_point: report.epe.per_point.clone(),
                    pv_band: report.pv_band,
                },
            }]]
        }
        RequestBody::Ping
        | RequestBody::Metrics
        | RequestBody::Trace
        | RequestBody::Restart { .. }
        | RequestBody::Shutdown
        | RequestBody::Hello { .. } => {
            unreachable!("answered inline by the reader")
        }
    }
}
