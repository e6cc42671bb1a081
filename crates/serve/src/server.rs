//! The long-lived serving process: acceptor, per-connection reader/writer
//! threads, a bounded request queue with backpressure, and a
//! work-conserving executor: `threads` long-lived workers that run every
//! request as tasks.
//!
//! # Thread anatomy
//!
//! ```text
//! acceptor ──accept──▶ reader (1/conn) ──try_push──▶ BoundedQueue ◀─prepend tasks─┐
//!                        │  full? ──▶ Busy{retry_after_ms} to writer │ pop         │
//!                        ▼                                           ▼             │
//!                      writer (1/conn) ◀──last task responds── workers (--threads)
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
//! * **Workers** — `threads` long-lived threads — pop the queue. The
//!   worker that pops a request plans it (`exec::Plan`) into one task per
//!   clip, sweep case or layout tile, on a simulator from the shared
//!   [`ContextCache`], so every
//!   request under one configuration shares one immutable
//!   [`camo_litho::LithoContext`] and one workspace pool. It prepends the
//!   follow-on tasks to the queue, ahead of later requests and outside the
//!   bound, where idle siblings take them, and runs the first task itself.
//!   No worker waits at a barrier: whoever finishes a request's last task
//!   builds its response frames and hands them to the writer. Each worker
//!   keeps its last built engine ([`crate::exec`]'s memo), so consecutive
//!   tasks of one job spec build it once.
//! * Each connection's **writer** streams binary response frames in
//!   completion order; clients correlate by request id.
//!
//! Planning and every task run under `catch_unwind`: a request with a
//! failed task answers one typed `internal` error (never partial sweep
//! frames), and the worker keeps serving.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (or a client `shutdown` request followed by
//! [`ServerHandle::wait_for_shutdown_request`]) stops the acceptor, closes
//! the request queue (later pushes answer `shutting_down`), lets the
//! workers drain every admitted request and its tasks, read-shuts every
//! connection so readers unblock, joins all threads and finally re-raises
//! the first worker-thread panic, if any, once every thread is joined.

use crate::error::ServeError;
use crate::exec::{litho_spec, EngineMemo, Output, Plan};
use crate::front::{acceptor_loop, AdmittedRequest, FrontHandler, FrontState, Outbound};
use crate::stats::{KindLatencies, MetricsReport};
use crate::trace::{RecorderSink, Stage, Tracer};
use crate::wire::{ErrorCode, Response, ResponseBody};
use camo_litho::{ContextCache, LithoConfig, LithoSimulator};
use camo_runtime::{BoundedQueue, PushError};
use std::any::Any;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (port 0 picks an ephemeral port).
    pub addr: SocketAddr,
    /// Long-lived worker threads running requests as tasks. `0` is a
    /// test/bench hook: no worker drains the queue, so saturation can be
    /// observed deterministically (the `serve` binary refuses it).
    pub threads: usize,
    /// Request-queue depth; a full queue answers `busy` (backpressure).
    pub queue_depth: usize,
    /// Maximum simultaneously open connections.
    pub max_connections: usize,
    /// Retry hint carried by `busy` rejections, milliseconds.
    pub retry_after_ms: u64,
    /// Distinct lithography configurations cached (LRU beyond this).
    pub context_capacity: usize,
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
            retry_after_ms: 50,
            context_capacity: 4,
            trace_sample: 0,
        }
    }
}

impl ServerConfig {
    /// Rejects configurations that cannot serve (zero capacities). Zero
    /// `threads` is deliberately allowed — it is the documented
    /// saturation-test hook.
    pub fn validate(&self) -> Result<(), ServeError> {
        for (name, value) in [
            ("queue_depth", self.queue_depth),
            ("max_connections", self.max_connections),
            ("context_capacity", self.context_capacity),
        ] {
            if value == 0 {
                return Err(ServeError::Config(format!("{name} must be positive")));
            }
        }
        Ok(())
    }
}

struct Shared {
    config: ServerConfig,
    queue: BoundedQueue<Work>,
    contexts: ContextCache,
    front: FrontState,
    /// Requests answered with a result (every sweep counts once).
    completed: AtomicUsize,
    /// Requests planned but not yet answered.
    in_flight: AtomicUsize,
    /// Most requests ever simultaneously planned but not yet answered.
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

    fn submit(&self, admitted: AdmittedRequest) -> Option<ResponseBody> {
        match self.queue.try_push(Work::Request(Box::new(admitted))) {
            Ok(()) => None,
            Err(PushError::Full(_)) => Some(self.front.busy()),
            Err(PushError::Closed(_)) => Some(ResponseBody::ShuttingDown),
        }
    }

    fn on_shutdown_request(&self) {
        self.request_shutdown();
    }

    fn metrics(&self) -> MetricsReport {
        MetricsReport {
            role: "server".into(),
            simd_arch: camo_litho::simd_backend().into(),
            queue_depth: self.queue.depth(),
            queue_high_water: self.queue.high_water(),
            in_flight: self.in_flight.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            in_flight_high_water: self.in_flight_high_water.load(Ordering::Relaxed), // relaxed-ok: stats gauge; reads are reporting-only
            completed: self.completed.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            busy_rejected: self.front.rejected.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            redispatched: 0,
            respawns: 0,
            latency: self.latency.snapshot(),
            stage_latency: self.tracer.stage_latency(),
            shards: Vec::new(),
        }
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
    workers: Vec<JoinHandle<()>>,
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
        completed: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(0),
        in_flight_high_water: AtomicUsize::new(0),
        latency: KindLatencies::new(),
        tracer,
        config,
    });

    let mut workers = Vec::with_capacity(shared.config.threads);
    for i in 0..shared.config.threads {
        let worker = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("camo-serve-worker-{i}"))
            .spawn(move || worker_loop(&worker));
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(source) => {
                // Close the (still empty) queue so the workers already
                // started exit, and join them before reporting.
                shared.request_shutdown();
                join_workers(workers);
                return Err(ServeError::Spawn {
                    what: "worker",
                    source,
                });
            }
        }
    }

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("camo-serve-acceptor".into())
            .spawn(move || acceptor_loop(listener, &shared))
    };
    let acceptor = match acceptor {
        Ok(handle) => handle,
        Err(source) => {
            // Unwind what already started: close the queue so the workers
            // exit, then join them.
            shared.request_shutdown();
            join_workers(workers);
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
        workers,
    })
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's own [`MetricsReport`] — the same payload a `metrics`
    /// wire request answers, without a round-trip.
    pub fn metrics(&self) -> MetricsReport {
        self.shared.metrics()
    }

    /// Blocks until a client sends a `shutdown` request (the serve binary's
    /// main loop). Returns immediately if shutdown already began.
    pub fn wait_for_shutdown_request(&self) {
        self.shared.front.wait_for_shutdown();
    }

    /// Gracefully shuts down: stop accepting, let the workers drain every
    /// admitted request and its tasks, flush and close all connections,
    /// join all threads, and re-raise the first worker-thread panic (if
    /// any). Returns the final [`MetricsReport`].
    pub fn shutdown(mut self) -> MetricsReport {
        self.shared.request_shutdown();
        // The workers drain the (closed) queue before they exit.
        let panicked = join_workers(std::mem::take(&mut self.workers));
        self.finish();
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        self.metrics()
    }

    /// Answers whatever is still queued (only possible when no worker ran
    /// — the saturation-test mode, whose queue holds requests only) and
    /// joins the acceptor, which in turn joins every connection thread.
    fn finish(&mut self) {
        while let Some(work) = self.shared.queue.try_pop() {
            if let Work::Request(q) = work {
                let _ = q.reply.send(Outbound::traced(
                    Response {
                        id: q.request.id,
                        body: ResponseBody::ShuttingDown,
                    },
                    q.request.trace,
                ));
            }
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        // Drain and join without re-raising a worker panic; the explicit
        // shutdown() path is the observable one.
        join_workers(std::mem::take(&mut self.workers));
        self.finish();
    }
}

/// Joins every worker thread and returns the first panic payload, if any.
/// Workers run planning and tasks under `catch_unwind`, so a worker thread
/// that panicked hit a bug in the executor itself.
fn join_workers(workers: Vec<JoinHandle<()>>) -> Option<Box<dyn Any + Send>> {
    let mut first = None;
    for handle in workers {
        if let Err(payload) = handle.join() {
            first.get_or_insert(payload);
        }
    }
    first
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// One item on the server's queue.
enum Work {
    /// An admitted request, not yet planned (bounded: counts against
    /// `queue_depth` and in the `queue_depth`/`queue_high_water` metrics).
    Request(Box<AdmittedRequest>),
    /// Task `index` of a planned request (prepended, outside the bound).
    Task(Arc<Job>, usize),
}

/// A planned request and the outputs its tasks have left so far.
struct Job {
    admitted: AdmittedRequest,
    plan: Plan,
    progress: Mutex<Progress>, // lock-order: 70
}

struct Progress {
    /// One slot per task, filled as tasks finish (`Err`: it panicked).
    slots: Vec<Option<Result<Output, String>>>,
    /// Tasks not yet finished.
    remaining: usize,
}

impl Progress {
    fn new(tasks: usize) -> Self {
        Self {
            slots: (0..tasks).map(|_| None).collect(),
            remaining: tasks,
        }
    }

    /// Stores task `index`'s result. Once the last task is in, returns
    /// every output in task order — or the first failure in task order.
    fn record(
        &mut self,
        index: usize,
        result: Result<Output, String>,
    ) -> Option<Result<Vec<Output>, String>> {
        self.slots[index] = Some(result);
        self.remaining -= 1;
        if self.remaining > 0 {
            return None;
        }
        Some(
            std::mem::take(&mut self.slots)
                .into_iter()
                .flatten()
                .collect(),
        )
    }
}

fn worker_loop(shared: &Shared) {
    let mut engines = EngineMemo::default();
    while let Some(work) = shared.queue.pop() {
        let (job, index) = match work {
            Work::Request(admitted) => match plan(shared, *admitted) {
                Some(job) => (job, 0),
                None => continue,
            },
            Work::Task(job, index) => (job, index),
        };
        run_task(shared, &job, index, &mut engines);
    }
}

/// Plans a popped request and prepends every task but the first, which
/// the caller runs. `None` when planning failed (or found nothing to run)
/// and the request is already answered with the error.
fn plan(shared: &Shared, admitted: AdmittedRequest) -> Option<Arc<Job>> {
    let trace = admitted.request.trace;
    let popped = trace.map(|id| {
        let now = Instant::now();
        shared
            .tracer
            .record(id, Stage::ShardQueue, admitted.admitted_at, now);
        now
    });
    let entered = shared.in_flight.fetch_add(1, Ordering::Relaxed) + 1; // relaxed-ok: gauge read only by metrics reporting
    shared
        .in_flight_high_water
        .fetch_max(entered, Ordering::Relaxed); // relaxed-ok: stats gauge; reads are reporting-only
    let planned = catch_unwind(AssertUnwindSafe(|| {
        let body = &admitted.request.body;
        let spec = litho_spec(body)?;
        let plan = Plan::new(body, shared.fetch_sim(&spec.to_config(), trace));
        Some((plan.tasks(body), plan))
    }))
    .map_err(panic_message)
    .and_then(|plan| match plan {
        Some((0, _)) => Err("the request has nothing to run".to_string()),
        Some(plan) => Ok(plan),
        None => Err("control requests are answered inline".to_string()),
    });
    if let (Some(id), Some(start)) = (trace, popped) {
        shared.tracer.record_since(id, Stage::Plan, start);
    }
    let (tasks, plan) = match planned {
        Ok(planned) => planned,
        Err(message) => {
            answer(shared, &admitted, Err(message));
            return None;
        }
    };
    let job = Arc::new(Job {
        admitted,
        plan,
        progress: Mutex::new(Progress::new(tasks)),
    });
    shared
        .queue
        .prepend((1..tasks).map(|index| Work::Task(Arc::clone(&job), index)));
    Some(job)
}

/// Runs task `index` of `job` with litho spans attributed to its trace;
/// the worker that finishes the last task answers the request.
fn run_task(shared: &Shared, job: &Job, index: usize, engines: &mut EngineMemo) {
    let body = &job.admitted.request.body;
    let trace = job.admitted.request.trace;
    if let Some(id) = trace {
        shared.tracer.set_active(id);
    }
    let output = catch_unwind(AssertUnwindSafe(|| job.plan.run(body, index, engines)));
    if trace.is_some() {
        shared.tracer.clear_active();
    }
    let done = job
        .progress
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .record(index, output.map_err(panic_message));
    let Some(outputs) = done else {
        return;
    };
    let frames = outputs.and_then(|outputs| {
        catch_unwind(AssertUnwindSafe(|| job.plan.finish(outputs))).map_err(panic_message)
    });
    answer(shared, &job.admitted, frames);
}

/// Sends a request's response frames — or, when it failed, one typed
/// `internal` error — after counting it out of `in_flight` and, on
/// success, into `completed` and the latency histograms: a client that has
/// its response must observe a `metrics` report that already includes it.
fn answer(shared: &Shared, admitted: &AdmittedRequest, frames: Result<Vec<ResponseBody>, String>) {
    shared.in_flight.fetch_sub(1, Ordering::Relaxed); // relaxed-ok: gauge read only by metrics reporting
    let frames = match frames {
        Ok(frames) => {
            shared.completed.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
            shared
                .latency
                .record(admitted.request.body.kind(), admitted.admitted_at.elapsed());
            frames
        }
        Err(message) => vec![ResponseBody::Error {
            code: ErrorCode::Internal,
            message,
        }],
    };
    for body in frames {
        let response = Response {
            id: admitted.request.id,
            body,
        };
        let _ = admitted
            .reply
            .send(Outbound::traced(response, admitted.request.trace));
    }
}

/// The message a caught panic carried.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "request execution panicked".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(body: ResponseBody) -> Result<Output, String> {
        Ok(Output::Frame(body))
    }

    fn bodies(outputs: Vec<Output>) -> Vec<ResponseBody> {
        outputs
            .into_iter()
            .map(|output| match output {
                Output::Frame(body) => body,
                Output::Tile(_) => panic!("no tiles recorded"),
            })
            .collect()
    }

    /// Outputs leave in task order whatever order the tasks finish in, and
    /// only with the last one.
    #[test]
    fn progress_hands_over_outputs_in_task_order_with_the_last_task() {
        let mut progress = Progress::new(3);
        assert!(progress.record(2, frame(ResponseBody::Pong)).is_none());
        assert!(progress
            .record(0, frame(ResponseBody::ShuttingDown))
            .is_none());
        let done = progress.record(1, frame(ResponseBody::Pong));
        let Some(Ok(outputs)) = done else {
            panic!("three of three tasks are in");
        };
        assert_eq!(
            bodies(outputs),
            [
                ResponseBody::ShuttingDown,
                ResponseBody::Pong,
                ResponseBody::Pong
            ]
        );
    }

    /// A panicking worker thread neither strands its siblings nor hides
    /// its panic: every worker is joined and the first payload returned.
    #[test]
    fn join_workers_joins_every_worker_and_returns_the_first_panic() {
        let (done, finished) = std::sync::mpsc::channel();
        let workers = (0..3)
            .map(|i| {
                let done = done.clone();
                std::thread::spawn(move || {
                    if i == 0 {
                        panic!("executor bug");
                    }
                    let _ = done.send(i);
                })
            })
            .collect();
        drop(done);
        let payload = join_workers(workers).expect("the panic is returned");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("executor bug")
        );
        assert_eq!(
            finished.try_iter().count(),
            2,
            "both siblings ran to the end"
        );
    }

    /// A failed task fails the whole request once every task is in: one
    /// error (the first in task order), and none of the other outputs.
    #[test]
    fn a_failed_task_fails_the_request_with_one_error() {
        let mut progress = Progress::new(3);
        assert!(progress.record(2, Err("late".into())).is_none());
        assert!(progress.record(0, frame(ResponseBody::Pong)).is_none());
        match progress.record(1, Err("early".into())) {
            Some(Err(message)) => assert_eq!(message, "early"),
            Some(Ok(_)) => panic!("a failed request handed over outputs"),
            None => panic!("three of three tasks are in"),
        }
    }
}
