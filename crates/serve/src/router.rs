//! The shard router: one front port fanned out over `N` backend `serve`
//! processes.
//!
//! A single serve process caps the machine at one request queue, one
//! [`camo_litho::ContextCache`] and one failure domain. The router
//! multiplies all three while keeping the wire protocol *identical* — a
//! client cannot tell a router from a plain server, and routed results are
//! **bit-identical** to direct single-process serving (the determinism
//! contract makes every shard compute the same bits from the same spec).
//!
//! # Thread anatomy
//!
//! ```text
//!                 ┌──────────────────────── router process ───────────────────────┐
//!  client ──TCP──▶ acceptor ─▶ reader ── register in inflight, route by ────┐     │
//!                 │              │       litho fingerprint, write the frame │     │
//!                 │              ▼                                          │     │
//!                 │            writer ◀── responses (id-translated) ──┐     │     │
//!                 │                                                   │     ▼     │
//!                 │   prober ──ping/pong──▶ ┌────────┐  shard reader ┴─ shard writer
//!                 └─────────────────────────│ shard 0│◀───────────────────────────┘
//!                      (per-shard health)   │ shard 1│  … one TCP channel per shard
//!                                           └────────┘
//! ```
//!
//! * Client-facing threads mirror [`crate::server`]: an acceptor with a
//!   connection cap (over it, a typed [`ResponseBody::Busy`] rejection),
//!   one reader and one writer per connection.
//! * Each connection's **reader forwards** the requests it decodes: it
//!   registers the request in the in-flight table under a fresh router
//!   id, computes its lithography fingerprint
//!   ([`camo_litho::LithoConfig::fingerprint`] via
//!   [`crate::exec::litho_spec`]), and writes it to the shard that
//!   [`shard_preference`] ranks first among the live ones. So one
//!   connection's pipelined requests reach the shard in the order they
//!   were sent. Consistent routing means every configuration's requests
//!   land on one shard, which therefore keeps a **hot context** for it.
//! * One **shard reader** per backend demultiplexes responses: router ids
//!   are translated back to client ids and forwarded to the owning
//!   connection's writer. Sweep cases stream through one by one.
//! * The **prober** pings every live shard on an interval. A shard that
//!   stops answering within the probe timeout — or whose connection drops,
//!   or which sends a frame that does not decode — is marked dead and every
//!   request in flight on it is **redispatched** to the next shard in its
//!   preference order. Sweeps that already streamed some cases to the
//!   client resend only the missing indices (bit-identical recomputation
//!   makes the dedup exact).
//!
//! # Failure semantics
//!
//! * The router holds no request queue: each shard's bounded queue
//!   (`--queue-depth`) answers `busy`, and the router propagates it to the
//!   client unchanged — the shard tier never converts backpressure into
//!   blocking.
//! * A dead shard is routed around immediately (its in-flight work is
//!   redispatched), and — when the tier is supervised ([`route_spawned`]) —
//!   **respawned** by the supervisor thread under the
//!   [`RespawnPolicy`]: capped exponential backoff between attempts, and a
//!   flap-detection [`FlapBreaker`] that *benches* a shard which keeps
//!   dying (it stays down, is reported on stderr and in `metrics`, and
//!   never burns further respawn attempts). A reborn shard rejoins its old
//!   slot in the rendezvous order, so its fingerprints move back on the
//!   next request and rewarm its context.
//! * Every shard connection carries an **epoch**: stale failure reports
//!   from a previous incarnation's reader cannot kill the fresh process.
//! * When every shard is dead, in-flight and new requests complete with a
//!   typed [`ErrorCode::Internal`] error.
//! * The `restart` wire request rolls the tier one shard at a time: drain
//!   the shard (siblings absorb its fingerprints bit-identically), wait
//!   for a graceful exit, respawn, reconnect, move on. The `restarted`
//!   acknowledgement means the whole tier is whole again.
//! * The `metrics` wire request answers a [`MetricsReport`] aggregating
//!   router counters, per-request-kind latency histograms and per-shard
//!   status (the prober's probes double as metrics fetches, so shard
//!   self-reports are cached and cost nothing extra).
//! * Shutdown drains in order: stop accepting (a request decoded after
//!   that answers `shutting_down`), wait for in-flight work (bounded by
//!   [`RouterConfig::drain_timeout`]), then send each live shard a
//!   `shutdown` request and reap the supervised processes.

use crate::client::handshake;
use crate::error::ServeError;
use crate::exec::litho_spec;
use crate::front::{acceptor_loop, AdmittedRequest, FrontHandler, FrontState, Outbound};
use crate::shard::{ShardSet, ShardSpec};
use crate::stats::{KindLatencies, MetricsReport, ShardStatus};
use crate::supervise::{FlapBreaker, RespawnPolicy};
use crate::trace::{ShardTrace, Stage, TraceReport, Tracer};
use crate::wire::{
    decode_response_v2, encode_request_parts_v2, read_frame_v2, ErrorCode, FrameV2, RequestBody,
    Response, ResponseBody,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Front address clients connect to (port 0 picks an ephemeral port).
    pub addr: SocketAddr,
    /// Maximum simultaneously open client connections.
    pub max_connections: usize,
    /// Retry hint carried by router-side `busy` rejections, milliseconds.
    pub retry_after_ms: u64,
    /// Interval between health probes to each live shard.
    pub probe_interval: Duration,
    /// A shard whose probe goes unanswered this long is declared dead.
    pub probe_timeout: Duration,
    /// Upper bound on waiting for in-flight requests at shutdown; requests
    /// still unanswered afterwards complete with a typed internal error.
    pub drain_timeout: Duration,
    /// The supervised-respawn schedule (backoff between respawn attempts
    /// plus the flap breaker). Only consulted when the tier is supervised
    /// ([`route_spawned`]); a router over external addresses never
    /// respawns.
    pub respawn: RespawnPolicy,
    /// Trace every Nth admitted request (`0` disables tracing). Sampled
    /// requests carry their `trace_id` in the forwarded frame so the shard
    /// records spans under the same id.
    pub trace_sample: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            max_connections: 32,
            retry_after_ms: 50,
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(120),
            respawn: RespawnPolicy::default(),
            trace_sample: 0,
        }
    }
}

impl RouterConfig {
    /// Rejects configurations that cannot work: zero capacities, zero
    /// probe/drain intervals, and a respawn policy whose backoff or
    /// breaker window is degenerate. Called by [`route`]/[`route_spawned`];
    /// the CLI surfaces the typed message before binding anything.
    pub fn validate(&self) -> Result<(), ServeError> {
        fn positive(name: &str, d: Duration) -> Result<(), ServeError> {
            if d == Duration::ZERO {
                return Err(ServeError::Config(format!("{name} must be positive")));
            }
            Ok(())
        }
        if self.max_connections == 0 {
            return Err(ServeError::Config(
                "connection cap must be at least 1".into(),
            ));
        }
        positive("probe interval", self.probe_interval)?;
        positive("probe timeout", self.probe_timeout)?;
        positive("drain timeout", self.drain_timeout)?;
        positive("respawn backoff", self.respawn.initial_backoff)?;
        positive("respawn backoff cap", self.respawn.max_backoff)?;
        if self.respawn.max_backoff < self.respawn.initial_backoff {
            return Err(ServeError::Config(
                "respawn backoff cap must be at least the initial backoff".into(),
            ));
        }
        positive("breaker window", self.respawn.breaker_window)?;
        if self.respawn.breaker_failures == 0 {
            return Err(ServeError::Config(
                "breaker failure threshold must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The deterministic shard preference order for one lithography
/// fingerprint: shard indices ranked by rendezvous hashing, best first.
///
/// Every fingerprint ranks *all* shards, so routing degrades gracefully —
/// when the preferred shard dies, its traffic moves as one block to the
/// fingerprint's second choice (keeping per-configuration affinity) instead
/// of being scattered. Distinct fingerprints spread independently, so a
/// multi-configuration workload balances across the tier.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_preference(fingerprint: u64, shards: usize) -> Vec<usize> {
    assert!(shards > 0, "a router needs at least one shard");
    let mut order: Vec<usize> = (0..shards).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(mix(fingerprint, s as u64)));
    order
}

/// SplitMix64-style avalanche of `(fingerprint, shard)` — the rendezvous
/// weight. Vendored (offline build): any statistically decent mixer works,
/// it only has to be deterministic across processes.
fn mix(fingerprint: u64, shard: u64) -> u64 {
    let mut x = fingerprint ^ shard.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// One request in flight on a shard, kept until its final response is
/// forwarded so it can be redispatched if the shard dies.
struct Inflight {
    reply: Sender<Outbound>,
    client_id: u64,
    /// Tracing id assigned at admission (sampled requests only); forwarded
    /// in the shard frame and attached to every response hop.
    trace: Option<u64>,
    /// Shared with in-progress encodes so redispatch never clones payloads.
    body: Arc<RequestBody>,
    shard: usize,
    attempts: usize,
    /// Sweep case indices already forwarded to the client — after a
    /// redispatch, the replacement shard's identical stream is deduplicated
    /// against this set.
    forwarded_cases: BTreeSet<usize>,
    /// Case count, learned from the first case frame.
    total_cases: Option<usize>,
    /// When the request was admitted at the front (latency histograms
    /// include any redispatch detour).
    admitted_at: Instant,
    /// The request kind, for the per-kind latency histogram.
    kind: &'static str,
}

/// The router's connection to one backend shard (one *incarnation* at a
/// time; respawn replaces the address, channel and epoch in place).
struct ShardLink {
    /// Current address — rewritten when a respawned incarnation binds a
    /// fresh ephemeral port.
    addr: Mutex<SocketAddr>, // lock-order: 64
    alive: AtomicBool,
    /// Incarnation counter, bumped on every successful (re)connect. A
    /// failure report carries the epoch it observed; a stale reader from a
    /// previous incarnation can therefore never kill the fresh process.
    epoch: AtomicUsize,
    /// Set by the flap breaker: the shard keeps dying and the supervisor
    /// has stopped respawning it. Cleared by a rolling `restart`.
    benched: AtomicBool,
    /// Set around a planned (rolling-restart) kill so the breaker does not
    /// count it as a crash and the supervisor does not race the restart.
    restarting: AtomicBool,
    /// Successful supervised respawns of this slot.
    respawns: AtomicUsize,
    writer: Mutex<Option<BufWriter<TcpStream>>>, // lock-order: 62
    /// A clone used to shut the channel down so the shard reader unblocks.
    stream: Mutex<Option<TcpStream>>, // lock-order: 60
    forwarded: AtomicUsize,
    /// The shard's last self-report, cached from the prober's `metrics`
    /// probes and served under `ShardStatus` without extra round-trips.
    last_report: Mutex<Option<MetricsReport>>, // lock-order: 66
    /// Serialises liveness transitions (fail vs. reconnect) and guards the
    /// epoch check. Held only for the transition itself, never across I/O
    /// or redispatch.
    state: Mutex<()>, // lock-order: 55
}

impl ShardLink {
    fn addr(&self) -> SocketAddr {
        *self.addr.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One outstanding health probe.
struct Probe {
    shard: usize,
    sent: Instant,
    /// The link epoch the probe was written under; answers and timeouts
    /// from other epochs are stale and dropped.
    epoch: usize,
}

/// Per-shard supervision state (attempt counter drives the backoff
/// schedule; the breaker benches flapping shards).
struct ShardSupervision {
    attempts: u32,
    next_attempt: Instant,
    breaker: FlapBreaker,
}

struct RouterShared {
    config: RouterConfig,
    links: Vec<ShardLink>,
    front: FrontState,
    inflight: Mutex<BTreeMap<u64, Inflight>>, // lock-order: 40
    /// Notified whenever `inflight` shrinks (the drain wait).
    idle: Condvar,
    /// Outstanding health probes by router id.
    probes: Mutex<BTreeMap<u64, Probe>>, // lock-order: 45
    next_id: AtomicU64,
    probe_stop: AtomicBool,
    completed: AtomicUsize,
    redispatched: AtomicUsize,
    /// Most requests ever simultaneously in flight on the shard tier.
    in_flight_high_water: AtomicUsize,
    /// Per-request-kind latency histograms (admission → final response).
    latency: KindLatencies,
    /// The router's tracing plane: sampling at admission, router-side span
    /// recording, and the flight recorder the `trace` request snapshots.
    tracer: Arc<Tracer>,
    /// True when the router owns the shard processes ([`route_spawned`]).
    /// Plain bool (not "is the set present") so [`fail_shard`] never has
    /// to take the `shard_set` lock.
    supervised: bool,
    /// The supervised process set; `None` for routers over external
    /// addresses. Lock order: `shard_set` before any `ShardLink::state`.
    shard_set: Mutex<Option<ShardSet>>, // lock-order: 20
    /// Reader threads for every incarnation ever connected (the supervisor
    /// adds one per respawn); all joined at shutdown.
    reader_handles: Mutex<Vec<JoinHandle<()>>>, // lock-order: 35
    supervision: Mutex<Vec<ShardSupervision>>, // lock-order: 30
    /// Serialises rolling restarts (two concurrent `restart` requests must
    /// not interleave their drains).
    restart_lock: Mutex<()>, // lock-order: 10
    /// Back-reference for [`FrontHandler`] hooks that must spawn threads
    /// (reconnect during a rolling restart).
    self_weak: OnceLock<Weak<RouterShared>>,
}

impl RouterShared {
    fn lock_inflight(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Inflight>> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_probes(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Probe>> {
        self.probes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_shard_set(&self) -> std::sync::MutexGuard<'_, Option<ShardSet>> {
        self.shard_set
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_supervision(&self) -> std::sync::MutexGuard<'_, Vec<ShardSupervision>> {
        self.supervision
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_reader_handles(&self) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.reader_handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn fresh_id(&self) -> u64 {
        // Starts at 1: id 0 is the protocol's "unattributable" marker.
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1 // relaxed-ok: unique-id counter; uniqueness needs only atomicity
    }

    fn alive_count(&self) -> usize {
        self.links
            .iter()
            .filter(|l| l.alive.load(Ordering::SeqCst))
            .count()
    }
}

impl FrontHandler for RouterShared {
    fn front(&self) -> &FrontState {
        &self.front
    }

    /// Registers the request in flight and writes it to its shard, on the
    /// reader that decoded it. A shard's `busy` comes back through the
    /// shard reader; the router itself refuses only at shutdown.
    fn submit(&self, admitted: AdmittedRequest) -> Option<ResponseBody> {
        let router_id = self.fresh_id();
        let entry = Inflight {
            reply: admitted.reply,
            client_id: admitted.request.id,
            trace: admitted.request.trace,
            kind: admitted.request.body.kind(),
            body: Arc::new(admitted.request.body),
            shard: usize::MAX,
            attempts: 0,
            forwarded_cases: BTreeSet::new(),
            total_cases: None,
            admitted_at: admitted.admitted_at,
        };
        let depth = {
            let mut inflight = self.lock_inflight();
            // Checked under the in-flight lock, which the drain takes
            // after the stop flag is set: a request is either refused
            // here or registered where the drain waits for it.
            if self.front.stop.load(Ordering::SeqCst) {
                return Some(ResponseBody::ShuttingDown);
            }
            inflight.insert(router_id, entry);
            inflight.len()
        };
        self.in_flight_high_water
            .fetch_max(depth, Ordering::Relaxed); // relaxed-ok: stats gauge; reads are reporting-only
        send_to_shard(self, router_id);
        None
    }

    fn on_shutdown_request(&self) {
        self.front.begin_shutdown();
    }

    fn metrics(&self) -> MetricsReport {
        let shards: Vec<ShardStatus> = self
            .links
            .iter()
            .enumerate()
            .map(|(index, link)| {
                let report = link
                    .last_report
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone();
                ShardStatus {
                    index,
                    alive: link.alive.load(Ordering::SeqCst),
                    benched: link.benched.load(Ordering::SeqCst),
                    forwarded: link.forwarded.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
                    respawns: link.respawns.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
                    queue_depth: report.as_ref().map_or(0, |r| r.queue_depth),
                    in_flight: report.as_ref().map_or(0, |r| r.in_flight),
                    in_flight_high_water: report.as_ref().map_or(0, |r| r.in_flight_high_water),
                    completed: report.as_ref().map_or(0, |r| r.completed),
                    busy_rejected: report.as_ref().map_or(0, |r| r.busy_rejected),
                }
            })
            .collect();
        MetricsReport {
            role: "router".into(),
            simd_arch: camo_litho::simd_backend().into(),
            queue_depth: 0,
            queue_high_water: 0,
            in_flight: self.lock_inflight().len(),
            in_flight_high_water: self.in_flight_high_water.load(Ordering::Relaxed), // relaxed-ok: stats gauge; reads are reporting-only
            completed: self.completed.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            busy_rejected: self.front.rejected.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            redispatched: self.redispatched.load(Ordering::Relaxed), // relaxed-ok: stats counter; reads are reporting-only
            respawns: shards.iter().map(|s| s.respawns).sum(),
            latency: self.latency.snapshot(),
            stage_latency: self.tracer.stage_latency(),
            shards,
        }
    }

    fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    fn trace(&self) -> ResponseBody {
        // The router's own spans, then each live shard's — pulled over
        // short-lived dedicated connections (a rare admin pull must not
        // thread through the shard channels or take any router lock).
        let mut report = self.tracer.report("router");
        for (index, link) in self.links.iter().enumerate() {
            if !link.alive.load(Ordering::SeqCst) {
                continue;
            }
            if let Some(shard_report) = pull_shard_trace(link.addr()) {
                report.shards.push(ShardTrace {
                    index,
                    dropped: shard_report.dropped,
                    spans: shard_report.spans,
                });
            }
        }
        ResponseBody::Trace(report)
    }

    fn restart(&self, shard: Option<usize>) -> ResponseBody {
        if !self.supervised {
            return ResponseBody::Error {
                code: ErrorCode::BadRequest,
                message: "this router supervises no shard processes; \
                          external shards cannot be restarted"
                    .into(),
            };
        }
        let Some(me) = self.self_weak.get().and_then(Weak::upgrade) else {
            return ResponseBody::Error {
                code: ErrorCode::Internal,
                message: "router is shutting down".into(),
            };
        };
        if let Some(index) = shard {
            if index >= self.links.len() {
                return ResponseBody::Error {
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "shard index {index} out of range (tier has {} shards)",
                        self.links.len()
                    ),
                };
            }
        }
        // Serialise whole rolls: two concurrent restarts draining different
        // shards at once could take the tier below quorum.
        let _serial = self
            .restart_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let targets: Vec<usize> = match shard {
            Some(index) => vec![index],
            None => (0..self.links.len()).collect(),
        };
        let mut restarted = Vec::new();
        for index in targets {
            match restart_one(&me, index) {
                Ok(()) => restarted.push(index),
                Err(e) => {
                    return ResponseBody::Error {
                        code: ErrorCode::Internal,
                        message: format!(
                            "rolling restart failed at shard {index} \
                             (restarted so far: {restarted:?}): {e}"
                        ),
                    };
                }
            }
        }
        ResponseBody::Restarted { shards: restarted }
    }
}

/// Pulls one shard's flight-recorder snapshot over a dedicated short-lived
/// connection. Trace pulls are rare admin reads: a fresh connection keeps
/// them off the shard channels (no writer-lock contention, no frame
/// interleaving with data-plane traffic) and the tight timeouts keep a
/// wedged shard from stalling the pull for the rest of the tier. Any
/// failure simply omits the shard from the merged report.
fn pull_shard_trace(addr: SocketAddr) -> Option<TraceReport> {
    let timeout = Duration::from_secs(2);
    let stream = TcpStream::connect_timeout(&addr, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    let mut writer = BufWriter::new(stream.try_clone().ok()?);
    let mut reader = BufReader::new(stream);
    handshake(&mut writer, &mut reader, 1).ok()?;
    let frame = encode_request_parts_v2(2, &RequestBody::Trace, None).ok()?;
    writer.write_all(&frame).ok()?;
    writer.flush().ok()?;
    match read_frame_v2(&mut reader).ok()?? {
        FrameV2::Frame { opcode, payload } => match decode_response_v2(opcode, &payload).ok()?.body
        {
            ResponseBody::Trace(report) => Some(report),
            _ => None,
        },
        FrameV2::Oversized { .. } => None,
    }
}

/// A running router; [`Self::shutdown`] is the graceful path.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    acceptor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

/// Starts a router over externally managed shard addresses (tests drive
/// this directly; production spawns go through [`route_spawned`]). Such a
/// tier is never respawned: a dead external shard stays routed around.
///
/// # Panics
///
/// Panics if `shards` is empty.
pub fn route(config: RouterConfig, shards: &[SocketAddr]) -> Result<RouterHandle, ServeError> {
    start(config, shards.to_vec(), None)
}

/// Adopts an already-spawned [`ShardSet`]: the router connects to every
/// shard, its supervisor respawns members that die (under
/// [`RouterConfig::respawn`]), and [`RouterHandle::shutdown`] drains and
/// reaps the processes.
pub fn route_spawned(config: RouterConfig, shards: ShardSet) -> Result<RouterHandle, ServeError> {
    let addrs = shards.addrs();
    start(config, addrs, Some(shards))
}

fn start(
    config: RouterConfig,
    addrs: Vec<SocketAddr>,
    supervised: Option<ShardSet>,
) -> Result<RouterHandle, ServeError> {
    assert!(!addrs.is_empty(), "a router needs at least one shard");
    config.validate()?;
    let listener = TcpListener::bind(config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let links: Vec<ShardLink> = addrs
        .iter()
        .map(|&addr| ShardLink {
            addr: Mutex::new(addr),
            alive: AtomicBool::new(false),
            epoch: AtomicUsize::new(0),
            benched: AtomicBool::new(false),
            restarting: AtomicBool::new(false),
            respawns: AtomicUsize::new(0),
            writer: Mutex::new(None),
            stream: Mutex::new(None),
            forwarded: AtomicUsize::new(0),
            last_report: Mutex::new(None),
            state: Mutex::new(()),
        })
        .collect();
    let supervision = (0..links.len())
        .map(|_| ShardSupervision {
            attempts: 0,
            next_attempt: Instant::now(),
            breaker: config.respawn.breaker(),
        })
        .collect();
    let shared = Arc::new(RouterShared {
        links,
        front: FrontState::new(config.max_connections, config.retry_after_ms),
        inflight: Mutex::new(BTreeMap::new()),
        idle: Condvar::new(),
        probes: Mutex::new(BTreeMap::new()),
        next_id: AtomicU64::new(0),
        probe_stop: AtomicBool::new(false),
        completed: AtomicUsize::new(0),
        redispatched: AtomicUsize::new(0),
        in_flight_high_water: AtomicUsize::new(0),
        latency: KindLatencies::new(),
        tracer: Arc::new(Tracer::new(config.trace_sample)),
        supervised: supervised.is_some(),
        shard_set: Mutex::new(supervised),
        reader_handles: Mutex::new(Vec::new()),
        supervision: Mutex::new(supervision),
        restart_lock: Mutex::new(()),
        self_weak: OnceLock::new(),
        config,
    });
    let _ = shared.self_weak.set(Arc::downgrade(&shared));

    // Connect every shard channel up front; a shard that refuses now is
    // simply dead from the start (the tier still serves on the others, and
    // a supervised tier will respawn it).
    for index in 0..shared.links.len() {
        connect_shard(&shared, index);
    }
    if shared.alive_count() == 0 {
        return Err(fail_start(
            &shared,
            Vec::new(),
            "shard channels",
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "no shard accepted the router's connection",
            ),
        ));
    }

    let prober = {
        let worker = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("camo-router-prober".into())
            .spawn(move || prober_loop(&worker))
    };
    let prober = match prober {
        Ok(handle) => handle,
        Err(source) => return Err(fail_start(&shared, Vec::new(), "prober", source)),
    };

    let supervisor = if shared.supervised {
        let worker = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name("camo-router-supervisor".into())
            .spawn(move || supervisor_loop(&worker))
        {
            Ok(handle) => Some(handle),
            Err(source) => {
                return Err(fail_start(&shared, vec![prober], "supervisor", source));
            }
        }
    } else {
        None
    };

    let acceptor = {
        let worker = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("camo-router-acceptor".into())
            .spawn(move || acceptor_loop(listener, &worker))
    };
    let acceptor = match acceptor {
        Ok(handle) => handle,
        Err(source) => {
            let mut threads = vec![prober];
            threads.extend(supervisor);
            return Err(fail_start(&shared, threads, "acceptor", source));
        }
    };

    Ok(RouterHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        prober: Some(prober),
        supervisor,
    })
}

/// Unwinds a partially started router — no thread, process or socket may
/// outlive a failed [`start`] — and converts the cause into a typed error.
fn fail_start(
    shared: &Arc<RouterShared>,
    threads: Vec<JoinHandle<()>>,
    what: &'static str,
    source: io::Error,
) -> ServeError {
    shared.front.begin_shutdown();
    shared.probe_stop.store(true, Ordering::SeqCst);
    for shard in 0..shared.links.len() {
        fail_shard_now(shared, shard);
    }
    for handle in std::mem::take(&mut *shared.lock_reader_handles()) {
        let _ = handle.join();
    }
    for handle in threads {
        let _ = handle.join();
    }
    // Dropping the set kills and reaps any spawned shard processes.
    drop(shared.lock_shard_set().take());
    ServeError::Spawn { what, source }
}

/// Connects one shard channel, performs its `hello` preface, bumps the
/// link epoch and spawns its reader (registered in the shared reader
/// list); `false` — and a dead link — when the shard is unreachable or
/// refuses the preface.
fn connect_shard(shared: &Arc<RouterShared>, index: usize) -> bool {
    let link = &shared.links[index];
    let Ok(stream) = TcpStream::connect(link.addr()) else {
        return false;
    };
    // A wedged shard must not hang a reader behind a full send buffer.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // Readers write one frame per request; Nagle would hold a frame
    // behind an unacknowledged one until the shard's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return false;
    };
    let Ok(closer) = stream.try_clone() else {
        return false;
    };
    // Handshake BEFORE the link goes live: no request can be written
    // ahead of the preface. The reader created here is handed to the
    // reader thread afterwards so any bytes it buffered survive. The wait
    // is bounded: a shard that never answers must not wedge connect (the
    // probe plane would otherwise catch it only much later).
    let mut writer = BufWriter::new(stream);
    let mut reader = BufReader::new(read_half);
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)));
    if handshake(&mut writer, &mut reader, shared.fresh_id()).is_err() {
        return false;
    }
    let _ = reader.get_ref().set_read_timeout(None);
    let epoch = {
        // The transition lock orders this against a concurrent fail_shard:
        // whoever holds it sees a consistent (alive, epoch, channel) triple.
        let _state = link.state.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = link.epoch.load(Ordering::SeqCst) + 1;
        link.epoch.store(epoch, Ordering::SeqCst);
        *link.stream.lock().unwrap_or_else(PoisonError::into_inner) = Some(closer);
        *link.writer.lock().unwrap_or_else(PoisonError::into_inner) = Some(writer);
        link.alive.store(true, Ordering::SeqCst);
        epoch
    };
    let reader_thread = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("camo-router-shard-{index}"))
            .spawn(move || shard_reader_loop(&shared, index, epoch, reader))
    };
    match reader_thread {
        Ok(handle) => {
            shared.lock_reader_handles().push(handle);
            true
        }
        Err(_) => {
            // No reader means no responses: a half-connected link must not
            // stay routable (or satisfy start()'s liveness check).
            fail_shard(shared, index, epoch);
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Forwarding
// ---------------------------------------------------------------------------

/// (Re)dispatches one in-flight request to the best live shard in its
/// fingerprint's preference order; exhausting the tier completes the
/// request with a typed internal error.
fn send_to_shard(shared: &RouterShared, router_id: u64) {
    // Snapshot the body under the lock, then fingerprint and encode
    // outside it — encoding can touch a MiB-scale frame and must not
    // stall response delivery tier-wide. A concurrent redispatch can
    // double-send the same router id at worst; the response path
    // tolerates duplicates (stale-shard and case-index dedup). The body
    // never changes after admission, so one encode covers every retry of
    // the write loop below.
    let (body, trace) = {
        let inflight = shared.lock_inflight();
        match inflight.get(&router_id) {
            Some(entry) => (Arc::clone(&entry.body), entry.trace),
            None => return, // completed concurrently
        }
    };
    let fingerprint = litho_spec(&body)
        .map(|spec| spec.to_config().fingerprint())
        .unwrap_or(0);
    let preference = shard_preference(fingerprint, shared.links.len());
    let frame = match encode_request_parts_v2(router_id, &body, trace) {
        Ok(frame) => frame,
        Err(e) => {
            if let Some(entry) = shared.lock_inflight().remove(&router_id) {
                fail_entry(shared, entry, &format!("unforwardable request: {e}"));
            }
            return;
        }
    };
    loop {
        let shard = {
            let mut inflight = shared.lock_inflight();
            let Some(entry) = inflight.get_mut(&router_id) else {
                return; // completed concurrently
            };
            if entry.attempts >= shared.links.len() {
                // The guard is held, so the entry just observed via
                // get_mut is still there; a miss only means someone
                // completed it, which makes this dispatch a no-op.
                let Some(entry) = inflight.remove(&router_id) else {
                    return;
                };
                drop(inflight);
                fail_entry(shared, entry, "request redispatched too many times");
                return;
            }
            let choice = preference
                .iter()
                .copied()
                .find(|&s| shared.links[s].alive.load(Ordering::SeqCst));
            let Some(shard) = choice else {
                let Some(entry) = inflight.remove(&router_id) else {
                    return; // completed concurrently; nothing left to fail
                };
                drop(inflight);
                fail_entry(shared, entry, "every shard is dead");
                return;
            };
            entry.shard = shard;
            entry.attempts += 1;
            shard
        };
        // Capture the epoch before the write: if the shard is respawned in
        // between, the stale epoch makes the write refuse (it checks under
        // the writer lock) and the fail a no-op, so the loop simply retries
        // with fresh state.
        let epoch = shared.links[shard].epoch.load(Ordering::SeqCst);
        let forward_start = trace.map(|_| Instant::now());
        if write_to_shard(shared, shard, epoch, &frame) {
            shared.links[shard]
                .forwarded
                .fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
            if let (Some(id), Some(start)) = (trace, forward_start) {
                shared.tracer.record_since(id, Stage::Forward, start);
            }
            return;
        }
        // The write failed: the shard is dead. `fail_shard` redispatches
        // everything assigned to it — including this entry — so the loop
        // here only spins again if the entry is somehow still unassigned.
        fail_shard(shared, shard, epoch);
        if shared.lock_inflight().get(&router_id).map(|e| e.shard) != Some(shard) {
            return;
        }
    }
}

/// Writes one pre-encoded frame to a shard channel; false when the channel
/// is down or no longer the incarnation the bytes were encoded for.
fn write_to_shard(shared: &RouterShared, shard: usize, epoch: usize, frame: &[u8]) -> bool {
    let link = &shared.links[shard];
    if !link.alive.load(Ordering::SeqCst) {
        return false;
    }
    // The writer lock IS the shard channel: holding it across the write
    // serialises concurrent readers onto one socket, and the stream's
    // 10s write timeout keeps a wedged shard from pinning it. The epoch
    // check under the lock closes the respawn race — bytes meant for one
    // incarnation (a probe, a restart's shutdown) never reach its
    // successor.
    // io-ok: serialising the socket is this lock's entire purpose.
    let mut writer = link.writer.lock().unwrap_or_else(PoisonError::into_inner);
    if link.epoch.load(Ordering::SeqCst) != epoch {
        return false;
    }
    let Some(w) = writer.as_mut() else {
        return false;
    };
    w.write_all(frame).is_ok() && w.flush().is_ok()
}

/// Completes one request with a typed internal error (shard tier failure).
fn fail_entry(shared: &RouterShared, entry: Inflight, message: &str) {
    // Count before the reply is handed to the writer so a client holding
    // the response always observes a `metrics` report that includes it.
    shared.completed.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
    let _ = entry.reply.send(Outbound::traced(
        Response {
            id: entry.client_id,
            body: ResponseBody::Error {
                code: ErrorCode::Internal,
                message: message.to_string(),
            },
        },
        entry.trace,
    ));
    shared.idle.notify_all();
}

/// Marks one shard dead, closes its channel so the reader unblocks, and
/// redispatches every request in flight on it. Idempotent, and a no-op
/// when `epoch` is stale — a lingering reader from a killed incarnation
/// can never take down the respawned process.
fn fail_shard(shared: &RouterShared, shard: usize, epoch: usize) {
    let link = &shared.links[shard];
    {
        let _state = link.state.lock().unwrap_or_else(PoisonError::into_inner);
        if link.epoch.load(Ordering::SeqCst) != epoch {
            return;
        }
        if !link.alive.swap(false, Ordering::SeqCst) {
            return;
        }
        if let Some(stream) = link
            .stream
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = stream.shutdown(Shutdown::Both);
        }
        link.writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
    }
    shared
        .lock_probes()
        .retain(|_, probe| probe.shard != shard || probe.epoch != epoch);
    // An unplanned death of a supervised shard counts toward the flap
    // breaker (a planned rolling-restart kill does not). Recorded outside
    // the transition lock: the breaker shares a mutex with the supervisor.
    if shared.supervised && !link.restarting.load(Ordering::SeqCst) {
        let mut supervision = shared.lock_supervision();
        if supervision[shard].breaker.record(Instant::now())
            && !link.benched.swap(true, Ordering::SeqCst)
        {
            eprintln!(
                "router: shard {shard} benched — {} deaths within {:?}; \
                 it will not be respawned (send a `restart` request to retry)",
                shared.config.respawn.breaker_failures, shared.config.respawn.breaker_window
            );
        }
    }
    let stranded: Vec<u64> = shared
        .lock_inflight()
        .iter()
        .filter(|(_, e)| e.shard == shard)
        .map(|(&id, _)| id)
        .collect();
    for router_id in stranded {
        shared.redispatched.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
        send_to_shard(shared, router_id);
    }
}

/// [`fail_shard`] against the link's *current* epoch — for callers making
/// a fresh decision (shutdown, rolling restart) rather than reporting an
/// observation that might be stale.
fn fail_shard_now(shared: &RouterShared, shard: usize) {
    let epoch = shared.links[shard].epoch.load(Ordering::SeqCst);
    fail_shard(shared, shard, epoch);
}

// ---------------------------------------------------------------------------
// Shard responses
// ---------------------------------------------------------------------------

fn shard_reader_loop(
    shared: &Arc<RouterShared>,
    shard: usize,
    epoch: usize,
    mut reader: BufReader<TcpStream>,
) {
    // Ends on EOF, a transport error, or an oversized frame — the channel
    // is unusable either way — and on the protocol violations below.
    while let Ok(Some(FrameV2::Frame { opcode, payload })) = read_frame_v2(&mut reader) {
        let response = match decode_response_v2(opcode, &payload) {
            Ok(response) => response,
            // A backend speaking garbage is a protocol violation, not a
            // client error: fail the shard, recompute elsewhere.
            Err(_) => break,
        };
        if !handle_shard_response(shared, shard, response) {
            break;
        }
    }
    // Carries this incarnation's epoch: if the shard has already been
    // respawned, this is a stale observation and a no-op.
    fail_shard(shared, shard, epoch);
}

/// Translates one shard response back to its client; false when the
/// response proves the shard must be failed.
fn handle_shard_response(shared: &RouterShared, shard: usize, response: Response) -> bool {
    // Id 0 means the shard could not decode a frame the router sent —
    // which the router never does; the channel is desynchronised.
    if response.id == 0 {
        return false;
    }
    if let Some(probe) = shared.lock_probes().remove(&response.id) {
        // Probes are `metrics` requests, so a healthy answer doubles as
        // the shard's self-report; a bare `pong` is also accepted. Any
        // other body under a probe id is a protocol violation.
        if probe.shard != shard {
            return false;
        }
        return match response.body {
            ResponseBody::Metrics(report) => {
                *shared.links[shard]
                    .last_report
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(report);
                true
            }
            ResponseBody::Pong => true,
            _ => false,
        };
    }
    let mut inflight = shared.lock_inflight();
    let Some(entry) = inflight.get_mut(&response.id) else {
        // Late or duplicate frame for a request that already completed
        // (e.g. the tail of a redispatched sweep); drop it.
        return true;
    };
    if entry.shard != shard {
        // A frame raced the failover from the old shard; the replacement
        // shard owns this request now.
        return true;
    }
    let client_id = entry.client_id;
    match response.body {
        ResponseBody::CaseOutcome {
            index,
            total,
            name,
            outcome,
        } => {
            if entry.total_cases.get_or_insert(total) != &total || index >= total {
                return false; // inconsistent sweep stream
            }
            if !entry.forwarded_cases.insert(index) {
                return true; // already streamed before a redispatch
            }
            let done = entry.forwarded_cases.len() == total;
            let reply = entry.reply.clone();
            let trace = entry.trace;
            let sample = (entry.kind, entry.admitted_at);
            if done {
                inflight.remove(&response.id);
            }
            drop(inflight);
            // Sample and count before the final case reaches the writer so
            // a client holding the last response always observes a
            // `metrics` report that includes the sweep.
            if done {
                shared.latency.record(sample.0, sample.1.elapsed());
                shared.completed.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
            }
            let _ = reply.send(Outbound::traced(
                Response {
                    id: client_id,
                    body: ResponseBody::CaseOutcome {
                        index,
                        total,
                        name,
                        outcome,
                    },
                },
                trace,
            ));
            if done {
                shared.idle.notify_all();
            }
            true
        }
        // A shard announcing shutdown while it still owes work is dying;
        // fail it so the work is recomputed elsewhere.
        ResponseBody::ShuttingDown => false,
        body => {
            // Single-frame completions: outcome, evaluation, layout,
            // `busy` (typed backpressure propagated unchanged) and typed
            // errors all end the request. One exception: `busy` for a
            // sweep that already streamed cases to the client cannot be
            // forwarded — "never accepted" would contradict the results
            // the client already holds — so it completes as a typed error
            // instead.
            // The guard held since get_mut keeps the entry pinned; treat
            // a miss as a request that already completed.
            let Some(entry) = inflight.remove(&response.id) else {
                return true;
            };
            drop(inflight);
            let body = match body {
                ResponseBody::Busy { .. } if !entry.forwarded_cases.is_empty() => {
                    ResponseBody::Error {
                        code: ErrorCode::Internal,
                        message: "shard rejected a partially delivered sweep on failover".into(),
                    }
                }
                body => body,
            };
            // Busy rejections and typed errors are not latency samples:
            // the histogram measures served work, not refusal round-trips.
            if !matches!(body, ResponseBody::Busy { .. } | ResponseBody::Error { .. }) {
                shared
                    .latency
                    .record(entry.kind, entry.admitted_at.elapsed());
            }
            shared.completed.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
            let _ = entry.reply.send(Outbound::traced(
                Response {
                    id: client_id,
                    body,
                },
                entry.trace,
            ));
            shared.idle.notify_all();
            true
        }
    }
}

// ---------------------------------------------------------------------------
// Health probes
// ---------------------------------------------------------------------------

fn prober_loop(shared: &Arc<RouterShared>) {
    while !shared.probe_stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        for shard in 0..shared.links.len() {
            let link = &shared.links[shard];
            if !link.alive.load(Ordering::SeqCst) {
                continue;
            }
            let epoch = link.epoch.load(Ordering::SeqCst);
            let (outstanding, timed_out) = {
                let mut probes = shared.lock_probes();
                // Probes written to a previous incarnation can never be
                // answered; drop them instead of timing out the fresh one.
                probes.retain(|_, p| p.shard != shard || p.epoch == epoch);
                let mut outstanding = false;
                let mut timed_out = false;
                for probe in probes.values() {
                    if probe.shard == shard {
                        outstanding = true;
                        if now.duration_since(probe.sent) > shared.config.probe_timeout {
                            timed_out = true;
                        }
                    }
                }
                (outstanding, timed_out)
            };
            if timed_out {
                fail_shard(shared, shard, epoch);
                continue;
            }
            if outstanding {
                continue;
            }
            // Probes are `metrics` requests: liveness and the shard's
            // self-report (queue depth, in-flight, counters) in one
            // round-trip, cached on the link for the router's own report.
            let id = shared.fresh_id();
            let frame = match encode_request_parts_v2(id, &RequestBody::Metrics, None) {
                Ok(frame) => frame,
                Err(_) => continue,
            };
            // Stamped at insertion, not with the sweep-top `now`: a write
            // stall on an earlier shard must not age this probe before it
            // is even sent (a healthy shard would look timed out).
            shared.lock_probes().insert(
                id,
                Probe {
                    shard,
                    sent: Instant::now(),
                    epoch,
                },
            );
            if !write_to_shard(shared, shard, epoch, &frame) {
                shared.lock_probes().remove(&id);
                fail_shard(shared, shard, epoch);
            }
        }
        std::thread::sleep(shared.config.probe_interval);
    }
}

// ---------------------------------------------------------------------------
// Supervision: respawn, breaker, rolling restart
// ---------------------------------------------------------------------------

/// The supervisor thread (supervised tiers only): respawns dead shards on
/// the [`RespawnPolicy`] backoff schedule, skipping benched shards and
/// shards mid-rolling-restart.
fn supervisor_loop(shared: &Arc<RouterShared>) {
    while !shared.probe_stop.load(Ordering::SeqCst) {
        for shard in 0..shared.links.len() {
            if shared.probe_stop.load(Ordering::SeqCst) {
                return;
            }
            let link = &shared.links[shard];
            if link.alive.load(Ordering::SeqCst)
                || link.benched.load(Ordering::SeqCst)
                || link.restarting.load(Ordering::SeqCst)
            {
                continue;
            }
            let due = {
                let supervision = shared.lock_supervision();
                Instant::now() >= supervision[shard].next_attempt
            };
            if due {
                attempt_respawn(shared, shard);
            }
        }
        std::thread::sleep(shared.config.probe_interval.min(Duration::from_millis(50)));
    }
}

/// One supervised respawn attempt. Success rearms the backoff schedule
/// (but keeps the breaker's failure history — a flapping shard that keeps
/// coming back still trips it); failure schedules the next attempt and
/// counts toward the breaker.
fn attempt_respawn(shared: &Arc<RouterShared>, shard: usize) {
    let respawned = {
        let mut set_guard = shared.lock_shard_set();
        let Some(set) = set_guard.as_mut() else {
            return;
        };
        set.respawn(shard)
    };
    match respawned {
        Ok(addr) => {
            *shared.links[shard]
                .addr
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = addr;
            if connect_shard(shared, shard) {
                shared.links[shard].respawns.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
                let mut supervision = shared.lock_supervision();
                supervision[shard].attempts = 0;
                supervision[shard].next_attempt = Instant::now();
                eprintln!("router: shard {shard} respawned at {addr}");
            } else {
                note_respawn_failure(shared, shard, "respawned shard refused the connection");
            }
        }
        Err(e) => note_respawn_failure(shared, shard, &e.to_string()),
    }
}

/// Books one failed respawn attempt: advance the backoff schedule and
/// count it toward the flap breaker (a shard whose *handshake* keeps
/// failing — bad port file, instant exit — is as flappy as one that
/// crashes after connecting).
fn note_respawn_failure(shared: &RouterShared, shard: usize, why: &str) {
    let policy = &shared.config.respawn;
    let backoff = policy.backoff();
    let mut supervision = shared.lock_supervision();
    let entry = &mut supervision[shard];
    entry.attempts = entry.attempts.saturating_add(1);
    entry.next_attempt = Instant::now() + backoff.delay(entry.attempts);
    let tripped = entry.breaker.record(Instant::now());
    drop(supervision);
    if tripped {
        if !shared.links[shard].benched.swap(true, Ordering::SeqCst) {
            eprintln!(
                "router: shard {shard} benched — {} failures within {:?} ({why}); \
                 it will not be respawned (send a `restart` request to retry)",
                policy.breaker_failures, policy.breaker_window
            );
        }
    } else {
        eprintln!("router: shard {shard} respawn failed ({why}); backing off");
    }
}

/// One step of a rolling restart: drain the shard (siblings absorb its
/// fingerprints — bit-identical recomputation makes that invisible), wait
/// briefly for a graceful exit, respawn, reconnect, rearm supervision.
fn restart_one(shared: &Arc<RouterShared>, shard: usize) -> io::Result<()> {
    let link = &shared.links[shard];
    link.restarting.store(true, Ordering::SeqCst);
    let result = (|| {
        if link.alive.load(Ordering::SeqCst) {
            // Ask nicely first so the shard drains its own queue, then
            // close the channel: in-flight work redispatches to siblings
            // and new work routes around the hole.
            let id = shared.fresh_id();
            let epoch = link.epoch.load(Ordering::SeqCst);
            if let Ok(frame) = encode_request_parts_v2(id, &RequestBody::Shutdown, None) {
                let _ = write_to_shard(shared, shard, epoch, &frame);
            }
            fail_shard_now(shared, shard);
        }
        let addr = {
            let mut set_guard = shared.lock_shard_set();
            let set = set_guard.as_mut().ok_or_else(|| {
                io::Error::new(io::ErrorKind::Unsupported, "no supervised shard set")
            })?;
            let _ = set.wait_one(shard, Duration::from_secs(2));
            set.respawn(shard)?
        };
        *link.addr.lock().unwrap_or_else(PoisonError::into_inner) = addr;
        if !connect_shard(shared, shard) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "respawned shard refused the router's connection",
            ));
        }
        link.respawns.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
        link.benched.store(false, Ordering::SeqCst);
        let mut supervision = shared.lock_supervision();
        supervision[shard].attempts = 0;
        supervision[shard].next_attempt = Instant::now();
        supervision[shard].breaker.reset();
        Ok(())
    })();
    link.restarting.store(false, Ordering::SeqCst);
    result
}

// ---------------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------------

impl RouterHandle {
    /// The bound front address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current address of each shard, in shard order (respawned
    /// incarnations bind fresh ephemeral ports).
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shared.links.iter().map(|l| l.addr()).collect()
    }

    /// The router's own [`MetricsReport`] — the same payload a `metrics`
    /// wire request answers, without a round-trip.
    pub fn metrics(&self) -> MetricsReport {
        self.shared.metrics()
    }

    /// Force-kills one **supervised** shard process — the
    /// failure-injection hook behind the redispatch and chaos tests. The
    /// supervisor will notice and respawn it (unless the breaker benches
    /// the slot first). No-op for routers over external shard addresses.
    pub fn kill_shard(&self, index: usize) -> std::io::Result<()> {
        match self.shared.lock_shard_set().as_mut() {
            Some(set) => set.kill(index),
            None => Ok(()),
        }
    }

    /// Runs `f` against the supervised launch spec (`None` for routers
    /// over external addresses) — the failure-injection hook behind the
    /// breaker tests: point the binary at something that corrupts its
    /// handshake and every respawn attempt fails.
    pub fn with_shard_spec<R>(&self, f: impl FnOnce(&mut ShardSpec) -> R) -> Option<R> {
        self.shared
            .lock_shard_set()
            .as_mut()
            .map(|set| f(set.spec_mut()))
    }

    /// Blocks until a client sends a `shutdown` request (the serve
    /// binary's main loop in router mode).
    pub fn wait_for_shutdown_request(&self) {
        self.shared.front.wait_for_shutdown();
    }

    /// Gracefully shuts the whole tier down: stop accepting, wait
    /// (bounded) for in-flight responses, ask every live shard to drain and
    /// exit, reap supervised processes, join all threads. Returns the final
    /// [`MetricsReport`].
    pub fn shutdown(mut self) -> MetricsReport {
        self.shared.front.begin_shutdown();
        self.drain_inflight();
        self.shared.probe_stop.store(true, Ordering::SeqCst);
        self.finish();
        self.metrics()
    }

    /// Waits for in-flight requests, erroring out whatever remains after
    /// the drain timeout (a hung shard must not wedge shutdown forever).
    fn drain_inflight(&self) {
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        let mut inflight = self.shared.lock_inflight();
        while !inflight.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .shared
                .idle
                .wait_timeout(inflight, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inflight = guard;
        }
        let stranded: Vec<Inflight> = std::mem::take(&mut *inflight).into_values().collect();
        drop(inflight);
        for entry in stranded {
            fail_entry(&self.shared, entry, "router shut down before a response");
        }
    }

    /// Sends every live shard a `shutdown`, joins all router threads and
    /// reaps supervised shard processes.
    fn finish(&mut self) {
        // The supervisor goes first (probe_stop is already set): a respawn
        // racing the drain below could resurrect a shard after its
        // shutdown frame was sent.
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        for shard in 0..self.shared.links.len() {
            let link = &self.shared.links[shard];
            if !link.alive.load(Ordering::SeqCst) {
                continue;
            }
            let id = self.shared.fresh_id();
            let epoch = link.epoch.load(Ordering::SeqCst);
            if let Ok(frame) = encode_request_parts_v2(id, &RequestBody::Shutdown, None) {
                let _ = write_to_shard(&self.shared, shard, epoch, &frame);
            }
        }
        // A well-behaved shard closes its connection after the shutdown
        // acknowledgement, ending its reader; a wedged one must not hang
        // the router forever — after the grace period its channel is
        // force-closed so the join below always completes.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let pending = self
                .shared
                .lock_reader_handles()
                .iter()
                .any(|h| !h.is_finished());
            if !pending || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for shard in 0..self.shared.links.len() {
            fail_shard_now(&self.shared, shard);
        }
        for handle in std::mem::take(&mut *self.shared.lock_reader_handles()) {
            let _ = handle.join();
        }
        if let Some(mut set) = self.shared.lock_shard_set().take() {
            let _ = set.wait_all(Duration::from_secs(30));
        }
        if let Some(handle) = self.prober.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shared.front.begin_shutdown();
        self.shared.probe_stop.store(true, Ordering::SeqCst);
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preference_orders_are_deterministic_permutations() {
        for shards in 1..=8usize {
            for fp in [0u64, 1, 42, u64::MAX, 0x9e37_79b9] {
                let a = shard_preference(fp, shards);
                assert_eq!(a, shard_preference(fp, shards), "stable per (fp, n)");
                let mut sorted = a.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..shards).collect::<Vec<_>>(), "a permutation");
            }
        }
    }

    #[test]
    fn preference_spreads_fingerprints_across_shards() {
        let shards = 4usize;
        let mut first_choice = vec![0usize; shards];
        for fp in 0..256u64 {
            first_choice[shard_preference(fp.wrapping_mul(0x2545_f491_4f6c_dd1d), shards)[0]] += 1;
        }
        for (s, &count) in first_choice.iter().enumerate() {
            assert!(
                count > 256 / shards / 4,
                "shard {s} starves: {first_choice:?}"
            );
        }
    }

    #[test]
    fn every_serving_socket_disables_nagle() {
        let shard = crate::serve(crate::ServerConfig::default()).expect("shard");
        let router = route(RouterConfig::default(), &[shard.addr()]).expect("router");
        let client = crate::client::Client::connect(router.addr()).expect("client");
        assert!(client.socket().nodelay().unwrap(), "client socket");
        // The handshake has completed, so the router's front has accepted
        // and registered the client's connection.
        let accepted = router.shared.front.lock_streams();
        assert!(!accepted.is_empty(), "the front registered the client");
        for (_, stream) in accepted.iter() {
            assert!(stream.nodelay().unwrap(), "accepted client connection");
        }
        drop(accepted);
        let link = router.shared.links[0].stream.lock().unwrap();
        let link = link.as_ref().expect("shard link is up");
        assert!(link.nodelay().unwrap(), "router-to-shard link");
    }
}
