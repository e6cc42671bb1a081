//! The client-facing connection front-end shared by the single-process
//! server and the shard router.
//!
//! Both processes present the same face to a client: an acceptor with a
//! connection cap, one reader and one writer thread per connection, inline
//! `ping`/`metrics`/`restart`/`shutdown` handling, typed `busy`
//! rejections, and a stream registry so shutdown can unblock every reader.
//! Control requests are answered by the reader thread itself — never
//! queued — so health and observability stay responsive even when the
//! request queue is saturated. Only what happens to an *admitted* request
//! differs — the server queues it for its workers, the router writes it to
//! a shard — so that single decision is [`FrontHandler::submit`] and
//! everything else lives here once.

use crate::stats::MetricsReport;
use crate::trace::{Stage, Tracer};
use crate::wire::{
    decode_request, decode_request_v2, encode_response, encode_response_v2, read_frame,
    read_frame_v2, ErrorCode, Frame, FrameV2, Request, RequestBody, Response, ResponseBody,
    WireError,
};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection-tier state embedded in the server's and the router's shared
/// state: liveness counters, the stop flag, the shutdown rendezvous, and
/// the registry of streams to read-shutdown at exit.
pub(crate) struct FrontState {
    /// Maximum simultaneously open client connections.
    max_connections: usize,
    /// Retry hint carried by `busy` rejections, milliseconds.
    retry_after_ms: u64,
    pub(crate) stop: AtomicBool,
    live: AtomicUsize,
    /// Connections accepted so far: the next connection's id.
    connections: AtomicUsize,
    pub(crate) rejected: AtomicUsize,
    shutdown_flag: Mutex<bool>, // lock-order: 50
    shutdown_cv: Condvar,
    /// Stream clones used to read-shutdown blocked readers at exit, keyed
    /// by connection id so entries are dropped when their reader exits —
    /// otherwise a long-lived process would leak one fd per past
    /// connection.
    streams: Mutex<Vec<(u64, TcpStream)>>, // lock-order: 52
}

impl FrontState {
    pub(crate) fn new(max_connections: usize, retry_after_ms: u64) -> Self {
        Self {
            max_connections,
            retry_after_ms,
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            streams: Mutex::new(Vec::new()),
        }
    }

    /// Counts one `busy` rejection and returns its body.
    pub(crate) fn busy(&self) -> ResponseBody {
        self.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
        ResponseBody::Busy {
            retry_after_ms: self.retry_after_ms,
        }
    }

    /// Stops the acceptor, read-shuts every registered connection so
    /// blocked readers unblock, and wakes [`Self::wait_for_shutdown`]
    /// waiters. Idempotent; callers close their own request queue.
    pub(crate) fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for (_, stream) in self.lock_streams().iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let mut flag = self
            .shutdown_flag
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *flag = true;
        self.shutdown_cv.notify_all();
    }

    /// Blocks until [`Self::begin_shutdown`] has run (the binaries' main
    /// loop). Returns immediately if shutdown already began.
    pub(crate) fn wait_for_shutdown(&self) {
        let mut flag = self
            .shutdown_flag
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*flag {
            flag = self
                .shutdown_cv
                .wait(flag)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub(crate) fn lock_streams(&self) -> std::sync::MutexGuard<'_, Vec<(u64, TcpStream)>> {
        self.streams.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn deregister_stream(&self, conn_id: u64) {
        self.lock_streams().retain(|(id, _)| *id != conn_id);
    }
}

/// One response headed for a connection's writer thread, tagged with the
/// trace id of the request it answers (when that request was sampled) so
/// the writer can record `encode`/`write` spans without re-decoding
/// anything.
pub(crate) struct Outbound {
    pub(crate) response: Response,
    pub(crate) trace: Option<u64>,
}

impl Outbound {
    /// An untraced response (control answers, decode errors).
    pub(crate) fn plain(response: Response) -> Self {
        Self {
            response,
            trace: None,
        }
    }

    /// A response answering a (possibly sampled) admitted request.
    pub(crate) fn traced(response: Response, trace: Option<u64>) -> Self {
        Self { response, trace }
    }
}

/// One request admitted past the connection tier: the decoded request plus
/// the sender feeding its connection's writer thread. What
/// [`FrontHandler::submit`] takes.
pub(crate) struct AdmittedRequest {
    pub(crate) reply: Sender<Outbound>,
    pub(crate) request: Request,
    /// When the reader admitted the request — the start of the latency
    /// sample its completion records (queueing included, so histograms
    /// show what a client actually experienced).
    pub(crate) admitted_at: Instant,
}

/// What the embedding process does with an admitted request; everything
/// else about a connection's life is shared.
pub(crate) trait FrontHandler: Send + Sync + 'static {
    /// The embedded connection-tier state.
    fn front(&self) -> &FrontState;
    /// Takes one admitted request on the reader thread that decoded it,
    /// so one connection's requests are submitted in the order they were
    /// sent. The server pushes it onto its bounded queue; the router
    /// writes it to a shard. Returns the refusal to answer instead (`busy`
    /// for a full queue, counted via [`FrontState::busy`], or
    /// `shutting_down`).
    fn submit(&self, admitted: AdmittedRequest) -> Option<ResponseBody>;
    /// A client asked the process to drain and exit (the acknowledgement
    /// has already been sent).
    fn on_shutdown_request(&self);
    /// The process's current [`MetricsReport`], answered inline by the
    /// reader thread (works under queue saturation).
    fn metrics(&self) -> MetricsReport;
    /// The process's tracing plane: sampling decisions at admission, span
    /// recording at every hop.
    fn tracer(&self) -> &Arc<Tracer>;
    /// The process's current [`crate::trace::TraceReport`], answered inline
    /// by the reader thread (a router merges in each live shard's spans).
    fn trace(&self) -> ResponseBody;
    /// An admin `restart` request. The default rejects it: a plain server
    /// has nothing to restart without dropping the very connection the
    /// request arrived on. The router overrides this with a rolling
    /// restart of its shard tier.
    fn restart(&self, shard: Option<usize>) -> ResponseBody {
        let _ = shard;
        ResponseBody::Error {
            code: ErrorCode::BadRequest,
            message: "this process has no shard tier to restart".into(),
        }
    }

    /// Takes one decoded request that is not a control kind through
    /// [`Self::submit`] and answers its refusal, if any.
    ///
    /// This is also where sampling happens: a request that did not arrive
    /// with a `trace_id` (i.e. not forwarded by an upstream router) may be
    /// assigned one here, and sampled requests get an `admit` span, which
    /// ends where `submit` begins. The sampled-out path costs one atomic
    /// increment and no clock reads.
    fn admit(&self, reply: &Sender<Outbound>, mut request: Request) {
        if request.trace.is_none() {
            request.trace = self.tracer().maybe_assign();
        }
        let (id, trace) = (request.id, request.trace);
        let admitted_at = Instant::now();
        let admitted = AdmittedRequest {
            reply: reply.clone(),
            request,
            admitted_at,
        };
        if let Some(id) = trace {
            self.tracer().record_since(id, Stage::Admit, admitted_at);
        }
        if let Some(body) = self.submit(admitted) {
            let _ = reply.send(Outbound::traced(Response { id, body }, trace));
        }
    }
}

/// Accepts connections until shutdown, enforcing the connection cap; joins
/// every connection thread before returning.
pub(crate) fn acceptor_loop<H: FrontHandler>(listener: TcpListener, shared: &Arc<H>) {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    while !shared.front().stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                conn_threads.retain(|h| !h.is_finished());
                let front = shared.front();
                let conn_id = front.connections.fetch_add(1, Ordering::Relaxed) as u64; // relaxed-ok: connection-id counter; uniqueness needs only atomicity
                if front.live.fetch_add(1, Ordering::SeqCst) >= front.max_connections {
                    front.live.fetch_sub(1, Ordering::SeqCst);
                    reject_connection(stream, front.busy());
                    continue;
                }
                match spawn_connection(conn_id, stream, shared) {
                    Ok(handles) => conn_threads.extend(handles),
                    Err(_) => {
                        shared.front().live.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    for handle in conn_threads {
        let _ = handle.join();
    }
}

/// Turns an over-cap connection away with a single text `busy` line in
/// place of the `hello_ack`; dropping the stream closes it.
fn reject_connection(stream: TcpStream, busy: ResponseBody) {
    let _ = write_preface_reply(&stream, &Response { id: 0, body: busy });
}

/// Writes one text preface reply line (`hello_ack`, `error` or `busy`)
/// straight to the socket.
fn write_preface_reply(mut stream: &TcpStream, response: &Response) -> std::io::Result<()> {
    let line = encode_response(response)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    stream.write_all(format!("{line}\n").as_bytes())
}

fn bad_request(id: u64, message: String) -> Response {
    Response {
        id,
        body: ResponseBody::Error {
            code: ErrorCode::BadRequest,
            message,
        },
    }
}

fn spawn_connection<H: FrontHandler>(
    conn_id: u64,
    stream: TcpStream,
    shared: &Arc<H>,
) -> std::io::Result<[JoinHandle<()>; 2]> {
    // A dead or stalled client must not wedge shutdown behind a full send
    // buffer; writers give up after this long.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // Each response is one `write_all` + `flush`; with Nagle on, a frame
    // written behind an unacknowledged one waits out the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let read_half = stream.try_clone()?;
    shared
        .front()
        .lock_streams()
        .push((conn_id, stream.try_clone()?));
    // Close the race with a concurrent `begin_shutdown`: if its
    // read-shutdown pass already swept the registry, sweep this connection
    // ourselves so the reader observes EOF instead of blocking forever.
    if shared.front().stop.load(Ordering::SeqCst) {
        let _ = read_half.shutdown(Shutdown::Read);
    }
    let (tx, rx) = channel::<Outbound>();

    let writer = {
        let tracer = Arc::clone(shared.tracer());
        std::thread::Builder::new()
            .name("camo-serve-writer".into())
            .spawn(move || writer_loop(stream, rx, &tracer))
    };
    let writer = match writer {
        Ok(handle) => handle,
        Err(e) => {
            shared.front().deregister_stream(conn_id);
            return Err(e);
        }
    };
    let reader = {
        let shared_for_reader = Arc::clone(shared);
        std::thread::Builder::new()
            .name("camo-serve-reader".into())
            .spawn(move || {
                reader_loop(read_half, &*shared_for_reader, tx);
                shared_for_reader.front().deregister_stream(conn_id);
                shared_for_reader
                    .front()
                    .live
                    .fetch_sub(1, Ordering::SeqCst);
            })
    };
    let reader = match reader {
        Ok(handle) => handle,
        Err(e) => {
            // `tx` was moved into the failed spawn attempt and dropped, so
            // the writer drains and exits on its own.
            shared.front().deregister_stream(conn_id);
            return Err(e);
        }
    };
    Ok([reader, writer])
}

/// Encodes one response frame, falling back to a typed internal error
/// when the response itself is unencodable.
fn encode_outbound(response: &Response) -> Option<Vec<u8>> {
    match encode_response_v2(response) {
        Ok(bytes) => Some(bytes),
        Err(e) => encode_response_v2(&Response {
            id: response.id,
            body: ResponseBody::Error {
                code: ErrorCode::Internal,
                message: format!("unencodable response: {e}"),
            },
        })
        .ok(),
    }
}

fn writer_loop(stream: TcpStream, rx: Receiver<Outbound>, tracer: &Tracer) {
    let mut writer = BufWriter::new(stream);
    // Ends when every sender (reader + admitted requests) is gone; the
    // final write-shutdown sends FIN so clients draining the stream observe
    // EOF even while the shutdown registry still holds a clone.
    while let Ok(Outbound { response, trace }) = rx.recv() {
        let encode_start = trace.map(|_| Instant::now());
        let Some(bytes) = encode_outbound(&response) else {
            continue;
        };
        if let (Some(id), Some(start)) = (trace, encode_start) {
            tracer.record_since(id, Stage::Encode, start);
        }
        let write_start = trace.map(|_| Instant::now());
        if writer.write_all(&bytes).is_err() || writer.flush().is_err() {
            break;
        }
        if let (Some(id), Some(start)) = (trace, write_start) {
            tracer.record_since(id, Stage::Write, start);
        }
    }
    let _ = writer.get_ref().shutdown(Shutdown::Write);
}

/// Reads and answers the connection's text preface; `true` once both ends
/// speak binary frames. Any first line but a `hello` naming version 2 is
/// answered with one `bad_request` line, after which the connection
/// closes. The reply goes straight onto the socket: nothing has been
/// admitted yet, so the writer thread has nothing queued ahead of it.
fn accept_preface(reader: &mut BufReader<TcpStream>) -> bool {
    let request = match read_frame(reader) {
        Ok(Some(Frame::Line(line))) => decode_request(&line),
        Ok(Some(Frame::Oversized { len })) => Err(WireError::Oversized { len }),
        Ok(None) | Err(_) => return false,
    };
    let (id, message) = match request {
        Ok(Request {
            id,
            body: RequestBody::Hello { version: 2 },
            ..
        }) => {
            let ack = Response {
                id,
                body: ResponseBody::HelloAck { version: 2 },
            };
            return write_preface_reply(reader.get_ref(), &ack).is_ok();
        }
        Ok(Request {
            id,
            body: RequestBody::Hello { version },
            ..
        }) => (
            id,
            format!("unsupported protocol version {version}; this server speaks 2"),
        ),
        Ok(request) => (request.id, "expected a `hello` line".to_string()),
        Err(e) => (0, format!("expected a `hello` line naming version 2: {e}")),
    };
    // A detail echoing a pathological line may not fit one preface line.
    if write_preface_reply(reader.get_ref(), &bad_request(id, message)).is_err() {
        let _ = write_preface_reply(reader.get_ref(), &bad_request(id, "bad preface".into()));
    }
    false
}

fn reader_loop<H: FrontHandler>(stream: TcpStream, shared: &H, tx: Sender<Outbound>) {
    let mut reader = BufReader::new(stream);
    if !accept_preface(&mut reader) {
        return;
    }
    // Ends on EOF, a transport error, an oversized frame, or a `shutdown`
    // request.
    loop {
        let Ok(Some(frame)) = read_frame_v2(&mut reader) else {
            return;
        };
        let request = match frame {
            FrameV2::Oversized { len } => {
                // No delimiter to resync on: the connection cannot be
                // re-framed past an oversized header, so answer and drop
                // it.
                let message = format!("frame of {len} bytes exceeds the limit");
                let _ = tx.send(Outbound::plain(bad_request(0, message)));
                return;
            }
            FrameV2::Frame { opcode, payload } => match decode_request_v2(opcode, &payload) {
                Ok(request) => request,
                Err(e) => {
                    // The length prefix kept the stream framed, so
                    // (unlike Oversized) the connection survives a bad
                    // payload.
                    let _ = tx.send(Outbound::plain(bad_request(0, e.to_string())));
                    continue;
                }
            },
        };
        let id = request.id;
        match request.body {
            RequestBody::Hello { .. } => {
                let message = "hello is only valid as the connection's text preface";
                let _ = tx.send(Outbound::plain(bad_request(id, message.into())));
            }
            RequestBody::Ping => {
                let _ = tx.send(Outbound::plain(Response {
                    id,
                    body: ResponseBody::Pong,
                }));
            }
            RequestBody::Metrics => {
                let _ = tx.send(Outbound::plain(Response {
                    id,
                    body: ResponseBody::Metrics(shared.metrics()),
                }));
            }
            RequestBody::Trace => {
                // Inline like `metrics`: pulling the flight recorder must
                // work even when the request queue is saturated — that is
                // exactly when a timeline is most interesting.
                let _ = tx.send(Outbound::plain(Response {
                    id,
                    body: shared.trace(),
                }));
            }
            RequestBody::Restart { shard } => {
                // Deliberately synchronous: this connection's reader blocks
                // until the rolling restart finishes, so the `restarted`
                // acknowledgement really means the tier is whole again.
                // Other connections (and this one's earlier pipelined
                // requests) proceed normally throughout.
                let body = shared.restart(shard);
                let _ = tx.send(Outbound::plain(Response { id, body }));
            }
            RequestBody::Shutdown => {
                let _ = tx.send(Outbound::plain(Response {
                    id,
                    body: ResponseBody::ShuttingDown,
                }));
                shared.on_shutdown_request();
                break;
            }
            _ => shared.admit(&tx, request),
        }
    }
}
