//! Driving a `serve` child process over one wire-v2 connection: spawning,
//! the `hello` upgrade, open-loop and closed-loop request phases, and the
//! offline recomputation every served result is checked against.

use crate::stats::{median, peak_rss_mib, Report};
use camo_baselines::OpcOutcome;
use camo_litho::LithoSimulator;
use camo_serve::client::{Completed, ResponseRouter};
use camo_serve::exec::{evaluate_mask, run_layout, run_optimize, run_sweep};
use camo_serve::wire::{
    decode_request_v2, decode_response, decode_response_v2, encode_request, encode_request_v2,
    encode_response_v2, read_frame, read_frame_v2, Frame, FrameV2, JobSpec, Request, RequestBody,
    Response, ResponseBody, WireOutcome,
};
use camo_serve::MetricsReport;
use camo_workloads::ServeCase;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a phase waits for outstanding responses before counting them
/// as timed out.
const GRACE: Duration = Duration::from_secs(20);

/// A `serve --threads 2 --port 0` child process. Dropping it kills the
/// process and waits for it.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Starts the server and reads its listening address from stdout.
    pub fn spawn(bin: &Path, threads: usize) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--threads", &threads.to_string(), "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Self {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        // "camo-serve listening on ADDR (...)"
        server.addr = line
            .strip_prefix("camo-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        Ok(server)
    }

    /// The address the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Peak resident set of the server process so far, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&self.child.id().to_string())
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr)?;
        match conn.call(RequestBody::Shutdown)?.completed {
            Completed::Failed(ResponseBody::ShuttingDown) => {}
            other => return Err(format!("unexpected shutdown reply {other:?}")),
        }
        drop(conn);
        // Drain the farewell line so the server never writes to a closed
        // pipe, then reap it.
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One finished request.
#[derive(Debug)]
pub struct Reply {
    /// The correlated result.
    pub completed: Completed,
    /// Bytes of every response frame the request produced.
    pub bytes: usize,
    /// When the last of them arrived, from the phase's epoch.
    pub at: Duration,
}

/// A client connection upgraded to wire v2.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Conn {
    /// Connects and performs the v1 `hello` handshake that switches the
    /// connection to v2 framing; a refusal is an error.
    pub fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // The load generator must not add Nagle delays of its own.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(GRACE))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Self {
            writer: stream,
            reader,
            next_id: 1,
        };
        let hello = Request {
            id: conn.fresh_id(),
            body: RequestBody::Hello { version: 2 },
            trace: None,
        };
        let line = encode_request(&hello).map_err(|e| e.to_string())? + "\n";
        conn.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        match read_frame(&mut conn.reader) {
            Ok(Some(Frame::Line(line))) => match decode_response(&line) {
                Ok(Response {
                    body: ResponseBody::HelloAck { version: 2 },
                    ..
                }) => Ok(conn),
                other => Err(format!("wire v2 refused: {other:?}")),
            },
            other => Err(format!("no hello reply: {other:?}")),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Encodes `body` as a v2 request frame under a fresh id.
    pub fn frame(&mut self, body: RequestBody) -> Result<(u64, Vec<u8>), String> {
        let id = self.fresh_id();
        let frame = encode_request_v2(&Request {
            id,
            body,
            trace: None,
        })
        .map_err(|e| e.to_string())?;
        Ok((id, frame))
    }

    /// Receives one response frame: the response and its size in bytes.
    fn recv(reader: &mut BufReader<TcpStream>) -> Result<(Response, usize), String> {
        match read_frame_v2(reader) {
            Ok(Some(FrameV2::Frame { opcode, payload })) => {
                let response = decode_response_v2(opcode, &payload).map_err(|e| e.to_string())?;
                Ok((response, payload.len() + 5))
            }
            Ok(Some(FrameV2::Oversized { len })) => Err(format!("oversized frame of {len} bytes")),
            Ok(None) => Err("connection closed".into()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Sends one request and waits for its result (a closed loop of one).
    pub fn call(&mut self, body: RequestBody) -> Result<Reply, String> {
        let (id, frame) = self.frame(body)?;
        self.call_frame(id, &frame)
    }

    /// [`Self::call`] for a frame built by [`Self::frame`].
    pub fn call_frame(&mut self, id: u64, frame: &[u8]) -> Result<Reply, String> {
        let start = Instant::now();
        self.writer.write_all(frame).map_err(|e| e.to_string())?;
        let mut replies = Self::collect(&mut self.reader, &[id], start)?;
        replies
            .remove(&id)
            .ok_or_else(|| format!("request {id} was never answered"))
    }

    /// Receives until every id in `ids` completed; returns what finished.
    /// Stops early on a transport error, which leaves the rest unanswered.
    fn collect(
        reader: &mut BufReader<TcpStream>,
        ids: &[u64],
        epoch: Instant,
    ) -> Result<BTreeMap<u64, Reply>, String> {
        let mut router = ResponseRouter::new();
        let mut bytes: BTreeMap<u64, usize> = BTreeMap::new();
        let mut done = BTreeMap::new();
        while done.len() < ids.len() {
            let (response, size) = match Self::recv(reader) {
                Ok(r) => r,
                Err(e) if done.is_empty() && ids.len() == 1 => return Err(e),
                Err(_) => break,
            };
            let id = response.id;
            *bytes.entry(id).or_default() += size;
            if let Some(id) = router.accept(response).map_err(|e| e.to_string())? {
                let completed = router.take(id).expect("just completed");
                let at = epoch.elapsed();
                let bytes = bytes.remove(&id).unwrap_or(0);
                done.insert(
                    id,
                    Reply {
                        completed,
                        bytes,
                        at,
                    },
                );
            }
        }
        Ok(done)
    }

    /// The server's `metrics` report.
    pub fn metrics(&mut self) -> Result<MetricsReport, String> {
        match self.call(RequestBody::Metrics)?.completed {
            Completed::Single(ResponseBody::Metrics(report)) => Ok(report),
            other => Err(format!("unexpected metrics reply {other:?}")),
        }
    }

    /// Open loop: sends `frames[i]` at `epoch + due[i]` from one sender
    /// thread while one receiver thread collects replies. Returns when each
    /// was actually sent and every reply that arrived within [`GRACE`]
    /// after the last send.
    pub fn open_loop(
        &mut self,
        frames: &[(u64, Vec<u8>)],
        due: &[Duration],
    ) -> Result<(Vec<Duration>, BTreeMap<u64, Reply>), String> {
        let ids: Vec<u64> = frames.iter().map(|(id, _)| *id).collect();
        let mut writer = self.writer.try_clone().map_err(|e| e.to_string())?;
        let reader = &mut self.reader;
        let stopper = self.writer.try_clone().map_err(|e| e.to_string())?;
        let epoch = Instant::now();
        std::thread::scope(|scope| {
            let (finished, wait) = mpsc::channel();
            let receiver = scope.spawn(move || {
                let replies = Self::collect(reader, &ids, epoch);
                let _ = finished.send(());
                replies
            });
            let sender = scope.spawn(move || -> Result<Vec<Duration>, String> {
                let mut sent = Vec::with_capacity(due.len());
                for ((_, frame), &at) in frames.iter().zip(due) {
                    if let Some(wait) = at.checked_sub(epoch.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    sent.push(epoch.elapsed());
                    writer.write_all(frame).map_err(|e| e.to_string())?;
                }
                Ok(sent)
            });
            let sent = sender.join().expect("sender thread panicked");
            if wait.recv_timeout(GRACE).is_err() {
                // Unblock the receiver; whatever is outstanding timed out.
                let _ = stopper.shutdown(Shutdown::Read);
            }
            let replies = receiver.join().expect("receiver thread panicked");
            Ok((sent?, replies?))
        })
    }

    /// Closed loop: keeps `window` requests in flight until `budget` has
    /// elapsed, then drains.
    pub fn closed_loop(
        &mut self,
        bodies: &mut dyn Iterator<Item = (usize, RequestBody)>,
        window: usize,
        budget: Duration,
    ) -> Result<ClosedLoop, String> {
        let epoch = Instant::now();
        let mut router = ResponseRouter::new();
        let mut case_of = BTreeMap::new();
        let mut bytes: BTreeMap<u64, usize> = BTreeMap::new();
        let mut done = BTreeMap::new();
        let mut in_flight = 0usize;
        loop {
            while in_flight < window && epoch.elapsed() < budget {
                let Some((index, body)) = bodies.next() else {
                    break;
                };
                let (id, frame) = self.frame(body)?;
                self.writer.write_all(&frame).map_err(|e| e.to_string())?;
                case_of.insert(id, index);
                in_flight += 1;
            }
            if in_flight == 0 {
                break;
            }
            let (response, size) = match Self::recv(&mut self.reader) {
                Ok(r) => r,
                Err(_) => break,
            };
            let id = response.id;
            *bytes.entry(id).or_default() += size;
            if let Some(id) = router.accept(response).map_err(|e| e.to_string())? {
                in_flight -= 1;
                let completed = router.take(id).expect("just completed");
                let bytes = bytes.remove(&id).unwrap_or(0);
                let at = epoch.elapsed();
                done.insert(
                    id,
                    Reply {
                        completed,
                        bytes,
                        at,
                    },
                );
            }
        }
        Ok(ClosedLoop {
            wall: epoch.elapsed(),
            case_of,
            replies: done,
        })
    }
}

/// What a closed-loop phase sent and received.
pub struct ClosedLoop {
    /// From the first send to the last reply.
    pub wall: Duration,
    /// The case index each request id carried.
    pub case_of: BTreeMap<u64, usize>,
    /// Every reply that arrived, by id.
    pub replies: BTreeMap<u64, Reply>,
}

/// Request kinds of the serving workloads, in the index order
/// [`ServeSample`] uses.
pub const KINDS: [&str; 4] = ["optimize", "evaluate", "sweep", "layout"];

/// Per-request serving measurements, indexed like [`KINDS`].
#[derive(Debug, Default)]
pub struct ServeSample {
    /// Offline compute time of each request, ms.
    pub compute_ms: [Vec<f64>; 4],
    /// Served latency minus that compute time, ms.
    pub overhead_ms: [Vec<f64>; 4],
    /// v2 encode + decode of each request's frames, µs.
    pub codec_us: Vec<f64>,
    /// Request frame sizes.
    pub request_bytes: Vec<f64>,
    /// Total response frame sizes per request.
    pub response_bytes: Vec<f64>,
}

impl ServeSample {
    /// Records one served request of kind `kind`.
    pub fn record(
        &mut self,
        kind: usize,
        (id, frame): (u64, &[u8]),
        reply: &Reply,
        served_ms: f64,
        compute_ms: f64,
    ) -> Result<(), String> {
        self.compute_ms[kind].push(compute_ms);
        self.overhead_ms[kind].push(served_ms - compute_ms);
        self.codec_us.push(codec_us(id, frame, &reply.completed)?);
        self.request_bytes.push(frame.len() as f64);
        self.response_bytes.push(reply.bytes as f64);
        Ok(())
    }

    /// Pushes the `serve.*` metrics: per-request medians, and the server's
    /// own counters from its `metrics` report.
    pub fn push(&self, report: &mut Report, metrics: &MetricsReport) {
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        for (kind, label) in KINDS.iter().enumerate().take(2) {
            report.push(
                format!("serve.compute_ms.{label}"),
                med(&self.compute_ms[kind]),
                "ms",
            );
        }
        for (kind, label) in KINDS.iter().enumerate().take(2) {
            report.push(
                format!("serve.overhead_ms.{label}"),
                med(&self.overhead_ms[kind]),
                "ms",
            );
        }
        report.push("serve.codec_us", med(&self.codec_us), "us");
        report.push("serve.request_bytes", med(&self.request_bytes), "bytes");
        report.push("serve.response_bytes", med(&self.response_bytes), "bytes");
        report.push(
            "serve.queue_high_water",
            metrics.queue_high_water as f64,
            "count",
        );
        report.push(
            "serve.in_flight_high_water",
            metrics.in_flight_high_water as f64,
            "count",
        );
        report.push("serve.busy_rejected", metrics.busy_rejected as f64, "count");
    }
}

/// Number of clip-level results a reply carries: one per optimize or
/// evaluate, one per sweep case, one per layout tile.
pub fn clip_results(completed: &Completed) -> usize {
    match completed {
        Completed::Sweep(cases) => cases.len(),
        Completed::Single(ResponseBody::LayoutReport { tiles, .. }) => *tiles,
        Completed::Single(_) => 1,
        _ => 0,
    }
}

/// `a` and `b` hold the same values, bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A served outcome equals an offline one bit for bit.
pub fn outcome_matches(wire: &WireOutcome, offline: &OpcOutcome) -> bool {
    wire.offsets == offline.mask.offsets()
        && wire.steps == offline.steps
        && same_bits(&wire.epe_per_point, &offline.result.epe.per_point)
        && wire.pv_band.to_bits() == offline.result.pv_band.to_bits()
}

/// Recomputes `case` offline with the functions `serve` executes
/// (`camo_serve::exec`, one thread) and checks the served result is
/// bit-identical. Returns the offline compute time.
pub fn verify(
    case: &ServeCase,
    job: &JobSpec,
    completed: &Completed,
    sim: &LithoSimulator,
) -> Result<Duration, String> {
    let start = Instant::now();
    let same =
        match (case, completed) {
            (ServeCase::Optimize { clip }, Completed::Single(ResponseBody::Outcome(wire))) => {
                let offline = run_optimize(job, std::slice::from_ref(clip), sim, 1);
                outcome_matches(wire, &offline[0])
            }
            (
                ServeCase::Evaluate { clip, bias },
                Completed::Single(ResponseBody::Evaluation {
                    epe_per_point,
                    pv_band,
                }),
            ) => {
                let offline = sim.evaluate(&evaluate_mask(job.layer, *bias, clip));
                same_bits(epe_per_point, &offline.epe.per_point)
                    && pv_band.to_bits() == offline.pv_band.to_bits()
            }
            (ServeCase::Sweep { cases }, Completed::Sweep(replies)) => {
                let offline = run_sweep(job, cases, sim, 1);
                offline.len() == replies.len()
                && replies.iter().zip(&offline).all(|(reply, (name, outcome))| {
                    matches!(reply, ResponseBody::CaseOutcome { name: got, outcome: wire, .. }
                        if got == name && outcome_matches(wire, outcome))
                })
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
                let offline = run_layout(params, *seed, *tile_nm, sim, 1);
                *tiles == offline.tiles
                    && same_bits(epe_per_point, &offline.epe.per_point)
                    && pv_band.to_bits() == offline.pv_band.to_bits()
            }
            _ => false,
        };
    let compute = start.elapsed();
    if same {
        Ok(compute)
    } else {
        Err(format!(
            "served {} result differs from offline recomputation: {completed:?}",
            case.kind()
        ))
    }
}

/// Microseconds to encode and decode `frame` (a v2 request frame) and the
/// v2 frames of `completed`'s responses, as the client and server do.
fn codec_us(id: u64, frame: &[u8], completed: &Completed) -> Result<f64, String> {
    let responses: Vec<ResponseBody> = match completed {
        Completed::Single(body) | Completed::Failed(body) => vec![body.clone()],
        Completed::Sweep(bodies) => bodies.clone(),
        Completed::Rejected { retry_after_ms } => vec![ResponseBody::Busy {
            retry_after_ms: *retry_after_ms,
        }],
    };
    let start = Instant::now();
    let request = decode_request_v2(frame[4], &frame[5..]).map_err(|e| e.to_string())?;
    let again = encode_request_v2(&request).map_err(|e| e.to_string())?;
    for body in responses {
        let encoded = encode_response_v2(&Response { id, body }).map_err(|e| e.to_string())?;
        let decoded = decode_response_v2(encoded[4], &encoded[5..]).map_err(|e| e.to_string())?;
        std::hint::black_box(decoded);
    }
    let elapsed = start.elapsed();
    if again != frame {
        return Err("a request frame does not re-encode to itself".into());
    }
    Ok(elapsed.as_secs_f64() * 1e6)
}
