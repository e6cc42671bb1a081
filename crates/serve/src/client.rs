//! The blocking client: framed send/receive plus request-id correlation.
//!
//! Responses stream back in **completion order**, not submission order — a
//! cheap request may finish before an earlier expensive one, and sweep
//! cases arrive as separate frames. [`ResponseRouter`] reassembles
//! that stream: every response is filed under its request id, and a request
//! is *complete* once its single result arrived (optimize / evaluate /
//! layout / busy / error / shutting-down) or every sweep case index
//! `0..total` is present. The out-of-order correlation tests in
//! `tests/wire_properties.rs` drive the router directly with scrambled
//! streams.

use crate::wire::{
    decode_response, decode_response_v2, encode_request, encode_request_v2, read_frame,
    read_frame_v2, Frame, FrameV2, Request, RequestBody, Response, ResponseBody, WireError,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Cap on the busy-retry backoff, milliseconds ([`busy_backoff`]).
pub const BUSY_BACKOFF_CAP_MS: u64 = 2_000;

/// The client-side retry schedule for `busy` rejections: the server's
/// `retry_after_ms` hint doubled per attempt (capped at
/// [`BUSY_BACKOFF_CAP_MS`]) plus a deterministic per-client jitter of up to
/// a quarter of the base.
///
/// Sleeping the hint verbatim synchronises every rejected client: they all
/// come back in the same instant and collide with the same full queue
/// again. Exponential growth spaces the attempts of one client; the jitter
/// decorrelates different clients (seed their workload seed) — while
/// staying a pure function of `(hint, attempt, seed)` so load-generator
/// runs remain reproducible.
pub fn busy_backoff(retry_after_ms: u64, attempt: u32, seed: u64) -> Duration {
    let hint = retry_after_ms.max(1);
    let base = hint
        .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
        .min(BUSY_BACKOFF_CAP_MS);
    let span = base / 4;
    let jitter = if span == 0 {
        0
    } else {
        mix64(seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % (span + 1)
    };
    Duration::from_millis(base + jitter)
}

/// SplitMix64 finaliser — the jitter source (vendored; offline build).
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Client-side failure: transport or codec.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent a frame that does not decode.
    Wire(WireError),
    /// The peer violated the correlation protocol (duplicate case index,
    /// response for an unknown id, inconsistent totals).
    Protocol(String),
    /// The peer answered the connection's `hello` preface with something
    /// other than `hello_ack`: a `busy` (over its connection cap, with the
    /// retry hint) or a `bad_request` error. The peer closes the connection
    /// after it.
    Refused(Box<ResponseBody>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Protocol(what) => write!(f, "protocol error: {what}"),
            Self::Refused(body) => write!(f, "connection refused by the peer: {body:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// Sends the text `hello` preface on a fresh connection and reads the
/// peer's one-line verdict; everything after a `hello_ack` is binary
/// frames. Any other reply is [`ClientError::Refused`], and EOF before a
/// reply is a protocol error.
pub(crate) fn handshake(
    writer: &mut impl Write,
    reader: &mut impl BufRead,
    id: u64,
) -> Result<(), ClientError> {
    let hello = encode_request(&Request {
        id,
        body: RequestBody::Hello { version: 2 },
        trace: None,
    })?;
    writer.write_all(format!("{hello}\n").as_bytes())?;
    writer.flush()?;
    match read_frame(reader)? {
        Some(Frame::Line(line)) => match decode_response(&line)? {
            Response {
                id: ack_id,
                body: ResponseBody::HelloAck { version: 2 },
            } if ack_id == id => Ok(()),
            Response { body, .. } => Err(ClientError::Refused(Box::new(body))),
        },
        Some(Frame::Oversized { len }) => Err(ClientError::Wire(WireError::Oversized { len })),
        None => Err(ClientError::Protocol("eof before the hello reply".into())),
    }
}

/// A blocking connection to a serve process.
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to `addr` and performs the `hello` preface, so the
    /// connection speaks binary frames from then on. A peer that answers
    /// with anything but `hello_ack` (a `busy` from a server at its
    /// connection cap, say) is [`ClientError::Refused`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Requests are flushed one frame at a time; Nagle would hold one
        // behind an unacknowledged predecessor until the delayed ACK.
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let mut client = Self {
            writer: BufWriter::new(stream),
            reader: BufReader::new(read_half),
            next_id: 1,
        };
        let id = client.fresh_id();
        handshake(&mut client.writer, &mut client.reader, id)?;
        Ok(client)
    }

    /// The connection's socket, for tests that inspect its options.
    #[cfg(test)]
    pub(crate) fn socket(&self) -> &TcpStream {
        self.writer.get_ref()
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends a body under a fresh id and returns that id.
    pub fn send(&mut self, body: RequestBody) -> Result<u64, ClientError> {
        let id = self.send_pipelined(body)?;
        self.flush()?;
        Ok(id)
    }

    /// Queues a request without flushing — the pipelining primitive. Callers
    /// batch several `send_pipelined` and then [`Self::flush`] once, putting
    /// multiple requests in flight on one connection; responses correlate by
    /// id as usual.
    pub fn send_pipelined(&mut self, body: RequestBody) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        let request = Request {
            id,
            body,
            trace: None,
        };
        self.writer.write_all(&encode_request_v2(&request)?)?;
        Ok(id)
    }

    /// Flushes queued pipelined requests to the socket.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Receives the next response; `None` on clean EOF.
    pub fn recv(&mut self) -> Result<Option<Response>, ClientError> {
        match read_frame_v2(&mut self.reader)? {
            None => Ok(None),
            Some(FrameV2::Oversized { len }) => {
                Err(ClientError::Wire(WireError::Oversized { len }))
            }
            Some(FrameV2::Frame { opcode, payload }) => {
                Ok(Some(decode_response_v2(opcode, &payload)?))
            }
        }
    }
}

/// One fully correlated request result.
#[derive(Debug, Clone, PartialEq)]
pub enum Completed {
    /// A single-response result (outcome / evaluation / layout / pong).
    Single(ResponseBody),
    /// All cases of a sweep, ordered by case index.
    Sweep(Vec<ResponseBody>),
    /// The request was rejected with backpressure; retry after the hint.
    Rejected {
        /// Suggested back-off, milliseconds.
        retry_after_ms: u64,
    },
    /// The request failed or was refused at shutdown.
    Failed(ResponseBody),
}

#[derive(Debug, Default)]
struct PartialSweep {
    total: usize,
    cases: BTreeMap<usize, ResponseBody>,
}

/// Correlates a completion-ordered response stream back to request ids.
#[derive(Debug, Default)]
pub struct ResponseRouter {
    partial: BTreeMap<u64, PartialSweep>,
    done: BTreeMap<u64, Completed>,
}

impl ResponseRouter {
    /// A fresh router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Files one response. Returns `Some(id)` when that request just became
    /// complete.
    pub fn accept(&mut self, response: Response) -> Result<Option<u64>, ClientError> {
        let id = response.id;
        if self.done.contains_key(&id) {
            return Err(ClientError::Protocol(format!(
                "response for already-completed id {id}"
            )));
        }
        match response.body {
            ResponseBody::CaseOutcome { index, total, .. } => {
                if total == 0 || index >= total {
                    return Err(ClientError::Protocol(format!(
                        "case index {index} out of range 0..{total}"
                    )));
                }
                let partial = self.partial.entry(id).or_insert_with(|| PartialSweep {
                    total,
                    cases: BTreeMap::new(),
                });
                if partial.total != total {
                    return Err(ClientError::Protocol(format!(
                        "sweep {id} changed total {} -> {total}",
                        partial.total
                    )));
                }
                if partial.cases.insert(index, response.body).is_some() {
                    return Err(ClientError::Protocol(format!(
                        "duplicate case {index} for sweep {id}"
                    )));
                }
                if partial.cases.len() == partial.total {
                    let ordered = std::mem::take(&mut partial.cases).into_values().collect();
                    self.partial.remove(&id);
                    self.done.insert(id, Completed::Sweep(ordered));
                    Ok(Some(id))
                } else {
                    Ok(None)
                }
            }
            ResponseBody::Busy { retry_after_ms } => {
                // A conforming server only rejects before any case is
                // produced, but a stale partial must not outlive the
                // request either way.
                self.partial.remove(&id);
                self.done.insert(id, Completed::Rejected { retry_after_ms });
                Ok(Some(id))
            }
            body @ (ResponseBody::Error { .. } | ResponseBody::ShuttingDown) => {
                // An error/refusal terminates the request even if sweep
                // cases already arrived.
                self.partial.remove(&id);
                self.done.insert(id, Completed::Failed(body));
                Ok(Some(id))
            }
            body => {
                if self.partial.contains_key(&id) {
                    return Err(ClientError::Protocol(format!(
                        "single response for sweep id {id}"
                    )));
                }
                self.done.insert(id, Completed::Single(body));
                Ok(Some(id))
            }
        }
    }

    /// Takes a completed result.
    pub fn take(&mut self, id: u64) -> Option<Completed> {
        self.done.remove(&id)
    }

    /// True while any sweep is still partially received.
    pub fn has_partial(&self) -> bool {
        !self.partial.is_empty()
    }
}

/// Drives `client` until the given ids are all complete, routing everything
/// received; returns the completed results by id.
pub fn collect_responses(
    client: &mut Client,
    ids: &[u64],
) -> Result<BTreeMap<u64, Completed>, ClientError> {
    let mut router = ResponseRouter::new();
    let mut outstanding: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
    let mut results = BTreeMap::new();
    while !outstanding.is_empty() {
        let response = client
            .recv()?
            .ok_or_else(|| ClientError::Protocol("eof with requests outstanding".into()))?;
        // Id 0 means the server could not attribute the failure to any
        // request (a frame we sent never decoded) — one of the outstanding
        // ids will therefore never complete. Waiting would hang; fail fast.
        if response.id == 0 && !outstanding.contains(&0) {
            return Err(ClientError::Protocol(format!(
                "server reported an unattributable failure: {:?}",
                response.body
            )));
        }
        if let Some(id) = router.accept(response)? {
            if outstanding.remove(&id) {
                let Some(done) = router.take(id) else {
                    return Err(ClientError::Protocol(format!(
                        "completed result for request {id} vanished"
                    )));
                };
                results.insert(id, done);
            }
        }
    }
    Ok(results)
}

#[cfg(test)]
mod backoff_tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_the_hint_and_caps() {
        let hint = 50u64;
        for attempt in 0..32u32 {
            let base = hint
                .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
                .min(BUSY_BACKOFF_CAP_MS);
            let d = busy_backoff(hint, attempt, 7).as_millis() as u64;
            assert!(d >= base, "attempt {attempt}: {d} below base {base}");
            assert!(
                d <= base + base / 4,
                "attempt {attempt}: {d} beyond base {base} + quarter jitter"
            );
        }
        // The base component is monotone in the attempt count.
        let bases: Vec<u64> = (0..16u32)
            .map(|a| {
                hint.saturating_mul(1u64.checked_shl(a).unwrap_or(u64::MAX))
                    .min(BUSY_BACKOFF_CAP_MS)
            })
            .collect();
        assert!(bases.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*bases.last().unwrap(), BUSY_BACKOFF_CAP_MS);
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_decorrelated_across_seeds() {
        for attempt in 0..8u32 {
            assert_eq!(
                busy_backoff(50, attempt, 1),
                busy_backoff(50, attempt, 1),
                "pure function of (hint, attempt, seed)"
            );
        }
        // Two clients with different seeds should not share the whole
        // schedule (that would recreate the synchronised herd).
        let a: Vec<Duration> = (0..8u32).map(|n| busy_backoff(50, n, 1)).collect();
        let b: Vec<Duration> = (0..8u32).map(|n| busy_backoff(50, n, 2)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_and_huge_hints_stay_sane() {
        // A zero hint must still sleep (busy-spinning on the server would
        // be worse than the queue being full).
        assert!(busy_backoff(0, 0, 9) >= Duration::from_millis(1));
        // Saturation: enormous hints and attempts never overflow, and the
        // cap bounds the sleep.
        let d = busy_backoff(u64::MAX, u32::MAX, 9).as_millis() as u64;
        assert!(d <= BUSY_BACKOFF_CAP_MS + BUSY_BACKOFF_CAP_MS / 4);
    }
}
