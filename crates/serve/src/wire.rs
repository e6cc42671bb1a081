//! The wire protocol: the typed request/response schema, the one-line text
//! preface every connection opens with, and the little-endian binary
//! framing (wire v2) everything after the preface travels in.
//!
//! The build environment is offline (no `serde`), so this module vendors
//! exactly what the protocol needs and nothing more. A connection opens
//! with one newline-terminated text line from the client, a `hello` naming
//! protocol version 2. The server answers with one text line: `hello_ack`,
//! after which both directions speak binary frames, or a `bad_request`
//! `error` (any other first line) or a `busy` (a connection over the cap),
//! after which it closes the connection. Those four messages are the only
//! text on the wire: [`encode_request`]/[`decode_request`] and
//! [`encode_response`]/[`decode_response`] carry them and refuse every
//! other kind. A preface line is one flat JSON object whose values are
//! integers or strings (escapes `\" \\ \/ \n \r \t` only), at most
//! [`MAX_FRAME`] bytes.
//!
//! Every later frame is `[u32 payload_len][u8 opcode][payload]` with raw
//! little-endian fields — `f64` arrays travel as their `to_bits` images, so
//! served EPE/PV-band values reach the client **bit for bit** (the
//! end-to-end tests diff server results against offline runs with
//! `f64::to_bits`) and the hot path is a bounds-checked memcpy.
//!
//! Decoding is strict: unknown or duplicate fields, trailing bytes,
//! oversized frames and truncated values are all typed [`WireError`]s,
//! never panics — property-tested against mutated and random input in
//! `tests/wire_properties.rs` (the preface) and
//! `tests/codec_differential.rs` (the binary frames).

use crate::stats::{KindLatency, LatencySnapshot, MetricsReport, ShardStatus};
use crate::trace::{ShardTrace, SpanRecord, TraceReport};
use camo_geometry::{Clip, Coord, Point, Polygon, Rect};
use camo_litho::LithoConfig;
use camo_workloads::LayoutParams;
use std::fmt;

/// Maximum length of a text preface line in bytes (the newline excluded).
/// A preface line is a few dozen bytes; the bound caps what a peer can make
/// a reader buffer before the handshake.
pub const MAX_FRAME: usize = 4096;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Every way a frame can fail to decode (or a value fail to encode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame exceeds its size bound ([`MAX_FRAME`] for a preface line,
    /// [`MAX_FRAME_V2`] for a binary payload).
    Oversized {
        /// Observed length in bytes.
        len: usize,
    },
    /// The frame ended in the middle of a value (truncated line or
    /// payload).
    Truncated,
    /// A structural error in a preface line at byte offset `at`.
    Syntax {
        /// Byte offset of the offending input.
        at: usize,
        /// What the parser expected or found.
        what: &'static str,
    },
    /// An unsupported or malformed string escape at byte offset `at`.
    BadEscape {
        /// Byte offset of the backslash.
        at: usize,
    },
    /// A malformed or out-of-range integer at byte offset `at`.
    BadNumber {
        /// Byte offset of the number's first byte.
        at: usize,
    },
    /// A nested object or array in a preface line, whose grammar is one
    /// flat object.
    TooDeep,
    /// The frame parsed but does not match the typed schema.
    Schema(String),
    /// The value cannot be represented on the wire (an integer beyond
    /// `i64`, a control character in a preface string, a kind the text
    /// preface does not carry).
    Unencodable(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Oversized { len } => write!(f, "frame of {len} bytes exceeds the frame limit"),
            Self::Truncated => write!(f, "frame truncated mid-value"),
            Self::Syntax { at, what } => write!(f, "syntax error at byte {at}: {what}"),
            Self::BadEscape { at } => write!(f, "bad string escape at byte {at}"),
            Self::BadNumber { at } => write!(f, "bad number at byte {at}"),
            Self::TooDeep => write!(f, "nested value in a flat preface line"),
            Self::Schema(what) => write!(f, "schema error: {what}"),
            Self::Unencodable(what) => write!(f, "unencodable value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Geometry schema
// ---------------------------------------------------------------------------

/// Rejects what [`Rect::new`] would assert on, so hostile frames surface as
/// typed errors instead of panics.
fn rect_checked(x0: i64, y0: i64, x1: i64, y1: i64, what: &str) -> Result<Rect, WireError> {
    if x0 >= x1 || y0 >= y1 {
        return Err(WireError::Schema(format!("{what}: degenerate rectangle")));
    }
    Ok(Rect::new(x0, y0, x1, y1))
}

/// Rejects what [`Polygon::new`] would assert on, so hostile frames surface
/// as typed errors instead of panics.
fn polygon_from_points(points: Vec<Point>, what: &str) -> Result<Polygon, WireError> {
    if points.len() < 4 {
        return Err(WireError::Schema(format!(
            "{what}: expected a loop of at least 4 vertices"
        )));
    }
    let n = points.len();
    for i in 0..n {
        let (a, b) = (points[i], points[(i + 1) % n]);
        if a == b {
            return Err(WireError::Schema(format!(
                "{what}: degenerate zero-length edge at vertex {i}"
            )));
        }
        if a.x != b.x && a.y != b.y {
            return Err(WireError::Schema(format!(
                "{what}: edge at vertex {i} is not axis-parallel"
            )));
        }
    }
    Ok(Polygon::new(points))
}

// ---------------------------------------------------------------------------
// Job schema
// ---------------------------------------------------------------------------

/// The lithography configuration a request runs under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LithoSpec {
    /// Base preset (`"default"` or `"fast"`).
    pub preset: LithoPreset,
    /// Optional pixel-size override, nm.
    pub pixel_size: Option<Coord>,
}

/// Named base configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LithoPreset {
    /// [`LithoConfig::default`] — the paper's px5 setup.
    Default,
    /// [`LithoConfig::fast`] — the coarser px10 CI setup.
    Fast,
}

impl LithoSpec {
    /// The fast preset with no overrides.
    pub fn fast() -> Self {
        Self {
            preset: LithoPreset::Fast,
            pixel_size: None,
        }
    }

    /// The default (paper px5) preset with no overrides.
    pub fn paper() -> Self {
        Self {
            preset: LithoPreset::Default,
            pixel_size: None,
        }
    }

    /// Materialises the concrete configuration.
    pub fn to_config(&self) -> LithoConfig {
        let base = match self.preset {
            LithoPreset::Default => LithoConfig::default(),
            LithoPreset::Fast => LithoConfig::fast(),
        };
        match self.pixel_size {
            Some(px) => LithoConfig {
                pixel_size: px,
                ..base
            },
            None => base,
        }
    }
}

/// Fragmentation / OPC-preset layer of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Via-layer rules ([`camo_baselines::OpcConfig::via_layer`]).
    Via,
    /// Metal-layer rules ([`camo_baselines::OpcConfig::metal_layer`]).
    Metal,
}

/// Which OPC engine executes an optimize/sweep request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The Calibre-like damped EPE-feedback baseline.
    Calibre,
    /// The CAMO engine (fast configuration, seeded deterministically).
    Camo {
        /// Policy-initialisation seed ([`camo::CamoConfig::seed`]).
        seed: u64,
    },
}

/// Everything needed to reproduce an optimization run: lithography
/// configuration, layer preset, engine and step cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Lithography configuration.
    pub litho: LithoSpec,
    /// Layer preset (fragmentation + OPC schedule).
    pub layer: Layer,
    /// Engine selection.
    pub engine: EngineKind,
    /// Optional override of the preset's `max_steps`.
    pub max_steps: Option<usize>,
}

impl JobSpec {
    /// A fast Calibre-like via job — the default for load generation.
    pub fn fast_calibre_via() -> Self {
        Self {
            litho: LithoSpec::fast(),
            layer: Layer::Via,
            engine: EngineKind::Calibre,
            max_steps: None,
        }
    }
}

/// The layout-parameter invariants the generator relies on, surfaced as
/// typed errors.
fn layout_params_checked(
    layout_size: i64,
    via_size: i64,
    cell_size: i64,
    fill_percent: i64,
    margin: i64,
    with_srafs: bool,
) -> Result<LayoutParams, WireError> {
    if layout_size <= 0 || via_size <= 0 || cell_size <= 0 || margin < 0 {
        return Err(WireError::Schema(
            "layout dimensions must be positive".into(),
        ));
    }
    if !(0..=100).contains(&fill_percent) {
        return Err(WireError::Schema("fill_percent must be 0-100".into()));
    }
    if layout_size <= 2 * margin {
        return Err(WireError::Schema("margin swallows the layout".into()));
    }
    if cell_size <= via_size {
        return Err(WireError::Schema("cells must fit a via".into()));
    }
    Ok(LayoutParams {
        layout_size,
        via_size,
        cell_size,
        fill_percent: fill_percent as u32,
        margin,
        with_srafs,
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request (an `id` correlating its responses, plus the body).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id; echoed on every response this request
    /// produces.
    pub id: u64,
    /// What to do.
    pub body: RequestBody,
    /// Tracing correlation id (`trace_id` on the wire), present only on
    /// sampled requests. A router assigns it at admission and forwards it
    /// so the shard's spans carry the same id; everything else ignores it.
    /// Tracing never influences results — only observation.
    pub trace: Option<u64>,
}

/// The request kinds the server understands.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Health probe; answered inline, never queued.
    Ping,
    /// Optimise one clip.
    Optimize {
        /// Run specification.
        job: JobSpec,
        /// The target clip.
        clip: Clip,
    },
    /// Evaluate one clip's initial mask at a uniform outward bias.
    Evaluate {
        /// Lithography configuration.
        litho: LithoSpec,
        /// Fragmentation layer.
        layer: Layer,
        /// Uniform outward bias, nm (|bias| ≤ 20).
        bias: Coord,
        /// The target clip.
        clip: Clip,
    },
    /// Optimise a set of named cases; produces one streamed response per
    /// case.
    Sweep {
        /// Run specification.
        job: JobSpec,
        /// `(name, clip)` pairs.
        cases: Vec<(String, Clip)>,
    },
    /// Tiled evaluation of a generated layout.
    Layout {
        /// Lithography configuration.
        litho: LithoSpec,
        /// Layout-generator parameters.
        params: LayoutParams,
        /// Layout-generator seed.
        seed: u64,
        /// Tile core size, nm.
        tile_nm: Coord,
    },
    /// Observability probe: answered inline with a [`MetricsReport`],
    /// never queued.
    Metrics,
    /// Admin request: rolling-restart the shard tier (or one shard).
    /// Answered inline by a router once the restart completes; a plain
    /// server rejects it (there is nothing to restart without losing the
    /// connection the request arrived on).
    Restart {
        /// Restart only this shard index; `None` restarts the whole tier
        /// one shard at a time.
        shard: Option<usize>,
    },
    /// Observability probe: pull the process's span flight recorder,
    /// answered inline with a [`TraceReport`], never queued. A router
    /// merges its own spans with each live shard's.
    Trace,
    /// Ask the server to drain and exit.
    Shutdown,
    /// The connection preface: the text line every connection opens with,
    /// naming the protocol version the client speaks. Answered with
    /// `hello_ack` (after which both ends speak binary frames) or a typed
    /// `bad_request` error, after which the server closes the connection.
    /// A binary `hello` after the preface is a `bad_request`.
    Hello {
        /// Requested protocol version (only `2` is accepted).
        version: u32,
    },
}

impl RequestBody {
    /// Short kind tag: the request's name in [`Opcode::opcode_name`].
    pub fn kind(&self) -> &'static str {
        request_opcode(self).opcode_name()
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One optimization outcome on the wire: exactly the bits the end-to-end
/// identity test diffs against an offline run.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// Final per-segment offsets, nm.
    pub offsets: Vec<i64>,
    /// Signed EPE per measure point, nm.
    pub epe_per_point: Vec<f64>,
    /// PV-band area, nm².
    pub pv_band: f64,
    /// Mask updates performed.
    pub steps: usize,
}

/// Machine-readable error classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request decoded but cannot be executed as specified.
    BadRequest,
    /// The server cannot take the work right now (connection cap).
    Overloaded,
    /// Execution failed server-side.
    Internal,
}

impl ErrorCode {
    fn as_str(self) -> &'static str {
        match self {
            Self::BadRequest => "bad_request",
            Self::Overloaded => "overloaded",
            Self::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Result<Self, WireError> {
        match s {
            "bad_request" => Ok(Self::BadRequest),
            "overloaded" => Ok(Self::Overloaded),
            "internal" => Ok(Self::Internal),
            other => Err(WireError::Schema(format!("unknown error code '{other}'"))),
        }
    }
}

/// One server response (echoing the request `id` it answers).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Correlation id of the request (0 when the request never decoded).
    pub id: u64,
    /// The payload.
    pub body: ResponseBody,
}

/// The response kinds the server emits.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Health answer.
    Pong,
    /// Result of an optimize request.
    Outcome(WireOutcome),
    /// One case of a sweep (streamed; `index` of `total`).
    CaseOutcome {
        /// Case position within the sweep request.
        index: usize,
        /// Number of cases in the sweep.
        total: usize,
        /// Case name.
        name: String,
        /// The case's outcome.
        outcome: WireOutcome,
    },
    /// Result of an evaluate request.
    Evaluation {
        /// Signed EPE per measure point, nm.
        epe_per_point: Vec<f64>,
        /// PV-band area, nm².
        pv_band: f64,
    },
    /// Result of a layout request.
    LayoutReport {
        /// Tiles swept.
        tiles: usize,
        /// Signed EPE per layout measure point, nm.
        epe_per_point: Vec<f64>,
        /// Exact layout PV-band area, nm².
        pv_band: f64,
    },
    /// Result of a metrics request: the process's observable state.
    Metrics(MetricsReport),
    /// Result of a trace request: the process's recorded spans (a router
    /// stitches in each live shard's spans so one pull reconstructs the
    /// full routed timeline).
    Trace(TraceReport),
    /// A rolling restart completed; lists the shard indices restarted, in
    /// restart order.
    Restarted {
        /// Shard indices that were drained and respawned.
        shards: Vec<usize>,
    },
    /// Backpressure: the request queue is full; retry after the hint.
    Busy {
        /// Suggested client back-off, milliseconds.
        retry_after_ms: u64,
    },
    /// The request failed.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server acknowledged a shutdown request (or rejected work while
    /// draining).
    ShuttingDown,
    /// The server accepted a `hello` handshake; both ends switch to the
    /// granted protocol version immediately after this frame.
    HelloAck {
        /// Granted protocol version.
        version: u32,
    },
}

impl ResponseBody {
    /// Short kind tag: the response's name in [`Opcode::opcode_name`].
    pub fn kind(&self) -> &'static str {
        response_opcode(self).opcode_name()
    }
}

// ---------------------------------------------------------------------------
// The text preface
// ---------------------------------------------------------------------------

/// One field value of a preface line.
#[derive(Debug)]
enum Scalar {
    Int(i64),
    Str(String),
}

/// Wire integers live in `i64`; a `u64` (an id, a retry hint) beyond that
/// is unencodable rather than silently wrapped.
fn int_scalar(v: u64) -> Result<Scalar, WireError> {
    i64::try_from(v)
        .map(Scalar::Int)
        .map_err(|_| WireError::Unencodable("u64 exceeds i64 on the wire"))
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8, what: &'static str) -> Result<(), WireError> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(WireError::Syntax { at: self.pos, what }),
            None => Err(WireError::Truncated),
        }
    }

    fn parse_scalar(&mut self) -> Result<Scalar, WireError> {
        match self.peek() {
            None => Err(WireError::Truncated),
            Some(b'"') => Ok(Scalar::Str(self.parse_string()?)),
            Some(b'-' | b'0'..=b'9') => self.parse_int(),
            Some(b'{' | b'[') => Err(WireError::TooDeep),
            Some(_) => Err(WireError::Syntax {
                at: self.pos,
                what: "expected a string or an integer",
            }),
        }
    }

    /// Only ASCII bytes are consumed outside strings, and strings advance
    /// by whole characters, so `pos` always sits on a character boundary.
    fn parse_string(&mut self) -> Result<String, WireError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let at = self.pos;
            let ch = self
                .text
                .get(at..)
                .and_then(|rest| rest.chars().next())
                .ok_or(WireError::Truncated)?;
            self.pos += ch.len_utf8();
            match ch {
                '"' => return Ok(out),
                '\\' => {
                    out.push(match self.peek().ok_or(WireError::Truncated)? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        _ => return Err(WireError::BadEscape { at }),
                    });
                    self.pos += 1;
                }
                c if (c as u32) < 0x20 => {
                    return Err(WireError::Syntax {
                        at,
                        what: "raw control byte in string",
                    })
                }
                c => out.push(c),
            }
        }
    }

    /// Preface numbers are integers: a fraction or an exponent is a bad
    /// number, like an integer beyond `i64`.
    fn parse_int(&mut self) -> Result<Scalar, WireError> {
        let start = self.pos;
        self.pos += 1;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text
            .get(start..self.pos)
            .and_then(|digits| digits.parse().ok())
            .map(Scalar::Int)
            .ok_or(WireError::BadNumber { at: start })
    }
}

/// The fields of one parsed preface line, consumed strictly: each field is
/// taken once, and [`Fields::finish`] rejects any left over.
struct Fields(Vec<(String, Scalar)>);

impl Fields {
    /// Parses one preface line (without its newline): `{"key":value,...}`
    /// with integer or string values.
    fn parse(line: &str) -> Result<Self, WireError> {
        if line.len() > MAX_FRAME {
            return Err(WireError::Oversized { len: line.len() });
        }
        let mut p = Parser { text: line, pos: 0 };
        let mut fields: Vec<(String, Scalar)> = Vec::new();
        p.skip_ws();
        p.expect_byte(b'{', "expected '{'")?;
        loop {
            p.skip_ws();
            let key_at = p.pos;
            let key = p.parse_string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(WireError::Syntax {
                    at: key_at,
                    what: "duplicate object key",
                });
            }
            p.skip_ws();
            p.expect_byte(b':', "expected ':'")?;
            p.skip_ws();
            fields.push((key, p.parse_scalar()?));
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => break,
                Some(_) => {
                    return Err(WireError::Syntax {
                        at: p.pos,
                        what: "expected ',' or '}'",
                    })
                }
                None => return Err(WireError::Truncated),
            }
        }
        p.pos += 1;
        p.skip_ws();
        if p.pos != line.len() {
            return Err(WireError::Syntax {
                at: p.pos,
                what: "trailing bytes after value",
            });
        }
        Ok(Self(fields))
    }

    fn take(&mut self, key: &str) -> Result<Scalar, WireError> {
        let at = self
            .0
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| WireError::Schema(format!("missing field '{key}'")))?;
        Ok(self.0.remove(at).1)
    }

    fn int<T: TryFrom<i64>>(&mut self, key: &str) -> Result<T, WireError> {
        match self.take(key)? {
            Scalar::Int(v) => {
                T::try_from(v).map_err(|_| WireError::Schema(format!("{key}: out of range")))
            }
            Scalar::Str(_) => Err(WireError::Schema(format!("{key}: expected an integer"))),
        }
    }

    fn string(&mut self, key: &str) -> Result<String, WireError> {
        match self.take(key)? {
            Scalar::Str(s) => Ok(s),
            Scalar::Int(_) => Err(WireError::Schema(format!("{key}: expected a string"))),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        match self.0.first() {
            Some((key, _)) => Err(WireError::Schema(format!("unknown field '{key}'"))),
            None => Ok(()),
        }
    }
}

/// Writes one preface line (no trailing newline).
fn preface_line(fields: &[(&str, Scalar)]) -> Result<String, WireError> {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(key, &mut out)?;
        out.push(':');
        match value {
            Scalar::Int(v) => out.push_str(&v.to_string()),
            Scalar::Str(s) => write_string(s, &mut out)?,
        }
    }
    out.push('}');
    if out.len() > MAX_FRAME {
        return Err(WireError::Oversized { len: out.len() });
    }
    Ok(out)
}

fn write_string(s: &str, out: &mut String) -> Result<(), WireError> {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                return Err(WireError::Unencodable("control character in string"))
            }
            c => out.push(c),
        }
    }
    out.push('"');
    Ok(())
}

/// Encodes the client's preface line (no trailing newline). Only `hello`
/// travels as text; every other request is a binary frame.
pub fn encode_request(request: &Request) -> Result<String, WireError> {
    let RequestBody::Hello { version } = &request.body else {
        return Err(WireError::Unencodable("only `hello` travels as text"));
    };
    if request.trace.is_some() {
        return Err(WireError::Unencodable(
            "the text preface carries no trace id",
        ));
    }
    preface_line(&[
        ("id", int_scalar(request.id)?),
        ("type", Scalar::Str(request.body.kind().into())),
        ("version", Scalar::Int((*version).into())),
    ])
}

/// Decodes a connection's first line. Anything but a well-formed `hello`
/// is a typed error.
pub fn decode_request(frame: &str) -> Result<Request, WireError> {
    let mut fields = Fields::parse(frame)?;
    let id = fields.int("id")?;
    if fields.string("type")? != "hello" {
        return Err(WireError::Schema(
            "a connection must open with a `hello` line".into(),
        ));
    }
    let version = fields.int("version")?;
    fields.finish()?;
    Ok(Request {
        id,
        body: RequestBody::Hello { version },
        trace: None,
    })
}

/// Encodes the server's preface reply (no trailing newline): `hello_ack`,
/// or the `error`/`busy` that precedes closing the connection.
pub fn encode_response(response: &Response) -> Result<String, WireError> {
    let mut fields = vec![
        ("id", int_scalar(response.id)?),
        ("type", Scalar::Str(response.body.kind().into())),
    ];
    match &response.body {
        ResponseBody::HelloAck { version } => {
            fields.push(("version", Scalar::Int((*version).into())));
        }
        ResponseBody::Error { code, message } => {
            fields.push(("code", Scalar::Str(code.as_str().into())));
            fields.push(("message", Scalar::Str(message.clone())));
        }
        ResponseBody::Busy { retry_after_ms } => {
            fields.push(("retry_after_ms", int_scalar(*retry_after_ms)?));
        }
        _ => {
            return Err(WireError::Unencodable(
                "only `hello_ack`, `error` and `busy` travel as text",
            ))
        }
    }
    preface_line(&fields)
}

/// Decodes the server's preface reply.
pub fn decode_response(frame: &str) -> Result<Response, WireError> {
    let mut fields = Fields::parse(frame)?;
    let id = fields.int("id")?;
    let body = match fields.string("type")?.as_str() {
        "hello_ack" => ResponseBody::HelloAck {
            version: fields.int("version")?,
        },
        "error" => ResponseBody::Error {
            code: ErrorCode::from_str(&fields.string("code")?)?,
            message: fields.string("message")?,
        },
        "busy" => ResponseBody::Busy {
            retry_after_ms: fields.int("retry_after_ms")?,
        },
        _ => {
            return Err(WireError::Schema(
                "a preface reply is `hello_ack`, `error` or `busy`".into(),
            ))
        }
    };
    fields.finish()?;
    Ok(Response { id, body })
}

/// One text line read from a connection.
#[derive(Debug)]
pub enum Frame {
    /// A complete line within the size bound (newline stripped).
    Line(String),
    /// A line longer than [`MAX_FRAME`]; the input was consumed up to its
    /// newline.
    Oversized {
        /// Bytes the oversized line occupied.
        len: usize,
    },
}

/// Reads one newline-terminated frame without ever buffering more than
/// [`MAX_FRAME`] bytes of a hostile line. Returns `Ok(None)` at EOF.
pub fn read_frame(reader: &mut impl std::io::BufRead) -> std::io::Result<Option<Frame>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = 0usize;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a partial unterminated line is dropped (the peer died
            // mid-frame); a clean EOF ends the stream.
            return Ok(None);
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if overflow > 0 || buf.len() + take > MAX_FRAME + 1 {
            overflow += take;
            let done = newline.is_some();
            reader.consume(take);
            if done {
                return Ok(Some(Frame::Oversized {
                    len: buf.len() + overflow,
                }));
            }
            continue;
        }
        buf.extend_from_slice(&chunk[..take]);
        let done = newline.is_some();
        reader.consume(take);
        if done {
            while matches!(buf.last(), Some(b'\n' | b'\r')) {
                buf.pop();
            }
            if buf.len() > MAX_FRAME {
                return Ok(Some(Frame::Oversized { len: buf.len() }));
            }
            let line = String::from_utf8(buf).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 frame")
            })?;
            return Ok(Some(Frame::Line(line)));
        }
    }
}

// ---------------------------------------------------------------------------
// Binary framing (wire v2)
// ---------------------------------------------------------------------------
//
// Every frame after the text preface is
//
//   [u32 payload_len, LE] [u8 opcode] [payload]
//
// with every field little-endian and every f64 carried as its raw
// `to_bits()` image, so encoding an array is a bounds-checked memcpy and
// served results stay bit-identical. See docs/WIRE_PROTOCOL.md for the
// normative byte-level spec.

/// Maximum v2 payload length in bytes (the 5-byte frame header excluded).
///
/// Frames carry mask-scale `f64` arrays and multi-clip sweeps, so the
/// bound is large; it still caps what a hostile peer can make a reader
/// buffer for one frame.
pub const MAX_FRAME_V2: usize = 1 << 26;

/// The opcode byte of one v2 frame. Requests are `0x01..=0x1f`, responses
/// `0x21..=0x3f`; the ranges are disjoint so a desynchronised peer can
/// never mistake one for the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// `ping` request.
    Ping = 0x01,
    /// `optimize` request.
    Optimize = 0x02,
    /// `evaluate` request.
    Evaluate = 0x03,
    /// `sweep` request.
    Sweep = 0x04,
    /// `layout` request.
    Layout = 0x05,
    /// `metrics` request.
    Metrics = 0x06,
    /// `restart` request.
    Restart = 0x07,
    /// `trace` request.
    Trace = 0x08,
    /// `shutdown` request.
    Shutdown = 0x09,
    /// `hello` request (the text preface; a binary hello is a
    /// `bad_request`).
    Hello = 0x0A,
    /// `pong` response.
    Pong = 0x21,
    /// `outcome` response.
    Outcome = 0x22,
    /// `case` response.
    Case = 0x23,
    /// `evaluation` response.
    Evaluation = 0x24,
    /// `layout` response.
    LayoutReport = 0x25,
    /// `metrics` response.
    MetricsReport = 0x26,
    /// `trace` response.
    TraceReport = 0x27,
    /// `restarted` response.
    Restarted = 0x28,
    /// `busy` response.
    Busy = 0x29,
    /// `error` response.
    Error = 0x2A,
    /// `shutting_down` response.
    ShuttingDown = 0x2B,
    /// `hello_ack` response (sent as the text preface reply).
    HelloAck = 0x2C,
}

impl Opcode {
    /// Decodes an opcode byte; `None` for bytes no frame kind claims.
    pub fn from_u8(byte: u8) -> Option<Self> {
        Some(match byte {
            0x01 => Self::Ping,
            0x02 => Self::Optimize,
            0x03 => Self::Evaluate,
            0x04 => Self::Sweep,
            0x05 => Self::Layout,
            0x06 => Self::Metrics,
            0x07 => Self::Restart,
            0x08 => Self::Trace,
            0x09 => Self::Shutdown,
            0x0A => Self::Hello,
            0x21 => Self::Pong,
            0x22 => Self::Outcome,
            0x23 => Self::Case,
            0x24 => Self::Evaluation,
            0x25 => Self::LayoutReport,
            0x26 => Self::MetricsReport,
            0x27 => Self::TraceReport,
            0x28 => Self::Restarted,
            0x29 => Self::Busy,
            0x2A => Self::Error,
            0x2B => Self::ShuttingDown,
            0x2C => Self::HelloAck,
            _ => return None,
        })
    }

    /// The documented kind name of this frame: the protocol's one kind
    /// table, behind [`RequestBody::kind`], [`ResponseBody::kind`] and the
    /// preface's `type` field, and checked against
    /// `docs/WIRE_PROTOCOL.md` by camo-lint's drift rule.
    pub fn opcode_name(self) -> &'static str {
        match self {
            Self::Ping => "ping",
            Self::Optimize => "optimize",
            Self::Evaluate => "evaluate",
            Self::Sweep => "sweep",
            Self::Layout => "layout",
            Self::Metrics => "metrics",
            Self::Restart => "restart",
            Self::Trace => "trace",
            Self::Shutdown => "shutdown",
            Self::Hello => "hello",
            Self::Pong => "pong",
            Self::Outcome => "outcome",
            Self::Case => "case",
            Self::Evaluation => "evaluation",
            Self::LayoutReport => "layout",
            Self::MetricsReport => "metrics",
            Self::TraceReport => "trace",
            Self::Restarted => "restarted",
            Self::Busy => "busy",
            Self::Error => "error",
            Self::ShuttingDown => "shutting_down",
            Self::HelloAck => "hello_ack",
        }
    }

    fn is_request(self) -> bool {
        (self as u8) < 0x20
    }
}

fn request_opcode(body: &RequestBody) -> Opcode {
    match body {
        RequestBody::Ping => Opcode::Ping,
        RequestBody::Optimize { .. } => Opcode::Optimize,
        RequestBody::Evaluate { .. } => Opcode::Evaluate,
        RequestBody::Sweep { .. } => Opcode::Sweep,
        RequestBody::Layout { .. } => Opcode::Layout,
        RequestBody::Metrics => Opcode::Metrics,
        RequestBody::Restart { .. } => Opcode::Restart,
        RequestBody::Trace => Opcode::Trace,
        RequestBody::Shutdown => Opcode::Shutdown,
        RequestBody::Hello { .. } => Opcode::Hello,
    }
}

fn response_opcode(body: &ResponseBody) -> Opcode {
    match body {
        ResponseBody::Pong => Opcode::Pong,
        ResponseBody::Outcome(_) => Opcode::Outcome,
        ResponseBody::CaseOutcome { .. } => Opcode::Case,
        ResponseBody::Evaluation { .. } => Opcode::Evaluation,
        ResponseBody::LayoutReport { .. } => Opcode::LayoutReport,
        ResponseBody::Metrics(_) => Opcode::MetricsReport,
        ResponseBody::Trace(_) => Opcode::TraceReport,
        ResponseBody::Restarted { .. } => Opcode::Restarted,
        ResponseBody::Busy { .. } => Opcode::Busy,
        ResponseBody::Error { .. } => Opcode::Error,
        ResponseBody::ShuttingDown => Opcode::ShuttingDown,
        ResponseBody::HelloAck { .. } => Opcode::HelloAck,
    }
}

/// Serialises v2 payload fields. Starts with a 5-byte header placeholder
/// that [`FrameBuilder::finish`] back-patches with the payload length.
struct FrameBuilder {
    buf: Vec<u8>,
}

impl FrameBuilder {
    fn new(opcode: Opcode) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&[0, 0, 0, 0, opcode as u8]);
        Self { buf }
    }

    fn finish(mut self) -> Result<Vec<u8>, WireError> {
        let payload = self.buf.len() - 5;
        if payload > MAX_FRAME_V2 {
            return Err(WireError::Oversized {
                len: self.buf.len(),
            });
        }
        let len = payload as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        Ok(self.buf)
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a list/string length. Lengths use the full u32 range.
    fn put_len(&mut self, n: usize) -> Result<(), WireError> {
        let n = u32::try_from(n).map_err(|_| WireError::Unencodable("length exceeds u32"))?;
        self.put_u32(n);
        Ok(())
    }

    /// Writes a u64 value field. Wire integers live in i64, so a value
    /// beyond that is unencodable rather than silently wrapped.
    fn put_u64(&mut self, v: u64) -> Result<(), WireError> {
        if i64::try_from(v).is_err() {
            return Err(WireError::Unencodable("u64 exceeds i64 on the wire"));
        }
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn put_usize(&mut self, v: usize) -> Result<(), WireError> {
        self.put_u64(v as u64)
    }

    fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw bit image: every f64 (NaN payloads, infinities, -0.0,
    /// subnormals) round-trips bit-exactly.
    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn put_str(&mut self, s: &str) -> Result<(), WireError> {
        self.put_len(s.len())?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    /// An option is its tag byte (a bool: `1` when a value follows), then
    /// the value.
    fn put_opt_u64(&mut self, v: Option<u64>) -> Result<(), WireError> {
        self.put_bool(v.is_some());
        v.map_or(Ok(()), |v| self.put_u64(v))
    }

    fn put_opt_usize(&mut self, v: Option<usize>) -> Result<(), WireError> {
        self.put_opt_u64(v.map(|v| v as u64))
    }

    fn put_opt_i64(&mut self, v: Option<i64>) {
        self.put_bool(v.is_some());
        if let Some(v) = v {
            self.put_i64(v);
        }
    }

    fn put_i64s(&mut self, vals: &[i64]) -> Result<(), WireError> {
        self.put_len(vals.len())?;
        self.buf.reserve(vals.len() * 8);
        for v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// The hot path v2 exists for: a length plus the raw little-endian bit
    /// images, no per-element formatting.
    fn put_f64s(&mut self, vals: &[f64]) -> Result<(), WireError> {
        self.put_len(vals.len())?;
        self.buf.reserve(vals.len() * 8);
        for v in vals {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Ok(())
    }

    fn put_u64s(&mut self, vals: &[u64]) -> Result<(), WireError> {
        self.put_len(vals.len())?;
        self.buf.reserve(vals.len() * 8);
        for &v in vals {
            self.put_u64(v)?;
        }
        Ok(())
    }
}

fn le4(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le8(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Deserialises v2 payload fields with typed errors: running out of bytes
/// is [`WireError::Truncated`], invalid content is [`WireError::Schema`].
/// Never panics on hostile input.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn need(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.need(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(le4(self.need(4)?))
    }

    fn take_len(&mut self) -> Result<usize, WireError> {
        Ok(self.take_u32()? as usize)
    }

    /// Wire integers live in i64: a raw u64 beyond that is a schema
    /// error.
    fn take_u64(&mut self, what: &str) -> Result<u64, WireError> {
        let v = le8(self.need(8)?);
        if i64::try_from(v).is_err() {
            return Err(WireError::Schema(format!("{what}: exceeds i64")));
        }
        Ok(v)
    }

    fn take_usize(&mut self, what: &str) -> Result<usize, WireError> {
        usize::try_from(self.take_u64(what)?)
            .map_err(|_| WireError::Schema(format!("{what}: exceeds usize")))
    }

    fn take_i64(&mut self) -> Result<i64, WireError> {
        Ok(le8(self.need(8)?) as i64)
    }

    fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(le8(self.need(8)?)))
    }

    fn take_bool(&mut self, what: &str) -> Result<bool, WireError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Schema(format!(
                "{what}: invalid bool byte {other}"
            ))),
        }
    }

    fn take_str(&mut self, what: &str) -> Result<String, WireError> {
        let n = self.take_len()?;
        let bytes = self.need(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| WireError::Schema(format!("{what}: invalid utf-8")))
    }

    /// An option's tag byte: whether a value follows.
    fn take_some(&mut self, what: &str) -> Result<bool, WireError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Schema(format!(
                "{what}: invalid option tag {other}"
            ))),
        }
    }

    fn take_opt_u64(&mut self, what: &str) -> Result<Option<u64>, WireError> {
        self.take_some(what)?
            .then(|| self.take_u64(what))
            .transpose()
    }

    fn take_opt_usize(&mut self, what: &str) -> Result<Option<usize>, WireError> {
        self.take_some(what)?
            .then(|| self.take_usize(what))
            .transpose()
    }

    fn take_opt_i64(&mut self, what: &str) -> Result<Option<i64>, WireError> {
        self.take_some(what)?.then(|| self.take_i64()).transpose()
    }

    fn take_i64s(&mut self) -> Result<Vec<i64>, WireError> {
        let n = self.take_len()?;
        let bytes = self.need(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        Ok(bytes.chunks_exact(8).map(|c| le8(c) as i64).collect())
    }

    fn take_f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.take_len()?;
        let bytes = self.need(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(le8(c)))
            .collect())
    }

    fn take_u64s(&mut self, what: &str) -> Result<Vec<u64>, WireError> {
        let n = self.take_len()?;
        let bytes = self.need(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        let mut out = Vec::with_capacity(n);
        for c in bytes.chunks_exact(8) {
            let v = le8(c);
            if i64::try_from(v).is_err() {
                return Err(WireError::Schema(format!("{what}: exceeds i64")));
            }
            out.push(v);
        }
        Ok(out)
    }

    /// Trailing bytes after a fully decoded payload are a schema error.
    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::Schema(
                "trailing bytes after frame payload".into(),
            ));
        }
        Ok(())
    }
}

fn layer_to_byte(layer: Layer) -> u8 {
    match layer {
        Layer::Via => 0,
        Layer::Metal => 1,
    }
}

fn layer_from_byte(byte: u8) -> Result<Layer, WireError> {
    match byte {
        0 => Ok(Layer::Via),
        1 => Ok(Layer::Metal),
        other => Err(WireError::Schema(format!("unknown layer byte {other}"))),
    }
}

fn put_litho_v2(b: &mut FrameBuilder, litho: &LithoSpec) {
    b.put_u8(match litho.preset {
        LithoPreset::Default => 0,
        LithoPreset::Fast => 1,
    });
    b.put_opt_i64(litho.pixel_size);
}

fn take_litho_v2(c: &mut Cursor<'_>) -> Result<LithoSpec, WireError> {
    let preset = match c.take_u8()? {
        0 => LithoPreset::Default,
        1 => LithoPreset::Fast,
        other => {
            return Err(WireError::Schema(format!(
                "unknown litho preset byte {other}"
            )))
        }
    };
    let pixel_size = c.take_opt_i64("litho.pixel_size")?;
    if let Some(px) = pixel_size {
        if px <= 0 {
            return Err(WireError::Schema("pixel_size must be positive".into()));
        }
    }
    Ok(LithoSpec { preset, pixel_size })
}

fn put_job_v2(b: &mut FrameBuilder, job: &JobSpec) -> Result<(), WireError> {
    put_litho_v2(b, &job.litho);
    b.put_u8(layer_to_byte(job.layer));
    match job.engine {
        EngineKind::Calibre => b.put_u8(0),
        EngineKind::Camo { seed } => {
            b.put_u8(1);
            b.put_u64(seed)?;
        }
    }
    b.put_opt_usize(job.max_steps)
}

fn take_job_v2(c: &mut Cursor<'_>) -> Result<JobSpec, WireError> {
    let litho = take_litho_v2(c)?;
    let layer = layer_from_byte(c.take_u8()?)?;
    let engine = match c.take_u8()? {
        0 => EngineKind::Calibre,
        1 => EngineKind::Camo {
            seed: c.take_u64("job.camo_seed")?,
        },
        other => return Err(WireError::Schema(format!("unknown engine byte {other}"))),
    };
    let max_steps = c.take_opt_usize("job.max_steps")?;
    Ok(JobSpec {
        litho,
        layer,
        engine,
        max_steps,
    })
}

fn put_rect_v2(b: &mut FrameBuilder, rect: Rect) {
    b.put_i64(rect.x0);
    b.put_i64(rect.y0);
    b.put_i64(rect.x1);
    b.put_i64(rect.y1);
}

fn take_rect_v2(c: &mut Cursor<'_>, what: &str) -> Result<Rect, WireError> {
    let (x0, y0) = (c.take_i64()?, c.take_i64()?);
    let (x1, y1) = (c.take_i64()?, c.take_i64()?);
    rect_checked(x0, y0, x1, y1, what)
}

fn put_clip_v2(b: &mut FrameBuilder, clip: &Clip) -> Result<(), WireError> {
    b.put_str(clip.name())?;
    put_rect_v2(b, clip.region());
    b.put_len(clip.targets().len())?;
    for poly in clip.targets() {
        b.put_len(poly.vertices().len())?;
        for p in poly.vertices() {
            b.put_i64(p.x);
            b.put_i64(p.y);
        }
    }
    b.put_len(clip.srafs().len())?;
    for &sraf in clip.srafs() {
        put_rect_v2(b, sraf);
    }
    Ok(())
}

/// Targets are re-normalised exactly as [`Clip::add_target`] does, so a
/// round-tripped clip compares equal.
fn take_clip_v2(c: &mut Cursor<'_>) -> Result<Clip, WireError> {
    let name = c.take_str("clip.name")?;
    let region = take_rect_v2(c, "clip.region")?;
    let mut clip = Clip::with_name(region, name);
    let targets = c.take_len()?;
    for _ in 0..targets {
        let vertices = c.take_len()?;
        let mut points = Vec::new();
        for _ in 0..vertices {
            let (x, y) = (c.take_i64()?, c.take_i64()?);
            points.push(Point::new(x, y));
        }
        clip.add_target(polygon_from_points(points, "clip.targets[..]")?);
    }
    let srafs = c.take_len()?;
    for _ in 0..srafs {
        clip.add_sraf(take_rect_v2(c, "clip.srafs[..]")?);
    }
    Ok(clip)
}

fn put_params_v2(b: &mut FrameBuilder, params: &LayoutParams) {
    b.put_i64(params.layout_size);
    b.put_i64(params.via_size);
    b.put_i64(params.cell_size);
    b.put_i64(params.fill_percent as i64);
    b.put_i64(params.margin);
    b.put_bool(params.with_srafs);
}

fn take_params_v2(c: &mut Cursor<'_>) -> Result<LayoutParams, WireError> {
    let layout_size = c.take_i64()?;
    let via_size = c.take_i64()?;
    let cell_size = c.take_i64()?;
    let fill_percent = c.take_i64()?;
    let margin = c.take_i64()?;
    let with_srafs = c.take_bool("params.with_srafs")?;
    layout_params_checked(
        layout_size,
        via_size,
        cell_size,
        fill_percent,
        margin,
        with_srafs,
    )
}

fn put_outcome_v2(b: &mut FrameBuilder, outcome: &WireOutcome) -> Result<(), WireError> {
    b.put_i64s(&outcome.offsets)?;
    b.put_f64s(&outcome.epe_per_point)?;
    b.put_f64(outcome.pv_band);
    b.put_usize(outcome.steps)
}

fn take_outcome_v2(c: &mut Cursor<'_>) -> Result<WireOutcome, WireError> {
    Ok(WireOutcome {
        offsets: c.take_i64s()?,
        epe_per_point: c.take_f64s()?,
        pv_band: c.take_f64()?,
        steps: c.take_usize("outcome.steps")?,
    })
}

fn put_kind_latency_v2(b: &mut FrameBuilder, k: &KindLatency) -> Result<(), WireError> {
    b.put_str(&k.kind)?;
    b.put_u64(k.latency.count)?;
    b.put_u64(k.latency.p50_us)?;
    b.put_u64(k.latency.p99_us)?;
    b.put_u64(k.latency.max_us)?;
    b.put_u64s(&k.latency.buckets)
}

fn take_kind_latency_v2(c: &mut Cursor<'_>) -> Result<KindLatency, WireError> {
    Ok(KindLatency {
        kind: c.take_str("latency.kind")?,
        latency: LatencySnapshot {
            count: c.take_u64("latency.count")?,
            p50_us: c.take_u64("latency.p50_us")?,
            p99_us: c.take_u64("latency.p99_us")?,
            max_us: c.take_u64("latency.max_us")?,
            buckets: c.take_u64s("latency.buckets")?,
        },
    })
}

fn put_shard_status_v2(b: &mut FrameBuilder, s: &ShardStatus) -> Result<(), WireError> {
    b.put_usize(s.index)?;
    b.put_bool(s.alive);
    b.put_bool(s.benched);
    b.put_usize(s.forwarded)?;
    b.put_usize(s.respawns)?;
    b.put_usize(s.queue_depth)?;
    b.put_usize(s.in_flight)?;
    b.put_usize(s.in_flight_high_water)?;
    b.put_usize(s.completed)?;
    b.put_usize(s.busy_rejected)
}

fn take_shard_status_v2(c: &mut Cursor<'_>) -> Result<ShardStatus, WireError> {
    Ok(ShardStatus {
        index: c.take_usize("shard.index")?,
        alive: c.take_bool("shard.alive")?,
        benched: c.take_bool("shard.benched")?,
        forwarded: c.take_usize("shard.forwarded")?,
        respawns: c.take_usize("shard.respawns")?,
        queue_depth: c.take_usize("shard.queue_depth")?,
        in_flight: c.take_usize("shard.in_flight")?,
        in_flight_high_water: c.take_usize("shard.in_flight_high_water")?,
        completed: c.take_usize("shard.completed")?,
        busy_rejected: c.take_usize("shard.busy_rejected")?,
    })
}

fn put_metrics_v2(b: &mut FrameBuilder, report: &MetricsReport) -> Result<(), WireError> {
    b.put_str(&report.role)?;
    b.put_str(&report.simd_arch)?;
    b.put_usize(report.queue_depth)?;
    b.put_usize(report.queue_high_water)?;
    b.put_usize(report.in_flight)?;
    b.put_usize(report.in_flight_high_water)?;
    b.put_usize(report.completed)?;
    b.put_usize(report.busy_rejected)?;
    b.put_usize(report.redispatched)?;
    b.put_usize(report.respawns)?;
    b.put_len(report.latency.len())?;
    for k in &report.latency {
        put_kind_latency_v2(b, k)?;
    }
    b.put_len(report.stage_latency.len())?;
    for k in &report.stage_latency {
        put_kind_latency_v2(b, k)?;
    }
    b.put_len(report.shards.len())?;
    for s in &report.shards {
        put_shard_status_v2(b, s)?;
    }
    Ok(())
}

fn take_metrics_v2(c: &mut Cursor<'_>) -> Result<MetricsReport, WireError> {
    let role = c.take_str("metrics.role")?;
    let simd_arch = c.take_str("metrics.simd_arch")?;
    let queue_depth = c.take_usize("metrics.queue_depth")?;
    let queue_high_water = c.take_usize("metrics.queue_high_water")?;
    let in_flight = c.take_usize("metrics.in_flight")?;
    let in_flight_high_water = c.take_usize("metrics.in_flight_high_water")?;
    let completed = c.take_usize("metrics.completed")?;
    let busy_rejected = c.take_usize("metrics.busy_rejected")?;
    let redispatched = c.take_usize("metrics.redispatched")?;
    let respawns = c.take_usize("metrics.respawns")?;
    let mut latency = Vec::new();
    for _ in 0..c.take_len()? {
        latency.push(take_kind_latency_v2(c)?);
    }
    let mut stage_latency = Vec::new();
    for _ in 0..c.take_len()? {
        stage_latency.push(take_kind_latency_v2(c)?);
    }
    let mut shards = Vec::new();
    for _ in 0..c.take_len()? {
        shards.push(take_shard_status_v2(c)?);
    }
    Ok(MetricsReport {
        role,
        simd_arch,
        queue_depth,
        queue_high_water,
        in_flight,
        in_flight_high_water,
        completed,
        busy_rejected,
        redispatched,
        respawns,
        latency,
        stage_latency,
        shards,
    })
}

fn put_span_v2(b: &mut FrameBuilder, span: &SpanRecord) -> Result<(), WireError> {
    b.put_u64(span.trace_id)?;
    b.put_str(&span.stage)?;
    b.put_u64(span.start_us)?;
    b.put_u64(span.end_us)
}

fn take_span_v2(c: &mut Cursor<'_>) -> Result<SpanRecord, WireError> {
    Ok(SpanRecord {
        trace_id: c.take_u64("span.trace_id")?,
        stage: c.take_str("span.stage")?,
        start_us: c.take_u64("span.start_us")?,
        end_us: c.take_u64("span.end_us")?,
    })
}

fn put_trace_v2(b: &mut FrameBuilder, report: &TraceReport) -> Result<(), WireError> {
    b.put_str(&report.role)?;
    b.put_u64(report.dropped)?;
    b.put_len(report.spans.len())?;
    for span in &report.spans {
        put_span_v2(b, span)?;
    }
    b.put_len(report.shards.len())?;
    for shard in &report.shards {
        b.put_usize(shard.index)?;
        b.put_u64(shard.dropped)?;
        b.put_len(shard.spans.len())?;
        for span in &shard.spans {
            put_span_v2(b, span)?;
        }
    }
    Ok(())
}

fn take_trace_v2(c: &mut Cursor<'_>) -> Result<TraceReport, WireError> {
    let role = c.take_str("trace.role")?;
    let dropped = c.take_u64("trace.dropped")?;
    let mut spans = Vec::new();
    for _ in 0..c.take_len()? {
        spans.push(take_span_v2(c)?);
    }
    let mut shards = Vec::new();
    for _ in 0..c.take_len()? {
        let index = c.take_usize("shard_trace.index")?;
        let shard_dropped = c.take_u64("shard_trace.dropped")?;
        let mut shard_spans = Vec::new();
        for _ in 0..c.take_len()? {
            shard_spans.push(take_span_v2(c)?);
        }
        shards.push(ShardTrace {
            index,
            dropped: shard_dropped,
            spans: shard_spans,
        });
    }
    Ok(TraceReport {
        role,
        dropped,
        spans,
        shards,
    })
}

/// Encodes a request as one complete v2 frame (header included).
pub fn encode_request_v2(request: &Request) -> Result<Vec<u8>, WireError> {
    encode_request_parts_v2(request.id, &request.body, request.trace)
}

/// Encodes a v2 request frame from parts without cloning the body —
/// forwarding paths encode a stored body under their own id.
pub fn encode_request_parts_v2(
    id: u64,
    body: &RequestBody,
    trace: Option<u64>,
) -> Result<Vec<u8>, WireError> {
    let mut b = FrameBuilder::new(request_opcode(body));
    b.put_u64(id)?;
    b.put_opt_u64(trace)?;
    match body {
        RequestBody::Ping | RequestBody::Metrics | RequestBody::Trace | RequestBody::Shutdown => {}
        RequestBody::Hello { version } => b.put_u32(*version),
        RequestBody::Restart { shard } => b.put_opt_usize(*shard)?,
        RequestBody::Optimize { job, clip } => {
            put_job_v2(&mut b, job)?;
            put_clip_v2(&mut b, clip)?;
        }
        RequestBody::Evaluate {
            litho,
            layer,
            bias,
            clip,
        } => {
            put_litho_v2(&mut b, litho);
            b.put_u8(layer_to_byte(*layer));
            b.put_i64(*bias);
            put_clip_v2(&mut b, clip)?;
        }
        RequestBody::Sweep { job, cases } => {
            put_job_v2(&mut b, job)?;
            b.put_len(cases.len())?;
            for (name, clip) in cases {
                b.put_str(name)?;
                put_clip_v2(&mut b, clip)?;
            }
        }
        RequestBody::Layout {
            litho,
            params,
            seed,
            tile_nm,
        } => {
            put_litho_v2(&mut b, litho);
            put_params_v2(&mut b, params);
            b.put_u64(*seed)?;
            b.put_i64(*tile_nm);
        }
    }
    b.finish()
}

/// Decodes one v2 request payload, validating every field a hostile peer
/// could use to make execution panic. Never panics on hostile input.
pub fn decode_request_v2(opcode: u8, payload: &[u8]) -> Result<Request, WireError> {
    let op = Opcode::from_u8(opcode)
        .ok_or_else(|| WireError::Schema(format!("unknown opcode 0x{opcode:02x}")))?;
    if !op.is_request() {
        return Err(WireError::Schema(format!(
            "opcode '{}' is not a request",
            op.opcode_name()
        )));
    }
    let mut c = Cursor::new(payload);
    let id = c.take_u64("request.id")?;
    let trace = c.take_opt_u64("request.trace_id")?;
    let body = match op {
        Opcode::Ping => RequestBody::Ping,
        Opcode::Metrics => RequestBody::Metrics,
        Opcode::Trace => RequestBody::Trace,
        Opcode::Shutdown => RequestBody::Shutdown,
        Opcode::Hello => RequestBody::Hello {
            version: c.take_u32()?,
        },
        Opcode::Restart => RequestBody::Restart {
            shard: c.take_opt_usize("restart.shard")?,
        },
        Opcode::Optimize => RequestBody::Optimize {
            job: take_job_v2(&mut c)?,
            clip: take_clip_v2(&mut c)?,
        },
        Opcode::Evaluate => {
            let litho = take_litho_v2(&mut c)?;
            let layer = layer_from_byte(c.take_u8()?)?;
            let bias = c.take_i64()?;
            // Range check, not `abs()`: `i64::MIN.abs()` overflows.
            if !(-20..=20).contains(&bias) {
                return Err(WireError::Schema(
                    "evaluate.bias exceeds the mask offset clamp (|bias| <= 20)".into(),
                ));
            }
            RequestBody::Evaluate {
                litho,
                layer,
                bias,
                clip: take_clip_v2(&mut c)?,
            }
        }
        Opcode::Sweep => {
            let job = take_job_v2(&mut c)?;
            let count = c.take_len()?;
            let mut cases = Vec::new();
            for _ in 0..count {
                let name = c.take_str("case.name")?;
                cases.push((name, take_clip_v2(&mut c)?));
            }
            if cases.is_empty() {
                return Err(WireError::Schema("sweep with no cases".into()));
            }
            RequestBody::Sweep { job, cases }
        }
        Opcode::Layout => {
            let litho = take_litho_v2(&mut c)?;
            let params = take_params_v2(&mut c)?;
            let seed = c.take_u64("layout.seed")?;
            let tile_nm = c.take_i64()?;
            if tile_nm <= 0 {
                return Err(WireError::Schema("tile_nm must be positive".into()));
            }
            RequestBody::Layout {
                litho,
                params,
                seed,
                tile_nm,
            }
        }
        _ => unreachable!("response opcodes rejected above"),
    };
    c.finish()?;
    Ok(Request { id, body, trace })
}

/// Encodes a response as one complete v2 frame (header included).
pub fn encode_response_v2(response: &Response) -> Result<Vec<u8>, WireError> {
    let mut b = FrameBuilder::new(response_opcode(&response.body));
    b.put_u64(response.id)?;
    match &response.body {
        ResponseBody::Pong | ResponseBody::ShuttingDown => {}
        ResponseBody::HelloAck { version } => b.put_u32(*version),
        ResponseBody::Outcome(outcome) => put_outcome_v2(&mut b, outcome)?,
        ResponseBody::CaseOutcome {
            index,
            total,
            name,
            outcome,
        } => {
            b.put_usize(*index)?;
            b.put_usize(*total)?;
            b.put_str(name)?;
            put_outcome_v2(&mut b, outcome)?;
        }
        ResponseBody::Evaluation {
            epe_per_point,
            pv_band,
        } => {
            b.put_f64s(epe_per_point)?;
            b.put_f64(*pv_band);
        }
        ResponseBody::LayoutReport {
            tiles,
            epe_per_point,
            pv_band,
        } => {
            b.put_usize(*tiles)?;
            b.put_f64s(epe_per_point)?;
            b.put_f64(*pv_band);
        }
        ResponseBody::Metrics(report) => put_metrics_v2(&mut b, report)?,
        ResponseBody::Trace(report) => put_trace_v2(&mut b, report)?,
        ResponseBody::Restarted { shards } => {
            b.put_len(shards.len())?;
            for &s in shards {
                b.put_usize(s)?;
            }
        }
        ResponseBody::Busy { retry_after_ms } => b.put_u64(*retry_after_ms)?,
        ResponseBody::Error { code, message } => {
            b.put_u8(match code {
                ErrorCode::BadRequest => 0,
                ErrorCode::Overloaded => 1,
                ErrorCode::Internal => 2,
            });
            b.put_str(message)?;
        }
    }
    b.finish()
}

/// Decodes one v2 response payload. Never panics on hostile input.
pub fn decode_response_v2(opcode: u8, payload: &[u8]) -> Result<Response, WireError> {
    let op = Opcode::from_u8(opcode)
        .ok_or_else(|| WireError::Schema(format!("unknown opcode 0x{opcode:02x}")))?;
    if op.is_request() {
        return Err(WireError::Schema(format!(
            "opcode '{}' is not a response",
            op.opcode_name()
        )));
    }
    let mut c = Cursor::new(payload);
    let id = c.take_u64("response.id")?;
    let body = match op {
        Opcode::Pong => ResponseBody::Pong,
        Opcode::ShuttingDown => ResponseBody::ShuttingDown,
        Opcode::HelloAck => ResponseBody::HelloAck {
            version: c.take_u32()?,
        },
        Opcode::Outcome => ResponseBody::Outcome(take_outcome_v2(&mut c)?),
        Opcode::Case => ResponseBody::CaseOutcome {
            index: c.take_usize("case.index")?,
            total: c.take_usize("case.total")?,
            name: c.take_str("case.name")?,
            outcome: take_outcome_v2(&mut c)?,
        },
        Opcode::Evaluation => ResponseBody::Evaluation {
            epe_per_point: c.take_f64s()?,
            pv_band: c.take_f64()?,
        },
        Opcode::LayoutReport => ResponseBody::LayoutReport {
            tiles: c.take_usize("layout.tiles")?,
            epe_per_point: c.take_f64s()?,
            pv_band: c.take_f64()?,
        },
        Opcode::MetricsReport => ResponseBody::Metrics(take_metrics_v2(&mut c)?),
        Opcode::TraceReport => ResponseBody::Trace(take_trace_v2(&mut c)?),
        Opcode::Restarted => {
            let count = c.take_len()?;
            let mut shards = Vec::new();
            for _ in 0..count {
                shards.push(c.take_usize("restarted.shards[..]")?);
            }
            ResponseBody::Restarted { shards }
        }
        Opcode::Busy => ResponseBody::Busy {
            retry_after_ms: c.take_u64("busy.retry_after_ms")?,
        },
        Opcode::Error => {
            let code = match c.take_u8()? {
                0 => ErrorCode::BadRequest,
                1 => ErrorCode::Overloaded,
                2 => ErrorCode::Internal,
                other => {
                    return Err(WireError::Schema(format!(
                        "unknown error code byte {other}"
                    )))
                }
            };
            ResponseBody::Error {
                code,
                message: c.take_str("error.message")?,
            }
        }
        _ => unreachable!("request opcodes rejected above"),
    };
    c.finish()?;
    Ok(Response { id, body })
}

/// One binary (v2) frame read from a connection.
#[derive(Debug)]
pub enum FrameV2 {
    /// A complete frame within the size bound.
    Frame {
        /// The opcode byte (possibly unknown; the decoders type that).
        opcode: u8,
        /// Payload bytes — little-endian fields, header excluded.
        payload: Vec<u8>,
    },
    /// A frame whose declared payload length exceeds [`MAX_FRAME_V2`].
    /// There is no delimiter to resync on, so the connection cannot be
    /// re-framed and must be closed.
    Oversized {
        /// The declared payload length.
        len: usize,
    },
}

/// Reads one length-prefixed v2 frame without ever buffering more than
/// [`MAX_FRAME_V2`] payload bytes. Returns `Ok(None)` at EOF; a partial
/// frame at EOF is dropped (the peer died mid-frame).
pub fn read_frame_v2(reader: &mut impl std::io::Read) -> std::io::Result<Option<FrameV2>> {
    let mut header = [0u8; 5];
    if !read_full(reader, &mut header)? {
        return Ok(None);
    }
    let len = le4(&header[..4]) as usize;
    let opcode = header[4];
    if len > MAX_FRAME_V2 {
        return Ok(Some(FrameV2::Oversized { len }));
    }
    let mut payload = vec![0u8; len];
    if !read_full(reader, &mut payload)? {
        return Ok(None);
    }
    Ok(Some(FrameV2::Frame { opcode, payload }))
}

fn read_full(reader: &mut impl std::io::Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn via_clip() -> Clip {
        let mut clip = Clip::with_name(Rect::new(0, 0, 2000, 2000), "V1");
        clip.add_target(Rect::new(965, 965, 1035, 1035).to_polygon());
        clip.add_sraf(Rect::new(800, 965, 820, 1035));
        clip
    }

    fn hello(id: u64) -> Request {
        Request {
            id,
            body: RequestBody::Hello { version: 2 },
            trace: None,
        }
    }

    #[test]
    fn requests_round_trip() {
        // The preface carries exactly one request kind, byte-compatible
        // with every client that already opens with this line.
        let line = encode_request(&hello(1)).unwrap();
        assert_eq!(line, r#"{"id":1,"type":"hello","version":2}"#);
        assert_eq!(decode_request(&line).unwrap(), hello(1));
        let other = Request {
            body: RequestBody::Hello { version: 3 },
            ..hello(u64::MAX >> 1)
        };
        assert_eq!(
            decode_request(&encode_request(&other).unwrap()).unwrap(),
            other
        );
        // Every other kind is a binary frame: refused as text both ways.
        for body in [
            RequestBody::Ping,
            RequestBody::Sweep {
                job: JobSpec::fast_calibre_via(),
                cases: vec![("V1".into(), via_clip())],
            },
        ] {
            let request = Request {
                id: 1,
                body,
                trace: None,
            };
            assert!(matches!(
                encode_request(&request).unwrap_err(),
                WireError::Unencodable(_)
            ));
        }
        assert!(matches!(
            decode_request(r#"{"id":1,"type":"ping"}"#).unwrap_err(),
            WireError::Schema(_)
        ));
        let traced = Request {
            trace: Some(7),
            ..hello(1)
        };
        assert!(encode_request(&traced).is_err());
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let bodies = vec![
            ResponseBody::HelloAck { version: 2 },
            ResponseBody::Busy { retry_after_ms: 50 },
            ResponseBody::Error {
                code: ErrorCode::BadRequest,
                message: "tab\t\"quote\"\nnewline \\ / ünïcode".into(),
            },
            ResponseBody::Error {
                code: ErrorCode::Internal,
                message: String::new(),
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let response = Response { id: i as u64, body };
            let line = encode_response(&response).unwrap();
            let decoded = decode_response(&line).unwrap();
            assert_eq!(decoded, response, "line: {line}");
            // Canonical text: re-encoding reproduces the line byte for byte.
            assert_eq!(encode_response(&decoded).unwrap(), line);
        }
        assert!(matches!(
            encode_response(&Response {
                id: 1,
                body: ResponseBody::Pong,
            })
            .unwrap_err(),
            WireError::Unencodable(_)
        ));
    }

    /// A router-shaped report with `shards` status rows.
    fn sample_metrics(shards: usize) -> MetricsReport {
        let latency = |kind: &str| KindLatency {
            kind: kind.into(),
            latency: LatencySnapshot {
                count: 940,
                p50_us: 1023,
                p99_us: 8191,
                max_us: 7311,
                buckets: vec![0, 0, 1, 930, 9],
            },
        };
        let status = |index: usize| ShardStatus {
            index,
            alive: index == 0,
            benched: index != 0,
            forwarded: 500,
            respawns: 2,
            queue_depth: 1,
            in_flight: 1,
            in_flight_high_water: 4,
            completed: 498,
            busy_rejected: 3,
        };
        MetricsReport {
            role: "router".into(),
            simd_arch: "avx2".into(),
            queue_depth: 3,
            queue_high_water: 9,
            in_flight: 2,
            in_flight_high_water: 6,
            completed: 940,
            busy_rejected: 7,
            redispatched: 4,
            respawns: 2,
            latency: vec![latency("optimize")],
            stage_latency: vec![latency("forward")],
            shards: (0..shards).map(status).collect(),
        }
    }

    #[test]
    fn metrics_and_restart_round_trip() {
        for body in [
            RequestBody::Metrics,
            RequestBody::Restart { shard: None },
            RequestBody::Restart { shard: Some(1) },
        ] {
            v2_round_trip_request(&Request {
                id: 4,
                body,
                trace: None,
            });
        }
        let responses = [
            ResponseBody::Metrics(sample_metrics(2)),
            ResponseBody::Metrics(sample_metrics(0)),
            ResponseBody::Restarted { shards: vec![0, 1] },
            ResponseBody::Restarted { shards: vec![] },
        ];
        for (body, id) in responses.into_iter().zip(0..) {
            v2_round_trip_response(&Response { id, body });
        }
    }

    #[test]
    fn malformed_metrics_fields_are_typed_errors() {
        // A gauge beyond i64 and a shard row whose `alive` byte is not a
        // bool must both be schema errors, not panics or silent acceptance.
        let frame = encode_response_v2(&Response {
            id: 1,
            body: ResponseBody::Metrics(sample_metrics(1)),
        })
        .unwrap();
        let payload = &frame[5..];
        // id (8), role (4 + 6), simd_arch (4 + 4), then the first gauge.
        let gauge_at = 8 + 10 + 8;
        // The row's `alive` byte precedes its benched byte and its seven
        // trailing u64 counters, at the end of the payload.
        let alive_at = payload.len() - 7 * 8 - 1 - 1;
        for (at, bytes) in [(gauge_at, &u64::MAX.to_le_bytes()[..]), (alive_at, &[7])] {
            let mut bad = payload.to_vec();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            let err = decode_response_v2(frame[4], &bad).unwrap_err();
            assert!(matches!(err, WireError::Schema(_)), "{err:?}");
        }
    }

    #[test]
    fn trace_ids_ride_any_request_kind_and_round_trip() {
        // The trace id is orthogonal to the body: absent means untraced,
        // present must survive encode/decode exactly.
        let traced = Request {
            id: 7,
            body: RequestBody::Optimize {
                job: JobSpec::fast_calibre_via(),
                clip: via_clip(),
            },
            trace: Some(42),
        };
        v2_round_trip_request(&traced);
        let untraced = Request {
            id: 8,
            body: RequestBody::Ping,
            trace: None,
        };
        v2_round_trip_request(&untraced);
        // id, then the option tag: the only byte the trace id changes.
        let frame = encode_request_v2(&untraced).unwrap();
        assert_eq!(frame[5 + 8], 0, "untraced frames carry a None tag");
        // The trace *pull* request itself round-trips.
        v2_round_trip_request(&Request {
            id: 9,
            body: RequestBody::Trace,
            trace: None,
        });
    }

    #[test]
    fn trace_reports_round_trip() {
        let spans = |stages: &[&str]| -> Vec<SpanRecord> {
            (stages.iter().zip(0u64..))
                .map(|(stage, i)| SpanRecord {
                    trace_id: 1,
                    stage: (*stage).into(),
                    start_us: 10 * i,
                    end_us: 10 * i + 7,
                })
                .collect()
        };
        let shard = ShardTrace {
            index: 0,
            dropped: 0,
            spans: spans(&["shard-queue", "plan", "context-fetch", "rasterize", "write"]),
        };
        let reports = [
            TraceReport {
                role: "router".into(),
                dropped: 3,
                spans: spans(&["admit", "forward"]),
                shards: vec![
                    shard,
                    ShardTrace {
                        index: 1,
                        dropped: 7,
                        spans: vec![],
                    },
                ],
            },
            TraceReport {
                role: "server".into(),
                dropped: 0,
                spans: vec![],
                shards: vec![],
            },
        ];
        for (report, id) in reports.into_iter().zip(0..) {
            let response = Response {
                id,
                body: ResponseBody::Trace(report),
            };
            v2_round_trip_response(&response);
            // A payload with a byte appended is a schema error.
            let frame = encode_response_v2(&response).unwrap();
            let mut padded = frame[5..].to_vec();
            padded.push(0);
            assert!(matches!(
                decode_response_v2(frame[4], &padded).unwrap_err(),
                WireError::Schema(_)
            ));
        }
    }

    #[test]
    fn u64_fields_beyond_i64_are_unencodable_not_corrupted() {
        // Regression: seeds above i64::MAX once wrapped to values the
        // decoder rejected, leaving the request unanswerable.
        let request = Request {
            id: 1,
            body: RequestBody::Layout {
                litho: LithoSpec::fast(),
                params: LayoutParams::smoke(),
                seed: (i64::MAX as u64) + 1,
                tile_nm: 1500,
            },
            trace: None,
        };
        assert!(matches!(
            encode_request_v2(&request).unwrap_err(),
            WireError::Unencodable(_)
        ));
        let camo = Request {
            id: 2,
            body: RequestBody::Optimize {
                job: JobSpec {
                    engine: EngineKind::Camo { seed: u64::MAX },
                    ..JobSpec::fast_calibre_via()
                },
                clip: via_clip(),
            },
            trace: None,
        };
        assert!(matches!(
            encode_request_v2(&camo).unwrap_err(),
            WireError::Unencodable(_)
        ));
        // At the boundary everything still round-trips.
        v2_round_trip_request(&Request {
            id: 3,
            body: RequestBody::Layout {
                litho: LithoSpec::fast(),
                params: LayoutParams::smoke(),
                seed: i64::MAX as u64,
                tile_nm: 1500,
            },
            trace: None,
        });
        // The preface shares the rule.
        assert!(matches!(
            encode_response(&Response {
                id: u64::MAX,
                body: ResponseBody::HelloAck { version: 2 },
            })
            .unwrap_err(),
            WireError::Unencodable(_)
        ));
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let line = encode_request(&hello(3)).unwrap();
        // Every strict prefix must fail cleanly; never panic, never
        // succeed.
        for cut in 0..line.len() {
            let err = decode_request(&line[..cut]).unwrap_err();
            match err {
                WireError::Truncated | WireError::Syntax { .. } | WireError::BadNumber { .. } => {}
                other => panic!("unexpected error {other:?} at cut {cut}"),
            }
        }
    }

    #[test]
    fn extreme_bias_is_a_typed_error_not_a_panic() {
        // Regression: `bias.abs()` panicked (debug) / wrapped (release) on
        // i64::MIN; the range check must reject it cleanly.
        let frame = encode_request_v2(&Request {
            id: 1,
            body: RequestBody::Evaluate {
                litho: LithoSpec::fast(),
                layer: Layer::Via,
                bias: 0,
                clip: via_clip(),
            },
            trace: None,
        })
        .unwrap();
        // Payload: id (8), trace tag (1), litho (preset 1 + tag 1), layer
        // (1), then the bias.
        let bias_at = 8 + 1 + 2 + 1;
        let mut payload = frame[5..].to_vec();
        payload[bias_at..bias_at + 8].copy_from_slice(&i64::MIN.to_le_bytes());
        assert!(matches!(
            decode_request_v2(frame[4], &payload).unwrap_err(),
            WireError::Schema(_)
        ));
    }

    #[test]
    fn bad_escapes_are_typed_errors() {
        let err = decode_response(
            r#"{"id":0,"type":"error","code":"bad_request","message":"bad\qescape"}"#,
        )
        .unwrap_err();
        assert!(matches!(err, WireError::BadEscape { .. }), "{err:?}");
        let err = decode_response(
            "{\"id\":0,\"type\":\"error\",\"code\":\"bad_request\",\"message\":\"\\u0041\"}",
        )
        .unwrap_err();
        assert!(matches!(err, WireError::BadEscape { .. }), "{err:?}");
    }

    #[test]
    fn oversized_frames_are_typed_errors() {
        let huge = format!(
            r#"{{"id":1,"type":"hello","version":2,"pad":"{}"}}"#,
            "x".repeat(MAX_FRAME)
        );
        assert!(matches!(
            decode_request(&huge).unwrap_err(),
            WireError::Oversized { .. }
        ));
        let error = Response {
            id: 0,
            body: ResponseBody::Error {
                code: ErrorCode::BadRequest,
                message: "x".repeat(MAX_FRAME),
            },
        };
        assert!(matches!(
            encode_response(&error).unwrap_err(),
            WireError::Oversized { .. }
        ));
    }

    #[test]
    fn duplicate_and_unknown_fields_are_rejected() {
        assert!(matches!(
            decode_request(r#"{"id":1,"id":2,"type":"hello","version":2}"#).unwrap_err(),
            WireError::Syntax { .. }
        ));
        let err =
            decode_response(r#"{"id":1,"type":"hello_ack","version":2,"extra":0}"#).unwrap_err();
        assert!(matches!(err, WireError::Schema(_)), "{err:?}");
        let err = decode_request(r#"{"id":1,"type":"hello"}"#).unwrap_err();
        assert!(matches!(err, WireError::Schema(_)), "{err:?}");
    }

    #[test]
    fn read_frame_bounds_hostile_lines() {
        use std::io::BufReader;
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"ok\":true}\n");
        input.extend_from_slice(&vec![b'x'; MAX_FRAME + 100]);
        input.push(b'\n');
        input.extend_from_slice(b"{\"after\":1}\n");
        let mut reader = BufReader::with_capacity(512, &input[..]);
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Some(Frame::Line(l)) if l == "{\"ok\":true}"
        ));
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Some(Frame::Oversized { len }) if len > MAX_FRAME
        ));
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Some(Frame::Line(l)) if l == "{\"after\":1}"
        ));
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn depth_limit_is_enforced() {
        // The preface grammar is one flat object: any nesting is refused.
        for line in [
            r#"{"id":{"id":1},"type":"hello","version":2}"#,
            r#"{"id":1,"type":"hello","version":[2]}"#,
        ] {
            assert_eq!(decode_request(line).unwrap_err(), WireError::TooDeep);
        }
    }

    fn v2_round_trip_request(request: &Request) {
        let frame = encode_request_v2(request).unwrap();
        assert_eq!(le4(&frame[..4]) as usize, frame.len() - 5);
        let decoded = decode_request_v2(frame[4], &frame[5..]).unwrap();
        assert_eq!(&decoded, request);
    }

    fn v2_round_trip_response(response: &Response) {
        let frame = encode_response_v2(response).unwrap();
        assert_eq!(le4(&frame[..4]) as usize, frame.len() - 5);
        let decoded = decode_response_v2(frame[4], &frame[5..]).unwrap();
        assert_eq!(&decoded, response);
    }

    #[test]
    fn v2_requests_round_trip() {
        let bodies = vec![
            RequestBody::Ping,
            RequestBody::Metrics,
            RequestBody::Trace,
            RequestBody::Shutdown,
            RequestBody::Hello { version: 2 },
            RequestBody::Restart { shard: None },
            RequestBody::Restart { shard: Some(1) },
            RequestBody::Optimize {
                job: JobSpec::fast_calibre_via(),
                clip: via_clip(),
            },
            RequestBody::Evaluate {
                litho: LithoSpec::paper(),
                layer: Layer::Metal,
                bias: -3,
                clip: via_clip(),
            },
            RequestBody::Sweep {
                job: JobSpec {
                    engine: EngineKind::Camo { seed: 7 },
                    max_steps: Some(2),
                    ..JobSpec::fast_calibre_via()
                },
                cases: vec![("a".into(), via_clip()), ("b".into(), via_clip())],
            },
            RequestBody::Layout {
                litho: LithoSpec::fast(),
                params: LayoutParams::smoke(),
                seed: 99,
                tile_nm: 1500,
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            v2_round_trip_request(&Request {
                id: i as u64,
                body: body.clone(),
                trace: None,
            });
            v2_round_trip_request(&Request {
                id: i as u64,
                body,
                trace: Some(0xCAFE),
            });
        }
    }

    #[test]
    fn v2_responses_round_trip_bit_exactly() {
        let outcome = WireOutcome {
            offsets: vec![3, -2, 0, 20],
            epe_per_point: vec![1.25, -0.1, 40.0, f64::MIN_POSITIVE, -1.0e-300],
            pv_band: 5431.0625,
            steps: 7,
        };
        let bodies = vec![
            ResponseBody::Pong,
            ResponseBody::ShuttingDown,
            ResponseBody::HelloAck { version: 2 },
            ResponseBody::Outcome(outcome.clone()),
            ResponseBody::CaseOutcome {
                index: 1,
                total: 3,
                name: "V2".into(),
                outcome: outcome.clone(),
            },
            ResponseBody::Evaluation {
                epe_per_point: vec![0.1 + 0.2, 1.0 / 3.0, -0.0],
                pv_band: 0.1,
            },
            ResponseBody::LayoutReport {
                tiles: 9,
                epe_per_point: vec![-0.0, 2.5e-17],
                pv_band: 1e9 + 0.25,
            },
            ResponseBody::Restarted { shards: vec![0, 1] },
            ResponseBody::Busy { retry_after_ms: 50 },
            ResponseBody::Error {
                code: ErrorCode::BadRequest,
                message: "tab\t\"quote\"\nnewline".into(),
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let response = Response { id: i as u64, body };
            v2_round_trip_response(&response);
            let frame = encode_response_v2(&response).unwrap();
            let decoded = decode_response_v2(frame[4], &frame[5..]).unwrap();
            // PartialEq on f64 is not bit-exactness (-0.0 == 0.0); the
            // canonical v2 bytes are, so re-encoding must reproduce them.
            assert_eq!(encode_response_v2(&decoded).unwrap(), frame);
        }
    }

    #[test]
    fn v2_round_trips_every_f64_bit_pattern() {
        // Raw bit images carry every pattern, non-finite ones included.
        let patterns = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signalling-NaN payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
        ];
        let response = Response {
            id: 1,
            body: ResponseBody::Evaluation {
                epe_per_point: patterns.to_vec(),
                pv_band: f64::from_bits(0xFFF8_DEAD_BEEF_0001),
            },
        };
        let frame = encode_response_v2(&response).unwrap();
        let decoded = decode_response_v2(frame[4], &frame[5..]).unwrap();
        let ResponseBody::Evaluation {
            epe_per_point,
            pv_band,
        } = decoded.body
        else {
            panic!("wrong kind");
        };
        for (a, b) in patterns.iter().zip(&epe_per_point) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(pv_band.to_bits(), 0xFFF8_DEAD_BEEF_0001);
    }

    #[test]
    fn v2_truncations_and_mutations_are_typed_errors() {
        let request = Request {
            id: 3,
            body: RequestBody::Optimize {
                job: JobSpec::fast_calibre_via(),
                clip: via_clip(),
            },
            trace: Some(9),
        };
        let frame = encode_request_v2(&request).unwrap();
        for cut in 0..frame.len().saturating_sub(5) {
            // Decoding any payload prefix must fail cleanly, never panic.
            let _ = decode_request_v2(frame[4], &frame[5..5 + cut]);
        }
        assert_eq!(
            decode_request_v2(frame[4], &frame[5..frame.len() - 1]).unwrap_err(),
            WireError::Truncated
        );
        // Trailing bytes are rejected.
        let mut padded = frame[5..].to_vec();
        padded.push(0);
        assert!(matches!(
            decode_request_v2(frame[4], &padded).unwrap_err(),
            WireError::Schema(_)
        ));
        // Unknown opcodes are schema errors, and response opcodes are not
        // requests.
        assert!(matches!(
            decode_request_v2(0x7F, &frame[5..]).unwrap_err(),
            WireError::Schema(_)
        ));
        assert!(matches!(
            decode_request_v2(Opcode::Pong as u8, &frame[5..]).unwrap_err(),
            WireError::Schema(_)
        ));
    }

    #[test]
    fn v2_read_frame_bounds_hostile_streams() {
        use std::io::BufReader;
        // A well-formed ping after a declared-oversized frame: the reader
        // surfaces Oversized without buffering the claimed payload.
        let ping = encode_request_parts_v2(1, &RequestBody::Ping, None).unwrap();
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&(u32::MAX).to_le_bytes());
        hostile.push(Opcode::Ping as u8);
        let mut reader = BufReader::new(&hostile[..]);
        assert!(matches!(
            read_frame_v2(&mut reader).unwrap(),
            Some(FrameV2::Oversized { len }) if len > MAX_FRAME_V2
        ));

        let mut stream = Vec::new();
        stream.extend_from_slice(&ping);
        stream.extend_from_slice(&ping[..7]); // partial frame at EOF
        let mut reader = BufReader::new(&stream[..]);
        let Some(FrameV2::Frame { opcode, payload }) = read_frame_v2(&mut reader).unwrap() else {
            panic!("expected a frame");
        };
        assert_eq!(
            decode_request_v2(opcode, &payload).unwrap().body,
            RequestBody::Ping
        );
        assert!(read_frame_v2(&mut reader).unwrap().is_none());
    }

    #[test]
    fn v2_u64_beyond_i64_matches_v1_strictness() {
        let over = (i64::MAX as u64) + 1;
        let request = Request {
            id: over,
            body: RequestBody::Ping,
            trace: None,
        };
        assert_eq!(
            encode_request_v2(&request).unwrap_err(),
            WireError::Unencodable("u64 exceeds i64 on the wire")
        );
        // A hostile frame carrying such a value is a schema error on
        // decode.
        let mut frame = encode_request_parts_v2(1, &RequestBody::Ping, None).unwrap();
        frame[5..13].copy_from_slice(&over.to_le_bytes());
        assert!(matches!(
            decode_request_v2(frame[4], &frame[5..]).unwrap_err(),
            WireError::Schema(_)
        ));
    }
}
