//! camo-trace: the serving tier's request-scoped tracing plane.
//!
//! A sampled request is assigned a **trace id** at admission; the id rides
//! the wire frame (`trace_id` field) from router to shard, and every hop
//! records typed [`SpanRecord`]s — admit, forward, shard-queue, plan,
//! context-fetch, the litho stages (rasterize, convolve, resist,
//! EPE, PV-band) and the response encode/write — into a lock-free
//! per-process ring buffer, the [`FlightRecorder`]. The recorder is a
//! *flight recorder*: it never blocks the request path, never allocates
//! after construction, and overwrites the oldest spans when full, so the
//! recent history of a misbehaving process is always pullable on demand via
//! the `trace` wire request (see `trace` in `docs/WIRE_PROTOCOL.md`).
//!
//! The litho pipeline itself stays clock-free (camo-lint `determinism`):
//! it only announces stage boundaries through the injected
//! [`camo_litho::trace::TraceSink`]; [`RecorderSink`] here is the serving
//! side of that seam and is the only place litho stage boundaries meet a
//! clock.
//!
//! Sampling (`--trace-sample N`: every Nth admitted request) keeps the
//! steady-state cost of the plane at a branch plus a counter increment for
//! sampled-out requests; `perf_snapshot` prints an overhead row proving it.

use crate::stats::{KindLatency, StageLatencies};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Spans a flight recorder holds before wrapping (per process).
pub const DEFAULT_RECORDER_CAPACITY: usize = 8192;

/// Every span type the serving tier records. The first group is recorded
/// directly by the router/server request path; the litho group arrives
/// through [`RecorderSink`]; encode/write are recorded by the connection
/// writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admission on the process that decoded the request, up to its
    /// hand-off (the server's queue push, the router's forward).
    Admit,
    /// Router: the write of the request's frame to its shard channel (a
    /// redispatch records another).
    Forward,
    /// Serving process queue: admission to the worker that pops it.
    ShardQueue,
    /// Planning the popped request into its tasks (context fetch included).
    Plan,
    /// `ContextCache` lookup (context build on a miss).
    ContextFetch,
    /// Litho: coverage rasterisation.
    Rasterize,
    /// Litho: aerial-image convolution.
    Convolve,
    /// Litho: resist threshold evaluation.
    Resist,
    /// Litho: EPE measurement.
    Epe,
    /// Litho: PV-band area.
    PvBand,
    /// Response serialisation on the connection writer.
    Encode,
    /// Socket write + flush of the encoded response.
    Write,
}

impl Stage {
    /// Every stage, in request-lifecycle order.
    pub const ALL: [Stage; 12] = [
        Stage::Admit,
        Stage::Forward,
        Stage::ShardQueue,
        Stage::Plan,
        Stage::ContextFetch,
        Stage::Rasterize,
        Stage::Convolve,
        Stage::Resist,
        Stage::Epe,
        Stage::PvBand,
        Stage::Encode,
        Stage::Write,
    ];

    /// The stable wire/export name of this stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::Forward => "forward",
            Stage::ShardQueue => "shard-queue",
            Stage::Plan => "plan",
            Stage::ContextFetch => "context-fetch",
            Stage::Rasterize => "rasterize",
            Stage::Convolve => "convolve",
            Stage::Resist => "resist",
            Stage::Epe => "epe",
            Stage::PvBand => "pv-band",
            Stage::Encode => "encode",
            Stage::Write => "write",
        }
    }

    /// Position in [`Self::ALL`] (the recorder's compact encoding).
    pub fn index(self) -> usize {
        // panic-ok: ALL enumerates every variant (asserted by the
        // stage_names_cover_the_full_request_lifecycle test).
        Self::ALL.iter().position(|s| *s == self).expect("in ALL")
    }

    /// The serving-tier stage a litho pipeline stage maps to.
    pub fn from_litho(stage: camo_litho::trace::Stage) -> Stage {
        use camo_litho::trace::Stage as L;
        match stage {
            L::Rasterize => Stage::Rasterize,
            L::Convolve => Stage::Convolve,
            L::Resist => Stage::Resist,
            L::Epe => Stage::Epe,
            L::PvBand => Stage::PvBand,
        }
    }
}

/// One recorded span, times in microseconds since the recorder's epoch
/// (process start order is irrelevant: a timeline is reconstructed per
/// process, and the Chrome export keys processes by `pid`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request's trace id (nonzero).
    pub trace_id: u64,
    /// Stage name (one of [`Stage::ALL`]'s names for spans this tier
    /// records; kept open as a string on the wire for third parties).
    pub stage: String,
    /// Span start, µs since the recording process's epoch.
    pub start_us: u64,
    /// Span end, µs since the recording process's epoch.
    pub end_us: u64,
}

/// One process's pullable trace state: its spans plus how many older spans
/// the ring has already overwritten or skipped under write contention.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcessSpans {
    /// Spans still resident in the ring, ordered by start time.
    pub spans: Vec<SpanRecord>,
    /// Spans lost to wraparound or slot contention since process start.
    pub dropped: u64,
}

/// A shard's spans inside a router's merged [`TraceReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTrace {
    /// Shard index (matches `MetricsReport.shards`).
    pub index: usize,
    /// Spans lost on that shard (wraparound/contention).
    pub dropped: u64,
    /// The shard's resident spans.
    pub spans: Vec<SpanRecord>,
}

/// The payload of a `trace` wire response: the answering process's spans,
/// plus — when the answering process is a router — every reachable shard's
/// spans, so one pull stitches a routed request's full timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// `"server"` or `"router"`.
    pub role: String,
    /// Spans lost on the answering process.
    pub dropped: u64,
    /// The answering process's resident spans.
    pub spans: Vec<SpanRecord>,
    /// Per-shard spans (routers only; empty for plain servers).
    pub shards: Vec<ShardTrace>,
}

/// One ring slot, guarded by a per-slot sequence word: even = stable,
/// odd = a writer is mid-update. Writers claim a slot with a CAS and give
/// up (dropping the span) rather than spin, so recording never blocks.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    stage: AtomicU64,
    start_us: AtomicU64,
    end_us: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            start_us: AtomicU64::new(0),
            end_us: AtomicU64::new(0),
        }
    }
}

/// The lock-free per-process ring buffer of recent spans.
///
/// Writers take a ticket from a monotone cursor and write the slot
/// `ticket % capacity` under its seqlock; a snapshot walks every slot and
/// keeps the consistent ones. Old spans are overwritten in arrival order —
/// the recorder holds the *recent* history, and `dropped` reports exactly
/// how much has been lost.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "a zero-capacity flight recorder records nothing"
        );
        Self {
            epoch: Instant::now(),
            cursor: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
        }
    }

    /// The instant µs offsets are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn offset_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records one completed span. Never blocks: a slot already claimed by
    /// another writer (only possible once the ring has wrapped mid-write)
    /// drops the span instead; its ticket still counts as recorded, so the
    /// snapshot's `dropped` includes it.
    pub fn record(&self, trace_id: u64, stage: Stage, start: Instant, end: Instant) {
        // relaxed-ok: the ticket only spreads writers across slots; slot
        // consistency is carried by the per-slot seqlock below.
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // relaxed-ok: a stale read only makes the CAS below fail.
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq % 2 == 1
            || slot
                .seq
                // relaxed-ok: failure ordering of the claim CAS; a failed
                // claim drops the span and touches no slot data.
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        // relaxed-ok: data stores are ordered by the Release publish of the
        // even sequence value below (seqlock protocol).
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        // relaxed-ok: seqlock-protected data store, see above.
        slot.stage.store(stage.index() as u64, Ordering::Relaxed);
        // relaxed-ok: seqlock-protected data store, see above.
        slot.start_us
            .store(self.offset_us(start), Ordering::Relaxed);
        // relaxed-ok: seqlock-protected data store, see above.
        slot.end_us.store(self.offset_us(end), Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Copies out every consistent resident span (ordered by start time)
    /// plus the count of recorded spans it does not hold: lost to
    /// wraparound or contention (exact once writers are idle), or still
    /// mid-write. Every ticket is either resident or dropped, so the count
    /// is at most the number of spans recorded.
    pub fn snapshot(&self) -> ProcessSpans {
        let mut spans = Vec::new();
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or a writer is mid-update
            }
            // relaxed-ok: seqlock-protected data loads; the fence plus the
            // unchanged sequence word below validate them.
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            // relaxed-ok: seqlock-protected data load, see above.
            let stage = slot.stage.load(Ordering::Relaxed);
            // relaxed-ok: seqlock-protected data load, see above.
            let start_us = slot.start_us.load(Ordering::Relaxed);
            // relaxed-ok: seqlock-protected data load, see above.
            let end_us = slot.end_us.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            // relaxed-ok: the Acquire fence above orders the data loads
            // before this validation read.
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn by a concurrent writer; skip
            }
            let Some(stage) = Stage::ALL.get(stage as usize) else {
                continue;
            };
            spans.push(SpanRecord {
                trace_id,
                stage: stage.name().to_string(),
                start_us,
                end_us,
            });
        }
        spans.sort_by_key(|s| (s.start_us, s.end_us));
        // relaxed-ok: reporting-only read of a monotone counter; every
        // resident span's ticket was taken before its Acquire-read publish.
        let written = self.cursor.load(Ordering::Relaxed);
        let dropped = written.saturating_sub(spans.len() as u64);
        ProcessSpans { spans, dropped }
    }
}

/// The per-process tracing front door: sampling decisions, trace-id
/// assignment, the [`FlightRecorder`], and the per-stage latency
/// histograms feeding the metrics plane.
#[derive(Debug)]
pub struct Tracer {
    /// Trace every `sample`-th admitted request; `0` disables tracing.
    sample: u64,
    admitted: AtomicU64,
    next_trace: AtomicU64,
    recorder: FlightRecorder,
    stages: StageLatencies,
}

impl Tracer {
    /// A tracer sampling every `sample`-th admitted request (0 = off),
    /// with the default recorder capacity.
    pub fn new(sample: u64) -> Self {
        Self::with_capacity(sample, DEFAULT_RECORDER_CAPACITY)
    }

    /// Like [`Self::new`] with an explicit ring capacity (tests).
    pub fn with_capacity(sample: u64, capacity: usize) -> Self {
        Self {
            sample,
            admitted: AtomicU64::new(0),
            next_trace: AtomicU64::new(0),
            recorder: FlightRecorder::new(capacity),
            stages: StageLatencies::new(),
        }
    }

    /// Whether any request can ever be traced.
    pub fn enabled(&self) -> bool {
        self.sample > 0
    }

    /// The sampling decision for a freshly admitted request that does not
    /// already carry a trace id: every `sample`-th admission gets a new
    /// id. This is the whole cost of the sampled-out path — one counter
    /// increment and a modulo.
    pub fn maybe_assign(&self) -> Option<u64> {
        if self.sample == 0 {
            return None;
        }
        // relaxed-ok: the admission counter only drives sampling cadence.
        let nth = self.admitted.fetch_add(1, Ordering::Relaxed);
        if !nth.is_multiple_of(self.sample) {
            return None;
        }
        // relaxed-ok: uniqueness needs atomicity only, not ordering.
        Some(self.next_trace.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Records one completed span for `trace_id` and feeds the per-stage
    /// latency histogram.
    pub fn record(&self, trace_id: u64, stage: Stage, start: Instant, end: Instant) {
        self.recorder.record(trace_id, stage, start, end);
        self.stages
            .record(stage, end.saturating_duration_since(start));
    }

    /// Convenience: records `stage` from `start` to now.
    pub fn record_since(&self, trace_id: u64, stage: Stage, start: Instant) {
        self.record(trace_id, stage, start, Instant::now());
    }

    /// Marks `trace_id` as the trace that litho stage spans emitted on the
    /// calling thread attribute to, until [`Self::clear_active`].
    pub fn set_active(&self, trace_id: u64) {
        ACTIVE.set(trace_id);
    }

    /// Clears the calling thread's active trace (its task finished).
    pub fn clear_active(&self) {
        self.set_active(0);
    }

    /// The calling thread's active trace id (0 = none).
    pub fn active(&self) -> u64 {
        ACTIVE.get()
    }

    /// The underlying recorder (epoch access, tests).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Per-stage latency snapshot for the metrics plane (stages with at
    /// least one span only).
    pub fn stage_latency(&self) -> Vec<KindLatency> {
        self.stages.snapshot()
    }

    /// This process's half of a `trace` response.
    pub fn report(&self, role: &str) -> TraceReport {
        let ProcessSpans { spans, dropped } = self.recorder.snapshot();
        TraceReport {
            role: role.to_string(),
            dropped,
            spans,
            shards: Vec::new(),
        }
    }
}

thread_local! {
    /// Trace id of the task this thread is running (0 = none): the bridge
    /// that attributes litho stage spans — emitted deep inside the
    /// clock-free pipeline — to the request that triggered them. Per
    /// thread, because the server's workers run different requests' tasks
    /// at once.
    static ACTIVE: Cell<u64> = const { Cell::new(0) };
    /// Per-thread stack pairing litho `stage_start`/`stage_end` callbacks.
    /// Guards in the pipeline guarantee LIFO bracketing per thread.
    static STAGE_STACK: RefCell<Vec<(usize, u64, Instant)>> = const { RefCell::new(Vec::new()) };
}

/// The serving side of the litho tracing seam: receives clock-free stage
/// boundaries from the pipeline, stamps them with real timestamps, and
/// records them under the calling thread's active trace id. Installed on every
/// simulator built by the server's `ContextCache` when tracing is enabled.
#[derive(Debug)]
pub struct RecorderSink {
    tracer: Arc<Tracer>,
}

impl RecorderSink {
    /// A sink recording into `tracer`'s flight recorder.
    pub fn new(tracer: Arc<Tracer>) -> Self {
        Self { tracer }
    }
}

impl camo_litho::trace::TraceSink for RecorderSink {
    fn stage_start(&self, stage: camo_litho::trace::Stage) {
        let trace = self.tracer.active();
        // The epoch stands in for "no timestamp" on untraced frames; the
        // matching `stage_end` discards them without reading the clock.
        let start = if trace == 0 {
            self.tracer.recorder().epoch()
        } else {
            Instant::now()
        };
        STAGE_STACK.with(|stack| {
            stack
                .borrow_mut()
                .push((Stage::from_litho(stage).index(), trace, start));
        });
    }

    fn stage_end(&self, stage: camo_litho::trace::Stage) {
        let expected = Stage::from_litho(stage).index();
        let frame = STAGE_STACK.with(|stack| stack.borrow_mut().pop());
        let Some((index, trace, start)) = frame else {
            return;
        };
        if trace == 0 || index != expected {
            return;
        }
        self.tracer.record_since(trace, Stage::ALL[index], start);
    }
}

/// Serialises a merged [`TraceReport`] as Chrome trace-event JSON
/// (`chrome://tracing` / Perfetto "JSON Array Format" with the
/// `traceEvents` wrapper). Each process is a `pid` row (0 = the answering
/// process, shard `i` = `i + 1`), each trace id a `tid`, and every span a
/// complete (`"ph":"X"`) event with µs timestamps.
pub fn chrome_trace_json(report: &TraceReport) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, event: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&event);
    };
    push(
        &mut out,
        &mut first,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_string(&report.role)
        ),
    );
    for (span, pid) in report.spans.iter().map(|s| (s, 0_u64)).chain(
        report
            .shards
            .iter()
            .flat_map(|sh| sh.spans.iter().map(move |s| (s, sh.index as u64 + 1))),
    ) {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\
                 \"tid\":{},\"args\":{{\"trace_id\":{}}}}}",
                json_string(&span.stage),
                span.start_us,
                span.end_us.saturating_sub(span.start_us),
                pid,
                span.trace_id,
                span.trace_id
            ),
        );
    }
    for shard in &report.shards {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"shard {}\"}}}}",
                shard.index as u64 + 1,
                shard.index
            ),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Minimal JSON string encoder for the export (roles and stage names are
/// ASCII; escape the characters that could break framing anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_litho::trace::TraceSink as _;
    use std::time::Duration;

    #[test]
    fn recorder_round_trips_spans_in_order() {
        let rec = FlightRecorder::new(16);
        let epoch = rec.epoch();
        rec.record(7, Stage::Admit, epoch, epoch + Duration::from_micros(3));
        rec.record(
            7,
            Stage::Encode,
            epoch + Duration::from_micros(10),
            epoch + Duration::from_micros(12),
        );
        let snap = rec.snapshot();
        assert_eq!(snap.dropped, 0);
        assert_eq!(
            snap.spans,
            vec![
                SpanRecord {
                    trace_id: 7,
                    stage: "admit".into(),
                    start_us: 0,
                    end_us: 3
                },
                SpanRecord {
                    trace_id: 7,
                    stage: "encode".into(),
                    start_us: 10,
                    end_us: 12
                },
            ]
        );
    }

    #[test]
    fn wraparound_under_concurrent_writers_keeps_consistent_recent_spans() {
        // Satellite: hammer a tiny ring from several threads so it wraps
        // hundreds of times, then check every surviving span is internally
        // consistent and the loss accounting matches the writes.
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 2_000;
        const CAPACITY: usize = 64;
        let rec = FlightRecorder::new(CAPACITY);
        let epoch = rec.epoch();
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        let trace = w * PER_WRITER + i + 1;
                        let start = epoch + Duration::from_micros(trace);
                        rec.record(
                            trace,
                            Stage::Convolve,
                            start,
                            start + Duration::from_micros(5),
                        );
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert!(snap.spans.len() <= CAPACITY);
        assert!(!snap.spans.is_empty());
        for span in &snap.spans {
            // A torn slot would pair one writer's trace id with another's
            // timestamps; the seqlock must have filtered those out.
            assert_eq!(span.stage, "convolve");
            assert!(span.trace_id >= 1 && span.trace_id <= WRITERS * PER_WRITER);
            assert_eq!(span.start_us, span.trace_id);
            assert_eq!(span.end_us, span.start_us + 5);
        }
        // Everything written but not resident is accounted as dropped.
        let written = WRITERS * PER_WRITER;
        assert!(snap.dropped >= written - snap.spans.len() as u64 - CAPACITY as u64);
        assert!(snap.dropped < written);
    }

    #[test]
    fn sampling_traces_every_nth_admission_and_zero_disables() {
        let t = Tracer::with_capacity(3, 16);
        let decisions: Vec<Option<u64>> = (0..7).map(|_| t.maybe_assign()).collect();
        assert_eq!(
            decisions,
            vec![Some(1), None, None, Some(2), None, None, Some(3)]
        );
        let off = Tracer::with_capacity(0, 16);
        assert!(!off.enabled());
        assert_eq!(off.maybe_assign(), None);
    }

    #[test]
    fn recorder_sink_attributes_stages_to_the_active_trace_only() {
        let tracer = Arc::new(Tracer::with_capacity(1, 64));
        let sink = RecorderSink::new(Arc::clone(&tracer));
        // Inactive: boundaries are discarded without recording.
        sink.stage_start(camo_litho::trace::Stage::Rasterize);
        sink.stage_end(camo_litho::trace::Stage::Rasterize);
        assert!(tracer.recorder().snapshot().spans.is_empty());
        // Active: nested stages record under the active id.
        tracer.set_active(42);
        sink.stage_start(camo_litho::trace::Stage::Epe);
        sink.stage_start(camo_litho::trace::Stage::Convolve);
        sink.stage_end(camo_litho::trace::Stage::Convolve);
        sink.stage_end(camo_litho::trace::Stage::Epe);
        tracer.clear_active();
        let spans = tracer.recorder().snapshot().spans;
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.trace_id == 42));
        let stages: Vec<&str> = spans.iter().map(|s| s.stage.as_str()).collect();
        assert!(stages.contains(&"convolve") && stages.contains(&"epe"));
        // The per-stage metrics histograms saw both spans too.
        let latency = tracer.stage_latency();
        assert!(latency.iter().any(|k| k.kind == "convolve"));
        assert!(latency.iter().any(|k| k.kind == "epe"));

        // The active id belongs to the thread: two threads running
        // different traces at once each record only their own spans,
        // interleaved stage by stage through one rendezvous.
        let tracer = Arc::new(Tracer::with_capacity(1, 64));
        let sink = RecorderSink::new(Arc::clone(&tracer));
        let rendezvous = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for id in [7_u64, 9] {
                let (tracer, sink, rendezvous) = (&tracer, &sink, &rendezvous);
                s.spawn(move || {
                    tracer.set_active(id);
                    rendezvous.wait();
                    for stage in [
                        camo_litho::trace::Stage::Rasterize,
                        camo_litho::trace::Stage::Resist,
                    ] {
                        sink.stage_start(stage);
                        rendezvous.wait();
                        sink.stage_end(stage);
                        rendezvous.wait();
                    }
                    tracer.clear_active();
                });
            }
        });
        assert_eq!(tracer.active(), 0, "other threads' ids never leak here");
        let spans = tracer.recorder().snapshot().spans;
        for id in [7_u64, 9] {
            let mut stages: Vec<&str> = spans
                .iter()
                .filter(|s| s.trace_id == id)
                .map(|s| s.stage.as_str())
                .collect();
            stages.sort_unstable();
            assert_eq!(stages, ["rasterize", "resist"], "trace {id}: {spans:?}");
        }
        assert_eq!(spans.len(), 4, "{spans:?}");
    }

    #[test]
    fn chrome_export_contains_every_span_and_balanced_json() {
        let report = TraceReport {
            role: "router".into(),
            dropped: 0,
            spans: vec![SpanRecord {
                trace_id: 1,
                stage: "admit".into(),
                start_us: 5,
                end_us: 9,
            }],
            shards: vec![ShardTrace {
                index: 0,
                dropped: 0,
                spans: vec![SpanRecord {
                    trace_id: 1,
                    stage: "convolve".into(),
                    start_us: 11,
                    end_us: 40,
                }],
            }],
        };
        let json = chrome_trace_json(&report);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"admit\""));
        assert!(json.contains("\"name\":\"convolve\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":29"));
        assert!(json.contains("\"pid\":1"));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn stage_names_cover_the_full_request_lifecycle() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "admit",
                "forward",
                "shard-queue",
                "plan",
                "context-fetch",
                "rasterize",
                "convolve",
                "resist",
                "epe",
                "pv-band",
                "encode",
                "write"
            ]
        );
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
    }
}
