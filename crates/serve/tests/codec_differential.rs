//! Property tests for the binary frame codec: every request and response
//! kind must survive encode→decode as the identity, and the decode must
//! agree with the source **bit-exactly** — asserted by re-encoding it to
//! canonical bytes, which embed the raw `f64::to_bits` images (so `-0.0` vs
//! `0.0` and NaN payloads cannot hide behind `PartialEq`). Every f64 bit
//! pattern (NaN payloads, infinities, subnormals, `-0.0`) round-trips, and
//! truncating, bit-flipping or inventing a frame must always yield a typed
//! error or a clean reject, never a panic.

use camo_geometry::{Clip, Rect};
use camo_serve::stats::{KindLatency, LatencySnapshot, MetricsReport, ShardStatus};
use camo_serve::trace::{ShardTrace, SpanRecord, TraceReport};
use camo_serve::wire::{
    decode_request_v2, decode_response_v2, encode_request_v2, encode_response_v2, read_frame_v2,
    EngineKind, ErrorCode, FrameV2, JobSpec, Layer, LithoPreset, LithoSpec, Request, RequestBody,
    Response, ResponseBody, WireOutcome,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators (the clip/job/outcome ones mirror wire_properties.rs)
// ---------------------------------------------------------------------------

/// Characters the generated names draw from, quotes and backslashes
/// included.
const NAME_ALPHABET: &[char] = &[
    'a', 'b', 'k', 'Z', '0', '9', '_', ' ', '.', '-', '/', '"', '\\',
];

fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..NAME_ALPHABET.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| NAME_ALPHABET[i]).collect())
}

fn arb_clip() -> impl Strategy<Value = Clip> {
    (
        0usize..3,
        100i64..400,
        prop::collection::vec((0i64..8, 0i64..8, 1i64..8, 1i64..8), 1..4),
    )
        .prop_map(|(srafs, size, boxes)| {
            let mut clip = Clip::with_name(Rect::new(0, 0, 4000, 4000), "P");
            for (gx, gy, w, h) in &boxes {
                let x = 100 + gx * 450;
                let y = 100 + gy * 450;
                clip.add_target(Rect::new(x, y, x + w * 40, y + h * 40).to_polygon());
            }
            clip.add_target(Rect::new(3600 - size, 3600 - size, 3600, 3600).to_polygon());
            for s in 0..srafs {
                let x = 200 + 120 * s as i64;
                clip.add_sraf(Rect::new(x, 3800, x + 20, 3900));
            }
            clip
        })
}

fn arb_job() -> impl Strategy<Value = JobSpec> {
    (0u64..3, 0u32..2, 0u32..2, 0usize..4).prop_map(|(seed, engine, layer, steps)| JobSpec {
        litho: LithoSpec {
            preset: if seed % 2 == 0 {
                LithoPreset::Fast
            } else {
                LithoPreset::Default
            },
            pixel_size: if seed == 2 { Some(10) } else { None },
        },
        layer: if layer == 0 { Layer::Via } else { Layer::Metal },
        engine: if engine == 0 {
            EngineKind::Calibre
        } else {
            EngineKind::Camo { seed }
        },
        max_steps: if steps == 0 { None } else { Some(steps) },
    })
}

fn arb_outcome() -> impl Strategy<Value = WireOutcome> {
    (
        prop::collection::vec(-20i64..=20, 1..24),
        prop::collection::vec(-40.0f64..40.0, 1..24),
        0.0f64..1.0e7,
        0usize..16,
    )
        .prop_map(|(offsets, epe_per_point, pv_band, steps)| WireOutcome {
            offsets,
            epe_per_point,
            pv_band,
            steps,
        })
}

fn arb_latency() -> impl Strategy<Value = LatencySnapshot> {
    (
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
        // Nonzero entries only: the codec round-trips buckets verbatim,
        // and an all-positive vector can never be confused with the
        // snapshot layer's trailing-zero trimming.
        prop::collection::vec(1u64..1_000, 0..6),
    )
        .prop_map(|(count, p50_us, p99_us, max_us, buckets)| LatencySnapshot {
            count,
            p50_us,
            p99_us,
            max_us,
            buckets,
        })
}

fn arb_metrics() -> impl Strategy<Value = MetricsReport> {
    let shard = (0usize..8, prop::bool::ANY, prop::bool::ANY, 0usize..1000).prop_map(
        |(index, alive, benched, n)| ShardStatus {
            index,
            alive,
            benched,
            forwarded: n,
            respawns: n / 7,
            queue_depth: n % 13,
            in_flight: n % 5,
            in_flight_high_water: n % 29,
            completed: n * 3,
            busy_rejected: n % 11,
        },
    );
    let kind_latency =
        (arb_name(), arb_latency()).prop_map(|(kind, latency)| KindLatency { kind, latency });
    (
        (
            arb_name(),
            arb_name(),
            0usize..100,
            0usize..100,
            0usize..100,
        ),
        (
            0usize..100,
            0usize..100,
            0usize..100,
            0usize..100,
            0usize..100,
        ),
        prop::collection::vec(kind_latency, 0..3),
        prop::collection::vec(shard, 0..3),
    )
        .prop_map(|(a, b, latency, shards)| MetricsReport {
            role: a.0,
            simd_arch: a.1,
            queue_depth: a.2,
            queue_high_water: a.3,
            in_flight: a.4,
            in_flight_high_water: b.0,
            completed: b.1,
            busy_rejected: b.2,
            redispatched: b.3,
            respawns: b.4,
            latency: latency.clone(),
            stage_latency: latency,
            shards,
        })
}

fn arb_span() -> impl Strategy<Value = SpanRecord> {
    (1u64..1_000, arb_name(), 0u64..1_000_000, 0u64..1_000_000).prop_map(
        |(trace_id, stage, start_us, extent)| SpanRecord {
            trace_id,
            stage,
            start_us,
            end_us: start_us + extent,
        },
    )
}

fn arb_trace_report() -> impl Strategy<Value = TraceReport> {
    (
        arb_name(),
        0u64..1_000,
        prop::collection::vec(arb_span(), 0..4),
        prop::collection::vec(
            (
                0usize..4,
                0u64..100,
                prop::collection::vec(arb_span(), 0..3),
            ),
            0..2,
        ),
    )
        .prop_map(|(role, dropped, spans, shards)| TraceReport {
            role,
            dropped,
            spans,
            shards: shards
                .into_iter()
                .map(|(index, dropped, spans)| ShardTrace {
                    index,
                    dropped,
                    spans,
                })
                .collect(),
        })
}

/// Every request kind the protocol defines, selected by `kind`.
fn request_body(
    kind: u32,
    job: JobSpec,
    clip: Clip,
    name: String,
    bias: i64,
    n: u64,
) -> RequestBody {
    match kind {
        0 => RequestBody::Ping,
        1 => RequestBody::Optimize { job, clip },
        2 => RequestBody::Evaluate {
            litho: job.litho,
            layer: job.layer,
            bias,
            clip,
        },
        3 => RequestBody::Sweep {
            job,
            cases: vec![(name, clip.clone()), ("b".to_string(), clip)],
        },
        4 => RequestBody::Layout {
            litho: job.litho,
            params: camo_workloads::LayoutParams::smoke(),
            seed: n,
            tile_nm: 1500,
        },
        5 => RequestBody::Metrics,
        6 => RequestBody::Restart {
            shard: if n.is_multiple_of(2) {
                None
            } else {
                Some(n as usize)
            },
        },
        7 => RequestBody::Trace,
        8 => RequestBody::Shutdown,
        _ => RequestBody::Hello {
            version: 2 + (n % 3) as u32,
        },
    }
}

/// Every response kind the protocol defines, selected by `kind`.
fn response_body(
    kind: u32,
    outcome: WireOutcome,
    metrics: MetricsReport,
    trace: TraceReport,
    name: String,
    n: u64,
) -> ResponseBody {
    match kind {
        0 => ResponseBody::Pong,
        1 => ResponseBody::Outcome(outcome),
        2 => ResponseBody::CaseOutcome {
            index: (n % 3) as usize,
            total: 3 + (n % 2) as usize,
            name,
            outcome,
        },
        3 => ResponseBody::Evaluation {
            epe_per_point: outcome.epe_per_point,
            pv_band: outcome.pv_band,
        },
        4 => ResponseBody::LayoutReport {
            tiles: outcome.steps + 1,
            epe_per_point: outcome.epe_per_point,
            pv_band: outcome.pv_band,
        },
        5 => ResponseBody::Metrics(metrics),
        6 => ResponseBody::Trace(trace),
        7 => ResponseBody::Restarted {
            shards: vec![0, (n % 9) as usize],
        },
        8 => ResponseBody::Busy {
            retry_after_ms: n % 10_000,
        },
        9 => ResponseBody::Error {
            code: match n % 3 {
                0 => ErrorCode::BadRequest,
                1 => ErrorCode::Overloaded,
                _ => ErrorCode::Internal,
            },
            message: name,
        },
        10 => ResponseBody::ShuttingDown,
        _ => ResponseBody::HelloAck { version: 2 },
    }
}

// ---------------------------------------------------------------------------
// The canonical-bytes oracle
// ---------------------------------------------------------------------------

/// Splits a v2 frame into its opcode and payload, checking the length
/// header agrees with the actual byte count.
fn split_frame(frame: &[u8]) -> (u8, &[u8]) {
    assert!(frame.len() >= 5, "v2 frame shorter than its header");
    let declared = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    assert_eq!(declared, frame.len() - 5, "length header disagrees");
    (frame[4], &frame[5..])
}

/// encode→decode ≡ identity for one request, with the canonical bytes as
/// the bit-exactness fingerprint.
fn assert_request_differential(request: &Request) {
    let v2 = encode_request_v2(request).expect("encode");
    let (opcode, payload) = split_frame(&v2);
    let from_v2 = decode_request_v2(opcode, payload).expect("decode");
    assert_eq!(&from_v2, request, "the round-trip is the identity");

    // Canonical-bytes oracle: the decode re-encodes to the same bytes,
    // which embed raw f64 bit images — bit-exact by construction.
    assert_eq!(encode_request_v2(&from_v2).expect("re-encode"), v2);

    // The frame also survives the framing layer itself.
    let mut stream = std::io::Cursor::new(&v2);
    match read_frame_v2(&mut stream).expect("framed read") {
        Some(FrameV2::Frame {
            opcode: read_op,
            payload: read_payload,
        }) => {
            assert_eq!(read_op, opcode);
            assert_eq!(read_payload, payload);
        }
        other => panic!("framed read returned {other:?}"),
    }
}

/// The response-side mirror of [`assert_request_differential`].
fn assert_response_differential(response: &Response) {
    let v2 = encode_response_v2(response).expect("encode");
    let (opcode, payload) = split_frame(&v2);
    let from_v2 = decode_response_v2(opcode, payload).expect("decode");
    assert_eq!(&from_v2, response, "the round-trip is the identity");
    assert_eq!(encode_response_v2(&from_v2).expect("re-encode"), v2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request kind round-trips as the identity, bit-exactly.
    #[test]
    fn requests_differentially_agree(
        kind in 0u32..10,
        job in arb_job(),
        clip in arb_clip(),
        name in arb_name(),
        bias in -20i64..=20,
        id in 1u64..1_000_000,
        n in 0u64..1_000,
    ) {
        let body = request_body(kind, job, clip, name, bias, n);
        let trace = if n % 3 == 0 { Some(n + 1) } else { None };
        assert_request_differential(&Request { id, body, trace });
    }

    /// Every response kind round-trips as the identity, bit-exactly.
    #[test]
    fn responses_differentially_agree(
        kind in 0u32..12,
        outcome in arb_outcome(),
        metrics in arb_metrics(),
        trace in arb_trace_report(),
        name in arb_name(),
        id in 1u64..1_000_000,
        n in 0u64..1_000,
    ) {
        let body = response_body(kind, outcome, metrics, trace, name, n);
        assert_response_differential(&Response { id, body });
    }

    /// Frames carry every f64 bit pattern — NaN payloads, infinities,
    /// subnormals, `-0.0` — bit-exactly.
    #[test]
    fn v2_round_trips_arbitrary_f64_bits(
        bits in prop::collection::vec(0u64..=u64::MAX, 1..8),
        pv_bits in 0u64..=u64::MAX,
        id in 1u64..1_000_000,
    ) {
        let epe_per_point: Vec<f64> = bits.iter().copied().map(f64::from_bits).collect();
        let pv_band = f64::from_bits(pv_bits);
        let response = Response {
            id,
            body: ResponseBody::Evaluation { epe_per_point, pv_band },
        };
        let v2 = encode_response_v2(&response).unwrap();
        let (opcode, payload) = split_frame(&v2);
        let decoded = decode_response_v2(opcode, payload).unwrap();
        let ResponseBody::Evaluation { epe_per_point: got, pv_band: got_pv } = decoded.body else {
            panic!("decoded to a different kind");
        };
        prop_assert_eq!(
            got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            bits
        );
        prop_assert_eq!(got_pv.to_bits(), pv_bits);
    }

    /// Truncating a v2 frame anywhere is a typed error (payload level) or a
    /// clean dropped-partial (framing level) — never a panic, never a bogus
    /// success at full length.
    #[test]
    fn v2_truncations_fail_cleanly(
        kind in 0u32..10,
        job in arb_job(),
        clip in arb_clip(),
        cut_frac in 0.0f64..1.0,
    ) {
        let request = Request {
            id: 7,
            body: request_body(kind, job, clip, "t".into(), 3, 1),
            trace: Some(9),
        };
        let frame = encode_request_v2(&request).unwrap();
        let (opcode, payload) = split_frame(&frame);

        // Payload-level truncation: every strict prefix fails typed.
        let cut = ((payload.len() as f64 * cut_frac) as usize).min(payload.len().saturating_sub(1));
        if !payload.is_empty() {
            prop_assert!(decode_request_v2(opcode, &payload[..cut]).is_err());
        }

        // Framing-level truncation: a partial frame at EOF reads as None
        // (dropped), never a panic.
        let stream_cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        let mut stream = std::io::Cursor::new(&frame[..stream_cut]);
        prop_assert!(matches!(read_frame_v2(&mut stream), Ok(None)));
    }

    /// Bit-flipping any byte of a v2 frame never panics the framing or the
    /// decoders — corrupt frames decode to something or fail typed.
    #[test]
    fn v2_mutations_never_panic(
        outcome in arb_outcome(),
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let frame = encode_response_v2(&Response {
            id: 9,
            body: ResponseBody::Outcome(outcome),
        })
        .unwrap();
        let mut bytes = frame;
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        let mut stream = std::io::Cursor::new(&bytes);
        // A corrupted length header may declare garbage; the reader must
        // reject it (Oversized) or fail at EOF, and whatever payload does
        // frame out must hit the decoders without panicking.
        for _ in 0..4 {
            match read_frame_v2(&mut stream) {
                Ok(Some(FrameV2::Frame { opcode, payload })) => {
                    let _ = decode_request_v2(opcode, &payload);
                    let _ = decode_response_v2(opcode, &payload);
                }
                Ok(Some(FrameV2::Oversized { .. })) | Ok(None) | Err(_) => break,
            }
        }
    }

    /// Random byte soup never panics the v2 framing/decoders (the
    /// unstructured counterpart of the bit-flip property).
    #[test]
    fn v2_garbage_never_panics(raw in prop::collection::vec(0u32..256, 0..200)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let mut stream = std::io::Cursor::new(&bytes);
        for _ in 0..8 {
            match read_frame_v2(&mut stream) {
                Ok(Some(FrameV2::Frame { opcode, payload })) => {
                    let _ = decode_request_v2(opcode, &payload);
                    let _ = decode_response_v2(opcode, &payload);
                }
                Ok(Some(FrameV2::Oversized { .. })) | Ok(None) | Err(_) => break,
            }
        }
    }
}
