//! Property tests for the text preface and the response correlation
//! layer: preface lines round-trip exactly, malformed lines are typed
//! errors (never panics — the server parses every connection's first line
//! from an untrusted peer), and the router reassembles out-of-order
//! completion streams.

use camo_serve::client::{Completed, ResponseRouter};
use camo_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, Request,
    RequestBody, Response, ResponseBody, WireOutcome,
};
use proptest::prelude::*;

/// Message text drawn from characters the preface escapes (quote,
/// backslash, newline, tab) and plain ones, non-ASCII included.
fn arb_message() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', 'é', '→',
    ];
    prop::collection::vec(0usize..ALPHABET.len(), 0..40)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_preface_reply() -> impl Strategy<Value = Response> {
    (0u64..1_000_000, 0u32..4, arb_message(), 0u64..100_000).prop_map(|(id, kind, message, n)| {
        Response {
            id,
            body: match kind {
                0 => ResponseBody::HelloAck { version: n as u32 },
                1 => ResponseBody::Busy { retry_after_ms: n },
                2 => ResponseBody::Error {
                    code: ErrorCode::BadRequest,
                    message,
                },
                _ => ResponseBody::Error {
                    code: if n % 2 == 0 {
                        ErrorCode::Overloaded
                    } else {
                        ErrorCode::Internal
                    },
                    message,
                },
            },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `hello` of any id and version survives encode → decode unchanged.
    #[test]
    fn requests_round_trip(id in 0u64..=(i64::MAX as u64), version in 0u32..=u32::MAX) {
        let request = Request { id, body: RequestBody::Hello { version }, trace: None };
        let line = encode_request(&request).unwrap();
        prop_assert_eq!(decode_request(&line).unwrap(), request);
    }

    /// Preface replies round-trip, and re-encoding the decode reproduces
    /// the line byte for byte.
    #[test]
    fn responses_round_trip_bit_exactly(response in arb_preface_reply()) {
        let line = encode_response(&response).unwrap();
        let decoded = decode_response(&line).unwrap();
        prop_assert_eq!(&decoded, &response);
        prop_assert_eq!(encode_response(&decoded).unwrap(), line);
    }

    /// Truncating a valid line anywhere yields a typed error, never a
    /// panic and never a bogus success.
    #[test]
    fn truncated_frames_fail_cleanly(response in arb_preface_reply(), cut_frac in 0.0f64..1.0) {
        let line = encode_response(&response).unwrap();
        let mut cut = ((line.len() as f64 * cut_frac) as usize).min(line.len() - 1);
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(decode_response(&line[..cut]).is_err());
    }

    /// Byte-level mutations either decode to something (rarely) or fail
    /// with a typed error — the decoders never panic on corrupt lines.
    #[test]
    fn mutated_frames_never_panic(response in arb_preface_reply(), pos_frac in 0.0f64..1.0, byte in 0u32..256) {
        let mut bytes = encode_response(&response).unwrap().into_bytes();
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] = byte as u8;
        if let Ok(mutated) = String::from_utf8(bytes) {
            let _ = decode_response(&mutated);
            let _ = decode_request(&mutated);
        }
    }

    /// Random garbage lines never panic the parser.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(0u32..128, 0..200)) {
        let line: String = bytes.iter().filter_map(|&b| char::from_u32(b)).collect();
        let _ = decode_request(&line);
        let _ = decode_response(&line);
    }
}

/// The router reassembles a completion-ordered (scrambled) stream: sweep
/// cases interleave with other requests' results and arrive out of index
/// order, yet every request correlates back to its id with cases in order.
#[test]
fn router_correlates_out_of_order_completion() {
    let outcome = |tag: f64| WireOutcome {
        offsets: vec![1, 2],
        epe_per_point: vec![tag],
        pv_band: tag * 2.0,
        steps: 1,
    };
    let case = |id: u64, index: usize, total: usize, tag: f64| Response {
        id,
        body: ResponseBody::CaseOutcome {
            index,
            total,
            name: format!("c{index}"),
            outcome: outcome(tag),
        },
    };
    // Stream: sweep 7 (3 cases, indexes arriving 2,0,1) interleaved with
    // optimize 3, evaluation 5 and a busy 9 — completion order unrelated to
    // id order.
    let stream = vec![
        case(7, 2, 3, 72.0),
        Response {
            id: 5,
            body: ResponseBody::Evaluation {
                epe_per_point: vec![0.5],
                pv_band: 1.5,
            },
        },
        case(7, 0, 3, 70.0),
        Response {
            id: 9,
            body: ResponseBody::Busy { retry_after_ms: 25 },
        },
        Response {
            id: 3,
            body: ResponseBody::Outcome(outcome(30.0)),
        },
        case(7, 1, 3, 71.0),
    ];
    let mut router = ResponseRouter::new();
    let mut completion_order = Vec::new();
    for response in stream {
        if let Some(id) = router.accept(response).unwrap() {
            completion_order.push(id);
        }
    }
    assert_eq!(completion_order, vec![5, 9, 3, 7]);
    assert!(!router.has_partial());

    match router.take(7).unwrap() {
        Completed::Sweep(cases) => {
            let tags: Vec<f64> = cases
                .iter()
                .map(|c| match c {
                    ResponseBody::CaseOutcome { outcome, .. } => outcome.epe_per_point[0],
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(tags, vec![70.0, 71.0, 72.0], "cases ordered by index");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(matches!(
        router.take(9).unwrap(),
        Completed::Rejected { retry_after_ms: 25 }
    ));
    assert!(matches!(router.take(3).unwrap(), Completed::Single(_)));
    assert!(matches!(router.take(5).unwrap(), Completed::Single(_)));
    assert!(router.take(7).is_none(), "taken results are gone");
}

/// Duplicate case indexes and inconsistent totals are protocol errors, not
/// silent corruption.
#[test]
fn router_rejects_protocol_violations() {
    let outcome = WireOutcome {
        offsets: vec![],
        epe_per_point: vec![],
        pv_band: 0.0,
        steps: 0,
    };
    let case = |index: usize, total: usize| Response {
        id: 1,
        body: ResponseBody::CaseOutcome {
            index,
            total,
            name: "c".into(),
            outcome: outcome.clone(),
        },
    };
    let mut router = ResponseRouter::new();
    router.accept(case(0, 3)).unwrap();
    assert!(router.accept(case(0, 3)).is_err(), "duplicate index");
    let mut router = ResponseRouter::new();
    router.accept(case(0, 3)).unwrap();
    assert!(router.accept(case(1, 4)).is_err(), "total changed");
    let mut router = ResponseRouter::new();
    assert!(router.accept(case(5, 3)).is_err(), "index out of range");
}
