//! End-to-end server tests: results over TCP are **bit-identical** to
//! direct `camo-runtime` calls, backpressure is a typed rejection, hostile
//! frames never kill a connection, a connection that does not open with
//! the `hello` preface is refused and closed, and shutdown is graceful.

use camo_geometry::{Clip, Rect};
use camo_litho::LithoSimulator;
use camo_serve::client::{collect_responses, Client, ClientError, Completed};
use camo_serve::exec::{evaluate_mask, run_layout, run_optimize, run_sweep};
use camo_serve::server::{serve, ServerConfig};
use camo_serve::wire::{
    decode_response, decode_response_v2, encode_request, encode_request_parts_v2, read_frame,
    read_frame_v2, EngineKind, ErrorCode, Frame, FrameV2, JobSpec, Layer, LithoSpec, Opcode,
    Request, RequestBody, Response, ResponseBody, WireOutcome, MAX_FRAME_V2,
};
use camo_workloads::{via_test_set, LayoutParams};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn test_clip(offset: i64) -> Clip {
    let mut clip = Clip::with_name(Rect::new(0, 0, 900, 900), format!("E{offset}"));
    let x = 340 + offset * 25;
    clip.add_target(Rect::new(x, 395, x + 70, 465).to_polygon());
    clip
}

fn job(max_steps: usize) -> JobSpec {
    JobSpec {
        litho: LithoSpec::fast(),
        layer: Layer::Via,
        engine: EngineKind::Calibre,
        max_steps: Some(max_steps),
    }
}

fn assert_outcome_matches(wire: &WireOutcome, offline: &camo_baselines::OpcOutcome, what: &str) {
    assert_eq!(wire.offsets, offline.mask.offsets(), "{what}: offsets");
    assert_eq!(wire.steps, offline.steps, "{what}: steps");
    assert_eq!(
        wire.epe_per_point.len(),
        offline.result.epe.per_point.len(),
        "{what}: epe arity"
    );
    for (i, (a, b)) in wire
        .epe_per_point
        .iter()
        .zip(&offline.result.epe.per_point)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: epe[{i}] bits");
    }
    assert_eq!(
        wire.pv_band.to_bits(),
        offline.result.pv_band.to_bits(),
        "{what}: pv band bits"
    );
}

/// The acceptance-criteria test: optimize / evaluate / sweep / layout
/// requests served over TCP match direct `camo-runtime` calls bit for bit,
/// at 1 and 2 worker threads. The sweep has more cases and the layout more
/// tiles than there are workers, so at 2 threads their tasks spread over
/// both workers and the last one to finish answers.
#[test]
fn served_results_are_bit_identical_to_offline_runs() {
    for threads in [1usize, 2] {
        let handle = serve(ServerConfig {
            threads,
            ..ServerConfig::default()
        })
        .expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");

        let job = job(3);
        let clips: Vec<Clip> = (0..3).map(test_clip).collect();
        let sweep_cases: Vec<(String, Clip)> = via_test_set()
            .iter()
            .take(threads + 2)
            .map(|c| (c.clip.name().to_string(), c.clip.clone()))
            .collect();
        let layout_params = LayoutParams::smoke();
        let sim = LithoSimulator::new(job.litho.to_config());
        let offline_layout = run_layout(&layout_params, 4242, 1500, &sim, 1);
        assert!(
            offline_layout.tiles > threads,
            "the layout must have more tiles ({}) than workers",
            offline_layout.tiles
        );

        // Send everything before reading anything, so the workers see a
        // backlog: requests queue behind each other while sweep cases and
        // layout tiles are taken by whichever worker is idle.
        let mut ids = Vec::new();
        for clip in &clips {
            ids.push(
                client
                    .send(RequestBody::Optimize {
                        job: job.clone(),
                        clip: clip.clone(),
                    })
                    .unwrap(),
            );
        }
        let eval_id = client
            .send(RequestBody::Evaluate {
                litho: job.litho.clone(),
                layer: Layer::Via,
                bias: 3,
                clip: clips[0].clone(),
            })
            .unwrap();
        let sweep_id = client
            .send(RequestBody::Sweep {
                job: job.clone(),
                cases: sweep_cases.clone(),
            })
            .unwrap();
        let layout_id = client
            .send(RequestBody::Layout {
                litho: job.litho.clone(),
                params: layout_params.clone(),
                seed: 4242,
                tile_nm: 1500,
            })
            .unwrap();

        let mut all_ids = ids.clone();
        all_ids.extend([eval_id, sweep_id, layout_id]);
        let mut results = collect_responses(&mut client, &all_ids).expect("responses");

        // Offline truth, built from the same specs on a fresh simulator.
        let offline_opt = run_optimize(&job, &clips, &sim, 1);
        for (i, id) in ids.iter().enumerate() {
            match results.remove(id).expect("optimize result") {
                Completed::Single(ResponseBody::Outcome(wire)) => {
                    assert_outcome_matches(&wire, &offline_opt[i], &format!("optimize {i}"));
                }
                other => panic!("unexpected optimize completion: {other:?}"),
            }
        }

        let offline_eval = sim.evaluate(&evaluate_mask(Layer::Via, 3, &clips[0]));
        match results.remove(&eval_id).expect("evaluate result") {
            Completed::Single(ResponseBody::Evaluation {
                epe_per_point,
                pv_band,
            }) => {
                for (a, b) in epe_per_point.iter().zip(&offline_eval.epe.per_point) {
                    assert_eq!(a.to_bits(), b.to_bits(), "evaluation epe bits");
                }
                assert_eq!(pv_band.to_bits(), offline_eval.pv_band.to_bits());
            }
            other => panic!("unexpected evaluate completion: {other:?}"),
        }

        let offline_sweep = run_sweep(&job, &sweep_cases, &sim, 1);
        match results.remove(&sweep_id).expect("sweep result") {
            Completed::Sweep(cases) => {
                assert_eq!(cases.len(), offline_sweep.len());
                for (body, (name, outcome)) in cases.iter().zip(&offline_sweep) {
                    match body {
                        ResponseBody::CaseOutcome {
                            name: got_name,
                            outcome: got,
                            ..
                        } => {
                            assert_eq!(got_name, name);
                            assert_outcome_matches(got, outcome, name);
                        }
                        other => panic!("unexpected sweep body: {other:?}"),
                    }
                }
            }
            other => panic!("unexpected sweep completion: {other:?}"),
        }

        match results.remove(&layout_id).expect("layout result") {
            Completed::Single(ResponseBody::LayoutReport {
                tiles,
                epe_per_point,
                pv_band,
            }) => {
                assert_eq!(tiles, offline_layout.tiles);
                assert_eq!(epe_per_point.len(), offline_layout.epe.per_point.len());
                for (a, b) in epe_per_point.iter().zip(&offline_layout.epe.per_point) {
                    assert_eq!(a.to_bits(), b.to_bits(), "layout epe bits");
                }
                assert_eq!(pv_band.to_bits(), offline_layout.pv_band.to_bits());
            }
            other => panic!("unexpected layout completion: {other:?}"),
        }

        let report = handle.shutdown();
        assert!(report.completed >= all_ids.len());
        assert_eq!(report.busy_rejected, 0, "no backpressure in this scenario");
    }
}

/// The CAMO engine serves deterministically too: same spec, same bits.
#[test]
fn camo_engine_serves_bit_identically() {
    let handle = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let job = JobSpec {
        engine: EngineKind::Camo { seed: 7 },
        ..job(2)
    };
    let clip = test_clip(1);
    let id = client
        .send(RequestBody::Optimize {
            job: job.clone(),
            clip: clip.clone(),
        })
        .unwrap();
    let mut results = collect_responses(&mut client, &[id]).expect("responses");
    let sim = LithoSimulator::new(job.litho.to_config());
    let offline = &run_optimize(&job, std::slice::from_ref(&clip), &sim, 1)[0];
    match results.remove(&id).unwrap() {
        Completed::Single(ResponseBody::Outcome(wire)) => {
            assert_outcome_matches(&wire, offline, "camo optimize");
        }
        other => panic!("unexpected completion: {other:?}"),
    }
    handle.shutdown();
}

/// A saturated queue answers a typed `busy` rejection carrying the retry
/// hint — it neither blocks the reader nor drops the request silently.
#[test]
fn saturated_queue_returns_typed_backpressure() {
    // No worker: the queue can only fill, so saturation is
    // deterministic.
    let handle = serve(ServerConfig {
        queue_depth: 2,
        threads: 0,
        retry_after_ms: 123,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let job = job(1);
    let mut ids = Vec::new();
    for i in 0..4 {
        ids.push(
            client
                .send(RequestBody::Optimize {
                    job: job.clone(),
                    clip: test_clip(i),
                })
                .unwrap(),
        );
    }
    // The first two occupy the queue; the remaining two must be rejected
    // with the configured retry hint.
    let rejected = collect_responses(&mut client, &ids[2..]).expect("rejections");
    for id in &ids[2..] {
        match rejected[id] {
            Completed::Rejected { retry_after_ms } => assert_eq!(retry_after_ms, 123),
            ref other => panic!("expected busy, got {other:?}"),
        }
    }
    let report = handle.shutdown();
    assert_eq!(report.busy_rejected, 2);
}

/// Opens a raw connection, sends its `hello` preface line and returns the
/// stream (for writing) plus a reader positioned after the `hello_ack`.
fn raw_v2_connection(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let hello = encode_request(&Request {
        id: 1,
        body: RequestBody::Hello { version: 2 },
        trace: None,
    })
    .unwrap();
    raw.write_all(format!("{hello}\n").as_bytes()).unwrap();
    match read_frame(&mut reader).unwrap() {
        Some(Frame::Line(line)) => assert!(matches!(
            decode_response(&line).unwrap().body,
            ResponseBody::HelloAck { version: 2 }
        )),
        other => panic!("expected a hello_ack line, got {other:?}"),
    }
    (raw, reader)
}

/// Reads one binary response frame from a raw connection.
fn recv_raw(reader: &mut BufReader<TcpStream>) -> Response {
    match read_frame_v2(reader).unwrap() {
        Some(FrameV2::Frame { opcode, payload }) => decode_response_v2(opcode, &payload).unwrap(),
        other => panic!("expected a response frame, got {other:?}"),
    }
}

/// Hostile binary frames after the preface (an unknown opcode, a truncated
/// payload) produce typed errors and leave the connection usable; an
/// oversized length header, which cannot be re-framed, earns one typed
/// error and closes the connection.
#[test]
fn malformed_frames_get_typed_errors_and_connection_survives() {
    let handle = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Reach under the typed client to inject hostile bytes.
    let (mut raw, mut reader) = raw_v2_connection(handle.addr());
    raw.write_all(&[4, 0, 0, 0, 0x7F, 1, 2, 3, 4]).unwrap();
    let optimize = RequestBody::Optimize {
        job: job(1),
        clip: test_clip(0),
    };
    let full = encode_request_parts_v2(5, &optimize, None).unwrap();
    let cut = &full[5..full.len() - 8];
    raw.write_all(&(cut.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&[full[4]]).unwrap();
    raw.write_all(cut).unwrap();
    raw.write_all(&encode_request_parts_v2(6, &RequestBody::Ping, None).unwrap())
        .unwrap();
    let mut errors = 0;
    loop {
        let response = recv_raw(&mut reader);
        match response.body {
            ResponseBody::Error { .. } => errors += 1,
            ResponseBody::Pong => {
                assert_eq!(response.id, 6);
                break;
            }
            other => panic!("unexpected body {other:?}"),
        }
    }
    assert_eq!(errors, 2, "each hostile frame earns one typed error");

    raw.write_all(&(MAX_FRAME_V2 as u32 + 1).to_le_bytes())
        .unwrap();
    raw.write_all(&[Opcode::Ping as u8]).unwrap();
    assert!(matches!(
        recv_raw(&mut reader).body,
        ResponseBody::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    assert!(
        read_frame_v2(&mut reader).unwrap().is_none(),
        "an oversized header closes the connection"
    );

    // The typed client on its own connection is unaffected throughout.
    let id = client.send(RequestBody::Ping).unwrap();
    let pong = client.recv().unwrap().unwrap();
    assert_eq!(pong.id, id);
    assert!(matches!(pong.body, ResponseBody::Pong));
    handle.shutdown();
}

/// A connection whose first line is anything but a `hello` naming version
/// 2 — a `ping` request line, or a `hello` for version 3 — gets one text
/// `bad_request` line, then EOF.
#[test]
fn first_lines_other_than_hello_v2_are_refused_and_closed() {
    let handle = serve(ServerConfig::default()).expect("bind");
    for first_line in [
        r#"{"id":1,"type":"ping"}"#,
        r#"{"id":1,"type":"hello","version":3}"#,
    ] {
        let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        raw.write_all(format!("{first_line}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(raw);
        let Ok(Some(Frame::Line(line))) = read_frame(&mut reader) else {
            panic!("{first_line}: expected one text reply line");
        };
        let reply = decode_response(&line).unwrap().body;
        assert!(
            matches!(
                reply,
                ResponseBody::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "{first_line}: {reply:?}"
        );
        let mut rest = Vec::new();
        reader
            .read_to_end(&mut rest)
            .expect("the server closes the connection");
        assert!(rest.is_empty(), "{first_line}: nothing follows the refusal");
    }
    handle.shutdown();
}

/// The connection cap turns extra connections away: the over-cap
/// connection's preface is answered with a typed `busy` carrying the
/// retry hint, so `Client::connect` fails with it.
#[test]
fn connection_cap_rejects_extra_connections() {
    let handle = serve(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut first = Client::connect(handle.addr()).expect("connect");
    let id = first.send(RequestBody::Ping).unwrap();
    assert!(matches!(
        first.recv().unwrap().unwrap(),
        Response {
            id: got,
            body: ResponseBody::Pong,
        } if got == id
    ));
    match Client::connect(handle.addr()).map(|_| ()) {
        Err(ClientError::Refused(body)) => assert!(
            matches!(
                *body,
                ResponseBody::Busy { retry_after_ms }
                    if retry_after_ms == ServerConfig::default().retry_after_ms
            ),
            "expected a typed busy carrying the retry hint, got {body:?}"
        ),
        other => panic!("an over-cap connection must be refused with busy, got {other:?}"),
    }
    handle.shutdown();
}

/// A client `shutdown` request drains the server: the acknowledgement
/// arrives, the connection closes, and the handle's final report counts the work.
#[test]
fn client_shutdown_request_drains_and_closes() {
    let handle = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let work_id = client
        .send(RequestBody::Evaluate {
            litho: LithoSpec::fast(),
            layer: Layer::Via,
            bias: 2,
            clip: test_clip(0),
        })
        .unwrap();
    let shutdown_id = client.send(RequestBody::Shutdown).unwrap();
    let mut saw_work = false;
    let mut saw_ack = false;
    while let Some(response) = client.recv().expect("stream") {
        if response.id == work_id {
            assert!(matches!(response.body, ResponseBody::Evaluation { .. }));
            saw_work = true;
        } else if response.id == shutdown_id {
            assert!(matches!(response.body, ResponseBody::ShuttingDown));
            saw_ack = true;
        }
    }
    assert!(saw_ack, "shutdown must be acknowledged");
    assert!(
        saw_work,
        "work queued before shutdown must still be answered"
    );
    handle.wait_for_shutdown_request();
    let report = handle.shutdown();
    assert!(report.completed >= 1);
}

/// The `metrics` request reports a plain server's own state: role,
/// completed/latency evidence for work it served, no shard rows — and is
/// answered inline even though it never touches the request queue. A sweep
/// with more cases than workers runs as several tasks, yet counts as one
/// request everywhere: in `completed`, `in_flight` and the queue gauges.
#[test]
fn metrics_request_reports_server_state() {
    let threads = 2;
    let handle = serve(ServerConfig {
        threads,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let job = job(1);
    let mut ids: Vec<u64> = (0..3)
        .map(|i| {
            client
                .send(RequestBody::Optimize {
                    job: job.clone(),
                    clip: test_clip(i),
                })
                .unwrap()
        })
        .collect();
    let cases: Vec<(String, Clip)> = (0..threads as i64 + 3)
        .map(|i| (format!("case{i}"), test_clip(i)))
        .collect();
    let sweep_id = client
        .send(RequestBody::Sweep {
            job: job.clone(),
            cases: cases.clone(),
        })
        .unwrap();
    ids.push(sweep_id);
    let mut results = collect_responses(&mut client, &ids).expect("responses");
    match results.remove(&sweep_id) {
        Some(Completed::Sweep(frames)) => assert_eq!(frames.len(), cases.len()),
        other => panic!("unexpected sweep completion: {other:?}"),
    }
    assert!(results
        .values()
        .all(|c| matches!(c, Completed::Single(ResponseBody::Outcome(_)))));

    let metrics_id = client.send(RequestBody::Metrics).unwrap();
    let report = loop {
        let response = client.recv().expect("stream").expect("open");
        if response.id == metrics_id {
            match response.body {
                ResponseBody::Metrics(report) => break report,
                other => panic!("unexpected metrics reply: {other:?}"),
            }
        }
    };
    assert_eq!(report.role, "server");
    assert_eq!(
        report.completed,
        ids.len(),
        "requests, not tasks: {report:?}"
    );
    assert_eq!(report.in_flight, 0, "{report:?}");
    assert!(
        (1..=ids.len()).contains(&report.in_flight_high_water),
        "{report:?}"
    );
    assert!(report.queue_high_water <= ids.len(), "{report:?}");
    assert!(report.shards.is_empty(), "a server has no shard rows");
    assert_eq!(report.respawns, 0);
    let optimize = report
        .latency
        .iter()
        .find(|k| k.kind == "optimize")
        .expect("optimize latency row");
    assert!(optimize.latency.count >= 3, "{optimize:?}");
    assert!(
        optimize.latency.p50_us <= optimize.latency.p99_us,
        "{optimize:?}"
    );
    handle.shutdown();
}
