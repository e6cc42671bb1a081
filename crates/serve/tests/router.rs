//! Router-tier end-to-end tests: results through `router + N shards` are
//! **bit-identical** to direct single-process serving and to offline
//! `camo-runtime` calls — including after a shard is killed mid-stream —
//! and the router's failure handling (malformed backend frames, hung
//! shards, fingerprint affinity, `busy` propagation) behaves as specified.
//!
//! Real-shard tests spawn the actual `serve` binary through
//! [`camo_serve::ShardSet`] (`CARGO_BIN_EXE_serve`); edge-case tests stand
//! up *fake* shards — bare TCP listeners speaking exactly as much protocol
//! as the scenario needs — next to an in-process real server.

use camo_geometry::{Clip, Rect};
use camo_litho::LithoSimulator;
use camo_serve::client::{collect_responses, Client, Completed};
use camo_serve::exec::{evaluate_mask, run_layout, run_optimize, run_sweep};
use camo_serve::router::{route, route_spawned, shard_preference, RouterConfig};
use camo_serve::shard::{ShardSet, ShardSpec};
use camo_serve::supervise::RespawnPolicy;
use camo_serve::wire::{
    decode_request, encode_response, read_frame_v2, EngineKind, FrameV2, JobSpec, Layer, LithoSpec,
    Opcode, RequestBody, Response, ResponseBody, WireOutcome,
};
use camo_serve::{serve, ServerConfig};
use camo_workloads::{via_test_set, LayoutParams};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

fn test_clip(offset: i64) -> Clip {
    let mut clip = Clip::with_name(Rect::new(0, 0, 900, 900), format!("R{offset}"));
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

fn spawn_shards(count: usize) -> ShardSet {
    let mut spec = ShardSpec::new(env!("CARGO_BIN_EXE_serve"));
    spec.args = vec!["--threads".into(), "1".into()];
    ShardSet::spawn(&spec, count).expect("spawn shard processes")
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

/// The acceptance-criteria test: all four request kinds routed through a
/// router over two real shard processes match offline runs bit for bit.
#[test]
fn routed_results_are_bit_identical_to_offline_runs() {
    let handle = route_spawned(RouterConfig::default(), spawn_shards(2)).expect("start router");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let job = job(3);
    let clips: Vec<Clip> = (0..3).map(test_clip).collect();
    let sweep_cases: Vec<(String, Clip)> = via_test_set()
        .iter()
        .take(2)
        .map(|c| (c.clip.name().to_string(), c.clip.clone()))
        .collect();
    let layout_params = LayoutParams::smoke();

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

    let sim = LithoSimulator::new(job.litho.to_config());
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
    let offline_layout = run_layout(&layout_params, 4242, 1500, &sim, 1);
    match results.remove(&layout_id).expect("layout result") {
        Completed::Single(ResponseBody::LayoutReport {
            tiles,
            epe_per_point,
            pv_band,
        }) => {
            assert_eq!(tiles, offline_layout.tiles);
            for (a, b) in epe_per_point.iter().zip(&offline_layout.epe.per_point) {
                assert_eq!(a.to_bits(), b.to_bits(), "layout epe bits");
            }
            assert_eq!(pv_band.to_bits(), offline_layout.pv_band.to_bits());
        }
        other => panic!("unexpected layout completion: {other:?}"),
    }

    let report = handle.shutdown();
    assert_eq!(report.busy_rejected, 0, "no backpressure in this scenario");
    assert!(report.completed >= all_ids.len());
}

/// Killing a shard mid-stream redispatches its in-flight requests to the
/// surviving shard, and every response — pre- and post-kill — stays
/// bit-identical to the offline run. A breaker threshold of 1 benches the
/// shard on its first death, so redispatch (not supervised respawn) is the
/// mechanism under test and the end-state assertions stay deterministic;
/// the chaos suite covers the respawn path.
#[test]
fn killing_a_shard_mid_stream_stays_bit_identical() {
    let config = RouterConfig {
        respawn: RespawnPolicy {
            breaker_failures: 1,
            ..RespawnPolicy::default()
        },
        ..RouterConfig::default()
    };
    // Each request is answered as soon as its own task finishes, so the
    // first response leaves the shard while the other nine still wait in
    // its queue.
    let handle = route_spawned(config, spawn_shards(2)).expect("start router");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Everything under one configuration lands on one shard (affinity), so
    // killing that shard strands the whole remaining stream on it.
    let job = job(6);
    let doomed = shard_preference(job.litho.to_config().fingerprint(), 2)[0];
    let clips: Vec<Clip> = (0..10).map(test_clip).collect();
    let ids: Vec<u64> = clips
        .iter()
        .map(|clip| {
            client
                .send(RequestBody::Optimize {
                    job: job.clone(),
                    clip: clip.clone(),
                })
                .unwrap()
        })
        .collect();

    // Wait until work demonstrably started on the doomed shard, then kill
    // it out from under the rest of the stream.
    let first = client.recv().expect("first response").expect("not eof");
    handle.kill_shard(doomed).expect("kill shard");

    let mut outstanding: Vec<u64> = ids.iter().copied().filter(|&id| id != first.id).collect();
    let mut results = collect_responses(&mut client, &outstanding).expect("responses");
    outstanding.push(first.id);
    // Fold the pre-kill response back in.
    let sim = LithoSimulator::new(job.litho.to_config());
    let offline = run_optimize(&job, &clips, &sim, 1);
    for (i, id) in ids.iter().enumerate() {
        let wire = if *id == first.id {
            match &first.body {
                ResponseBody::Outcome(wire) => wire.clone(),
                other => panic!("unexpected first response: {other:?}"),
            }
        } else {
            match results.remove(id).expect("post-kill result") {
                Completed::Single(ResponseBody::Outcome(wire)) => wire,
                other => panic!("request {i} completed as {other:?} after the kill"),
            }
        };
        assert_outcome_matches(&wire, &offline[i], &format!("optimize {i}"));
    }

    let report = handle.shutdown();
    let doomed_status = &report.shards[doomed];
    assert!(
        !doomed_status.alive,
        "the killed shard must stay dead (benched on first death)"
    );
    assert!(
        doomed_status.benched,
        "a 1-failure breaker benches the shard immediately"
    );
    assert_eq!(
        doomed_status.respawns, 0,
        "a benched shard is never respawned"
    );
    assert!(
        report.redispatched > 0,
        "in-flight requests must have moved to the survivor"
    );
    assert!(
        report.shards[1 - doomed].forwarded >= report.redispatched,
        "redispatches land on the survivor: {report:?}"
    );
}

/// A fake shard: accepts the router's channel and runs `script` over it.
/// Returns the listener's address.
fn fake_shard(script: impl FnOnce(TcpStream) + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().expect("fake addr");
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            script(stream);
        }
    });
    addr
}

/// A fake shard's side of the `hello` preface: acks the router's hello and
/// returns a reader positioned at the first binary frame.
fn ack_hello(stream: &TcpStream) -> BufReader<TcpStream> {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello line");
    let hello = decode_request(line.trim_end()).expect("a hello preface");
    let ack = encode_response(&Response {
        id: hello.id,
        body: ResponseBody::HelloAck { version: 2 },
    })
    .expect("encode ack");
    let mut w = stream;
    w.write_all(format!("{ack}\n").as_bytes())
        .expect("send ack");
    reader
}

/// Orders `[special, real]` so that the *special* (fake) shard is the one
/// `config`'s fingerprint prefers — making the failure scenario
/// deterministic instead of a coin flip.
fn addrs_with_preferred(
    special: SocketAddr,
    real: SocketAddr,
    litho: &LithoSpec,
) -> Vec<SocketAddr> {
    let preferred = shard_preference(litho.to_config().fingerprint(), 2)[0];
    let mut addrs = vec![real; 2];
    addrs[preferred] = special;
    addrs
}

/// A backend that answers a queued request with garbage is failed as a
/// protocol violator, and its in-flight work is recomputed on the
/// surviving shard — the client still sees the bit-exact result.
#[test]
fn malformed_backend_frame_fails_the_shard_and_work_recomputes() {
    let real = serve(ServerConfig::default()).expect("real shard");
    let fake_addr = fake_shard(|stream| {
        // Ack the preface and ignore probes; answer the first *queued*
        // request kind with bytes that do not frame.
        let mut reader = ack_hello(&stream);
        while let Ok(Some(FrameV2::Frame { opcode, .. })) = read_frame_v2(&mut reader) {
            if opcode == Opcode::Optimize as u8 {
                let mut w = &stream;
                let _ = w.write_all(b"this is not a frame\n");
                let _ = w.flush();
                return;
            }
        }
    });

    let job = job(2);
    let addrs = addrs_with_preferred(fake_addr, real.addr(), &job.litho);
    let handle = route(RouterConfig::default(), &addrs).expect("start router");
    let mut client = Client::connect(handle.addr()).expect("connect");
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
    match results.remove(&id).expect("result") {
        Completed::Single(ResponseBody::Outcome(wire)) => {
            assert_outcome_matches(&wire, offline, "recomputed optimize");
        }
        other => panic!("unexpected completion: {other:?}"),
    }
    let report = handle.shutdown();
    assert!(report.redispatched >= 1, "{report:?}");
    real.shutdown();
}

/// A shard that accepts its channel and then hangs (answers nothing, not
/// even pings) is declared dead by the probe timeout, and in-flight work
/// retries on the surviving shard.
#[test]
fn hung_shard_times_out_and_work_retries_elsewhere() {
    let real = serve(ServerConfig::default()).expect("real shard");
    let fake_addr = fake_shard(|stream| {
        // Ack the preface, then swallow everything, say nothing, hold the
        // connection open.
        let mut reader = ack_hello(&stream);
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });

    let job = job(2);
    let addrs = addrs_with_preferred(fake_addr, real.addr(), &job.litho);
    let config = RouterConfig {
        probe_interval: Duration::from_millis(20),
        probe_timeout: Duration::from_millis(250),
        ..RouterConfig::default()
    };
    let doomed = addrs
        .iter()
        .position(|&a| a == fake_addr)
        .expect("fake present");
    let handle = route(config, &addrs).expect("start router");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let clip = test_clip(2);
    let id = client
        .send(RequestBody::Optimize {
            job: job.clone(),
            clip: clip.clone(),
        })
        .unwrap();
    let mut results = collect_responses(&mut client, &[id]).expect("responses");
    let sim = LithoSimulator::new(job.litho.to_config());
    let offline = &run_optimize(&job, std::slice::from_ref(&clip), &sim, 1)[0];
    match results.remove(&id).expect("result") {
        Completed::Single(ResponseBody::Outcome(wire)) => {
            assert_outcome_matches(&wire, offline, "retried optimize");
        }
        other => panic!("unexpected completion: {other:?}"),
    }
    let report = handle.shutdown();
    assert!(
        !report.shards[doomed].alive,
        "hung shard marked dead: {report:?}"
    );
    assert!(report.redispatched >= 1, "{report:?}");
    real.shutdown();
}

/// Fingerprint affinity: with several lithography configurations in one
/// stream, every configuration's requests land on exactly the shard its
/// preference order ranks first.
#[test]
fn fingerprint_affinity_lands_each_config_on_one_shard() {
    let shards: Vec<_> = (0..2)
        .map(|_| serve(ServerConfig::default()).expect("shard"))
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr()).collect();
    let handle = route(RouterConfig::default(), &addrs).expect("start router");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Pick three configurations that provably spread over both shards
    // (fingerprints are hashes; a fixed triple could land all on one).
    let prefers = |px: i64| {
        let litho = LithoSpec {
            pixel_size: Some(px),
            ..LithoSpec::fast()
        };
        shard_preference(litho.to_config().fingerprint(), 2)[0]
    };
    let mut pixel_sizes: Vec<i64> = Vec::new();
    let mut covered = [false; 2];
    for px in 8i64.. {
        if pixel_sizes.len() == 2 && covered.iter().any(|&c| !c) && covered[prefers(px)] {
            continue; // the last slot must cover the missing shard
        }
        covered[prefers(px)] = true;
        pixel_sizes.push(px);
        if pixel_sizes.len() == 3 {
            break;
        }
    }
    assert!(covered.iter().all(|&c| c), "configs span both shards");
    let stream = camo_workloads::multi_config_stream(
        &camo_workloads::RequestStreamParams::smoke(),
        &pixel_sizes,
        77,
        12,
    );
    let mut expected = vec![0usize; addrs.len()];
    let mut ids = Vec::new();
    for tagged in &stream {
        let job = JobSpec {
            litho: LithoSpec {
                pixel_size: Some(tagged.pixel_size),
                ..LithoSpec::fast()
            },
            layer: Layer::Via,
            engine: EngineKind::Calibre,
            max_steps: Some(1),
        };
        let fp = job.litho.to_config().fingerprint();
        expected[shard_preference(fp, addrs.len())[0]] += 1;
        ids.push(
            client
                .send(camo_serve::exec::case_body(&tagged.case, &job))
                .unwrap(),
        );
    }
    let results = collect_responses(&mut client, &ids).expect("responses");
    for (id, completed) in &results {
        assert!(
            matches!(completed, Completed::Single(_) | Completed::Sweep(_)),
            "request {id} completed as {completed:?}"
        );
    }
    let report = handle.shutdown();
    assert_eq!(report.redispatched, 0, "no failures in this scenario");
    let forwarded: Vec<usize> = report.shards.iter().map(|s| s.forwarded).collect();
    assert_eq!(
        forwarded, expected,
        "every configuration's requests must land on its preferred shard"
    );
    // The workload actually exercised more than one shard.
    assert!(
        expected.iter().all(|&n| n > 0),
        "both shards saw traffic: {expected:?}"
    );
    for s in shards {
        s.shutdown();
    }
}

/// `busy` backpressure from a shard propagates to the client as the same
/// typed rejection — the router never converts it into blocking.
#[test]
fn shard_busy_propagates_to_the_client() {
    // A worker-less shard with a tiny queue: the third queued request
    // observes `busy`.
    let shard = serve(ServerConfig {
        queue_depth: 2,
        threads: 0,
        retry_after_ms: 321,
        ..ServerConfig::default()
    })
    .expect("shard");
    let config = RouterConfig {
        drain_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    };
    let handle = route(config, &[shard.addr()]).expect("start router");
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
    let rejected = collect_responses(&mut client, &ids[2..]).expect("rejections");
    for id in &ids[2..] {
        match rejected[id] {
            Completed::Rejected { retry_after_ms } => assert_eq!(retry_after_ms, 321),
            ref other => panic!("expected propagated busy, got {other:?}"),
        }
    }
    // Shutting the shard down first answers its two stuck requests with
    // `shutting_down`; the router treats a backend that quits while owing
    // work as failed, errors those entries out, and its own shutdown is
    // then immediate rather than waiting out the drain timeout.
    shard.shutdown();
    handle.shutdown();
}
