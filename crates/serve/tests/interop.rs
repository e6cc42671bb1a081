//! Client/server interoperability matrix: the typed client, sending its
//! requests one flush at a time or pipelined behind a single flush, against
//! in-process servers at one and two worker threads and against a routed
//! 2-shard tier. Every cell must serve **bit-identical** results
//! (`f64::to_bits` against a direct offline run), for per-clip `optimize`
//! requests and for a multi-clip `sweep` of the same clips alike.

use camo_geometry::{Clip, Rect};
use camo_litho::LithoSimulator;
use camo_serve::client::{collect_responses, Client, Completed};
use camo_serve::exec::run_optimize;
use camo_serve::router::{route_spawned, RouterConfig};
use camo_serve::server::{serve, ServerConfig};
use camo_serve::shard::{ShardSet, ShardSpec};
use camo_serve::wire::{
    EngineKind, JobSpec, Layer, LithoSpec, RequestBody, ResponseBody, WireOutcome,
};
use std::net::SocketAddr;

fn test_clip(offset: i64) -> Clip {
    let mut clip = Clip::with_name(Rect::new(0, 0, 900, 900), format!("I{offset}"));
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

/// Offline truth for the matrix: the same specs run directly.
fn offline_outcomes(job: &JobSpec, clips: &[Clip]) -> Vec<camo_baselines::OpcOutcome> {
    let sim = LithoSimulator::new(job.litho.to_config());
    run_optimize(job, clips, &sim, 1)
}

/// How a matrix cell puts its requests on the connection.
#[derive(Clone, Copy, Debug)]
enum Sending {
    /// `send`: each request flushed on its own.
    OneByOne,
    /// `send_pipelined` for every request, then one `flush`.
    Pipelined,
}

/// Drives one cell of the matrix: connects (the `hello` preface included),
/// sends per-clip `optimize` requests plus one `sweep` of the same clips
/// the way `sending` says, and diffs everything against the offline run.
fn exercise(addr: SocketAddr, sending: Sending, what: &str) {
    let mut client = Client::connect(addr).expect("connect");

    let job = job(3);
    let clips: Vec<Clip> = (0..3).map(test_clip).collect();
    let offline = offline_outcomes(&job, &clips);

    let mut bodies: Vec<RequestBody> = clips
        .iter()
        .map(|clip| RequestBody::Optimize {
            job: job.clone(),
            clip: clip.clone(),
        })
        .collect();
    bodies.push(RequestBody::Sweep {
        job: job.clone(),
        cases: clips
            .iter()
            .map(|clip| (clip.name().to_string(), clip.clone()))
            .collect(),
    });
    let mut all_ids = Vec::new();
    for body in bodies {
        all_ids.push(match sending {
            Sending::OneByOne => client.send(body).unwrap(),
            Sending::Pipelined => client.send_pipelined(body).unwrap(),
        });
    }
    client.flush().unwrap();
    let (ids, sweep_id) = (&all_ids[..clips.len()], all_ids[clips.len()]);
    let mut results = collect_responses(&mut client, &all_ids).expect("responses");

    for (i, id) in ids.iter().enumerate() {
        match results.remove(id).expect("optimize result") {
            Completed::Single(ResponseBody::Outcome(wire)) => {
                assert_outcome_matches(&wire, &offline[i], &format!("{what}: optimize {i}"));
            }
            other => panic!("{what}: unexpected optimize completion: {other:?}"),
        }
    }

    match results.remove(&sweep_id).expect("sweep result") {
        Completed::Sweep(cases) => {
            assert_eq!(cases.len(), clips.len(), "{what}: sweep case count");
            for (i, case) in cases.iter().enumerate() {
                match case {
                    ResponseBody::CaseOutcome {
                        index,
                        total,
                        name,
                        outcome,
                    } => {
                        assert_eq!(*index, i, "{what}: sweep case index");
                        assert_eq!(*total, clips.len(), "{what}: sweep case total");
                        assert_eq!(name, clips[i].name(), "{what}: sweep case name");
                        assert_outcome_matches(
                            outcome,
                            &offline[i],
                            &format!("{what}: sweep case {i}"),
                        );
                    }
                    other => panic!("{what}: unexpected sweep case: {other:?}"),
                }
            }
        }
        other => panic!("{what}: unexpected sweep completion: {other:?}"),
    }
}

/// The matrix against in-process servers: one and two worker threads, each
/// fed one-by-one and pipelined, every cell bit-identical to offline.
#[test]
fn client_server_matrix_is_bit_identical() {
    for threads in [1usize, 2] {
        let handle = serve(ServerConfig {
            threads,
            ..ServerConfig::default()
        })
        .expect("bind");
        for sending in [Sending::OneByOne, Sending::Pipelined] {
            exercise(
                handle.addr(),
                sending,
                &format!("{sending:?} client vs {threads}-thread server"),
            );
        }
        handle.shutdown();
    }
}

/// Both sending modes against a routed 2-shard tier (whose shard channels
/// make their own `hello` handshake) stay bit-identical to offline.
#[test]
fn routed_tier_matrix_is_bit_identical() {
    let handle = route_spawned(RouterConfig::default(), spawn_shards(2)).expect("start router");
    for sending in [Sending::OneByOne, Sending::Pipelined] {
        exercise(
            handle.addr(),
            sending,
            &format!("{sending:?} client vs routed tier"),
        );
    }
    handle.shutdown();
}
