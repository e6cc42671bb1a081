//! Tracing-plane end-to-end tests: a routed request leaves one coherent
//! span timeline across the router and its shard (common trace id on both
//! hops, every lifecycle stage present), the Chrome export of that pull is
//! well-formed, and tracing is strictly observational — served results with
//! `trace_sample: 1` are bit-identical to an untraced server and to direct
//! offline `camo-runtime` calls.

use camo_geometry::{Clip, Rect};
use camo_litho::LithoSimulator;
use camo_serve::chrome_trace_json;
use camo_serve::client::{collect_responses, Client, Completed};
use camo_serve::exec::run_optimize;
use camo_serve::router::{route_spawned, RouterConfig};
use camo_serve::shard::{ShardSet, ShardSpec};
use camo_serve::trace::TraceReport;
use camo_serve::wire::{
    EngineKind, JobSpec, Layer, LithoSpec, RequestBody, ResponseBody, WireOutcome,
};
use camo_serve::{serve, ServerConfig};
use std::collections::BTreeSet;

fn test_clip(offset: i64) -> Clip {
    let mut clip = Clip::with_name(Rect::new(0, 0, 900, 900), format!("T{offset}"));
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

fn pull_trace(client: &mut Client) -> TraceReport {
    let id = client.send(RequestBody::Trace).expect("send trace");
    let mut results = collect_responses(client, &[id]).expect("trace reply");
    match results.remove(&id) {
        Some(Completed::Single(ResponseBody::Trace(report))) => report,
        other => panic!("unexpected trace reply: {other:?}"),
    }
}

fn stage_names(report: &TraceReport) -> BTreeSet<String> {
    report.spans.iter().map(|s| s.stage.clone()).collect()
}

/// The acceptance-criteria test: one traced request routed through a real
/// two-shard tier produces a coherent cross-process timeline — the router
/// and the answering shard record the *same* trace id, every lifecycle
/// stage appears on its proper hop, the spans are internally consistent,
/// and the merged pull exports as well-formed Chrome trace JSON. Tracing
/// at `sample: 1` leaves results bit-identical to offline runs.
#[test]
fn routed_trace_timeline_covers_every_hop() {
    let mut spec = ShardSpec::new(env!("CARGO_BIN_EXE_serve"));
    spec.args = vec![
        "--threads".into(),
        "1".into(),
        "--trace-sample".into(),
        "1".into(),
    ];
    let shards = ShardSet::spawn(&spec, 2).expect("spawn shard processes");
    let handle = route_spawned(
        RouterConfig {
            trace_sample: 1,
            ..RouterConfig::default()
        },
        shards,
    )
    .expect("start router");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let job = job(3);
    let clips: Vec<Clip> = (0..3).map(test_clip).collect();
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
    let mut results = collect_responses(&mut client, &ids).expect("responses");

    // Observation only: traced results must still be bit-identical to
    // direct offline calls.
    let sim = LithoSimulator::new(job.litho.to_config());
    for (i, clip) in clips.iter().enumerate() {
        let offline = &run_optimize(&job, std::slice::from_ref(clip), &sim, 1)[0];
        match results.remove(&ids[i]) {
            Some(Completed::Single(ResponseBody::Outcome(wire))) => {
                assert_outcome_matches(&wire, offline, &format!("traced optimize {i}"));
            }
            other => panic!("optimize {i} completed as {other:?}"),
        }
    }

    let report = pull_trace(&mut client);
    assert_eq!(report.role, "router");
    assert!(
        !report.shards.is_empty(),
        "router merged no shard flight recorders"
    );

    // Router-side lifecycle stages.
    let router_stages = stage_names(&report);
    for stage in ["admit", "forward", "encode", "write"] {
        assert!(
            router_stages.contains(stage),
            "router spans miss {stage}: {router_stages:?}"
        );
    }

    // The wire frame carried the router's trace id to the shard: some id
    // must appear on both hops, and its shard-side spans must cover the
    // queue, the planner, the context cache, the litho pipeline and the
    // response writer.
    let router_ids: BTreeSet<u64> = report.spans.iter().map(|s| s.trace_id).collect();
    let mut cross_process = false;
    for shard in &report.shards {
        let shard_ids: BTreeSet<u64> = shard.spans.iter().map(|s| s.trace_id).collect();
        if router_ids.intersection(&shard_ids).next().is_some() {
            cross_process = true;
        }
    }
    assert!(
        cross_process,
        "no trace id is shared between the router and any shard"
    );
    let shard_stages: BTreeSet<String> = report
        .shards
        .iter()
        .flat_map(|s| s.spans.iter().map(|span| span.stage.clone()))
        .collect();
    for stage in [
        "admit",
        "shard-queue",
        "plan",
        "context-fetch",
        "rasterize",
        "convolve",
        "resist",
        "epe",
        "pv-band",
        "encode",
        "write",
    ] {
        assert!(
            shard_stages.contains(stage),
            "shard spans miss {stage}: {shard_stages:?}"
        );
    }

    // Span sanity: monotone intervals everywhere.
    for span in report
        .spans
        .iter()
        .chain(report.shards.iter().flat_map(|s| s.spans.iter()))
    {
        assert!(
            span.start_us <= span.end_us,
            "span {} runs backwards",
            span.stage
        );
    }

    // The merged pull is the CI smoke artifact: it must export as Chrome
    // trace JSON naming every stage observed above.
    let json = chrome_trace_json(&report);
    assert!(json.starts_with("{\"traceEvents\":["));
    for stage in router_stages.iter().chain(shard_stages.iter()) {
        assert!(
            json.contains(&format!("\"name\":\"{stage}\"")),
            "export misses stage {stage}"
        );
    }

    handle.shutdown();
}

/// Tracing on vs off over the same in-process server workload: the served
/// bits must be indistinguishable, and only the traced server's flight
/// recorder fills.
#[test]
fn traced_and_untraced_servers_serve_identical_bits() {
    let outcomes: Vec<Vec<WireOutcome>> = [1u64, 0]
        .iter()
        .map(|&sample| {
            let handle = serve(ServerConfig {
                threads: 1,
                trace_sample: sample,
                ..ServerConfig::default()
            })
            .expect("bind");
            let mut client = Client::connect(handle.addr()).expect("connect");
            let job = job(2);
            let ids: Vec<u64> = (0..2)
                .map(|i| {
                    client
                        .send(RequestBody::Optimize {
                            job: job.clone(),
                            clip: test_clip(i),
                        })
                        .unwrap()
                })
                .collect();
            let mut results = collect_responses(&mut client, &ids).expect("responses");
            let outcomes = ids
                .iter()
                .map(|id| match results.remove(id) {
                    Some(Completed::Single(ResponseBody::Outcome(wire))) => wire,
                    other => panic!("optimize completed as {other:?}"),
                })
                .collect();

            let report = pull_trace(&mut client);
            assert_eq!(report.role, "server");
            if sample == 1 {
                let stages = stage_names(&report);
                for stage in ["admit", "rasterize", "epe", "write"] {
                    assert!(stages.contains(stage), "traced server misses {stage}");
                }
            } else {
                assert!(
                    report.spans.is_empty(),
                    "untraced server recorded spans: {:?}",
                    report.spans
                );
            }
            handle.shutdown();
            outcomes
        })
        .collect();

    for (i, (on, off)) in outcomes[0].iter().zip(&outcomes[1]).enumerate() {
        assert_eq!(on.offsets, off.offsets, "request {i}: offsets diverge");
        assert_eq!(on.steps, off.steps, "request {i}: steps diverge");
        for (a, b) in on.epe_per_point.iter().zip(&off.epe_per_point) {
            assert_eq!(a.to_bits(), b.to_bits(), "request {i}: epe bits diverge");
        }
        assert_eq!(
            on.pv_band.to_bits(),
            off.pv_band.to_bits(),
            "request {i}: pv band bits diverge"
        );
    }
}
