//! Chaos tests for the self-healing shard tier.
//!
//! The headline soak kills random shards, over and over, while a mixed
//! multi-configuration stream runs through the router — and asserts the
//! four properties the tier promises:
//!
//! 1. every response stays **bit-identical** to an offline run
//!    (`f64::to_bits` equality — redispatch and respawn are invisible in
//!    the results);
//! 2. every killed shard **comes back** (the supervised-respawn counter,
//!    observed through the `metrics` wire request, grows every cycle);
//! 3. **no child processes leak** — after the tier drains, `/proc` holds
//!    nothing launched for this test process;
//! 4. a shard whose respawn handshake keeps failing is **benched** by the
//!    flap breaker instead of wedging the supervisor or the prober.
//!
//! Cycle count is tunable: `CAMO_CHAOS_CYCLES` (default 10) lets CI run a
//! quick smoke while the full soak stays the local/release gate.
//!
//! Tests share one process and the leak scan matches on this process's
//! pid, so they serialise on a mutex instead of interleaving kills.

use camo_litho::ContextCache;
use camo_serve::client::{Client, Completed, ResponseRouter};
use camo_serve::exec::{case_body, evaluate_mask, run_optimize, run_sweep};
use camo_serve::router::{route_spawned, RouterConfig};
use camo_serve::shard::{ShardSet, ShardSpec};
use camo_serve::supervise::RespawnPolicy;
use camo_serve::wire::{
    EngineKind, JobSpec, Layer, LithoSpec, RequestBody, Response, ResponseBody, WireOutcome,
};
use camo_serve::MetricsReport;
use camo_workloads::{multi_config_stream, RequestStreamParams, ServeCase, TaggedCase};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serialises the tests in this file: they kill and spawn child processes
/// and scan `/proc` for leaks by this process's pid, so interleaving them
/// would let one test's (legitimate, soon-reaped) children trip another
/// test's leak check.
static SERIAL: Mutex<()> = Mutex::new(()); // lock-order: 1

fn spawn_shards(count: usize) -> ShardSet {
    let mut spec = ShardSpec::new(env!("CARGO_BIN_EXE_serve"));
    spec.args = vec!["--threads".into(), "1".into()];
    ShardSet::spawn(&spec, count).expect("spawn shard processes")
}

/// A chaos-friendly router config: fast probes, fast respawns, and a
/// breaker threshold far above anything the soak can reach — external
/// kills count as deaths, and ten deliberate kills must not bench anyone.
fn chaos_config() -> RouterConfig {
    RouterConfig {
        probe_interval: Duration::from_millis(20),
        probe_timeout: Duration::from_secs(2),
        respawn: RespawnPolicy {
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(500),
            breaker_window: Duration::from_secs(60),
            breaker_failures: 10_000,
        },
        ..RouterConfig::default()
    }
}

fn job_for(pixel_size: i64) -> JobSpec {
    JobSpec {
        litho: LithoSpec {
            pixel_size: Some(pixel_size),
            ..LithoSpec::fast()
        },
        layer: Layer::Via,
        engine: EngineKind::Calibre,
        max_steps: Some(1),
    }
}

/// SplitMix64 — the deterministic victim picker (vendored; offline build).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sends a `metrics` request and blocks for the report (control requests
/// are answered inline by the router's reader, so this works even while
/// the tier is busy or degraded).
fn fetch_metrics(client: &mut Client) -> MetricsReport {
    let id = client.send(RequestBody::Metrics).expect("send metrics");
    loop {
        match client.recv() {
            Ok(Some(response)) if response.id == id => match response.body {
                ResponseBody::Metrics(report) => return report,
                other => panic!("unexpected metrics reply: {other:?}"),
            },
            Ok(Some(_)) => continue,
            Ok(None) => panic!("eof while awaiting metrics"),
            Err(e) => panic!("recv metrics: {e}"),
        }
    }
}

fn bits_match(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_outcome_bits(wire: &WireOutcome, offline: &camo_baselines::OpcOutcome, what: &str) {
    assert_eq!(wire.offsets, offline.mask.offsets(), "{what}: offsets");
    assert_eq!(wire.steps, offline.steps, "{what}: steps");
    assert!(
        bits_match(&wire.epe_per_point, &offline.result.epe.per_point),
        "{what}: epe bits diverged"
    );
    assert_eq!(
        wire.pv_band.to_bits(),
        offline.result.pv_band.to_bits(),
        "{what}: pv band bits"
    );
}

/// Recomputes one tagged case offline and asserts the served result is
/// bit-identical (`f64::to_bits`), whatever kills happened en route.
fn assert_bit_identical(
    tagged: &TaggedCase,
    completed: &Completed,
    contexts: &ContextCache,
    what: &str,
) {
    let job = job_for(tagged.pixel_size);
    let sim = contexts.get(&job.litho.to_config());
    match (&tagged.case, completed) {
        (ServeCase::Optimize { clip }, Completed::Single(ResponseBody::Outcome(wire))) => {
            let offline = &run_optimize(&job, std::slice::from_ref(clip), &sim, 1)[0];
            assert_outcome_bits(wire, offline, what);
        }
        (
            ServeCase::Evaluate { clip, bias },
            Completed::Single(ResponseBody::Evaluation {
                epe_per_point,
                pv_band,
            }),
        ) => {
            let offline = sim.evaluate(&evaluate_mask(job.layer, *bias, clip));
            assert!(
                bits_match(epe_per_point, &offline.epe.per_point),
                "{what}: evaluation epe bits diverged"
            );
            assert_eq!(
                pv_band.to_bits(),
                offline.pv_band.to_bits(),
                "{what}: evaluation pv band bits"
            );
        }
        (ServeCase::Sweep { cases }, Completed::Sweep(responses)) => {
            let offline = run_sweep(&job, cases, &sim, 1);
            assert_eq!(offline.len(), responses.len(), "{what}: sweep arity");
            for (i, (body, (name, outcome))) in responses.iter().zip(&offline).enumerate() {
                match body {
                    ResponseBody::CaseOutcome {
                        name: got_name,
                        outcome: got,
                        ..
                    } => {
                        assert_eq!(got_name, name, "{what}: sweep case {i} name");
                        assert_outcome_bits(got, outcome, &format!("{what}: sweep case {i}"));
                    }
                    other => panic!("{what}: sweep case {i} completed as {other:?}"),
                }
            }
        }
        (_, other) => panic!("{what}: completed as unexpected {other:?}"),
    }
}

/// Child processes of *this* test process still present in `/proc`.
/// Matches the pid-stamped port-file path every supervised shard carries
/// in its argv.
fn leaked_children() -> Vec<String> {
    let marker = format!("camo-shard-{}-", std::process::id());
    let mut leaks = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return leaks; // no procfs (non-Linux): the scan is best-effort
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .filter(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
        else {
            continue;
        };
        if let Ok(cmdline) = std::fs::read_to_string(format!("/proc/{pid}/cmdline")) {
            if cmdline.contains(&marker) {
                leaks.push(format!("pid {pid}: {}", cmdline.replace('\0', " ")));
            }
        }
    }
    leaks
}

fn chaos_cycles() -> usize {
    std::env::var("CAMO_CHAOS_CYCLES")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(10)
}

/// The headline randomized soak: kill a random shard every cycle while a
/// mixed multi-configuration stream runs; every response bit-identical,
/// every victim respawned, nothing leaked.
#[test]
fn chaos_soak_kills_random_shards_and_stays_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cycles = chaos_cycles();
    let shards = 3usize;
    let per_cycle = 4usize;
    let handle = route_spawned(chaos_config(), spawn_shards(shards)).expect("start router");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let contexts = ContextCache::new(4);

    // Three distinct lithography configurations so the stream exercises
    // several shards (and several contexts) at once.
    let stream = multi_config_stream(
        &RequestStreamParams::smoke(),
        &[8, 9, 11],
        2024,
        cycles * per_cycle,
    );

    let mut respawns_expected = 0usize;
    for cycle in 0..cycles {
        let batch = &stream[cycle * per_cycle..(cycle + 1) * per_cycle];
        let mut ids: Vec<u64> = Vec::new();
        // First half of the batch goes out, then the kill lands mid-stream,
        // then the rest — so every cycle has requests in flight across the
        // failure and requests admitted while the tier is degraded.
        for tagged in &batch[..per_cycle / 2] {
            ids.push(
                client
                    .send(case_body(&tagged.case, &job_for(tagged.pixel_size)))
                    .expect("send"),
            );
        }
        let victim = (mix64(0xC4A0_5EED ^ cycle as u64) % shards as u64) as usize;
        handle.kill_shard(victim).expect("kill victim shard");
        respawns_expected += 1;
        for tagged in &batch[per_cycle / 2..] {
            ids.push(
                client
                    .send(case_body(&tagged.case, &job_for(tagged.pixel_size)))
                    .expect("send"),
            );
        }

        // Collect this cycle's responses (completion-ordered, possibly
        // redispatched) and diff every one against the offline bits.
        let mut router = ResponseRouter::new();
        let mut results: BTreeMap<u64, Completed> = BTreeMap::new();
        while results.len() < ids.len() {
            let response = client
                .recv()
                .expect("recv")
                .expect("eof with requests outstanding");
            assert_ne!(response.id, 0, "unattributable failure from the tier");
            if let Some(id) = router.accept(response).expect("correlate") {
                results.insert(id, router.take(id).expect("just completed"));
            }
        }
        for (tagged, id) in batch.iter().zip(&ids) {
            assert_bit_identical(
                tagged,
                &results[id],
                &contexts,
                &format!("cycle {cycle}, request {id}"),
            );
        }

        // The victim must come back before the next cycle: the respawn
        // counter (observed through the wire `metrics` request) reaches
        // this cycle's total and every shard reports alive.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let report = fetch_metrics(&mut client);
            let all_alive = report.shards.iter().all(|s| s.alive);
            if all_alive && report.respawns >= respawns_expected {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "cycle {cycle}: shard {victim} did not respawn \
                 (respawns {} of {respawns_expected}, report {report:?})",
                report.respawns
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let report = fetch_metrics(&mut client);
    assert!(
        report.respawns >= cycles,
        "at least one respawn per cycle: {} < {cycles}",
        report.respawns
    );
    assert!(
        report.shards.iter().all(|s| s.alive && !s.benched),
        "every shard ends alive and unbenched: {report:?}"
    );
    assert!(
        report.latency.iter().any(|k| k.latency.count > 0),
        "the soak recorded latency samples: {report:?}"
    );

    let report = handle.shutdown();
    assert!(
        report.redispatched > 0,
        "kills mid-stream must have forced redispatches: {report:?}"
    );
    let leaks = leaked_children();
    assert!(leaks.is_empty(), "leaked shard processes: {leaks:?}");
}

/// The pipelined variant of the headline soak: one connection keeps a
/// whole cycle's requests in flight at once (written without
/// flushing, then flushed together) while a shard is killed mid-stream.
/// Redispatch dedup must hold per in-flight request — every request
/// completes exactly once, bit-identical, and no stray duplicate response
/// trails the stream.
#[test]
fn pipelined_v2_soak_survives_kills_without_duplicates() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cycles = chaos_cycles().min(6);
    let shards = 3usize;
    let per_cycle = 6usize;
    let handle = route_spawned(chaos_config(), spawn_shards(shards)).expect("start router");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let contexts = ContextCache::new(4);

    let stream = multi_config_stream(
        &RequestStreamParams::smoke(),
        &[8, 9, 11],
        4046,
        cycles * per_cycle,
    );

    for cycle in 0..cycles {
        let batch = &stream[cycle * per_cycle..(cycle + 1) * per_cycle];
        // Pipeline the whole batch: every request is written (unflushed)
        // before any response is read, so the kill below lands with
        // multiple requests in flight on this one connection.
        let mut ids: Vec<u64> = Vec::new();
        for tagged in &batch[..per_cycle / 2] {
            ids.push(
                client
                    .send_pipelined(case_body(&tagged.case, &job_for(tagged.pixel_size)))
                    .expect("pipeline"),
            );
        }
        client.flush().expect("flush first half");
        // Kill the shard the batch's head request routes to: a random
        // victim can land on a shard the stream never touches (consistent
        // routing concentrates configs), which would kill nothing
        // in-flight and never exercise redispatch.
        let victim = camo_serve::shard_preference(
            job_for(batch[0].pixel_size).litho.to_config().fingerprint(),
            shards,
        )[0];
        handle.kill_shard(victim).expect("kill victim shard");
        for tagged in &batch[per_cycle / 2..] {
            ids.push(
                client
                    .send_pipelined(case_body(&tagged.case, &job_for(tagged.pixel_size)))
                    .expect("pipeline"),
            );
        }
        client.flush().expect("flush second half");

        let mut router = ResponseRouter::new();
        let mut results: BTreeMap<u64, Completed> = BTreeMap::new();
        while results.len() < ids.len() {
            let response = client
                .recv()
                .expect("recv")
                .expect("eof with requests outstanding");
            assert_ne!(response.id, 0, "unattributable failure from the tier");
            if let Some(id) = router.accept(response).expect("correlate") {
                let previous = results.insert(id, router.take(id).expect("just completed"));
                assert!(
                    previous.is_none(),
                    "cycle {cycle}: request {id} completed twice (redispatch dedup broke)"
                );
            }
        }
        for (tagged, id) in batch.iter().zip(&ids) {
            assert_bit_identical(
                tagged,
                &results[id],
                &contexts,
                &format!("pipelined cycle {cycle}, request {id}"),
            );
        }

        // Dedup epilogue: a ping is answered inline and thus trails any
        // stray duplicate of this cycle's responses still in the pipe. The
        // pong arriving first proves the stream is exactly-once.
        let ping_id = client.send(RequestBody::Ping).expect("send ping");
        match client.recv().expect("recv").expect("eof awaiting pong") {
            Response {
                id,
                body: ResponseBody::Pong,
            } if id == ping_id => {}
            stray => panic!("cycle {cycle}: duplicate response trailed the stream: {stray:?}"),
        }

        // Wait for the victim to come back before the next cycle.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let report = fetch_metrics(&mut client);
            if report.shards.iter().all(|s| s.alive) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "cycle {cycle}: shard {victim} did not respawn: {report:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let report = fetch_metrics(&mut client);
    assert!(
        report.shards.iter().all(|s| s.alive && !s.benched),
        "every shard ends alive and unbenched: {report:?}"
    );
    let report = handle.shutdown();
    assert!(
        report.redispatched > 0,
        "kills under a pipelined stream must have forced redispatches: {report:?}"
    );
    let leaks = leaked_children();
    assert!(leaks.is_empty(), "leaked shard processes: {leaks:?}");
}

/// A rolling `restart` over the wire drains and respawns every shard in
/// turn, acknowledges with the full shard list, and the tier keeps
/// serving bit-identical results afterwards.
#[test]
fn rolling_restart_rolls_every_shard_and_keeps_serving() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = route_spawned(chaos_config(), spawn_shards(2)).expect("start router");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let contexts = ContextCache::new(4);
    let stream = multi_config_stream(&RequestStreamParams::smoke(), &[8, 9], 7, 6);

    let run_batch = |client: &mut Client, batch: &[TaggedCase], what: &str| {
        let ids: Vec<u64> = batch
            .iter()
            .map(|t| {
                client
                    .send(case_body(&t.case, &job_for(t.pixel_size)))
                    .expect("send")
            })
            .collect();
        let mut router = ResponseRouter::new();
        let mut results: BTreeMap<u64, Completed> = BTreeMap::new();
        while results.len() < ids.len() {
            let response = client.recv().expect("recv").expect("eof");
            if let Some(id) = router.accept(response).expect("correlate") {
                results.insert(id, router.take(id).expect("complete"));
            }
        }
        for (tagged, id) in batch.iter().zip(&ids) {
            assert_bit_identical(tagged, &results[id], &contexts, what);
        }
    };

    run_batch(&mut client, &stream[..3], "pre-restart");

    let id = client
        .send(RequestBody::Restart { shard: None })
        .expect("send restart");
    let reply = loop {
        match client.recv().expect("recv").expect("eof") {
            r if r.id == id => break r.body,
            _ => continue,
        }
    };
    match reply {
        ResponseBody::Restarted { shards } => {
            assert_eq!(shards, vec![0, 1], "every shard rolled, in order")
        }
        other => panic!("restart refused: {other:?}"),
    }

    let report = fetch_metrics(&mut client);
    assert!(
        report.shards.iter().all(|s| s.alive && s.respawns >= 1),
        "every shard reborn and alive after the roll: {report:?}"
    );

    run_batch(&mut client, &stream[3..], "post-restart");

    handle.shutdown();
    let leaks = leaked_children();
    assert!(leaks.is_empty(), "leaked shard processes: {leaks:?}");
}

/// Regression: a shard whose respawn handshake keeps failing (its
/// replacement corrupts the port file and hangs) counts every attempt as
/// a failure, trips the flap breaker, and is benched — without wedging
/// the supervisor or the prober, and while the survivor keeps serving.
#[test]
fn breaker_benches_a_shard_that_fails_its_respawn_handshake() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let config = RouterConfig {
        respawn: RespawnPolicy {
            initial_backoff: Duration::from_millis(30),
            max_backoff: Duration::from_millis(100),
            breaker_window: Duration::from_secs(60),
            breaker_failures: 3,
        },
        probe_interval: Duration::from_millis(20),
        probe_timeout: Duration::from_secs(2),
        ..RouterConfig::default()
    };
    let handle = route_spawned(config, spawn_shards(2)).expect("start router");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let contexts = ContextCache::new(4);

    // Replace the respawn binary with a script that writes garbage into
    // the port file ($4 of `--port 0 --port-file FILE`) and lingers: the
    // discovery handshake fails (unparseable address) on every attempt.
    let script_path =
        std::env::temp_dir().join(format!("camo-bad-shard-{}.sh", std::process::id()));
    std::fs::write(
        &script_path,
        "#!/bin/sh\necho garbage > \"$4\"\nexec sleep 2\n",
    )
    .expect("write bad-shard script");
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&script_path, std::fs::Permissions::from_mode(0o755))
            .expect("chmod bad-shard script");
    }
    handle
        .with_shard_spec(|spec| spec.binary = script_path.clone())
        .expect("supervised tier exposes its spec");

    // Kill shard 0: death #1 hits the breaker, then every failed respawn
    // handshake adds one more until the threshold (3) benches the slot.
    handle.kill_shard(0).expect("kill shard");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let report = fetch_metrics(&mut client);
        if report.shards[0].benched {
            assert!(!report.shards[0].alive, "a benched shard is down");
            assert_eq!(
                report.shards[0].respawns, 0,
                "no handshake ever completed: {report:?}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never benched the crash-looping shard: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The supervisor has given up: the respawn counter stays flat.
    std::thread::sleep(Duration::from_millis(300));
    let settled = fetch_metrics(&mut client);
    assert!(settled.shards[0].benched && settled.shards[0].respawns == 0);

    // The prober is not wedged: the survivor still probes alive and still
    // serves bit-identical results.
    assert!(
        settled.shards[1].alive,
        "survivor must stay alive: {settled:?}"
    );
    let stream = multi_config_stream(&RequestStreamParams::smoke(), &[8], 5, 2);
    for tagged in &stream {
        let id = client
            .send(case_body(&tagged.case, &job_for(tagged.pixel_size)))
            .expect("send");
        let mut router = ResponseRouter::new();
        let completed = loop {
            let response = client.recv().expect("recv").expect("eof");
            if let Some(done) = router.accept(response).expect("correlate") {
                if done == id {
                    break router.take(id).expect("complete");
                }
            }
        };
        assert_bit_identical(tagged, &completed, &contexts, "served by the survivor");
    }

    let report = handle.shutdown();
    assert!(
        report.shards[0].benched,
        "bench state visible in the report"
    );
    let _ = std::fs::remove_file(&script_path);
    let leaks = leaked_children();
    assert!(leaks.is_empty(), "leaked shard processes: {leaks:?}");
}
