//! `camobench`: the CAMO reproduction's end-to-end benchmark.
//!
//! ```text
//! bash camobench/run.sh --workload opc_via|opc_metal|serve_mixed
//!                       --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.sh` builds this binary and the `serve` binary from the checkout
//! and passes `--serve-bin`. Each run prints human-readable lines (counts,
//! gates, the result digest) and, as its last stdout line, one JSON object:
//! with `--trace 0` every end-to-end metric of `BENCHMARK.json`, with
//! `--trace 1` every per-layer metric. See `camobench/README.md`.

mod layers;
mod mixed;
mod opc;
mod serve;
mod stats;
mod suites;

use camo_serve::wire::Layer;
use stats::Report;
use std::path::PathBuf;

/// End-to-end metrics and units, as listed in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("clips_per_s", "clips/s"),
    ("epe_sum_nm", "nm"),
    ("pvb_sum_nm2", "nm2"),
    ("req_ms_p50", "ms"),
    ("req_ms_p95", "ms"),
    ("evaluate_ms_p50", "ms"),
    ("evaluate_ms_p95", "ms"),
    ("saturation_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and units, as listed in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("litho.session_open_ms", "ms"),
    ("litho.apply_moves_ms", "ms"),
    ("litho.step_epe_ms", "ms"),
    ("litho.final_eval_ms", "ms"),
    ("litho.stage.rasterize_ms", "ms"),
    ("litho.stage.rasterize_calls", "count"),
    ("litho.stage.convolve_ms", "ms"),
    ("litho.stage.convolve_calls", "count"),
    ("litho.stage.resist_ms", "ms"),
    ("litho.stage.resist_calls", "count"),
    ("litho.stage.epe_ms", "ms"),
    ("litho.stage.epe_calls", "count"),
    ("litho.stage.pv-band_ms", "ms"),
    ("litho.stage.pv-band_calls", "count"),
    ("litho.refresh_px", "px"),
    ("litho.refresh_window_px", "px"),
    ("litho.refresh_skip_ratio", "ratio"),
    ("litho.full_refreshes", "count"),
    ("litho.pool_allocations", "count"),
    ("litho.pool_reuses", "count"),
    ("litho.steps", "count"),
    ("litho.segment_moves", "count"),
    ("geometry.features_ms", "ms"),
    ("core.graph_ms", "ms"),
    ("core.policy_ms", "ms"),
    ("core.decide_ms", "ms"),
    ("runtime.busy_share", "ratio"),
    ("runtime.straggler_ms", "ms"),
    ("serve.compute_ms.optimize", "ms"),
    ("serve.compute_ms.evaluate", "ms"),
    ("serve.overhead_ms.optimize", "ms"),
    ("serve.overhead_ms.evaluate", "ms"),
    ("serve.codec_us", "us"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.queue_high_water", "count"),
    ("serve.in_flight_high_water", "count"),
    ("serve.busy_rejected", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        serve_bin: PathBuf::from(value("--serve-bin")?),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("camobench: {e}");
        std::process::exit(2);
    });
    let report: Report = match args.workload.as_str() {
        "opc_via" => opc::run(
            "opc_via",
            Layer::Via,
            args.seed,
            args.seconds,
            args.trace,
            &args.serve_bin,
        ),
        "opc_metal" => opc::run(
            "opc_metal",
            Layer::Metal,
            args.seed,
            args.seconds,
            args.trace,
            &args.serve_bin,
        ),
        "serve_mixed" => mixed::run(args.seed, args.seconds, args.trace, &args.serve_bin)
            .unwrap_or_else(|e| {
                eprintln!("camobench: serve_mixed: {e}");
                std::process::exit(1);
            }),
        other => {
            eprintln!("camobench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let mut sorted_expected = expected.to_vec();
    sorted_expected.sort();
    let mut sorted_got = got.clone();
    sorted_got.sort();
    if sorted_expected != sorted_got {
        eprintln!("camobench: reported metrics {got:?} differ from the listed {expected:?}");
        std::process::exit(1);
    }
    for m in &report.metrics {
        println!("metric {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry in one metric array of the JSON file.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..json[start..].find(']').expect("array closes") + start];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().expect("name");
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside camobench/");
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed(&json, key), ours, "{key}");
        }
    }
}
