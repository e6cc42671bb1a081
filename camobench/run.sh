#!/usr/bin/env bash
# Builds the benchmark and the repository's `serve` binary from this
# checkout, then runs one workload:
#   bash camobench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR"
# `serve` is built from the root workspace, as shipped. The benchmark's own
# workspace gets the root's [profile.release] tables as cargo config, so
# the crates linked into the benchmark are compiled the same way.
profile="$CARGO_TARGET_DIR/root-release-profile.toml"
awk '/^\[/ { keep = ($0 ~ /^\[profile\.release[].]/) } keep' Cargo.toml >"$profile"
cargo build --offline --release --quiet -p camo-serve --bin serve >&2
cargo build --offline --release --quiet --config "$profile" \
    --manifest-path camobench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/camobench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"
