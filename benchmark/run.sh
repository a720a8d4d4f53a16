#!/usr/bin/env bash
# Builds nestmark and runs the whole suite: unit tests, smoke, the four
# workloads (untraced) and the traced ladder. Results land in
# benchmark/out/ (report.json, trace-<workload>.json); the tables are
# printed. Pass --seed N / --seconds S to change the inputs or the window.
#
# BENCHMARK.json holds the contract (command, workloads, metric names,
# bounds), not measurements, so there is nothing in it to refresh; the
# reference numbers in README.md are a copy of this script's `run` output.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --manifest-path "$manifest"
cargo test --release --quiet --manifest-path "$manifest"
cargo run --release --quiet --manifest-path "$manifest" -- smoke
cargo run --release --quiet --manifest-path "$manifest" -- run "$@"
cargo run --release --quiet --manifest-path "$manifest" -- traced "$@"
