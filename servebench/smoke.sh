#!/usr/bin/env bash
# Builds the serving benchmark offline into a fresh target directory, runs
# its unit tests, then runs every workload at a tiny size, untraced and
# traced. Fails on a build error, a wrong answer, a failed request, or a
# metric that is missing from the output, undeclared in BENCHMARK.json, or
# named outside [A-Za-z0-9_.-].
#
# Run from anywhere: servebench/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
target="servebench/out/smoke-target"
rm -rf "$target"
export CARGO_TARGET_DIR="$target"
cargo test --quiet --release --offline --manifest-path servebench/Cargo.toml
cargo run --quiet --release --offline --manifest-path servebench/Cargo.toml -- --smoke
