#!/usr/bin/env bash
# Builds cold-serve and the cold-perf benchmark from source, then runs the
# benchmark with the given arguments. Run from the root of a checkout:
#
#   bash crates/bench/src/bin/cold-perf/run.sh --workload paper-n30 --seed 2014 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's
# own messages go to stderr, so stdout carries only the benchmark's result.
set -euo pipefail

here=crates/bench/src/bin/cold-perf
if [[ ! -f Cargo.toml || ! -f crates/serve/Cargo.toml || ! -f crates/core/Cargo.toml ]]; then
    echo "cold-perf: run from the root of a COLD checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p cold-serve --bin cold-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/cold-perf" "$@"
