#!/usr/bin/env bash
# Builds `mcloud` and the benchmark binary from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload cold-mix --seed 2008 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --locked --offline -p mcloud-cli --bin mcloud >&2
cargo build --quiet --release --locked --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --mcloud "$CARGO_TARGET_DIR/release/mcloud" "$@"
