#!/usr/bin/env bash
# Builds the programs under test (release mlc-sweep and mlc-serve) and
# the benchmark, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload sweep_paper --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-test
#
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "perfbench: run from the repository root (no Cargo.toml or crates/ here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mlc-cli --bin mlc-sweep --bin mlc-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
export PERFBENCH_BIN_DIR="$CARGO_TARGET_DIR/release"
if [ "${1:-}" = "--self-test" ]; then
    exec python3 perfbench/self_test.py "$PERFBENCH_BIN_DIR/perfbench"
fi
exec "$PERFBENCH_BIN_DIR/perfbench" "$@"
