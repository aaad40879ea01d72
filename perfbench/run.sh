#!/usr/bin/env bash
# Builds the release daemon (`ftbar-cli`, from the repository's own
# workspace) and the benchmark, then runs the benchmark against that daemon.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload serve-cold --seed 7 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -d vendor ]; then
    echo "perfbench: needs a full checkout of the repository (Cargo.toml, crates/, vendor/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p ftbar-cli --bin ftbar-cli
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ftbar-perfbench" --daemon "$CARGO_TARGET_DIR/release/ftbar-cli" "$@"
