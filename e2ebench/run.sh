#!/usr/bin/env bash
# Builds `mto_serve` and the benchmark from source, then runs one workload:
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); request files and run artifacts go to a scratch
# directory under it that the benchmark removes when it ends.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p mto-fleet --bin mto_serve >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$target/release/mto-e2ebench" --serve "$target/release/mto_serve" --work "$target/e2ebench-work" "$@"
