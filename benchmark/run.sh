#!/usr/bin/env bash
# One command: build the benchmark, run all five workloads untraced
# (end-to-end metrics) and traced (per-layer metrics), print one table
# each, and write benchmark/out/results.json. Exits non-zero if any output
# check fails. Extra arguments are passed through (--seed N, --seconds S).
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload all "$@"
