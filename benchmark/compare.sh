#!/usr/bin/env bash
# Applies the end-to-end bounds to two results.json files (A = parent,
# B = change): one row per workload x metric with ok / worse / unresolved.
# Exits non-zero if any row is worse.
set -euo pipefail
if [ $# -ne 2 ]; then
    echo "usage: benchmark/compare.sh A.json B.json" >&2
    exit 2
fi
a=$(realpath "$1")
b=$(realpath "$2")
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    compare "$a" "$b"
