#!/usr/bin/env python3
"""Append one row of the host-time benchmark to the committed trajectory.

Reads `benchmark/out/results.json` (what `benchmark/run.sh` writes), appends
one row to `BENCH_wallclock.json` — commit, machine fingerprint, calibration
seconds, and per workload the `ops_per_s_norm` and `allocs_per_op` medians —
and exits 1 if the decoupled route is not faster than the RPC route
(`decoupled_merge` <= `rpc_create`), the ordering the paper's Fig. 6a and
the virtual-time model both give, or if the traced `rpc_create` run made
more object-store calls than a few per mdlog segment (`rados.store.calls` >
4 x `mds.mdlog.segments` + 8): the journal's unit of I/O is the segment, and
a per-event write path reads 41 041 calls against 40 segments here, or if
any workload allocates more per op than its ceiling (`allocs_per_op`, an
exact count). Names cross the stack borrowed and a directory keeps its
dentries' names in 4 KiB blocks of its own, so no layer allocates per name
except the decoupled client's journal event; every ceiling sits just above
what is left and below what one copy of the name per op would add:

* `rpc_create` <= 0.3 (0.205: the bucket array each new latency window
  boxes, plus amortised growth). A per-layer copy of the name (the event,
  the history row, the span arg; 7.98 before the logs kept arenas) or a
  boxed dentry name (1.20) adds one per create.
* `decoupled_merge` <= 1.1 (1.036: the journal event's name). An eagerly
  built mirror or a `readdir` that clones every name (4.05 with both), or a
  boxed dentry name at merge (2.03), adds one per create.
* `open_loop_churn` <= 3.05 (3.004: each arrival's session, cap and process
  state). A boxed dentry name adds 0.92 (3.93).
* `namespace_mix` <= 3.0 (2.986). A boxed dentry name adds 0.26 (3.24),
  one per name a create, mkdir or rename links.
* `failover_recover` <= 1.15 (1.074 per recovered event). Decoding the
  journal into owned events adds a name per event, covered prefix included
  (3.40 before the borrowed parse); a boxed dentry name adds one per
  replayed event (2.03).

    benchmark/run.sh && scripts/bench_wallclock.py --pr 16
    scripts/bench_wallclock.py --check-only        # gate, write nothing
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = [
    "rpc_create",
    "decoupled_merge",
    "open_loop_churn",
    "namespace_mix",
    "failover_recover",
]

# `allocs_per_op` ceilings (see the docstring), with what a breach means.
ALLOC_CEILINGS = {
    "rpc_create": (0.3, "a per-layer copy of the name, or a box per dentry name, is back"),
    "decoupled_merge": (
        1.1,
        "beyond the journal event's name, a mirror, a cloning readdir or a box per "
        "merged dentry name is back",
    ),
    "open_loop_churn": (3.05, "a box per dentry name is back"),
    "namespace_mix": (3.0, "a box per dentry name is back"),
    "failover_recover": (
        1.15,
        "recovery decodes owned events again, or boxes each replayed dentry name",
    ),
}


def head_commit():
    """Short HEAD; `+` marks a tree with uncommitted changes on top of it."""
    rev = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"]).returncode != 0
    return rev + ("+" if dirty else "")


def row_from(results, commit, pr):
    for w in WORKLOADS:
        e2e = results["workloads"][w]["end_to_end"]
        if not e2e["correct"] or e2e["failed"]:
            sys.exit(f"{w}: output check failed, no row written")
    median = lambda w, part, m: results["workloads"][w][part]["metrics"][m]["median"]
    row = {
        "commit": commit,
        "machine": results["machine"],
        "seed": results["seed"],
        "seconds": results["seconds"],
        "calib_s": round(
            statistics.median(median(w, "per_layer", "e2e.calib_s") for w in WORKLOADS), 6
        ),
        "ops_per_s_norm": {w: round(median(w, "end_to_end", "ops_per_s_norm")) for w in WORKLOADS},
        "allocs_per_op": {w: round(median(w, "end_to_end", "allocs_per_op"), 4) for w in WORKLOADS},
    }
    if pr is not None:
        row = {"pr": pr, **row}
    return row


def write(path, doc):
    with open(path, "w") as f:
        f.write('{\n  "schema": "%s",\n  "rows": [\n' % doc["schema"])
        f.write(",\n".join("    " + json.dumps(r) for r in doc["rows"]))
        f.write("\n  ]\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", default="benchmark/out/results.json")
    ap.add_argument("--trajectory", default="BENCH_wallclock.json")
    ap.add_argument("--commit", help="commit the results were measured at (default: HEAD)")
    ap.add_argument("--pr", type=int, help="PR number to record with the row")
    ap.add_argument("--check-only", action="store_true", help="gate only, append nothing")
    args = ap.parse_args()

    with open(args.results) as f:
        results = json.load(f)
    row = row_from(results, args.commit or head_commit(), args.pr)
    if not args.check_only:
        try:
            with open(args.trajectory) as f:
                doc = json.load(f)
        except FileNotFoundError:
            doc = {"schema": "cudele-wallclock-trajectory/v1", "rows": []}
        doc["rows"].append(row)
        write(args.trajectory, doc)
        print(f"row {len(doc['rows'])} appended to {args.trajectory}")

    ops = row["ops_per_s_norm"]
    print("  ".join(f"{w} {ops[w]}" for w in WORKLOADS))
    if ops["decoupled_merge"] <= ops["rpc_create"]:
        sys.exit(
            f"decoupled_merge ({ops['decoupled_merge']} ops/s) is not faster than "
            f"rpc_create ({ops['rpc_create']} ops/s)"
        )
    traced = results["workloads"]["rpc_create"]["per_layer"]["metrics"]
    calls = traced["rados.store.calls"]["median"]
    segments = traced["mds.mdlog.segments"]["median"]
    print(f"rpc_create traced: {calls:.0f} store calls for {segments:.0f} mdlog segments")
    if calls > 4 * segments + 8:
        sys.exit(
            f"rpc_create made {calls:.0f} object-store calls for {segments:.0f} mdlog "
            f"segments (limit 4 x segments + 8): the journal is written per event again"
        )
    for w, (limit, why) in ALLOC_CEILINGS.items():
        allocs = row["allocs_per_op"][w]
        print(f"{w}: {allocs} allocations per op")
        if allocs > limit:
            sys.exit(f"{w} allocates {allocs} times per op (limit {limit}): {why}")


if __name__ == "__main__":
    main()
