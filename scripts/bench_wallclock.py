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
`rpc_create` allocates more than 2.5 times per create (`allocs_per_op`, an
exact count): a warm create owns its name once, in the dentry (1.20 with
amortised growth), and every layer that copies the name again — the event,
the history row, the span arg, the name buffer — adds one (7.98 before the
logs kept arenas), or if `decoupled_merge` allocates more than 2.5 times per
create: a decoupled create owns its name twice, in the client's journal event
and in the global dentry the merge makes (2.03 with amortised growth); a
third means an eagerly built local mirror or a `readdir` that clones every
name is back (4.05 with both).

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
    allocs = row["allocs_per_op"]["rpc_create"]
    print(f"rpc_create: {allocs} allocations per create")
    if allocs > 2.5:
        sys.exit(
            f"rpc_create allocates {allocs} times per create (limit 2.5): "
            f"a per-layer copy of the name is back"
        )
    allocs = row["allocs_per_op"]["decoupled_merge"]
    print(f"decoupled_merge: {allocs} allocations per create")
    if allocs > 2.5:
        sys.exit(
            f"decoupled_merge allocates {allocs} times per create (limit 2.5): "
            f"beyond the event and the global dentry, a mirror or a cloning readdir is back"
        )


if __name__ == "__main__":
    main()
