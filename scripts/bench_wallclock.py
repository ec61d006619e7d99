#!/usr/bin/env python3
"""Append one row of the host-time benchmark to the committed trajectory.

Reads `benchmark/out/results.json` (what `benchmark/run.sh` writes), appends
one row to `BENCH_wallclock.json` — commit, machine fingerprint, calibration
seconds, and per workload the `ops_per_s_norm`, `allocs_per_op`,
`alloc_bytes_per_op` and `peak_live_mb` medians — and exits 1 if the decoupled route is not faster than the RPC route
(`decoupled_merge` <= `rpc_create`), the ordering the paper's Fig. 6a and
the virtual-time model both give, or if the traced `rpc_create` run made
more object-store calls than a few per mdlog segment (`rados.store.calls` >
4 x `mds.mdlog.segments` + 8): the journal's unit of I/O is the segment, and
a per-event write path reads 41 041 calls against 40 segments here, or if
any workload allocates more often, or more bytes, per op than its ceiling
(`allocs_per_op` and `alloc_bytes_per_op`, both exact). Names cross the stack borrowed and a directory keeps its
dentries' names in 4 KiB blocks of its own, so no layer allocates per name
except the decoupled client's journal event; every ceiling sits just above
what is left and below what one copy of the name per op would add:

* `rpc_create` <= 0.3 (0.042: amortised growth; 0.204 while each new
  latency window boxed its sketch). A per-layer copy of the name (the event,
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

The byte ceilings (`alloc_bytes_per_op`) hold the obs logs packed and the
inode table dense. A span is ≈ 13 bytes of one byte stream and a create's
history row ≈ 35; stored as fixed-width rows they were a 56-byte span plus
a 16-byte arg entry each and a 96-byte row. The inode table keeps its
96-byte inodes in 1 024-entry chunks that never move under an 8-byte index;
as a hash map of 96-byte buckets it re-copied every inode at each doubling.
Every ceiling sits above what is left and below what either regression
costs:

* `rpc_create` <= 1 000 (796 with inline window sketches, 872 with the
  dense inode table, 994 as a hash map; 1 719 with the logs as rows, ≈ 7
  spans and a row per create).
* `decoupled_merge` <= 600 (522 dense; 632 as a hash map; 842 with the
  logs as rows). Its spans are per batch, not per create, so the inode
  table is a larger share of its bytes than the logs.
* `open_loop_churn` <= 2 700 (2 281, 2 329 before; 3 671), the logs at
  capacity.
* `namespace_mix` <= 950 (759, 802 before; 1 379).
* `failover_recover` <= 450 (414 either way: its timed region records
  neither log). Its bytes are the recovery's own — stripe reads, rebuilt
  tables, the snapshots' paths — so a breach means recovery copies more per
  event, an owned decode of the covered prefix for one.

A row can also be built from paired runs, which is how a change's speed is
read on a box that drifts: `--pairs` takes the stdout of `cudele-benchmark
--workload W --trace 0` runs in alternation, parent then change, any mix of
workloads. The row's medians are the change runs'; beside them, per
workload, `paired` records the parent's median and inter-quartile range of
`ops_per_s_norm`, the median change/parent ratio over the pairs,
`pairs_won` (pairs where the change was faster) and `pairs`.

A row's absolute columns (`ops_per_s_norm` and the rest, `calib_s`) are
informational: they disagree across sessions on the same commit by as much
as x1.36, so a trend is read through pairs. `--chain` prints, per workload,
the product of `paired.ratio` from the newest row marked `"anchor": true`
through the last row: the speed of the last commit over the parent of the
anchor's pairs. A re-anchor marks its paired row `"anchor": true`.

    benchmark/run.sh && scripts/bench_wallclock.py --pr 16
    scripts/bench_wallclock.py --check-only        # gate, write nothing
    scripts/bench_wallclock.py --pr N --seed 7 --seconds 5 \
        --pairs parent1.out change1.out parent2.out change2.out ...
    scripts/bench_wallclock.py --chain             # read the trajectory only
"""

import argparse
import json
import os
import re
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


# `alloc_bytes_per_op` ceilings (see the docstring), with what a breach means.
BYTE_CEILINGS = {
    "rpc_create": (
        1000,
        "the inode table re-copies its inodes as it grows (a rehashed map), or a span or "
        "a history row is stored fixed-width again",
    ),
    "decoupled_merge": (
        600,
        "the inode table re-copies its inodes as it grows (a rehashed map), or a span or "
        "a history row is stored fixed-width again",
    ),
    "open_loop_churn": (2700, "a span or a history row is stored fixed-width again"),
    "namespace_mix": (950, "a span or a history row is stored fixed-width again"),
    "failover_recover": (450, "recovery copies more per event, an owned decode for one"),
}

E2E = ["ops_per_s_norm", "allocs_per_op", "alloc_bytes_per_op", "peak_live_mb"]
DIGITS = {"ops_per_s_norm": 0, "allocs_per_op": 4, "alloc_bytes_per_op": 1, "peak_live_mb": 3}


def rounded(metric, v):
    return round(v) if DIGITS[metric] == 0 else round(v, DIGITS[metric])


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
        **{
            m: {w: rounded(m, median(w, "end_to_end", m)) for w in WORKLOADS}
            for m in E2E
        },
    }
    if pr is not None:
        row = {"pr": pr, **row}
    return row


def parse_run(path):
    """One `cudele-benchmark --workload W --trace 0` stdout: the workload,
    its calibration reading and its end-to-end metric values."""
    with open(path) as f:
        text = f.read()
    head = re.search(
        r"^# (\w+): raw .* calibration kernel ([0-9.]+) s \(reference ([0-9.]+) s\)$",
        text,
        re.M,
    )
    if head is None:
        sys.exit(f"{path}: not the output of one untraced cudele-benchmark workload")
    doc = json.loads(text.strip().splitlines()[-1])
    if not doc["correct"] or doc["failed"]:
        sys.exit(f"{path}: output check failed, no row written")
    values = {m: v["value"] for m, v in doc["metrics"].items()}
    return head.group(1), float(head.group(2)), float(head.group(3)), values


def paired_row(paths, commit, pr, seed, seconds):
    """A row from parent/change outputs in alternation: the change runs'
    medians, and per workload the pairs they won against the parent."""
    if len(paths) % 2:
        sys.exit("--pairs takes parent and change outputs in alternation: an even count")
    runs = [parse_run(p) for p in paths]
    pairs = {}
    for (pw, *parent), (cw, *change), path in zip(runs[::2], runs[1::2], paths[1::2]):
        if pw != cw:
            sys.exit(f"{path}: a {cw} run paired with a {pw} parent run")
        pairs.setdefault(pw, []).append((parent, change))
    workloads = [w for w in WORKLOADS if w in pairs]
    med = lambda xs: statistics.median(xs)
    ops = lambda run: run[2]["ops_per_s_norm"]
    paired = {}
    for w in workloads:
        parent = [ops(p) for p, _ in pairs[w]]
        q1, _, q3 = (
            statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
        )
        paired[w] = {
            "parent": round(med(parent)),
            "parent_iqr": round(q3 - q1),
            "ratio": round(med(ops(c) / ops(p) for p, c in pairs[w]), 4),
            "pairs_won": sum(ops(c) > ops(p) for p, c in pairs[w]),
            "pairs": len(pairs[w]),
        }
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    reference = runs[0][2]
    row = {
        "commit": commit,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu, "calib_reference_s": reference},
        "seed": seed,
        "seconds": seconds,
        "calib_s": round(med(c[0] for w in workloads for _, c in pairs[w]), 6),
        **{
            m: {w: rounded(m, med(c[2][m] for _, c in pairs[w])) for w in workloads}
            for m in E2E
        },
        "paired": paired,
    }
    if pr is not None:
        row = {"pr": pr, **row}
    return row


def chain(path):
    """Prints, per workload, the product of the paired ratios from the
    newest anchor row through the last row; exits 1 without an anchor."""
    with open(path) as f:
        rows = json.load(f)["rows"]
    anchors = [i for i, r in enumerate(rows) if r.get("anchor")]
    if not anchors:
        sys.exit(f"{path}: no row is marked \"anchor\": true")
    links = rows[anchors[-1]:]
    name = lambda r: f"PR {r['pr']}" if "pr" in r else r["commit"]
    print(f"chain of {len(links)} paired rows, {name(links[0])} (anchor) to {name(links[-1])}")
    for w in WORKLOADS:
        missing = [name(r) for r in links if w not in r.get("paired", {})]
        if missing:
            print(f"{w}: broken, no pairs in {', '.join(missing)}")
            continue
        ratios = [r["paired"][w]["ratio"] for r in links]
        product = 1.0
        for x in ratios:
            product *= x
        print(f"{w}: x{product:.4f} ({' x '.join(str(x) for x in ratios)})")


def write(path, doc):
    with open(path, "w") as f:
        f.write('{\n  "schema": "%s",\n  "rows": [\n' % doc["schema"])
        f.write(",\n".join("    " + json.dumps(r) for r in doc["rows"]))
        f.write("\n  ]\n}\n")


def gate(row, traced):
    """Exits 1 on the first breach; `traced` is the traced `rpc_create`
    run's per-layer metrics, or None when the row was built without one."""
    ops = row["ops_per_s_norm"]
    print("  ".join(f"{w} {ops[w]}" for w in WORKLOADS if w in ops))
    if {"decoupled_merge", "rpc_create"} <= ops.keys() and ops["decoupled_merge"] <= ops["rpc_create"]:
        sys.exit(
            f"decoupled_merge ({ops['decoupled_merge']} ops/s) is not faster than "
            f"rpc_create ({ops['rpc_create']} ops/s)"
        )
    if traced is not None:
        calls = traced["rados.store.calls"]["median"]
        segments = traced["mds.mdlog.segments"]["median"]
        print(f"rpc_create traced: {calls:.0f} store calls for {segments:.0f} mdlog segments")
        if calls > 4 * segments + 8:
            sys.exit(
                f"rpc_create made {calls:.0f} object-store calls for {segments:.0f} mdlog "
                f"segments (limit 4 x segments + 8): the journal is written per event again"
            )
    for metric, ceilings, what in [
        ("allocs_per_op", ALLOC_CEILINGS, "allocates {v} times per op"),
        ("alloc_bytes_per_op", BYTE_CEILINGS, "allocates {v} bytes per op"),
    ]:
        for w, (limit, why) in ceilings.items():
            if w not in row[metric]:
                continue
            v = row[metric][w]
            print(f"{w}: {metric} {v}")
            if v > limit:
                sys.exit(f"{w} {what.format(v=v)} (limit {limit}): {why}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", help="results.json to read (default: benchmark/out/results.json)")
    ap.add_argument("--trajectory", default="BENCH_wallclock.json")
    ap.add_argument("--commit", help="commit the results were measured at (default: HEAD)")
    ap.add_argument("--pr", type=int, help="PR number to record with the row")
    ap.add_argument("--check-only", action="store_true", help="gate only, append nothing")
    ap.add_argument(
        "--pairs",
        nargs="+",
        metavar="OUT",
        help="untraced single-workload outputs, parent then change, in alternation",
    )
    ap.add_argument("--seed", type=int, help="the paired runs' --seed")
    ap.add_argument("--seconds", type=float, help="the paired runs' --seconds")
    ap.add_argument(
        "--chain", action="store_true", help="print the paired ratios chained since the anchor"
    )
    args = ap.parse_args()

    if args.chain:
        chain(args.trajectory)
        return

    commit = args.commit or head_commit()
    results = None
    if args.results or not args.pairs:
        with open(args.results or "benchmark/out/results.json") as f:
            results = json.load(f)
    if args.pairs:
        if args.seed is None or args.seconds is None:
            sys.exit("--pairs needs the runs' --seed and --seconds")
        seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
        row = paired_row(args.pairs, commit, args.pr, args.seed, seconds)
    else:
        row = row_from(results, commit, args.pr)
    if not args.check_only:
        try:
            with open(args.trajectory) as f:
                doc = json.load(f)
        except FileNotFoundError:
            doc = {"schema": "cudele-wallclock-trajectory/v1", "rows": []}
        doc["rows"].append(row)
        write(args.trajectory, doc)
        print(f"row {len(doc['rows'])} appended to {args.trajectory}")
    for w, p in row.get("paired", {}).items():
        print(
            f"{w}: x{p['ratio']} over {p['pairs']} pairs, {p['pairs_won']} won "
            f"(parent {p['parent']}, IQR {p['parent_iqr']})"
        )
    traced = results["workloads"]["rpc_create"]["per_layer"]["metrics"] if results else None
    gate(row, traced)


if __name__ == "__main__":
    main()
