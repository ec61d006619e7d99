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
* `open_loop_churn` <= 1.0 (0.303: amortised growth; 2.303 while each
  arrival's client built a cap-belief table and its session a range
  vector, 3.004 before that). A per-arrival allocation adds one per create
  (one create per arrival); a boxed dentry name adds 0.92.
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

With `--anchor-commit C` the outputs are triples instead, parent, change
and anchor in alternation, where the anchor is commit C: beside `paired`
the row records `vs_anchor`, the same figures for change over anchor, with
C as its `commit`. A product of per-PR pairs drifts from a direct pair
(x1.11-x1.16 on `rpc_create` over seven PRs) and misses every PR that
appended no row; a pair against the anchor does neither.

A row's absolute columns (`ops_per_s_norm` and the rest, `calib_s`) are
informational: they disagree across sessions on the same commit by as much
as x1.36, so a trend is read through pairs. `--chain` prints, per workload,
the product of `paired.ratio` from the newest row marked `"anchor": true`
through the last row: the speed of the last commit over the parent of the
anchor's pairs. It then prints the newest row's `vs_anchor`, and names
every PR in the git history since the oldest anchor row that appended no
row: its factor is in no chain. A re-anchor marks its paired row
`"anchor": true` (`--mark-anchor`).

    benchmark/run.sh && scripts/bench_wallclock.py --pr 16
    scripts/bench_wallclock.py --check-only        # gate, write nothing
    scripts/bench_wallclock.py --pr N --seed 7 --seconds 5 \
        --pairs parent1.out change1.out parent2.out change2.out ...
    scripts/bench_wallclock.py --pr N --seed 7 --seconds 5 \
        --anchor-commit 9676c3a --mark-anchor \
        --pairs parent1.out change1.out anchor1.out parent2.out ...
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
    "open_loop_churn": (
        1.0,
        "an arrival allocates on its own again (a client's cap-belief table, a "
        "session's range vector), or a box per dentry name is back",
    ),
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


def against(base, pairs):
    """How the change runs of `pairs` (base, change) fare against their
    `base` runs: the base's median and inter-quartile range of
    `ops_per_s_norm`, the median change/base ratio and the pairs won."""
    ops = lambda run: run[2]["ops_per_s_norm"]
    runs = [ops(b) for b, _ in pairs]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {
        base: round(statistics.median(runs)),
        f"{base}_iqr": round(q3 - q1),
        "ratio": round(statistics.median(ops(c) / ops(b) for b, c in pairs), 4),
        "pairs_won": sum(ops(c) > ops(b) for b, c in pairs),
        "pairs": len(pairs),
    }


def paired_row(paths, commit, pr, seed, seconds, anchor_commit):
    """A row from parent/change outputs in alternation (parent/change/anchor
    with `anchor_commit`): the change runs' medians, and per workload the
    pairs they won against the parent (and against the anchor)."""
    k = 2 if anchor_commit is None else 3
    if len(paths) % k:
        sys.exit(f"--pairs takes {k} outputs a group in alternation: a count divisible by {k}")
    runs = [parse_run(p) for p in paths]
    groups = {}
    for i in range(0, len(runs), k):
        (pw, *parent), (cw, *change), *anchor = runs[i : i + k]
        for other in [cw] + [a[0] for a in anchor]:
            if other != pw:
                sys.exit(f"{paths[i]}: a {pw} parent run grouped with a {other} run")
        groups.setdefault(pw, []).append((parent, change, [a[1:] for a in anchor]))
    workloads = [w for w in WORKLOADS if w in groups]
    med = lambda xs: statistics.median(xs)
    pairs = {w: [(p, c) for p, c, _ in groups[w]] for w in workloads}
    paired = {w: against("parent", pairs[w]) for w in workloads}
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
    if anchor_commit is not None:
        row["vs_anchor"] = {
            "commit": anchor_commit,
            **{w: against("anchor", [(a[0], c) for _, c, a in groups[w]]) for w in workloads},
        }
    if pr is not None:
        row = {"pr": pr, **row}
    return row


def history_prs():
    """PR numbers named by `PR N:` commit subjects in the git history, or
    None outside a git checkout."""
    log = subprocess.run(["git", "log", "--format=%s"], capture_output=True, text=True)
    if log.returncode != 0:
        return None
    return {int(m.group(1)) for m in re.finditer(r"^PR (\d+):", log.stdout, re.M)}


def chain(path):
    """Prints, per workload, the product of the paired ratios from the
    newest anchor row through the last row, then the newest `vs_anchor`,
    then the PRs since the oldest anchor that appended no row; exits 1
    without an anchor."""
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
    direct = [r for r in rows if "vs_anchor" in r]
    if direct:
        r = direct[-1]
        print(f"newest vs_anchor: {name(r)} over {r['vs_anchor']['commit']}")
        for w in WORKLOADS:
            if w in r["vs_anchor"]:
                a = r["vs_anchor"][w]
                print(f"{w}: x{a['ratio']} over {a['pairs']} runs, {a['pairs_won']} won")
    else:
        print("no row has a vs_anchor")
    prs = history_prs()
    if prs is None:
        print("not a git checkout: PRs with no row not named")
        return
    first = rows[anchors[0]].get("pr", 0)
    have = {r["pr"] for r in rows if "pr" in r}
    silent = sorted(n for n in prs if n > first and n not in have)
    print(f"PRs since PR {first} with no row: {', '.join(map(str, silent)) or 'none'}")


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
    ap.add_argument(
        "--anchor-commit",
        metavar="C",
        help="read --pairs as parent, change, anchor triples; the anchor is commit C",
    )
    ap.add_argument("--mark-anchor", action="store_true", help='mark the row "anchor": true')
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
        row = paired_row(args.pairs, commit, args.pr, args.seed, seconds, args.anchor_commit)
    elif args.anchor_commit:
        sys.exit("--anchor-commit reads --pairs outputs")
    else:
        row = row_from(results, commit, args.pr)
    if args.mark_anchor:
        row["anchor"] = True
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
        a = row.get("vs_anchor", {}).get(w)
        if a:
            print(f"{w}: x{a['ratio']} over the anchor, {a['pairs_won']} of {a['pairs']} won")
    traced = results["workloads"]["rpc_create"]["per_layer"]["metrics"] if results else None
    gate(row, traced)


if __name__ == "__main__":
    main()
