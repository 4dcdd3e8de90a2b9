#!/usr/bin/env python3
"""Paired A/B runs of paperbench: a base revision (A) against a head (B).

    python3 tools/ab.py --base HEAD~1             # B = this checkout as it is
    python3 tools/ab.py --base HEAD --head HEAD   # A/A: two checkouts of HEAD
    python3 tools/ab.py --base main --workloads wire_sync --seeds 11 12 13

Each revision named by --base or --head is exported with `git archive` into
a temporary directory outside the repository ($TMPDIR), and removed on exit.
Without --head, B is this checkout, uncommitted changes included. Every tree
runs its own paperbench/run.py, which builds it first. For each workload and
seed the runs go in ABBA order, and the result is read from each run's last
stdout line. A run pairs with the run of the other side next to it (A1-B1,
B2-A2). After a workload's pairs, each side makes one traced run on the
first seed.

The report gives, for each workload and each end-to-end metric of
BENCHMARK.json, the median B/A ratio over the pairs, the range of the pair
ratios, the median of each side, the quartiles of A's runs, the pairs B
wins (better than its A, ties counting for neither side), and the failed
ops of each side. A gain is claimed only when B wins at least nine tenths
of the pairs and B's median lies outside A's quartiles. From the
traced runs it gives every per-layer metric of BENCHMARK.json with both
values. It gives a B/A ratio only for counters and ratios: a timing (unit
ms or %) from one traced run per side is marked "1 pair", since a single
sample's spread can read as a change. Nothing is written under paperbench/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(rev, parent, label):
    """Writes the files `rev` commits to parent/label."""
    path = os.path.join(parent, label)
    os.mkdir(path)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path


def run_bench(tree, workload, seed, seconds, smoke=False, trace=0):
    """One run of `tree`'s paperbench; returns its result JSON or None."""
    cmd = [sys.executable, os.path.join(tree, "paperbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    # Its own process group, so an interrupted run takes paper_bench along.
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        if "metrics" in result:
            return result
    except (IndexError, ValueError):
        pass
    sys.stderr.write(err[-2000:])
    return None


def side_of(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if r is not None and metric in r.get("metrics", {})]


def failed_ops(results):
    """Failed ops over a side's runs; a run without a result counts as one."""
    return sum(1 if r is None else int(r.get("failed", 0)) for r in results)


def report(workload, seeds, seconds, pairs, metrics):
    a_runs = [a for a, _ in pairs]
    b_runs = [b for _, b in pairs]
    print("%s: %d seeds x ABBA, %g s; failed ops A=%d B=%d" %
          (workload, len(seeds), seconds, failed_ops(a_runs),
           failed_ops(b_runs)))
    print("  %-14s %-7s %9s %17s %11s %11s %19s %7s" %
          ("metric", "better", "median B/A", "pair range", "A median",
           "B median", "A quartiles", "B wins"))
    for m in metrics:
        name = m["name"]
        ratios = []
        wins = 0
        for a, b in pairs:
            if a is None or b is None:
                continue
            av = a["metrics"].get(name, {}).get("value")
            bv = b["metrics"].get(name, {}).get("value")
            if av is not None and bv is not None and av > 0:
                ratios.append(bv / av)
                wins += bv < av if m["better"] == "lower" else bv > av
        if not ratios:
            continue
        a_side = side_of(a_runs, name)
        q1, _, q3 = (statistics.quantiles(a_side, n=4) if len(a_side) > 1
                     else a_side * 3)
        print("  %-14s %-7s %9.3f %8.3f-%-8.3f %11.4g %11.4g %9.4g-%-9.4g "
              "%3d/%-3d" %
              (name, m["better"], statistics.median(ratios), min(ratios),
               max(ratios), statistics.median(a_side),
               statistics.median(side_of(b_runs, name)), q1, q3, wins,
               len(ratios)))
    sys.stdout.flush()


def report_layers(seed, a, b, metrics):
    """Per-layer metrics of one traced run per side; no ratio for timings."""
    print("  per layer, traced seed %d; failed ops A=%d B=%d" %
          (seed, failed_ops([a]), failed_ops([b])))
    print("  %-42s %-7s %11s %11s %9s" %
          ("metric", "better", "A", "B", "B/A"))
    for m in metrics:
        name = m["name"]
        av, bv = (r["metrics"].get(name, {}).get("value")
                  if r is not None else None for r in (a, b))
        if av is None and bv is None:
            continue
        if m["unit"] in ("ms", "%"):
            ratio = "%9s" % "1 pair"
        elif av and bv is not None:
            ratio = "%9.3f" % (bv / av)
        else:
            ratio = "%9s" % "-"
        print("  %-42s %-7s %11s %11s %s" %
              (name, m["better"], "-" if av is None else "%.4g" % av,
               "-" if bv is None else "%.4g" % bv, ratio))
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision for side A")
    parser.add_argument("--head", help="revision for side B "
                        "(default: this checkout as it is)")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=[11, 12, 13, 14])
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]

    # A terminated run still removes its trees (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    scratch = tempfile.mkdtemp(prefix="xq-ab-")
    try:
        tree_a = export_tree(args.base, scratch, "a")
        if args.head is None:
            tree_b = ROOT
        else:
            tree_b = export_tree(args.head, scratch, "b")
        print("A = %s (%s)\nB = %s (%s)" %
              (args.base, git("rev-parse", "--short", args.base),
               args.head or "this checkout",
               git("rev-parse", "--short", args.head or "HEAD")))
        # Build each tree and check its answers before any timed run.
        for tree in (tree_a, tree_b):
            if run_bench(tree, workloads[0], 1, 1, smoke=True) is None:
                print("ab: build or smoke run failed in %s" % tree)
                return 1
        for workload in workloads:
            pairs = []
            for seed in args.seeds:
                a1 = run_bench(tree_a, workload, seed, args.seconds)
                b1 = run_bench(tree_b, workload, seed, args.seconds)
                b2 = run_bench(tree_b, workload, seed, args.seconds)
                a2 = run_bench(tree_a, workload, seed, args.seconds)
                pairs += [(a1, b1), (a2, b2)]
            report(workload, args.seeds, args.seconds, pairs, metrics)
            seed = args.seeds[0]
            report_layers(
                seed,
                run_bench(tree_a, workload, seed, args.seconds, trace=1),
                run_bench(tree_b, workload, seed, args.seconds, trace=1),
                benchmark["per_layer"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
