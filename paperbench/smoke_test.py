#!/usr/bin/env python3
"""Smoke test of paper_bench: every workload, untraced and traced, on a tiny
corpus with every answer check on.

    python3 paperbench/smoke_test.py <path to paper_bench>

Checks the result line's shape against BENCHMARK.json, that no op failed,
that the traced layer self times cover the op time, that traced ops carry
the program's own spans, and that the counter-based per-layer metrics repeat
exactly across two same-seed runs.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))

# Spans the program records in the calls each traced op makes, by root.
PROGRAM_SPANS = {
    "op.xq.keyword": {"xq.parse", "xq.translate", "xq.execute", "sql.plan",
                      "sql.execute"},
    "op.xq.join": {"xq.execute", "sql.execute", "xq.tag"},
    "op.wire": {"client.encode", "client.send", "client.rtt",
                "client.decode"},
    "setup.load": {"hounds.transform", "hounds.shred"},
}

# Counter-based metrics that must repeat exactly for the same seed.
EXACT = ["sql.rows_fetched_per_result_row.keyword",
         "sql.rows_fetched_per_result_row.subtree",
         "sql.rows_fetched_per_result_row.join",
         "sql.cost_based_plans", "sql.rule_based_plans",
         "exec.pool_tasks_per_query", "xomatiq.statements_per_query"]


def run(binary, workload, trace, seed, work):
    spans = os.path.join(work, "spans.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--smoke",
           "--work-dir", work, "--spans", spans]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=120)
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, (workload, trace, done.stdout)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in spec] == list(result["metrics"]), (
        sorted(set(m["name"] for m in spec) ^ set(result["metrics"])))
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    if trace:
        check_spans(json.load(open(spans))["traceEvents"])
    return result["metrics"]


def check_spans(events):
    ops = {}
    for e in events:
        ops.setdefault(e["args"]["op"], []).append(e)
    names = {}  # root name -> names of the spans under such roots
    for op in ops.values():
        assert op[0]["args"]["parent"] == 0, op[0]
        names.setdefault(op[0]["name"], set()).update(e["name"] for e in op[1:])
    for root, want in PROGRAM_SPANS.items():
        assert want <= names.get(root, set()), (root, names.get(root))


def main():
    binary = sys.argv[1]
    with tempfile.TemporaryDirectory() as work:
        for workload in [w["name"] for w in SPEC["workloads"]]:
            e2e = run(binary, workload, 0, 7, work)
            for m in SPEC["end_to_end"]:
                assert e2e[m["name"]]["value"] > 0, (workload, m["name"])
            first = run(binary, workload, 1, 7, work)
            share = first["trace.self_time_share"]["value"]
            assert share >= 0.95, (workload, share)
            if workload != "wire_sync":
                second = run(binary, workload, 1, 7, work)
                for name in EXACT:
                    assert first[name] == second[name], (workload, name)
            print("ok", workload)
        bad = subprocess.run([binary, "--workload", "nonsense", "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert bad.returncode != 0 and not bad.stdout
    return 0


if __name__ == "__main__":
    sys.exit(main())
