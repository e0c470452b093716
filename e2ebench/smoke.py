#!/usr/bin/env python3
"""Short smoke run of the end-to-end benchmark.

    python3 e2ebench/smoke.py [--seconds 1]

Run from the repository root. Runs every workload briefly, untraced and
traced, and fails unless each run passed its correctness check with no
failed operation and printed every metric BENCHMARK.json names, with the
unit named there. It also checks the per-layer predictions recorded in
e2ebench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def check(workload, trace, result, spec):
    problems = []
    if result["correct"] is not True:
        problems.append("correctness check failed")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted={result['attempted']} failed={result['failed']}")
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"missing {m['name']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
    extra = set(result["metrics"]) - {m["name"] for m in spec}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    for p in problems:
        print(f"FAIL {workload} trace={trace}: {p}")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    layer = {}
    for w in (x["name"] for x in bench["workloads"]):
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(w, args.seconds, trace)
            ok &= check(w, trace, result, spec)
            if trace == 1:
                layer[w] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"ok {w} trace={trace}: attempted={result['attempted']}")

    def expect(cond, what):
        nonlocal ok
        print(("ok " if cond else "FAIL ") + what)
        ok &= cond

    wide = layer["wide_read"]["client.cached_entries_mean"]
    for w in ("write_wal", "cluster_forward"):
        expect(wide >= 4 * layer[w]["client.cached_entries_mean"],
               f"client.cached_entries_mean wide_read >= 4x {w}")
    for w in ("wide_read", "cluster_forward"):
        expect(all(v == 0 for k, v in layer[w].items() if k.startswith("wal.")),
               f"wal.* are 0 on {w}")
    expect(layer["write_wal"]["wal.bytes_per_write"] > 0,
           "wal.bytes_per_write > 0 on write_wal")
    for w, m in layer.items():
        positive = m["cluster.forwards_per_op"] > 0
        expect(positive == (w == "cluster_forward"),
               f"cluster.forwards_per_op > 0 only on cluster_forward ({w})")
    print("smoke: PASS" if ok else "smoke: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
