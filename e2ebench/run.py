#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds timedc-server and the e2e-driver load
generator from source (Release) into $CARGO_TARGET_DIR, or .bench_build when
unset, then runs one workload. The last line of standard output is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1). Lines before it start with
'#' and carry the run header, p99s and the correctness summary.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wide_read", "write_wal", "cluster_forward")
RUN_TIMEOUT_S = 170


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "tools/timedc_server.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"e2ebench: {needed} is missing; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "e2e-driver", "timedc-server"],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"e2ebench: build failed: {e}")

    work = os.path.join(build_dir, "runs",
                        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "e2e-driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-bin", os.path.join(build_dir, "timedc-server"),
           "--work-dir", work,
           "--trace-out", os.path.join(build_dir, f"trace-{args.workload}.json")]
    sys.stdout.flush()
    # The driver reaps its servers, and they die with it (PR_SET_PDEATHSIG)
    # if it is killed here.
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: driver exceeded {RUN_TIMEOUT_S} s")
    if rc == 0:
        shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
