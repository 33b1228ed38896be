"""Benchmark of convexsphere's certified-epsilon, counterexample and
exact-body pipelines; see README.md in this directory.

    python3 perfbench/run.py --workload epsilon --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. Each workload runs in its own worker
process with PYTHONPATH set to the checkout's `src`, OpenBLAS limited to
one thread, and every output under a temporary directory in
`.bench_build/perfbench` that is removed afterwards. With --trace 0 the
result holds the end-to-end metrics (set-up time as the median of five
worker starts, two before the timed one and two after); with
--trace 1 it holds the per-layer metrics named in BENCHMARK.json. The
last stdout line is the result object.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 5
#: OpenBLAS threads per worker. A second thread busy-waits between calls
#: (process time 1.3-2x wall even where the matrices are tiny) beside the
#: interpreter; run interleaved over seven seeds, the exact-body operations
#: were faster and half as spread with one thread, epsilon 2-9% slower.
BLAS_THREADS = "1"


def source_revision():
    """git revision when the checkout is a repository, and a hash of src/."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": h.hexdigest()[:16]}


def worker(args, tmp, env, deadline, extra):
    """Start worker.py, wait for it; returns (start time, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--tmp", tmp] + extra
    t = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return t, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    start = time.monotonic()
    # on SIGTERM, unwind: subprocess.run kills and reaps the worker, `finally` cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    # a run is its passes (they end by --seconds unless one pass is longer),
    # set-up and checks; a traced run makes one untraced and one traced pass,
    # about 55 s on epsilon, however short --seconds is
    deadline = start + 2 * max(args.seconds, 50) + 60

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "convexsphere" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no convexsphere source tree and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_build" / "perfbench"
    work_dir.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_dir)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS,
               CONVEXSPHERE_OUT=tmp)
    setups = []

    def setup_starts(first, last):
        for i in range(first, last):
            t, ready = worker(args, os.path.join(tmp, f"setup{i}"), env, deadline, ["--setup-only"])
            setups.append(ready["ready"] - t)

    try:
        # the host runs fast or slow for tens of seconds at a time, and starts
        # in a row go alike: take half of them before the timed run, half after
        half = (SETUP_STARTS - 1) // 2 if not args.trace else 0
        setup_starts(0, half)
        spans = work_dir / f"spans-{args.workload}-seed{args.seed}.json"
        t, res = worker(args, os.path.join(tmp, "run"), env, deadline,
                        ["--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--spans", str(spans)])
        setups.append(res["ready"] - t)
        setup_starts(half, 2 * half)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = dict(res["record"], **source_revision(), workload=args.workload)
    print("record " + json.dumps(record, sort_keys=True))
    print("passes " + json.dumps({"setup_s": setups, "wall_s": res["pass_s"],
                                  "process_s": res["pass_cpu_s"]}))
    for err in res["errors"]:
        print("check failed: " + err)
    if args.trace:
        values = res["layers"]
        names = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(res["pass_s"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        names = spec["end_to_end"]
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
