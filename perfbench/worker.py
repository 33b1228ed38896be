"""One workload in its own process: set up, run timed passes, check.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.
With --setup-only it exits once the inputs are ready; otherwise it runs
passes of the workload until --seconds is used up (at least one), then
checks the first pass's outputs and that every later pass repeated them.
With --trace 1 the first pass runs untraced and the later ones traced.
The last stdout line is a JSON object for run.py.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np
import scipy

import convexsphere
from convexsphere import backend

if not Path(convexsphere.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"convexsphere imported from {convexsphere.__file__}, not from {ROOT / 'src'}")

from tracing import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "backend": backend.backend_name(),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", help="file for the last traced pass's spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = Tracer()
    if args.trace:
        install(tracer)
    work = WORKLOADS[args.workload](args.seed, args.tmp)
    tracer.active = bool(args.trace)
    work.build()
    tracer.active = False
    setup_layers = {k: v for k, v in layer_metrics(tracer, 0.0).items()
                    if k.startswith(("sphere.build_grid", "polynomials.get_basis"))}
    tracer.reset()
    work.generate()
    ready = time.time()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    pass_s, pass_cpu_s, traced, traced_s, outputs = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced_pass = bool(args.trace) and len(pass_s) > 0
        out_dir = os.path.join(args.tmp, f"pass{len(pass_s)}")
        os.makedirs(out_dir)
        tracer.reset()
        tracer.active = traced_pass
        t, cpu, virtual = time.perf_counter(), time.process_time(), tracer.now()
        out, nfail = work.run_pass(out_dir)
        dt = time.perf_counter() - t
        pass_cpu_s.append(time.process_time() - cpu)
        virtual = tracer.now() - virtual  # the pass without the tracer's bookkeeping
        tracer.active = False
        pass_s.append(dt)
        outputs.append(work.digest(out))
        if len(pass_s) == 1:
            first = out
        attempted += work.ops_per_pass
        failed += nfail
        if traced_pass:
            traced.append(layer_metrics(tracer, virtual))
            traced_s.append(virtual)
        done = not args.trace or traced
        if done and time.perf_counter() - start + dt > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = work.check(first)
    if any(o != outputs[0] for o in outputs):
        errors.append("passes over the same inputs gave different outputs")

    layers = None
    if args.trace:
        layers = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        for k, v in setup_layers.items():
            layers[k] += v
        # the span wrappers' cost alone: the census and other bookkeeping are off `virtual`
        layers["trace.overhead_s"] = statistics.median(traced_s) - pass_s[0]
        if args.spans:
            tracer.dump(args.spans)
        pass_s, pass_cpu_s = pass_s[:1], pass_cpu_s[:1]
    print(json.dumps({
        "ready": ready,
        "pass_s": pass_s,
        "pass_cpu_s": pass_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "layers": layers,
        "record": machine_record(args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
