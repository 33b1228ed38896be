"""Paired measurement of this checkout against a parent checkout; writes
BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT_DIR --label L --what TEXT [--pairs 10] [--seconds 20]

PARENT_DIR is a checkout of the parent commit (made with git archive or
git clone). For each seed (default 1 and 7) and both perfbench workloads
the script runs `perfbench/run.py` in the parent and in this checkout,
--pairs times, alternating which side runs first. It adds one traced
`epsilon` run per side, an in-process probe per side (the ring entries
and dense pairs each `epsilon` pass reduces in the two max-scan kernels,
and the hull scans of each of its solves; the find_epsilon decisions and values; the
counterexample report) and interleaved timings
of find_epsilon(3, 200, seed=1) on the 2048-node grid. Every run is one
process at a time.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("epsilon", "counterexample")
METRICS = ("setup_s", "run_s", "peak_rss_mb")
LAYERS = ("backend.hull_gaps.s", "backend.support_max_dot.s", "backend.hull_gaps.calls",
          "fields.find_epsilon.scans", "polynomials.rotate_poly.s", "polynomials.eval_batch.s",
          "polynomials.eval_batch.points", "fields.sample_unit_F.s")


def probe(seeds, out_dir):
    """In-process, on the convexsphere on PYTHONPATH: ring entries and
    dense pairs reduced, hull scans (hull_gaps calls) per solve and manifests of the epsilon
    workload's four solves at each seed, two more manifests, and the
    counterexample report's hash and values."""
    import collections
    import contextlib
    import io

    from convexsphere import backend, cli, fields, sphere

    pairs = collections.Counter()
    scanning = []  # the kernel that the ring entries and dense rows count for

    def counting(name):
        kernel = getattr(backend, name)

        def run(*args, **kwargs):
            pairs[name + "_calls"] += 1
            scanning.append(name)
            try:
                return kernel(*args, **kwargs)
            finally:
                scanning.pop()
        return run

    def ring_entries(*args):
        out = segments(*args)
        pairs[scanning[-1] + "_ring_entries"] += int(out[2].sum())
        return out

    def dense_pairs(rows, cols, *args, **kwargs):
        if scanning:
            pairs[scanning[-1] + "_dense_pairs"] += rows.shape[0] * cols.shape[1]
        return max_rows(rows, cols, *args, **kwargs)

    hooks = {"support_max_dot": counting("support_max_dot"), "hull_gaps": counting("hull_gaps"),
             "_ring_segments": ring_entries, "_max_rows": dense_pairs}
    # an older checkout, without the ring scans, counts calls only
    wrapped = {name: getattr(backend, name) for name in hooks if hasattr(backend, name)}
    segments, max_rows = wrapped.get("_ring_segments"), wrapped.get("_max_rows")
    for name in wrapped:
        setattr(backend, name, hooks[name])
    g512, g2048, g2000 = sphere.build_grid(3), sphere.build_grid(3, 32), sphere.build_grid(4)
    manifests, per_pass = [], {}
    for seed in seeds:
        pairs.clear()
        solves = [(3, 44, seed, g512, True), (3, 44, seed + 1, g512, True),
                  (3, 44, seed, g2048, False), (4, 16, seed, g2000, False)]
        scans = []
        for n, k, s, g, rc in solves:
            before = pairs["hull_gaps_calls"]
            manifests.append(fields.find_epsilon(n, k, s, grid=g, refined_check=rc))
            scans.append(pairs["hull_gaps_calls"] - before)
        per_pass[f"seed{seed}"] = dict(pairs, hull_scans_per_solve=scans)
    for name, kernel in wrapped.items():
        setattr(backend, name, kernel)
    manifests += [fields.find_epsilon(3, 40, seed=1), fields.find_epsilon(4, 12, seed=2)]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["counterexample", "n=3", "samples=200", "seed=1", f"out={out_dir}"])
    report = Path(out_dir, "counterexample.json").read_bytes()
    summary = json.loads(report)
    return {
        "epsilon_pass_pairs": per_pass,
        "decisions": [["".join("+" if ok else "-" for _, ok in m["history"]),
                       m["limiting_sample"], m.get("refined_pass_rate")] for m in manifests],
        "eps_star": [m["eps_star"] for m in manifests],
        "counterexample_sha256": hashlib.sha256(report).hexdigest(),
        "counterexample": {k: summary[k] for k in ("eps", "delta", "certified")},
    }


def time_solve():
    from convexsphere import fields, sphere

    grid = sphere.build_grid(3, 32)
    t = time.perf_counter()
    fields.find_epsilon(3, 200, seed=1, grid=grid)
    return time.perf_counter() - t


def child(side, *args):
    env = dict(os.environ, PYTHONPATH=str(side / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args], env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def bench(side, workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    record = json.loads(next(line for line in out if line.startswith("record "))[7:])
    result = json.loads(out[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return record, dict(values, failed=result["failed"], correct=result["correct"])


def summary(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(xs)}


def compare(pairs):
    parent, change = summary([p for p, _ in pairs]), summary([c for _, c in pairs])
    return {"parent": parent, "change": change,
            "median_change": round(change["median"] - parent["median"], 4),
            "parent_iqr": round(parent["q3"] - parent["q1"], 4),
            "pairs_parent_change": [[round(p, 4), round(c, 4)] for p, c in pairs],
            "change_better": f"{sum(c < p for p, c in pairs)}/{len(pairs)}"}


def lines(side, sub):
    return sum(len(f.read_text().splitlines()) for f in sorted((side / sub).rglob("*.py")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    ap.add_argument("--label", help="output file BENCH_<label>.json")
    ap.add_argument("--what", default="", help="the change measured, for the record")
    ap.add_argument("--probe", metavar="OUT_DIR")
    ap.add_argument("--time-solve", action="store_true")
    args = ap.parse_args()
    if args.probe:
        print(json.dumps(probe(args.seeds, args.probe)))
        return 0
    if args.time_solve:
        print(json.dumps(time_solve()))
        return 0
    if args.parent is None or args.label is None:
        ap.error("PARENT_DIR and --label are required")
    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    scratch = ROOT / ".bench_build" / "bench_pairs"

    end_to_end, records = {}, {}
    for seed in args.seeds:
        for w in WORKLOADS:
            runs = []
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                got = {}
                for s in order:
                    records[s], got[s] = bench(sides[s], w, seed, args.seconds)
                runs.append(got)
                print(w, seed, k, {s: got[s]["run_s"] for s in order}, file=sys.stderr, flush=True)
            end_to_end[f"{w}_seed{seed}"] = dict(
                {m: compare([(r["parent"][m], r["change"][m]) for r in runs]) for m in METRICS},
                failed={s: sum(r[s]["failed"] for r in runs) for s in sides})
    traced = {s: bench(sides[s], "epsilon", args.seeds[0], 0, trace=1)[1] for s in sides}
    traced = {s: {k: traced[s][k] for k in LAYERS} for s in sides}
    probes = {s: child(sides[s], "--probe", str(scratch / "cx"), "--seeds", *map(str, args.seeds))
              for s in sides}
    shutil.rmtree(scratch)
    solve = {s: [] for s in sides}
    for k in range(3):
        for s in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            solve[s].append(round(child(sides[s], "--time-solve"), 3))

    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
        "method": f"{args.pairs} interleaved parent/change pairs per workload and seed, the side "
                  "that runs first alternating; medians and quartiles (inclusive) of per-run values; "
                  "one traced epsilon run per side; ring entries, dense pairs and hull scans "
                  "counted in-process from the kernels' calls",
        "record": records["change"],
        "record_parent": records["parent"],
        "not_controlled": ["shared host: other tenants' load varies between and within runs",
                           "no CPU pinning or frequency control",
                           "one traced run per side, so layer times are single samples"],
        "end_to_end": end_to_end,
        "traced_epsilon": traced,
        "epsilon_pass_pairs": {s: probes[s]["epsilon_pass_pairs"] for s in sides},
        "same_answers": {
            "find_epsilon_decisions": probes["parent"]["decisions"] == probes["change"]["decisions"],
            "find_epsilon_solves": len(probes["change"]["decisions"]),
            "eps_star_bit_equal": sum(a == b for a, b in zip(*(probes[s]["eps_star"] for s in sides))),
            "eps_star_max_rel_change": max(abs(a - b) / a for a, b in
                                           zip(*(probes[s]["eps_star"] for s in sides))),
            "counterexample_report_identical": probes["parent"]["counterexample_sha256"]
            == probes["change"]["counterexample_sha256"],
            "counterexample": {s: probes[s]["counterexample"] for s in sides},
        },
        "find_epsilon_3_200_seed1_G2048_s": solve,
        "lines": {s: {d: lines(sides[s], d) for d in ("src", "tests")} for s in sides},
    }
    (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
