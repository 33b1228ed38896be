"""Tests of the benchmark's own output checks: each accepts a real result
and rejects a deliberately wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from convexsphere import bodies, fields, serialize, sphere  # noqa: E402


@pytest.fixture(scope="module")
def grid():
    return sphere.build_grid(3)


def _phis(grid, count, seed):
    return np.stack([p.samples for p in fields.sample_unit_F(3, 8, count, seed, grid)])


def test_epsilon_check_rejects_eps_star_above_eps_upper(grid):
    man = fields.find_epsilon(3, 4, seed=3, grid=grid, refined_check=False)
    phis = _phis(grid, 4, 3)
    args = (grid.nodes, grid.weights, grid.antipode, 4.0 * math.pi, phis, "eps")
    assert checks.check_epsilon(man, *args) == []
    wrong = dict(man, eps_star=1.5 * man["eps_upper"])
    assert checks.check_epsilon(wrong, *args)
    # a bracket that moved up together: eps_star no longer certifies
    shifted = dict(man, eps_star=man["eps_upper"], eps_upper=man["eps_upper"] * 1.000001)
    assert checks.check_epsilon(shifted, *args)


def test_epsilon_check_rejects_a_phi_that_is_not_unit(grid):
    phis = _phis(grid, 2, 5)
    assert checks.check_phis(phis, grid.weights, grid.antipode, 4.0 * math.pi, "phi") == []
    assert checks.check_phis(1.01 * phis, grid.weights, grid.antipode, 4.0 * math.pi, "phi")


def _report(**payload):
    doc = dict(payload, kind="report/counterexample")
    doc["content_hash"] = checks.report_hash(doc)
    return doc


def test_counterexample_check_rejects_delta_below_dense_bound(grid):
    eps = 0.02
    polys = fields.sample_unit_F(3, 8, 3, 11, grid)
    delta = fields.separation_delta([fields.radial_body(grid, p, eps) for p in polys])
    bounds = checks.delta_bounds(grid.nodes, np.stack([p.samples for p in polys]), eps)
    assert bounds[0] <= delta <= bounds[1]
    good = _report(certified=3, eps=eps, delta=delta)
    assert checks.check_counterexample(0, good, 3, bounds) == []
    low = _report(certified=3, eps=eps, delta=bounds[0] - 1e-4)
    assert checks.check_counterexample(0, low, 3, bounds)
    tampered = dict(good, delta=delta * 1.000001)
    assert checks.check_counterexample(0, tampered, 3, bounds)
    assert checks.check_counterexample(1, good, 3, bounds)


def test_round_trip_check_rejects_a_changed_vertex(grid, tmp_path):
    rng = np.random.default_rng(0)
    body = bodies.random_polytope(grid, 10, rng)
    path = str(tmp_path / "body.json")
    serialize.save_body(body, path)
    loaded = serialize.load_body(path)
    doc = json.loads(Path(path).read_text())
    dirs = np.vstack([grid.nodes, rng.normal(size=(16, 3))])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    saved_h, loaded_h = body.support_eval(dirs), loaded.support_eval(dirs)
    assert checks.check_round_trip(doc, saved_h, loaded_h, dirs, "rt") == []
    assert checks.check_hash(doc, "rt") == []
    doc["minkowski_terms"][0]["vertices"][0][1] += 1e-3
    assert checks.check_round_trip(doc, saved_h, loaded_h, dirs, "rt")
    assert checks.check_hash(doc, "rt")


def test_exact_body_checks_reject_wrong_values(grid):
    cube = 0.5 * np.array([[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)], float)
    assert checks.check_bm_cube_ball(math.log(math.sqrt(3.0))) == []
    assert checks.check_bm_cube_ball(math.log(math.sqrt(3.0)) + 1e-8)
    gap = checks.mesh_gap(grid.nodes)
    d_h = bodies.hausdorff(bodies.from_vertices(grid, cube), bodies.from_vertices(grid, 1.5 * cube))
    assert checks.check_hausdorff(d_h, cube, 1.5 * cube, gap, "d_h") == []
    assert checks.check_hausdorff(0.5 * math.sqrt(3.0) + 1e-6, cube, 1.5 * cube, gap, "d_h")
    assert checks.check_triangle({("a", "b"): 0.1, ("b", "c"): 0.1, ("a", "c"): 0.2}) == []
    assert checks.check_triangle({("a", "b"): 0.1, ("b", "c"): 0.1, ("a", "c"): 0.3})
    assert checks.check_defect(1e-13, "pm") == []
    assert checks.check_defect(1e-6, "pm")


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs a git checkout")
def test_a_run_leaves_git_status_clean():
    def status():
        return subprocess.run(["git", "status", "--porcelain", "--ignored=no"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout

    before = status()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "counterexample",
                           "--seed", "2", "--seconds", "1"], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # the tampered-document load is the one operation of ten per pass that may fail:
    # every time while load_body accepts it, never once load_body checks the hash
    assert result["correct"] and result["failed"] in (0, result["attempted"] // 10)
    assert status() == before
