"""The workloads: inputs made from a seed, one timed pass, and the
independent checks of a pass's outputs.

Each workload has `build` (grids and polynomial bases, the set-up layers),
`generate` (the seeded inputs), `run_pass` (the timed work, returning its
outputs and the number of failed operations), `check` (a list of errors)
and `digest` (what must repeat exactly from pass to pass). Library calls
go through module attributes, so the tracer's wrappers see them.
"""

import contextlib
import io
import itertools
import json
import math
import os

import numpy as np

import checks
from convexsphere import bodies, cli, fields, groups, polynomials, serialize, sphere
from convexsphere.errors import InputError

AREA = {3: 4.0 * math.pi, 4: 2.0 * math.pi ** 2}


def _quiet(fn, *args):
    """Run fn with its progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class Epsilon:
    """Criterion 5's three find_epsilon solves at 44 samples (one Haar
    rotation of each element of the 44-element spanning set of F^8), plus
    an n=4 bisection on the 2000-node grid without the refined check."""

    name = "epsilon"
    samples = {3: 44, 4: 16}

    def __init__(self, seed, tmp):
        self.seed = seed

    def build(self):
        self.g512 = sphere.build_grid(3)
        self.g2048 = sphere.build_grid(3, 32)
        self.g2000 = sphere.build_grid(4)
        for g in (self.g512, self.g2048, self.g2000):
            polynomials.get_basis(g.n, 8, g)

    def generate(self):
        s = self.seed
        self.solves = [
            (f"n3_G512_seed{s}", 3, s, self.g512, True),
            (f"n3_G512_seed{s + 1}", 3, s + 1, self.g512, True),
            (f"n3_G2048_seed{s}", 3, s, self.g2048, False),
            (f"n4_G2000_seed{s}", 4, s, self.g2000, False),
        ]

    ops_per_pass = 4

    def run_pass(self, out_dir):
        return [
            fields.find_epsilon(n, self.samples[n], seed, grid=g, refined_check=refined)
            for _, n, seed, g, refined in self.solves
        ], 0

    def digest(self, out):
        return [(m["eps_star"], m["eps_upper"], m.get("refined_pass_rate")) for m in out]

    def check(self, out):
        errors = []
        for (what, n, seed, g, _), man in zip(self.solves, out):
            phis = np.stack([p.samples for p in fields.sample_unit_F(n, 8, self.samples[n], seed, g)])
            errors += checks.check_epsilon(man, g.nodes, g.weights, g.antipode, AREA[n], phis, what)
        return errors


def _cube(n):
    return 0.5 * np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


def _polytope(rng, nodes, k=12, inradius=0.2):
    """k uniform points in the unit ball, redrawn until the hull holds the
    ball of radius `inradius` on the grid's directions."""
    while True:
        x = rng.normal(size=(k, nodes.shape[1]))
        x *= (rng.random(k) ** (1.0 / nodes.shape[1]) / np.linalg.norm(x, axis=1))[:, None]
        if (x @ nodes.T).max(axis=0).min() >= inradius:
            return x


class ExactBodies:
    """Polytopes and a Minkowski sum through the `metrics` and `symmetrize`
    subcommands, a cyclic group average, save/load round trips, and one
    load of a document edited after its hash was stamped. No polynomial
    is evaluated and no hull gap is scanned."""

    groups_poly = (("pm", 2), ("torus", 32))
    # 3 metrics runs, 2 symmetrize runs, the cyclic average, 2 round trips, the tampered load
    ops_per_pass = 3 + 2 + 1 + 2 + 1

    def __init__(self, seed, tmp):
        self.seed = seed
        self.dir = os.path.join(tmp, "inputs")

    def generate(self, grid):
        self.grid = grid
        rng = np.random.default_rng(self.seed)
        os.makedirs(self.dir, exist_ok=True)
        self.verts = {"cube3": _cube(3), "polyA": _polytope(rng, grid.nodes)}
        self.bodies = {k: bodies.from_vertices(grid, v) for k, v in self.verts.items()}
        self.bodies["ball3"] = bodies.ball(grid, 1.0)
        self.path = {k: os.path.join(self.dir, f"{k}.json") for k in self.bodies}
        for k, b in self.bodies.items():
            serialize.save_body(b, self.path[k])
        doc = _load(self.path["polyA"])
        doc["minkowski_terms"][0]["vertices"][0][0] += 0.25
        self.tampered = os.path.join(self.dir, "tampered.json")
        with open(self.tampered, "w") as fh:
            json.dump(doc, fh)
        if checks.report_hash(doc) == doc["content_hash"]:
            raise RuntimeError("tampered document still matches its hash")
        self.cyclic = groups.cyclic_rotation_group(3, (0, 1), 5)
        self.dirs = rng.normal(size=(64, 3))
        self.pairs = list(itertools.combinations(("cube3", "ball3", "polyA"), 2))

    def _cli(self, out_dir, label, argv):
        d = os.path.join(out_dir, label)
        rc = _quiet(cli.main, argv + [f"out={d}"])
        return rc, _load(os.path.join(d, f"{argv[0]}.json"))

    def run_pass(self, out_dir):
        out = {"cli": {}}
        p = self.path
        for a, b in self.pairs:
            out["cli"][f"metrics_{a}_{b}"] = self._cli(
                out_dir, f"metrics_{a}_{b}", ["metrics", f"body_a={p[a]}", f"body_b={p[b]}"])
        for tag, count in self.groups_poly:
            out["cli"][f"sym_polyA_{tag}"] = self._cli(
                out_dir, f"sym_polyA_{tag}",
                ["symmetrize", f"body={p['polyA']}", f"group={tag}", f"count={count}",
                 f"seed={self.seed}"])

        avg = bodies.group_average(self.bodies["polyA"], self.cyclic)
        out["cyclic_defect"] = bodies.invariance_defect(avg, self.cyclic)

        out["round_trips"] = {}
        for label, body in (("polyA", self.bodies["polyA"]), ("cyclic_avg", avg)):
            path = os.path.join(out_dir, f"round_trip_{label}.json")
            serialize.save_body(body, path)
            loaded = serialize.load_body(path)
            dirs = np.vstack([self.grid.nodes, self.dirs])
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            out["round_trips"][label] = (path, dirs, body.support_eval(dirs), loaded.support_eval(dirs))
        try:
            serialize.load_body(self.tampered)
            failed = 1
        except InputError:
            failed = 0
        return out, failed

    def digest(self, out):
        return sorted(
            (label, rc, sorted((k, v) for k, v in doc.items() if isinstance(v, float)))
            for label, (rc, doc) in out["cli"].items()
        ), out["cyclic_defect"]

    def check(self, out):
        errors = []
        reports = out["cli"]
        for label, (rc, doc) in reports.items():
            if rc != 0:
                errors.append(f"{label}: exit code {rc}")
            errors += checks.check_hash(doc, label)
        errors += checks.check_bm_cube_ball(reports["metrics_cube3_ball3"][1]["banach_mazur"])
        errors += checks.check_hausdorff(reports["metrics_cube3_polyA"][1]["hausdorff"],
                                         self.verts["cube3"], self.verts["polyA"],
                                         checks.mesh_gap(self.grid.nodes), "d_h(cube3,polyA)")
        errors += checks.check_triangle(
            {(a, b): reports[f"metrics_{a}_{b}"][1]["banach_mazur"] for a, b in self.pairs})
        errors += checks.check_defect(reports["sym_polyA_pm"][1]["defect_after"], "pm average")
        errors += checks.check_defect(out["cyclic_defect"], "cyclic average")
        for label, (path, dirs, saved, loaded) in out["round_trips"].items():
            doc = _load(path)
            errors += checks.check_hash(doc, f"round trip {label}")
            errors += checks.check_round_trip(doc, saved, loaded, dirs, f"round trip {label}")
        return errors


class Counterexample:
    """`convexsphere counterexample n=3 samples=12 seed=...` in-process,
    followed by the exact-body section (`ExactBodies`). Twelve samples keep
    a pass near 10 s, so a run's `run_s` is the median of three passes or
    more: single-point interpreted work swings with the host from one
    pass to the next by up to a quarter."""

    name = "counterexample"
    samples = 12

    def __init__(self, seed, tmp):
        self.seed = seed
        self.exact = ExactBodies(seed, tmp)

    def build(self):
        self.grid = sphere.build_grid(3)
        polynomials.get_basis(3, 8, self.grid)

    def generate(self):
        self.argv = ["counterexample", "n=3", f"samples={self.samples}", f"seed={self.seed}"]
        self.exact.generate(self.grid)

    ops_per_pass = 1 + ExactBodies.ops_per_pass

    def run_pass(self, out_dir):
        rc = _quiet(cli.main, self.argv + [f"out={out_dir}"])
        exact, failed = self.exact.run_pass(out_dir)
        return (rc, _load(os.path.join(out_dir, "counterexample.json")), exact), failed

    def digest(self, out):
        rc, doc, exact = out
        return rc, doc["eps"], doc.get("delta"), doc["certified"], self.exact.digest(exact)

    def check(self, out):
        rc, doc, exact = out
        phis = np.stack([p.samples for p in
                         fields.sample_unit_F(3, 8, self.samples, self.seed, self.grid)])
        bounds = checks.delta_bounds(self.grid.nodes, phis, doc["eps"])
        return checks.check_counterexample(rc, doc, self.samples, bounds) + self.exact.check(exact)


WORKLOADS = {w.name: w for w in (Epsilon, Counterexample)}
