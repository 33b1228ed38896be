"""Re-measure the single-layer figures quoted in ROADMAP item 1.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/layer_figures.py

Prints wall and process time per call for: a single-point
SphericalPoly.eval at d=8, distance_to_ball of a polynomial radial body,
certify_convex_radial at G=512 and G=2048, and a 200-sample find_epsilon
at G=512 (with the refined check) and at G=2048 (without); the two
solves take 100-115 s together.
"""

import time

import numpy as np

from convexsphere.bodies import certify_convex_radial, distance_to_ball
from convexsphere.fields import DEPTH_TOL, find_epsilon, radial_body, sample_unit_F
from convexsphere.sphere import build_grid


def timed(fn, repeat):
    w, c = time.perf_counter(), time.process_time()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - w) / repeat, (time.process_time() - c) / repeat


def main():
    g512, g2048 = build_grid(3), build_grid(3, 32)
    phi = sample_unit_F(3, 8, 1, 1, g512)[0]
    phi.eval(np.array([[0.0, 0.0, 1.0]]))
    x = np.random.default_rng(0).normal(size=(200, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    points = iter(x[i:i + 1] for i in range(200))
    rows = [("SphericalPoly.eval, one point, d=8", timed(lambda: phi.eval(next(points)), 150), 1e6, "us")]
    body = radial_body(g512, phi, 0.02)
    rows.append(("distance_to_ball, polynomial radial body", timed(lambda: distance_to_ball(body), 5), 1e3, "ms"))
    for g in (g512, g2048):
        p = sample_unit_F(3, 8, 1, 1, g)[0]
        b = radial_body(g, p, 0.02)
        rows.append((f"certify_convex_radial, G={g.size}",
                     timed(lambda: certify_convex_radial(b, tol=DEPTH_TOL * float(b.radial.max())), 10),
                     1e3, "ms"))
    rows.append(("find_epsilon, 200 samples, G=512 + refined check",
                 timed(lambda: find_epsilon(3, 200, seed=1, grid=g512), 1), 1.0, "s"))
    rows.append(("find_epsilon, 200 samples, G=2048",
                 timed(lambda: find_epsilon(3, 200, seed=1, grid=g2048, refined_check=False), 1),
                 1.0, "s"))
    for label, (wall, cpu), scale, unit in rows:
        print(f"{label:50s} wall {wall * scale:9.2f} {unit}   process {cpu * scale:9.2f} {unit}")


if __name__ == "__main__":
    main()
