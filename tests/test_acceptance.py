"""Acceptance suite: ten quantitative criteria, one per test.

Each test prints a single PASS/FAIL line (visible through pytest's
capture) with the measured numbers, asserts the stated tolerances, and
enforces its runtime budget. Criterion 5 additionally records the
certified epsilon and separation values as a JSON artifact instead of
hard-coding them, since those numbers are outputs of the pipeline.
"""

import json
import time

import numpy as np

from convexsphere.bivectors import invariant_plane_check, rho_pm, unit_pm, wedge_coeff
from convexsphere.bodies import (
    certify_convex_radial,
    check_c0_l2_bound,
    from_vertices,
    group_average,
    hausdorff,
    invariance_defect,
    random_polytope,
)
from convexsphere.fields import (
    DEPTH_TOL,
    QuadForm3,
    find_epsilon,
    octahedron,
    radial_body,
    rotate_body,
    sample_unit_F,
    separation_delta,
    thicken,
)
from convexsphere.fourier2d import sturm_hurwitz_count
from convexsphere.groups import random_rotations, sample_group
from convexsphere.mod2poly import Mod2SymPoly, stiefel_whitney_top, sw_product_chain
from convexsphere.polynomials import JoinPoint, join_product, rotate_poly
from convexsphere.sections import ellipsoid_family, round_section_search
from convexsphere.sphere import integrate

from oracles import set_hausdorff, sw_top_oracle


def _line(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


def _budget(capsys, num, t0, limit, ok, detail):
    dt = time.perf_counter() - t0
    _line(capsys, num, ok and dt < limit, f"{detail}  ({dt:.1f}s / {limit:.0f}s)")
    assert ok
    assert dt < limit


# -- 1: Hausdorff metric vs the set-distance oracle --------------------------


def test_criterion_01_hausdorff_matches_set_oracle(capsys, grid2, grid3):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = {2: 0.0, 3: 0.0}
    for grid in (grid2, grid3):
        n = grid.n
        for _ in range(50):
            ka, kb = rng.integers(n + 1, 7, size=2)
            a = random_polytope(grid, int(ka), rng)
            b = random_polytope(grid, int(kb), rng)
            got = hausdorff(a, b)
            want = set_hausdorff(a.terms[0], b.terms[0])
            worst[n] = max(worst[n], abs(got - want))
    # node sampling of sup|h_A - h_B| loses at most the Lipschitz
    # constant (<= 2 for bodies in the unit ball) times the mesh gap
    ok = worst[2] <= 2.0 * grid2.max_gap and worst[3] <= 2.0 * grid3.max_gap
    _budget(
        capsys, 1, t0, 60.0, ok,
        f"100 polytope pairs, worst |d_h - oracle|: "
        f"n=2 {worst[2]:.2e} (tol {2 * grid2.max_gap:.2e}), "
        f"n=3 {worst[3]:.2e} (tol {2 * grid3.max_gap:.2e})",
    )


# -- 2: C0 via L2 bound -------------------------------------------------------


def test_criterion_02_c0_l2_bound(capsys, grid2, grid3):
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    violations = 0
    ratios = []
    for grid in (grid2, grid3):
        n = grid.n
        for _ in range(1000):
            ka, kb = rng.integers(n + 1, 9, size=2)
            ra, rb = 0.2 + 0.8 * rng.random(2)
            a = random_polytope(grid, int(ka), rng, radius=float(ra))
            b = random_polytope(grid, int(kb), rng, radius=float(rb))
            res = check_c0_l2_bound(grid, a.support, b.support)
            violations += not res["ok"]
            if res["bound"] > 0:
                ratios.append(res["c0"] / res["bound"])
    ok = violations == 0
    _budget(
        capsys, 2, t0, 60.0, ok,
        f"2000 pairs (1000 each n=2,3), violations={violations}, "
        f"max c0/bound={max(ratios):.3f}",
    )


# -- 3: join points ------------------------------------------------------------


def test_criterion_03_join_points(capsys, grid3):
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    pool = sample_unit_F(3, 2, 1200, 33, grid3)
    joins = []
    bad = 0
    at = 0
    for i in range(1000):
        k = 1 + i % 3
        entries = []
        ts = rng.dirichlet(np.ones(k))
        for t in ts:
            entries.append((float(t), pool[at % len(pool)]))
            at += 1
        jp = JoinPoint(entries)
        out = join_product(jp)
        mean = out.mean
        var = integrate(grid3, (out.samples - mean) ** 2)
        good = (
            out.odd_part_norm() < 1e-8
            and abs(mean) < 1e-8
            and abs(out.norm - 1.0) < 1e-8
            and var > 1e-8
        )
        bad += not good
        joins.append(jp)

    equi = 0.0
    for j in range(100):
        jp = joins[j * 7 % len(joins)]
        r = random_rotations(3, 1, rng)[0]
        if j % 2:
            r = r @ np.diag([1.0, 1.0, -1.0])  # include reflections: O(3)
        rotated = JoinPoint([(t, rotate_poly(f, r)) for t, f in jp.entries])
        out_r = join_product(rotated)
        want = rotate_poly(join_product(jp), r)
        equi = max(equi, float(np.max(np.abs(out_r.samples - want.samples))))
    ok = bad == 0 and equi < 1e-8
    _budget(
        capsys, 3, t0, 120.0, ok,
        f"1000 joins all even/zero-mean/unit-norm/nonconstant "
        f"(failures={bad}), O(3)-equivariance defect {equi:.2e}",
    )


# -- 4: octahedron field -------------------------------------------------------


def test_criterion_04_octahedron(capsys, grid3):
    t0 = time.perf_counter()
    e = np.eye(3)

    q1 = QuadForm3(np.diag([2.0, 1.0, -3.0]))
    want1 = from_vertices(
        grid3, np.vstack([0.5 * e[0], -0.5 * e[0], 0.5 * e[1], -0.5 * e[1],
                          4.5 * e[2], -4.5 * e[2]])
    )
    ex1 = float(np.max(np.abs(octahedron(grid3, q1).support - want1.support)))

    q2 = QuadForm3(np.diag([1.0, 1.0, -2.0]))
    want2 = from_vertices(grid3, np.vstack([2.0 * e[2], -2.0 * e[2]]))
    ex2 = float(np.max(np.abs(octahedron(grid3, q2).support - want2.support)))

    q3 = QuadForm3(np.zeros((3, 3)))
    ex3 = float(np.max(np.abs(octahedron(grid3, q3).support)))

    rng = np.random.default_rng(44)
    equi = 0.0
    for _ in range(200):
        q = QuadForm3.random_unit(rng)
        r = random_rotations(3, 1, rng)[0]
        lhs = octahedron(grid3, QuadForm3.from_matrix(r @ q.matrix @ r.T))
        rhs = rotate_body(octahedron(grid3, q), r)
        equi = max(equi, hausdorff(lhs, rhs))

    # continuity across lam = mu: the (lam - mu)^2 pair lengths damp the
    # eigenvector instability, so d_h stays within K*(gap + perturbation)
    kmax = 0.0
    for delta in (0.0, 1e-3, 1e-2, 0.05, 0.1):
        for eta in (1e-3, 1e-2, 0.05):
            for _ in range(4):
                r0 = random_rotations(3, 1, rng)[0]
                base = r0 @ np.diag([1.0 + delta, 1.0, -2.0 - delta]) @ r0.T
                s = rng.normal(size=(3, 3))
                s = 0.5 * (s + s.T)
                s -= (np.trace(s) / 3.0) * np.eye(3)
                s /= np.linalg.norm(s)
                qa = QuadForm3(base)
                qb = QuadForm3.from_matrix(base + eta * s)
                dh = hausdorff(octahedron(grid3, qa), octahedron(grid3, qb))
                kmax = max(kmax, dh / (delta + eta))

    ok = ex1 < 1e-12 and ex2 < 1e-12 and ex3 == 0.0 and equi < 1e-8 and kmax <= 10.0
    _budget(
        capsys, 4, t0, 60.0, ok,
        f"examples exact ({max(ex1, ex2, ex3):.1e}), equivariance {equi:.2e}, "
        f"collision sweep K={kmax:.2f} (<= 10)",
    )


# -- 5: certified epsilon and separation --------------------------------------


def test_criterion_05_certified_epsilon(capsys, grid3, tmp_path):
    t0 = time.perf_counter()
    fine = grid3.refined()
    runs = {
        "seed1": find_epsilon(3, 200, seed=1, grid=grid3),
        "seed2": find_epsilon(3, 200, seed=2, grid=grid3),
        "refined": find_epsilon(3, 200, seed=1, grid=fine, refined_check=False),
    }
    record = {}
    for name, man in runs.items():
        grid = fine if name == "refined" else grid3
        seed = 2 if name == "seed2" else 1
        eps = man["eps_star"]
        phis = sample_unit_F(3, 8, 200, seed, grid)
        bodies = [radial_body(grid, p, eps) for p in phis]
        certified = sum(
            certify_convex_radial(b, tol=DEPTH_TOL * float(b.radial.max()))
            for b in bodies
        )
        delta = separation_delta(bodies)
        record[name] = {
            "eps_star": eps,
            "delta": delta,
            "certified": int(certified),
            "samples": 200,
            "resolution": grid.resolution,
        }
        if "refined_pass_rate" in man:
            record[name]["refined_pass_rate"] = man["refined_pass_rate"]

    artifact = tmp_path / "criterion5_epsilon.json"
    with open(artifact, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    e1, e2, er = (record[k]["eps_star"] for k in ("seed1", "seed2", "refined"))
    d1, d2, dr = (record[k]["delta"] for k in ("seed1", "seed2", "refined"))
    all_certified = all(record[k]["certified"] == 200 for k in record)
    deltas_positive = min(d1, d2, dr) > 0
    eps_stable = (
        abs(e1 - e2) <= 0.1 * max(e1, e2) and abs(e1 - er) <= 0.1 * max(e1, er)
    )
    delta_stable = (
        abs(d1 - d2) <= 0.1 * max(d1, d2) and abs(d1 - dr) <= 0.1 * max(d1, dr)
    )
    ok = all_certified and deltas_positive and eps_stable and delta_stable
    _budget(
        capsys, 5, t0, 600.0, ok,
        f"eps*={e1:.4f}/{e2:.4f}/refined {er:.4f}, "
        f"delta={d1:.4f}/{d2:.4f}/{dr:.4f}, 100% certified: {all_certified}, "
        f"artifact {artifact}",
    )


# -- 6: bivector suite ---------------------------------------------------------


def test_criterion_06_bivectors(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    hom = 0.0
    for _ in range(1000):
        r1, r2 = random_rotations(4, 2, rng)
        for sign in (+1, -1):
            lhs = rho_pm(r1 @ r2, sign)
            rhs = rho_pm(r1, sign) @ rho_pm(r2, sign)
            hom = max(hom, float(np.max(np.abs(lhs - rhs))))

    wedge = 0.0
    for _ in range(1000):
        wp = unit_pm(+1, rng.normal(size=3))
        wm = unit_pm(-1, rng.normal(size=3))
        wedge = max(
            wedge,
            abs(wedge_coeff(wp, wp) - 1.0),
            abs(wedge_coeff(wm, wm) + 1.0),
            abs(wedge_coeff(wp, wm)),
        )

    torus = sample_group("torus", 4, 60, seed=66)
    omega = unit_pm(+1, [1.0, 0.0, 0.0])
    reports = [invariant_plane_check(el, omega) for el in torus.elements]
    planes_ok = all(r["ok"] for r in reports)

    ok = hom < 1e-10 and wedge < 1e-10 and planes_ok
    _budget(
        capsys, 6, t0, 60.0, ok,
        f"homomorphism defect {hom:.2e}, wedge sign defect {wedge:.2e}, "
        f"block-torus invariant planes ok on 60 elements: {planes_ok}",
    )


# -- 7: round sections of ellipsoids ------------------------------------------


def test_criterion_07_round_sections(capsys):
    t0 = time.perf_counter()
    results = []
    for axes in [(1.0, 2.0, 3.0), (1.0, 1.1, 4.0), (0.5, 2.0, 2.5)]:
        out = round_section_search(ellipsoid_family(axes), d=8, tol=1e-10, seed=0)
        b = sorted(axes)[1]
        results.append(
            (axes, out["converged"], abs(out["radius"] - b), out["energy"])
        )
    ok = all(c and dr < 1e-6 and en < 1e-8 for _, c, dr, en in results)
    detail = ", ".join(
        f"{ax}: |r-b|={dr:.1e} E={en:.1e}" for ax, _, dr, en in results
    )
    _budget(capsys, 7, t0, 120.0, ok, detail)


# -- 8: Sturm-Hurwitz zero counts ----------------------------------------------


def test_criterion_08_sturm_hurwitz(capsys, grid2):
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    theta = grid2.angles
    qmax = 12
    failures = 0
    min_count = None
    for d in range(1, 6):
        for _ in range(100):
            qs = np.arange(d + 1, qmax + 1)
            aq = rng.normal(size=qs.size) * 0.1 / qs**3
            bq = rng.normal(size=qs.size) * 0.1 / qs**3
            # a0 dominates sum (q^2 - 1)|c_q| so h'' + h > 0: a genuine
            # support function with no harmonics below d + 1
            a0 = 1.0 + float(np.sum((qs**2 - 1) * (np.abs(aq) + np.abs(bq))))
            h = a0 + aq @ np.cos(np.outer(qs, theta)) + bq @ np.sin(
                np.outer(qs, theta)
            )
            count = sturm_hurwitz_count(h, level=a0)
            need = 2 * d + 2
            failures += count < need
            tight = count - need
            min_count = tight if min_count is None else min(min_count, tight)
    ok = failures == 0
    _budget(
        capsys, 8, t0, 60.0, ok,
        f"500 trials (d=1..5), zero counts all >= 2d+2, failures={failures}, "
        f"smallest slack {min_count}",
    )


# -- 9: mod-2 top classes -------------------------------------------------------


def test_criterion_09_mod2_classes(capsys):
    t0 = time.perf_counter()
    ones_bad = []
    for n in range(1, 5):
        for d in (1, 3, 5, 7):
            if stiefel_whitney_top(n, d).all_ones != 1:
                ones_bad.append((n, d))

    top23 = stiefel_whitney_top(2, 3).poly
    want23 = Mod2SymPoly.from_exponents(2, [(2, 2)])
    oracle23 = sw_top_oracle(2, 3)
    exact23 = top23 == want23 and set(map(tuple, top23.exponents())) == oracle23.monos

    chain_zero = []
    for n in range(1, 4):
        for d_max in (1, 3, 5):
            if sw_product_chain(n, d_max)["poly"].is_zero:
                chain_zero.append((n, d_max))

    ok = not ones_bad and exact23 and not chain_zero
    _budget(
        capsys, 9, t0, 120.0, ok,
        f"all-ones=1 for odd d<=7, n<=4 (bad: {ones_bad or 'none'}); "
        f"(2,3) = x1^2 x2^2 per oracle: {exact23}; "
        f"chains nonzero n<=3, d_max<=5 (zero: {chain_zero or 'none'})",
    )


# -- 10: symmetrization ---------------------------------------------------------


def _spike_pair(grid, a, rng):
    """Cube with one facet normal on a grid node plus a spike vertex at
    height (1 + a) above that facet; returns the body, its pm average,
    the node direction, and the rotation used."""
    n = grid.n
    u0 = grid.nodes[grid.size // 3]
    b = rng.normal(size=(n, n))
    b[:, 0] = u0
    q, _ = np.linalg.qr(b)
    q[:, 0] *= np.sign(q[:, 0] @ u0)
    rot = np.roll(q, -1, axis=1)  # last column is u0
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    corners = np.array(
        np.meshgrid(*([[-1.0, 1.0]] * n), indexing="ij")
    ).reshape(n, -1).T
    verts = np.vstack([corners, (1.0 + a) * np.eye(n)[-1]]) @ rot.T
    body = from_vertices(grid, verts)
    avg = group_average(body, sample_group("pm", n))
    return body, avg, u0, rot


def _odd_residual(n, rot, a, rings=320, az=512):
    """L2 norm of the odd support part of the spiked cube, via dense
    polar quadrature on the cap around the spike direction (the grid
    mesh is too coarse to resolve the cap for small a)."""
    tmax = np.arctan(a) * 1.02
    gl_x, gl_w = np.polynomial.legendre.leggauss(rings)
    th = 0.5 * tmax * (gl_x + 1.0)
    wth = 0.5 * tmax * gl_w
    if n == 2:
        # two arcs (theta and -theta) with equal contribution
        u = np.stack([np.sin(th), np.cos(th)], axis=1) @ rot.T
        s = np.maximum(0.0, (1.0 + a) * np.cos(th) - np.abs(u @ rot).sum(axis=1))
        return float(np.sqrt(2.0 * np.sum(s**2 / 2.0 * wth)))
    phi = 2.0 * np.pi * np.arange(az) / az
    wphi = 2.0 * np.pi / az
    ct, st = np.cos(th), np.sin(th)
    dirs = np.stack(
        [
            np.outer(st, np.cos(phi)),
            np.outer(st, np.sin(phi)),
            np.broadcast_to(ct[:, None], (rings, az)).copy(),
        ],
        axis=-1,
    ).reshape(-1, 3)
    u = dirs @ rot.T
    s = np.maximum(0.0, (1.0 + a) * dirs[:, 2] - np.abs(u @ rot).sum(axis=1))
    s2 = (s**2).reshape(rings, az)
    return float(np.sqrt(np.sum(s2.sum(axis=1) * wphi * st * wth) / 2.0))


def test_criterion_10_symmetrization(capsys, grid2, grid3, grid4):
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)

    # exact finite groups: pm on a shifted ball, a six-fold rotation
    # group (user tag) on a generic polygon; both go through the exact
    # Minkowski-term path
    shifted = thicken(from_vertices(grid3, np.array([[0.3, 0.0, 0.0]])), 1.0)
    pm3 = sample_group("pm", 3)
    exact1 = invariance_defect(group_average(shifted, pm3), pm3)
    angles = 2.0 * np.pi * np.arange(6) / 6.0
    c6 = sample_group(
        "user",
        2,
        elements=[
            np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            for a in angles
        ],
    )
    poly2 = random_polytope(grid2, 5, rng)
    exact2 = invariance_defect(group_average(poly2, c6), c6)

    # torus averaging of the 4-cube, 2000 lattice samples, defect
    # measured on a fresh 60-element sample from a different seed
    cube4 = from_vertices(
        grid4,
        0.5 * np.array(np.meshgrid(*([[-1.0, 1.0]] * 4), indexing="ij"))
        .reshape(4, -1).T,
    )
    torus = sample_group("torus", 4, 2000, seed=7)
    avg4 = group_average(cube4, torus)
    fresh = sample_group("torus", 4, 60, seed=8)
    torus_defect = invariance_defect(avg4, fresh)

    # residual-vs-d_h exponent: spike above a rotated cube facet gives
    # d_h = a/2 exactly at the node while the odd L2 mass scales like
    # a^((n+1)/2), so log d_h vs log residual has slope 2/(n+1)
    slopes = {}
    for grid in (grid2, grid3):
        n = grid.n
        ladder = np.geomspace(0.05, 0.4, 6)
        dhs, res = [], []
        for a in ladder:
            body, avg, u0, rot = _spike_pair(grid, float(a), rng)
            dh = hausdorff(body, avg)
            assert abs(dh - a / 2.0) < 1e-12
            dhs.append(dh)
            res.append(_odd_residual(n, rot, float(a)))
        slope = float(np.polyfit(np.log(res), np.log(dhs), 1)[0])
        slopes[n] = slope

    want2, want3 = 2.0 / 3.0, 0.5
    ok = (
        exact1 < 1e-10
        and exact2 < 1e-10
        and torus_defect < 1e-3
        and abs(slopes[2] - want2) <= 0.2 * want2
        and abs(slopes[3] - want3) <= 0.2 * want3
    )
    _budget(
        capsys, 10, t0, 300.0, ok,
        f"exact-group defects {exact1:.1e}/{exact2:.1e}, torus 4-cube defect "
        f"{torus_defect:.2e} (<1e-3), exponent fits n=2: {slopes[2]:.3f} "
        f"(want {want2:.3f}), n=3: {slopes[3]:.3f} (want {want3:.3f})",
    )
