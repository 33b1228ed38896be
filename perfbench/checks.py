"""Output checks that do not trust the program.

Everything here is plain numpy/scipy working on arrays and JSON
documents; nothing calls into convexsphere. Each check returns a list
of error strings, empty when the output is accepted.
"""

import hashlib
import itertools
import json
import math

import numpy as np
from scipy.optimize import nnls

#: Slack for round-off between the program's blocked kernels and the
#: full-matrix products here.
ROUND = 1e-12
BISECTION_STEPS = 18


def report_hash(doc: dict) -> str:
    """sha256 of the canonical JSON of a document without its hash field."""
    body = {k: v for k, v in doc.items() if k != "content_hash"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def check_hash(doc: dict, what: str) -> list:
    if doc.get("content_hash") != report_hash(doc):
        return [f"{what}: content_hash does not match the document"]
    return []


# -- epsilon -----------------------------------------------------------------


def hull_gaps_full(nodes, r):
    """gap_i = max_j <r_i u_i, u_j> - h_j with h_j = max_k <r_k u_k, u_j>,
    from one full G x G product."""
    dots = (r[:, None] * nodes) @ nodes.T
    return (dots - dots.max(axis=0)[None, :]).max(axis=1)


def passes_depth(nodes, phi, eps, depth_tol):
    """None when 1 + eps*phi is not positive, else whether every hull gap
    is at least -depth_tol * max r."""
    r = 1.0 + eps * phi
    if r.min() <= ROUND:
        return None
    return bool(hull_gaps_full(nodes, r).min() >= -depth_tol * float(r.max()) - ROUND)


def check_phis(phis, weights, antipode, area, what) -> list:
    """Each sample is even on the antipode map, has zero mean and unit L2
    norm under the grid weights; the weights sum to the sphere's area."""
    errors = []
    if abs(weights.sum() - area) > 1e-10 * area:
        errors.append(f"{what}: grid weights sum to {weights.sum()!r}, area is {area!r}")
    scale = float(np.abs(phis).max())
    odd = float(np.abs(phis - phis[:, antipode]).max())
    mean = np.abs(phis @ weights).max() / area
    l2 = np.sqrt((phis * phis) @ weights)
    if odd > 1e-10 * scale:
        errors.append(f"{what}: phi not even, odd part {odd:.3e}")
    if mean > 1e-10:
        errors.append(f"{what}: phi mean {mean:.3e} is not zero")
    if np.abs(l2 - 1.0).max() > 1e-9:
        errors.append(f"{what}: phi L2 norms in [{l2.min()!r}, {l2.max()!r}], expected 1")
    return errors


def check_epsilon(man: dict, nodes, weights, antipode, area, phis, what) -> list:
    """eps_star certifies every sample, eps_upper fails at least one, and
    the bracket is as narrow as 18 bisection steps make it."""
    errors = check_phis(phis, weights, antipode, area, what)
    lo, hi, cap, tol = man["eps_star"], man["eps_upper"], man["positivity_cap"], man["depth_tol"]
    if not 0.0 < lo <= hi <= cap:
        return errors + [f"{what}: need 0 < eps_star={lo!r} <= eps_upper={hi!r} <= cap={cap!r}"]
    if hi - lo > cap * 2.0 ** -BISECTION_STEPS * (1.0 + 1e-9):
        errors.append(f"{what}: bracket {hi - lo!r} wider than cap * 2^-{BISECTION_STEPS}")
    bad = [i for i, phi in enumerate(phis) if not passes_depth(nodes, phi, lo, tol)]
    if bad:
        errors.append(f"{what}: samples {bad[:5]} fail the depth test at eps_star={lo!r}")
    if all(passes_depth(nodes, phi, hi, tol) for phi in phis):
        errors.append(f"{what}: every sample passes at eps_upper={hi!r}")
    return errors


# -- counterexample ------------------------------------------------------------


def homogeneous_exponents(n: int, d: int):
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]


def _monomials(points, exps):
    d = max(sum(e) for e in exps)
    pw = [points[:, k][:, None] ** np.arange(d + 1)[None, :] for k in range(points.shape[1])]
    return np.column_stack([np.prod([pw[k][:, e[k]] for k in range(len(e))], axis=0) for e in exps])


def delta_bounds(nodes, phis, eps, d=8, rings=400):
    """Bracket of the separation delta = min_i log(max r_i / min r_i),
    r_i = 1 + eps*phi_i, from a degree-d homogeneous least-squares fit of
    each sample on the grid, evaluated on a dense latitude-longitude set.

    The dense values are attained values, so they bound the true extremes
    from inside. On a great circle a degree-d polynomial is a
    trigonometric polynomial of degree d, so |f''| <= d^2 ||f||_inf and
    the true extreme exceeds the nearest dense value by at most
    d^2 ||f||_inf rho^2 / 2, rho the dense set's covering radius
    (rho <= dtheta/2 + dphi/2 = pi/rings). Returns (lower, upper, fit
    residual)."""
    exps = homogeneous_exponents(nodes.shape[1], d)
    coef, *_ = np.linalg.lstsq(_monomials(nodes, exps), phis.T, rcond=None)
    resid = float(np.abs(_monomials(nodes, exps) @ coef - phis.T).max())
    hi = np.full(phis.shape[0], -np.inf)
    lo = np.full(phis.shape[0], np.inf)
    theta = (np.arange(rings // 2) + 0.5) * np.pi / rings   # upper hemisphere: phi is even
    az = np.arange(2 * rings) * np.pi / rings
    for a in range(0, theta.size, 25):
        t = theta[a:a + 25]
        pts = np.column_stack([
            np.outer(np.sin(t), np.cos(az)).ravel(),
            np.outer(np.sin(t), np.sin(az)).ravel(),
            np.repeat(np.cos(t), az.size),
        ])
        vals = _monomials(pts, exps) @ coef
        hi = np.maximum(hi, vals.max(axis=0))
        lo = np.minimum(lo, vals.min(axis=0))
    rho = np.pi / rings
    k = 0.5 * d * d * rho * rho
    sup = np.maximum(hi, -lo) / (1.0 - k) + resid
    slack = k * sup + resid
    lower = np.log((1.0 + eps * hi) / (1.0 + eps * lo))
    upper = np.log((1.0 + eps * (hi + slack)) / (1.0 + eps * (lo - slack)))
    return float(lower.min()), float(upper.min()), resid


def check_counterexample(rc, doc, samples, bounds) -> list:
    errors = []
    if rc != 0:
        errors.append(f"counterexample: exit code {rc}")
    errors += check_hash(doc, "counterexample report")
    if doc.get("certified") != samples:
        errors.append(f"counterexample: certified {doc.get('certified')} of {samples}")
    lower, upper, resid = bounds
    delta = doc.get("delta")
    if resid > 1e-9:
        errors.append(f"counterexample: profiles are not degree-8 polynomials (residual {resid:.2e})")
    if delta is None or not lower - ROUND <= delta <= upper + ROUND:
        errors.append(f"counterexample: delta={delta!r} outside the dense bracket "
                      f"[{lower!r}, {upper!r}]")
    return errors


# -- exact bodies --------------------------------------------------------------


def point_hull_distance(x, verts, weight=1e4):
    """Distance from x to conv(verts): non-negative least squares with the
    simplex constraint as a heavy extra row, then rescaled onto the
    simplex, so the value is attained and never below the true one."""
    a = np.vstack([verts.T, np.full(verts.shape[0], weight)])
    lam, _ = nnls(a, np.append(x, weight))
    lam /= lam.sum()
    return float(np.linalg.norm(verts.T @ lam - x))


def set_hausdorff(va, vb):
    """Hausdorff distance of two polytopes; distance to a convex set is
    convex, so its maximum over a polytope sits at a vertex."""
    return max(
        max(point_hull_distance(x, vb) for x in va),
        max(point_hull_distance(y, va) for y in vb),
    )


def mesh_gap(nodes):
    """Largest nearest-neighbour geodesic distance of a unit-vector set."""
    dots = nodes @ nodes.T
    np.fill_diagonal(dots, -2.0)
    return float(np.arccos(np.clip(dots.max(axis=1).min(), -1.0, 1.0)))


def check_hausdorff(reported, va, vb, gap, what) -> list:
    """The grid value is a sup over fewer directions, so it may not exceed
    the set distance; it may fall short by at most twice the mesh gap."""
    exact = set_hausdorff(va, vb)
    if not exact - 2.0 * gap <= reported <= exact + 1e-9:
        return [f"{what}: hausdorff {reported!r} vs set distance {exact!r} (mesh gap {gap:.4f})"]
    return []


def check_triangle(dist: dict) -> list:
    """dist[(a, b)] symmetric; d(a, c) <= d(a, b) + d(b, c) on every triple."""
    names = sorted({x for pair in dist for x in pair})

    def d(a, b):
        return dist[(a, b)] if (a, b) in dist else dist[(b, a)]

    return [
        f"triangle inequality fails: d({a},{c})={d(a, c)!r} > d({a},{b})+d({b},{c})"
        for a, b, c in itertools.permutations(names, 3)
        if d(a, c) > d(a, b) + d(b, c) + 1e-9
    ]


def doc_support(doc: dict, dirs):
    """Support of a stored body at unit directions, from its document."""
    if "minkowski_terms" in doc:
        terms = [(t["weight"], np.asarray(t["vertices"], dtype=float)) for t in doc["minkowski_terms"]]
    else:
        terms = [(1.0, np.asarray(doc["vertices"], dtype=float))]
    h = np.full(dirs.shape[0], float(doc.get("ball_radius", 0.0)))
    for w, v in terms:
        h += w * (v @ dirs.T).max(axis=0)
    return h


def check_round_trip(doc, saved, loaded, dirs, what) -> list:
    """Support of the saved body, of the reloaded body, and of the stored
    geometry itself agree to 1e-12 at the given directions."""
    own = doc_support(doc, dirs)
    scale = max(1.0, float(np.abs(own).max()))
    errors = []
    for label, vals in (("saved", saved), ("loaded", loaded)):
        dev = float(np.abs(np.asarray(vals) - own).max())
        if dev > 1e-12 * scale:
            errors.append(f"{what}: {label} support differs from the stored geometry by {dev:.3e}")
    return errors


def check_bm_cube_ball(value) -> list:
    if abs(value - math.log(math.sqrt(3.0))) > 1e-9:
        return [f"bm_distance(cube, ball) = {value!r}, expected log sqrt 3"]
    return []


def check_defect(value, what) -> list:
    return [] if value < 1e-10 else [f"{what}: invariance defect {value:.3e} >= 1e-10"]
