"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with
different algorithms and different numeric machinery than the library
under test: exact rational arithmetic for sphere integrals, a
constrained quadratic program for set distances, linear programs and
brute-force vertex enumeration for sandwich ratios, the exact hull of a
point cloud from qhull, the harmonic basis from scipy's special
functions in angle charts, and a dictionary-based GF(2) polynomial ring.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.spatial import ConvexHull
from scipy.special import eval_gegenbauer, roots_gegenbauer, sph_harm_y


# ---------------------------------------------------------------------------
# exact monomial integrals over the unit sphere
# ---------------------------------------------------------------------------


def _gamma_half(m: int):
    """Gamma(m/2) for positive integer m, as (rational, power of sqrt(pi)).

    Gamma(1/2) = sqrt(pi), Gamma(1) = 1, Gamma(z+1) = z Gamma(z).
    """
    if m <= 0:
        raise ValueError("need a positive half-integer argument")
    if m % 2 == 0:
        return Fraction(math.factorial(m // 2 - 1)), 0
    coef = Fraction(1)
    k = m
    while k > 1:
        k -= 2
        coef *= Fraction(k, 2)
    return coef, 1


def sphere_monomial_integral(n: int, alpha) -> float:
    """Integral of prod x_i^alpha_i over S^{n-1}, by the classical
    Gamma-function formula evaluated in exact rational arithmetic."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n:
        raise ValueError("alpha length must equal n")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    if any(a % 2 for a in alpha):
        return 0.0
    num = Fraction(2)
    pi_pow = 0
    for a in alpha:
        c, p = _gamma_half(a + 1)
        num *= c
        pi_pow += p
    den, pden = _gamma_half(sum(alpha) + n)
    pi_pow -= pden
    return float(num / den) * math.pi ** (pi_pow / 2.0)


# ---------------------------------------------------------------------------
# the orthonormal harmonic basis from scipy's special functions
# ---------------------------------------------------------------------------


def _real_sph_harm_table(d: int, theta, phi) -> dict:
    """Real orthonormal spherical harmonics for all l <= d, m in [-l, l],
    keyed (l, m): scipy's complex harmonics (with the Condon-Shortley
    phase) combined into the real form without it."""
    out = {}
    for l in range(d + 1):
        out[(l, 0)] = np.real(sph_harm_y(l, 0, theta, phi))
        for m in range(1, l + 1):
            y = sph_harm_y(l, m, theta, phi)
            s = np.sqrt(2.0) * (-1.0) ** m
            out[(l, m)] = s * np.real(y)
            out[(l, -m)] = s * np.imag(y)
    return out


def _angles_3(points):
    z = np.clip(points[:, 2], -1.0, 1.0)
    return np.arccos(z), np.arctan2(points[:, 1], points[:, 0])


def _gegenbauer_norm(j: int, lam: float) -> float:
    """Integral of C_j^(lam)(t)^2 (1 - t^2)^(lam - 1/2) over [-1, 1], by
    Gauss-Gegenbauer quadrature, exact at j + 1 nodes."""
    t, w = roots_gegenbauer(j + 1, lam)
    return float(np.sum(w * eval_gegenbauer(j, lam, t) ** 2))


def harmonic_family(n: int, d: int, points: np.ndarray) -> np.ndarray:
    """Orthonormal harmonic basis of P^d at unit vectors, (P, dim), in
    angle charts: 1, cos and sin of multiples of the angle on S^1; the
    real spherical harmonics of (theta, phi) on S^2, in the order (l, m);
    on S^3, Gegenbauer C_{k-l}^(l+1)(x_1) times s^l Y_lm(omega) for
    x = (x_1, s omega), in the order (k, l, m). Each column is divided by
    its L2 norm on the sphere."""
    p = np.asarray(points, dtype=float)
    if n == 2:
        ang = np.arctan2(p[:, 1], p[:, 0])
        cols = [np.full(p.shape[0], 1.0 / math.sqrt(2.0 * math.pi))]
        for q in range(1, d + 1):
            cols += [np.cos(q * ang) / math.sqrt(math.pi), np.sin(q * ang) / math.sqrt(math.pi)]
    elif n == 3:
        tab = _real_sph_harm_table(d, *_angles_3(p))
        cols = [tab[(l, m)] for l in range(d + 1) for m in range(-l, l + 1)]
    elif n == 4:
        t = np.clip(p[:, 0], -1.0, 1.0)
        s = np.linalg.norm(p[:, 1:], axis=1)
        omega = p[:, 1:] / np.where(s > 1e-300, s, 1.0)[:, None]
        omega[s <= 1e-300] = (0.0, 0.0, 1.0)
        tab = _real_sph_harm_table(d, *_angles_3(omega))
        cols = []
        for k in range(d + 1):
            for l in range(k + 1):
                radial = eval_gegenbauer(k - l, l + 1.0, t) * s**l
                radial /= math.sqrt(_gegenbauer_norm(k - l, l + 1.0))
                cols += [radial * tab[(l, m)] for m in range(-l, l + 1)]
    else:
        raise ValueError(f"unsupported sphere dimension n={n}")
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# brute-force set distances between polytopes, and hull gaps
# ---------------------------------------------------------------------------


def point_to_hull_distance(x: np.ndarray, verts: np.ndarray) -> float:
    """Euclidean distance from x to conv(verts), solved as a simplex-
    constrained least-squares program (SLSQP with analytic gradient)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(verts, dtype=float)
    k = v.shape[0]
    if k == 1:
        return float(np.linalg.norm(x - v[0]))

    def objective(lam):
        r = v.T @ lam - x
        return float(r @ r), 2.0 * (v @ r)

    cons = ({"type": "eq", "fun": lambda lam: lam.sum() - 1.0,
             "jac": lambda lam: np.ones(k)},)
    lam0 = np.full(k, 1.0 / k)
    res = minimize(objective, lam0, jac=True, method="SLSQP",
                   bounds=[(0.0, 1.0)] * k, constraints=cons,
                   options={"maxiter": 300, "ftol": 1e-14})
    best = math.sqrt(max(res.fun, 0.0))
    # restarts from each vertex guard against a poor stationary point
    for i in range(k):
        lam0 = np.zeros(k)
        lam0[i] = 1.0
        r = minimize(objective, lam0, jac=True, method="SLSQP",
                     bounds=[(0.0, 1.0)] * k, constraints=cons,
                     options={"maxiter": 300, "ftol": 1e-14})
        best = min(best, math.sqrt(max(r.fun, 0.0)))
    return best


def set_hausdorff(verts_a: np.ndarray, verts_b: np.ndarray) -> float:
    """Hausdorff distance between conv(verts_a) and conv(verts_b).

    The distance-to-a-convex-set function is convex, so its maximum
    over a polytope is attained at one of the listed points; including
    non-extreme points is harmless.
    """
    d = 0.0
    for x in np.asarray(verts_a, dtype=float):
        d = max(d, point_to_hull_distance(x, verts_b))
    for y in np.asarray(verts_b, dtype=float):
        d = max(d, point_to_hull_distance(y, verts_a))
    return d


def dense_hull_gaps(cloud: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """gap_i = max_j (<cloud[i], dirs[j]> - h_j), h_j = max_k <cloud[k], dirs[j]>,
    from one full matrix of every pair."""
    dots = cloud @ dirs.T
    return (dots - dots.max(axis=0)[None, :]).max(axis=1)


def minkowski_support_loop(rows, offsets, weights, ball_r, dirs) -> np.ndarray:
    """The support sum_t w_t max_{p in V_t} <p, v> + ball_r of Minkowski
    terms V_t = rows[offsets[t]:offsets[t+1]], one term at a time: a
    running sum acc += w_t * max_t over the terms in order, in blocks of
    the library's _BLOCK directions, each block one product of every row
    through the library's _product. It shares the products with
    backend.minkowski_support and checks how that kernel reduces them."""
    from convexsphere.backend import _BLOCK, _product

    rows = np.ascontiguousarray(rows, dtype=float)
    cols = np.ascontiguousarray(np.transpose(dirs), dtype=float)
    out = np.full(cols.shape[1], float(ball_r))
    for a in range(0, cols.shape[1], _BLOCK):
        b = min(a + _BLOCK, cols.shape[1])
        dot = _product(rows, cols, slice(a, b))
        acc = np.zeros(b - a)
        for t in range(len(weights)):
            acc += weights[t] * dot[offsets[t]:offsets[t + 1]].max(axis=0)
        out[a:b] += acc
    return out


def grid_cosines(grid) -> np.ndarray:
    """<u_i, u_j> for every pair of grid nodes, one gemm (numpy hands
    nodes @ nodes.T to a much slower syrk)."""
    return grid.nodes @ np.ascontiguousarray(grid.nodes.T)


def dense_radial_scan(grid, r) -> tuple[np.ndarray, np.ndarray]:
    """(h, gaps) of the radial cloud {r_k u_k} on the grid nodes u_k from
    one full G x G matrix of the terms r_k * <u_k, u_j>, the product the
    library takes for radial clouds: h_j = max_k r_k <u_k, u_j> and
    gap_i = max_j (r_i <u_i, u_j> - h_j)."""
    r = np.asarray(r, dtype=float)
    terms = grid_cosines(grid)
    terms *= r[:, None]
    h = terms.max(axis=0)
    terms -= h[None, :]
    return h, terms.max(axis=1)


def dense_hull_depth(grid, r, floor=math.inf) -> float:
    """The library's hull_depth(grid, r) from the full G x G matrix,
    pruning nothing: -inf for a non-positive radius, else the minimum gap
    of the radial cloud on the grid nodes. floor is ignored: the exact
    depth meets hull_depth's contract for every floor."""
    r = np.asarray(r, dtype=float)
    if r.min() <= 0:
        return -math.inf
    return float(dense_radial_scan(grid, r)[1].min())


def dense_bisection(grid, vals, steps: int, depth_tol: float) -> dict:
    """find_epsilon's bisection over the sample values vals (one row per
    sample, exactly even), scanning every sample of every round with
    dense_hull_depth. A round takes the samples in find_epsilon's order,
    the one that failed the latest failed round first; its first failure
    decides the round and becomes the limiting sample. Returns the
    (eps, ok) history, the limiting sample, eps_star and the rounds, each
    (eps, [(sample, radii, passed), ...]) in scan order."""
    rounds, limiting = [], None

    def certifies(eps):
        nonlocal limiting
        order = [] if limiting is None else [limiting]
        scans = []
        for k in order + [k for k in range(len(vals)) if k != limiting]:
            r = 1.0 + eps * vals[k]
            scans.append((k, r, dense_hull_depth(grid, r) >= -depth_tol * float(r.max())))
        rounds.append((eps, scans))
        failed = [k for k, _, ok in scans if not ok]
        if failed:
            limiting = failed[0]
        return not failed

    lo, hi = 0.0, float(np.min(-1.0 / vals.min(axis=1)))
    history = []
    if certifies(hi):
        lo = hi
    else:
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            ok = certifies(mid)
            history.append((mid, ok))
            lo, hi = (mid, hi) if ok else (lo, mid)
    return {"history": history, "limiting_sample": limiting, "eps_star": lo, "rounds": rounds}


def exact_hull_gaps(cloud: np.ndarray) -> np.ndarray:
    """gap_i = max over the facets a.x + b <= 0 (unit a) of the exact
    convex hull of the cloud of a.cloud[i] + b: zero for a point on the
    hull boundary, minus its distance to the boundary for a point inside.
    The hull is qhull's (Barber, Dobkin & Huhdanpaa, ACM TOMS 1996)."""
    eq = ConvexHull(np.asarray(cloud, dtype=float)).equations
    return (cloud @ eq[:, :-1].T + eq[:, -1]).max(axis=1)


def halfplane_polygon_vertices(normals2: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vertices of the planar polygon {y: <normals2_i, y> <= offsets_i}:
    the meeting point of every pair of boundary lines, kept when it
    satisfies every inequality within 1e-12. No hull and no clipping."""
    normals2 = np.asarray(normals2, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    pts = []
    for pair in itertools.combinations(range(offsets.size), 2):
        a = normals2[list(pair)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue  # parallel boundary lines
        y = np.linalg.solve(a, offsets[list(pair)])
        if np.all(normals2 @ y - offsets <= 1e-12):
            pts.append(y)
    return np.array(pts)


# ---------------------------------------------------------------------------
# sandwich ratios of polytopes, by linear programs and vertex enumeration
# ---------------------------------------------------------------------------


def _lp_gauge(verts: np.ndarray, x: np.ndarray) -> float:
    """Gauge of conv(verts) at x, min {sum lam : verts^T lam = x, lam >= 0},
    by the dual simplex method (a basic, hence exact, solution)."""
    res = linprog(np.ones(verts.shape[0]), A_eq=verts.T, b_eq=x,
                  bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise ValueError(f"gauge LP failed: {res.message}")
    return float(res.fun)


def polytope_sandwich_lp(verts_a: np.ndarray, verts_b: np.ndarray) -> tuple[float, float]:
    """(t*, s*) = (max_u hB/hA, min_u hB/hA) of the origin-interior
    polytopes A = conv(verts_a), B = conv(verts_b). t* is the least t with
    B inside tA, the maximum of the convex gauge of A over B, attained at a
    vertex of B; s* = 1 / (the same with A and B swapped). One LP per
    vertex; no hull and no polar."""
    verts_a = np.asarray(verts_a, dtype=float)
    verts_b = np.asarray(verts_b, dtype=float)
    t_star = max(_lp_gauge(verts_a, x) for x in verts_b)
    s_star = 1.0 / max(_lp_gauge(verts_b, x) for x in verts_a)
    return t_star, s_star


def polar_vertices(verts: np.ndarray) -> np.ndarray:
    """Vertices of the polar {y : <v, y> <= 1 for every row v of verts}
    of an origin-interior polytope: the solution of every n rows' system
    <v, y> = 1, kept when it satisfies every inequality within 1e-12, so
    a vertex where more than n facets meet comes back more than once.
    No hull."""
    verts = np.asarray(verts, dtype=float)
    n = verts.shape[1]
    pts = []
    for rows in itertools.combinations(range(verts.shape[0]), n):
        a = verts[list(rows)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        y = np.linalg.solve(a, np.ones(n))
        if np.all(verts @ y <= 1.0 + 1e-12):
            pts.append(y)
    return np.array(pts)


# ---------------------------------------------------------------------------
# GF(2) symmetric-polynomial ring on exponent dictionaries
# ---------------------------------------------------------------------------


class Gf2Poly:
    """Multivariate polynomial over GF(2) as a set of exponent tuples."""

    def __init__(self, nvars: int, monomials=()):
        self.nvars = nvars
        self.monos = set()
        for m in monomials:
            m = tuple(int(e) for e in m)
            if len(m) != nvars:
                raise ValueError("bad exponent tuple length")
            # coefficient arithmetic mod 2: repeated keys cancel
            if m in self.monos:
                self.monos.discard(m)
            else:
                self.monos.add(m)

    @classmethod
    def one(cls, nvars: int) -> "Gf2Poly":
        return cls(nvars, [(0,) * nvars])

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Gf2Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, [tuple(e)])

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        out = Gf2Poly(self.nvars)
        out.monos = self.monos ^ other.monos
        return out

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        acc = set()
        for a in self.monos:
            for b in other.monos:
                m = tuple(x + y for x, y in zip(a, b))
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)
        out = Gf2Poly(self.nvars)
        out.monos = acc
        return out

    def value_at_ones(self) -> int:
        return len(self.monos) & 1


def compositions_of(d: int, n: int):
    """All ordered tuples of n nonnegative integers summing to d."""
    if n == 1:
        yield (d,)
        return
    for head in range(d + 1):
        for tail in compositions_of(d - head, n - 1):
            yield (head,) + tail


def sw_top_oracle(n: int, d: int) -> Gf2Poly:
    """Expand-and-reduce reference for the top obstruction class:
    the product over all compositions j of d into n parts of the
    linear form sum_k j_k x_k, with coefficients reduced mod 2."""
    poly = Gf2Poly.one(n)
    for j in compositions_of(d, n):
        rows = [Gf2Poly.variable(n, k) for k in range(n) if j[k] % 2 == 1]
        factor = Gf2Poly(n)
        for r in rows:
            factor = factor + r
        poly = poly * factor
    return poly
