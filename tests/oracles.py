"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with
different algorithms and different numeric machinery than the library
under test: exact rational arithmetic for sphere integrals, a
constrained quadratic program for set distances, the exact hull of a
point cloud from qhull, and a dictionary-based GF(2) polynomial ring.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import ConvexHull


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


def dense_hull_depth(grid, r) -> float:
    """The library's hull_depth(grid, r) from the full G x G matrix,
    pruning nothing: -inf for a non-positive radius, else the minimum gap
    of the radial cloud on the grid nodes."""
    r = np.asarray(r, dtype=float)
    if r.min() <= 0:
        return -math.inf
    return float(dense_hull_gaps(r[:, None] * grid.nodes, grid.nodes).min())


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
