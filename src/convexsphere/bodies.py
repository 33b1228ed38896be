"""Convex bodies as sampled support functions on a sphere grid.

A body carries its support samples and, when the geometry allows it, an
exact off-grid support evaluator: a list of weighted vertex sets (a
Minkowski combination of polytopes) plus a ball radius offset,

    h(v) = sum_t w_t * max_{p in V_t} <p, v>  +  rho * |v|.

Polytopes, balls, thickenings and group averages of such all stay in
this class, which is what makes exact-group invariance defects drop to
floating-point level instead of the O(grid gap^2) floor of interpolated
evaluation. Bodies that only have samples fall back to the inscribed
radial cloud (n >= 3) or to the exact outer-polygon interpolation
formula (n = 2).

The sandwich distance between origin-interior bodies is
log(max_u hB/hA / min_u hB/hA); it vanishes exactly for scalings,
is symmetric, and obeys the triangle inequality on the grid.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from . import backend
from .errors import (
    CertificateFailure,
    GridMismatch,
    InputError,
    NonpositiveRadius,
    OriginNotInterior,
)
from .groups import GroupSample
from .sphere import SphereGrid, check_samples, norms

# Cap-volume constants of the C0-via-L2 comparison: a Euclidean cap of
# radius rho <= 1/2 on S^{n-1} has measure >= C1 * rho^{n-1}
# (n=2: arc >= 2 rho; n=3: exactly pi rho^2; n=4: via sin t >= 2t/pi).
_C1 = {2: 0.5, 3: math.pi / 16.0, 4: 1.0 / (12.0 * math.pi)}


def c0_l2_constant(n: int) -> float:
    """C(n) with ||f||_inf <= C(n) ||f||_2^{2/(n+1)} for 2-Lipschitz f
    on S^{n-1} bounded by 2 (differences of supports of unit-ball
    bodies)."""
    if n not in _C1:
        raise InputError(f"no constant tabulated for n={n}")
    return (4.0 / _C1[n]) ** (1.0 / (n + 1))


@dataclass
class ConvexBody:
    grid: SphereGrid = field(repr=False)
    support: np.ndarray = field(repr=False)
    radial: np.ndarray | None = field(default=None, repr=False)
    vertices: np.ndarray | None = field(default=None, repr=False)
    minkowski_terms: list | None = field(default=None, repr=False)  # [(w, verts)]
    ball_radius: float = 0.0
    radial_profile: tuple | None = field(default=None, repr=False)  # (eps, poly)

    @property
    def n(self) -> int:
        return self.grid.n

    def _exact_terms(self):
        if self.minkowski_terms is not None:
            return self.minkowski_terms
        if self.vertices is not None:
            return [(1.0, self.vertices)]
        return None

    @property
    def has_exact_support(self) -> bool:
        return self._exact_terms() is not None or (
            self.ball_radius > 0 and self.radial is not None
            and np.allclose(self.support, self.ball_radius)
        )

    def support_eval(self, points: np.ndarray) -> np.ndarray:
        """Support values at arbitrary unit directions, via the best
        available evaluator."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        terms = self._exact_terms()
        if terms is not None:
            rows = np.vstack([v for _, v in terms])
            offsets = np.cumsum([0] + [v.shape[0] for _, v in terms])
            weights = np.array([w for w, _ in terms], dtype=float)
            return backend.minkowski_support(rows, offsets, weights, self.ball_radius, points)
        if self.ball_radius > 0 and np.allclose(self.support, self.ball_radius):
            return np.full(points.shape[0], self.ball_radius)
        if self.n == 2:
            return _polygon_support_interp(self.grid, self.support, points)
        r = self.radial_samples()
        cloud = r[:, None] * self.grid.nodes
        return backend.support_max_dot(cloud, points)

    def radial_samples(self) -> np.ndarray:
        if self.radial is not None:
            return self.radial
        return radial_from_support(self)

    def cloud(self) -> np.ndarray:
        return self.radial_samples()[:, None] * self.grid.nodes


def from_support_samples(grid: SphereGrid, h, **extra) -> ConvexBody:
    h = check_samples(grid, np.asarray(h, dtype=float))
    return ConvexBody(grid=grid, support=h.copy(), **extra)


def from_vertices(grid: SphereGrid, verts) -> ConvexBody:
    verts = np.atleast_2d(np.asarray(verts, dtype=float))
    if verts.shape[0] == 0:
        raise InputError("need at least one vertex")
    if verts.shape[1] != grid.n:
        raise InputError(f"vertices of dimension {verts.shape[1]} on an S^{grid.n - 1} grid")
    h = backend.support_max_dot(verts, grid.nodes)
    return ConvexBody(grid=grid, support=h, vertices=verts, minkowski_terms=[(1.0, verts)])


def ball(grid: SphereGrid, radius: float = 1.0) -> ConvexBody:
    if radius <= 0:
        raise NonpositiveRadius(f"ball radius {radius}")
    g = grid.size
    return ConvexBody(
        grid=grid,
        support=np.full(g, float(radius)),
        radial=np.full(g, float(radius)),
        minkowski_terms=[(1.0, np.zeros((1, grid.n)))],
        ball_radius=float(radius),
    )


def from_radial(grid: SphereGrid, r, profile=None) -> ConvexBody:
    """Body of a positive radial sample set: the hull of the sampled
    cloud. Support samples are those of the inscribed cloud."""
    r = check_samples(grid, np.asarray(r, dtype=float))
    if np.min(r) <= 0:
        raise NonpositiveRadius(f"min radial sample {np.min(r):.3e}")
    cloud = r[:, None] * grid.nodes
    h = backend.support_max_dot(cloud, grid.nodes)
    return ConvexBody(grid=grid, support=h, radial=r.copy(), radial_profile=profile)


def _polygon_support_interp(grid: SphereGrid, h, points) -> np.ndarray:
    """Exact support of the outer polygon {x : <x,u_j> <= h_j} at
    arbitrary angles (n = 2). Between consecutive grid normals the
    support is attained at the vertex solving the two active
    constraints."""
    ang = np.arctan2(points[:, 1], points[:, 0]) % (2 * np.pi)
    th = grid.angles
    m = th.size
    j = np.searchsorted(th, ang, side="right") - 1
    j = np.clip(j, 0, m - 1)
    j1 = (j + 1) % m
    t0 = th[j]
    t1 = np.where(j1 == 0, th[0] + 2 * np.pi, th[j1])
    d = t1 - t0
    return (h[j] * np.sin(t1 - ang) + h[j1] * np.sin(ang - t0)) / np.sin(d)


def validate_body(body: ConvexBody, in_unit_ball: bool = False, tol: float = 1e-9) -> dict:
    """Check the sampled-support invariants; raises InputError on hard
    failures, returns a diagnostics dict."""
    h = check_samples(body.grid, body.support)
    if not np.all(np.isfinite(h)):
        raise InputError("non-finite support samples")
    report = {"min_support": float(h.min()), "max_support": float(h.max())}
    if in_unit_ball:
        if h.max() > 1.0 + tol:
            raise InputError(f"support exceeds the unit ball: {h.max():.6f}")
        # 1-Lipschitz compatibility in the Euclidean metric of directions
        nodes = body.grid.nodes
        g = nodes.shape[0]
        blk = 512
        worst = 0.0
        for a in range(0, g, blk):
            b = min(a + blk, g)
            dist = np.linalg.norm(nodes[a:b, None, :] - nodes[None, :, :], axis=2)
            dev = np.abs(h[a:b, None] - h[None, :]) - dist
            worst = max(worst, float(dev.max()))
        report["lipschitz_excess"] = worst
        if worst > tol:
            raise InputError(f"support violates 1-Lipschitz compatibility by {worst:.3e}")
    return report


def hausdorff(a: ConvexBody, b: ConvexBody) -> float:
    """Hausdorff distance = sup-norm of the support difference, on the
    common grid."""
    if a.grid != b.grid:
        raise GridMismatch("bodies live on different grids")
    return float(np.max(np.abs(a.support - b.support)))


#: Chart-gradient tolerance of the gradient polish. Near a nondegenerate
#: extreme the value error is about |gradient|^2 / curvature, far below
#: float64 resolution of the value at this tolerance.
POLISH_GTOL = 1e-9


def _tangent_frame(u: np.ndarray) -> np.ndarray:
    n = u.size
    basis = np.eye(n)
    k = int(np.argmin(np.abs(u)))
    cols = [basis[i] for i in range(n) if i != k] + [basis[k]]
    q, _ = np.linalg.qr(np.column_stack([u] + cols)[:, : n])
    return q[:, 1:]


def _polish_extreme(fun, u0: np.ndarray, maximize: bool, xtol: float = 1e-10, grad=None):
    """Local refinement of an extreme of a function of a unit vector,
    in the tangent chart x -> (u0 + F x) / |u0 + F x| around u0, F an
    orthonormal frame of the tangent space at u0.

    fun maps (1, n) unit vectors to values. When grad, mapping (1, n)
    unit vectors to ambient gradients (1, n), is given, the polish runs
    BFGS on the exact chart gradient F^T (I - v v^T) grad(v) / |u0 + F x|
    (a projected-gradient method on the sphere; Absil, Mahony &
    Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008). Without
    one it runs Nelder-Mead to xtol, which also serves non-smooth
    functions such as the ratio of polytope supports in bm_distance.
    """
    frame = _tangent_frame(u0)
    sgn = -1.0 if maximize else 1.0

    def point(x):
        v = u0 + frame @ x
        nv = np.linalg.norm(v)
        return v / nv, nv

    def obj(x):
        v, _ = point(x)
        return sgn * fun(v[None, :])[0]

    x0 = np.zeros(u0.size - 1)
    if grad is None:
        res = minimize(
            obj, x0, method="Nelder-Mead",
            options={"xatol": xtol, "fatol": 1e-14, "maxiter": 600},
        )
    else:
        def jac(x):
            v, nv = point(x)
            g = grad(v[None, :])[0]
            return sgn * (frame.T @ (g - (g @ v) * v)) / nv

        res = minimize(obj, x0, jac=jac, method="BFGS",
                       options={"gtol": POLISH_GTOL, "maxiter": 200})
    return sgn * res.fun


def bm_distance(a: ConvexBody, b: ConvexBody, refine: bool = False) -> float:
    """Sandwich distance log(t*/s*), with s* and t* the extreme ratios
    hB/hA over the grid. With refine=True and exact evaluators on both
    bodies, the extreme ratios are polished off-grid."""
    if a.grid != b.grid:
        raise GridMismatch("bodies live on different grids")
    ha, hb = a.support, b.support
    if ha.min() <= 0 or hb.min() <= 0:
        raise OriginNotInterior("sandwich distance needs origin-interior bodies")
    ratio = hb / ha
    t_star = float(ratio.max())
    s_star = float(ratio.min())
    if refine and a._exact_terms() is not None and b._exact_terms() is not None:
        def rfun(pts):
            return b.support_eval(pts) / a.support_eval(pts)

        nodes = a.grid.nodes
        for i in np.argsort(ratio)[-3:]:
            t_star = max(t_star, _polish_extreme(rfun, nodes[i], maximize=True))
        for i in np.argsort(ratio)[:3]:
            s_star = min(s_star, _polish_extreme(rfun, nodes[i], maximize=False))
    return math.log(t_star / s_star)


def radial_from_support(body: ConvexBody, pos_tol: float = 1e-9) -> np.ndarray:
    """Radial function of the outer body {x : <x,u_j> <= h_j} at the
    grid nodes."""
    h = body.support
    if h.min() <= 0:
        raise OriginNotInterior(
            f"radial evaluation needs positive support, min={h.min():.3e}"
        )
    r = backend.radial_from_support(h, body.grid.nodes, body.grid.nodes, pos_tol)
    if np.any(r <= 0):
        raise OriginNotInterior("support cone does not surround the origin")
    return r


def distance_to_ball(body: ConvexBody) -> float:
    """log(max r / min r) over radial samples; the sandwich distance to
    the best centered ball. Bodies built from a polynomial radial
    profile 1 + eps * phi get the three largest and three smallest grid
    samples polished off-grid by the gradient polish, with the exact
    gradient eps * phi.grad, so the value is invariant under rotation of
    the profile."""
    r = body.radial_samples()
    if np.min(r) <= 0:
        raise NonpositiveRadius(f"min radial sample {np.min(r):.3e}")
    rmax, rmin = float(r.max()), float(r.min())
    if body.radial_profile is not None:
        eps, poly = body.radial_profile

        def rfun(pts):
            return 1.0 + eps * poly.eval(pts)

        def rgrad(pts):
            return eps * poly.grad(pts)

        nodes = body.grid.nodes
        for i in np.argsort(r)[-3:]:
            rmax = max(rmax, _polish_extreme(rfun, nodes[i], maximize=True, grad=rgrad))
        for i in np.argsort(r)[:3]:
            rmin = min(rmin, _polish_extreme(rfun, nodes[i], maximize=False, grad=rgrad))
    if rmin <= 0:
        raise NonpositiveRadius("polished radial minimum is nonpositive")
    return math.log(rmax / rmin)


def certify_convex_radial(body: ConvexBody, tol: float | None = None) -> bool:
    """Convexity certificate for a radially sampled body.

    n = 2: spectral criterion r^2 + 2 r'^2 - r r'' >= -tol with FFT
    derivatives (exact for band-limited samples).
    n >= 3: hull_depth of the radial cloud against its own sampled
    support, with tolerance scaled by the squared grid gap.
    """
    r = body.radial_samples()
    grid = body.grid
    if grid.n == 2:
        if np.min(r) <= 0:
            return False
        if tol is None:
            tol = 1e-8 * float(np.max(r)) ** 2
        m = grid.size
        fk = np.fft.fft(r)
        q = np.fft.fftfreq(m, d=1.0 / m)
        mask = np.abs(q) < m // 2  # drop the Nyquist bin for odd derivatives
        r1 = np.real(np.fft.ifft(1j * q * fk * mask))
        r2 = np.real(np.fft.ifft(-(q**2) * fk))
        crit = r**2 + 2.0 * r1**2 - r * r2
        return bool(crit.min() >= -tol)
    if tol is None:
        tol = float(np.max(r)) ** 2 * grid.max_gap**2
    return bool(hull_depth(grid.nodes, r) >= -tol)


def hull_depth(nodes: np.ndarray, r: np.ndarray) -> float:
    """Minimum hull gap of the radial cloud {r_i u_i} against its own
    sampled support h_j = max_i <r_i u_i, u_j>.

    Zero when every cloud point lies on the hull of the cloud, negative
    by the depth of the deepest dimple otherwise; -inf when r has a
    non-positive entry, since then there is no star body to certify.
    """
    r = np.asarray(r, dtype=float)
    if r.min() <= 0:
        return -math.inf
    cloud = r[:, None] * nodes
    h = backend.support_max_dot(cloud, nodes)
    return float(backend.hull_gaps(cloud, nodes, h).min())


def group_average(body: ConvexBody, sample: GroupSample) -> ConvexBody:
    """Support-function average over the sampled group,
    h_avg(u) = sum_g w_g h(g u). Exact-evaluator bodies stay exact: each
    Minkowski term (w, V) contributes (w_g w, V g) per element."""
    if sample.n != body.n:
        raise InputError(f"group on R^{sample.n} vs body in R^{body.n}")
    grid = body.grid
    terms = body._exact_terms()
    if terms is not None:
        new_terms = []
        for g, wg in zip(sample.elements, sample.weights):
            for w, v in terms:
                new_terms.append((wg * w, v @ g))
        out = ConvexBody(
            grid=grid,
            support=np.empty(grid.size),
            minkowski_terms=new_terms,
            ball_radius=body.ball_radius,
        )
        out.support = out.support_eval(grid.nodes)
        return out
    pts = np.einsum("kij,gj->kgi", sample.elements, grid.nodes).reshape(-1, body.n)
    vals = body.support_eval(pts).reshape(sample.size, grid.size)
    return ConvexBody(grid=grid, support=sample.weights @ vals)


def invariance_defect(body: ConvexBody, sample: GroupSample) -> float:
    """max over sampled g and grid u of |h(g u) - h(u)|."""
    if sample.n != body.n:
        raise InputError(f"group on R^{sample.n} vs body in R^{body.n}")
    grid = body.grid
    worst = 0.0
    for g in sample.elements:
        vals = body.support_eval(grid.nodes @ g.T)
        worst = max(worst, float(np.max(np.abs(vals - body.support))))
    return worst


def check_c0_l2_bound(grid: SphereGrid, ha, hb) -> dict:
    """Verify ||hA - hB||_inf <= C(n) ||hA - hB||_2^{2/(n+1)} for
    supports of bodies inside the unit ball."""
    ha = check_samples(grid, np.asarray(ha, dtype=float))
    hb = check_samples(grid, np.asarray(hb, dtype=float))
    diff = ha - hb
    l2, c0 = norms(grid, diff)
    c = c0_l2_constant(grid.n)
    bound = c * l2 ** (2.0 / (grid.n + 1))
    return {
        "ok": bool(c0 <= bound + 1e-12),
        "c0": c0,
        "l2": l2,
        "bound": bound,
        "constant": c,
    }


def random_polytope(grid: SphereGrid, k: int, rng: np.random.Generator,
                    radius: float = 1.0) -> ConvexBody:
    """Convex hull of k uniform points in the ball of the given radius
    (a generic test body; k >= n+1)."""
    n = grid.n
    x = rng.normal(size=(k, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    u = rng.random(k) ** (1.0 / n)
    return from_vertices(grid, radius * u[:, None] * x)


def empirical_L2_uniform(
    n: int,
    eps: float,
    trials: int,
    seed: int,
    d_cap: int = 12,
    grid: SphereGrid | None = None,
) -> dict:
    """Empirical sweep for a uniform projection degree: the smallest d
    with max-over-trials L2 residual ||h - pi_d h|| <= eps, if one
    exists below d_cap. The residual curve uses the nestedness of the
    basis (prefix coefficients)."""
    from .polynomials import get_basis

    from .sphere import build_grid, integrate

    if grid is None:
        grid = build_grid(n)
    basis = get_basis(n, d_cap, grid)
    rng = np.random.default_rng(seed)
    worst = np.zeros(d_cap + 1)
    for _ in range(trials):
        body = random_polytope(grid, 3 * n + rng.integers(0, 6), rng)
        h = body.support
        total = integrate(grid, h * h)
        c = basis.project_samples(h)
        for d in range(d_cap + 1):
            cc = c[basis.degrees <= d]
            res = math.sqrt(max(total - float(cc @ cc), 0.0))
            worst[d] = max(worst[d], res)
    ok = worst <= eps
    d_star = int(np.argmax(ok)) if ok.any() else None
    return {
        "n": n,
        "eps": eps,
        "trials": trials,
        "residual_curve": worst.tolist(),
        "d_star": d_star,
        "resolved": bool(ok.any()),
    }


def scaled_body(body: ConvexBody, s: float) -> ConvexBody:
    if s <= 0:
        raise InputError("scale must be positive")
    terms = body._exact_terms()
    return replace(
        body,
        support=s * body.support,
        radial=None if body.radial is None else s * body.radial,
        vertices=None if body.vertices is None else s * body.vertices,
        minkowski_terms=None if terms is None else [(w, s * v) for w, v in terms],
        ball_radius=s * body.ball_radius,
        radial_profile=None,
    )
