"""Convex bodies on a sphere grid, each fixed by one description.

A body is its grid plus exactly one of: weighted vertex sets with a ball
radius (a Minkowski combination of polytopes plus a ball), with the
exact support

    h(v) = sum_t w_t * max_{p in V_t} <p, v>  +  rho * |v|;

a radial profile 1 + eps * phi of an even polynomial phi; radial
samples (the hull of the cloud {r_i u_i} on the grid nodes u_i); or
support samples (the outer body {x : <x,u_j> <= h_j}). The grid samples
support and radial are derived from the description at first use, and
the description's arrays are read-only copies, so a frozen body, or a
dataclasses.replace of one, never carries samples of another. The vertex
sets are stored stacked, as terms = (rows, offsets, weights) with
V_t = rows[offsets[t]:offsets[t+1]], and from_terms checks them.
Polytopes, balls, thickenings, rotations, scalings and group
averages of term bodies stay term bodies, each one array operation on
rows and weights, which is what makes exact-group invariance defects
drop to floating-point level instead of the O(grid gap^2) floor of
interpolated evaluation. Off the grid every body evaluates the support
of what describes it: a radial body that of its cloud, and a body of
support samples that of the vertices of its outer polytope, the polars
of the facets of conv(u_j / h_j) (Schneider, Convex Bodies: The
Brunn-Minkowski Theory, 2nd ed., 2014, section 1.6).

The sandwich distance between origin-interior bodies is
log(max_u hB/hA / min_u hB/hA); it vanishes exactly for scalings,
is symmetric, and obeys the triangle inequality on the grid. Off the
grid (bm_distance(refine=True)) each extreme ratio of term bodies is the
maximum of a convex support over a polar body, attained at a vertex of
the polar: a facet normal of a polytope side, or for a ball side a
vertex direction of a one-term other side. So the distance of
polytopes and balls is exact. The other extremes, those of every pair
with a thickened polytope or a multi-term body, are polished by
Nelder-Mead from the grid.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import backend
from .errors import (
    GridMismatch,
    InputError,
    NonpositiveRadius,
    OriginNotInterior,
)
from .groups import GroupSample
from .polynomials import get_basis, monomial_jet, stacked_monomial_form
from .sphere import SphereGrid, build_grid, check_samples, finite, hold_copies, integrate, norms, read_only

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


_DESCRIPTIONS = ("terms", "radial_profile", "sampled_radial", "sampled_support")


@dataclass(frozen=True, eq=False)
class ConvexBody:
    grid: SphereGrid = field(repr=False)
    terms: tuple | None = field(default=None, repr=False)  # (rows, offsets, weights)
    ball_radius: float = 0.0
    radial_profile: tuple | None = field(default=None, repr=False)  # (eps, phi)
    sampled_radial: np.ndarray | None = field(default=None, repr=False)
    sampled_support: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        given = [k for k in _DESCRIPTIONS if getattr(self, k) is not None]
        if len(given) != 1:
            raise InputError(f"a body needs exactly one of {_DESCRIPTIONS}, got {given}")
        if self.ball_radius and self.terms is None:
            raise InputError("a ball radius belongs to a body with terms")
        # read-only copies: the samples derived at first use never go stale
        if self.terms is not None:
            object.__setattr__(self, "terms", tuple(read_only(np.array(a)) for a in self.terms))
        hold_copies(self, "sampled_radial", "sampled_support")

    @property
    def n(self) -> int:
        return self.grid.n

    @cached_property
    def support(self) -> np.ndarray:
        """Support samples at the grid nodes: the given ones, else those
        of the terms or of the radial cloud."""
        if self.sampled_support is not None:
            return self.sampled_support
        if self.terms is not None:
            return read_only(backend.minkowski_support(*self.terms, self.ball_radius, self.grid.nodes))
        return read_only(_radial_support(self.grid, self.radial)[0])

    @cached_property
    def radial(self) -> np.ndarray:
        """Radial samples at the grid nodes: the given ones, else those of
        the profile or of the outer body of the support samples."""
        if self.sampled_radial is not None:
            return self.sampled_radial
        if self.radial_profile is not None:
            eps, phi = self.radial_profile
            return read_only(1.0 + eps * phi.samples)
        return read_only(radial_from_support(self))

    @cached_property
    def outer_vertices(self) -> np.ndarray:
        """Vertices of the outer polytope {x : <x,u_j> <= h_j} of positive
        support samples (OriginNotInterior otherwise)."""
        return read_only(polar_vertices(self.grid.nodes / _positive_support(self)[:, None]))

    def support_eval(self, points: np.ndarray) -> np.ndarray:
        """Support values at arbitrary unit directions of the body the
        description fixes: the terms, the outer polytope of support
        samples (its outer_vertices), or the hull of the radial cloud of
        radial samples or a profile."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.terms is not None:
            return backend.minkowski_support(*self.terms, self.ball_radius, points)
        if self.sampled_support is not None:
            return backend.support_max_dot(self.outer_vertices, points)
        r = self.radial
        return backend.support_max_dot(r[:, None] * self.grid.nodes, points, radial=(r, self.grid.nodes))


def from_terms(grid: SphereGrid, rows, offsets, weights, ball_radius: float = 0.0) -> ConvexBody:
    """Body with the exact support sum_t w_t max_{p in V_t} <p, v> + rho |v|
    of the terms V_t = rows[offsets[t]:offsets[t+1]] with weights w_t and
    ball radius rho. rows must be finite points in R^n, offsets integers
    rising strictly from 0 to len(rows) (no term is empty), one weight
    per term, and the weights and rho finite and >= 0."""
    rows = np.asarray(rows, dtype=float)
    offsets = np.asarray(offsets)
    weights = np.asarray(weights, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != grid.n:
        raise InputError(
            f"minkowski term vertices of shape {rows.shape} are not points in R^{grid.n}"
        )
    finite(rows, "minkowski term vertex coordinate")
    if weights.ndim != 1 or weights.size == 0:
        raise InputError("need at least one minkowski term")
    if (offsets.shape != (weights.size + 1,) or offsets.dtype.kind not in "iu"
            or offsets[0] != 0 or offsets[-1] != rows.shape[0] or np.any(np.diff(offsets) <= 0)):
        raise InputError(
            f"offsets {offsets.tolist()} do not split {rows.shape[0]} rows "
            f"into {weights.size} non-empty terms"
        )
    bad = weights[~(np.isfinite(weights) & (weights >= 0))]
    if bad.size:
        raise InputError(f"minkowski term weight {bad[0]} is not finite and >= 0")
    rho = float(ball_radius)
    if not (math.isfinite(rho) and rho >= 0):
        raise InputError(f"ball radius {rho} is not finite and >= 0")
    return ConvexBody(grid=grid, terms=(rows, offsets.astype(np.int64, copy=False), weights), ball_radius=rho)


def from_support_samples(grid: SphereGrid, h) -> ConvexBody:
    """Outer body {x : <x,u_j> <= h_j} of support samples h_j at the grid
    nodes u_j."""
    h = check_samples(grid, finite(h, "support sample"))
    return ConvexBody(grid=grid, sampled_support=h)


def from_vertices(grid: SphereGrid, verts) -> ConvexBody:
    verts = np.atleast_2d(np.asarray(verts, dtype=float))
    return from_terms(grid, verts, [0, verts.shape[0]], [1.0])


def ball(grid: SphereGrid, radius: float = 1.0) -> ConvexBody:
    if radius <= 0:
        raise NonpositiveRadius(f"ball radius {radius}")
    return from_terms(grid, np.zeros((1, grid.n)), [0, 1], [1.0], radius)


def from_radial(grid: SphereGrid, r) -> ConvexBody:
    """Body of positive radial samples r_i at the grid nodes u_i: the hull
    of the cloud {r_i u_i}. Its support samples are those of the cloud,
    and its radial samples are r as given. A body with a polynomial
    radial profile is built by fields.radial_body instead."""
    r = check_samples(grid, finite(r, "radial sample"))
    if np.min(r) <= 0:
        raise NonpositiveRadius(f"min radial sample {np.min(r):.3e}")
    return ConvexBody(grid=grid, sampled_radial=r)


_VALIDATE_TOL = 1e-9  # slack of validate_body's unit-ball and Lipschitz checks


def validate_body(body: ConvexBody, in_unit_ball: bool = False) -> dict:
    """Check the sampled-support invariants; raises InputError on hard
    failures (OriginNotInterior on support samples that are not positive),
    returns a diagnostics dict. Every sample is attained: support_excess,
    the largest of support - support_eval at the nodes, is <= 1e-12 max|h|."""
    h = finite(body.support, "support sample")
    report = {"min_support": float(h.min()), "max_support": float(h.max())}
    if in_unit_ball:
        if h.max() > 1.0 + _VALIDATE_TOL:
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
        if worst > _VALIDATE_TOL:
            raise InputError(f"support violates 1-Lipschitz compatibility by {worst:.3e}")
    excess = h - body.support_eval(body.grid.nodes)
    k = int(np.argmax(excess))
    report["support_excess"] = float(excess[k])
    if excess[k] > 1e-12 * np.abs(h).max():
        raise InputError(f"support sample {h[k]} at node {k} lies {excess[k]:.3e} above the support")
    return report


def hausdorff(a: ConvexBody, b: ConvexBody) -> float:
    """Hausdorff distance = sup-norm of the support difference, on the
    common grid."""
    if a.grid != b.grid:
        raise GridMismatch("bodies live on different grids")
    return float(np.max(np.abs(a.support - b.support)))


#: Chart-gradient tolerance of the Newton polish. Near a nondegenerate
#: extreme the value error is about |gradient|^2 / curvature, far below
#: float64 resolution of the value at this tolerance.
POLISH_GTOL = 1e-9

#: Iteration cap of the Newton polish; from a grid node it converges in
#: a handful of steps.
POLISH_MAXITER = 50

#: Halvings of a Newton step that does not raise the value before its
#: start is taken as converged to float resolution.
_POLISH_HALVINGS = 40

#: Longest chart step of the Newton polish (a 45 degree move).
_POLISH_MAX_STEP = 1.0


def _tangent_frames(u: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames (P, n, n-1) at the unit rows of u: the
    last n-1 columns of the Householder reflection I - w w^T / (1 + |u_0|),
    w = u + sign(u_0) e_0, which maps e_0 to -sign(u_0) u."""
    n = u.shape[1]
    w = u.copy()
    w[:, 0] += np.where(u[:, 0] >= 0, 1.0, -1.0)
    scale = 1.0 / (1.0 + np.abs(u[:, 0]))
    return np.eye(n)[:, 1:] - w[:, :, None] * (scale[:, None, None] * w[:, None, 1:])


def _short_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum over a short axis (n <= 4 terms) as elementwise adds in index
    order. numpy's reductions and stacked matmul round such sums in an
    order that can change with the number of rows, and the Newton polish
    must give a row the same bits in any batch."""
    return sum(np.moveaxis(x, axis, 0))


def _newton_ascent(exps: np.ndarray, coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Local maxima of q_p(v) = monomials(v) @ coef[p] over unit vectors v,
    one from each start u[p], by one Riemannian Newton iteration over all
    rows (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008, ch. 6). Returns the values (P,).

    At v, with F the tangent frame, the chart x -> (v + F x) / |v + F x|
    has gradient g = F^T grad q and Hessian H = F^T (hess q) F -
    (v . grad q) I. The step solves H x = -g with the eigenvalues of H
    replaced by -max(|lambda|, 1e-8 max|lambda|), so that x is an ascent
    direction, and is capped at _POLISH_MAX_STEP. A step is kept only if
    it raises the value, else it is halved; a row whose step cannot be
    made to raise the value stays where it is. The iteration stops when
    every |g| is at most POLISH_GTOL or after POLISH_MAXITER steps, so no
    value ends below its start. Each row follows its own trajectory,
    whatever rows are polished with it.
    """
    u = np.array(u, dtype=float)
    val, grad, hess = monomial_jet(exps, coef, u)
    eye = np.eye(u.shape[1] - 1)
    active = np.arange(u.shape[0])
    for _ in range(POLISH_MAXITER):
        frame = _tangent_frames(u[active])
        g = _short_sum(frame * grad[active, :, None], 1)
        moving = np.abs(g).max(axis=1) > POLISH_GTOL
        active, frame, g = active[moving], frame[moving], g[moving]
        if active.size == 0:
            break
        hf = _short_sum(hess[active][:, :, :, None] * frame[:, None, :, :], 2)
        radial = _short_sum(u[active] * grad[active], 1)
        h = _short_sum(frame[:, :, :, None] * hf[:, :, None, :], 1) - radial[:, None, None] * eye
        lam, vec = np.linalg.eigh(h)
        mag = np.abs(lam)
        mag = np.maximum(mag, 1e-8 * mag.max(axis=1, keepdims=True))
        step = _short_sum(vec * (_short_sum(vec * g[:, :, None], 1) / mag)[:, None, :], 2)
        step *= np.minimum(1.0, _POLISH_MAX_STEP / np.sqrt(_short_sum(step * step, 1)))[:, None]
        pending = np.ones(active.size, dtype=bool)
        for _ in range(_POLISH_HALVINGS):
            rows = active[pending]
            v = u[rows] + _short_sum(frame[pending] * step[pending, None, :], 2)
            v /= np.sqrt(_short_sum(v * v, 1))[:, None]
            tv, tg, th = monomial_jet(exps, coef[rows], v)
            up = tv > val[rows]
            took = rows[up]
            u[took], val[took], grad[took], hess[took] = v[up], tv[up], tg[up], th[up]
            pending[pending] = ~up
            if not pending.any():
                break
            step[pending] *= 0.5
        active = active[~pending]
    return val


def _polish_profiles(bodies) -> tuple[np.ndarray, np.ndarray]:
    """Off-grid (rmax, rmin) arrays of bodies with polynomial radial
    profiles 1 + eps * phi, the phi sharing one (n, d) (InputError
    otherwise): each body's three largest and three smallest grid
    samples are polished in one _newton_ascent over all bodies."""
    exps, coef = stacked_monomial_form([b.radial_profile[1] for b in bodies])
    eps = np.array([b.radial_profile[0] for b in bodies], dtype=float)
    starts = []
    for body in bodies:
        order = np.argsort(body.radial)
        starts.append(body.grid.nodes[np.concatenate([order[-3:], order[:3]])])
    owner = np.repeat(np.arange(len(bodies)), 6)
    sign = np.tile([1.0, 1.0, 1.0, -1.0, -1.0, -1.0], len(bodies))
    q = _newton_ascent(exps, (sign * eps[owner])[:, None] * coef[owner], np.vstack(starts))
    r = (1.0 + sign * q).reshape(len(bodies), 2, 3)
    return r[:, 0].max(axis=1), r[:, 1].min(axis=1)


#: Chart-coordinate tolerance of the Nelder-Mead polish.
_POLISH_XTOL = 1e-10


def _polish_extreme(fun, u0: np.ndarray, maximize: bool):
    """Local refinement of an extreme of a function of a unit vector by
    Nelder-Mead to _POLISH_XTOL, in the tangent chart x -> (u0 + F x) /
    |u0 + F x| around u0, F the tangent frame of _tangent_frames at u0.
    fun maps (1, n) unit vectors to values and need not be smooth. It is
    the fallback of bm_distance(refine=True) for an extreme ratio of
    supports without a closed form; a local search, it can stall on a
    ridge of that ratio below the true extreme.
    """
    from scipy.optimize import minimize
    frame = _tangent_frames(u0[None])[0]
    sgn = -1.0 if maximize else 1.0

    def obj(x):
        v = u0 + frame @ x
        v /= np.linalg.norm(v)
        return sgn * fun(v[None, :])[0]

    res = minimize(
        obj, np.zeros(u0.size - 1), method="Nelder-Mead",
        options={"xatol": _POLISH_XTOL, "fatol": 1e-14, "maxiter": 600},
    )
    return sgn * res.fun


def _facets(points: np.ndarray) -> np.ndarray:
    """Facet equations <a, x> + b = 0, a unit and b < 0, of conv(points),
    which must hold the origin in its interior (OriginNotInterior
    otherwise)."""
    from scipy.spatial import ConvexHull, QhullError
    try:
        eq = ConvexHull(points).equations
    except QhullError:
        raise OriginNotInterior("polytope is flat, so the origin is not interior") from None
    if np.any(eq[:, -1] >= 0):
        raise OriginNotInterior("the origin lies on or outside a facet of the polytope")
    return eq


def polar_vertices(points: np.ndarray) -> np.ndarray:
    """Vertices of the polar {x : <x, p> <= 1 for every row p of points}
    of conv(points), the origin interior to it: the facet <a, x> + b = 0
    gives the vertex -a / b. qhull splits a facet with more than n
    coplanar points into simplices that repeat its equation, so exact
    duplicate rows are dropped."""
    eq = _facets(points)
    return np.unique(-eq[:, :-1] / eq[:, -1:], axis=0)


def _ratio_max_directions(a: ConvexBody, b: ConvexBody) -> np.ndarray | None:
    """Unit directions among which max_u hB/hA is attained, for term
    bodies a and b, or None when there is no closed form.

    The maximum is that of the convex hB over the polar of a, so it sits
    at a vertex of the polar (Schneider, Convex Bodies: The
    Brunn-Minkowski Theory, 2nd ed., 2014): a facet normal when a is a
    polytope (one term, no ball radius). When a is a ball (every row
    zero) it is the maximum of hB on the unit sphere, and for b of one
    term that is at a direction of one of b's rows."""
    rows, offsets, _ = a.terms
    if offsets.size == 2 and a.ball_radius == 0:
        return _facets(rows)[:, :-1]
    if not rows.any() and b.terms[1].size == 2:
        v = b.terms[0]
        norm = np.linalg.norm(v, axis=1)
        return v[norm > 0] / norm[norm > 0, None]
    return None


def bm_distance(a: ConvexBody, b: ConvexBody, refine: bool = False) -> float:
    """Sandwich distance log(t*/s*), with t* and s* the extreme ratios
    hB/hA over the grid.

    With refine=True and term bodies on both sides, each extreme is taken
    off the grid as well. t* is exact when a is a polytope, or a is a ball
    and b has one term: the ratio at the directions of
    _ratio_max_directions joins the grid nodes. s* = 1 / max hA/hB is
    exact under the same rule with a and b swapped. So both extremes are
    exact for every pair of polytopes and balls. Any other extreme falls
    back to _polish_extreme from the three most extreme grid nodes, a
    local search that can stop short of it. Every pair with a thickened
    polytope or a multi-term body (a Minkowski sum, a group average) has
    at least one such extreme. A polytope side without the origin in its
    interior raises OriginNotInterior."""
    if a.grid != b.grid:
        raise GridMismatch("bodies live on different grids")
    ha, hb = a.support, b.support
    if ha.min() <= 0 or hb.min() <= 0:
        raise OriginNotInterior("sandwich distance needs origin-interior bodies")
    ratio = hb / ha
    t_star = float(ratio.max())
    s_star = float(ratio.min())
    if refine and a.terms is not None and b.terms is not None:
        def rfun(pts):
            return b.support_eval(pts) / a.support_eval(pts)

        nodes = a.grid.nodes
        dirs = _ratio_max_directions(a, b)
        if dirs is None:
            for i in np.argsort(ratio)[-3:]:
                t_star = max(t_star, _polish_extreme(rfun, nodes[i], maximize=True))
        elif dirs.size:
            t_star = max(t_star, float(rfun(dirs).max()))
        dirs = _ratio_max_directions(b, a)
        if dirs is None:
            for i in np.argsort(ratio)[:3]:
                s_star = min(s_star, _polish_extreme(rfun, nodes[i], maximize=False))
        elif dirs.size:
            s_star = min(s_star, float(rfun(dirs).min()))
    return math.log(t_star / s_star)


def _positive_support(body: ConvexBody) -> np.ndarray:
    h = body.support
    if h.min() <= 0:
        raise OriginNotInterior(f"the outer body needs positive support, min={h.min():.3e}")
    return h


def radial_from_support(body: ConvexBody) -> np.ndarray:
    """Radial function of the outer body {x : <x,u_j> <= h_j} at the
    grid nodes. Every radius is positive: at node i the scan's own term
    1/h_i > 0 bounds its maximum from below."""
    return backend.radial_from_support(_positive_support(body), body.grid.nodes, body.grid.nodes)


def distances_to_ball(bodies) -> list[float]:
    """distance_to_ball of each body. The bodies with a radial profile
    are polished together, so their profiles must share one (n, d)."""
    bodies = list(bodies)
    extremes = np.array([(b.radial.max(), b.radial.min()) for b in bodies]).reshape(-1, 2)
    profiled = [i for i, b in enumerate(bodies) if b.radial_profile is not None]
    if profiled:
        rmax, rmin = _polish_profiles([bodies[i] for i in profiled])
        extremes[profiled, 0] = np.maximum(extremes[profiled, 0], rmax)
        extremes[profiled, 1] = np.minimum(extremes[profiled, 1], rmin)
    if np.any(extremes[:, 1] <= 0):
        raise NonpositiveRadius("radial minimum is nonpositive")
    return [math.log(rmax / rmin) for rmax, rmin in extremes.tolist()]


def distance_to_ball(body: ConvexBody) -> float:
    """log(max r / min r) over radial samples; the sandwich distance to
    the best centered ball. Bodies built from a polynomial radial
    profile 1 + eps * phi get the three largest and three smallest grid
    samples polished off-grid by a Riemannian Newton iteration on the
    exact derivatives of phi (_newton_ascent), so the value is invariant
    under rotation of the profile."""
    return distances_to_ball([body])[0]


def certify_convex_radial(body: ConvexBody, tol: float | None = None) -> bool:
    """Convexity certificate for a radially sampled body.

    n = 2: spectral criterion r^2 + 2 r'^2 - r r'' >= -tol with FFT
    derivatives (exact for band-limited samples).
    n >= 3: hull_depth of the radial cloud against its own sampled
    support, with floor -tol and tolerance scaled by the squared grid gap.
    """
    r = body.radial
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
    return bool(hull_depth(grid, r, -tol) >= -tol)


#: Taken off both cosine cut-offs of hull_depth, so that round-off never
#: drops a pair that attains a maximum.
_COS_PAD = 1e-12
#: Taken, times max r, off the own-direction bound r_i - h_i of a hull
#: gap in hull_depth, above the few ulps by which the two can round apart.
_GAP_PAD = 1e-12


def _radial_support(grid: SphereGrid, r: np.ndarray):
    """(h, radii): the support h_j = max_i r_i <u_i, u_j> of the radial
    cloud {r_i u_i} over the pairs with <u_i, u_j> >= rmin/rmax, and the
    radii scanned on the caps of the first G/2 nodes: r and, unless r is
    exactly even, the flipped radii r[antipode]."""
    flipped = r[grid.antipode]
    radii = [r] if np.array_equal(r, flipped) else [r, flipped]
    rings = (grid.rings, float(r.min()) / float(r.max()) - _COS_PAD)
    halves = [backend.support_max_dot(v[:, None] * grid.nodes, grid.nodes,
                                      radial=(v, grid.nodes), rings=rings) for v in radii]
    return np.concatenate([halves[0], halves[-1]]), radii


def hull_depth(grid: SphereGrid, r: np.ndarray, floor: float = math.inf) -> float:
    """Minimum hull gap of the radial cloud {r_i u_i} on the grid nodes
    u_i against its own sampled support h_j = max_i r_i <u_i, u_j>.

    Zero when every cloud point lies on the hull of the cloud, negative
    by the depth of the deepest dimple otherwise; -inf when r has a
    non-positive entry, since then there is no star body to certify.
    Radii that are not a finite array of shape (G,) raise InputError.
    The value is exact when it is below floor, else some v with
    floor <= v <= depth, so hull_depth(grid, r, f) >= f decides
    depth >= f exactly; the default floor scans every node.

    Every term is r_i * c_ij, c_ij = <u_i, u_j> the cosine of
    backend._product, which rounds alike in any block and is stored in
    grid.rings. Both maxima are taken over the caps of the pairs that
    can attain them, which gives the dense scan's value exactly. With r
    in [rmin, rmax], and c_jj and every h rounding within a few ulps of
    1 and of the exact support:

    - support: h_j is attained where c_ij >= rmin/rmax - _COS_PAD. Any
      other i has r_i c_ij < rmax (rmin/rmax - _COS_PAD) = rmin - _COS_PAD
      rmax, far below r_j c_jj >= rmin (1 - ulps), the i = j term.
    - gap: max_j (r_i c_ij - h_j) is attained where c_ij >= 1 - (rmax -
      rmin)/rmin - _COS_PAD. Any other j has r_i c_ij - h_j < r_i - (rmax
      - rmin) - r_i _COS_PAD - rmin, and the j = i term r_i c_ii - h_i is
      at least r_i - rmax less a few ulps of rmax, because h_j >= r_j c_jj
      and h_i <= rmax up to round-off; _COS_PAD * rmin clears those ulps.
    - rings: each output reduces one cap of grid.rings, that of the first
      level at or below the cut, which holds every pair the cut keeps if
      the cut is at or above L = RING_LEVELS[-1] (a maximum over more
      pairs that holds the maximiser is the same number). Below L, an
      output whose cap maximum reaches the largest value an entry left
      out can round to (fl(rmax L) for a support, fl(fl(r_i L) - min h)
      for a gap, rounding monotone) is exact; the others are scanned over
      every node, but for a gap whose cap maximum already reaches the
      floor. That maximum is a lower bound of the gap at or above the
      floor, so the minimum stays exact below the floor and between
      floor and depth above it.
    - antipodes: the caps cover the first G/2 nodes. nodes[G/2:] ==
      -nodes[:G/2] and negation rounds exactly, so c(-u_i, u_j) ==
      c(u_i, -u_j) and the outputs of r from G/2 on are, bit for bit,
      the first G/2 of the flipped radii r[antipode] against h[antipode],
      on the same caps. An exactly even r is its own flip (h_-j = h_j,
      gap_-i = gap_i): one scan.
    - floor: gap_i >= r_i c_ii - h_i, the j = i term, which is in every
      cap. So low_i = r_i - h_i - _GAP_PAD * rmax bounds the computed
      gap from below, and a point with low_i >= floor is not scanned: it
      counts with low_i. The other points of each cloud go to one
      hull_gaps call, and each scanned gap keeps the dense scan's bits.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (grid.size,):
        raise InputError(f"radii of shape {r.shape} on a grid of {grid.size} nodes")
    # a nan or an infinite entry makes the minimum or the maximum non-finite
    rmin, rmax = float(r.min()), float(r.max())
    if not (math.isfinite(rmin) and math.isfinite(rmax)):
        raise InputError(f"radii must be finite, got min {rmin} and max {rmax}")
    if rmin <= 0:
        return -math.inf
    h, radii = _radial_support(grid, r)
    low = r - h - _GAP_PAD * rmax
    cut = 1.0 - (rmax - rmin) / rmin - _COS_PAD
    # radii s output r's half s: the flipped radii's first half, against h turned over
    for v, hs, part in zip(radii, (h, h[grid.antipode]), low.reshape(2, -1)):
        near = np.flatnonzero(part < floor)
        part[near] = backend.hull_gaps(v[:, None] * grid.nodes, grid.nodes, hs,
                                       radial=(v, grid.nodes), rings=(grid.rings, cut, near, floor))
    return float(low[:grid.size // 2 * len(radii)].min())


def group_average(body: ConvexBody, sample: GroupSample) -> ConvexBody:
    """Support-function average over the sampled group,
    h_avg(u) = sum_g w_g h(g u). Exact-evaluator bodies stay exact: each
    Minkowski term (w, V) contributes (w_g w, V g) per element."""
    if sample.n != body.n:
        raise InputError(f"group on R^{sample.n} vs body in R^{body.n}")
    grid = body.grid
    if body.terms is not None:
        rows, offsets, weights = body.terms
        shift = rows.shape[0] * np.arange(sample.size)
        return from_terms(
            grid,
            (rows @ sample.elements).reshape(-1, body.n),
            np.append((offsets[:-1] + shift[:, None]).ravel(), sample.size * rows.shape[0]),
            np.outer(sample.weights, weights).ravel(),
            body.ball_radius,
        )
    pts = np.einsum("kij,gj->kgi", sample.elements, grid.nodes).reshape(-1, body.n)
    vals = body.support_eval(pts).reshape(sample.size, grid.size)
    return from_support_samples(grid, sample.weights @ vals)


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
    """Image body under x -> s x, of the scaled terms, support samples or
    radial samples. A radial-profile body is refused: s (1 + eps phi) is
    not of the form 1 + eps' phi', so its image could only be radial
    samples, which lose the off-grid Newton polish of distance_to_ball
    and read its scale-invariant value low."""
    if s <= 0:
        raise InputError("scale must be positive")
    if body.radial_profile is not None:
        raise InputError("a radial-profile body has no exact scaled image")
    if body.terms is not None:
        rows, offsets, weights = body.terms
        return from_terms(body.grid, s * rows, offsets, weights, s * body.ball_radius)
    if body.sampled_support is not None:
        return from_support_samples(body.grid, s * body.support)
    return from_radial(body.grid, s * body.radial)
