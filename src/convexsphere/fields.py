"""Fiberwise convex-body constructions over frames.

The octahedron field C(Q) of a traceless symmetric form: with
eigenvalues labeled so the same-sign pair is lam >= mu and
nu = -lam - mu, C(Q) is the hull of three orthogonal segments along
the eigenvectors with total lengths (lam-mu)^2, (lam-mu)^2, nu^2.
The (lam-mu)^2 lengths shut down the eigenvector instability at
lam = mu collisions, which is what keeps the map continuous; at a sign
crossing of the middle eigenvalue the traceless constraint makes the
two labelings agree, so no tie-breaking tolerance is needed.

Paired octahedra hull to at most 12 vertices, thickenings add a ball
radius, and radial bodies 1 + eps*phi with phi in the unit sphere of
the even zero-average polynomials give the certified-convexity family
whose largest working eps is estimated by bisection in find_epsilon.

A BodyField is its frames and one body per frame on one grid, nothing
more. quad_pair_field builds the octahedron field C(Q) of two ambient
forms over given frames, ambient_quad_field the radial bodies of one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    ConvexBody,
    distances_to_ball,
    from_support_samples,
    from_terms,
    from_vertices,
    hausdorff,
    hull_depth,
)
from .errors import ConstantPolynomial, InputError, NonpositiveRadius
from .groups import random_rotations
from .polynomials import (
    SphericalPoly,
    get_basis,
    is_nonconstant,
    odd_even_split,
    poly_product,
    project,
    rotate_poly,
    to_F_space,
)
from .sphere import SphereGrid, build_grid, check_samples, derived_field, read_only

# ||x -> <x,Qx>||_{L2(S^2)}^2 = (8 pi / 15) ||Q||_F^2 for traceless
# symmetric Q (fourth-moment identity); unit L2 norm in the space of
# restricted quadratics therefore pins the Frobenius norm:
QUADFORM_UNIT_FROBENIUS = math.sqrt(15.0 / (8.0 * math.pi))


@dataclass(frozen=True, eq=False)
class QuadForm3:
    """Traceless symmetric 3x3 form with its spectral labels."""

    matrix: np.ndarray
    lam: float = derived_field()
    mu: float = derived_field()
    nu: float = derived_field()
    evecs: np.ndarray = derived_field()  # columns e1, e2, e3

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InputError("QuadForm3 needs a 3x3 matrix")
        if np.max(np.abs(m - m.T)) > 1e-10:
            raise InputError("matrix is not symmetric")
        if abs(np.trace(m)) > 1e-12 * max(1.0, np.abs(m).max()):
            raise InputError(f"matrix has trace {np.trace(m):.3e}, expected 0")
        m = read_only(0.5 * (m + m.T))
        w, v = np.linalg.eigh(m)
        # ascending w[0] <= w[1] <= w[2]; tracelessness puts w[0] <= 0 <= w[2].
        # The same-sign pair is (w[1], w[2]) when w[1] >= 0, else (w[0], w[1]);
        # the leftover eigenvalue has the largest magnitude and is nu.
        order = [2, 1, 0] if w[1] >= 0.0 else [1, 0, 2]
        for name, value in zip(("lam", "mu", "nu"), w[order]):
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "evecs", read_only(v[:, order]))
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, m) -> "QuadForm3":
        """The form of the traceless symmetric part of a 3x3 matrix."""
        m = np.asarray(m, dtype=float)
        m = 0.5 * (m + m.T)
        return cls(m - (np.trace(m) / 3.0) * np.eye(3))

    @classmethod
    def random_unit(cls, rng: np.random.Generator) -> "QuadForm3":
        return cls.from_matrix(rng.normal(size=(3, 3))).normalized()

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.matrix))

    @property
    def l2_norm(self) -> float:
        """L2(S^2) norm of u -> <u, Q u>."""
        return math.sqrt(8.0 * math.pi / 15.0) * self.frobenius

    def normalized(self) -> "QuadForm3":
        f = self.frobenius
        if f < 1e-300:
            raise InputError("cannot normalize the zero form")
        return QuadForm3(self.matrix * (QUADFORM_UNIT_FROBENIUS / f))

    def scaled(self, a: float) -> "QuadForm3":
        return QuadForm3(a * self.matrix)


def _octahedron_vertices(q: QuadForm3) -> np.ndarray:
    """The six vertices +-(l_i / 2) e_i of the octahedron of Q, with
    lengths l = ((lam-mu)^2, (lam-mu)^2, nu^2) along its eigenvectors."""
    pair_len = (q.lam - q.mu) ** 2
    half = 0.5 * np.array([pair_len, pair_len, q.nu**2])[:, None] * q.evecs.T
    return np.vstack([half, -half])


def octahedron(grid: SphereGrid, q: QuadForm3) -> ConvexBody:
    """Hull of the three orthogonal segments along the eigenvectors of
    Q, total lengths (lam-mu)^2, (lam-mu)^2, nu^2 (possibly degenerate
    down to a segment or the origin)."""
    return from_vertices(grid, _octahedron_vertices(q))


def pair_hull(grid: SphereGrid, t: float, qa: QuadForm3, qb: QuadForm3) -> ConvexBody:
    """Hull of the octahedra of the scaled forms t*Qa and (1-t)*Qb
    (at most 12 vertices). Unit-norm inputs required; the output can
    flatten, but never to the origin: max(t, 1-t) >= 1/2, and nu^2 >=
    F0^2/3 for a form of Frobenius norm F0 = QUADFORM_UNIT_FROBENIUS, so
    the longest vertex has norm >= F0^2/24 (about 0.025)."""
    if not 0.0 <= t <= 1.0:
        raise InputError(f"join weight t={t} outside [0, 1]")
    for q in (qa, qb):
        if abs(q.l2_norm - 1.0) > 1e-8:
            raise InputError(
                f"pair_hull needs unit-norm forms, got L2 norm {q.l2_norm:.8f}"
            )
    verts = np.vstack([
        _octahedron_vertices(qa.scaled(t)),
        _octahedron_vertices(qb.scaled(1.0 - t)),
    ])
    return from_vertices(grid, verts)


def thicken(body: ConvexBody, rho: float) -> ConvexBody:
    """Minkowski sum with the ball of radius rho. A body with exact terms
    keeps them and gains rho on its ball radius; a sample-only body gets
    rho added to its support samples."""
    if rho <= 0:
        raise InputError(f"thickening radius must be positive, got {rho}")
    if body.terms is not None:
        return from_terms(body.grid, *body.terms, body.ball_radius + rho)
    return from_support_samples(body.grid, body.support + rho)


def psi_product(fp: SphericalPoly, fm: SphericalPoly, d_out: int = 8) -> SphericalPoly:
    """Normalized projection of the product of two even non-constant
    polynomials of degree <= 4 onto the zero-average subspace; lands in
    the unit sphere of F^8. Exactly symmetric under swapping inputs."""
    for f in (fp, fm):
        if f.d > 4:
            raise InputError(f"psi_product inputs must have degree <= 4, got {f.d}")
        if f.odd_part_norm() > 1e-8:
            raise InputError("psi_product inputs must be even")
        if not is_nonconstant(f):
            raise InputError("psi_product inputs must be non-constant")
    return to_F_space(poly_product(fp, fm, d_out))


def radial_body(grid: SphereGrid, phi: SphericalPoly, eps: float) -> ConvexBody:
    """The body of radial profile 1 + eps*phi (phi even, unit norm), whose
    grid samples and polished radial extremes all derive from phi."""
    if not (math.isfinite(eps) and eps >= 0):
        raise InputError(f"eps must be finite and nonnegative, got {eps}")
    if phi.odd_part_norm() > 1e-8:
        raise InputError("radial profile must be even")
    body = ConvexBody(grid=grid, radial_profile=(eps, phi))
    r = check_samples(grid, body.radial)
    if np.min(r) <= 0:
        raise NonpositiveRadius(
            f"1 + eps*min(phi) = {np.min(r):.3e} is not positive at eps={eps}"
        )
    return body


def sample_unit_F(
    n: int, d: int, count: int, seed: int, grid: SphereGrid | None = None
) -> list[SphericalPoly]:
    """Haar-random rotations of the orthonormal spanning set of the
    unit sphere of F^d: sample i is basis element (i mod dim F)
    composed with a random rotation."""
    if count < 0:
        raise InputError(f"sample count must be >= 0, got {count}")
    if grid is None:
        grid = build_grid(n)
    basis = get_basis(n, d, grid)
    f_idx = np.flatnonzero(basis.f_mask)
    if f_idx.size == 0:
        raise InputError(f"F^{d} is empty for n={n}")
    rng = np.random.default_rng(seed)
    rots = random_rotations(n, count, rng)
    out = []
    for i in range(count):
        c = np.zeros(basis.dim)
        c[f_idx[i % f_idx.size]] = 1.0
        base = SphericalPoly(c, basis)
        out.append(rotate_poly(base, rots[i]))
    return out


#: Hull-depth certification threshold of find_epsilon, relative to the
#: body scale: a fixed dimple depth, where certify_convex_radial's
#: default tolerance shrinks with the grid gap. The estimate does not
#: converge on the grids in use: find_epsilon(3, 200, seed=1) without
#: the refined check gives eps_star 0.01950, 0.02158 and 0.02537 at
#: G = 512, 2048 and 8192, a rise of 10-21% per doubling of G.
DEPTH_TOL = 5e-3

#: Margin, times max r, by which find_epsilon's proven lower bound on a
#: depth must clear the floor before a scan is skipped. It lies far above
#: the round-off between the bound and a scan's depth: a few ulps of
#: max r, and hull_depth's own pad of 1e-12 max r.
_SKIP_PAD = 1e-9


def depth_certificate(grid: SphereGrid, r: np.ndarray) -> tuple[bool, float]:
    """(passes, depth) of find_epsilon's certificate on the radii r:
    hull_depth >= -DEPTH_TOL * max r, decided with that floor, and the
    depth the scan returned (-inf for a non-positive radius, which fails)."""
    floor = -DEPTH_TOL * float(r.max())
    depth = hull_depth(grid, r, floor)
    return depth >= floor, depth


def _depth_bound(eps_a: float, depth: float, vmin: float, vmax: float, eps: float) -> float:
    """A lower bound on the hull depth of the radii 1 + eps*v, v in
    [vmin, vmax], from the depth that hull_depth returned for the radii
    1 + eps_a*v; find_epsilon proves it."""
    delta = eps - eps_a
    m = max(vmax, 0.0) if delta >= 0 else max(-vmin, 0.0)
    return depth - abs(delta) * (max(vmax, -vmin) + m)


def find_epsilon(
    n: int,
    sample_count: int = 500,
    seed: int = 0,
    grid: SphereGrid | None = None,
    d: int = 8,
    steps: int = 18,
    refined_check: bool = True,
    phis: list[SphericalPoly] | None = None,
) -> dict:
    """Bisection for the largest eps such that every sampled body with
    radial function 1 + eps*phi certifies convex, over Haar-rotated
    spanning samples of the unit sphere of F^d.

    Certification is depth_certificate: it accepts hull gaps down to
    -DEPTH_TOL * max(r), a fixed dimple depth relative to the body scale;
    hull_depth takes it as its floor, so only the points near or below
    it are scanned for gaps. Bisection runs on the working grid;
    the final eps is re-certified on the 2x-refined grid and the pass
    rate reported (running the refined check inside every bisection step
    would be orders of magnitude more work).

    A round skips the scan of a sample that its latest scan already
    passes. Fix the sample v, and let that scan be at eps_a, where
    hull_depth returned d_a, at most the depth there (its floor
    contract). At eps = eps_a + D, with every radius positive:

    - r_i = 1 + eps*v_i is linear in eps, so each term r_i <u_i, u_j> of
      a gap moves by at most |D| max|v|.
    - h_j = max_k r_k <u_k, u_j> is attained at a k with
      0 < <u_k, u_j> <= 1, since h_j >= r_j > 0. The same k at eps_a
      gives h_j(eps_a) >= h_j(eps) - D v_k <u_k, u_j>, so
      h_j(eps) <= h_j(eps_a) + |D| m, with m = max(0, max v) for D >= 0
      and m = max(0, -min v) for D < 0.

    So every gap max_j (r_i <u_i, u_j> - h_j) falls by at most
    |D| (max|v| + m), and depth(eps) >= d_a - |D| (max|v| + m), which
    _depth_bound computes. When the bound clears the floor by
    _SKIP_PAD * max r, the sample passes at eps and is not scanned. A
    sample with a non-positive radius at eps is always scanned, and
    fails; its depth -inf, like that of a sample not yet scanned, proves
    nothing. A skipped sample would have passed, so the pass/fail
    history, limiting_sample and eps_star are those of a scan of every
    sample. The refined check scans every sample.

    phis, when given, are the samples sample_unit_F(n, d, sample_count,
    seed, grid) already drawn by the caller; they are used as they are.

    limiting_sample in the result is the index of a sample that fails at
    eps_upper, the one that bounds eps_star (None when no round failed).
    """
    if n not in (3, 4):
        raise InputError(f"find_epsilon needs n in {{3, 4}}, got n={n}")
    if sample_count < 1:
        raise InputError(f"find_epsilon needs sample_count >= 1, got {sample_count}")
    if steps < 0:
        raise InputError(f"find_epsilon needs steps >= 0, got {steps}")
    if grid is None:
        grid = build_grid(n)
    if phis is None:
        phis = sample_unit_F(n, d, sample_count, seed, grid)
    elif len(phis) != sample_count or any((p.n, p.d) != (n, d) or p.grid != grid for p in phis):
        raise InputError(f"find_epsilon needs {sample_count} samples of degree {d} on its grid")
    # even to the last bit (the samples are even to round-off), so that
    # hull_depth scans them once, on the caps of the first half
    vals = odd_even_split(grid, np.stack([p.samples for p in phis]))[0]
    mins, tops = vals.min(axis=1), vals.max(axis=1)
    if np.any(mins >= 0):
        raise InputError("zero-average sample without negative values")  # pragma: no cover
    hi0 = float(np.min(-1.0 / mins))

    latest = [(0.0, -math.inf)] * len(vals)  # (eps, depth) of each sample's latest scan

    def proven(k: int, eps: float) -> bool:
        # min r and max r of 1 + eps * v are 1 + eps * min v and 1 + eps * max v:
        # rounding is monotone
        if 1.0 + eps * mins[k] <= 0:
            return False
        rmax = 1.0 + eps * tops[k]
        return _depth_bound(*latest[k], mins[k], tops[k], eps) >= (_SKIP_PAD - DEPTH_TOL) * rmax

    limiting = None  # the sample that failed the latest failed round

    def certifies(eps: float) -> bool:
        # the sample that failed last round is checked first: it is the
        # likeliest to fail again, and all() does not depend on the order
        nonlocal limiting
        first = [] if limiting is None else [limiting]
        for k in first + [k for k in range(len(vals)) if k != limiting]:
            if proven(k, eps):
                continue
            ok, depth = depth_certificate(grid, 1.0 + eps * vals[k])
            latest[k] = (eps, depth)
            if not ok:
                limiting = k
                return False
        return True

    lo, hi = 0.0, hi0
    history = []
    if certifies(hi0):
        lo = hi0
    else:
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            ok = certifies(mid)
            history.append((mid, ok))
            if ok:
                lo = mid
            else:
                hi = mid

    result = {
        "n": n,
        "d": d,
        "sample_count": sample_count,
        "seed": seed,
        "resolution": grid.resolution,
        "grid_key": grid.key,
        "eps_star": lo,
        "eps_upper": hi,
        "positivity_cap": hi0,
        "bisection_steps": len(history),
        "history": history,
        "limiting_sample": limiting,
    }
    result["depth_tol"] = DEPTH_TOL
    if refined_check and lo > 0:
        fine = grid.refined()
        # every sample shares one cached basis: evaluate it once at the
        # refined nodes and take all samples as one matrix product
        coeffs = np.stack([p.coeffs for p in phis])
        fine_vals = odd_even_split(fine, (phis[0].basis.eval(fine.nodes) @ coeffs.T).T)[0]
        passed = sum(depth_certificate(fine, 1.0 + lo * v)[0] for v in fine_vals)
        result["refined_pass_rate"] = passed / sample_count
    return result


def separation_delta(bodies) -> float:
    """Smallest distance-to-ball across a family of radial bodies, their
    radial profiles polished in one batch (distances_to_ball)."""
    return min(distances_to_ball(bodies))


# ---------------------------------------------------------------------------
# body fields over frames
# ---------------------------------------------------------------------------


def frame_align(wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Rotation R in SO(n) minimizing ||wa - R wb||_F (orthogonal
    Procrustes with determinant correction); used to compare bodies of
    nearby frames in a common coordinate system."""
    m = wa @ wb.T
    u, _, vt = np.linalg.svd(m)
    s = np.ones(m.shape[0])
    s[-1] = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag(s) @ vt


def rotate_body(body: ConvexBody, rot: np.ndarray) -> ConvexBody:
    """Image body under x -> R x. Term bodies rotate their vertices and a
    radial-profile body its profile, phi -> phi(R^T .), so both stay
    exact; a sample-only body gets the support samples of its off-grid
    evaluator at the rotated nodes."""
    rot = np.asarray(rot, dtype=float)
    grid = body.grid
    if body.terms is not None:
        rows, offsets, weights = body.terms
        return from_terms(grid, rows @ rot.T, offsets, weights, body.ball_radius)
    if body.radial_profile is not None:
        eps, phi = body.radial_profile
        return radial_body(grid, rotate_poly(phi, rot.T), eps)
    return from_support_samples(grid, body.support_eval(grid.nodes @ rot))


@dataclass(frozen=True, eq=False)
class BodyField:
    """Orthonormal n-frames with one convex body each: a field of bodies
    over frames, one frame at least. The frames are a read-only copy,
    and every body lives on one grid, the field's grid."""

    frames: np.ndarray  # (k, n, N), orthonormal rows each
    bodies: tuple

    def __post_init__(self):
        bodies = tuple(self.bodies)
        if not bodies:
            raise InputError("a field needs at least one frame")
        grid = bodies[0].grid
        if any(b.grid != grid for b in bodies):
            raise InputError("the bodies of a field live on different grids")
        frames = _checked_frames(self.frames, grid.n)
        if len(bodies) != frames.shape[0]:
            raise InputError("one body per frame required")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "bodies", bodies)

    @property
    def grid(self) -> SphereGrid:
        return self.bodies[0].grid

    def continuity_report(self) -> dict:
        """d_h between the bodies of consecutive frames after optimal
        frame alignment."""
        pairs = []
        for i in range(len(self.bodies) - 1):
            r = frame_align(self.frames[i], self.frames[i + 1])
            d = hausdorff(self.bodies[i], rotate_body(self.bodies[i + 1], r))
            pairs.append({"i": i, "j": i + 1, "d_h": d})
        worst = max((p["d_h"] for p in pairs), default=0.0)
        return {"max_d_h": worst, "pairs": pairs}


def _checked_frames(frames, n: int) -> np.ndarray:
    """A read-only copy of k >= 1 orthonormal n-frames in R^N, (k, n, N)."""
    frames = np.array(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[0] == 0 or frames.shape[1] != n:
        raise InputError(f"frames of shape {frames.shape} are not k >= 1 {n}-frames")
    gram = np.einsum("kij,klj->kil", frames, frames)
    dev = np.max(np.abs(gram - np.eye(n)[None]))
    if dev > 1e-10:
        raise InputError(f"frames not orthonormal, deviation {dev:.3e}")
    return read_only(frames)


def _section_field(grid: SphereGrid, frames, forms, section, refused) -> BodyField:
    """The field of section(w, *forms) over the frames w, the forms being
    N x N matrices for the frames' R^N. The frames on which section raises
    refused are named together in one InputError."""
    frames = _checked_frames(frames, grid.n)
    big = frames.shape[2]
    forms = [np.asarray(m, dtype=float) for m in forms]
    for m in forms:
        if m.shape != (big, big):
            raise InputError(f"ambient matrix shape {m.shape} does not match N={big}")
    bodies, bad = [], []
    for idx, w in enumerate(frames):
        try:
            bodies.append(section(w, *forms))
        except refused:
            bad.append(idx)
    if bad:
        raise InputError(f"section data invalid on frames {bad}")
    return BodyField(frames, bodies)


def _restrict_quad(w: np.ndarray, amb: np.ndarray) -> QuadForm3:
    """Trace-projected, unit-normalized restriction of an ambient
    symmetric form to the frame's 3-plane."""
    q = QuadForm3.from_matrix(w @ amb @ w.T)
    if q.frobenius < 1e-12:
        raise InputError("ambient form restricts to zero on a frame")
    return q.normalized()


def quad_pair_field(
    grid: SphereGrid, frames, qa, qb, t: float = 0.5, rho: float | None = None
) -> BodyField:
    """The octahedron field over 3-frames in R^N: on each frame, the
    paired octahedron hull (pair_hull) at weight t of the unit
    restrictions of the N x N forms qa and qb, thickened by rho when it
    is given."""
    if grid.n != 3:
        raise InputError("quad_pair sections need n = 3")
    fld = _section_field(grid, frames, (qa, qb), lambda w, a, b: pair_hull(
        grid, t, _restrict_quad(w, a), _restrict_quad(w, b)), InputError)
    return fld if rho is None else BodyField(fld.frames, [thicken(b, rho) for b in fld.bodies])


def ambient_quad_field(
    grid: SphereGrid, frames, matrix, eps: float = 0.05, degree: int = 2
) -> BodyField:
    """Radial bodies 1 + eps*phi over n-frames in R^N, phi the
    restriction of P(x) = <x, A x> to the frame's sphere, projected to
    the given degree and normalized into F; A is the N x N matrix."""

    def section(w, amb):
        pts = grid.nodes @ w  # rows are ambient coordinates of sphere points
        f = np.einsum("gi,ij,gj->g", pts, amb, pts)
        return radial_body(grid, to_F_space(project(grid, f, degree)), eps)

    return _section_field(grid, frames, (matrix,), section, ConstantPolynomial)
