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
"""

import math
from dataclasses import dataclass, field

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
from .errors import DegenerateToPoint, InputError, NonpositiveRadius
from .groups import random_frames, random_rotations
from .polynomials import (
    SphericalPoly,
    get_basis,
    is_nonconstant,
    poly_product,
    project,
    rotate_poly,
    to_F_space,
)
from .sphere import SphereGrid, build_grid, check_samples

# ||x -> <x,Qx>||_{L2(S^2)}^2 = (8 pi / 15) ||Q||_F^2 for traceless
# symmetric Q (fourth-moment identity); unit L2 norm in the space of
# restricted quadratics therefore pins the Frobenius norm:
QUADFORM_UNIT_FROBENIUS = math.sqrt(15.0 / (8.0 * math.pi))


@dataclass
class QuadForm3:
    """Traceless symmetric 3x3 form with cached spectral labels."""

    matrix: np.ndarray
    lam: float = field(init=False)
    mu: float = field(init=False)
    nu: float = field(init=False)
    evecs: np.ndarray = field(init=False, repr=False)  # columns e1, e2, e3

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InputError("QuadForm3 needs a 3x3 matrix")
        if np.max(np.abs(m - m.T)) > 1e-10:
            raise InputError("matrix is not symmetric")
        if abs(np.trace(m)) > 1e-12 * max(1.0, np.abs(m).max()):
            raise InputError(f"matrix has trace {np.trace(m):.3e}, expected 0")
        self.matrix = 0.5 * (m + m.T)
        w, v = np.linalg.eigh(self.matrix)
        # ascending w[0] <= w[1] <= w[2]; tracelessness puts w[0] <= 0 <= w[2].
        # The same-sign pair is (w[1], w[2]) when w[1] >= 0, else (w[0], w[1]);
        # the leftover eigenvalue has the largest magnitude and is nu.
        if w[1] >= 0.0:
            self.lam, self.mu, self.nu = float(w[2]), float(w[1]), float(w[0])
            self.evecs = v[:, [2, 1, 0]]
        else:
            self.lam, self.mu, self.nu = float(w[1]), float(w[0]), float(w[2])
            self.evecs = v[:, [1, 0, 2]]

    @classmethod
    def from_matrix(cls, m, project: bool = True) -> "QuadForm3":
        m = np.asarray(m, dtype=float)
        if project:
            m = 0.5 * (m + m.T)
            m = m - (np.trace(m) / 3.0) * np.eye(3)
        return cls(m)

    @classmethod
    def random_unit(cls, rng: np.random.Generator) -> "QuadForm3":
        q = cls.from_matrix(rng.normal(size=(3, 3)))
        return q.normalized()

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

    def samples(self, grid: SphereGrid) -> np.ndarray:
        return np.einsum("gi,ij,gj->g", grid.nodes, self.matrix, grid.nodes)


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
    flatten but must not collapse to the origin."""
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
    if np.max(np.linalg.norm(verts, axis=1)) < 1e-14:
        raise DegenerateToPoint("paired octahedra collapsed to the origin")
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
    if eps < 0:
        raise InputError(f"eps must be nonnegative, got {eps}")
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
        base = SphericalPoly(n, d, c, basis)
        out.append(rotate_poly(base, rots[i]))
    return out


#: Hull-depth certification threshold of find_epsilon, relative to the
#: body scale. A fixed depth (rather than the grid-scaled tolerance of
#: certify_convex_radial) is what makes the estimate converge: once the
#: grid resolves a dimple its measured depth is resolution-independent,
#: while a tolerance shrinking with the grid would keep dragging the
#: accepted eps toward the sharp convexity threshold at every
#: refinement instead of stabilizing.
DEPTH_TOL = 5e-3


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

    Certification accepts hull gaps down to -DEPTH_TOL * max(r), a
    fixed dimple depth relative to the body scale. Bisection runs on
    the working grid; the final eps is re-certified on the 2x-refined
    grid and the pass rate reported (running the refined check inside
    every bisection step would be orders of magnitude more work).

    phis, when given, are the samples sample_unit_F(n, d, sample_count,
    seed, grid) already drawn by the caller; they are used as they are.

    limiting_sample in the result is the index of a sample that fails at
    eps_upper, the one that bounds eps_star (None when no round failed).
    """
    if n not in (3, 4):
        raise InputError(f"find_epsilon needs n in {{3, 4}}, got n={n}")
    if grid is None:
        grid = build_grid(n)
    if phis is None:
        phis = sample_unit_F(n, d, sample_count, seed, grid)
    elif len(phis) != sample_count or any(
        (p.n, p.d) != (n, d) or p.grid != grid for p in phis
    ):
        raise InputError(
            f"find_epsilon needs {sample_count} samples of degree {d} on its grid"
        )
    # even to the last bit (the samples are even to round-off), so that
    # hull_depth scans one antipodal half of the grid
    vals = np.stack([p.samples for p in phis])
    vals = 0.5 * (vals + vals[:, grid.antipode])
    mins = vals.min(axis=1)
    if np.any(mins >= 0):
        raise InputError("zero-average sample without negative values")  # pragma: no cover
    hi0 = float(np.min(-1.0 / mins))

    def passes(g: SphereGrid, r: np.ndarray) -> bool:
        return hull_depth(g, r) >= -DEPTH_TOL * float(r.max())

    limiting = None  # the sample that failed the latest failed round

    def certifies(eps: float) -> bool:
        # the sample that failed last round is checked first: it is the
        # likeliest to fail again, and all() does not depend on the order
        nonlocal limiting
        first = [] if limiting is None else [limiting]
        for k in first + [k for k in range(len(vals)) if k != limiting]:
            if not passes(grid, 1.0 + eps * vals[k]):
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
        fine_vals = phis[0].basis.eval(fine.nodes) @ coeffs.T
        fine_vals = 0.5 * (fine_vals + fine_vals[fine.antipode])
        passed = sum(passes(fine, 1.0 + lo * col) for col in fine_vals.T)
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


@dataclass
class BodyField:
    """Frames with one convex body each, plus the section descriptor
    that produced them and a declared adjacency for continuity checks."""

    frames: np.ndarray  # (k, n, N), orthonormal rows each
    bodies: list
    descriptor: dict
    grid: SphereGrid = field(repr=False)
    adjacency: list | None = None

    def __post_init__(self):
        k = self.frames.shape[0]
        if len(self.bodies) != k:
            raise InputError("one body per frame required")
        gram = np.einsum("kij,klj->kil", self.frames, self.frames)
        dev = np.max(np.abs(gram - np.eye(self.frames.shape[1])[None]))
        if dev > 1e-10:
            raise InputError(f"frames not orthonormal, deviation {dev:.3e}")
        if self.adjacency is None:
            self.adjacency = [(i, i + 1) for i in range(k - 1)]

    def continuity_report(self) -> dict:
        """d_h between bodies of adjacent frames after optimal frame
        alignment."""
        pairs = []
        for i, j in self.adjacency:
            r = frame_align(self.frames[i], self.frames[j])
            d = hausdorff(self.bodies[i], rotate_body(self.bodies[j], r))
            pairs.append({"i": i, "j": j, "d_h": d})
        worst = max((p["d_h"] for p in pairs), default=0.0)
        return {"max_d_h": worst, "pairs": pairs}


def _restrict_quad(w: np.ndarray, amb: np.ndarray) -> QuadForm3:
    """Trace-projected, unit-normalized restriction of an ambient
    symmetric form to the frame's 3-plane."""
    q = QuadForm3.from_matrix(w @ amb @ w.T)
    if q.frobenius < 1e-12:
        raise InputError("ambient form restricts to zero on a frame")
    return q.normalized()


def build_field(
    grid: SphereGrid,
    descriptor: dict,
    frames: np.ndarray | None = None,
    seed: int = 0,
    count: int = 16,
) -> BodyField:
    """Assemble a BodyField from a section descriptor.

    type "constant"      one body, N = n, the identity frame.
    type "ambient_quad"  restrict P(x) = <x, A x> to each frame, project,
                         normalize into F, radial body 1 + eps*phi.
    type "quad_pair"     restrict two ambient forms, normalize, paired
                         octahedron hull at weight t, optional thickening.
    """
    n = grid.n
    kind = descriptor.get("type")
    if kind == "constant":
        body = descriptor.get("body")
        if not isinstance(body, ConvexBody):
            raise InputError("descriptor type 'constant' needs a ConvexBody under 'body'")
        if body.grid != grid:
            raise InputError("constant-section body lives on a different grid")
        frames = np.eye(n)[None, :, :]
        return BodyField(frames, [body], {"type": "constant"}, grid)

    if frames is None:
        big_n = int(descriptor.get("N", n))
        rng = np.random.default_rng(seed)
        frames = random_frames(n, big_n, count, rng)
    frames = np.asarray(frames, dtype=float)

    bodies = []
    bad = []
    if kind == "ambient_quad":
        eps = float(descriptor.get("eps", 0.05))
        d = int(descriptor.get("degree", 2))
        amb = np.asarray(descriptor["matrix"], dtype=float)
        big = frames.shape[2]
        if amb.shape != (big, big):
            raise InputError(
                f"ambient matrix shape {amb.shape} does not match "
                f"ambient dimension N={big}"
            )
        for idx, w in enumerate(frames):
            pts = grid.nodes @ w  # rows are ambient coordinates of sphere points
            f = np.einsum("gi,ij,gj->g", pts, amb, pts)
            try:
                phi = to_F_space(project(grid, f, d))
            except Exception:
                bad.append(idx)
                continue
            bodies.append(radial_body(grid, phi, eps))
    elif kind == "quad_pair":
        qa = np.asarray(descriptor["qa"], dtype=float)
        qb = np.asarray(descriptor["qb"], dtype=float)
        t = float(descriptor.get("t", 0.5))
        rho = descriptor.get("rho")
        if n != 3:
            raise InputError("quad_pair sections need n = 3")
        for idx, w in enumerate(frames):
            try:
                body = pair_hull(grid, t, _restrict_quad(w, qa), _restrict_quad(w, qb))
            except InputError:
                bad.append(idx)
                continue
            if rho:
                body = thicken(body, float(rho))
            bodies.append(body)
    else:
        raise InputError(f"unknown section descriptor type {kind!r}")

    if bad:
        raise InputError(f"section data invalid on frames {bad}")
    desc_echo = {k: v for k, v in descriptor.items() if k != "body"}
    return BodyField(frames, bodies, desc_echo, grid)
