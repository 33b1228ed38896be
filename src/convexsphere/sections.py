"""Planar sections of bodies in R^N and the round-section search.

A section family maps an orthonormal 2-frame to the planar convex
body cut out by the frame's plane. A family holds exactly one
description of its body: the quadratic form of an ellipsoid, whose
sections are exact quadratic-form slices, or the facets
{x: <normals_i, x> <= offsets_i} of a polytope with the origin inside,
held as read-only copies so the origin check cannot be undone.
A polytope section is {y: <p_i, y> <= 1} with p_i the projected
normals over their offsets, the polar of the planar hull of the p_i,
so its vertices are the polars of that hull's edges.
The search scores frames by circle-harmonic energy of the section's
support function and descends the best coarse frames through
exponential-map charts of the Grassmannian, keeping a monotone
best-so-far trace; on non-convergence the best frame found is
returned with converged=False rather than an error.
"""

from dataclasses import dataclass, field

import numpy as np

from .bodies import ConvexBody, from_support_samples, from_vertices, polar_vertices
from .errors import InputError, OriginNotInterior
from .fourier2d import fourier_analyze, harmonic_energy
from .groups import random_frames
from .sphere import SphereGrid, build_grid, hold_copies
from .util import skew_exp


@dataclass(frozen=True, eq=False)
class SectionFamily:
    """Planar central sections of one body in R^N, indexed by 2-frames:
    the ellipsoid {x: <x, quad x> <= 1}, or the polytope
    {x: <normals_i, x> <= offsets_i} with every offset positive."""

    grid: SphereGrid = field(repr=False)
    quad: np.ndarray | None = field(default=None, repr=False)
    normals: np.ndarray | None = field(default=None, repr=False)
    offsets: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        given = [self.quad is not None, self.normals is not None, self.offsets is not None]
        if given not in ([True, False, False], [False, True, True]):
            raise InputError("a section family needs exactly one of quad or normals with offsets")
        hold_copies(self, "quad", "normals", "offsets")
        if self.offsets is not None and np.any(self.offsets <= 0):
            raise OriginNotInterior("origin is not interior to the polytope")

    @property
    def ambient_dim(self) -> int:
        return (self.quad if self.quad is not None else self.normals).shape[1]


def ellipsoid_family(axes, grid: SphereGrid | None = None) -> SectionFamily:
    axes = np.asarray(axes, dtype=float)
    if np.any(axes <= 0):
        raise InputError("ellipsoid semiaxes must be positive")
    return SectionFamily(grid or build_grid(2), quad=np.diag(axes**-2))


def cube_family(big_n: int, grid: SphereGrid | None = None) -> SectionFamily:
    """Sections of the cube [-1, 1]^N."""
    eye = np.eye(big_n)
    return SectionFamily(grid or build_grid(2), normals=np.vstack([eye, -eye]),
                         offsets=np.ones(2 * big_n))


def polytope_family(vertices: np.ndarray, grid: SphereGrid | None = None) -> SectionFamily:
    """Sections of the hull of a vertex set (origin must be interior)."""
    from scipy.spatial import ConvexHull, QhullError
    vertices = np.asarray(vertices, dtype=float)
    try:
        hull = ConvexHull(vertices)
    except QhullError:
        raise InputError(
            f"the hull of {len(vertices)} vertices in R^{vertices.shape[1]} is flat"
        ) from None
    return SectionFamily(grid or build_grid(2), normals=hull.equations[:, :-1],
                         offsets=-hull.equations[:, -1])


def _check_frame(frame: np.ndarray, big_n: int) -> np.ndarray:
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (2, big_n):
        raise InputError(f"expected a 2x{big_n} frame, got {frame.shape}")
    if np.max(np.abs(frame @ frame.T - np.eye(2))) > 1e-10:
        raise InputError("frame rows are not orthonormal")
    return frame


def plane_section(family: SectionFamily, frame: np.ndarray) -> ConvexBody:
    """The 2-D body {y: y1*frame[0] + y2*frame[1] in K} on the circle grid."""
    frame = _check_frame(frame, family.ambient_dim)
    grid = family.grid
    if family.quad is not None:
        q2 = frame @ family.quad @ frame.T
        # support of {y: <y, Q2 y> <= 1} is sqrt(<v, Q2^-1 v>)
        qinv = np.linalg.inv(q2)
        h = np.sqrt(np.einsum("gi,ij,gj->g", grid.nodes, qinv, grid.nodes))
        return from_support_samples(grid, h)
    return from_vertices(grid, polar_vertices((family.normals @ frame.T) / family.offsets[:, None]))


def _coordinate_frames2(big_n: int) -> list:
    frames = []
    eye = np.eye(big_n)
    for i in range(big_n):
        for j in range(i + 1, big_n):
            frames.append(eye[[i, j]])
    return frames


def _chart(frame: np.ndarray):
    """Exponential-map chart of the Grassmannian around a frame: the
    2(N-2) parameters rotate the plane toward its orthocomplement."""
    big_n = frame.shape[1]
    basis = np.linalg.qr(
        np.hstack([frame.T, np.random.default_rng(12345).normal(size=(big_n, big_n - 2))])
    )[0]
    # first two columns span the plane up to sign; rebuild exactly
    basis[:, :2] = frame.T

    def at(xi: np.ndarray) -> np.ndarray:
        k = xi.reshape(2, big_n - 2)
        s = np.zeros((big_n, big_n))
        s[:2, 2:] = k
        s[2:, :2] = -k.T
        return (basis @ skew_exp(s))[:, :2].T

    return at


#: Best coarse frames that round_section_search descends from.
_REFINE_TOP = 4


def round_section_search(
    family: SectionFamily,
    d: int = 8,
    tol: float = 1e-8,
    coarse_count: int = 120,
    seed: int = 0,
    maxiter: int = 400,
) -> dict:
    """Find a 2-frame whose section has circle-harmonic energy below
    tol through degrees 1..d. Coarse Stiefel sampling plus coordinate
    planes, then Nelder-Mead descent in Grassmannian charts around the
    best candidates."""
    from scipy.optimize import minimize
    if d < 2:
        raise InputError(f"a round section search needs degree d >= 2, got d={d}")
    big_n = family.ambient_dim
    if big_n == 2:
        frame = np.eye(2)
        e = harmonic_energy(fourier_analyze(plane_section(family, frame), d))
        return {"frame": frame, "energy": e, "radius": _radius(family, frame),
                "converged": e < tol, "trace": [e]}
    rng = np.random.default_rng(seed)
    frames = list(random_frames(2, big_n, coarse_count, rng)) + _coordinate_frames2(big_n)

    def score(fr):
        return harmonic_energy(fourier_analyze(plane_section(family, fr), d))

    energies = np.array([score(fr) for fr in frames])
    order = np.argsort(energies)
    best_frame = frames[order[0]]
    best_e = float(energies[order[0]])
    trace = [best_e]

    for idx in order[:_REFINE_TOP]:
        at = _chart(frames[idx])
        res = minimize(
            lambda xi: score(at(xi)),
            np.zeros(2 * (big_n - 2)),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-18, "maxiter": maxiter},
        )
        if res.fun < best_e:
            best_e = float(res.fun)
            best_frame = at(res.x)
        trace.append(best_e)
        if best_e < tol:
            break

    return {
        "frame": np.asarray(best_frame),
        "energy": best_e,
        "radius": _radius(family, best_frame),
        "converged": best_e < tol,
        "trace": trace,
    }


def _radius(family: SectionFamily, frame) -> float:
    body = plane_section(family, np.asarray(frame))
    return float(fourier_analyze(body, 1).a0)
