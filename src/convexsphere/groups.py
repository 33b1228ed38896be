"""Sampling of averaging groups: {+-Id}, maximal torus, Haar SO(n),
user-supplied finite lists.

Torus samples are drawn from a rank-1 lattice with a seeded uniform
shift rather than iid angles: the marginals are then exactly
equidistributed, so block-separable integrands (supports of coordinate
boxes, in particular) average with error far below the Monte-Carlo
k^{-1/2} floor. The shift keeps the sample random and unbiased on the
torus.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

TAGS = ("pm", "torus", "so", "user")

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class GroupSample:
    tag: str
    n: int
    elements: np.ndarray  # (k, n, n) orthogonal matrices
    weights: np.ndarray   # (k,) positive, sums to 1
    seed: int | None = None

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    def __post_init__(self):
        el = self.elements
        if el.ndim != 3 or el.shape[1] != self.n or el.shape[2] != self.n:
            raise InputError(f"elements must be (k, {self.n}, {self.n})")
        gram = np.einsum("kij,kil->kjl", el, el)
        dev = np.max(np.abs(gram - np.eye(self.n)[None]))
        if dev > _ORTHO_TOL:
            raise InputError(f"non-orthogonal element, deviation {dev:.3e}")
        w = self.weights
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise InputError("weights must be positive and sum to 1")


def random_frames(n: int, big_n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal n-frames in R^N (rows), uniform on the Stiefel
    manifold: the sign-fixed Q of the QR of a Gaussian matrix."""
    if big_n < n:
        raise InputError(f"ambient dimension N={big_n} below n={n}")
    out = np.empty((count, n, big_n))
    for i in range(count):
        q, r = np.linalg.qr(rng.normal(size=(big_n, n)))
        out[i] = (q * np.sign(np.diag(r))[None, :]).T
    return out


def random_rotations(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random SO(n): random frames of R^n as columns, column 0
    negated where the determinant is -1."""
    q = np.ascontiguousarray(random_frames(n, n, count, rng).transpose(0, 2, 1))
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def _coprime_generator(k: int) -> int:
    """Integer near k/golden-ratio coprime with k (rank-1 lattice rule)."""
    if k <= 2:
        return 1
    g0 = max(2, round(k / ((1 + math.sqrt(5)) / 2)))
    for step in range(k):
        for g in (g0 - step, g0 + step):
            if 1 < g < k and math.gcd(g, k) == 1:
                return g
    return 1


def _torus_elements(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    nb = n // 2
    j = np.arange(count)
    shift = rng.random(nb)
    if nb == 1:
        frac = ((j + shift[0]) / count)[:, None]
    else:
        g = _coprime_generator(count)
        frac = np.column_stack(
            [np.mod(j / count + shift[0], 1.0), np.mod(j * g / count + shift[1], 1.0)]
        )
    ang = 2.0 * np.pi * frac
    el = np.zeros((count, n, n))
    el[:, :, :] = np.eye(n)[None]
    for b in range(nb):
        c, s = np.cos(ang[:, b]), np.sin(ang[:, b])
        i0, i1 = 2 * b, 2 * b + 1
        el[:, i0, i0] = c
        el[:, i0, i1] = -s
        el[:, i1, i0] = s
        el[:, i1, i1] = c
    return el


def sample_group(
    tag: str,
    n: int,
    count: int | None = None,
    seed: int | None = None,
    elements=None,
    weights=None,
) -> GroupSample:
    """Weighted element sample of an averaging group.

    pm     {Id, -Id}, exact weights 1/2.
    torus  block rotations T^[n/2], rank-1 lattice with seeded shift.
    so     Haar-random SO(n) (QR of a Gaussian matrix, sign-corrected).
    user   explicit orthogonal `elements` (determinant -1 allowed),
           optional `weights` (uniform otherwise).
    """
    if tag not in TAGS:
        raise InputError(f"unknown group tag {tag!r}, expected one of {TAGS}")
    if n < 2:
        raise InputError("n must be >= 2")

    if tag == "pm":
        el = np.stack([np.eye(n), -np.eye(n)])
        return GroupSample("pm", n, el, np.array([0.5, 0.5]), seed)

    if tag == "user":
        if elements is None:
            raise InputError("tag 'user' requires an explicit element list")
        el = np.asarray(elements, dtype=float)
        if el.ndim != 3:
            raise InputError("user elements must be a (k, n, n) array")
        k = el.shape[0]
        w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
        return GroupSample("user", n, el, w / w.sum() if weights is not None else w, seed)

    if count is None or count < 1:
        raise InputError(f"tag {tag!r} requires a positive sample count")
    rng = np.random.default_rng(seed)
    if tag == "torus":
        el = _torus_elements(n, count, rng)
    else:
        el = random_rotations(n, count, rng)
    w = np.full(count, 1.0 / count)
    return GroupSample(tag, n, el, w, seed)


def cyclic_rotation_group(n: int, axes: tuple[int, int], order: int) -> GroupSample:
    """Finite cyclic group of rotations by 2*pi/order in one coordinate
    plane, as a user-tag sample (exact closure)."""
    i, j = axes
    els = []
    for k in range(order):
        a = 2.0 * np.pi * k / order
        r = np.eye(n)
        r[i, i] = r[j, j] = np.cos(a)
        r[i, j] = -np.sin(a)
        r[j, i] = np.sin(a)
        els.append(r)
    return sample_group("user", n, elements=np.stack(els))
