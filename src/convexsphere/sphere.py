"""Quadrature grids on S^{n-1}, n = 2, 3, 4.

Grids are product rules written so the node set is closed under the
antipodal map *exactly* in floating point: the first half of the nodes
is constructed, the second half is its literal negation, and the index
map u -> -u is stored: the second half of samples f is the first half
of f[antipode]. Measures are unnormalized (lengths 2*pi, 4*pi, 2*pi^2).

A grid is its description: SphereGrid(n, resolution) is frozen, builds
its nodes, weights, antipode map and (n=2) angles from the two numbers
when it is made, and marks those arrays read-only. Its derived tables
(max_gap, key, and the hull scans' neighbour caps) are built at
first use, and build_grid hands out one shared grid per (n, resolution),
so each is built once. Grids are equal and hashed by (n, resolution);
the key hashes the nodes as well, so a document's stored grid key checks
the grid it is rebuilt on.

Construction per dimension, with `resolution` R:

  n=2   R nodes at angles 2*pi*j/R (R even), weight 2*pi/R. Exact for
        circular harmonics of order <= R-1.
  n=3   Archimedes coordinates (t, phi): dS = dt dphi. Gauss-Legendre
        with R points in t (R even, positive half mirrored) times 2R
        uniform azimuths. Exact for polynomials of degree <= 2R-1.
  n=4   x = (t, sqrt(1-t^2) w), w in S^2: dS = (1-t^2)^{1/2} dt dS_2.
        Gauss-Chebyshev (second kind) with R points in t times the
        n=3 grid at resolution R. Exact for degree <= 2R-1.

The exact value of a monomial integral over the sphere is

    I(alpha) = 2 * prod_i Gamma((alpha_i+1)/2) / Gamma((|alpha|+n)/2)

when every alpha_i is even, and 0 otherwise. That closed form is the
oracle of record for quadrature exactness; spot values on S^2:
x1^2 -> 4*pi/3, x1^4 -> 4*pi/5.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import backend
from .errors import InputError

DEFAULT_RESOLUTION = {2: 512, 3: 16, 4: 10}

#: Grids kept by build_grid, least recently used first.
_GRID_CACHE: dict[tuple, "SphereGrid"] = {}
_GRID_CACHE_SIZE = 8


def read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only: a derived array is never edited in place."""
    a.flags.writeable = False
    return a


def hold_copies(value, *names: str) -> None:
    """Replace the named array attributes of a frozen value that are set
    by read-only float copies, so no caller can edit them afterwards."""
    for name in names:
        if getattr(value, name) is not None:
            object.__setattr__(value, name, read_only(np.array(getattr(value, name), dtype=float)))


def derived_field():
    """A dataclass field computed in __post_init__ from the description:
    not an init argument, not compared, not shown."""
    return field(init=False, repr=False, compare=False)


def monomial_sphere_integral(n: int, alpha) -> float:
    """Exact integral of x^alpha over S^{n-1} (unnormalized measure)."""
    alpha = [int(a) for a in alpha]
    if len(alpha) != n:
        raise InputError(f"multi-index length {len(alpha)} != n={n}")
    if any(a < 0 for a in alpha):
        raise InputError("negative exponent")
    if any(a % 2 for a in alpha):
        return 0.0
    num = 1.0
    for a in alpha:
        num *= math.gamma((a + 1) / 2.0)
    return 2.0 * num / math.gamma((sum(alpha) + n) / 2.0)


def sphere_area(n: int) -> float:
    return monomial_sphere_integral(n, [0] * n)


@dataclass(frozen=True)
class SphereGrid:
    """The product quadrature grid on S^{n-1} of a resolution; see the
    module docstring. Equal and hashed by (n, resolution)."""

    n: int
    resolution: int
    nodes: np.ndarray = derived_field()     # (G, n), unit rows, nodes[G/2:] == -nodes[:G/2]
    weights: np.ndarray = derived_field()   # (G,), positive
    antipode: np.ndarray = derived_field()  # index map, nodes[antipode[i]] == -nodes[i]
    max_exact_degree: int = derived_field()
    angles: np.ndarray | None = derived_field()  # n=2 only

    def __post_init__(self):
        n, r = self.n, self.resolution
        if n not in (2, 3, 4):
            raise InputError(f"sphere dimension n={n} not supported (need 2, 3 or 4)")
        if not isinstance(r, numbers.Integral) or r < 8 or r % 2:
            raise InputError(f"resolution must be even and >= 8, got {r}")
        half, wh, deg = _half_rule(n, r)
        g = 2 * wh.size
        angles = read_only(2.0 * np.pi * np.arange(r) / r) if n == 2 else None
        object.__setattr__(self, "nodes", read_only(np.vstack([half, -half])))
        object.__setattr__(self, "weights", read_only(np.concatenate([wh, wh])))
        object.__setattr__(self, "antipode", read_only((np.arange(g) + g // 2) % g))
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "max_exact_degree", deg)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def key(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(f"sphere_grid:{self.n}:{self.resolution}:".encode())
        h.update(self.nodes.tobytes())
        return h.hexdigest()[:16]

    @cached_property
    def max_gap(self) -> float:
        """Largest nearest-neighbor geodesic distance; the resolution
        scale used by grid-derived tolerances."""
        return backend.max_nn_gap(self.nodes)

    @cached_property
    def rings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(index, cosine, starts): backend.ring_table of the nodes, the
        nested neighbour caps of each of the first G/2 nodes, one per
        level of backend.RING_LEVELS, of which a hull scan reduces one per
        output (bodies.hull_depth). Built at first use, and read-only."""
        return tuple(read_only(a) for a in backend.ring_table(self.nodes))

    def refined(self) -> "SphereGrid":
        """The grid of twice the resolution."""
        return build_grid(self.n, 2 * self.resolution)


def _half_rule(n: int, r: int):
    """(nodes, weights, max_exact_degree) of the first half of the grid of
    dimension n and resolution r; the second half is its negation."""
    if n == 2:
        ang = 2.0 * np.pi * np.arange(r // 2) / r
        return np.column_stack([np.cos(ang), np.sin(ang)]), np.full(r // 2, 2.0 * np.pi / r), r - 1
    if n == 3:
        t, wt = np.polynomial.legendre.leggauss(r)
        tp, wp = t[t > 0], wt[t > 0]
        az = 2.0 * np.pi * np.arange(2 * r) / (2 * r)
        s = np.sqrt(1.0 - tp**2)
        half = np.column_stack([(s[:, None] * np.cos(az)).ravel(),
                                (s[:, None] * np.sin(az)).ravel(), np.repeat(tp, 2 * r)])
        return half, np.repeat(wp, 2 * r) * (2.0 * np.pi / (2 * r)), 2 * r - 1
    k = np.arange(1, r + 1)
    tc = np.cos(k * np.pi / (r + 1))
    wc = (np.pi / (r + 1)) * np.sin(k * np.pi / (r + 1)) ** 2
    tp, wp = tc[tc > 0], wc[tc > 0]
    inner = SphereGrid(3, r)
    s = np.sqrt(1.0 - tp**2)
    gi = inner.size
    half = np.empty((tp.size * gi, 4))
    half[:, 0] = np.repeat(tp, gi)
    half[:, 1:] = (s[:, None, None] * inner.nodes[None, :, :]).reshape(-1, 3)
    wh = (wp[:, None] * inner.weights[None, :]).ravel()
    return half, wh, min(2 * r - 1, inner.max_exact_degree)


def build_grid(n: int, resolution: int | None = None) -> SphereGrid:
    """The grid SphereGrid(n, resolution), at DEFAULT_RESOLUTION[n] when
    no resolution is given: one shared grid per (n, resolution), kept in
    _GRID_CACHE with the tables it has built."""
    if resolution is None:
        resolution = DEFAULT_RESOLUTION.get(n, 0)
    key = (n, int(resolution))
    return lru_get(_GRID_CACHE, key, lambda: SphereGrid(*key), _GRID_CACHE_SIZE)


def lru_get(cache: dict, key, build, size: int):
    """cache[key], made by build() on a miss, with cache changed in place
    as a least-recently-used store of at most size entries: the entry
    moves to the newest end, and a miss on a full cache drops the oldest."""
    hit = cache.pop(key, None)
    if hit is None:
        hit = build()
        if len(cache) >= size:
            del cache[next(iter(cache))]
    cache[key] = hit
    return hit


def check_samples(grid: SphereGrid, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != grid.size:
        raise InputError(
            f"sample array of length {f.shape[-1]} does not match grid of size {grid.size}"
        )
    return f


def finite(a, what: str) -> np.ndarray:
    """a as a float array; an InputError names its first non-finite entry."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InputError(f"{what} {a[~np.isfinite(a)][0]} is not finite")
    return a


def integrate(grid: SphereGrid, f) -> float:
    """Quadrature of grid samples against the grid weights."""
    f = check_samples(grid, f)
    return float(f @ grid.weights)


def norms(grid: SphereGrid, f) -> tuple[float, float]:
    """(L2, C0) norms of a sampled function."""
    f = check_samples(grid, f)
    l2 = math.sqrt(max(float((f * f) @ grid.weights), 0.0))
    return l2, float(np.max(np.abs(f)))


def monomial_samples(grid: SphereGrid, alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=int)
    return np.prod(grid.nodes ** alpha[None, :], axis=1)
