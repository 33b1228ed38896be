"""Quadrature grids on S^{n-1}, n = 2, 3, 4.

Grids are product rules written so the node set is closed under the
antipodal map *exactly* in floating point: the first half of the nodes
is constructed, the second half is its literal negation, and the index
map u -> -u is stored: the second half of samples f is the first half
of f[antipode]. Measures are unnormalized (lengths 2*pi, 4*pi, 2*pi^2).

A grid is its description: SphereGrid(n, resolution) is frozen, builds
its nodes, weights, antipode map and (n=2) angles from the two numbers
when it is made, and marks those arrays read-only. Grids are equal and
hashed by (n, resolution); the key hashes the nodes as well, so a
document's stored grid key checks the grid it is rebuilt on.

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

#: Nodes per tile of SphereGrid.tiles, on average.
TILE_SIZE = 48
#: Angle added to every tile's reach in SphereGrid.neighbourhoods, far
#: above the round-off of the angles and dot products it compares.
_REACH_PAD = 1e-9


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
    def tiles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(order, starts, centres, radii): the first G/2 nodes in K/2
        spatially compact tiles of about TILE_SIZE nodes, from 8 rounds of
        spherical k-means with a fixed seed. Tile t is the nodes
        order[starts[t]:starts[t+1]], in increasing index, with unit centre
        centres[t] and radius radii[t], the largest angle from the centre
        to a member. The second half is not tiled (bodies.hull_depth).
        Every array is read-only."""
        half = self.size // 2
        nodes = self.nodes[:half]
        k = max(1, half // TILE_SIZE)
        centres = nodes[np.random.default_rng(0).choice(half, k, replace=False)]
        for _ in range(8):
            label = np.argmax(centres @ nodes.T, axis=0)
            sums = np.zeros_like(centres)
            np.add.at(sums, label, nodes)
            norm = np.linalg.norm(sums, axis=1)
            centres = sums[norm > 0] / norm[norm > 0, None]
        used, label = np.unique(np.argmax(centres @ nodes.T, axis=0), return_inverse=True)
        centres = centres[used]
        order = np.argsort(label, kind="stable")
        starts = np.concatenate([[0], np.cumsum(np.bincount(label))])
        # chord -> angle, well conditioned for small angles
        chord = np.maximum.reduceat(np.linalg.norm(nodes - centres[label], axis=1)[order], starts[:-1])
        radii = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))
        return read_only(order), read_only(starts), read_only(centres), read_only(radii)

    @cached_property
    def _tile_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, keys): order[t] all G node indices by decreasing cosine
        to the centre of tile t (int32, K/2 x G), and keys the flattened
        3t - cosine of order[t], ascending over all rows since every
        cosine lies in [-1, 1] and rounding is monotone. 12 bytes per
        entry, about G^2/96 entries (0.5 MB at G=2048). Both read-only."""
        centres = self.tiles[2]
        cos = centres @ self.nodes.T
        order = np.argsort(-cos, axis=1).astype(np.int32)
        keys = 3.0 * np.arange(len(centres))[:, None] - np.take_along_axis(cos, order, axis=1)
        return read_only(order), read_only(keys.ravel())

    def neighbourhoods(self, cos_cut: float, tiles=None) -> list:
        """[(members, cand)] for each tile of `tiles` (default all), where
        cand holds at least every node u with <u, v> >= cos_cut for some
        member v: the nodes within the tile's radius plus arccos(cos_cut)
        of its centre, or slice(None) for all nodes when that reach covers
        the sphere. Each cand is a prefix of the tile's row of _tile_order,
        so one searchsorted over the row-offset cosines cuts every list."""
        members, starts, _, radii = self.tiles
        order, keys = self._tile_order
        g = self.size
        rows = np.arange(len(radii)) if tiles is None else np.asarray(tiles, dtype=int)
        reach = radii[rows] + np.arccos(np.clip(cos_cut, -1.0, 1.0)) + _REACH_PAD
        counts = np.searchsorted(keys, 3.0 * rows - np.cos(np.minimum(reach, np.pi)),
                                 side="right") - rows * g
        counts[reach >= np.pi] = g
        return [(members[starts[t]:starts[t + 1]], slice(None) if k == g else order[t, :k])
                for t, k in zip(rows.tolist(), counts.tolist())]

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
    no resolution is given."""
    if resolution is None:
        resolution = DEFAULT_RESOLUTION.get(n, 0)
    return SphereGrid(n, int(resolution))


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
