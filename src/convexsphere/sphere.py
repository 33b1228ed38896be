"""Quadrature grids on S^{n-1}, n = 2, 3, 4.

Grids are product rules written so the node set is closed under the
antipodal map *exactly* in floating point: the first half of the nodes
is constructed, the second half is its literal negation, and the index
map u -> -u is stored. Measures are unnormalized (lengths 2*pi, 4*pi,
2*pi^2).

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
    n: int
    resolution: int
    nodes: np.ndarray          # (G, n), unit rows, nodes[G/2:] == -nodes[:G/2]
    weights: np.ndarray        # (G,), positive
    antipode: np.ndarray       # index map, nodes[antipode[i]] == -nodes[i]
    max_exact_degree: int
    angles: np.ndarray | None = field(default=None, repr=False)  # n=2 only

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
    def tiles(self) -> tuple[list, np.ndarray, np.ndarray]:
        """(members, centres, radii): the nodes grouped into spatially
        compact tiles of about TILE_SIZE nodes. The first K/2 tiles cover
        the first G/2 nodes, from 8 rounds of spherical k-means with a
        fixed seed; tile t + K/2 is the antipodal image of tile t.
        members[t] are the node indices of tile t, centres[t] its unit
        centre and radii[t] the largest angle from the centre to a
        member. O(G) memory."""
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
        label = np.argmax(centres @ nodes.T, axis=0)
        used = np.unique(label)
        members = [np.flatnonzero(label == t) for t in used]
        centres = centres[used]
        # chord -> angle, well conditioned for small angles
        radii = np.array([
            2.0 * np.arcsin(min(1.0, 0.5 * np.linalg.norm(nodes[m] - c, axis=1).max()))
            for m, c in zip(members, centres)
        ])
        return (members + [self.antipode[m] for m in members],
                np.vstack([centres, -centres]), np.concatenate([radii, radii]))

    @cached_property
    def _tile_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, keys): order[t] the node indices by decreasing cosine to
        the centre of tile t (int32, K x G), and keys the flattened
        3t - cosine of order[t], ascending over all rows since every
        cosine lies in [-1, 1] and rounding is monotone. 12 bytes per
        entry, about G^2/48 entries (1 MB at G=2048)."""
        _, centres, _ = self.tiles
        cos = centres @ self.nodes.T
        order = np.argsort(-cos, axis=1).astype(np.int32)
        keys = 3.0 * np.arange(len(centres))[:, None] - np.take_along_axis(cos, order, axis=1)
        return order, keys.ravel()

    def neighbourhoods(self, cos_cuts, half: bool = False) -> list:
        """[(members, cand_1, ..., cand_c)] per tile, one cand per cut of
        cos_cuts, where cand_k holds at least every node u with
        <u, v> >= cos_cuts[k] for some member v: the nodes within the
        tile's radius plus arccos(cos_cuts[k]) of its centre, or
        slice(None) for all nodes when that reach covers the sphere.
        With half=True only the tiles of the first G/2 nodes are listed.

        Each cand is a prefix of the tile's cached node order by
        decreasing cosine to its centre (_tile_order), so one searchsorted
        over the row-offset cosines cuts every list of every tile, and the
        list of a lower cut extends that of a higher one."""
        members, _, radii = self.tiles
        order, keys = self._tile_order
        g = self.size
        rows = np.arange(len(members) // 2 if half else len(members))
        cuts = np.clip(np.asarray(cos_cuts, dtype=float), -1.0, 1.0)
        reach = radii[None, rows] + np.arccos(cuts)[:, None] + _REACH_PAD
        counts = np.searchsorted(keys, 3.0 * rows - np.cos(np.minimum(reach, np.pi)),
                                 side="right") - rows * g
        counts[reach >= np.pi] = g
        return [
            (members[t], *(slice(None) if k == g else order[t, :k] for k in counts[:, t]))
            for t in rows
        ]

    def refined(self) -> "SphereGrid":
        """The grid of twice the resolution."""
        return build_grid(self.n, 2 * self.resolution)

    def __eq__(self, other):
        return isinstance(other, SphereGrid) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


def _circle_half(m: int):
    ang = 2.0 * np.pi * np.arange(m // 2) / m
    return np.column_stack([np.cos(ang), np.sin(ang)])


def build_grid(n: int, resolution: int | None = None) -> SphereGrid:
    """Product quadrature grid on S^{n-1}; see the module docstring."""
    if n not in (2, 3, 4):
        raise InputError(f"sphere dimension n={n} not supported (need 2, 3 or 4)")
    if resolution is None:
        resolution = DEFAULT_RESOLUTION[n]
    resolution = int(resolution)
    if resolution < 8 or resolution % 2:
        raise InputError(f"resolution must be even and >= 8, got {resolution}")

    if n == 2:
        m = resolution
        half = _circle_half(m)
        nodes = np.vstack([half, -half])
        weights = np.full(m, 2.0 * np.pi / m)
        angles = 2.0 * np.pi * np.arange(m) / m
        deg = m - 1
    elif n == 3:
        r = resolution
        t, wt = np.polynomial.legendre.leggauss(r)
        pos = t > 0
        tp, wp = t[pos], wt[pos]
        m_az = 2 * r
        az = 2.0 * np.pi * np.arange(m_az) / m_az
        ca, sa = np.cos(az), np.sin(az)
        s = np.sqrt(1.0 - tp**2)
        half = np.column_stack(
            [
                (s[:, None] * ca[None, :]).ravel(),
                (s[:, None] * sa[None, :]).ravel(),
                np.repeat(tp, m_az),
            ]
        )
        wh = np.repeat(wp, m_az) * (2.0 * np.pi / m_az)
        nodes = np.vstack([half, -half])
        weights = np.concatenate([wh, wh])
        angles = None
        deg = 2 * r - 1
    else:
        r = resolution
        k = np.arange(1, r + 1)
        tc = np.cos(k * np.pi / (r + 1))
        wc = (np.pi / (r + 1)) * np.sin(k * np.pi / (r + 1)) ** 2
        pos = tc > 0
        tp, wp = tc[pos], wc[pos]
        inner = build_grid(3, r)
        s = np.sqrt(1.0 - tp**2)
        gi = inner.size
        half = np.empty((tp.size * gi, 4))
        half[:, 0] = np.repeat(tp, gi)
        half[:, 1:] = (s[:, None, None] * inner.nodes[None, :, :]).reshape(-1, 3)
        wh = (wp[:, None] * inner.weights[None, :]).ravel()
        nodes = np.vstack([half, -half])
        weights = np.concatenate([wh, wh])
        angles = None
        deg = min(2 * r - 1, inner.max_exact_degree)

    g = nodes.shape[0]
    antipode = (np.arange(g) + g // 2) % g
    return SphereGrid(
        n=n,
        resolution=resolution,
        nodes=np.ascontiguousarray(nodes),
        weights=weights,
        antipode=antipode,
        max_exact_degree=deg,
        angles=angles,
    )


def check_samples(grid: SphereGrid, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != grid.size:
        raise InputError(
            f"sample array of length {f.shape[-1]} does not match grid of size {grid.size}"
        )
    return f


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
