"""Hot numeric kernels: blocked numpy scans over point/direction pairs.

Each kernel is a quadratic scan with a tiny inner dimension (n <= 4).
The scans go through BLAS in blocks of `_BLOCK` rows, which bounds the
temporary at G * _BLOCK doubles instead of G^2. The two max-scans,
support_max_dot and hull_gaps, share one loop (_max_scan) over
caller-chosen (own, cand) blocks, scanning for the outputs `own` only
the entries `cand` that can attain them (bodies.hull_depth lists the
tiles of the grid's first half); outputs in no block are left unset,
so a caller can leave out whole tiles. Every entry point
coerces its array arguments to contiguous float64.

The max-scans transpose the scanned side once per call to contiguous
(n, P) columns; each block gathers its candidates' columns and reduces
the row-major (own x cand) product along its contiguous rows. Every
product of every kernel goes through _product, so an entry rounds the
same in a block of one row or one column as in a larger one: a single
direction's support equals its row of a batch.
"""

import numpy as np

_BLOCK = 256  # rows per block; bounds temporary memory at G*BLOCK

#: Smallest <query, dir> that radial_from_support counts as positive.
_POS_TOL = 1e-9


def _c(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def backend_name() -> str:
    return "numpy"


def _product(rows, cols, cand):
    """rows @ cols[:, cand] through gemm at every shape: numpy hands a
    product with one row or one column to gemv, which can round it apart
    from gemm, so a lone row or column is taken twice."""
    cols = cols[:, cand] if isinstance(cand, slice) else cols.take(cand, axis=1)
    m, k = rows.shape[0], cols.shape[1]
    return ((rows if m > 1 else rows[[0, 0]]) @ (cols if k > 1 else cols[:, [0, 0]]))[:m, :k]


def _max_scan(rows, cols, blocks, h=None):
    """out[own] = max over cand of rows[own] @ cols[:, cand] (less h[cand])
    for each (own, cand) of blocks, by default _BLOCK rows at a time
    against every column; rows in no `own` are left unset."""
    out = np.empty(rows.shape[0])
    if blocks is None:
        blocks = [(slice(a, a + _BLOCK), slice(None)) for a in range(0, rows.shape[0], _BLOCK)]
    for own, cand in blocks:
        dot = _product(rows[own], cols, cand)
        if h is not None:
            dot -= h[cand]
        out[own] = dot.max(axis=1)
    return out


def support_max_dot(points, dirs, blocks=None):
    """h[j] = max_i <points[i], dirs[j]>.

    blocks: (own, cand) pairs whose `own` cover the dirs; h[own] is taken
    over the points `cand` only. Default: every point for every dir."""
    return _max_scan(_c(dirs), _c(np.transpose(points)), blocks)


def minkowski_support(rows, offsets, weights, ball_r, dirs):
    """Support of  sum_t w_t * conv(rows[offsets[t]:offsets[t+1]])  (+ ball_r
    on unit directions)."""
    rows, weights, cols = _c(rows), _c(weights), _c(np.transpose(dirs))
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    out = np.full(cols.shape[1], float(ball_r))
    for a in range(0, cols.shape[1], _BLOCK):
        b = min(a + _BLOCK, cols.shape[1])
        dot = _product(rows, cols, slice(a, b))
        acc = np.zeros(b - a)
        for t in range(len(weights)):
            acc += weights[t] * dot[offsets[t]:offsets[t + 1]].max(axis=0)
        out[a:b] += acc
    return out


def hull_gaps(cloud, dirs, h, blocks=None):
    """gap[i] = max_j (<cloud[i], dirs[j]> - h[j]); <= 0 when cloud[i] lies
    inside the polytope {x : <x, dirs[j]> <= h[j]}, with equality on active
    constraints.

    blocks: as in support_max_dot; points in no `own` are left unset.

    A block's entries keep the full product's bits in any candidate
    order, so bodies.hull_depth equals the full scan. Gathered rows,
    cloud[own] @ dirs[cand].T, rounded the last (len(cand) mod 8) columns
    an ulp apart on an AVX-512 OpenBLAS; gathered columns matched in all
    800 blocks of 2-130 x 2-400 entries tried there."""
    return _max_scan(_c(cloud), _c(np.transpose(dirs)), blocks, _c(h))


def radial_from_support(h, dirs, queries):
    """r[q] = min over dirs with <q, dir> > _POS_TOL of h/<q,dir>.
    -1 marks queries with no positive-dot direction (should not happen on
    antipodal grids)."""
    h, cols, queries = _c(h), _c(np.transpose(dirs)), _c(queries)
    out = np.empty(queries.shape[0])
    for a in range(0, queries.shape[0], _BLOCK):
        b = min(a + _BLOCK, queries.shape[0])
        dot = _product(queries[a:b], cols, slice(None))
        ratio = np.where(dot > _POS_TOL, h[None, :] / np.where(dot > _POS_TOL, dot, 1.0), np.inf)
        m = ratio.min(axis=1)
        out[a:b] = np.where(np.isfinite(m), m, -1.0)
    return out


def max_nn_gap(nodes):
    """Largest nearest-neighbor geodesic gap of a unit-vector cloud."""
    nodes = _c(nodes)
    cols = _c(nodes.T)
    worst = 0.0
    for a in range(0, nodes.shape[0], _BLOCK):
        b = min(a + _BLOCK, nodes.shape[0])
        dot = _product(nodes[a:b], cols, slice(None))
        dot[np.arange(b - a), np.arange(a, b)] = -2.0  # exclude self-pairs
        best = np.arccos(np.clip(dot.max(axis=1), -1.0, 1.0))
        worst = max(worst, best.max())
    return float(worst)
