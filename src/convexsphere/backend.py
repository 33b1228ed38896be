"""Hot numeric kernels: blocked numpy scans over point/direction pairs.

Each kernel is a quadratic scan with a tiny inner dimension (n <= 4).
The dense scans go through BLAS in blocks of `_BLOCK` rows, which bounds
the temporary at G * _BLOCK doubles instead of G^2. Every entry point
coerces its array arguments to contiguous float64, and every product of
every kernel goes through _product, so an entry rounds the same in a
block of one row or one column as in a larger one: a single direction's
support equals its row of a batch.

The two max-scans, support_max_dot and hull_gaps, also take radial
clouds {r_i u_i} (radial=(r, units)). Their terms are then r_i times the
cosine <u_i, d_j>, one product for every scan of a radial cloud. On a
grid the cosines come from ring_table: for each node of the grid's
first half and each of RING_LEVELS, the cap of nodes whose cosine to it
clears the level. A scan with a cosine cut (rings=...) then reduces, with
np.maximum.reduceat, one cap per output, that of the first level at or
below the cut, and falls back to dense rows only for the outputs that
the caps cannot certify (bodies.hull_depth proves both).
"""

import numpy as np

_BLOCK = 256  # rows per block; bounds temporary memory at G*BLOCK

#: Cosine levels of ring_table, falling: cap l of a node holds the nodes
#: whose cosine to it is at least RING_LEVELS[l].
RING_LEVELS = (0.95, 0.9)


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


def _max_rows(rows, cols, h=None, col_radii=None, row_radii=None):
    """out[j] = max_k (s * <rows[j], cols[:, k]> - h[k]) over every column,
    _BLOCK rows at a time, with s = col_radii[k] or row_radii[j] (default 1)
    and h default 0."""
    out = np.empty(rows.shape[0])
    for a in range(0, rows.shape[0], _BLOCK):
        dot = _product(rows[a:a + _BLOCK], cols, slice(None))
        if col_radii is not None:
            dot *= col_radii
        if row_radii is not None:
            dot *= row_radii[a:a + _BLOCK, None]
        if h is not None:
            dot -= h
        out[a:a + _BLOCK] = dot.max(axis=1)
    return out


def ring_table(nodes):
    """(index, cosine, starts) of the unit rows `nodes` (G of them): for
    each of the first G/2 nodes j and each level l of RING_LEVELS, the
    segment s = l * G/2 + j is index[starts[s]:starts[s+1]] (int32), the
    cap of nodes k with <u_j, u_k> >= RING_LEVELS[l] in increasing order,
    with their cosines. Node j itself is in every cap, so none is empty,
    and each cap holds the one of the level before it. The cosines are
    _product's, 32 rows at a time: one pass counts the entries and a
    second one fills them in, which keeps the temporaries to the table
    and a few 32 G blocks of cosines."""
    nodes = _c(nodes)
    half, cols = nodes.shape[0] // 2, _c(nodes.T)

    def blocks():
        for a in range(0, half, 32):
            cos = _product(nodes[a:min(a + 32, half)], cols, slice(None))
            for cap, level in enumerate(RING_LEVELS):
                yield cap * half + a, cos, cos >= level

    counts = np.zeros(len(RING_LEVELS) * half, dtype=np.int64)
    for seg, _, keep in blocks():
        counts[seg:seg + keep.shape[0]] = keep.sum(axis=1)
    starts = np.concatenate([[0], np.cumsum(counts)])
    index, cosine = np.empty(starts[-1], dtype=np.int32), np.empty(starts[-1])
    for seg, cos, keep in blocks():
        row, col = np.nonzero(keep)
        at = slice(starts[seg], starts[seg + keep.shape[0]])
        index[at], cosine[at] = col, cos[row, col]
    return index, cosine, starts


def _ring_segments(starts, half, cap, rows):
    """(at, seg_starts, lengths): the table entries `at` of the caps of
    level `cap` of the table rows `rows` (a slice when rows are all the
    rows), where each cap starts in them and its length."""
    seg = cap * half + rows
    lengths = starts[seg + 1] - starts[seg]
    if rows.size == half:
        return slice(starts[seg[0]], starts[seg[-1] + 1]), starts[seg] - starts[seg[0]], lengths
    seg_starts = np.cumsum(lengths) - lengths
    return np.repeat(starts[seg] - seg_starts, lengths) + np.arange(lengths.sum()), seg_starts, lengths


def _support_rows(rows, cols, radii, cap_max):
    """max(cap_max[j], max_k radii[k] <rows[j], cols[:, k]>) over the
    columns k that can exceed cap_max[j] if left out of the cap, where
    their cosine is < L = RING_LEVELS[-1]: those with fl(radii[k] L) >
    cap_max[j], a prefix of the columns by falling radius. The rows go
    by how long a prefix they need, _BLOCK at a time."""
    order = np.argsort(-radii, kind="stable")
    need = np.searchsorted(-(radii[order] * RING_LEVELS[-1]), -cap_max)
    out = cap_max.copy()
    by_need = np.argsort(need, kind="stable")
    for a in range(0, by_need.size, _BLOCK):
        block = by_need[a:a + _BLOCK]
        cand = order[:need[block].max()]
        if cand.size:
            dense = _max_rows(rows[block], cols.take(cand, axis=1), col_radii=radii[cand])
            out[block] = np.maximum(out[block], dense)
    return out


def _ring_scan(table, units, radii, cut, h=None, rows=None, floor=np.inf):
    """The support (h None) or the hull gaps (h given) of the radial cloud
    {radii[k] u_k} at the table rows `rows` (default all), over the pairs
    with cosine >= cut: one cap per output, that of the first level at or
    below cut. A cut below the last level reduces the last cap and
    completes, by dense rows, the outputs below floor that the cap cannot
    certify: an entry left out has cosine < L = RING_LEVELS[-1], so its
    term is at most max(radii) * L for a support and radii[j] * L - min(h)
    for a gap. An output at or above floor may be left at its cap
    maximum, a lower bound of it."""
    index, cosine, starts = table
    half = (starts.size - 1) // len(RING_LEVELS)
    rows = np.arange(half) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0)
    cap = min(sum(level > cut for level in RING_LEVELS), len(RING_LEVELS) - 1)
    at, seg_starts, lengths = _ring_segments(starts, half, cap, rows)
    terms = np.take(radii, index[at]) if h is None else np.repeat(radii[rows], lengths)
    terms *= cosine[at]
    if h is not None:
        terms -= np.take(h, index[at])
    out = np.maximum.reduceat(terms, seg_starts)
    if cut < RING_LEVELS[-1]:
        level = RING_LEVELS[-1]
        bound = radii.max() * level if h is None else radii[rows] * level - h.min()
        weak = np.flatnonzero((out < bound) & (out < floor))
        if weak.size:
            cols = _c(units.T)
            if h is None:
                out[weak] = _support_rows(units[rows[weak]], cols, radii, out[weak])
            else:
                out[weak] = _max_rows(units[rows[weak]], cols, h, row_radii=radii[rows[weak]])
    return out


def support_max_dot(cloud, dirs, radial=None, rings=None):
    """h[j] = max_i <cloud[i], dirs[j]>.

    radial: (radii, units) of a radial cloud, cloud[i] = radii[i] *
    units[i] with unit rows: each term is taken as radii[i] * <units[i],
    dirs[j]>, and cloud itself is not read. rings: (table, cut), with
    dirs == units the nodes of table = ring_table(units): h at the first
    half of dirs only, over the pairs with cosine >= cut."""
    if radial is None:
        return _max_rows(_c(dirs), _c(np.transpose(cloud)))
    radii, units = _c(radial[0]), _c(radial[1])
    if rings is None:
        return _max_rows(_c(dirs), _c(units.T), col_radii=radii)
    table, cut = rings
    return _ring_scan(table, units, radii, float(cut))


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


def hull_gaps(cloud, dirs, h, radial, rings):
    """gap[i] = max_j (<cloud[i], dirs[j]> - h[j]) of a radial cloud on a
    grid, <= 0 when cloud[i] lies inside {x : <x, dirs[j]> <= h[j]}.
    radial = (radii, units) and rings = (table, cut, rows, floor) as in
    support_max_dot, with the terms radii[i] * <units[i], dirs[j]> - h[j]:
    the gaps of the points `rows`, increasing indices into the grid's
    first half, over the pairs with cosine >= cut; a gap at or above floor
    may come out as any v with floor <= v <= gap. cloud and dirs are not
    read."""
    table, cut, rows, floor = rings
    return _ring_scan(table, _c(radial[1]), _c(radial[0]), float(cut), _c(h), rows, floor)


def radial_from_support(h, dirs, queries):
    """r[q] = 1 / max_j <q, dirs[j] / h[j]>: the radial function of the
    outer body {x : <x, dirs[j]> <= h[j]}, h > 0, at the unit rows of
    queries, by one scan of the polar points dirs[j] / h[j]."""
    polar = _c(np.transpose(dirs)) / _c(h)
    return 1.0 / _max_rows(_c(queries), polar)


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
