"""The blocked kernels against full-matrix numpy references, and the
hull-depth certificate built on them: its pruned scans against the full
matrix, and its depth against the exact hull from qhull."""

import math

import numpy as np
import pytest

from convexsphere import backend
from convexsphere.bodies import (
    _hull_depth_slack,
    certify_convex_radial,
    from_radial,
    from_vertices,
    hull_depth,
)
from convexsphere.sphere import build_grid
from oracles import dense_hull_depth, dense_hull_gaps, dense_own_gaps, exact_hull_gaps


def smooth_radii(grid, spread, seed):
    """1 + spread * f, f a sum of random ridge waves scaled to [-1, 1]:
    rmin and rmax close to 1 -/+ spread."""
    rng = np.random.default_rng(seed)
    f = np.cos(grid.nodes @ rng.normal(scale=3.0, size=(grid.n, 3)) + rng.random(3) * 6).sum(axis=1)
    return 1.0 + spread * f / np.abs(f).max()


def _pairs(grid, blocks):
    """Node pairs that (own, cand) blocks on grid scan."""
    return sum(m.size * (grid.size if isinstance(c, slice) else c.size) for m, c in blocks)


def _kept_share(grid, cos_cut):
    # the tiles cover the first G/2 nodes, and the flipped radii scan as
    # many pairs on them again
    return 2 * _pairs(grid, grid.neighbourhoods(cos_cut)) / grid.size**2


def _wrap_max_scans(monkeypatch, record):
    """Make the two max-scan kernels pass the (own, cand) blocks of each
    call to record."""
    def recording(kernel):
        def run(*args, blocks):
            record(blocks)
            return kernel(*args, blocks=blocks)
        return run

    for name in ("support_max_dot", "hull_gaps"):
        monkeypatch.setattr(backend, name, recording(getattr(backend, name)))


def _count_scanned_pairs(monkeypatch, grid):
    """Make the two max-scan kernels append the pairs they scan on grid
    to the returned list."""
    pairs = []
    _wrap_max_scans(monkeypatch, lambda blocks: pairs.append(_pairs(grid, blocks)))
    return pairs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernels_match_full_matrix_reference(n):
    rng = np.random.default_rng(100 + n)
    dirs = build_grid(n).nodes
    points = rng.normal(size=(40, n))
    rows = rng.normal(size=(18, n))
    offsets = np.array([0, 7, 12, 18])
    weights = np.array([0.5, 1.25, 0.25])
    queries = dirs[:: max(1, dirs.shape[0] // 97)]
    cloud = (1.0 + 0.1 * rng.random(dirs.shape[0]))[:, None] * dirs

    h = (points @ dirs.T).max(axis=0)
    dot_rows = rows @ dirs.T
    mink = 0.3 + sum(
        w * dot_rows[a:b].max(axis=0) for w, a, b in zip(weights, offsets[:-1], offsets[1:])
    )
    hc = (cloud @ dirs.T).max(axis=0)
    qd = queries @ dirs.T
    pos = qd > 1e-9
    radial = np.where(pos, (h + 2.0)[None, :] / np.where(pos, qd, 1.0), np.inf).min(axis=1)
    self_dots = dirs @ dirs.T
    np.fill_diagonal(self_dots, -2.0)
    nn_gap = np.arccos(np.clip(self_dots.max(axis=1), -1.0, 1.0)).max()

    for got, want in [
        (backend.support_max_dot(points, dirs), h),
        (backend.minkowski_support(rows, offsets, weights, 0.3, dirs), mink),
        (backend.hull_gaps(cloud, dirs, hc), dense_hull_gaps(cloud, dirs)),
        (backend.radial_from_support(h + 2.0, dirs, queries), radial),
    ]:
        assert got.dtype == np.float64
        assert np.abs(got - want).max() < 1e-12
    assert abs(backend.max_nn_gap(dirs) - nn_gap) < 1e-12
    assert backend.backend_name() == "numpy"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_blocked_max_scans_equal_the_dense_product_bit_for_bit(n):
    # hull_depth's equality with the full scan rests on every block
    # rounding each entry as the one wide product does, whatever the
    # block's shape: cand lengths 1..17 put every column remainder at the
    # edge, with the attaining candidate of own[0] last
    grid = build_grid(n)
    rng = np.random.default_rng(200 + n)
    cloud = smooth_radii(grid, 0.05, n)[:, None] * grid.nodes
    dense = cloud @ grid.nodes.T
    h = dense.max(axis=0)
    gaps = dense - h
    assert np.array_equal(backend.support_max_dot(cloud, grid.nodes), h)
    assert np.array_equal(backend.hull_gaps(cloud, grid.nodes, h), gaps.max(axis=1))
    for length in range(1, 18):
        for size in (1, 2, 5, 13):
            own = rng.choice(grid.size, size, replace=False)
            cand = rng.choice(grid.size, length, replace=False)
            support_cand = cand[np.argsort(dense[cand, own[0]])]
            gap_cand = cand[np.argsort(gaps[own[0], cand])]
            got = backend.support_max_dot(cloud, grid.nodes, blocks=[(own, support_cand)])
            assert np.array_equal(got[own], dense[np.ix_(support_cand, own)].max(axis=0))
            got = backend.hull_gaps(cloud, grid.nodes, h, blocks=[(own, gap_cand)])
            assert np.array_equal(got[own], gaps[np.ix_(own, gap_cand)].max(axis=1))


def test_one_direction_rounds_as_its_row_of_a_batch(grid3):
    # every kernel product goes through _product, so a lone direction, a
    # one-vertex body or a last block of one row keeps the batch's bits
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    for k in (1, 2, 12):
        body = from_vertices(grid3, rng.normal(size=(k, 3)))
        batch = body.support_eval(x)
        assert [body.support_eval(x[i:i + 1])[0] for i in range(len(x))] == batch.tolist()
    h = 1.0 + 0.3 * rng.random(grid3.size)
    batch = backend.radial_from_support(h, grid3.nodes, x)
    single = [backend.radial_from_support(h, grid3.nodes, x[i:i + 1])[0] for i in range(len(x))]
    assert single == batch.tolist()
    for size in (257, 300):
        nodes = grid3.nodes[:size]
        dot = nodes @ nodes.T
        np.fill_diagonal(dot, -2.0)
        want = float(np.arccos(np.clip(dot.max(axis=1), -1.0, 1.0)).max())
        assert backend.max_nn_gap(nodes) == want


def test_radial_matches_support_on_ball():
    grid = build_grid(3)
    h = np.full(grid.size, 1.5)
    r = backend.radial_from_support(h, grid.nodes, grid.nodes)
    assert np.abs(r - 1.5).max() < 1e-12


def test_hull_depth(grid3):
    nodes = grid3.nodes
    rng = np.random.default_rng(7)
    r = 1.0 + 0.05 * rng.random(grid3.size)
    assert hull_depth(grid3, r) == pytest.approx(
        dense_hull_gaps(r[:, None] * nodes, nodes).min(), abs=1e-12
    )

    bad = r.copy()
    bad[3] = 0.0
    assert hull_depth(grid3, bad) == -math.inf

    # a dimple at the north pole: the certificate accepts exactly the
    # tolerances that reach down to the measured depth
    dimpled = 1.0 - 0.6 * np.exp(-8.0 * (1.0 - nodes[:, 2]))
    depth = hull_depth(grid3, dimpled)
    assert depth < -0.01
    body = from_radial(grid3, dimpled)
    assert certify_convex_radial(body, tol=-depth)
    assert not certify_convex_radial(body, tol=-0.999 * depth)


@pytest.mark.parametrize("n,resolution", [(3, 16), (3, 32), (4, 10)])
def test_pruned_hull_depth_equals_dense(n, resolution):
    grid = build_grid(n, resolution)
    for spread in (0.005, 0.02, 0.1, 0.9):
        rmin, rmax = 1.0 - spread, 1.0 + spread
        support_share = _kept_share(grid, rmin / rmax)
        gap_share = _kept_share(grid, 1.0 - (rmax - rmin) / rmin)
        if spread == 0.005:
            assert support_share < 0.25 and gap_share < 0.25
        if spread == 0.9:
            # the gap caps cover the sphere: every pair is scanned
            assert gap_share == 1.0
        for seed in range(3):
            r = smooth_radii(grid, spread, seed)
            cloud = r[:, None] * grid.nodes
            assert hull_depth(grid, r) == dense_hull_depth(grid, r)
            dense_h = (cloud @ grid.nodes.T).max(axis=0)
            assert np.array_equal(from_radial(grid, r).support, dense_h)
            # exactly even radii scan one antipodal half, bit for bit
            even = 0.5 * (r + r[grid.antipode])
            cloud = even[:, None] * grid.nodes
            assert hull_depth(grid, even) == dense_hull_depth(grid, even)
            assert np.array_equal(from_radial(grid, even).support,
                                  (cloud @ grid.nodes.T).max(axis=0))


@pytest.mark.parametrize("n", [3, 4])
def test_even_radii_scan_half_the_pairs(monkeypatch, n, grid3, grid4):
    grid = grid3 if n == 3 else grid4
    r = smooth_radii(grid, 0.02, 4)
    r = 0.5 * (r + r[grid.antipode])
    pairs = _count_scanned_pairs(monkeypatch, grid)
    assert hull_depth(grid, r) == dense_hull_depth(grid, r)
    half = pairs[:]

    # one entry off by an ulp, away from rmin and rmax so that the
    # cut-offs stay: every node is scanned, with the dense value
    k = int(np.argsort(r)[grid.size // 2])
    odd = r.copy()
    odd[k] = np.nextafter(odd[k], 2.0)
    pairs.clear()
    assert hull_depth(grid, odd) == dense_hull_depth(grid, odd)
    full = pairs[:]
    # each kernel runs once more, on the flipped radii, with the same pairs
    assert full == [half[0], half[0], half[1], half[1]]
    assert half[0] < half[1] < grid.size**2 // 2


@pytest.mark.parametrize("n,resolution", [(3, 16), (3, 32), (4, 10)])
def test_slack_of_uneven_radii_equals_the_dense_own_gaps(n, resolution):
    # the far half's slack comes from the scan of the flipped radii
    grid = build_grid(n, resolution)
    for spread in (0.005, 0.1, 0.9):
        for seed in range(2):
            r = smooth_radii(grid, spread, seed)
            dense = dense_own_gaps(grid, r)
            for floor in (math.inf, -5e-3 * r.max()):
                _, slack = _hull_depth_slack(grid, r, floor)
                assert slack.size == grid.size
                assert np.array_equal(slack, dense)


@pytest.mark.parametrize("n", [3, 4])
def test_hull_scans_own_only_the_first_half(monkeypatch, n, grid3, grid4):
    # no block outputs the second half of the grid: it is scanned as the
    # first half of the flipped radii, on the same tiles
    grid = grid3 if n == 3 else grid4
    owned = []
    _wrap_max_scans(monkeypatch, lambda blocks: owned.extend(own for own, _ in blocks))
    r = smooth_radii(grid, 0.02, 4)
    for radii in (r, 0.5 * (r + r[grid.antipode])):
        owned.clear()
        assert hull_depth(grid, radii) == dense_hull_depth(grid, radii)
        assert owned and max(own.max() for own in owned) < grid.size // 2


@pytest.mark.parametrize("n", [3, 4])
def test_floor_skips_tiles_that_clear_it(monkeypatch, n, grid3, grid4):
    # a body that passes at find_epsilon's floor: the support scan is the
    # same, and only tiles with a point near or below the floor get gaps
    grid = grid3 if n == 3 else grid4
    r = smooth_radii(grid, 0.02, 4)
    floor = -5e-3 * r.max()
    pairs = _count_scanned_pairs(monkeypatch, grid)
    depth = hull_depth(grid, r)
    full = pairs[:]
    pairs.clear()
    assert floor <= hull_depth(grid, r, floor) <= depth
    # support scans of r and of the flipped radii, then their gap scans
    assert pairs[:2] == full[:2]
    assert pairs[2] < full[2] and pairs[3] < full[3]


def test_floor_keeps_the_depth_of_an_own_direction_gap(grid3):
    # on this ellipsoid the deepest point's gap is its own-direction term
    # r_i - h_i, which rounds an ulp above the computed gap: only the pad
    # keeps its tile scanned when the floor sits at or just above the depth
    axes = np.array([1.174099715796055, 1.0896088398456767, 1.201598463386908])
    r = 1.0 / np.linalg.norm(grid3.nodes / axes, axis=1)
    r = 0.5 * (r + r[grid3.antipode])
    dense = dense_hull_depth(grid3, r)
    assert dense < 0
    for floor in (dense, np.nextafter(dense, 0.0)):
        assert hull_depth(grid3, r, floor) == dense


@pytest.mark.parametrize("n", [3, 4])
def test_grid_depth_is_never_shallower_than_exact(n, grid3, grid4):
    # the grid tests the cloud against supporting half-spaces of its
    # exact hull only, so no point can look deeper inside than it is
    grid = grid3 if n == 3 else grid4
    dimpled = 1.0 - 0.3 * np.exp(-6.0 * (1.0 - grid.nodes[:, -1]))
    for r in (dimpled, smooth_radii(grid, 0.02, 5)):
        exact = exact_hull_gaps(r[:, None] * grid.nodes)
        assert exact.max() <= 1e-12
        assert exact.min() >= hull_depth(grid, r) - 1e-12
    assert exact_hull_gaps(dimpled[:, None] * grid.nodes).min() < -0.01
