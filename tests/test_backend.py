"""The blocked kernels against full-matrix numpy references, and the
hull-depth certificate built on them: its pruned scans against the full
matrix, and its depth against the exact hull from qhull."""

import math

import numpy as np
import pytest

from convexsphere import backend
from convexsphere.backend import RING_LEVELS
from convexsphere.bodies import (
    certify_convex_radial,
    from_radial,
    from_vertices,
    hull_depth,
)
from convexsphere.errors import InputError
from convexsphere.sphere import build_grid
from oracles import (
    dense_hull_depth,
    dense_hull_gaps,
    dense_radial_scan,
    exact_hull_gaps,
    grid_cosines,
)


def smooth_radii(grid, spread, seed):
    """1 + spread * f, f a sum of random ridge waves scaled to [-1, 1]:
    rmin and rmax close to 1 -/+ spread."""
    rng = np.random.default_rng(seed)
    f = np.cos(grid.nodes @ rng.normal(scale=3.0, size=(grid.n, 3)) + rng.random(3) * 6).sum(axis=1)
    return 1.0 + spread * f / np.abs(f).max()


def _record_scans(monkeypatch):
    """Make the two max-scan kernels append [kernel, outputs, ring entries
    reduced, dense rows scanned, dense pairs scanned, ring segments
    reduced] of each call to the returned list."""
    calls = []
    segments, max_rows = backend._ring_segments, backend._max_rows

    def recording(name, kernel):
        def run(*args, **kwargs):
            calls.append([name, 0, 0, 0, 0, 0])
            out = kernel(*args, **kwargs)
            calls[-1][1] = out.size
            return out
        return run

    def ring_entries(*args):
        out = segments(*args)
        calls[-1][2] += int(out[2].sum())
        calls[-1][5] += len(out[1])
        return out

    def dense_pairs(rows, cols, *args, **kwargs):
        calls[-1][3] += rows.shape[0]
        calls[-1][4] += rows.shape[0] * cols.shape[1]
        return max_rows(rows, cols, *args, **kwargs)

    for name in ("support_max_dot", "hull_gaps"):
        monkeypatch.setattr(backend, name, recording(name, getattr(backend, name)))
    monkeypatch.setattr(backend, "_ring_segments", ring_entries)
    monkeypatch.setattr(backend, "_max_rows", dense_pairs)
    return calls


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernels_match_full_matrix_reference(n):
    rng = np.random.default_rng(100 + n)
    dirs = build_grid(n).nodes
    points = rng.normal(size=(40, n))
    rows = rng.normal(size=(18, n))
    offsets = np.array([0, 7, 12, 18])
    weights = np.array([0.5, 1.25, 0.25])
    queries = dirs[:: max(1, dirs.shape[0] // 97)]

    h = (points @ dirs.T).max(axis=0)
    dot_rows = rows @ dirs.T
    mink = 0.3 + sum(
        w * dot_rows[a:b].max(axis=0) for w, a, b in zip(weights, offsets[:-1], offsets[1:])
    )
    qd = queries @ dirs.T
    pos = qd > 1e-9
    radial = np.where(pos, (h + 2.0)[None, :] / np.where(pos, qd, 1.0), np.inf).min(axis=1)
    self_dots = dirs @ dirs.T
    np.fill_diagonal(self_dots, -2.0)
    nn_gap = np.arccos(np.clip(self_dots.max(axis=1), -1.0, 1.0)).max()

    for got, want in [
        (backend.support_max_dot(points, dirs), h),
        (backend.minkowski_support(rows, offsets, weights, 0.3, dirs), mink),
        (backend.radial_from_support(h + 2.0, dirs, queries), radial),
    ]:
        assert got.dtype == np.float64
        assert np.abs(got - want).max() < 1e-12
    assert abs(backend.max_nn_gap(dirs) - nn_gap) < 1e-12
    assert backend.backend_name() == "numpy"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_blocked_max_scans_equal_the_dense_product_bit_for_bit(n):
    # hull_depth's equality with the dense scan rests on every ring and
    # every dense row rounding each term as the one wide product does:
    # row subsets of 1..13 points, cuts at and below each level, and wide
    # cuts whose rows the rings cannot all certify
    grid = build_grid(n)
    rng = np.random.default_rng(200 + n)
    half, table, nodes = grid.size // 2, grid.rings, grid.nodes
    for spread in (0.01, 0.4):
        r = smooth_radii(grid, spread, n)
        h, gaps = dense_radial_scan(grid, r)
        cloud = r[:, None] * nodes
        assert np.array_equal(backend.support_max_dot(cloud, nodes), (cloud @ nodes.T).max(axis=0))
        assert np.array_equal(backend.support_max_dot(cloud, nodes, radial=(r, nodes)), h)
        # the widest cuts that lose no maximum (bodies.hull_depth)
        support_cut = r.min() / r.max()
        gap_cut = 1.0 - (r.max() - r.min()) / r.min()
        for cut in (1.0,) + tuple(np.nextafter(RING_LEVELS, 0.0)) + (0.3, -1.0):
            rings = (table, min(cut, support_cut))
            assert np.array_equal(backend.support_max_dot(cloud, nodes, radial=(r, nodes), rings=rings),
                                  h[:half])
            for size in (1, 2, 5, 13, half):
                rows = np.sort(rng.choice(half, size, replace=False))
                rings = (table, min(cut, gap_cut), rows, math.inf)
                got = backend.hull_gaps(cloud, nodes, h, radial=(r, nodes), rings=rings)
                assert np.array_equal(got, gaps[rows])


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


def test_hull_depth_refuses_radii_that_are_not_finite_or_not_one_per_node(grid3):
    # a short array would fail on its antipodes, and a nan or an infinite
    # radius would read as a depth of nan, which no floor accepts
    r = np.ones(grid3.size)
    for bad in (r[:-1], r[:, None], np.append(r, 1.0)):
        with pytest.raises(InputError, match="shape"):
            hull_depth(grid3, bad)
    for value in (math.nan, math.inf, -math.inf):
        bad = r.copy()
        bad[5] = value
        with pytest.raises(InputError, match="finite"):
            hull_depth(grid3, bad, -5e-3)


@pytest.mark.parametrize("n,resolution", [(3, 16), (3, 32), (4, 10)])
def test_pruned_hull_depth_equals_dense(monkeypatch, n, resolution):
    grid = build_grid(n, resolution)
    half_pairs = grid.size**2 // 2
    calls = _record_scans(monkeypatch)
    for spread in (0.005, 0.02, 0.1, 0.9):
        for seed in range(3):
            r = smooth_radii(grid, spread, seed)
            # exactly even radii scan one antipodal half, bit for bit
            for radii in (r, 0.5 * (r + r[grid.antipode])):
                calls.clear()
                assert hull_depth(grid, radii) == dense_hull_depth(grid, radii)
                assert np.array_equal(from_radial(grid, radii).support,
                                      dense_radial_scan(grid, radii)[0])
                # one cap per output, whatever the cut
                assert all(c[5] == c[1] for c in calls)
                support, gap, dense_gap = calls[0][2], calls[-1][2], calls[-1][4]
                if spread == 0.005:
                    assert support < 0.25 * half_pairs and gap < 0.25 * half_pairs
                if spread == 0.9:
                    # the gap cut lies below the last ring: rows go dense
                    assert dense_gap > 0


@pytest.mark.parametrize("n", [3, 4])
def test_radial_support_eval_at_the_nodes_is_the_support(n, grid3, grid4):
    # one product for radial clouds: the dense evaluator off the grid and
    # the ring scan on it round every term alike
    grid = grid3 if n == 3 else grid4
    for spread in (0.02, 0.4):
        for r in (smooth_radii(grid, spread, 6), 1.0 - 0.6 * np.exp(-8.0 * (1.0 - grid.nodes[:, -1]))):
            body = from_radial(grid, r)
            assert np.array_equal(body.support_eval(grid.nodes), body.support)


@pytest.mark.parametrize("n,resolution", [(3, 16), (3, 32), (4, 10)])
def test_radial_product_rounds_within_1e_15_of_the_cloud_product(n, resolution):
    # r_k <u_k, u_j> and <r_k u_k, u_j> are the same number up to round-off
    grid = build_grid(n, resolution)
    for spread in (0.005, 0.1, 0.9):
        r = smooth_radii(grid, spread, 1)
        cloud = r[:, None] * grid.nodes
        h, gaps = dense_radial_scan(grid, r)
        old_h = (cloud @ grid.nodes.T).max(axis=0)
        assert np.abs(h - old_h).max() <= 1e-15 * r.max()
        assert np.abs(gaps - dense_hull_gaps(cloud, grid.nodes)).max() <= 1e-15 * r.max()
        assert abs(hull_depth(grid, r) - dense_hull_gaps(cloud, grid.nodes).min()) <= 1e-15 * r.max()


@pytest.mark.parametrize("n", [2, 3])
def test_a_spike_attains_the_support_in_each_ring(n, grid2, grid3):
    # radii 1 with one antipodal pair raised to 1/c, c just above a level:
    # the supports near the spike are attained at it, some of them in the
    # ring of that level, which the scan must reduce and no more
    grid = grid2 if n == 2 else grid3
    cos = grid_cosines(grid)
    spike = [grid.size // 4, grid.antipode[grid.size // 4]]
    for level, upper in zip(RING_LEVELS, (1.0,) + RING_LEVELS[:-1]):
        r = np.ones(grid.size)
        r[spike] = 1.0 / (level + 1e-6)
        h, gaps = dense_radial_scan(grid, r)
        assert np.any(np.where(cos >= upper, r[:, None] * cos, -np.inf).max(axis=0) != h)
        assert np.array_equal(from_radial(grid, r).support, h)
        assert hull_depth(grid, r) == gaps.min()


@pytest.mark.parametrize("n", [3, 4])
def test_wide_cuts_scan_densely_only_the_rows_the_rings_cannot_certify(monkeypatch, n, grid3, grid4):
    # a cut below the last level: an output whose ring maximum reaches the
    # largest term a left-out pair can round to is exact; the other rows
    # are scanned over every node
    grid = grid3 if n == 3 else grid4
    half, level = grid.size // 2, RING_LEVELS[-1]
    r = smooth_radii(grid, 0.3, 2)
    h, gaps = dense_radial_scan(grid, r)
    cos = (grid_cosines(grid))[:half]
    near = cos >= level
    support_weak = np.where(near, r * cos, -np.inf).max(axis=1) < r.max() * level
    gap_weak = (np.where(near, r[:half, None] * cos - h, -np.inf).max(axis=1)
                < r[:half] * level - h.min())
    calls = _record_scans(monkeypatch)
    assert hull_depth(grid, r) == gaps.min()
    (*_, support_rows, support_pairs, _), _, (*_, gap_rows, gap_pairs, _), _ = calls
    assert 0 < support_weak.sum() < half and 0 < gap_weak.sum() < half
    # a support row meets only the nodes whose radius could beat its rings
    assert support_rows == support_weak.sum()
    assert 0 < support_pairs < support_rows * grid.size
    assert gap_pairs == gap_weak.sum() * grid.size
    # with a floor, only the gaps whose rings stay below it
    floor = float(np.sort(gaps[:half][gap_weak])[2])
    calls.clear()
    assert hull_depth(grid, r, floor) == gaps.min()
    ring_gaps = np.where(near, r[:half, None] * cos - h, -np.inf).max(axis=1)
    assert calls[2][3] == np.count_nonzero(gap_weak & (ring_gaps < floor)) < gap_weak.sum()


@pytest.mark.parametrize("n", [3, 4])
def test_even_radii_scan_half_the_pairs(monkeypatch, n, grid3, grid4):
    grid = grid3 if n == 3 else grid4
    r = smooth_radii(grid, 0.02, 4)
    r = 0.5 * (r + r[grid.antipode])
    calls = _record_scans(monkeypatch)
    assert hull_depth(grid, r) == dense_hull_depth(grid, r)
    even = [c[:] for c in calls]

    # one entry off by an ulp, away from rmin and rmax so that the
    # cut-offs stay: every node is scanned, with the dense value
    k = int(np.argsort(r)[grid.size // 2])
    odd = r.copy()
    odd[k] = np.nextafter(odd[k], 2.0)
    calls.clear()
    assert hull_depth(grid, odd) == dense_hull_depth(grid, odd)
    # each kernel runs once more, on the flipped radii, on the same rings
    assert calls == [even[0], even[0], even[1], even[1]]
    assert [c[0] for c in even] == ["support_max_dot", "hull_gaps"]
    assert 0 < even[0][2] <= even[1][2] < grid.size**2 // 8 and even[1][3] == 0


@pytest.mark.parametrize("n,resolution", [(3, 16), (3, 32), (4, 10)])
def test_uneven_radii_meet_the_floor_contract_of_the_dense_depth(n, resolution):
    # the far half's gaps come from the scan of the flipped radii: the
    # depth is the dense one below the floor, else between the two
    grid = build_grid(n, resolution)
    for spread in (0.005, 0.1, 0.9):
        for seed in range(2):
            r = smooth_radii(grid, spread, seed)
            assert not np.array_equal(r, r[grid.antipode])
            dense = dense_hull_depth(grid, r)
            for floor in (-math.inf, -5e-3 * r.max(), dense - 1e-9, dense,
                          np.nextafter(dense, math.inf), dense + 1e-9, math.inf):
                v = hull_depth(grid, r, floor)
                if dense < floor:
                    assert v == dense
                else:
                    assert floor <= v <= dense


@pytest.mark.parametrize("n", [3, 4])
def test_hull_scans_own_only_the_first_half(monkeypatch, n, grid3, grid4):
    # no call outputs the second half of the grid: it is scanned as the
    # first half of the flipped radii, on the same rings
    grid = grid3 if n == 3 else grid4
    calls = _record_scans(monkeypatch)
    r = smooth_radii(grid, 0.02, 4)
    for radii, scans in ((r, 4), (0.5 * (r + r[grid.antipode]), 2)):
        calls.clear()
        assert hull_depth(grid, radii) == dense_hull_depth(grid, radii)
        assert [c[1] for c in calls] == [grid.size // 2] * scans


@pytest.mark.parametrize("n", [3, 4])
def test_floor_skips_points_that_clear_it(monkeypatch, n, grid3, grid4):
    # a body that passes at find_epsilon's floor: the support scans are
    # the same, and only points near or below the floor get gaps
    grid = grid3 if n == 3 else grid4
    r = smooth_radii(grid, 0.02, 4)
    floor = -5e-3 * r.max()
    calls = _record_scans(monkeypatch)
    depth = hull_depth(grid, r)
    full = [c[:] for c in calls]
    calls.clear()
    assert floor <= hull_depth(grid, r, floor) <= depth
    # support scans of r and of the flipped radii, then their gap scans
    assert calls[:2] == full[:2]
    for got, want in zip(calls[2:], full[2:]):
        assert got[1] < want[1] and got[2] < want[2]


def test_floor_keeps_the_depth_of_an_own_direction_gap(grid3):
    # on this ellipsoid the deepest point's gap is its own-direction term
    # r_i - h_i, which rounds an ulp above the computed gap: only the pad
    # keeps it scanned when the floor sits at or just above the depth
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
