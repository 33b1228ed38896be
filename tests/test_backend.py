"""The blocked kernels against full-matrix numpy references, and the
hull-depth certificate built on them."""

import math

import numpy as np
import pytest

from convexsphere import backend
from convexsphere.bodies import certify_convex_radial, from_radial, hull_depth
from convexsphere.sphere import build_grid


def _dense_hull_gaps(cloud, dirs):
    dots = cloud @ dirs.T
    return (dots - dots.max(axis=0)[None, :]).max(axis=1)


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
        (backend.hull_gaps(cloud, dirs, hc), _dense_hull_gaps(cloud, dirs)),
        (backend.radial_from_support(h + 2.0, dirs, queries), radial),
    ]:
        assert got.dtype == np.float64
        assert np.abs(got - want).max() < 1e-12
    assert abs(backend.max_nn_gap(dirs) - nn_gap) < 1e-12
    assert backend.backend_name() == "numpy"


def test_radial_matches_support_on_ball():
    grid = build_grid(3)
    h = np.full(grid.size, 1.5)
    r = backend.radial_from_support(h, grid.nodes, grid.nodes)
    assert np.abs(r - 1.5).max() < 1e-12


def test_hull_depth(grid3):
    nodes = grid3.nodes
    rng = np.random.default_rng(7)
    r = 1.0 + 0.05 * rng.random(grid3.size)
    assert hull_depth(nodes, r) == pytest.approx(
        _dense_hull_gaps(r[:, None] * nodes, nodes).min(), abs=1e-12
    )

    bad = r.copy()
    bad[3] = 0.0
    assert hull_depth(nodes, bad) == -math.inf

    # a dimple at the north pole: the certificate accepts exactly the
    # tolerances that reach down to the measured depth
    dimpled = 1.0 - 0.6 * np.exp(-8.0 * (1.0 - nodes[:, 2]))
    depth = hull_depth(nodes, dimpled)
    assert depth < -0.01
    body = from_radial(grid3, dimpled)
    assert certify_convex_radial(body, tol=-depth)
    assert not certify_convex_radial(body, tol=-0.999 * depth)
