import dataclasses
import math

import numpy as np
import pytest

from convexsphere.backend import RING_LEVELS
from convexsphere.errors import InputError
from convexsphere.sphere import (
    SphereGrid,
    build_grid,
    integrate,
    lru_get,
    monomial_samples,
    monomial_sphere_integral,
    norms,
    sphere_area,
)

from oracles import grid_cosines, sphere_monomial_integral


def test_monomial_integral_matches_rational_oracle():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        for _ in range(40):
            alpha = tuple(rng.integers(0, 5, size=n) * 2)
            want = sphere_monomial_integral(n, alpha)
            got = monomial_sphere_integral(n, alpha)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300)
        odd = [0] * n
        odd[0] = 3
        assert monomial_sphere_integral(n, odd) == 0.0


def test_monomial_integral_frozen_values():
    assert monomial_sphere_integral(3, (2, 2, 2)) == pytest.approx(
        4 * math.pi / 105, rel=1e-15
    )
    assert monomial_sphere_integral(3, (4, 2, 0)) == pytest.approx(
        4 * math.pi / 35, rel=1e-15
    )
    assert monomial_sphere_integral(2, (4, 0)) == pytest.approx(
        3 * math.pi / 4, rel=1e-15
    )


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_nodes_and_weights(n):
    grid = build_grid(n)
    assert np.allclose(np.linalg.norm(grid.nodes, axis=1), 1.0, atol=1e-13)
    assert np.all(grid.weights > 0)
    assert grid.weights.sum() == pytest.approx(sphere_area(n), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_antipode_is_exact(n):
    grid = build_grid(n)
    # bitwise, signed zeros included
    assert grid.nodes[grid.antipode].tobytes() == (-grid.nodes).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadrature_exact_to_declared_degree(n):
    grid = build_grid(n)
    rng = np.random.default_rng(n)
    for _ in range(30):
        while True:
            alpha = tuple(rng.integers(0, grid.max_exact_degree // 2 + 1, size=n) * 2)
            if sum(alpha) <= grid.max_exact_degree:
                break
        want = sphere_monomial_integral(n, alpha)
        got = integrate(grid, monomial_samples(grid, alpha))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_quadrature_kills_odd_monomials(grid3):
    got = integrate(grid3, monomial_samples(grid3, (1, 2, 0)))
    assert abs(got) < 1e-13


def test_refined_grid_doubles_resolution(grid3):
    fine = grid3.refined()
    assert fine.resolution == 2 * grid3.resolution
    assert fine.max_exact_degree > grid3.max_exact_degree
    assert np.array_equal(fine.nodes[fine.antipode], -fine.nodes)
    assert fine.max_gap < grid3.max_gap
    got = integrate(fine, monomial_samples(fine, (2, 2, 2)))
    assert got == pytest.approx(4 * math.pi / 105, rel=1e-12)


def test_max_gap_magnitudes(grid2, grid3):
    assert grid2.max_gap == pytest.approx(2 * math.pi / grid2.size, rel=1e-6)
    assert 0.05 < grid3.max_gap < 0.25


def test_norms_of_known_function(grid3):
    f = grid3.nodes[:, 2] ** 2
    l2, c0 = norms(grid3, f)
    # integral of x3^4 over S^2 is 4 pi / 5
    assert l2 == pytest.approx(math.sqrt(4 * math.pi / 5), rel=1e-12)
    # the sup norm is taken over grid nodes (the quadrature nodes stay
    # clear of the poles, so it sits just below the analytic value 1)
    assert c0 == float(np.max(np.abs(f)))
    assert 0.95 < c0 <= 1.0


def test_build_grid_rejects_bad_dimension():
    with pytest.raises(InputError):
        build_grid(1)
    with pytest.raises(InputError):
        build_grid(5)


def test_grid_is_its_description(grid3):
    grid = SphereGrid(3, 16)
    assert grid == grid3 and hash(grid) == hash(grid3)
    assert grid.key == grid3.key == build_grid(3).key
    assert grid != SphereGrid(3, 18)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.nodes = -grid.nodes
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.resolution = 18
    for n in (2, 3, 4):
        g = build_grid(n)
        arrays = [g.nodes, g.weights, g.antipode] + ([g.angles] if n == 2 else [])
        assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        grid.nodes[0, 0] = 1.0


def _ring_rows(grid):
    """[[cap of each level] for each of the first G/2 nodes] of
    grid.rings, as (indices, cosines) pairs."""
    index, cosine, starts = grid.rings
    half, levels = grid.size // 2, len(RING_LEVELS)
    return [[(index[starts[cap * half + j]:starts[cap * half + j + 1]],
              cosine[starts[cap * half + j]:starts[cap * half + j + 1]]) for cap in range(levels)]
            for j in range(half)]


@pytest.mark.parametrize("n,resolution", [(2, 64), (3, 16), (3, 32), (4, 10)])
def test_rings_hold_every_node_at_or_above_each_level(n, resolution):
    # a hull scan reduces one cap per output, that of the first level at
    # or below its cut: a node missing from it could hold a support or a gap
    grid = build_grid(n, resolution)
    cos = grid_cosines(grid)
    for j, segments in enumerate(_ring_rows(grid)):
        inner = {j}
        for level, (members, cosines) in zip(RING_LEVELS, segments):
            assert members.dtype == np.int32
            assert np.all(np.diff(members) > 0)
            assert np.array_equal(cosines, cos[j, members])
            cap = set(members.tolist())
            assert cap == set(np.flatnonzero(cos[j] >= level).tolist()) | {j}
            assert inner <= cap  # each cap holds the one before it
            inner = cap


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ring_table_is_read_only_and_built_once(n):
    grid = build_grid(n)
    index, cosine, starts = grid.rings
    assert grid.rings is grid.rings
    assert starts[0] == 0 and starts[-1] == index.size == cosine.size
    assert starts.size == len(RING_LEVELS) * grid.size // 2 + 1
    for a in (index, cosine, starts):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_build_grid_shares_one_grid_per_description():
    # the refined check and every command reuse one grid and its tables
    assert build_grid(3, 16).refined() is build_grid(3, 32)
    assert build_grid(3) is build_grid(3, 16) is build_grid(3, 16.0)
    assert build_grid(4, 10) is not build_grid(4, 12)


def test_lru_get_drops_the_least_recently_used_entry_in_place():
    # build_grid and get_basis share it
    cache, built = {}, []

    def get(key):
        return lru_get(cache, key, lambda: built.append(key) or key.upper(), 3)

    assert [get(k) for k in "abca"] == ["A", "B", "C", "A"]
    assert get("d") == "D" and list(cache) == ["c", "a", "d"]
    assert get("b") == "B" and list(cache) == ["a", "d", "b"]
    assert built == ["a", "b", "c", "d", "b"]


@pytest.mark.parametrize("resolution", [9, 6, 16.0, None])
def test_grid_rejects_bad_resolution(resolution):
    with pytest.raises(InputError, match="resolution must be even"):
        SphereGrid(3, resolution)
