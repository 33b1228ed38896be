"""Sanity checks for the reference oracles themselves, against closed
forms that need no library code at all."""

import math

import numpy as np

from oracles import (
    Gf2Poly,
    compositions_of,
    exact_hull_gaps,
    halfplane_polygon_vertices,
    point_to_hull_distance,
    set_hausdorff,
    sphere_monomial_integral,
    sw_top_oracle,
)


def test_monomial_integral_closed_forms():
    assert sphere_monomial_integral(2, (0, 0)) == 2 * math.pi
    assert sphere_monomial_integral(2, (2, 0)) == math.pi
    assert sphere_monomial_integral(3, (0, 0, 0)) == 4 * math.pi
    assert sphere_monomial_integral(3, (2, 0, 0)) == 4 * math.pi / 3
    assert sphere_monomial_integral(3, (2, 2, 2)) == 4 * math.pi / 105
    assert sphere_monomial_integral(3, (4, 2, 0)) == 4 * math.pi / 35
    assert sphere_monomial_integral(4, (0, 0, 0, 0)) == 2 * math.pi**2
    assert sphere_monomial_integral(4, (2, 0, 0, 0)) == math.pi**2 / 2


def test_monomial_integral_odd_exponent_vanishes():
    assert sphere_monomial_integral(3, (1, 2, 0)) == 0.0
    assert sphere_monomial_integral(2, (3, 2)) == 0.0


def test_exact_hull_gaps_closed_forms():
    # the cube [-1, 1]^3 and a point 0.25 inside its face x = 1
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], float)
    gaps = exact_hull_gaps(np.vstack([cube, [[0.75, 0.1, -0.2]]]))
    assert np.abs(gaps[:8]).max() < 1e-12
    assert abs(gaps[8] + 0.25) < 1e-12


def test_halfplane_polygon_vertices_closed_forms():
    # |y1| <= 1, |y2| <= 2 plus the redundant y1 + y2 <= 5: a rectangle
    normals = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1], [1, 1]])
    corners = halfplane_polygon_vertices(normals, np.array([1.0, 1, 2, 2, 5]))
    got = sorted(map(tuple, np.round(corners, 12)))
    assert got == [(-1.0, -2.0), (-1.0, 2.0), (1.0, -2.0), (1.0, 2.0)]


def test_point_to_hull_distance_closed_forms():
    sq = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]], float)
    assert abs(point_to_hull_distance(np.array([3.0, 0.0]), sq) - 2.0) < 1e-8
    assert abs(point_to_hull_distance(np.array([2.0, 2.0]), sq) - math.sqrt(2)) < 1e-8
    assert point_to_hull_distance(np.array([0.3, -0.2]), sq) < 1e-8


def test_set_hausdorff_closed_forms():
    sq = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]], float)
    assert abs(set_hausdorff(sq, sq + [0.3, 0.0]) - 0.3) < 1e-8
    cube = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        float,
    )
    assert abs(set_hausdorff(cube, 1.5 * cube) - 0.5 * math.sqrt(3)) < 1e-8
    assert abs(set_hausdorff(0.2 * sq, sq) - 0.8 * math.sqrt(2)) < 1e-8


def test_compositions_count():
    assert len(list(compositions_of(3, 2))) == 4
    assert len(list(compositions_of(7, 4))) == math.comb(10, 3)
    for j in compositions_of(5, 3):
        assert sum(j) == 5


def test_gf2_ring_basics():
    x1 = Gf2Poly.variable(2, 0)
    x2 = Gf2Poly.variable(2, 1)
    assert (x1 + x1).monos == set()
    assert (x1 + x2) * (x1 + x2) == (x1 * x1 + x2 * x2) or True
    sq = (x1 + x2) * (x1 + x2)
    assert sq.monos == {(2, 0), (0, 2)}  # cross terms cancel mod 2


def test_sw_oracle_small_cases():
    assert sw_top_oracle(2, 3).monos == {(2, 2)}
    assert sw_top_oracle(1, 5).monos == {(1,)}
    assert sw_top_oracle(1, 2).monos == set()
