"""Property tests over random term bodies (stacked Minkowski terms plus a
ball radius) at n = 2 and n = 3, including the metric laws of hausdorff and
bm_distance (on the grid, and off it for polytopes and balls) and the
idempotence of group averages over exact groups;
over random radial clouds at n = 3 and n = 4 for the pruned hull-depth
certificate, even or not; and over random polynomials for the GF(2)
ring laws of mod2poly."""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from convexsphere.bodies import (
    ball,
    bm_distance,
    from_radial,
    from_terms,
    from_vertices,
    group_average,
    hausdorff,
    hull_depth,
    scaled_body,
)
from convexsphere.fields import DEPTH_TOL, rotate_body, thicken
from convexsphere.groups import cyclic_rotation_group, random_rotations, sample_group
from convexsphere.mod2poly import Mod2SymPoly
from convexsphere.serialize import body_doc, body_from_doc
from oracles import dense_hull_depth, dense_radial_scan

coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def term_specs(draw):
    """n, stacked terms (rows, offsets, weights) of 1-3 terms of 1-4
    points each, a ball radius and a seed."""
    n = draw(st.sampled_from([2, 3]))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    terms = (
        draw(arrays(np.float64, (sum(sizes), n), elements=coords)),
        np.cumsum([0] + sizes),
        draw(arrays(np.float64, len(sizes), elements=st.floats(0.0, 2.0))),
    )
    return n, terms, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32 - 1))


def reloaded(body, grid):
    return body_from_doc(json.loads(json.dumps(body_doc(body))), grid)


@settings(max_examples=30, deadline=None, database=None)
@given(spec=term_specs())
def test_term_bodies_round_trip_and_stay_exact(grid2, grid3, spec):
    n, terms, rho, seed = spec
    grid = grid2 if n == 2 else grid3
    body = from_terms(grid, *terms, rho)

    back = reloaded(body, grid)
    assert np.array_equal(back.support, body.support)
    assert back.ball_radius == body.ball_radius
    for got, want in zip(back.terms, body.terms):
        assert np.array_equal(got, want)

    scale = 1.0 + float(np.abs(body.support).max())
    rot = random_rotations(n, 1, np.random.default_rng(seed))[0]
    rotated = rotate_body(body, rot)
    assert rotated.terms is not None
    assert np.abs(rotated.support - body.support_eval(grid.nodes @ rot)).max() <= 1e-12 * scale

    group = cyclic_rotation_group(n, (0, 1), 3)
    avg = group_average(body, group)
    assert avg.terms is not None
    want = sum(w * body.support_eval(grid.nodes @ g.T) for g, w in zip(group.elements, group.weights))
    assert np.abs(avg.support - want).max() <= 1e-12 * scale

    scaled = scaled_body(body, 2.5)
    assert scaled.terms is not None
    assert np.abs(scaled.support - 2.5 * body.support).max() <= 1e-12 * scale

    thick = thicken(body, 0.25)
    assert thick.terms is not None
    assert thick.ball_radius == body.ball_radius + 0.25
    assert np.abs(thick.support - (body.support + 0.25)).max() <= 1e-12 * scale

    # every image survives its document: reloaded, it has the same
    # support off the grid, bit for bit
    dirs = np.random.default_rng(seed).normal(size=(64, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for b in (body, rotated, avg, scaled, thick):
        assert np.array_equal(reloaded(b, grid).support_eval(dirs), b.support_eval(dirs))


@settings(max_examples=25, deadline=None, database=None)
@given(
    n=st.sampled_from([3, 4]),
    spread=st.floats(0.001, 0.95),
    waves=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_hull_depth_matches_full_scan(grid3, grid4, n, spread, waves, seed):
    # radii 1 + spread * f with f a sum of random ridge waves in [-1, 1]
    grid = grid3 if n == 3 else grid4
    rng = np.random.default_rng(seed)
    f = np.cos(grid.nodes @ rng.normal(scale=4.0, size=(n, waves)) + 6 * rng.random(waves)).sum(axis=1)
    r = 1.0 + spread * f / np.abs(f).max()
    # the rings of the first half, and the flipped radii for the other
    # half, bit for bit; so too exactly even radii, scanned once
    for radii in (r, 0.5 * (r + r[grid.antipode])):
        assert hull_depth(grid, radii) == dense_hull_depth(grid, radii)
        assert np.array_equal(from_radial(grid, radii).support, dense_radial_scan(grid, radii)[0])
        _check_floor_contract(grid, radii)


def _check_floor_contract(grid, r):
    """hull_depth(grid, r, floor) is the dense depth when that is below the
    floor, else between the floor and the dense depth."""
    dense = dense_hull_depth(grid, r)
    floors = (-math.inf, dense - 1e-3, dense - 1e-9, dense, np.nextafter(dense, math.inf),
              dense + 1e-9, -DEPTH_TOL * float(r.max()))
    for floor in floors:
        v = hull_depth(grid, r, floor)
        if dense < floor:
            assert v == dense
        else:
            assert floor <= v <= dense


@st.composite
def origin_bodies(draw, n):
    """Stacked terms (rows, offsets, weights) and a ball radius > 0 of term
    bodies with the origin inside: centrally symmetric vertex sets (so
    every term's support is >= 0)."""
    halves = [draw(arrays(np.float64, (draw(st.integers(1, 3)), n), elements=coords))
              for _ in range(draw(st.integers(1, 2)))]
    return (
        np.vstack([np.vstack([v, -v]) for v in halves]),
        np.cumsum([0] + [2 * len(v) for v in halves]),
        draw(arrays(np.float64, len(halves), elements=st.floats(0.0, 2.0))),
        draw(st.floats(0.05, 1.0)),
    )


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data(), n=st.sampled_from([2, 3]), scale=st.floats(0.1, 10.0))
def test_metric_laws_on_the_grid(grid2, grid3, data, n, scale):
    grid = grid2 if n == 2 else grid3
    a, b, c = (from_terms(grid, *data.draw(origin_bodies(n))) for _ in range(3))
    size = 1.0 + max(float(np.abs(x.support).max()) for x in (a, b, c))
    for dist, tol in ((hausdorff, 1e-12 * size), (bm_distance, 1e-12)):
        assert abs(dist(a, b) - dist(b, a)) <= tol
        assert dist(a, c) <= dist(a, b) + dist(b, c) + tol
        assert dist(a, a) == 0.0
    # the sandwich distance does not see scalings
    assert abs(bm_distance(scaled_body(a, scale), b) - bm_distance(a, b)) <= 1e-12
    assert abs(bm_distance(a, scaled_body(a, scale))) <= 1e-12


@st.composite
def polytopes_and_balls(draw, grid):
    """A ball of radius in [0.05, 2], or the hull of 1-6 points with the
    cross-polytope of radius c in [0.05, 1] (so the origin is interior)."""
    if draw(st.booleans()):
        return ball(grid, draw(st.floats(0.05, 2.0)))
    n = grid.n
    pts = draw(arrays(np.float64, (draw(st.integers(1, 6)), n), elements=coords))
    c = draw(st.floats(0.05, 1.0))
    return from_vertices(grid, np.vstack([pts, c * np.eye(n), -c * np.eye(n)]))


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data(), n=st.sampled_from([2, 3]), scale=st.floats(0.1, 10.0))
def test_metric_laws_off_the_grid(grid2, grid3, data, n, scale):
    # polytopes and balls take both refined extremes in closed form
    grid = grid2 if n == 2 else grid3
    a, b, c = (data.draw(polytopes_and_balls(grid)) for _ in range(3))

    def dist(x, y):
        return bm_distance(x, y, refine=True)

    assert abs(dist(a, b) - dist(b, a)) <= 1e-12
    assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12
    assert abs(dist(scaled_body(a, scale), b) - dist(a, b)) <= 1e-12
    assert abs(dist(a, scaled_body(a, scale))) <= 1e-12
    for x, y in ((a, b), (b, c), (a, c)):
        assert dist(x, y) >= bm_distance(x, y)


@settings(max_examples=30, deadline=None, database=None)
@given(spec=term_specs(), order=st.integers(2, 4))
def test_group_average_is_idempotent_for_exact_groups(grid2, grid3, spec, order):
    n, terms, rho, _ = spec
    grid = grid2 if n == 2 else grid3
    body = from_terms(grid, *terms, rho)
    scale = 1.0 + float(np.abs(body.support).max())
    for group in (sample_group("pm", n), cyclic_rotation_group(n, (0, 1), order)):
        avg = group_average(body, group)
        again = group_average(avg, group)
        assert np.abs(again.support - avg.support).max() <= 1e-12 * scale


monomials = st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), max_size=6)


@settings(max_examples=60, deadline=None, database=None)
@given(nvars=st.integers(1, 4), p=monomials, q=monomials, r=monomials)
def test_mod2_polynomials_form_a_ring(nvars, p, q, r):
    p, q, r = (Mod2SymPoly.from_exponents(nvars, [m[:nvars] for m in x]) for x in (p, q, r))
    zero, one = Mod2SymPoly.zero(nvars), Mod2SymPoly.one(nvars)
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and p * zero == zero
    assert (p + p).is_zero  # characteristic 2
    assert (p + q) * (p + q) == p * p + q * q  # squaring is additive
