import dataclasses
import math

import numpy as np
import pytest

from convexsphere.bodies import (
    _newton_ascent,
    _polish_extreme,
    _polish_profiles,
    _tangent_frames,
    ConvexBody,
    ball,
    bm_distance,
    c0_l2_constant,
    certify_convex_radial,
    check_c0_l2_bound,
    distance_to_ball,
    distances_to_ball,
    empirical_L2_uniform,
    from_radial,
    from_support_samples,
    from_terms,
    from_vertices,
    group_average,
    hausdorff,
    invariance_defect,
    radial_from_support,
    random_polytope,
    scaled_body,
    validate_body,
)
from convexsphere.errors import GridMismatch, InputError, OriginNotInterior
from convexsphere.fields import BodyField
from convexsphere.fourier2d import FourierSupport
from convexsphere.groups import cyclic_rotation_group, sample_group
from convexsphere.polynomials import monomial_jet, project, stacked_monomial_form
from convexsphere.sections import cube_family
from convexsphere.sphere import build_grid
from oracles import polar_vertices, polytope_sandwich_lp


def _cube(grid):
    n = grid.n
    verts = np.array(
        [[(1.0 if (i >> k) & 1 else -1.0) for k in range(n)] for i in range(2**n)]
    )
    return from_vertices(grid, verts)


def test_hausdorff_of_balls_is_radius_gap(grid3):
    assert hausdorff(ball(grid3, 1.0), ball(grid3, 1.4)) == pytest.approx(
        0.4, abs=1e-14
    )


def test_hausdorff_requires_common_grid(grid2, grid3):
    with pytest.raises(GridMismatch):
        hausdorff(ball(grid2), ball(grid3))


@pytest.mark.parametrize("n", [2, 3])
def test_bm_cube_vs_ball_is_half_log_n(n, grid2, grid3):
    # cube of half-width 1 sits between the unit ball and sqrt(n) times it
    grid = {2: grid2, 3: grid3}[n]
    d = bm_distance(_cube(grid), ball(grid), refine=True)
    assert d == pytest.approx(0.5 * math.log(n), abs=1e-12)


def test_bm_ellipse_vs_disk_is_log_axis_ratio(grid2):
    a, b = 1.7, 0.6
    h = np.sqrt(
        (a * grid2.nodes[:, 0]) ** 2 + (b * grid2.nodes[:, 1]) ** 2
    )
    ell = from_support_samples(grid2, h)
    d = bm_distance(ell, ball(grid2))
    assert d == pytest.approx(math.log(a / b), abs=1e-9)


def test_bm_scale_invariance_and_symmetry(grid3):
    rng = np.random.default_rng(8)
    a = random_polytope(grid3, 12, rng)
    b = random_polytope(grid3, 9, rng)
    assert bm_distance(a, scaled_body(a, 3.0)) == pytest.approx(0.0, abs=1e-12)
    assert bm_distance(a, b) == pytest.approx(bm_distance(b, a), abs=1e-12)
    assert bm_distance(a, b) >= 0.0


def _interior_polytope(rng, nodes, k=12, inradius=0.2):
    """k uniform points in the unit ball, redrawn until the hull holds the
    ball of radius `inradius` on the grid's directions (the draw of the
    perfbench exact-body workload)."""
    while True:
        x = rng.normal(size=(k, nodes.shape[1]))
        x *= (rng.random(k) ** (1.0 / nodes.shape[1]) / np.linalg.norm(x, axis=1))[:, None]
        if (x @ nodes.T).max(axis=0).min() >= inradius:
            return x


def _nelder_mead_distance(a, b):
    """bm_distance(a, b, refine=True) with both extremes polished by
    Nelder-Mead from the three most extreme grid nodes."""
    ratio = b.support / a.support

    def rfun(pts):
        return b.support_eval(pts) / a.support_eval(pts)

    nodes = a.grid.nodes
    t_star = max([ratio.max()] + [_polish_extreme(rfun, nodes[i], True) for i in np.argsort(ratio)[-3:]])
    s_star = min([ratio.min()] + [_polish_extreme(rfun, nodes[i], False) for i in np.argsort(ratio)[:3]])
    return math.log(t_star / s_star)


@pytest.mark.parametrize("n", [2, 3])
def test_bm_of_polytopes_matches_lp_oracle(n, grid2, grid3):
    grid = {2: grid2, 3: grid3}[n]
    rng = np.random.default_rng(5)
    for _ in range(40):
        va, vb = _interior_polytope(rng, grid.nodes), _interior_polytope(rng, grid.nodes)
        t_star, s_star = polytope_sandwich_lp(va, vb)
        d = bm_distance(from_vertices(grid, va), from_vertices(grid, vb), refine=True)
        assert d == pytest.approx(math.log(t_star / s_star), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_bm_of_polytope_and_ball_matches_polar_oracle(n, grid2, grid3):
    # B inside tA for t = rho max|y| over the polar's vertices y, and
    # sA inside B for s = rho / max|v| over A's vertices v
    grid = {2: grid2, 3: grid3}[n]
    rng = np.random.default_rng(6)
    for _ in range(10):
        v = _interior_polytope(rng, grid.nodes)
        want = math.log(np.linalg.norm(v, axis=1).max() * np.linalg.norm(polar_vertices(v), axis=1).max())
        a, b = from_vertices(grid, v), ball(grid, 0.1 + rng.random())
        assert bm_distance(a, b, refine=True) == pytest.approx(want, rel=1e-12)
        assert bm_distance(b, a, refine=True) == pytest.approx(want, rel=1e-12)


def test_bm_polytope_pairs_pass_the_nelder_mead_ridge_stall(grid3):
    # the Nelder-Mead polish stalls on a ridge of the support ratio on the
    # fifth of these pairs, 1.5% short; the polar vertices are exact on all
    rng = np.random.default_rng(5)
    shortfall = 0.0
    for _ in range(6):
        va, vb = _interior_polytope(rng, grid3.nodes), _interior_polytope(rng, grid3.nodes)
        a, b = from_vertices(grid3, va), from_vertices(grid3, vb)
        d = bm_distance(a, b, refine=True)
        stalled = _nelder_mead_distance(a, b)
        t_star, s_star = polytope_sandwich_lp(va, vb)
        assert d >= bm_distance(a, b)
        assert d >= stalled
        assert d == pytest.approx(math.log(t_star / s_star), rel=1e-12)
        shortfall = max(shortfall, (d - stalled) / d)
    assert shortfall > 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_bm_polishes_extremes_without_closed_form(n, grid2, grid3, monkeypatch):
    # the average of two copies of the cube is a two-term body, so both
    # extremes against the ball go to the Nelder-Mead polish, which still
    # finds log sqrt(n); with one term, t* is the ratio at the vertex
    # directions, and s* of the thickened cube is polished
    from convexsphere import bodies

    grid = {2: grid2, 3: grid3}[n]
    verts = _cube(grid).terms[0]
    calls = []
    polish = bodies._polish_extreme
    monkeypatch.setattr(bodies, "_polish_extreme", lambda *a, **k: calls.append(1) or polish(*a, **k))

    doubled = from_terms(grid, np.vstack([verts, verts]), [0, 2**n, 2**(n + 1)], [0.5, 0.5])
    assert bm_distance(ball(grid), doubled, refine=True) == pytest.approx(0.5 * math.log(n), abs=1e-9)
    assert len(calls) == 6
    thick = from_terms(grid, verts, [0, 2**n], [1.0], 0.25)
    want = math.log((math.sqrt(n) + 0.25) / 1.25)
    assert bm_distance(ball(grid), thick, refine=True) == pytest.approx(want, abs=1e-9)
    assert len(calls) == 9


@pytest.mark.parametrize("n", [2, 3])
def test_bm_refuses_polytopes_without_interior_origin(n, grid2, grid3):
    grid = {2: grid2, 3: grid3}[n]
    # a segment: every grid support is positive, but the hull is flat
    v = np.array([0.3, 0.5, 0.7][:n])
    segment = from_vertices(grid, np.vstack([v, -v]))
    assert segment.support.min() > 0
    # a simplex with the origin just outside a facet the grid misses
    simplex = np.vstack([np.diag([1.0, 1.3, 0.8][:n]), -np.full(n, 0.4)])
    normal = np.linalg.solve(simplex[:n], np.ones(n))  # the facet <normal, x> = 1
    dist = 1.0 / np.linalg.norm(normal)
    shifted = from_vertices(grid, simplex - (dist + 1e-9) * dist * normal)
    assert shifted.support.min() > 0
    for body in (segment, shifted):
        for a, b in ((body, ball(grid)), (ball(grid), body), (body, _cube(grid))):
            with pytest.raises(OriginNotInterior):
                bm_distance(a, b, refine=True)


def test_distance_to_ball(grid3):
    assert distance_to_ball(ball(grid3, 2.5)) == pytest.approx(0.0, abs=1e-12)
    r = 1.0 + 0.1 * (grid3.nodes[:, 2] ** 2 - 1.0 / 3.0)
    assert distance_to_ball(from_radial(grid3, r)) > 1e-3


def test_gradient_polish_matches_nelder_mead(grid3):
    # one Newton iteration over four bodies and derivative-free
    # Nelder-Mead from each start reach the same extremes of 1 + eps*phi
    from convexsphere.fields import radial_body, sample_unit_F

    eps = 0.0195
    bodies = [radial_body(grid3, phi, eps) for phi in sample_unit_F(3, 8, 4, seed=1, grid=grid3)]
    rmax, rmin = _polish_profiles(bodies)
    for body, hi, lo in zip(bodies, rmax, rmin):
        phi = body.radial_profile[1]

        def rfun(pts):
            return 1.0 + eps * phi.eval(pts)

        r = body.radial
        order = np.argsort(r)
        slow_hi = max(_polish_extreme(rfun, grid3.nodes[i], True) for i in order[-3:])
        slow_lo = min(_polish_extreme(rfun, grid3.nodes[i], False) for i in order[:3])
        assert hi == pytest.approx(slow_hi, rel=1e-9)
        assert lo == pytest.approx(slow_lo, rel=1e-9)
        # both improve on the grid value
        assert hi >= r.max() and slow_hi >= r.max()
        assert lo <= r.min() and slow_lo <= r.min()


def test_newton_polish_leaves_indefinite_starts_uphill(grid3):
    # near the saddle of x^2 - y^2 at e_z the tangent Hessian diag(2, -2)
    # is indefinite; the regularised step still climbs, to the maximum 1
    # at +-e_x, and the descent from there reaches the minimum -1
    phi = project(grid3, grid3.nodes[:, 0] ** 2 - grid3.nodes[:, 1] ** 2, 2)
    u0 = np.array([[0.05, 0.02, 1.0]])
    u0 /= np.linalg.norm(u0)
    frame = _tangent_frames(u0)[0]
    exps, coef = stacked_monomial_form([phi])
    _, grad, hess = monomial_jet(exps, coef, u0)
    lam = np.linalg.eigvalsh(frame.T @ hess[0] @ frame - float(u0[0] @ grad[0]) * np.eye(2))
    assert lam[0] < 0 < lam[1]
    start = float(phi.eval(u0)[0])
    top = _newton_ascent(exps, coef, u0)[0]
    bottom = -_newton_ascent(exps, -coef, u0)[0]
    assert top >= start and bottom <= start
    assert top == pytest.approx(1.0, abs=1e-12)
    assert bottom == pytest.approx(-1.0, abs=1e-12)

    # from random starts on degree-8 profiles, many of them indefinite,
    # a full Newton step can overshoot; the kept steps never end lower
    from convexsphere.fields import sample_unit_F

    exps, coef = stacked_monomial_form(sample_unit_F(3, 8, 8, seed=4, grid=grid3))
    u = np.random.default_rng(0).normal(size=(400, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    signed = np.repeat(coef, 50, axis=0) * np.tile([1.0, -1.0], 200)[:, None]
    assert np.all(_newton_ascent(exps, signed, u) >= monomial_jet(exps, signed, u)[0])


def test_distances_to_ball_refuse_mixed_profiles(grid3):
    from convexsphere.fields import radial_body, sample_unit_F

    mixed = [radial_body(grid3, sample_unit_F(3, d, 1, seed=1, grid=grid3)[0], 0.01)
             for d in (6, 8)]
    assert distances_to_ball(mixed[:1]) == [distance_to_ball(mixed[0])]
    with pytest.raises(InputError):
        distances_to_ball(mixed)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certify_accepts_smooth_convex_bodies(n):
    grid = build_grid(n)
    assert certify_convex_radial(ball(grid, 0.7))
    axes = np.array([1.0, 1.15, 0.9, 1.05][:n])
    r = 1.0 / np.sqrt(((grid.nodes / axes) ** 2).sum(axis=1))
    assert certify_convex_radial(from_radial(grid, r))


def test_certify_is_conservative_on_polytope_radials(grid3):
    # flat facets have a single supporting normal; when it falls between
    # grid nodes the certificate cannot vouch for the facet points and
    # declines, which is the safe direction for a certificate
    cube_radial = 1.0 / np.abs(grid3.nodes).max(axis=1)
    assert not certify_convex_radial(from_radial(grid3, cube_radial))


def test_certify_rejects_deep_dimple(grid2, grid3):
    th = grid2.angles
    assert not certify_convex_radial(from_radial(grid2, 1.0 + 0.45 * np.cos(3 * th)))
    r = 1.0 - 0.6 * np.exp(-8.0 * (1.0 - grid3.nodes[:, 2]))
    assert not certify_convex_radial(from_radial(grid3, r))


def test_certify_rejects_nonpositive_radial(grid3):
    r = np.ones(grid3.size)
    r[0] = -0.2
    assert not certify_convex_radial(ConvexBody(grid=grid3, sampled_radial=r))


def test_from_radial_refuses_non_finite_samples(grid3):
    # a NaN passed the positivity check and made distance_to_ball nan
    r = np.ones(grid3.size)
    r[7] = np.nan
    with pytest.raises(InputError, match="radial sample nan is not finite"):
        from_radial(grid3, r)


def test_from_support_samples_refuses_non_finite_samples(grid3):
    # an inf made hausdorff(body, ball) inf
    h = np.ones(grid3.size)
    h[3] = np.inf
    with pytest.raises(InputError, match="support sample inf is not finite"):
        from_support_samples(grid3, h)


def test_radial_of_ball_is_exact(grid3):
    r = radial_from_support(ball(grid3, 1.3))
    assert np.abs(r - 1.3).max() < 1e-12


def test_radial_of_cube_is_outer_estimate(grid3):
    # radial_from_support evaluates the outer body cut by the sampled
    # support planes: never below the true radial, and within one grid
    # gap of it even for flat facets
    body = _cube(grid3)
    r = radial_from_support(body)
    want = 1.0 / np.abs(grid3.nodes).max(axis=1)
    err = r - want
    assert err.min() > -1e-12
    assert err.max() < grid3.max_gap


def test_pm_average_of_shifted_ball_is_ball(grid3):
    from convexsphere.fields import thicken

    # exact evaluator for the unit ball translated by 0.3 e1
    body = thicken(from_vertices(grid3, np.array([[0.3, 0.0, 0.0]])), 1.0)
    assert np.abs(body.support - (1.0 + 0.3 * grid3.nodes[:, 0])).max() < 1e-14
    avg = group_average(body, sample_group("pm", 3))
    assert np.abs(avg.support - 1.0).max() < 1e-14
    assert invariance_defect(avg, sample_group("pm", 3)) < 1e-14


def test_group_average_keeps_exact_evaluators(grid3):
    from convexsphere.groups import cyclic_rotation_group

    body = _cube(grid3)
    g = cyclic_rotation_group(3, axes=(0, 1), order=4)
    avg = group_average(body, g)
    # the 4-fold average of the cube is again an exact body; its defect
    # under the very group it was averaged over collapses to round-off
    assert avg.terms is not None
    assert invariance_defect(avg, g) < 1e-12


def test_support_eval_reads_the_terms(grid3):
    # the stacked terms are the body's one exact description: a body built
    # or replaced around them evaluates them
    cube = _cube(grid3)
    rows, offsets, weights = cube.terms
    dirs = grid3.nodes[:7] @ np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
    bare = ConvexBody(grid=grid3, terms=cube.terms)
    assert np.array_equal(bare.support_eval(dirs), cube.support_eval(dirs))
    doubled = dataclasses.replace(cube, terms=(rows, offsets, 2.0 * weights))
    assert np.array_equal(doubled.support_eval(dirs), 2.0 * cube.support_eval(dirs))


def test_replaced_terms_move_the_samples(grid3):
    # the grid samples are derived from the terms, so a replaced
    # description carries its own support to every grid-based measure
    cube = _cube(grid3)
    rows, offsets, weights = cube.terms
    doubled = dataclasses.replace(cube, terms=(rows, offsets, 2.0 * weights))
    assert np.array_equal(doubled.support, 2.0 * cube.support)
    assert hausdorff(doubled, scaled_body(cube, 2.0)) <= 1e-14
    assert bm_distance(doubled, cube, refine=True) <= 1e-12


def test_replaced_ball_radius_moves_both_samples(grid3):
    big = dataclasses.replace(ball(grid3, 1.0), ball_radius=2.0)
    assert np.abs(big.support / 2.0 - 1.0).max() <= 1e-15
    assert np.abs(big.radial / 2.0 - 1.0).max() <= 1e-15


def test_body_is_frozen_with_one_description(grid3):
    cube = _cube(grid3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cube.terms = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        cube.ball_radius = 1.0
    with pytest.raises(InputError):
        ConvexBody(grid=grid3)
    with pytest.raises(InputError):
        ConvexBody(grid=grid3, terms=cube.terms, sampled_support=cube.support)


@pytest.mark.parametrize("make", [
    lambda g: from_vertices(g, np.vstack([np.eye(3), -np.eye(3)])),
    lambda g: from_support_samples(g, np.ones(g.size)),
    lambda g: cyclic_rotation_group(3, (0, 1), 5),
    lambda g: cube_family(4),
    lambda g: FourierSupport(1.0, np.zeros(3), np.zeros(3)),
    lambda g: BodyField(np.eye(3)[None], [ball(g)]),
], ids=["vertex_body", "sample_body", "group", "section_family", "fourier", "body_field"])
def test_value_types_with_arrays_compare_by_identity(grid3, make):
    # equal descriptions with array fields are distinct values, never a
    # comparison of arrays
    a, b = make(grid3), make(grid3)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def _support_sample_bodies(grid):
    # the support samples of a random 12-point polytope and of the cube
    polytope = random_polytope(grid, 12, np.random.default_rng(0))
    return [from_support_samples(grid, b.support) for b in (polytope, _cube(grid))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_support_samples_evaluate_their_outer_polytope(n):
    # each sampled plane of a convex body touches it, so the outer
    # polytope {x : <x,u_j> <= h_j} has the samples as its support at the
    # nodes: support_eval gives them back, and the identity neither moves
    # nor averages them
    grid = build_grid(n)
    identity = sample_group("user", n, elements=np.eye(n)[None])
    for body in _support_sample_bodies(grid):
        scale = body.support.max()
        assert np.abs(body.support_eval(grid.nodes) - body.support).max() <= 1e-13 * scale
        assert invariance_defect(body, identity) <= 1e-13 * scale
        assert np.abs(group_average(body, identity).support - body.support).max() <= 1e-13 * scale


@pytest.mark.parametrize("resolution", [16, 64, 512])
def test_planar_radial_body_evaluates_its_cloud_off_the_grid(resolution):
    # a radial body is the hull of its cloud at n = 2 as at n >= 3
    grid = build_grid(2, resolution)
    r = 1.0 + 0.2 * np.cos(2.0 * grid.angles)
    t = np.linspace(0.0, 2.0 * np.pi, 1001)
    dirs = np.column_stack([np.cos(t), np.sin(t)])
    want = ((r[:, None] * grid.nodes) @ dirs.T).max(axis=0)
    assert np.abs(from_radial(grid, r).support_eval(dirs) - want).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_polar_vertices_match_the_brute_force_oracle(n):
    # the oracle solves every n facets' system without a hull and repeats a
    # vertex where more than n facets meet; the library keeps one row each
    from convexsphere.bodies import polar_vertices as hull_polar_vertices

    cloud = np.random.default_rng(n).normal(size=(12, n))
    for points in (_cube(build_grid(n)).terms[0], cloud - cloud.mean(axis=0)):
        got, want = hull_polar_vertices(points), polar_vertices(points)
        dist = np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2)
        assert dist.min(axis=1).max() <= 1e-12 and dist.min(axis=0).max() <= 1e-12
        assert got.shape[0] == np.unique(np.round(want, 9), axis=0).shape[0]


def test_pm_average_of_an_even_radial_body_is_its_support(grid3):
    x, y, z = grid3.nodes.T
    body = from_radial(grid3, 1.0 + 0.3 * z**2 + 0.1 * x * y)
    assert np.array_equal(group_average(body, sample_group("pm", 3)).support, body.support)


def test_certify_refuses_a_planar_body_with_a_nonpositive_radius(grid2):
    # from_radial refuses such samples; a body made around them is not convex
    for low in (0.0, -0.5):
        r = 1.0 + 0.2 * np.cos(2.0 * grid2.angles)
        r[3] = low
        assert certify_convex_radial(ConvexBody(grid=grid2, sampled_radial=r)) is False


def test_support_only_body_builds_its_outer_polytope_once(grid3, monkeypatch):
    # the outer polytope behind support_eval is built once per body, not
    # once per evaluation, and no radial scan stands behind it
    from convexsphere import backend, bodies

    builds, scans = [], []
    build, scan = bodies.polar_vertices, backend.radial_from_support

    def counted_build(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    def counted_scan(*args, **kwargs):
        scans.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(bodies, "polar_vertices", counted_build)
    monkeypatch.setattr(backend, "radial_from_support", counted_scan)
    body = from_support_samples(grid3, _cube(grid3).support)
    invariance_defect(body, sample_group("so", 3, 16, seed=1))
    assert len(builds) == 1
    assert scans == []


def test_c0_l2_constant_positive_and_monotone_inputs():
    for n in (2, 3, 4):
        assert c0_l2_constant(n) > 0.0


def test_check_c0_l2_bound_reports(grid3):
    rng = np.random.default_rng(0)
    a = random_polytope(grid3, 10, rng)
    b = random_polytope(grid3, 10, rng)
    rep = check_c0_l2_bound(grid3, a.support, b.support)
    assert rep["ok"]
    assert rep["c0"] <= rep["bound"] + 1e-12
    assert rep["l2"] > 0.0


def test_random_polytope_is_valid_and_inside_ball(grid3):
    rng = np.random.default_rng(4)
    body = random_polytope(grid3, 11, rng)
    rep = validate_body(body, in_unit_ball=True)
    assert rep["lipschitz_excess"] <= 1e-9
    assert body.support.max() <= 1.0 + 1e-12


def test_validate_body_raises_on_garbage(grid3):
    h = np.ones(grid3.size)
    h[0] = -5.0  # support values incompatible with any convex set
    with pytest.raises(InputError):
        validate_body(from_support_samples(grid3, h), in_unit_ball=True)
    h2 = np.ones(grid3.size)
    h2[3] = np.nan
    with pytest.raises(InputError):
        validate_body(from_support_samples(grid3, h2))


def test_empirical_L2_uniform_no_uniform_degree(grid3):
    # projection degree needed for a fixed L2 accuracy is not uniform in
    # the body: the residual curve is positive at every degree up to the
    # cap for a small eps
    out = empirical_L2_uniform(3, eps=1e-6, trials=5, seed=0, d_cap=8, grid=grid3)
    assert not out["resolved"]
    curve = out["residual_curve"]
    assert all(curve[i] >= curve[i + 1] - 1e-12 for i in range(len(curve) - 1))


def test_empirical_L2_uniform_coarse_eps_resolves(grid3):
    out = empirical_L2_uniform(3, eps=2.0, trials=3, seed=0, d_cap=4, grid=grid3)
    assert out["resolved"]
    assert out["d_star"] == 0


def test_from_vertices_needs_points(grid3):
    with pytest.raises(InputError):
        from_vertices(grid3, np.zeros((0, 3)))


@pytest.mark.parametrize("terms, rho", [
    ((np.empty((0, 3)), [0], []), 0.0),                  # no term
    ((np.eye(3), [0, 3], [math.inf]), 0.0),
    ((np.eye(3), [0, 3], [-0.5]), 0.0),
    ((np.eye(3)[:, :2], [0, 3], [1.0]), 0.0),            # points in R^2
    ((np.ones(3), [0, 3], [1.0]), 0.0),                  # not a list of points
    ((np.full((2, 3), -np.inf), [0, 2], [1.0]), 0.0),
    ((np.eye(3), [0, 3], [1.0]), math.nan),
    ((np.eye(3), [0, 3], [1.0]), -0.1),
    ((np.eye(3), [0, 0, 3], [1.0, 1.0]), 0.0),           # an empty term
    ((np.eye(3), [0, 2], [1.0]), 0.0),                   # offsets stop short of the rows
    ((np.eye(3), [0, 3], [1.0, 1.0]), 0.0),              # two weights, one term
])
def test_from_terms_refuses_invalid_terms(grid3, terms, rho):
    # terms: stacked (rows, offsets, weights)
    with pytest.raises(InputError):
        from_terms(grid3, *terms, rho)


def test_scaled_body_scales_support(grid3):
    body = _cube(grid3)
    assert np.abs(scaled_body(body, 2.0).support - 2.0 * body.support).max() < 1e-14
    samples = from_radial(grid3, body.radial)
    assert np.abs(scaled_body(samples, 2.0).radial - 2.0 * body.radial).max() < 1e-14
    outer = from_support_samples(grid3, body.support)
    assert np.abs(scaled_body(outer, 2.0).support - 2.0 * body.support).max() < 1e-14


def test_scaled_body_refuses_radial_profile(grid3):
    # s (1 + eps phi) has no radial profile; as radial samples it would lose
    # the off-grid polish and distance_to_ball would read low
    from convexsphere.fields import radial_body, sample_unit_F

    phi = sample_unit_F(3, 8, 1, seed=1, grid=grid3)[0]
    with pytest.raises(InputError, match="radial-profile"):
        scaled_body(radial_body(grid3, phi, 0.0195), 2.0)
