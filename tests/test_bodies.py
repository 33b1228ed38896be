import math

import numpy as np
import pytest

from convexsphere.bodies import (
    _polish_extreme,
    ball,
    bm_distance,
    c0_l2_constant,
    certify_convex_radial,
    check_c0_l2_bound,
    distance_to_ball,
    empirical_L2_uniform,
    from_radial,
    from_support_samples,
    from_vertices,
    group_average,
    hausdorff,
    invariance_defect,
    radial_from_support,
    random_polytope,
    scaled_body,
    validate_body,
)
from convexsphere.errors import GridMismatch, InputError
from convexsphere.groups import sample_group
from convexsphere.sphere import build_grid


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
    assert d == pytest.approx(0.5 * math.log(n), abs=1e-9)


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


def test_distance_to_ball(grid3):
    assert distance_to_ball(ball(grid3, 2.5)) == pytest.approx(0.0, abs=1e-12)
    r = 1.0 + 0.1 * (grid3.nodes[:, 2] ** 2 - 1.0 / 3.0)
    assert distance_to_ball(from_radial(grid3, r)) > 1e-3


def test_gradient_polish_matches_nelder_mead(grid3):
    # BFGS on the exact chart gradient and derivative-free Nelder-Mead
    # reach the same extremes of 1 + eps*phi from the same grid nodes
    from convexsphere.fields import sample_unit_F

    eps = 0.0195
    for phi in sample_unit_F(3, 8, 4, seed=1, grid=grid3):
        def rfun(pts):
            return 1.0 + eps * phi.eval(pts)

        def rgrad(pts):
            return eps * phi.grad(pts)

        order = np.argsort(phi.samples)
        for i, maximize in ((order[-1], True), (order[0], False)):
            u0 = grid3.nodes[i]
            fast = _polish_extreme(rfun, u0, maximize, grad=rgrad)
            slow = _polish_extreme(rfun, u0, maximize)
            assert fast == pytest.approx(slow, rel=1e-9)
            # both improve on the grid value
            start = float(rfun(u0[None, :])[0])
            assert (fast >= start) if maximize else (fast <= start)


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
    body = from_support_samples(grid3, np.ones(grid3.size))
    body.radial = np.ones(grid3.size)
    body.radial[0] = -0.2
    assert not certify_convex_radial(body)


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
    assert avg._exact_terms() is not None
    assert invariance_defect(avg, g) < 1e-12


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


def test_scaled_body_scales_support(grid3):
    body = _cube(grid3)
    assert np.abs(scaled_body(body, 2.0).support - 2.0 * body.support).max() < 1e-14
