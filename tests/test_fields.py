import dataclasses
import math

import numpy as np
import pytest

from convexsphere import fields
from convexsphere.bodies import ball, distance_to_ball, distances_to_ball, hausdorff, hull_depth
from convexsphere.errors import InputError, NonpositiveRadius
from convexsphere.fields import (
    DEPTH_TOL,
    QUADFORM_UNIT_FROBENIUS,
    BodyField,
    QuadForm3,
    build_field,
    find_epsilon,
    frame_align,
    octahedron,
    pair_hull,
    psi_product,
    radial_body,
    rotate_body,
    sample_unit_F,
    separation_delta,
    thicken,
)
from convexsphere.groups import random_frames, random_rotations
from convexsphere.polynomials import project, to_F_space
from convexsphere.sphere import integrate
from oracles import dense_hull_depth


def test_quadform_eigen_order_and_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m = rng.normal(size=(3, 3))
        m = m + m.T
        m -= np.trace(m) / 3.0 * np.eye(3)
        q = QuadForm3.from_matrix(m)
        assert q.lam >= q.mu
        assert q.lam + q.mu + q.nu == pytest.approx(0.0, abs=1e-12)
        rebuilt = q.evecs @ np.diag([q.lam, q.mu, q.nu]) @ q.evecs.T
        assert np.abs(rebuilt - m).max() < 1e-12


def test_quadform_l2_norm_matches_quadrature(grid3):
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 3))
    m = m + m.T
    m -= np.trace(m) / 3.0 * np.eye(3)
    q = QuadForm3.from_matrix(m)
    vals = np.einsum("gi,ij,gj->g", grid3.nodes, m, grid3.nodes)
    want = math.sqrt(integrate(grid3, vals**2))
    assert q.l2_norm == pytest.approx(want, rel=1e-12)
    # the frozen normalizing constant: a unit-Frobenius traceless form
    # has L2 norm sqrt(8 pi / 15)
    assert QUADFORM_UNIT_FROBENIUS == pytest.approx(
        math.sqrt(15.0 / (8.0 * math.pi)), rel=1e-15
    )


def test_octahedron_contract_examples(grid3):
    from convexsphere.bodies import from_vertices

    # diag(2,1,-3): segments of lengths 1, 1, 9 along the axes
    body = octahedron(grid3, QuadForm3.from_matrix(np.diag([2.0, 1.0, -3.0])))
    want = from_vertices(
        grid3,
        np.array(
            [
                [0.5, 0, 0],
                [-0.5, 0, 0],
                [0, 0.5, 0],
                [0, -0.5, 0],
                [0, 0, 4.5],
                [0, 0, -4.5],
            ]
        ),
    )
    assert np.abs(body.support - want.support).max() < 1e-12

    # diag(1,1,-2): a single segment of length 4 on the third axis
    body = octahedron(grid3, QuadForm3.from_matrix(np.diag([1.0, 1.0, -2.0])))
    want = from_vertices(grid3, np.array([[0, 0, 2.0], [0, 0, -2.0]]))
    assert np.abs(body.support - want.support).max() < 1e-12

    # zero form: the origin
    body = octahedron(grid3, QuadForm3.from_matrix(np.zeros((3, 3))))
    assert np.abs(body.support).max() < 1e-15


def test_octahedron_equivariance_spot(grid3):
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.normal(size=(3, 3))
        m = m + m.T
        m -= np.trace(m) / 3.0 * np.eye(3)
        r = random_rotations(3, 1, rng)[0]
        a = octahedron(grid3, QuadForm3.from_matrix(r @ m @ r.T))
        b = rotate_body(octahedron(grid3, QuadForm3.from_matrix(m)), r)
        assert np.abs(a.support - b.support).max() < 1e-10


def test_octahedron_continuous_at_eigenvalue_crossing(grid3):
    # lam == mu collapses the two equal segments; approach from both
    # sides stays close to the limit
    limit = octahedron(grid3, QuadForm3.from_matrix(np.diag([1.0, 1.0, -2.0])))
    for s in (1e-6, -1e-6):
        m = np.diag([1.0 + s, 1.0 - s, -2.0])
        near = octahedron(grid3, QuadForm3.from_matrix(m))
        assert hausdorff(near, limit) < 1e-4


def test_pair_hull_special_cases(grid3):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3))
    m = m + m.T
    m -= np.trace(m) / 3.0 * np.eye(3)
    qa = QuadForm3.from_matrix(m).normalized()
    m2 = rng.normal(size=(3, 3))
    m2 = m2 + m2.T
    m2 -= np.trace(m2) / 3.0 * np.eye(3)
    qb = QuadForm3.from_matrix(m2).normalized()

    # t = 1 keeps only the first octahedron
    a = pair_hull(grid3, 1.0, qa, qb)
    assert np.abs(a.support - octahedron(grid3, qa).support).max() < 1e-12
    # equal forms at t = 1/2 give the half-scaled octahedron
    c = pair_hull(grid3, 0.5, qa, qa)
    assert np.abs(c.support - octahedron(grid3, qa.scaled(0.5)).support).max() < 1e-12
    # generic t: support dominates both scaled pieces
    d = pair_hull(grid3, 0.3, qa, qb)
    assert np.all(
        d.support >= octahedron(grid3, qa.scaled(0.3)).support - 1e-12
    )
    assert np.all(
        d.support >= octahedron(grid3, qb.scaled(0.7)).support - 1e-12
    )


def test_pair_hull_requires_unit_forms(grid3):
    m = np.diag([2.0, 1.0, -3.0])
    q = QuadForm3.from_matrix(m)
    with pytest.raises(InputError):
        pair_hull(grid3, 0.5, q, q)


def test_thicken_adds_ball(grid3):
    body = thicken(ball(grid3, 1.0), 0.25)
    assert np.abs(body.support - 1.25).max() < 1e-14
    with pytest.raises(InputError):
        thicken(ball(grid3), -0.1)


def test_psi_product_symmetry_and_F_membership(grid3):
    fp, fm = sample_unit_F(3, 4, 2, seed=5, grid=grid3)
    a = psi_product(fp, fm)
    b = psi_product(fm, fp)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.norm == pytest.approx(1.0, abs=1e-10)
    assert abs(a.mean) < 1e-10
    assert a.odd_part_norm() < 1e-10


def test_radial_body_guards(grid3):
    phi = sample_unit_F(3, 8, 1, seed=0, grid=grid3)[0]
    cap = 1.0 / np.abs(phi.samples.min())
    body = radial_body(grid3, phi, 0.5 * cap)
    assert body.radial_profile is not None
    assert np.min(body.radial) > 0
    with pytest.raises(NonpositiveRadius):
        radial_body(grid3, phi, 1.5 * cap)
    odd = project(grid3, grid3.nodes[:, 0], 1)
    with pytest.raises(InputError):
        radial_body(grid3, odd, 0.1)


def test_sample_unit_F_properties(grid3):
    polys = sample_unit_F(3, 8, 12, seed=9, grid=grid3)
    assert len(polys) == 12
    for p in polys:
        assert p.norm == pytest.approx(1.0, abs=1e-10)
        assert abs(p.mean) < 1e-10
        assert p.odd_part_norm() < 1e-10
    again = sample_unit_F(3, 8, 12, seed=9, grid=grid3)
    for p, q in zip(polys, again):
        assert np.array_equal(p.coeffs, q.coeffs)


def test_find_epsilon_smoke(grid3):
    out = find_epsilon(3, sample_count=10, seed=0, steps=8, refined_check=False)
    assert out["eps_star"] > 0
    assert out["eps_star"] <= out["positivity_cap"]
    assert out["bisection_steps"] == 8
    assert out["sample_count"] == 10
    # the recorded (eps, all_certified) history brackets eps_star
    certified = [eps for eps, ok in out["history"] if ok]
    failed = [eps for eps, ok in out["history"] if not ok]
    assert max(certified) == pytest.approx(out["eps_star"])
    if failed:
        assert min(failed) > out["eps_star"]
    # the recorded limiting sample fails at eps_upper
    phi = sample_unit_F(3, 8, 10, 0, grid3)[out["limiting_sample"]]
    r = 1.0 + out["eps_upper"] * phi.samples
    assert hull_depth(grid3, r) < -DEPTH_TOL * r.max()


def test_find_epsilon_decisions_match_dense_scan(monkeypatch):
    pruned = find_epsilon(3, 10, steps=8, refined_check=False)
    monkeypatch.setattr(fields, "hull_depth", dense_hull_depth)
    dense = find_epsilon(3, 10, steps=8, refined_check=False)
    assert pruned["history"] == dense["history"]
    assert pruned["limiting_sample"] == dense["limiting_sample"]


def test_find_epsilon_certifies_exactly_even_radii(monkeypatch, grid3):
    # bisection and refined check both hand hull_depth radii that are
    # even to the last bit, so that it scans one antipodal half
    seen = []

    def recording(grid, r):
        seen.append((grid.size, np.array_equal(r, r[grid.antipode])))
        return hull_depth(grid, r)

    monkeypatch.setattr(fields, "hull_depth", recording)
    find_epsilon(3, 4, seed=3, grid=grid3, steps=6)
    assert {size for size, _ in seen} == {grid3.size, grid3.refined().size}
    assert all(even for _, even in seen)


def test_separation_delta_positive_for_nonballs(grid3):
    phi = sample_unit_F(3, 8, 3, seed=2, grid=grid3)
    bodies = [radial_body(grid3, p, 0.02) for p in phi]
    assert separation_delta(bodies) > 0
    # the batch polish gives each body what a batch of one gives it
    assert separation_delta(bodies) == min(distance_to_ball(b) for b in bodies)
    family = [radial_body(grid3, p, 0.0195) for p in sample_unit_F(3, 8, 100, seed=5, grid=grid3)]
    assert distances_to_ball(family) == [distance_to_ball(b) for b in family]


def test_random_frames_orthonormal():
    rng = np.random.default_rng(0)
    fr = random_frames(3, 5, 20, rng)
    assert fr.shape == (20, 3, 5)
    for w in fr:
        assert np.abs(w @ w.T - np.eye(3)).max() < 1e-12


def test_frame_align_recovers_rotation(grid3):
    rng = np.random.default_rng(1)
    wa = random_frames(3, 5, 1, rng)[0]
    r = random_rotations(3, 1, rng)[0]
    wb = r.T @ wa  # frame rotated inside its own span
    align = frame_align(wa, wb)
    assert np.abs(align @ wb - wa).max() < 1e-10


def test_build_field_constant_descriptor(grid3):
    fld = build_field(grid3, {"type": "constant", "body": ball(grid3, 2.0)})
    assert len(fld.bodies) == 1
    rep = fld.continuity_report()
    assert rep["max_d_h"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InputError):
        build_field(grid3, {"type": "constant", "body": "ball"})


def test_build_field_quad_pair_descriptor(grid3):
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 3))
    m = m + m.T
    m -= np.trace(m) / 3.0 * np.eye(3)
    m /= np.linalg.norm(m)
    desc = {"type": "quad_pair", "qa": m.tolist(), "qb": np.diag([1.0, 0.0, -1.0]) / math.sqrt(2),
            "t": 0.4, "rho": 0.05, "ambient_n": 5}
    fld = build_field(grid3, desc, seed=1, count=5)
    assert len(fld.bodies) == 5
    rep = fld.continuity_report()
    assert np.isfinite(rep["max_d_h"])
    assert all(np.isfinite(p["d_h"]) for p in rep["pairs"])


def test_build_field_rejects_unknown_type(grid3):
    with pytest.raises(InputError):
        build_field(grid3, {"type": "mystery"}, count=2)


def test_rotate_body_rotates_support(grid3):
    from convexsphere.bodies import from_vertices

    rng = np.random.default_rng(5)
    verts = rng.normal(size=(6, 3))
    r = random_rotations(3, 1, rng)[0]
    a = rotate_body(from_vertices(grid3, verts), r)
    b = from_vertices(grid3, verts @ r.T)
    assert np.abs(a.support - b.support).max() < 1e-12


def test_rotated_profile_body_is_the_rotated_profile(grid3):
    # a profile body rotates its profile: radial and support samples are
    # those of the rotated profile's own body, bit for bit
    from convexsphere.polynomials import rotate_poly

    phi = sample_unit_F(3, 8, 1, seed=2, grid=grid3)[0]
    r = random_rotations(3, 1, np.random.default_rng(4))[0]
    got = rotate_body(radial_body(grid3, phi, 0.0195), r)
    want = radial_body(grid3, rotate_poly(phi, r.T), 0.0195)
    assert np.array_equal(got.radial, want.radial)
    assert np.array_equal(got.support, want.support)


def test_replaced_profile_moves_the_radial(grid3):
    eps = 0.01
    phi = sample_unit_F(3, 8, 1, seed=3, grid=grid3)[0]
    body = dataclasses.replace(radial_body(grid3, phi, eps), radial_profile=(2 * eps, phi))
    assert np.array_equal(body.radial, 1.0 + 2 * eps * phi.samples)


def test_distance_to_ball_is_rotation_invariant(grid3):
    # the off-grid polish makes the separation of a profiled body a
    # property of the body, not of where the grid nodes fall on it
    rng = np.random.default_rng(9)
    rots = random_rotations(3, 2, rng)
    for phi in sample_unit_F(3, 8, 3, seed=1, grid=grid3):
        body = radial_body(grid3, phi, 0.0195)
        want = distance_to_ball(body)
        for r in rots:
            assert distance_to_ball(rotate_body(body, r)) == pytest.approx(want, rel=1e-9)


def test_find_epsilon_uses_given_samples(grid3):
    # samples drawn by the caller give the report find_epsilon gives
    # when it draws them itself
    phis = sample_unit_F(3, 8, 6, seed=1, grid=grid3)
    given = find_epsilon(3, 6, seed=1, grid=grid3, steps=8, phis=phis)
    drawn = find_epsilon(3, 6, seed=1, grid=grid3, steps=8)
    assert given == drawn
    with pytest.raises(InputError):
        find_epsilon(3, 5, seed=1, grid=grid3, steps=8, phis=phis)
    with pytest.raises(InputError):
        find_epsilon(3, 6, seed=1, grid=grid3, d=6, steps=8, phis=phis)
