import dataclasses
import itertools
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
    ambient_quad_field,
    find_epsilon,
    frame_align,
    octahedron,
    pair_hull,
    psi_product,
    quad_pair_field,
    radial_body,
    rotate_body,
    sample_unit_F,
    separation_delta,
    thicken,
)
from convexsphere.groups import random_frames, random_rotations
from convexsphere.polynomials import project
from convexsphere.sphere import build_grid, integrate
from oracles import dense_bisection, dense_hull_depth


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


def test_quadform_is_its_matrix():
    m = np.diag([2.0, 1.0, -3.0])
    q = QuadForm3(m)
    m[0, 0] = 5.0
    assert q.matrix[0, 0] == 2.0 and (q.lam, q.mu, q.nu) == (2.0, 1.0, -3.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.matrix = np.diag([1.0, 1.0, -2.0])
    assert not q.matrix.flags.writeable and not q.evecs.flags.writeable


def test_paired_octahedra_keep_a_long_vertex():
    # max(t, 1-t) >= 1/2 and nu^2 >= F0^2/3 bound the longest vertex of
    # pair_hull below by F0^2/24
    rng = np.random.default_rng(3)
    for t in rng.uniform(size=200):
        qa, qb = QuadForm3.random_unit(rng), QuadForm3.random_unit(rng)
        verts = np.vstack([fields._octahedron_vertices(qa.scaled(t)),
                           fields._octahedron_vertices(qb.scaled(1.0 - t))])
        assert np.linalg.norm(verts, axis=1).max() >= QUADFORM_UNIT_FROBENIUS**2 / 24


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


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_radial_body_refuses_non_finite_eps(grid3, eps):
    # each gave NaN radii
    phi = sample_unit_F(3, 8, 1, seed=0, grid=grid3)[0]
    with pytest.raises(InputError, match=f"finite and nonnegative, got {eps}"):
        radial_body(grid3, phi, eps)


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


def test_sampling_and_bisection_refuse_bad_counts(grid3):
    with pytest.raises(InputError, match="got -1"):
        sample_unit_F(3, 8, -1, seed=0, grid=grid3)
    assert sample_unit_F(3, 8, 0, seed=0, grid=grid3) == []
    with pytest.raises(InputError, match="sample_count >= 1, got 0"):
        find_epsilon(3, sample_count=0, grid=grid3)
    with pytest.raises(InputError, match="steps >= 0, got -2"):
        find_epsilon(3, sample_count=2, grid=grid3, steps=-2)


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


def _even_values(phis, grid):
    """The samples' values made exactly even, as find_epsilon makes them."""
    vals = np.stack([p.samples for p in phis])
    return 0.5 * (vals + vals[:, grid.antipode])


def _recording_scans(monkeypatch):
    """Make find_epsilon's scans append (grid, radii) to the returned list."""
    seen = []
    scan = fields.hull_depth

    def recording(grid, r, floor):
        seen.append((grid, r.copy()))
        return scan(grid, r, floor)

    monkeypatch.setattr(fields, "hull_depth", recording)
    return seen


def test_find_epsilon_decisions_match_dense_scan(monkeypatch, grid3):
    # find_epsilon skips the scans its bound proves; an oracle bisection
    # that scans every sample of every round on the full matrix takes the
    # same decisions, and passes every sample find_epsilon skipped
    phis = sample_unit_F(3, 8, 16, 1, grid3)
    seen = _recording_scans(monkeypatch)
    out = find_epsilon(3, 16, grid=grid3, steps=10, refined_check=False, phis=phis)
    want = dense_bisection(grid3, _even_values(phis, grid3), 10, DEPTH_TOL)
    assert out["history"] == want["history"]
    assert out["limiting_sample"] == want["limiting_sample"]
    assert out["eps_star"] == want["eps_star"]
    # without skips a round scans up to its first failure; find_epsilon
    # scans a subsequence of those radii, and leaves out passes only
    needed = []
    for _, scans in want["rounds"]:
        fail = next((i for i, (_, _, ok) in enumerate(scans) if not ok), len(scans) - 1)
        needed += [(r.tobytes(), ok) for _, r, ok in scans[:fail + 1]]
    scanned = iter(r.tobytes() for _, r in seen)
    nxt, skipped = next(scanned, None), 0
    for r, ok in needed:
        if r == nxt:
            nxt = next(scanned, None)
        else:
            assert ok
            skipped += 1
    assert nxt is None
    assert skipped > 0


@pytest.mark.parametrize("n,count,seed,resolution,refined,steps,limiting,rate,eps_star,scans", [
    (3, 44, 1, None, True, "-----+-+--+++--+++", 35, 43 / 44, 0.02272744760317481, 226),
    (3, 44, 2, None, True, "-----+--++--++++++", 34, 1.0, 0.02127167673348417, 211),
    (3, 44, 1, 32, False, "-----+-+-++-++++--", 36, None, 0.02245342729842151, 251),
    (4, 16, 1, None, False, "----++-++++-++---+", 9, None, 0.06383785037996156, 109),
], ids=["n3_G512_seed1", "n3_G512_seed2", "n3_G2048_seed1", "n4_G2000_seed1"])
def test_find_epsilon_keeps_its_decisions(monkeypatch, n, count, seed, resolution, refined, steps,
                                          limiting, rate, eps_star, scans):
    # a speedup keeps every pass/fail decision of the bisection; the
    # values may move by round-off in the samples, which moves the
    # positivity cap and so every midpoint by an ulp. The hull scans,
    # refined check included, are counted: without the skips of
    # _depth_bound they were 494, 530, 445 and 163
    grid = build_grid(n) if resolution is None else build_grid(n, resolution)
    seen = _recording_scans(monkeypatch)
    out = find_epsilon(n, count, seed, grid=grid, refined_check=refined)
    assert "".join("+" if ok else "-" for _, ok in out["history"]) == steps
    assert out["limiting_sample"] == limiting
    assert out.get("refined_pass_rate") == rate
    assert out["eps_star"] == pytest.approx(eps_star, rel=1e-14, abs=0.0)
    assert len(seen) == scans


def test_find_epsilon_certifies_exactly_even_radii(monkeypatch, grid3):
    # bisection and refined check both hand their scans radii that are
    # even to the last bit, so that hull_depth scans one antipodal half
    seen = _recording_scans(monkeypatch)
    find_epsilon(3, 4, seed=3, grid=grid3, steps=6)
    assert {g.size for g, _ in seen} == {grid3.size, grid3.refined().size}
    assert all(np.array_equal(r, r[g.antipode]) for g, r in seen)


@pytest.mark.parametrize("n,resolution", [(3, None), (3, 32), (4, None)],
                         ids=["n3_G512", "n3_G2048", "n4_G2000"])
def test_depth_bound_never_exceeds_the_dense_depth(n, resolution):
    # the bound that lets find_epsilon skip a scan, taken from the depth a
    # scan at eps_a returned, stays below the dense depth at eps, for eps
    # below and above eps_a; at eps = eps_a with no floor it is that
    # depth. A scan that fails at a finite floor returns its exact depth
    grid = build_grid(n) if resolution is None else build_grid(n, resolution)
    vals = list(_even_values(sample_unit_F(n, 8, 4, seed=5, grid=grid), grid))
    # a dimple (v = -1) beside a spike (v = 1): as eps rises the depth
    # falls at nearly the bound's slope max|v| + max v = 2
    cos = grid.nodes @ grid.nodes[0]
    cos[0] = -1.0
    spike = np.zeros(grid.size)
    spike[[0, int(np.argmax(cos))]] = 1.0, -1.0
    vals.append(spike)
    failed, sharpest = 0, math.inf
    for v in vals:
        for eps_a in (0.01, 0.02, 0.04):
            r_a = 1.0 + eps_a * v
            dense_a = dense_hull_depth(grid, r_a)
            floors = (math.inf, -DEPTH_TOL * r_a.max(), 0.5 * dense_a)
            depths = [hull_depth(grid, r_a, floor) for floor in floors]
            for floor, depth in zip(floors[1:], depths[1:]):
                if dense_a < floor:
                    assert depth == dense_a
                    failed += 1
            for delta in (-5e-3, -1e-3, -1e-5, 0.0, 1e-5, 1e-3, 5e-3):
                r = 1.0 + (eps_a + delta) * v
                dense = dense_hull_depth(grid, r)
                bounds = [fields._depth_bound(eps_a, depth, v.min(), v.max(), eps_a + delta)
                          for depth in depths]
                assert max(bounds) <= dense + 1e-14 * r.max()
                if delta == 0.0:
                    assert bounds[0] == dense
                elif delta > 0:
                    sharpest = min(sharpest, (dense - bounds[0]) / delta)
    assert failed > 0
    # so a bound that dropped either term would exceed the dense depth
    assert sharpest < 0.1


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
    # the one-body field over the identity frame
    fld = BodyField(np.eye(3)[None], [ball(grid3, 2.0)])
    assert len(fld.bodies) == 1 and fld.grid == grid3
    assert fld.continuity_report() == {"max_d_h": 0.0, "pairs": []}
    with pytest.raises(InputError, match="at least one frame"):
        BodyField(np.empty((0, 3, 3)), [])
    with pytest.raises(InputError, match="one body per frame"):
        BodyField(np.eye(3)[None], [ball(grid3), ball(grid3)])
    with pytest.raises(InputError, match="different grids"):
        BodyField(np.stack([np.eye(3)] * 2), [ball(grid3), ball(grid3.refined())])
    with pytest.raises(InputError, match="not k >= 1 3-frames"):
        BodyField(np.eye(4)[None], [ball(grid3)])


def _traceless(m):
    m = 0.5 * (m + m.T)
    return m - np.trace(m) / m.shape[0] * np.eye(m.shape[0])


def test_build_field_quad_pair_descriptor(grid3):
    # 3-frames in R^5 with 5x5 forms
    rng = np.random.default_rng(4)
    qa, qb = _traceless(rng.normal(size=(5, 5))), _traceless(rng.normal(size=(5, 5)))
    frames = random_frames(3, 5, 5, np.random.default_rng(1))
    fld = quad_pair_field(grid3, frames, qa, qb, t=0.4, rho=0.05)
    assert fld.frames.shape == (5, 3, 5) and np.array_equal(fld.frames, frames)
    assert len(fld.bodies) == 5 and all(b.ball_radius == 0.05 for b in fld.bodies)
    rep = fld.continuity_report()
    assert np.isfinite(rep["max_d_h"])
    assert [(p["i"], p["j"]) for p in rep["pairs"]] == [(i, i + 1) for i in range(4)]
    assert all(np.isfinite(p["d_h"]) for p in rep["pairs"])
    # a form that is not N x N for the frames' N, and a misspelled input
    with pytest.raises(InputError, match=r"ambient matrix shape \(3, 3\)"):
        quad_pair_field(grid3, frames, qa[:3, :3], qb)
    with pytest.raises(TypeError):
        quad_pair_field(grid3, frames, qa, qb, ambient_n=5)


def test_build_field_reports_only_constant_frames(grid3):
    frames = random_frames(3, 4, 3, np.random.default_rng(0))
    # a bad degree is the section's own error, not a list of frames
    with pytest.raises(InputError, match=r"degree d=40 outside 0\.\.12"):
        ambient_quad_field(grid3, frames, np.diag([1.0, 2.0, 3.0, -6.0]), degree=40)
    # the identity restricts to a constant on every frame
    with pytest.raises(InputError, match=r"section data invalid on frames \[0, 1, 2\]"):
        ambient_quad_field(grid3, frames, np.eye(4))


def test_rotate_body_rotates_support(grid3):
    from convexsphere.bodies import from_vertices

    rng = np.random.default_rng(5)
    verts = rng.normal(size=(6, 3))
    r = random_rotations(3, 1, rng)[0]
    a = rotate_body(from_vertices(grid3, verts), r)
    b = from_vertices(grid3, verts @ r.T)
    assert np.abs(a.support - b.support).max() < 1e-12


def _azimuth_step(grid3):
    """The rotation by one azimuth step of the grid about the z axis, and
    the permutation p of the nodes with nodes @ rot == nodes[p] up to
    round-off: the support samples of the rotated body are support[p]."""
    step = np.pi / grid3.resolution
    c, s = np.cos(step), np.sin(step)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    moved = grid3.nodes @ rot
    perm = np.argmax(moved @ grid3.nodes.T, axis=1)
    assert np.abs(grid3.nodes[perm] - moved).max() < 1e-12
    assert np.unique(perm).size == grid3.size
    return rot, perm


def test_rotate_body_of_support_samples_permutes_them(grid3):
    from convexsphere.bodies import from_support_samples, from_vertices, random_polytope

    rot, perm = _azimuth_step(grid3)
    polytope = random_polytope(grid3, 12, np.random.default_rng(0))
    cube = from_vertices(grid3, np.array(list(itertools.product((-1.0, 1.0), repeat=3))))
    for h in (polytope.support, cube.support):
        rotated = rotate_body(from_support_samples(grid3, h), rot)
        assert np.abs(rotated.support - h[perm]).max() <= 1e-13 * h.max()


def test_rotate_body_of_radial_samples_permutes_their_support(grid3):
    from convexsphere.bodies import from_radial

    rot, perm = _azimuth_step(grid3)
    x, y, z = grid3.nodes.T
    r = 1.0 + 0.3 * x**2 + 0.2 * y * z + 0.1 * x
    body = from_radial(grid3, r)
    assert np.abs(rotate_body(body, rot).support - body.support[perm]).max() <= 1e-13 * r.max()


def test_thicken_adds_its_radius_to_the_support_of_radial_samples(grid3):
    from convexsphere.bodies import from_radial

    body = from_radial(grid3, 1.0 + 0.2 * grid3.nodes[:, 0] ** 2)
    thick = thicken(body, 0.25)
    assert thick.sampled_support is not None
    assert np.array_equal(thick.support, body.support + 0.25)


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
