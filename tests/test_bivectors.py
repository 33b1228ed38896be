import math

import numpy as np
import pytest

from convexsphere.bivectors import (
    axis_rotation3,
    from_matrix,
    invariant_plane_check,
    is_decomposable,
    lambda2_matrix,
    plane_from_bivector,
    rho_pm,
    rho_preimage,
    rotation_planes,
    split_pm,
    star,
    to_matrix,
    unit_pm,
    w,
    wedge_coeff,
)
from convexsphere.errors import InputError, NotARotation, ZeroBivector
from convexsphere.groups import random_rotations


def _basis_bivector(i, j):
    """Coefficients of e_i ^ e_j in the six-component convention."""
    a = np.zeros((4, 4))
    a[i, j] = 1.0
    a[j, i] = -1.0
    return from_matrix(a)


def _block_rotation(t1, t2):
    c1, s1, c2, s2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
    return np.array(
        [[c1, -s1, 0, 0], [s1, c1, 0, 0], [0, 0, c2, -s2], [0, 0, s2, c2]]
    )


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        sigma = rng.normal(size=6)
        a = to_matrix(sigma)
        assert np.abs(a + a.T).max() < 1e-15
        assert np.abs(from_matrix(a) - sigma).max() < 1e-15


def test_star_is_an_involution():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sigma = rng.normal(size=6)
        assert np.abs(star(star(sigma)) - sigma).max() < 1e-15


def test_wedge_symmetry_and_star_pairing():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.normal(size=(2, 6))
        assert wedge_coeff(a, b) == pytest.approx(wedge_coeff(b, a), rel=1e-12, abs=1e-12)
        # the pairing is <*a, b>
        assert wedge_coeff(a, b) == pytest.approx(float(star(a) @ b), rel=1e-12, abs=1e-12)


def test_w_splits_by_duality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        sigma = rng.normal(size=6)
        p, m = split_pm(sigma)
        assert w(sigma) == pytest.approx(float(p @ p - m @ m), rel=1e-10, abs=1e-12)


def test_decomposable_iff_wedge_vanishes():
    assert is_decomposable(_basis_bivector(0, 1))
    assert is_decomposable(_basis_bivector(2, 3))
    mixed = _basis_bivector(0, 1) + _basis_bivector(2, 3)
    assert not is_decomposable(mixed)


def test_plane_from_bivector_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y = rng.normal(size=(2, 4))
        a = np.outer(x, y) - np.outer(y, x)
        sigma = from_matrix(a)
        if np.linalg.norm(sigma) < 1e-6:
            continue
        frame = plane_from_bivector(sigma)
        assert np.abs(frame @ frame.T - np.eye(2)).max() < 1e-10
        # the frame spans the same plane: its wedge is parallel to sigma
        from convexsphere.bivectors import wedge_like

        back = wedge_like(frame)
        sig_unit = sigma / np.linalg.norm(sigma)
        assert min(
            np.abs(back - sig_unit).max(), np.abs(back + sig_unit).max()
        ) < 1e-10


def test_plane_from_bivector_guards():
    with pytest.raises(ZeroBivector):
        plane_from_bivector(np.zeros(6))
    mixed = _basis_bivector(0, 1) + _basis_bivector(2, 3)
    from convexsphere.errors import NotDecomposable

    with pytest.raises(NotDecomposable):
        plane_from_bivector(mixed)


def test_lambda2_is_a_homomorphism():
    rng = np.random.default_rng(5)
    r1, r2 = random_rotations(4, 2, rng)
    lhs = lambda2_matrix(r1 @ r2)
    rhs = lambda2_matrix(r1) @ lambda2_matrix(r2)
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_rho_pm_lands_in_so3(sign):
    rng = np.random.default_rng(6)
    for r in random_rotations(4, 20, rng):
        rho = rho_pm(r, sign)
        assert np.abs(rho.T @ rho - np.eye(3)).max() < 1e-12
        assert np.linalg.det(rho) == pytest.approx(1.0, abs=1e-12)


def test_rho_pm_rejects_non_rotations():
    with pytest.raises(NotARotation):
        rho_pm(np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(NotARotation):
        rho_pm(np.eye(4) * 1.1)


def test_rho_plus_of_plane_rotation_fixes_one_axis():
    theta = 0.7
    r = _block_rotation(theta, 0.0)
    rp = rho_pm(r, 1)
    # the self-dual direction of the (e1,e2) plane is fixed; the
    # complementary two directions rotate by theta
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.abs(rp @ e1 - e1).max() < 1e-12
    block = rp[1:, 1:]
    want = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    assert min(np.abs(block - want).max(), np.abs(block - want.T).max()) < 1e-12


def test_unit_pm_wedge_signs_spot():
    rng = np.random.default_rng(7)
    for _ in range(20):
        wp = unit_pm(1, rng.normal(size=3))
        wm = unit_pm(-1, rng.normal(size=3))
        assert wedge_coeff(wp, wp) == pytest.approx(1.0, abs=1e-12)
        assert wedge_coeff(wm, wm) == pytest.approx(-1.0, abs=1e-12)
        assert wedge_coeff(wp, wm) == pytest.approx(0.0, abs=1e-12)


def test_rotation_planes_of_block_torus():
    r = _block_rotation(0.4, 1.1)
    planes = rotation_planes(r)
    assert len(planes) == 2
    spans = []
    for frame in planes:
        assert np.abs(frame @ frame.T - np.eye(2)).max() < 1e-10
        spans.append(np.abs(frame).max(axis=0))
    # one plane sits in coordinates (0,1), the other in (2,3)
    flat = sorted(tuple(np.nonzero(s > 1e-8)[0]) for s in spans)
    assert flat == [(0, 1), (2, 3)]


def test_invariant_plane_check_accepts_torus_plane():
    r = _block_rotation(0.5, 1.3)
    out = invariant_plane_check(r, _basis_bivector(0, 1))
    assert out["ok"]
    assert out["fix_defect"] < 1e-10
    for entry in out["planes"]:
        assert max(entry["omega_angles"]) < 1e-8


def test_invariant_plane_check_rejects_moved_bivector():
    r = _block_rotation(0.5, 1.3)
    sigma = _basis_bivector(0, 2)  # straddles the two rotation planes
    with pytest.raises(InputError):
        invariant_plane_check(r, sigma)


def test_axis_rotation3():
    r = axis_rotation3(2, 0.3)
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-15
    e3 = np.array([0.0, 0.0, 1.0])
    assert np.abs(r @ e3 - e3).max() < 1e-15


@pytest.mark.parametrize("sign", [1, -1])
def test_rho_preimage_recovers_targets(sign):
    # random targets plus the angles 0, pi/3 and pi about each axis; pi
    # is where the rotation vector of the target flips sign
    targets = list(random_rotations(3, 200, np.random.default_rng(5)))
    targets += [axis_rotation3(k, a) for k in range(3) for a in (0.0, math.pi / 3, math.pi)]
    for target in targets:
        out = rho_preimage(target, sign)
        assert out["residual"] <= 1e-13
        assert out["converged"]
        r4 = out["rotation"]
        assert np.abs(r4.T @ r4 - np.eye(4)).max() <= 1e-13
        assert abs(np.linalg.det(r4) - 1.0) <= 1e-13
