import numpy as np
import pytest

from convexsphere.errors import InputError
from convexsphere.groups import (
    cyclic_rotation_group,
    random_frames,
    random_rotations,
    sample_group,
)


def _orthogonality_defect(el):
    eye = np.eye(el.shape[1])
    return max(np.abs(g.T @ g - eye).max() for g in el)


def test_random_rotations_are_special_orthogonal():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        el = random_rotations(n, 50, rng)
        assert el.shape == (50, n, n)
        assert _orthogonality_defect(el) < 1e-12
        assert np.allclose(np.linalg.det(el), 1.0, atol=1e-12)


def test_pm_group_is_exact():
    s = sample_group("pm", 3)
    assert s.size == 2
    assert np.array_equal(s.elements[0], np.eye(3))
    assert np.array_equal(s.elements[1], -np.eye(3))
    assert np.array_equal(s.weights, [0.5, 0.5])


def test_torus_elements_preserve_coordinate_blocks():
    s = sample_group("torus", 4, count=64, seed=3)
    assert _orthogonality_defect(s.elements) < 1e-12
    assert np.allclose(np.linalg.det(s.elements), 1.0, atol=1e-12)
    # off-diagonal blocks between the two rotation planes stay zero
    assert np.abs(s.elements[:, 0:2, 2:4]).max() == 0.0
    assert np.abs(s.elements[:, 2:4, 0:2]).max() == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_torus_below_n_4_is_one_block_of_equidistributed_angles(n):
    # one rotation block in the first coordinate plane, the rest fixed,
    # at angles a shifted lattice of step 2 pi / count
    s = sample_group("torus", n, count=12, seed=5)
    el = s.elements
    assert np.array_equal(el[:, 2:, 2:], np.broadcast_to(np.eye(n - 2), (12, n - 2, n - 2)))
    assert not el[:, :2, 2:].any() and not el[:, 2:, :2].any()
    assert np.array_equal(el[:, 0, 0], el[:, 1, 1]) and np.array_equal(el[:, 0, 1], -el[:, 1, 0])
    ang = np.sort(np.arctan2(el[:, 1, 0], el[:, 0, 0]) % (2.0 * np.pi))
    gaps = np.diff(np.append(ang, ang[0] + 2.0 * np.pi))
    assert np.abs(gaps - 2.0 * np.pi / 12).max() < 1e-12


def test_torus_seed_reproducible():
    a = sample_group("torus", 4, count=16, seed=9)
    b = sample_group("torus", 4, count=16, seed=9)
    assert np.array_equal(a.elements, b.elements)


def test_so_sample_reproducible_and_valid():
    a = sample_group("so", 3, count=25, seed=1)
    b = sample_group("so", 3, count=25, seed=1)
    assert np.array_equal(a.elements, b.elements)
    assert _orthogonality_defect(a.elements) < 1e-12


def test_user_group_accepts_reflections():
    refl = np.diag([1.0, -1.0, 1.0])
    s = sample_group("user", 3, elements=[np.eye(3), refl])
    assert s.size == 2
    assert np.allclose(s.weights, [0.5, 0.5])
    assert np.allclose(np.linalg.det(s.elements[1]), -1.0)


def test_user_group_requires_elements():
    with pytest.raises(InputError):
        sample_group("user", 3)


def test_unknown_tag_rejected():
    with pytest.raises(InputError):
        sample_group("dihedral", 3, count=4)


def test_random_tags_require_count():
    with pytest.raises(InputError):
        sample_group("so", 3)


def test_cyclic_group_is_closed():
    s = cyclic_rotation_group(3, axes=(0, 1), order=8)
    assert s.size == 8
    el = s.elements
    for g in el:
        for h in el:
            prod = g @ h
            assert min(np.abs(prod - e).max() for e in el) < 1e-12
    assert np.allclose(s.weights, 1.0 / 8.0)


def test_cyclic_group_first_element_identity():
    s = cyclic_rotation_group(4, axes=(1, 3), order=5)
    assert np.allclose(s.elements[0], np.eye(4), atol=1e-15)
    # generator really rotates the named plane
    g = s.elements[1]
    fixed = [i for i in range(4) if i not in (1, 3)]
    for i in fixed:
        e = np.zeros(4)
        e[i] = 1.0
        assert np.allclose(g @ e, e, atol=1e-15)


def test_user_sample_is_a_copy_of_its_elements():
    # a sample keeps its own read-only copy, so editing the caller's array
    # after construction cannot undo the orthogonality check
    el = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0])])
    s = sample_group("user", 3, elements=el)
    el[1] = 5.0
    assert np.array_equal(s.elements[1], np.diag([1.0, -1.0, 1.0]))
    assert s.n == 3 and not s.elements.flags.writeable and not s.weights.flags.writeable
    with pytest.raises(InputError):
        sample_group("user", 3, elements=np.stack([np.eye(2)]))
    with pytest.raises(InputError):
        sample_group("user", 3, elements=np.empty((0, 3, 3)))


def _loop_frames(n, big_n, count, rng):
    out = np.empty((count, n, big_n))
    for i in range(count):
        q, r = np.linalg.qr(rng.normal(size=(big_n, n)))
        out[i] = (q * np.sign(np.diag(r))[None, :]).T
    return out


@pytest.mark.parametrize("n, big_n, count", [(3, 3, 40), (3, 5, 21), (2, 6, 30), (4, 4, 7), (3, 5, 0)])
def test_random_frames_match_a_loop_of_qr(n, big_n, count):
    # the stacked QR draws and factors what one QR per frame would, bit for bit
    for seed in range(3):
        got = random_frames(n, big_n, count, np.random.default_rng(seed))
        want = _loop_frames(n, big_n, count, np.random.default_rng(seed))
        assert got.shape == (count, n, big_n) and got.tobytes() == want.tobytes()
