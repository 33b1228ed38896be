import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ellipe

from convexsphere.bodies import from_vertices
from convexsphere.errors import Degenerate, InputError, OriginNotInterior
from convexsphere.fourier2d import (
    fourier_analyze,
    fourier_coeffs,
    harmonic_energy,
    reconstruct,
    sturm_hurwitz_count,
)
from convexsphere.groups import random_frames
from convexsphere.sections import (
    SectionFamily,
    cube_family,
    ellipsoid_family,
    plane_section,
    polytope_family,
    round_section_search,
)
from convexsphere.util import skew_exp
from oracles import halfplane_polygon_vertices


# ---------------------------------------------------------------------------
# circle Fourier analysis
# ---------------------------------------------------------------------------


def test_fourier_coeffs_recover_translated_disk(grid2):
    th = grid2.angles
    # disk of radius 2 translated by (0.3, -0.2): h = 2 + 0.3 cos - 0.2 sin
    h = 2.0 + 0.3 * np.cos(th) - 0.2 * np.sin(th)
    fs = fourier_coeffs(th, h, 6)
    assert fs.a0 == pytest.approx(2.0, abs=1e-12)
    assert fs.a[0] == pytest.approx(0.3, abs=1e-12)
    assert fs.b[0] == pytest.approx(-0.2, abs=1e-12)
    assert np.abs(fs.a[1:]).max() < 1e-12
    assert np.abs(fs.b[1:]).max() < 1e-12
    assert np.abs(reconstruct(fs, th) - h).max() < 1e-12


def test_fourier_coeffs_reject_nonuniform_angles():
    th = np.sort(np.random.default_rng(0).uniform(0, 2 * np.pi, 64))
    with pytest.raises(InputError):
        fourier_coeffs(th, np.cos(th), 4)


def test_fourier_coeffs_degree_guard(grid2):
    th = grid2.angles
    with pytest.raises(InputError):
        fourier_coeffs(th, np.cos(th), grid2.size // 2)


def test_fourier_analyze_square_has_fourfold_spectrum(grid2):
    sq = from_vertices(
        grid2, np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]], float)
    )
    fs = fourier_analyze(sq, 12)
    # the support has a kink, so its discrete mean carries the aliasing
    # tail of the 1/q^2 coefficient decay past the grid bandwidth
    assert fs.a0 == pytest.approx(4.0 / math.pi, abs=5e-5)
    # only harmonics q = 4, 8, 12 survive the square's symmetry, and the
    # uniform grid preserves that symmetry exactly
    for q in range(1, 13):
        if q % 4:
            assert abs(fs.a[q - 1]) < 1e-12
        assert abs(fs.b[q - 1]) < 1e-12


def test_harmonic_energy_windows(grid2):
    th = grid2.angles
    h = 1.0 + 0.5 * np.cos(3 * th) + 0.2 * np.sin(5 * th)
    fs = fourier_coeffs(th, h, 8)
    total = harmonic_energy(fs)
    assert total == pytest.approx(0.5**2 + 0.2**2, rel=1e-10)
    assert harmonic_energy(fs, qmin=4) == pytest.approx(0.2**2, rel=1e-10)
    assert harmonic_energy(fs, qmin=1, qmax=4) == pytest.approx(0.5**2, rel=1e-10)


def test_sturm_hurwitz_counts(grid2):
    th = grid2.angles
    assert sturm_hurwitz_count(np.cos(3 * th)) == 6
    assert sturm_hurwitz_count(np.cos(th) + 0.1 * np.cos(2 * th)) == 2
    # counting against a nonzero level
    assert sturm_hurwitz_count(1.0 + np.cos(2 * th), level=1.0) == 4


def test_sturm_hurwitz_degenerate(grid2):
    with pytest.raises(Degenerate):
        sturm_hurwitz_count(np.zeros(grid2.size))


# ---------------------------------------------------------------------------
# section families
# ---------------------------------------------------------------------------


def test_ellipsoid_coordinate_section_support(grid2):
    fam = ellipsoid_family((1.0, 2.0, 3.0), grid=grid2)
    frame = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    sec = plane_section(fam, frame)
    th = grid2.angles
    want = np.sqrt((1.0 * np.cos(th)) ** 2 + (2.0 * np.sin(th)) ** 2)
    assert np.abs(sec.support - want).max() < 1e-12


def test_cube_family_coordinate_section(grid2):
    fam = cube_family(4, grid=grid2)
    frame = np.zeros((2, 4))
    frame[0, 0] = 1.0
    frame[1, 1] = 1.0
    sec = plane_section(fam, frame)
    th = grid2.angles
    want = np.abs(np.cos(th)) + np.abs(np.sin(th))
    assert np.abs(sec.support - want).max() < 1e-12


def test_plane_section_requires_orthonormal_frame(grid2):
    fam = ellipsoid_family((1.0, 2.0, 3.0), grid=grid2)
    bad = np.array([[1.0, 0, 0], [1.0, 0, 0]])
    with pytest.raises(InputError):
        plane_section(fam, bad)


def test_polytope_family_needs_interior_origin(grid2):
    simplex = np.array(
        [[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0], [0.5, 0.5, 0.5]]
    )
    with pytest.raises(OriginNotInterior):
        polytope_family(simplex, grid=grid2)


def test_polytope_family_section_of_octahedron(grid2):
    verts = np.array(
        [
            [1.0, 0, 0],
            [-1.0, 0, 0],
            [0, 1.0, 0],
            [0, -1.0, 0],
            [0, 0, 1.0],
            [0, 0, -1.0],
        ]
    )
    fam = polytope_family(verts, grid=grid2)
    frame = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    sec = plane_section(fam, frame)
    th = grid2.angles
    # the equatorial section of the octahedron is the planar diamond
    # |x| + |y| <= 1, whose support is max(|u1|, |u2|)
    want = np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
    assert np.abs(sec.support - want).max() < 1e-10


def test_polytope_sections_match_halfplane_oracle(grid2):
    rng = np.random.default_rng(3)
    verts = rng.normal(size=(12, 4))
    families = [cube_family(5, grid=grid2), polytope_family(verts - verts.mean(axis=0), grid=grid2)]
    for fam in families:
        for frame in random_frames(2, fam.ambient_dim, 8, rng):
            sec = plane_section(fam, frame)
            corners = halfplane_polygon_vertices(fam.normals @ frame.T, fam.offsets)
            want = np.max(grid2.nodes @ corners.T, axis=1)
            assert np.abs(sec.support - want).max() < 1e-12


def test_section_family_holds_exactly_one_description(grid2):
    quad = np.eye(3)
    normals = np.vstack([np.eye(3), -np.eye(3)])
    with pytest.raises(InputError):
        SectionFamily(grid2)
    with pytest.raises(InputError):
        SectionFamily(grid2, quad=quad, normals=normals, offsets=np.ones(6))
    with pytest.raises(InputError):
        SectionFamily(grid2, normals=normals)
    with pytest.raises(OriginNotInterior):
        SectionFamily(grid2, normals=normals, offsets=np.array([1.0, 1, 1, 1, 1, 0]))
    fam = SectionFamily(grid2, normals=normals, offsets=np.ones(6))
    assert fam.ambient_dim == 3
    assert SectionFamily(grid2, quad=np.eye(4)).ambient_dim == 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.offsets = 2.0 * np.ones(6)


def test_round_section_search_finds_ellipsoid_circle(grid2):
    fam = ellipsoid_family((1.0, 2.0, 3.0), grid=grid2)
    out = round_section_search(fam, coarse_count=40, seed=0)
    assert out["converged"]
    assert out["energy"] < 1e-8
    assert out["radius"] == pytest.approx(2.0, abs=1e-6)


def test_round_section_search_honest_on_cube(grid2):
    # a 3-cube has no circular plane section through the origin; the
    # search must report the best found frame without claiming success
    fam = cube_family(3, grid=grid2)
    out = round_section_search(fam, coarse_count=24, seed=0, maxiter=60)
    assert not out["converged"]
    assert out["energy"] > 1e-8
    assert np.isfinite(out["radius"])
    trace = out["trace"]
    assert all(trace[i] >= trace[i + 1] - 1e-15 for i in range(len(trace) - 1))


def test_round_section_search_of_a_planar_body(grid2):
    # in R^2 the one section is the body: the disk is round at radius 1,
    # and the ellipse of axes 1, 2 is not; its radius is the mean a0 of
    # its support sqrt(cos^2 t + 4 sin^2 t), the perimeter over 2 pi
    disk = round_section_search(ellipsoid_family((1.0, 1.0), grid=grid2))
    assert disk["converged"]
    assert disk["radius"] == pytest.approx(1.0, abs=1e-14)
    ellipse = round_section_search(ellipsoid_family((1.0, 2.0), grid=grid2))
    assert not ellipse["converged"]
    assert ellipse["radius"] == pytest.approx(8.0 * ellipe(0.75) / (2.0 * math.pi), abs=1e-12)


@pytest.mark.parametrize("d", [1, 0, -5])
def test_round_section_search_refuses_degree_below_2(d, grid2):
    # through degree 1 a centred cube section has zero energy, so a degree
    # below 2 would call every section round
    with pytest.raises(InputError, match=f"d={d}"):
        round_section_search(cube_family(3, grid=grid2), d=d)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_skew_exp_matches_scipy_expm(n):
    # the real cos/sin form of the Grassmannian charts and the octahedron
    # sweep, for a scalar or a stack of t (t = 0 among them), orthogonal
    from scipy.linalg import expm

    a = np.random.default_rng(n).normal(size=(n, n))
    s = a - a.T
    ts = np.linspace(0.0, 1.5, 7)
    got = skew_exp(s, ts)
    assert got.shape == (7, n, n)
    assert np.abs(got - np.stack([expm(t * s) for t in ts])).max() <= 1e-13
    assert np.abs(skew_exp(s) - expm(s)).max() <= 1e-13
    assert np.abs(got.transpose(0, 2, 1) @ got - np.eye(n)).max() <= 1e-13
