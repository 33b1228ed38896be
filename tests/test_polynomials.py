import dataclasses
import math

import numpy as np
import pytest

from convexsphere.errors import ConstantPolynomial, InputError
from convexsphere.groups import random_rotations
from convexsphere.polynomials import (
    Basis,
    JoinPoint,
    SphericalPoly,
    _family,
    _fit_monomials,
    _monomial_exponents,
    _powers,
    get_basis,
    is_nonconstant,
    join_product,
    monomial_jet,
    odd_even_split,
    poly_product,
    project,
    rotate_poly,
    space_dimension,
    stacked_monomial_form,
    to_F_space,
)
from convexsphere.sphere import SphereGrid, build_grid, integrate
from oracles import harmonic_family


def test_space_dimension_frozen_values():
    # restrictions to the sphere: 2d+1 on the circle, (d+1)^2 on S^2,
    # (d+1)(d+2)(2d+3)/6 on S^3
    assert space_dimension(2, 12) == 25
    assert space_dimension(3, 12) == 169
    assert space_dimension(4, 8) == 285
    assert space_dimension(3, 0) == 1
    assert space_dimension(3, 1) == 4


# (n, d) of the bases the pipelines use: the planar default, F^8 on S^2
# and S^3, and the largest degree on S^2
CASES = [(2, 8), (3, 8), (3, 12), (4, 8)]


def _unit_vectors(n, count, seed):
    x = np.random.default_rng(seed).normal(size=(count, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.mark.parametrize("n,d", [(2, 8), (3, 6), (4, 4), (3, 8), (3, 12), (4, 8)])
def test_basis_is_orthonormal(n, d, grid2, grid3, grid4):
    grid = {2: grid2, 3: grid3, 4: grid4}[n]
    basis = get_basis(n, d, grid)
    gram = basis.samples.T @ (grid.weights[:, None] * basis.samples)
    assert np.abs(gram - np.eye(basis.dim)).max() < 1e-10


@pytest.mark.parametrize("n,d", CASES)
def test_basis_eval_matches_harmonic_family(n, d, grid2, grid3, grid4):
    # the monomial form reproduces scipy's harmonic construction off the
    # grid: the basis is family @ inv(R), R the family's coefficients in
    # the basis
    grid = {2: grid2, 3: grid3, 4: grid4}[n]
    basis = get_basis(n, d, grid)
    assert basis.monomial_form[0].shape == (basis.dim, n)
    r = basis.samples.T @ (grid.weights[:, None] * harmonic_family(n, d, grid.nodes))
    pts = _unit_vectors(n, 2000, seed=n * 100 + d)
    fam = harmonic_family(n, d, pts)
    assert np.abs(basis.eval(pts) - fam @ np.linalg.inv(r)).max() <= 1e-11


# the degrees at which the recurrences are checked, each on the coarsest
# standard grid exact to 2d (only n = 4, d = 12 needs a finer one)
FAMILY_CASES = [(n, d) for n in (2, 3, 4) for d in (0, 1, 2, 8, 12)]


@pytest.mark.parametrize("n,d", FAMILY_CASES)
def test_closed_form_family_matches_scipy_harmonics(n, d):
    # column for column, on the nodes and off them, the recurrences give
    # scipy's orthonormal harmonics, and the basis built from them with no
    # orthogonalization is orthonormal on the grid
    grid = build_grid(n) if 2 * d <= build_grid(n).max_exact_degree else build_grid(n, 14)
    assert 2 * d <= grid.max_exact_degree
    fam = _family(n, d, grid.nodes)
    assert fam.shape == (grid.size, space_dimension(n, d))
    assert np.abs(fam - harmonic_family(n, d, grid.nodes)).max() <= 1e-13
    pts = _unit_vectors(n, 500, seed=10 * n + d)
    assert np.abs(_family(n, d, pts) - harmonic_family(n, d, pts)).max() <= 1e-13
    basis = Basis(d, grid)
    gram = basis.samples.T @ (grid.weights[:, None] * basis.samples)
    assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-13


@pytest.mark.parametrize("n,d", CASES)
def test_poly_evaluates_through_its_monomial_coefficients(n, d, grid2, grid3, grid4):
    # eval goes through one coefficient vector, not the whole basis, and
    # the stacked form is the same vector bit for bit
    basis = get_basis(n, d, {2: grid2, 3: grid3, 4: grid4}[n])
    rng = np.random.default_rng(11 * n + d)
    polys = [SphericalPoly(rng.normal(size=basis.dim), basis) for _ in range(3)]
    pts = _unit_vectors(n, 500, seed=n + d)
    for p in polys:
        want = basis.eval(pts) @ p.coeffs
        assert np.abs(p.eval(pts) - want).max() <= 1e-13 * np.abs(want).max()
        assert p.monomial_coef.shape == (basis.dim,) and not p.monomial_coef.flags.writeable
    exps, coef = stacked_monomial_form(polys)
    assert np.array_equal(exps, basis.monomial_form[0])
    for row, p in zip(coef, polys):
        assert np.array_equal(row, p.monomial_coef)


def test_spherical_poly_refuses_non_finite_coefficients(grid3):
    basis = get_basis(3, 4, grid3)
    coeffs = np.zeros(basis.dim)
    coeffs[2] = np.nan
    with pytest.raises(InputError, match="polynomial coefficient nan is not finite"):
        SphericalPoly(coeffs, basis)


def test_monomial_fit_refuses_ill_conditioning(grid3):
    # nodes crowded into a cap of radius 1e-3 cannot tell degree-8
    # monomials apart: the fit's condition number is far above the limit
    basis = get_basis(3, 8, grid3)
    exps = _monomial_exponents(3, 8)
    rng = np.random.default_rng(5)
    nodes = np.column_stack([1e-3 * rng.normal(size=(512, 2)), np.ones(512)])
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    weights = np.full(512, 4.0 * math.pi / 512)
    with pytest.raises(InputError, match="condition number"):
        _fit_monomials(exps, nodes, weights, basis.eval(nodes))
    # the grid's own fit is the basis' monomial form
    fit = _fit_monomials(exps, grid3.nodes, grid3.weights, basis.samples)
    assert np.array_equal(fit, basis.monomial_form[1])


@pytest.mark.parametrize("n,d", CASES)
def test_grad_matches_finite_differences(n, d, grid2, grid3, grid4):
    basis = get_basis(n, d, {2: grid2, 3: grid3, 4: grid4}[n])
    rng = np.random.default_rng(7)
    p = SphericalPoly(rng.normal(size=basis.dim) / np.sqrt(basis.dim), basis)
    pts = _unit_vectors(n, 20, seed=8)
    exps, coef = stacked_monomial_form([p])

    def jet(x):
        # value, ambient gradient and Hessian of the monomial form of p
        return monomial_jet(exps, np.repeat(coef, x.shape[0], axis=0), x)

    val, g, hs = jet(pts)
    assert g.shape == (20, n)
    # the monomial form is p
    assert np.abs(val - p.eval(pts)).max() < 1e-12 * max(1.0, float(np.abs(val).max()))
    scale = max(1.0, float(np.abs(g).max()))
    h = 1e-6
    # ambient central differences of the monomial form
    fd = np.column_stack(
        [(p.eval(pts + h * e) - p.eval(pts - h * e)) / (2 * h) for e in np.eye(n)]
    )
    assert np.abs(fd - g).max() < 1e-7 * scale
    # tangential differences along great circles, which do not depend on
    # how the polynomial is extended off the sphere
    t = rng.normal(size=pts.shape)
    t -= np.sum(t * pts, axis=1, keepdims=True) * pts
    t /= np.linalg.norm(t, axis=1, keepdims=True)

    def on_circle(s):
        return p.eval(np.cos(s) * pts + np.sin(s) * t)

    fd_t = (on_circle(h) - on_circle(-h)) / (2 * h)
    assert np.abs(fd_t - np.sum(g * t, axis=1)).max() < 1e-7 * scale

    # the Hessian: ambient central differences of grad, and the second
    # derivative t^T hess t - <u, grad> along the same great circles,
    # from central differences of the derivative grad(c(s)) . c'(s)
    assert hs.shape == (20, n, n)
    assert np.array_equal(hs, np.swapaxes(hs, 1, 2))
    scale2 = max(1.0, float(np.abs(hs).max()))
    fd2 = np.stack([(jet(pts + h * e)[1] - jet(pts - h * e)[1]) / (2 * h) for e in np.eye(n)],
                   axis=2)
    assert np.abs(fd2 - hs).max() < 1e-7 * scale2

    def along_circle(s):
        c = np.cos(s) * pts + np.sin(s) * t
        return np.sum(jet(c)[1] * (np.cos(s) * t - np.sin(s) * pts), axis=1)

    fd2_t = (along_circle(h) - along_circle(-h)) / (2 * h)
    want = np.einsum("pi,pij,pj->p", t, hs, t) - np.sum(pts * g, axis=1)
    assert np.abs(fd2_t - want).max() < 1e-7 * scale2


def test_projection_reproduces_polynomials(grid3):
    basis = get_basis(3, 6, grid3)
    rng = np.random.default_rng(2)
    c = rng.normal(size=basis.dim)
    f = basis.samples @ c
    p = project(grid3, f, 6)
    assert np.abs(p.coeffs - c).max() < 1e-10


def test_projection_residual_is_orthogonal(grid3):
    # residual of a degree-truncated projection has no component in the
    # retained space
    f = np.exp(grid3.nodes[:, 0])
    p = project(grid3, f, 4)
    res = f - p.samples
    basis = get_basis(3, 4, grid3)
    comp = basis.samples.T @ (grid3.weights * res)
    assert np.abs(comp).max() < 1e-10


def test_parseval_norm(grid3):
    p = project(grid3, grid3.nodes[:, 0] ** 2, 2)
    want = math.sqrt(integrate(grid3, p.samples**2))
    assert p.norm == pytest.approx(want, rel=1e-12)


def test_to_F_space_properties(grid3):
    f = grid3.nodes[:, 0] ** 2 + 0.3 * grid3.nodes[:, 1] - 0.1
    p = project(grid3, f, 2)
    q = to_F_space(p)
    assert q.norm == pytest.approx(1.0, abs=1e-12)
    assert abs(q.mean) < 1e-12
    assert q.odd_part_norm() < 1e-12
    assert is_nonconstant(q)


def test_to_F_space_rejects_constants(grid3):
    p = project(grid3, np.ones(grid3.size), 2)
    with pytest.raises(ConstantPolynomial):
        to_F_space(p)


def test_single_entry_join_returns_the_entry(grid3):
    f = to_F_space(project(grid3, grid3.nodes[:, 2] ** 2, 2))
    jp = JoinPoint([(1.0, f)])
    g = join_product(jp)
    # (1 + t f) re-centered and normalized is f again, for any t
    assert np.abs(g.samples - f.samples).max() < 1e-10


def test_join_point_validation(grid3):
    f = to_F_space(project(grid3, grid3.nodes[:, 2] ** 2, 2))
    with pytest.raises(InputError):
        JoinPoint([(0.5, f), (0.6, f)])  # weights exceed 1
    with pytest.raises(InputError):
        JoinPoint([(-0.2, f), (1.2, f)])  # negative weight
    with pytest.raises(InputError):
        JoinPoint([(1.0, f.scaled(2.0))])  # not unit norm
    odd = project(grid3, grid3.nodes[:, 0], 1)
    with pytest.raises(InputError):
        JoinPoint([(1.0, odd.scaled(1.0 / odd.norm))])  # odd entry
    with pytest.raises(InputError):
        JoinPoint([])


def test_join_product_needs_enough_quadrature(grid3):
    f = to_F_space(project(grid3, grid3.nodes[:, 2] ** 2, 2))
    jp = JoinPoint([(0.5, f), (0.5, f)])
    with pytest.raises(InputError):
        join_product(jp, d_out=12 * 3)


def test_join_product_output_lands_in_unit_F_sphere(grid3):
    rng = np.random.default_rng(11)
    from convexsphere.fields import sample_unit_F

    polys = sample_unit_F(3, 2, 6, seed=4, grid=grid3)
    ts = rng.dirichlet(np.ones(3))
    jp = JoinPoint(list(zip(ts, polys[:3])))
    g = join_product(jp)
    assert g.norm == pytest.approx(1.0, abs=1e-10)
    assert abs(g.mean) < 1e-10
    assert g.odd_part_norm() < 1e-10


def test_rotate_poly_is_exact_and_invertible(grid3):
    p = project(grid3, grid3.nodes[:, 0] * grid3.nodes[:, 1], 2)
    rng = np.random.default_rng(3)
    r = random_rotations(3, 1, rng)[0]
    q = rotate_poly(rotate_poly(p, r), r.T)
    assert np.abs(q.samples - p.samples).max() < 1e-11
    # rotation preserves the L2 norm
    assert rotate_poly(p, r).norm == pytest.approx(p.norm, rel=1e-12)


# (n, resolution, d): G = 512 and 2048 on S^2, 2000 on S^3, 512 on S^1
@pytest.mark.parametrize("n,resolution,d", [(3, 16, 8), (3, 32, 8), (4, 10, 8), (2, 512, 8)])
@pytest.mark.parametrize("odd", [False, True], ids=["even", "one_odd_coefficient"])
def test_rotate_poly_matches_pointwise(n, resolution, d, odd):
    # odd coefficients exactly 0 take the half-grid path in the even
    # monomials; one nonzero odd coefficient takes the full-grid path,
    # and the half-grid values would miss its odd part entirely
    basis = get_basis(n, d, SphereGrid(n, resolution))
    rng = np.random.default_rng(n * resolution + odd)
    c = np.where(basis.degrees % 2 == 0, rng.normal(size=basis.dim), 0.0)
    if odd:
        c[np.flatnonzero(basis.degrees == d - 1)[0]] = 0.5
    p = SphericalPoly(c, basis)
    for r in random_rotations(n, 3, rng):
        ref = p.eval(basis.grid.nodes @ r.T)
        err = np.abs(rotate_poly(p, r).samples - ref).max()
        assert err <= (1e-12 if odd else 1e-13) * np.abs(ref).max()


def test_powers_is_a_running_product():
    x = _unit_vectors(3, 1000, seed=5)
    pw = _powers(x, 8)
    assert pw.shape == (1000, 3, 9) and pw.flags.c_contiguous
    assert np.all(pw[..., 0] == 1.0)
    for e in range(1, 9):
        assert np.array_equal(pw[..., e], pw[..., e - 1] * x)


def test_poly_product_matches_pointwise(grid3):
    p = project(grid3, grid3.nodes[:, 0] ** 2, 2)
    q = project(grid3, grid3.nodes[:, 1] ** 2, 2)
    pq = poly_product(p, q, 4)
    assert np.abs(pq.samples - p.samples * q.samples).max() < 1e-11


def test_poly_product_grid_guard(grid3):
    p = project(grid3, grid3.nodes[:, 0] ** 2, 2)
    q = project(grid3, grid3.nodes[:, 1] ** 2, 2)
    with pytest.raises(InputError):
        poly_product(p, q, 30)


def test_odd_even_split(grid3):
    f = grid3.nodes[:, 0] + grid3.nodes[:, 1] ** 2
    even, odd = odd_even_split(grid3, f)
    assert np.abs(odd + odd[grid3.antipode]).max() < 1e-14
    assert np.abs(even - even[grid3.antipode]).max() < 1e-14
    assert np.abs(odd + even - f).max() < 1e-14


def test_polynomial_is_its_description(grid3):
    basis = get_basis(3, 8, grid3)
    c = np.zeros(basis.dim)
    c[-1] = 1.0
    p = SphericalPoly(c, basis)
    samples = p.samples.copy()
    c[0] = 1.0  # the polynomial holds a copy
    assert np.array_equal(p.samples, samples)
    assert np.abs(p.eval(grid3.nodes) - samples).max() < 1e-12
    # n and d are the basis'; the identity rotation keeps all of p
    assert (p.n, p.d, p.grid) == (3, 8, grid3)
    q = rotate_poly(p, np.eye(3))
    assert q.d == 8 and np.abs(q.coeffs - p.coeffs).max() < 1e-12
    with pytest.raises(TypeError):
        SphericalPoly(3, 2, c, basis)
    with pytest.raises(InputError, match="does not match basis dimension"):
        SphericalPoly(c[:-1], basis)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.coeffs = c
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.samples = samples
    assert not p.coeffs.flags.writeable and not p.samples.flags.writeable


def test_basis_is_its_description(grid3):
    basis = Basis(8, grid3)
    cached = get_basis(3, 8, grid3)
    assert basis == cached and hash(basis) == hash(cached)
    assert np.array_equal(basis.samples, cached.samples)
    assert basis != Basis(4, grid3) and basis.n == 3
    derived = [basis.samples, basis.degrees, basis._proj, basis.f_mask, *basis.monomial_form]
    assert not any(a.flags.writeable for a in derived)
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.d = 2
    with pytest.raises(InputError, match="degree d=13 outside"):
        Basis(13, grid3)
    with pytest.raises(InputError, match="cannot hold a degree-8 basis"):
        Basis(8, build_grid(3, 8))
    with pytest.raises(InputError, match="grid dimension 3 != n=4"):
        get_basis(4, 2, grid3)
