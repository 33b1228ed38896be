"""Spherical polynomial spaces P^d on S^{n-1}, n = 2, 3, 4.

P^d is the span of all degree-<=d polynomials restricted to the sphere;
F^d is its even, zero-average subspace. Dimensions:

    dim P^d_2 = 2d+1
    dim P^d_3 = (d+1)^2
    dim P^d_4 = (d+1)(d+2)(2d+3)/6

An L2-orthonormal basis (unnormalized surface measure) is sampled in
closed form, with numpy alone (_family): trigonometric functions on
S^1, real solid harmonics on S^2, and on S^3 a Gegenbauer polynomial of
x_1 times a solid harmonic of (x_2, x_3, x_4), each by a three-term
recurrence with a closed-form norm. The family is orthonormal by
construction, and a grid exact to degree 2d, which Basis requires,
integrates the products of its elements exactly; so its grid samples
are orthonormal to round-off (3e-14 at d = 12 on 8192 nodes) with no
orthogonalization. Basis elements are homogeneous of a single harmonic
degree, hence parity-pure, and the basis is nested by degree.

Each value is its description, frozen, with every array derived from it
read-only: Basis(d, grid) samples the family when it is made (equal and
hashed by (d, grid); get_basis keeps recent ones), and
SphericalPoly(coeffs, basis) holds a copy of its coefficients and takes
n and d from its basis, so its grid samples can never drift from them.

Off the grid, a basis is evaluated through its monomial form: on the
sphere, the homogeneous monomials of degrees d and d-1 span P^d, and
their count equals dim P^d. The matrix from those monomials to the
basis is fitted once per basis on the grid nodes, where the basis
samples are known, by the weighted least-squares fit that the
quadrature makes exact (_fit_monomials). Its condition number is 52 at
(n, d) = (2, 8), 158 at (3, 8), 361 at (4, 8), 4.1e3 at (3, 12), and
the monomial form agrees with the harmonic family to 3e-14 on random
points in each of these cases; a fit conditioned worse than
MAX_FIT_CONDITION is refused. Monomials cost a few array products per
call where the harmonic family takes a few per column, and they
give exact gradients and Hessians (monomial_jet, over the coefficients
of stacked_monomial_form).

The monomials serve evaluation only: their Gram at d = 12 is too
ill-conditioned for float64 to orthonormalize them, and the fit above
only inverts their coefficients in the harmonic basis.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstantPolynomial, InputError
from .sphere import SphereGrid, check_samples, derived_field, finite, lru_get, read_only, sphere_area

MAX_DEGREE = 12

#: Largest accepted condition number of a basis' monomial fit.
MAX_FIT_CONDITION = 1e8


def space_dimension(n: int, d: int) -> int:
    if n == 2:
        return 2 * d + 1
    if n == 3:
        return (d + 1) ** 2
    if n == 4:
        return (d + 1) * (d + 2) * (2 * d + 3) // 6
    raise InputError(f"unsupported sphere dimension n={n}")


def _circle_powers(x: np.ndarray, y: np.ndarray, d: int) -> tuple[list, list]:
    """(c, s) with c[m] + i s[m] = (x + iy)^m for m = 0..d, by a running
    product."""
    c, s = [np.ones_like(x)], [np.zeros_like(x)]
    for _ in range(d):
        c.append(c[-1] * x - s[-1] * y)
        s.append(c[-2] * y + s[-1] * x)
    return c, s


def _solid_harmonics(x: np.ndarray, y: np.ndarray, z: np.ndarray, d: int) -> list:
    """Real solid harmonics r^l Y_lm(x, y, z) for l = 0..d, as one list of
    columns per l in the order m = -l..l; on the unit sphere they are the
    real spherical harmonics, orthonormal for the surface measure and
    without the Condon-Shortley phase. With c_m + i s_m = (x + iy)^m,
    Y_{l,0} = N_l0 q_l^0 and Y_{l,+-m} = sqrt2 N_lm q_l^m (c_m, s_m), where
    q_m^m = (2m-1)!!, (l-m) q_l^m = (2l-1) z q_{l-1}^m - (l+m-1) r^2
    q_{l-2}^m with q_{m-1}^m = 0, and
    N_lm = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)."""
    c, s = _circle_powers(x, y, d)
    r2 = x * x + y * y + z * z
    out = [[None] * (2 * l + 1) for l in range(d + 1)]
    for m in range(d + 1):
        prev, q = 0.0, math.prod(range(1, 2 * m, 2)) * np.ones_like(z)
        for l in range(m, d + 1):
            if l > m:
                prev, q = q, ((2 * l - 1) * z * q - (l + m - 1) * r2 * prev) / (l - m)
            norm = math.sqrt((2 - (m == 0)) * (2 * l + 1) / (4 * math.pi)
                             * math.factorial(l - m) / math.factorial(l + m))
            out[l][l + m] = norm * q * c[m]
            if m:
                out[l][l - m] = norm * q * s[m]
    return out


def _gegenbauer(lam: int, d: int, t: np.ndarray) -> list:
    """C_j^(lam)(t) / sqrt(h_j) for j = 0..d, from j C_j = 2 (j+lam-1) t
    C_{j-1} - (j+2 lam-2) C_{j-2} and the norm for the weight
    (1-t^2)^(lam-1/2), h_j = pi 2^(1-2 lam) Gamma(j+2 lam) / (j! (j+lam)
    Gamma(lam)^2), with Gamma(k) = (k-1)! at integer lam."""
    out = [np.ones_like(t), 2 * lam * t][: d + 1]
    for j in range(2, d + 1):
        out.append((2 * (j + lam - 1) * t * out[-1] - (j + 2 * lam - 2) * out[-2]) / j)
    fact = math.factorial
    h = [math.ldexp(math.pi * fact(j + 2 * lam - 1) / (fact(j) * (j + lam) * fact(lam - 1) ** 2),
                    1 - 2 * lam) for j in range(d + 1)]
    return [c / math.sqrt(hj) for c, hj in zip(out, h)]


def _family(n: int, d: int, points: np.ndarray) -> np.ndarray:
    """Samples (P, dim) of the orthonormal harmonic basis of P^d at unit
    vectors, C-ordered, by harmonic degree.

    n = 2: 1/sqrt(2 pi), then cos(q theta)/sqrt(pi), sin(q theta)/sqrt(pi).
    n = 3: the real solid harmonics Y_lm in the order (l, m), m = -l..l.
    n = 4: column (k, l, m) is C_{k-l}^(l+1)(x_1) R_lm(x_2, x_3, x_4),
    R_lm the n = 3 solid harmonic of the last three coordinates and the
    Gegenbauer factor normed for the weight (1-x_1^2)^(l+1/2): with
    x = (x_1, s omega), the surface measure is s dx_1 domega and
    R_lm = s^l Y_lm(omega)."""
    p = np.asarray(points, dtype=float)
    if n == 2:
        c, s = _circle_powers(p[:, 0], p[:, 1], d)
        cols = [np.full(p.shape[0], 1.0 / math.sqrt(2.0 * math.pi))]
        for q in range(1, d + 1):
            cols += [c[q] / math.sqrt(math.pi), s[q] / math.sqrt(math.pi)]
    elif n == 3:
        cols = [y for ys in _solid_harmonics(p[:, 0], p[:, 1], p[:, 2], d) for y in ys]
    elif n == 4:
        solid = _solid_harmonics(p[:, 1], p[:, 2], p[:, 3], d)
        geg = [_gegenbauer(l + 1, d - l, p[:, 0]) for l in range(d + 1)]
        cols = [geg[l][k - l] * y for k in range(d + 1) for l in range(k + 1) for y in solid[l]]
    else:
        raise InputError(f"unsupported sphere dimension n={n}")
    return np.column_stack(cols)


def _monomial_exponents(n: int, d: int) -> np.ndarray:
    """Exponent table (m, n) of the homogeneous monomials of degrees d
    and d-1 in n variables; m = dim P^d."""
    rows = []
    for deg in (d, d - 1) if d > 0 else (0,):
        for combo in itertools.combinations_with_replacement(range(n), deg):
            rows.append(np.bincount(np.array(combo, dtype=int), minlength=n))
    return np.array(rows, dtype=int).reshape(-1, n)


def _powers(points: np.ndarray, d: int) -> np.ndarray:
    """(P, n, d+1) C-ordered table of x_k^e for e = 0..d, by a running
    product pw[..., e] = pw[..., e-1] * x in place. It has the bits of
    np.cumprod along the last axis (the same products in the same order)
    and is 2-3x faster on 1000-2000 points; both are an order of
    magnitude faster than np.power on a batch."""
    x = np.asarray(points, dtype=float)
    pw = np.empty(x.shape + (d + 1,))
    pw[..., 0] = 1.0
    for e in range(1, d + 1):
        np.multiply(pw[..., e - 1], x, out=pw[..., e])
    return pw


def _monomials(exponents: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """Monomial values (P, m) from a (P, n, d+1) power table."""
    out = pw[:, 0, exponents[:, 0]]
    for k in range(1, exponents.shape[1]):
        out *= pw[:, k, exponents[:, k]]
    return out


def _monomial_partials(exponents: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """Partial derivatives (P, n, m) of the monomials from a (P, n, d+1)
    power table: d/dx_k x^alpha = alpha_k x^(alpha - e_k)."""
    n = exponents.shape[1]
    out = np.empty((pw.shape[0], n, exponents.shape[0]))
    for k in range(n):
        part = exponents[:, k] * pw[:, k, np.maximum(exponents[:, k] - 1, 0)]
        for j in range(n):
            if j != k:
                part *= pw[:, j, exponents[:, j]]
        out[:, k] = part
    return out


def _second_partials(exponents: np.ndarray) -> list:
    """(k, j, c, e) for each k <= j, with d2/dx_k dx_j x^alpha = c x^e
    for every monomial alpha: c = alpha_k (alpha_j - [j = k]) and e =
    alpha - e_k - e_j (clipped at 0 where c = 0)."""
    n = exponents.shape[1]
    out = []
    for k in range(n):
        for j in range(k, n):
            e = exponents.copy()
            c = e[:, k].copy()
            e[:, k] -= 1
            c *= e[:, j]
            e[:, j] -= 1
            out.append((k, j, c, np.maximum(e, 0)))
    return out


def _fit_monomials(exponents: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
                   samples: np.ndarray) -> np.ndarray:
    """Matrix T with monomials(nodes) @ T = samples, for samples that are
    weighted-orthonormal on the nodes.

    The weighted least-squares fit is taken in the direction in which it
    is a projection: the monomials are samples @ C with C = samples^T W
    monomials (exact, since the monomials lie in the span of the samples
    and the quadrature is exact at twice their degree), and T = C^-1.
    C has the singular values of the weighted monomial matrix, so its
    condition number is the fit's; above MAX_FIT_CONDITION the fit is
    refused with InputError. Solving the G x m least-squares problem
    directly instead gave errors of 3e-12 rather than 3e-14 at (n, d) =
    (3, 12).
    """
    mono = _monomials(exponents, _powers(nodes, int(exponents.max())))
    mono *= weights[:, None]
    coef = samples.T @ mono
    cond = np.linalg.cond(coef)
    if not cond <= MAX_FIT_CONDITION:
        raise InputError(
            f"monomial fit has condition number {cond:.3g} > {MAX_FIT_CONDITION:.0e}"
        )
    return np.linalg.inv(coef)


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis of P^d on a grid: the closed-form harmonic family
    at the grid nodes, orthonormal on a grid exact to degree 2d, which is
    required. samples is the family (C-ordered) and _proj its weighted
    transpose. Equal and hashed by (d, grid)."""

    d: int
    grid: SphereGrid = field(repr=False)
    samples: np.ndarray = derived_field()   # (G, m), b_i at grid nodes
    degrees: np.ndarray = derived_field()
    _proj: np.ndarray = derived_field()     # (m, G), c = _proj @ f

    def __post_init__(self):
        grid, d = self.grid, self.d
        if d < 0 or d > MAX_DEGREE:
            raise InputError(f"degree d={d} outside 0..{MAX_DEGREE}")
        if 2 * d > grid.max_exact_degree:
            raise InputError(
                f"grid exact to degree {grid.max_exact_degree} cannot hold a "
                f"degree-{d} basis (needs {2 * d})"
            )
        fam = _family(grid.n, d, grid.nodes)
        dims = [space_dimension(grid.n, k) for k in range(d + 1)]
        object.__setattr__(self, "samples", read_only(fam))
        object.__setattr__(self, "degrees", read_only(np.repeat(np.arange(d + 1), np.diff(dims, prepend=0))))
        object.__setattr__(self, "_proj", read_only((fam * grid.weights[:, None]).T))

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @cached_property
    def f_mask(self) -> np.ndarray:
        """Selector of the even, zero-average subspace F^d."""
        return read_only((self.degrees % 2 == 0) & (self.degrees > 0))

    @cached_property
    def monomial_form(self) -> tuple[np.ndarray, np.ndarray]:
        """(exponents, matrix): monomials(points) @ matrix are the basis
        values; fitted on the grid at first use."""
        exps = _monomial_exponents(self.n, self.d)
        mat = _fit_monomials(exps, self.grid.nodes, self.grid.weights, self.samples)
        return read_only(exps), read_only(mat)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Basis values at arbitrary unit vectors, shape (P, dim), through
        the monomial form."""
        exps, mat = self.monomial_form
        return _monomials(exps, _powers(points, self.d)) @ mat

    def project_samples(self, f: np.ndarray) -> np.ndarray:
        """L2 coefficients of grid samples (exact for polynomials within
        the grid's exact degree)."""
        return self._proj @ f


#: Bases kept by get_basis, least recently used first. Each holds two G x m
#: matrices (1.3 MB each at G=2048, n=3, d=8), so the cache is bounded.
_BASIS_CACHE: dict[tuple, Basis] = {}
_BASIS_CACHE_SIZE = 8


def get_basis(n: int, d: int, grid: SphereGrid) -> Basis:
    """Basis(d, grid) for a grid on S^{n-1}, kept in _BASIS_CACHE."""
    if grid.n != n:
        raise InputError(f"grid dimension {grid.n} != n={n}")
    return lru_get(_BASIS_CACHE, (d, grid), lambda: Basis(d, grid), _BASIS_CACHE_SIZE)


@dataclass(frozen=True, eq=False)
class SphericalPoly:
    """Element of P^d: a copy of its coefficients in a basis."""

    coeffs: np.ndarray
    basis: Basis = field(repr=False)

    def __post_init__(self):
        coeffs = np.array(finite(self.coeffs, "polynomial coefficient"))
        if coeffs.shape != (self.basis.dim,):
            raise InputError(
                f"coefficient vector of length {coeffs.size} does not "
                f"match basis dimension {self.basis.dim}"
            )
        object.__setattr__(self, "coeffs", read_only(coeffs))

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def grid(self) -> SphereGrid:
        return self.basis.grid

    @cached_property
    def samples(self) -> np.ndarray:
        return read_only(self.basis.samples @ self.coeffs)

    @cached_property
    def monomial_coef(self) -> np.ndarray:
        """Coefficients in the basis' monomials: eval needs no basis values."""
        return read_only(self.basis.monomial_form[1] @ self.coeffs)

    def eval(self, points: np.ndarray) -> np.ndarray:
        return _monomials(self.basis.monomial_form[0], _powers(points, self.d)) @ self.monomial_coef

    @property
    def norm(self) -> float:
        """L2 norm (Parseval)."""
        return float(np.linalg.norm(self.coeffs))

    @property
    def mean(self) -> float:
        """Average value over the sphere."""
        return float(self.coeffs[0]) / np.sqrt(sphere_area(self.n))

    def odd_part_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs[self.basis.degrees % 2 == 1]))

    def scaled(self, a: float) -> "SphericalPoly":
        return SphericalPoly(a * self.coeffs, self.basis)


def stacked_monomial_form(polys) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, coef) of polynomials sharing one (n, d): the common
    exponent table and one row of monomial coefficients per polynomial,
    so that monomials(x) @ coef[i] is polys[i](x). A mixed or empty list
    raises InputError."""
    if not polys:
        raise InputError("no polynomials to stack")
    nd = {(p.n, p.d) for p in polys}
    if len(nd) > 1:
        raise InputError(f"polynomials of mixed (n, d) {sorted(nd)} do not share monomials")
    exps = polys[0].basis.monomial_form[0]
    return exps, np.stack([p.monomial_coef for p in polys])


def monomial_jet(exponents: np.ndarray, coef: np.ndarray, points: np.ndarray):
    """Value (P,), ambient gradient (P, n) and Hessian (P, n, n) at
    points[p] of the monomial form with coefficients coef[p] (P, m).
    A row's result does not depend on the other rows: every sum runs
    over C-ordered terms (_monomials may return either order), which
    numpy adds in the same order for every row. The Hessian is summed one
    entry at a time, which bounds the temporaries at (P, m)."""
    pw = _powers(points, int(exponents.max()))
    val = np.sum(np.multiply(_monomials(exponents, pw), coef, order="C"), axis=-1)
    grad = np.sum(_monomial_partials(exponents, pw) * coef[:, None, :], axis=-1)
    hess = np.empty(grad.shape + grad.shape[1:])
    for k, j, c, e in _second_partials(exponents):
        terms = np.multiply(c * _monomials(e, pw), coef, order="C")
        hess[:, k, j] = hess[:, j, k] = np.sum(terms, axis=-1)
    return val, grad, hess


def project(grid: SphereGrid, f, d: int) -> SphericalPoly:
    """Quadrature L2 projection of grid samples onto P^d."""
    f = check_samples(grid, f)
    basis = get_basis(grid.n, d, grid)
    return SphericalPoly(basis.project_samples(f), basis)


_F_SPACE_TOL = 1e-12  # relative norm below which nothing survives to_F_space
_NONCONSTANT_TOL = 1e-8  # variance above which is_nonconstant holds


def to_F_space(p: SphericalPoly) -> SphericalPoly:
    """Project onto the even zero-average subspace and rescale to unit
    L2 norm. Raises ConstantPolynomial when nothing survives."""
    c = np.where(p.basis.f_mask, p.coeffs, 0.0)
    nrm = np.linalg.norm(c)
    if nrm <= _F_SPACE_TOL * max(1.0, np.linalg.norm(p.coeffs)):
        raise ConstantPolynomial(
            "projection onto the even zero-average subspace vanishes"
        )
    return SphericalPoly(c / nrm, p.basis)


def is_nonconstant(p: SphericalPoly) -> bool:
    """True when the L2 variance (squared norm of the deviation from the
    mean) exceeds _NONCONSTANT_TOL."""
    variance = float(np.sum(p.coeffs[1:] ** 2))
    return variance > _NONCONSTANT_TOL


@dataclass(frozen=True)
class JoinPoint:
    """Formal join-coordinate point: positive weights summing to one,
    each attached to a unit-norm even non-constant polynomial of a
    common degree."""

    entries: tuple  # ((t_i, SphericalPoly), ...)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((t, f) for t, f in self.entries))
        if not self.entries:
            raise InputError("join point needs at least one entry")
        ts = np.array([t for t, _ in self.entries], dtype=float)
        if np.any(ts <= 0) or abs(ts.sum() - 1.0) > 1e-10:
            raise InputError("join weights must be positive and sum to 1")
        polys = [f for _, f in self.entries]
        n, d = polys[0].n, polys[0].d
        for f in polys:
            if (f.n, f.d) != (n, d):
                raise InputError("join entries must share (n, d)")
            if abs(f.norm - 1.0) > 1e-8:
                raise InputError("join entries must have unit L2 norm")
            if f.odd_part_norm() > 1e-8 or abs(f.mean) > 1e-8:
                raise InputError("join entries must be even with zero average")
            if not is_nonconstant(f):
                raise InputError("join entries must be non-constant")

    @property
    def k(self) -> int:
        return len(self.entries)


def join_product(jp: JoinPoint, d_out: int | None = None) -> SphericalPoly:
    """prod_i (1 + t_i f_i), projected to degree d_out (default: the
    exact product degree k*d) and normalized into the unit sphere of F."""
    polys = [f for _, f in jp.entries]
    ts = [t for t, _ in jp.entries]
    n, d = polys[0].n, polys[0].d
    grid = polys[0].grid
    if d_out is None:
        d_out = min(jp.k * d, MAX_DEGREE)
    prod_deg = jp.k * d
    if d_out + prod_deg > grid.max_exact_degree:
        raise InputError(
            f"projection of a degree-{prod_deg} product at degree {d_out} "
            f"needs grid exactness {d_out + prod_deg}, have "
            f"{grid.max_exact_degree}; refine the grid"
        )
    g = np.ones(grid.size)
    for t, f in zip(ts, polys):
        g = g * (1.0 + t * f.samples)
    return to_F_space(project(grid, g, d_out))


def poly_product(p: SphericalPoly, q: SphericalPoly, d_out: int) -> SphericalPoly:
    """Pointwise product projected to degree d_out (no normalization)."""
    if p.grid is not q.grid and p.grid != q.grid:
        raise InputError("polynomial product requires a common grid")
    grid = p.grid
    if d_out + p.d + q.d > grid.max_exact_degree:
        raise InputError(
            f"product projection needs grid exactness {d_out + p.d + q.d}, "
            f"have {grid.max_exact_degree}"
        )
    return project(grid, p.samples * q.samples, d_out)


def rotate_poly(p: SphericalPoly, rot: np.ndarray) -> SphericalPoly:
    """p o R, i.e. u -> p(R u); exact (degree is preserved).

    When every odd-degree coefficient of p is exactly 0 (as for every
    element of F^d), p is evaluated at the rotated first half of the
    nodes only, in the monomials of even total degree, and those values
    are repeated for the second half, since nodes[G/2:] == -nodes[:G/2].
    That is exact: on the sphere the monomial form is H_d + H_{d-1}, with
    H_k homogeneous of degree k, and p(-u) = p(u) forces the odd-degree
    one of the two to vanish there, so p is the even-degree one alone.
    The full form differs only by the round-off terms of the odd degree
    (about 1e-16). Every other polynomial is evaluated at all the nodes in
    the full monomial form."""
    rot = np.asarray(rot, dtype=float)
    grid = p.grid
    if np.any(p.coeffs[p.basis.degrees % 2 == 1]):
        return project(grid, p.eval(grid.nodes @ rot.T), p.d)
    exps = p.basis.monomial_form[0]
    even = exps.sum(axis=1) % 2 == 0
    half = grid.nodes[: grid.size // 2] @ rot.T
    vals = _monomials(exps[even], _powers(half, p.d)) @ p.monomial_coef[even]
    return project(grid, np.concatenate([vals, vals]), p.d)


def odd_even_split(grid: SphereGrid, f) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) parts of grid samples via the exact antipode map."""
    f = check_samples(grid, f)
    fa = f[..., grid.antipode]
    return 0.5 * (f + fa), 0.5 * (f - fa)
