"""Symmetric polynomials over GF(2) and top obstruction classes.

A polynomial is a set of monomials (coefficients are 1); each
monomial packs its exponent vector into a uint64, 16 bits per
variable, at most 4 variables. Addition is symmetric difference and
multiplication is pairwise key addition followed by parity reduction,
both vectorized through np.unique.

The top class for parameters (n, d) is the product of the linear
forms sum_k j_k x_k over all compositions j of d into n parts, taken
mod 2; its evaluation at the all-ones point is computed factor-wise
(evaluation is a ring homomorphism, and each factor sums to d), so it
never requires materializing the expansion.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InputError
from .sphere import read_only

MAX_VARS = 4
_SHIFT = 16
_FIELD = (1 << _SHIFT) - 1


def _pack(expos: np.ndarray) -> np.ndarray:
    expos = np.asarray(expos, dtype=np.uint64)
    keys = np.zeros(expos.shape[0], dtype=np.uint64)
    for k in range(expos.shape[1]):
        keys |= expos[:, k] << np.uint64(_SHIFT * k)
    return keys


def _unpack(keys: np.ndarray, nvars: int) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty((keys.size, nvars), dtype=np.int64)
    for k in range(nvars):
        out[:, k] = ((keys >> np.uint64(_SHIFT * k)) & np.uint64(_FIELD)).astype(np.int64)
    return out


def _reduce(keys: np.ndarray) -> np.ndarray:
    """Parity reduction: keep keys appearing an odd number of times."""
    if keys.size == 0:
        return keys.astype(np.uint64)
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq[counts % 2 == 1]


@dataclass(frozen=True)
class Mod2SymPoly:
    """GF(2) polynomial in at most four variables, stored as the
    sorted, read-only set of packed exponent keys. Equal and hashed by
    (nvars, keys)."""

    nvars: int
    keys: np.ndarray

    def __post_init__(self):
        if not 1 <= self.nvars <= MAX_VARS:
            raise InputError(f"nvars must be 1..{MAX_VARS}, got {self.nvars}")
        object.__setattr__(self, "keys", read_only(np.sort(np.asarray(self.keys, dtype=np.uint64))))

    @classmethod
    def zero(cls, nvars: int) -> "Mod2SymPoly":
        return cls(nvars, np.empty(0, dtype=np.uint64))

    @classmethod
    def one(cls, nvars: int) -> "Mod2SymPoly":
        return cls(nvars, np.zeros(1, dtype=np.uint64))

    @classmethod
    def from_exponents(cls, nvars: int, expos) -> "Mod2SymPoly":
        arr = np.atleast_2d(np.asarray(expos, dtype=np.int64))
        if arr.size == 0:
            return cls.zero(nvars)
        if arr.shape[1] != nvars:
            raise InputError(f"exponent rows must have {nvars} entries")
        if np.any(arr < 0) or np.any(arr > _FIELD):
            raise InputError("exponents must lie in [0, 65535]")
        return cls(nvars, _reduce(_pack(arr)))

    @property
    def monomial_count(self) -> int:
        return int(self.keys.size)

    @property
    def is_zero(self) -> bool:
        return self.keys.size == 0

    def exponents(self) -> np.ndarray:
        return _unpack(self.keys, self.nvars)

    def degree(self) -> int:
        if self.is_zero:
            return -1
        return int(self.exponents().sum(axis=1).max())

    def __add__(self, other: "Mod2SymPoly") -> "Mod2SymPoly":
        self._match(other)
        return Mod2SymPoly(self.nvars, _reduce(np.concatenate([self.keys, other.keys])))

    def __mul__(self, other: "Mod2SymPoly") -> "Mod2SymPoly":
        self._match(other)
        if self.is_zero or other.is_zero:
            return Mod2SymPoly.zero(self.nvars)
        prod = (self.keys[:, None] + other.keys[None, :]).ravel()
        return Mod2SymPoly(self.nvars, _reduce(prod))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mod2SymPoly)
            and self.nvars == other.nvars
            and np.array_equal(self.keys, other.keys)
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.keys.tobytes()))

    def _match(self, other: "Mod2SymPoly") -> None:
        if self.nvars != other.nvars:
            raise InputError("variable counts differ")

    def evaluate(self, point) -> int:
        """Value at a 0/1 point; a monomial contributes 1 exactly when
        every variable it uses is 1."""
        x = np.asarray(point, dtype=np.int64)
        if x.shape != (self.nvars,) or np.any((x != 0) & (x != 1)):
            raise InputError("evaluation point must be a 0/1 vector")
        expos = self.exponents()
        active = (expos > 0) @ (1 - x) == 0
        return int(np.count_nonzero(active) % 2)

    def permute(self, perm) -> "Mod2SymPoly":
        perm = list(perm)
        if sorted(perm) != list(range(self.nvars)):
            raise InputError("not a permutation of the variables")
        return Mod2SymPoly.from_exponents(self.nvars, self.exponents()[:, perm])

    def is_symmetric(self) -> bool:
        for i in range(self.nvars - 1):
            perm = list(range(self.nvars))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            if self.permute(perm) != self:
                return False
        return True

    def to_json(self) -> str:
        return json.dumps(
            {"nvars": self.nvars, "monomials": self.exponents().tolist()},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Mod2SymPoly":
        data = json.loads(text)
        return cls.from_exponents(int(data["nvars"]), data["monomials"])


def elementary_symmetric(nvars: int, k: int) -> Mod2SymPoly:
    """e_k, the sum of all squarefree degree-k monomials."""
    if not 0 <= k <= nvars:
        raise InputError(f"elementary index {k} outside 0..{nvars}")
    if k == 0:
        return Mod2SymPoly.one(nvars)
    rows = []
    for combo in itertools.combinations(range(nvars), k):
        e = [0] * nvars
        for i in combo:
            e[i] = 1
        rows.append(e)
    return Mod2SymPoly.from_exponents(nvars, rows)


@dataclass(frozen=True)
class SWTopClass:
    """Expanded top class (when materialized) with its bookkeeping."""

    poly: Mod2SymPoly | None
    factor_count: int
    all_ones: int


def _compositions(d: int, n: int):
    """All nonnegative integer n-tuples summing to d."""
    for cuts in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(d + n - 2 - prev)
        yield tuple(parts)


def stiefel_whitney_top(
    n: int,
    d: int,
    allow_even: bool = False,
    expand: bool = True,
    budget: int = 1 << 23,
) -> SWTopClass:
    """Top obstruction class: product over all compositions j of d
    into n parts of the linear form sum_k j_k x_k, over GF(2).

    Odd d only, unless allow_even is set (every even d has the
    composition (d, 0, ..., 0) whose form vanishes mod 2, so the
    product is identically zero). The all-ones evaluation multiplies
    the factor values d mod 2 directly; with expand=True the expansion
    is materialized too, raising BudgetExceeded past the monomial
    budget."""
    if not 1 <= n <= MAX_VARS:
        raise InputError(f"n must be 1..{MAX_VARS}, got {n}")
    if not 1 <= d <= 7:
        raise InputError(f"d must be 1..7, got {d}")
    if d % 2 == 0 and not allow_even:
        raise InputError(
            f"d={d} is even, the class vanishes identically; "
            "pass allow_even=True to build it anyway"
        )
    factor_count = math.comb(d + n - 1, n - 1)
    all_ones = (d % 2) ** factor_count

    poly = None
    if expand:
        poly = Mod2SymPoly.one(n)
        for j in _compositions(d, n):
            rows = [
                [1 if t == k else 0 for t in range(n)]
                for k in range(n)
                if j[k] % 2 == 1
            ]
            factor = Mod2SymPoly.from_exponents(n, rows) if rows else Mod2SymPoly.zero(n)
            poly = poly * factor
            if poly.monomial_count > budget:
                raise BudgetExceeded(
                    f"expansion exceeded {budget} monomials at factor {j}",
                    details={"partial": poly, "factor": j},
                )
    return SWTopClass(poly, factor_count, all_ones)


def sw_product_chain(
    n: int,
    d_max: int,
    budget: int = 1 << 23,
) -> dict:
    """Product of the top classes for d = 1, 3, ..., d_max.

    Returns the running product together with per-stage monomial
    counts. If the budget is exhausted the exception carries the
    partial product and the first stage that did not fit."""
    if d_max % 2 == 0:
        raise InputError(f"d_max must be odd, got {d_max}")
    prod = Mod2SymPoly.one(n)
    stages = []
    for d in range(1, d_max + 1, 2):
        top = stiefel_whitney_top(n, d, expand=True, budget=budget)
        new = prod * top.poly
        if new.monomial_count > budget:
            raise BudgetExceeded(
                f"chain product exceeded {budget} monomials at stage d={d}",
                details={"partial": prod, "completed_below": d},
            )
        prod = new
        stages.append({"d": d, "monomials": prod.monomial_count})
    return {"poly": prod, "stages": stages, "all_ones": prod.evaluate([1] * n)}


def express_elementary(poly: Mod2SymPoly) -> dict:
    """Rewrite a symmetric GF(2) polynomial in the elementary
    symmetric generators. Returns {exponent tuple over (e_1..e_n): 1};
    the classical leading-term descent, specialized to parity
    arithmetic."""
    if not poly.is_symmetric():
        raise InputError("polynomial is not symmetric")
    n = poly.nvars
    elem = [elementary_symmetric(n, k + 1) for k in range(n)]
    result = {}
    work = poly
    while not work.is_zero:
        expos = work.exponents()
        lead = max(map(tuple, expos[np.all(np.diff(expos, axis=1) <= 0, axis=1)]))
        powers = tuple(
            int(lead[k] - (lead[k + 1] if k + 1 < n else 0)) for k in range(n)
        )
        term = Mod2SymPoly.one(n)
        for k, p in enumerate(powers):
            for _ in range(p):
                term = term * elem[k]
        result[powers] = 1
        work = work + term
    return result


def expand_elementary(nvars: int, expression: dict) -> Mod2SymPoly:
    """Inverse of express_elementary: expand an elementary-exponent
    dictionary back into the variables."""
    total = Mod2SymPoly.zero(nvars)
    elem = [elementary_symmetric(nvars, k + 1) for k in range(nvars)]
    for powers, coeff in expression.items():
        if coeff % 2 == 0:
            continue
        term = Mod2SymPoly.one(nvars)
        for k, p in enumerate(powers):
            for _ in range(int(p)):
                term = term * elem[k]
        total = total + term
    return total


def euler_factorial_residue(d: int, p: int = 2) -> int:
    """Residue of d! modulo a prime, the order bookkeeping for the top
    class with integer coefficients: the class is d! times a generator,
    so it vanishes mod p exactly when the factorial does.

    >>> euler_factorial_residue(3)
    0
    >>> euler_factorial_residue(3, 5)
    1
    >>> [euler_factorial_residue(d, 5) for d in (1, 2, 3, 4, 5)]
    [1, 2, 1, 4, 0]
    """
    return math.factorial(d) % p
