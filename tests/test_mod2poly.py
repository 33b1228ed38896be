import doctest
import math

import numpy as np
import pytest

import convexsphere.mod2poly as mod2poly
from convexsphere.errors import BudgetExceeded, InputError
from convexsphere.mod2poly import (
    Mod2SymPoly,
    elementary_symmetric,
    expand_elementary,
    express_elementary,
    stiefel_whitney_top,
    sw_product_chain,
)

from oracles import Gf2Poly, sw_top_oracle


def _as_oracle(p: Mod2SymPoly) -> Gf2Poly:
    return Gf2Poly(p.nvars, map(tuple, p.exponents()))


def _random_poly(nvars, rng, terms=6, max_exp=4):
    rows = rng.integers(0, max_exp + 1, size=(terms, nvars))
    return Mod2SymPoly.from_exponents(nvars, rows)


def test_ring_ops_match_dict_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        p = _random_poly(n, rng)
        q = _random_poly(n, rng)
        assert _as_oracle(p + q).monos == (_as_oracle(p) + _as_oracle(q)).monos
        assert _as_oracle(p * q).monos == (_as_oracle(p) * _as_oracle(q)).monos


def test_add_is_cancellation():
    p = Mod2SymPoly.from_exponents(2, [[1, 0], [0, 1]])
    assert (p + p).monomial_count == 0


def test_elementary_symmetric_expansions():
    e2 = elementary_symmetric(3, 2)
    assert set(map(tuple, e2.exponents())) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    e0 = elementary_symmetric(3, 0)
    assert set(map(tuple, e0.exponents())) == {(0, 0, 0)}
    assert elementary_symmetric(2, 2).monomial_count == 1


def test_is_symmetric():
    assert elementary_symmetric(4, 2).is_symmetric()
    assert not Mod2SymPoly.from_exponents(3, [[2, 1, 0]]).is_symmetric()


def test_evaluate_at_01_points():
    e2 = elementary_symmetric(3, 2)
    assert e2.evaluate([1, 1, 1]) == 1  # three terms, odd count
    assert e2.evaluate([1, 1, 0]) == 1
    assert e2.evaluate([1, 0, 0]) == 0


def test_permute_variables():
    p = Mod2SymPoly.from_exponents(3, [[2, 1, 0]])
    q = p.permute([2, 0, 1])
    assert set(map(tuple, q.exponents())) in ({(0, 2, 1)}, {(1, 0, 2)})
    assert q.monomial_count == 1


def test_json_roundtrip():
    p = elementary_symmetric(4, 3)
    q = Mod2SymPoly.from_json(p.to_json())
    assert q == p


def test_sw_frozen_small_cases():
    assert set(map(tuple, stiefel_whitney_top(2, 3).poly.exponents())) == {(2, 2)}
    assert set(map(tuple, stiefel_whitney_top(1, 5).poly.exponents())) == {(1,)}


def test_sw_expansion_matches_oracle_everywhere():
    for n in range(1, 5):
        for d in (1, 3, 5, 7):
            got = stiefel_whitney_top(n, d)
            want = sw_top_oracle(n, d)
            assert set(map(tuple, got.poly.exponents())) == want.monos
            assert got.all_ones == want.value_at_ones() == 1


def test_sw_even_degree_guard():
    with pytest.raises(InputError):
        stiefel_whitney_top(2, 4)
    cls = stiefel_whitney_top(2, 4, allow_even=True)
    assert cls.all_ones == 0
    assert cls.poly.monomial_count == 0


def test_sw_factor_count():
    cls = stiefel_whitney_top(3, 5)
    assert cls.factor_count == math.comb(7, 2)


def test_sw_budget_exceeded_carries_partial():
    with pytest.raises(BudgetExceeded) as info:
        stiefel_whitney_top(4, 7, budget=4)
    assert "partial" in info.value.details


def test_sw_expand_false_skips_expansion():
    cls = stiefel_whitney_top(4, 7, expand=False)
    assert cls.poly is None
    assert cls.all_ones == 1


def test_chain_nonzero_and_stage_counts():
    out = sw_product_chain(3, 5)
    assert out["poly"].monomial_count > 0
    assert out["all_ones"] == 1
    assert [s["d"] for s in out["stages"]] == [1, 3, 5]
    for s in out["stages"]:
        assert s["monomials"] > 0


def test_chain_d1_is_top_elementary():
    out = sw_product_chain(3, 1)
    assert out["poly"] == elementary_symmetric(3, 3)


def test_chain_rejects_even_dmax():
    with pytest.raises(InputError):
        sw_product_chain(2, 4)


def test_express_elementary_roundtrip():
    # symmetric inputs decompose into elementary symmetric polynomials
    # and expand back to themselves
    cases = [
        elementary_symmetric(3, 2) * elementary_symmetric(3, 1),
        stiefel_whitney_top(2, 3).poly,
        stiefel_whitney_top(3, 3).poly,
    ]
    for p in cases:
        expr = express_elementary(p)
        assert expand_elementary(p.nvars, expr) == p


def test_express_elementary_frozen_case():
    expr = express_elementary(stiefel_whitney_top(2, 3).poly)
    # x1^2 x2^2 = (x1 x2)^2 = e2^2 over GF(2)
    assert expr == {(0, 2): 1}


def test_euler_factorial_residue_doctests():
    results = doctest.testmod(mod2poly, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 3
