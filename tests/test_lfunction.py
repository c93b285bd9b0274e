"""Extension-field point counts, Frobenius traces, and L-polynomials."""

import numpy as np
import pytest

from selmerfq import lfunction, weierstrass
from selmerfq.ffpoly import BinaryForm, UniPoly, field_make
from selmerfq.lfunction import (ExtField, charpoly_mod, frobenius_traces,
                                l_polynomial, surface_point_count,
                                surface_point_count_slow)
from selmerfq.rng import SplitMix64
from selmerfq.weierstrass import GroupElement, WeierstrassModel, act, random_model

# seed-0 minimal smooth model over F_5 and its frozen regression data
SEED0_MODEL = {"p": 5, "k": 1, "d": 1, "a2": [0, 0, 4], "a4": [4, 2, 0, 3, 0],
               "a6": [4, 0, 1, 1, 3, 1, 2]}
SEED0_L = [1, 5, 25, 125, 0, -3125, -15625, -78125, -390625]
SEED0_EPS = -1
SEED0_MOD2 = ([1, 1, 1, 1, 0, 1, 1, 1, 1], 4)


def _const_model(F, a6_val):
    return WeierstrassModel(
        F, 0, BinaryForm.zero(F, 0), BinaryForm.zero(F, 0),
        BinaryForm(F, 0, [F.from_int(a6_val)]))


def test_extfield_tables():
    E = ExtField(5, 2)
    assert E.Q == 25
    # exp/log are inverse on nonzero elements
    for k in range(24):
        assert E.log[E.exp[k]] == k
    # chi: squares of nonzero elements have chi = +1
    sq = set(int(E.exp[(2 * k) % 24]) for k in range(24))
    for a in range(1, 25):
        assert E.chi_table[a] == (1 if a in sq else -1)


@pytest.mark.parametrize("p,e", [(5, 1), (5, 3), (5, 4), (7, 2), (3, 5)])
def test_extfield_tables_match_scalar_powers(p, e):
    # the doubling build against g^i by repeated scalar Field.mul
    E = ExtField(p, e)
    g = E._generator(E.F)
    cur = E.F.one
    for i in range(E.Q - 1):
        assert E.exp[i] == cur and E.log[cur] == i
        cur = E.F.mul(cur, g)
    assert cur == E.F.one and E.log[0] == 0


def test_supersingular_constant_surface_count():
    # y^2 = x^3 + 1 over F_5 is supersingular (5 = 2 mod 3): each of the
    # 6 fibers has exactly 6 points, 36 total
    F = field_make(5)
    m = _const_model(F, 1)
    assert surface_point_count(m, 1) == 36
    assert surface_point_count_slow(m, 1) == 36


def test_fast_and_slow_counts_agree():
    F = field_make(5)
    rng = SplitMix64(41)
    for i in range(3):
        m = random_model(F, 1, rng, minimal=True)
        for e in (1, 2, 3) if i == 0 else (1, 2):
            assert surface_point_count(m, e) == surface_point_count_slow(m, e)


def test_seed0_traces_through_s7():
    # values from the earlier Zech-table kernel; the slow oracle cannot
    # reach e = 6, 7
    m = WeierstrassModel.from_json(SEED0_MODEL)
    assert frobenius_traces(m, 7) == [-5, -25, -125, 1875, 12500, -15625,
                                      -78125]


def test_fft_rounding_residual_rejected(monkeypatch):
    ifftn = np.fft.ifftn
    monkeypatch.setattr(lfunction.np.fft, "ifftn", lambda a: ifftn(a) + 0.3)
    m = WeierstrassModel.from_json(SEED0_MODEL)
    with pytest.raises(ValueError, match="residual"):
        surface_point_count(m, 2)


def test_table_budget_rejected():
    F = field_make(5)
    m = _const_model(F, 1)
    with pytest.raises(ValueError):
        surface_point_count(m, 12)


def test_traces_require_smooth():
    F = field_make(5)
    rng = SplitMix64(42)
    while True:
        m = random_model(F, 1, rng, minimal=True)
        if not weierstrass.is_smooth_surface(m):
            break
    with pytest.raises(ValueError):
        frobenius_traces(m, 2)


def test_trace_weight_bound_and_invariance():
    F = field_make(5)
    rng = SplitMix64(43)
    m = random_model(F, 1, rng, minimal=True, smooth=True)
    tv = frobenius_traces(m, 3)
    for e, s in enumerate(tv, start=1):
        assert abs(s) <= 8 * 5 ** e
    # point counts are isomorphism invariants
    g = GroupElement(BinaryForm(F, 2, [F.random(rng) for _ in range(3)]),
                     F.from_int(3))
    tv2 = frobenius_traces(act(g, m), 3)
    assert tv == tv2


def test_seed0_regression_fixture():
    m = WeierstrassModel.from_json(SEED0_MODEL)
    L = l_polynomial(m)
    assert L.coeffs == SEED0_L
    assert L.epsilon == SEED0_EPS
    assert L.degree == 8
    assert charpoly_mod(L, 2) == SEED0_MOD2


def test_l_polynomial_functional_equation():
    m = WeierstrassModel.from_json(SEED0_MODEL)
    L = l_polynomial(m)
    q = 5
    for i in range(0, 4):
        assert L.coeffs[8 - i] == L.epsilon * q ** (8 - 2 * i) * L.coeffs[i]
    roots = L.distinct_reciprocal_roots()
    assert np.all(np.abs(np.abs(roots) - q) <= 1e-6 * q)


def test_l_polynomial_rejects_other_heights():
    F = field_make(5)
    m = _const_model(F, 1)
    with pytest.raises(ValueError):
        l_polynomial(m)


def test_charpoly_mod_crt_consistency():
    m = WeierstrassModel.from_json(SEED0_MODEL)
    L = l_polynomial(m)
    c6, _ = charpoly_mod(L, 6)
    c2, _ = charpoly_mod(L, 2)
    c3, _ = charpoly_mod(L, 3)
    assert [c % 2 for c in c6] == c2
    assert [c % 3 for c in c6] == c3
    with pytest.raises(ValueError):
        charpoly_mod(L, 10)  # gcd(q, n) != 1


def test_charpoly_mod_unit_multiplicity_zero_case():
    # L = 1 + q^8 T^8 (supersingular, eps would be -1 gives 1 - q^8 T^8);
    # construct a literal LPolynomial with no unit root mod 3
    L = lfunction.LPolynomial(5, [1, 0, 0, 0, 0, 0, 0, 0, 5 ** 8], 1)
    _, mult = charpoly_mod(L, 3)
    assert mult == 0


def test_supersingular_epsilon_forced():
    # a2 = 0, a4 = 0, a6 = t^6 + 1-type models are often supersingular;
    # search a few seeds for an all-zero trace vector and check eps = -1
    F = field_make(5)
    rng = SplitMix64(44)
    found = False
    for _ in range(40):
        m = random_model(F, 1, rng, minimal=True)
        if not weierstrass.is_smooth_surface(m):
            continue
        if frobenius_traces(m, 4) != [0, 0, 0, 0]:
            continue
        L = l_polynomial(m)
        assert L.epsilon == -1
        assert L.coeffs == [1, 0, 0, 0, 0, 0, 0, 0, -5 ** 8]
        found = True
        break
    assert found
