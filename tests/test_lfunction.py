"""Extension-field point counts, Frobenius traces, and L-polynomials."""

import collections
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy

from selmerfq import (DomainError, cli, lfunction, localdata,
                      weierstrass)
from selmerfq.census import random_models
from selmerfq.ffpoly import BinaryForm, Field, UniPoly, field_make
from selmerfq.lfunction import (ExtField, frobenius_traces, l_polynomial,
                                selmer_bounds, surface_point_count,
                                surface_point_count_slow)
from selmerfq.rng import SplitMix64
from selmerfq.weierstrass import GroupElement, WeierstrassModel, act, random_model

# seed-0 minimal smooth model over F_5 and its frozen regression data
SEED0_MODEL = {"p": 5, "k": 1, "d": 1, "a2": [0, 0, 4], "a4": [4, 2, 0, 3, 0],
               "a6": [4, 0, 1, 1, 3, 1, 2]}
SEED0_L = [1, 5, 25, 125, 0, -3125, -15625, -78125, -390625]
SEED0_EPS = -1

# smooth F_5 models whose sign S_5 cannot fix, as c_3 = c_4 = 0: with
# c_2 != 0 (S_6 fixes it), with c_2 = 0 and c_1 != 0 (S_7), and with
# S_1..S_4 all zero (L = 1 + eps q^8 T^8); drawn by the lpoly-q5d1 benchmark
SIGN_BY_S6 = {"p": 5, "k": 1, "d": 1, "a2": [4, 1, 3], "a4": [1, 3, 4, 2, 3],
              "a6": [0, 4, 2, 3, 1, 0, 2]}
SIGN_BY_S7 = {"p": 5, "k": 1, "d": 1, "a2": [2, 1, 0], "a4": [0, 4, 1, 2, 2],
              "a6": [1, 0, 0, 4, 3, 0, 3]}
ALL_TRACES_ZERO = {"p": 5, "k": 1, "d": 1, "a2": [2, 0, 2],
                   "a4": [2, 4, 4, 1, 3], "a6": [0, 1, 4, 0, 2, 3, 3]}
# a smooth F_11 model (the fifth smooth minimal draw of SplitMix64(0))
# with c_2 = c_3 = c_4 = 0 and c_1 != 0: a sign from traces alone needs
# S_7, and 11^7 is past the 2^24 table budget
Q11_C1_ONLY = {"p": 11, "k": 1, "d": 1, "a2": [5, 10, 8],
               "a4": [6, 4, 2, 9, 1], "a6": [0, 6, 1, 6, 1, 9, 0]}


def _const_model(F, a6_val):
    return WeierstrassModel(
        F, 0, BinaryForm.zero(F, 0), BinaryForm.zero(F, 0),
        BinaryForm(F, 0, [F.from_int(a6_val)]))


def _scalar_field(p, e):
    """The scalar Field over ExtField(p, e)'s modulus, the least primitive."""
    tail, _ = lfunction._primitive_modulus(p, e)
    return Field.extension(UniPoly(Field(p), tail.tolist() + [1]))


def test_extfield_tables():
    E = ExtField(5, 2)
    assert E.Q == 25
    # exp/log are inverse on nonzero elements
    for k in range(24):
        assert E.log[E.exp[k]] == k
    # chi off the parity of log: +1 exactly on the squares of nonzero
    # elements, as the scalar field's character says
    F = _scalar_field(5, 2)
    sq = set(int(E.exp[(2 * k) % 24]) for k in range(24))
    for a in range(1, 25):
        chi = 1 if E.log[a] % 2 == 0 else -1
        assert chi == (1 if a in sq else -1) == F.chi(a)


@pytest.mark.parametrize("p,e", [(5, 1), (5, 3), (5, 4), (7, 2), (3, 5)])
def test_extfield_tables_match_scalar_powers(p, e):
    # the generator is x, whose code is p, or -c_0 when the modulus is
    # x + c_0; the doubling build against x^i by repeated scalar Field.mul
    E, F = ExtField(p, e), _scalar_field(p, e)
    x = p if e > 1 else -F.modulus.coeffs[0] % p
    assert E.exp[1] == x
    cur = F.one
    for i in range(E.Q - 1):
        assert E.exp[i] == cur and E.log[cur] == i
        cur = F.mul(cur, x)
    assert cur == F.one and E.log[0] == 2 * (E.Q - 1)


@pytest.mark.parametrize("p,e", [(5, 1), (5, 2), (7, 2), (3, 3)])
def test_extfield_mul_matches_scalar_mul_on_every_pair(p, e):
    # zeros included: log 0 = 2(Q - 1) must land in the zero tail of exp
    E, F = ExtField(p, e), _scalar_field(p, e)
    a, b = np.divmod(np.arange(E.Q ** 2), E.Q)
    assert E.mul(a, b).tolist() == [F.mul(int(x), int(y))
                                    for x, y in zip(a, b)]


@pytest.mark.parametrize("p,e", [(3, e) for e in range(1, 7)]
                         + [(5, e) for e in range(1, 6)]
                         + [(7, 1), (7, 2), (7, 3), (11, 1), (11, 2),
                            (13, 1), (13, 2)])
def test_extfield_modulus_is_least_primitive(p, e):
    # scalar brute force: the least code with f(0) != 0 such that x has
    # order exactly p^e - 1 in F_p[x]/(f); a primitive f is irreducible
    Q = p ** e
    for code in range(Q):
        tail = [code // p ** i % p for i in range(e)]
        if tail[0] == 0:
            continue
        K = Field.extension(UniPoly(Field(p), tail + [1]))
        x = p if e > 1 else -tail[0] % p
        if K.pow(x, Q - 1) == 1 and all(K.pow(x, (Q - 1) // ell) != 1
                                        for ell in sympy.primefactors(Q - 1)):
            break
    modulus = _scalar_field(p, e).modulus
    assert list(modulus.coeffs) == tail + [1]
    T = sympy.Symbol("T")
    assert sympy.Poly(list(reversed(modulus.coeffs)), T,
                      modulus=p).is_irreducible


@pytest.mark.parametrize("p,e", [(5, 1), (5, 2), (7, 1), (7, 2), (11, 1)])
def test_extfield_character_sums(p, e):
    # h_eps(b) = sum_v chi(v^3 + eps v + b), summed with scalar Field ops
    E, F = ExtField(p, e), _scalar_field(p, e)
    for k, eps in enumerate((0, 1, int(E.exp[1]))):
        for b in F.elements():
            h = sum(F.chi(F.add(F.mul(F.add(F.mul(v, v), eps), v), b))
                    for v in F.elements())
            assert E.h[k, b] == h


def test_supersingular_constant_surface_count():
    # y^2 = x^3 + 1 over F_5 is supersingular (5 = 2 mod 3): each of the
    # 6 fibers has exactly 6 points, 36 total
    F = field_make(5)
    m = _const_model(F, 1)
    assert surface_point_count(m, 1) == 36
    assert surface_point_count_slow(m, 1) == 36


@pytest.mark.parametrize("q,d,models,e_max", [(5, 1, 3, 3), (7, 1, 2, 2),
                                               (5, 2, 1, 2)],
                         ids=["q5-d1", "q7-d1", "q5-d2"])
def test_fast_and_slow_counts_agree(q, d, models, e_max):
    # the slow count reads a2, a4, a6; the fast one c4 and c6
    F = field_make(q)
    rng = SplitMix64(41)
    for i in range(models):
        m = random_model(F, d, rng, minimal=True)
        for e in range(1, (e_max if i == 0 else 2) + 1):
            assert surface_point_count(m, e) == surface_point_count_slow(m, e)


def test_seed0_traces_through_s7():
    # values from the earlier Zech-table kernel; the slow oracle cannot
    # reach e = 6, 7
    m = WeierstrassModel.from_json(SEED0_MODEL)
    assert frobenius_traces(m, 7) == [-5, -25, -125, 1875, 12500, -15625,
                                      -78125]


def test_fft_rounding_residual_rejected(monkeypatch):
    # a fresh table cache, so that ExtField builds h and runs the check
    monkeypatch.setattr(lfunction.ExtField, "_cache", {})
    ifftn = np.fft.ifftn
    monkeypatch.setattr(lfunction.np.fft, "ifftn", lambda a: ifftn(a) + 0.3)
    m = WeierstrassModel.from_json(SEED0_MODEL)
    with pytest.raises(ValueError, match="FFT rounding residual 0.3 "
                       "exceeds 0.25 at q\\^e = 25"):
        surface_point_count(m, 2)


# y^2 = x^3 + t^3: cusps at t = 0 and infinity, where c4 = c6 = 0 and the
# fiber count reads h_0(0); every other fiber is good
CUSPS = {"p": 5, "k": 1, "d": 1, "a2": [0, 0, 0], "a4": [0, 0, 0, 0, 0],
         "a6": [0, 0, 0, 1, 0, 0, 0]}


# c6 = 0 on every fiber: y^2 = x^3 + t s^3 x; c4 = 0 on every fiber:
# y^2 = x^3 + t^3 s^3 + s^6.  With CUSPS they reach the A = 0 row and the
# B = 0 column of the fiber lookup at every e
PLANTED = {
    "c6-zero": {"p": 5, "k": 1, "d": 1, "a2": [0, 0, 0],
                "a4": [0, 1, 0, 0, 0], "a6": [0, 0, 0, 0, 0, 0, 0]},
    "c4-zero": {"p": 5, "k": 1, "d": 1, "a2": [0, 0, 0],
                "a4": [0, 0, 0, 0, 0], "a6": [1, 0, 0, 1, 0, 0, 0]},
    "cusps": CUSPS,
}


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("name", sorted(PLANTED))
def test_fast_and_slow_counts_agree_on_planted_models(p, name):
    m = WeierstrassModel.from_json(dict(PLANTED[name], p=p))
    for e in range(1, 4):
        assert surface_point_count(m, e) == surface_point_count_slow(m, e)


@pytest.mark.parametrize("entries,message", [
    (np.s_[:, :], "Hasse bound violated at q\\^e = 5"),
    (np.s_[0, 0], "singular fiber count out of range at q\\^e = 5"),
], ids=["every-entry", "cusp-entry"])
def test_fiber_count_checks_fire_on_a_wrong_table(monkeypatch, entries,
                                                  message):
    # h off by 2 q^e: at every entry the good fibers leave the Hasse bound,
    # at h_0(0) alone only the cusps leave [q^e - 1, q^e + 2]
    E = ExtField(5, 1)
    h = E.h.copy()
    h[entries] += 2 * E.Q
    monkeypatch.setattr(E, "h", h)
    with pytest.raises(ValueError, match=message):
        surface_point_count(WeierstrassModel.from_json(CUSPS), 1)


def test_weight_bound_check_fires(monkeypatch):
    monkeypatch.setattr(lfunction, "surface_point_count", lambda m, e: 10 ** 6)
    with pytest.raises(ValueError, match="weight bound violated: \\|S_1\\|"):
        frobenius_traces(WeierstrassModel.from_json(SEED0_MODEL), 4)


def test_non_integral_newton_coefficient_exits_1(monkeypatch, tmp_path,
                                                 capsys):
    # power sums 1, 0, 0, 0 give c_2 = 1/2, which no L-polynomial has
    monkeypatch.setattr(lfunction, "frobenius_traces",
                        lambda m, k: [1, 0, 0, 0])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(SEED0_MODEL))
    assert cli.main(["lfunction", "--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-integral Newton coefficient c_2 = 1/2" in captured.err


def test_table_budget_rejected():
    F = field_make(5)
    m = _const_model(F, 1)
    with pytest.raises(ValueError):
        surface_point_count(m, 12)


def test_counts_need_a_prime_base_field():
    # F_25 codes are not F_{5^(2e)} codes: Field(5, 2e) has its own modulus
    m = _const_model(field_make(5, 2), 1)
    for count in (surface_point_count, surface_point_count_slow):
        with pytest.raises(ValueError, match="prime base field"):
            count(m, 2)


def test_traces_require_smooth():
    F = field_make(5)
    rng = SplitMix64(42)
    while True:
        m = random_model(F, 1, rng, minimal=True)
        if not weierstrass.is_smooth_surface(m):
            break
    with pytest.raises(ValueError):
        frobenius_traces(m, 2)


def test_traces_outside_p_at_least_5_raise_domain_error():
    # p = 3 is outside the gcd test's domain: a DomainError on every draw,
    # never the ZeroDivisionError of dividing by 48 in F_3
    rng = SplitMix64(5)
    for _ in range(20):
        m = random_model(Field(3), 1, rng, minimal=True)
        with pytest.raises(DomainError, match="p >= 5"):
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


def test_l_polynomial_functional_equation():
    m = WeierstrassModel.from_json(SEED0_MODEL)
    L = l_polynomial(m)
    q = 5
    for i in range(0, 4):
        assert L.coeffs[8 - i] == L.epsilon * q ** (8 - 2 * i) * L.coeffs[i]


def test_l_polynomial_rejects_other_heights():
    F = field_make(5)
    m = _const_model(F, 1)
    with pytest.raises(ValueError):
        l_polynomial(m)


def test_selmer_bounds_pinned():
    # SEED0: P = Phi_1 Phi_2 Phi_4 Phi_5, so hi = 1 + 1 + 2 at ell = 2, the
    # multiplicity of (1 - T) in L mod 2 (L = P mod 2 for odd q), and
    # hi = m_1 at ell = 3
    L = l_polynomial(WeierstrassModel.from_json(SEED0_MODEL))
    assert L.factorization == {1: 1, 2: 1, 4: 1, 5: 1}
    assert selmer_bounds(L, 2) == (1, 4, False)
    assert _unit_root_multiplicity(L.coeffs, 2) == 4
    assert selmer_bounds(L, 3) == (1, 1, True)
    assert L.to_json()["selmer_bounds"] == {
        "2": {"lo": 1, "hi": 4, "exact": False},
        "3": {"lo": 1, "hi": 1, "exact": True}}
    # P = 1 + T^8 = Phi_16 = (1 - T)^8 mod 2, with no root 1 mod 3
    L = lfunction.LPolynomial(5, [1, 0, 0, 0, 0, 0, 0, 0, 5 ** 8], 1)
    assert L.factorization == {16: 1}
    assert selmer_bounds(L, 2) == (0, 8, False)
    assert selmer_bounds(L, 3) == (0, 0, True)


def _unit_root_multiplicity(P, ell):
    """Multiplicity of (1 - T) in P mod ell, by synthetic division."""
    work = [c % ell for c in P]
    mult = 0
    while len(work) > 1 and sum(work) % ell == 0:
        quot = [0] * (len(work) - 1)  # work = (T - 1) quot, top down
        carry = 0
        for i in range(len(work) - 1, 0, -1):
            carry = (work[i] + carry) % ell
            quot[i - 1] = carry
        work = quot
        mult += 1
    return mult


def _rank_mod(A, ell):
    """Rank of an integer matrix mod the prime ell, by Gaussian elimination."""
    A = [[int(x) % ell for x in row] for row in A]
    rank = 0
    for col in range(len(A[0])):
        pivot = next((r for r in range(rank, len(A)) if A[r][col]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = pow(A[rank][col], -1, ell)
        A[rank] = [x * inv % ell for x in A[rank]]
        for r in range(len(A)):
            if r != rank and A[r][col]:
                f = A[r][col]
                A[r] = [(x - f * y) % ell for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


def _charpoly_reversed(w):
    """det(1 - w T), lowest degree first, by Faddeev-LeVerrier over Z."""
    n = len(w)
    coeffs = [1]  # c_k of det(x - w) = sum c_k x^(n-k)
    M = np.zeros_like(w)
    for k in range(1, n + 1):
        M = w @ M + coeffs[-1] * np.eye(n, dtype=np.int64)
        tr = int(np.trace(w @ M))
        assert tr % k == 0
        coeffs.append(-tr // k)
    return coeffs


# E8 Dynkin diagram, Bourbaki labels 0..7: the chain 0-2-3-4-5-6-7 and 1-3
E8_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]


def test_selmer_bounds_bracket_on_weyl_e8():
    # Frobenius acts on E8 as q w, so P_w(T) = det(1 - w T); the kernel of
    # w - 1 on E8 / ell E8 must lie in [lo, hi], with equality when exact
    cartan = 2 * np.eye(8, dtype=np.int64)
    for i, j in E8_EDGES:
        cartan[i, j] = cartan[j, i] = -1
    # s_i(e_j) = e_j - cartan[i, j] e_i on the simple-root basis
    simple = []
    for i in range(8):
        s = np.eye(8, dtype=np.int64)
        s[i] -= cartan[i]
        simple.append(s)
    rng = SplitMix64(2024)
    words = []
    for _ in range(2000):
        w = np.eye(8, dtype=np.int64)
        for _ in range(1 + rng.below(40)):
            w = simple[rng.below(8)] @ w
        words += [w, -w]
    x = sympy.Symbol("x")
    for w in words[:20]:  # the integer charpoly against sympy's
        ref = sympy.Matrix(w.tolist()).charpoly(x).all_coeffs()
        assert _charpoly_reversed(w) == [int(c) for c in ref]
    exact = {2: 0, 3: 0}
    for w in words:
        assert (w.T @ cartan @ w == cartan).all()
        P = _charpoly_reversed(w)
        L = lfunction.LPolynomial(5, [c * 5 ** i for i, c in enumerate(P)], 1)
        for ell in (2, 3):
            lo, hi, is_exact = selmer_bounds(L, ell)
            kernel = 8 - _rank_mod(w - np.eye(8, dtype=np.int64), ell)
            assert lo <= kernel <= hi, (w.tolist(), ell, lo, kernel, hi)
            assert hi == _unit_root_multiplicity(P, ell)
            if is_exact:
                assert kernel == lo
            exact[ell] += is_exact
    assert 0 < exact[2] < len(words) and 0 < exact[3] < len(words)


@pytest.mark.parametrize("q", [5, 7])
def test_selmer_bounds_read_p_not_l(q):
    # hi is the multiplicity of (1 - T) in P(T) = L(T/q) mod ell, divided
    # out here; L(T) mod ell differs from P mod ell unless q = 1 mod ell
    models = random_models(field_make(q), 1, SplitMix64(q), 150,
                           minimal=True, smooth=True)
    assert len(models) == 150
    for m in models:
        L = l_polynomial(m)
        P = [c // q ** i for i, c in enumerate(L.coeffs)]
        for ell in (2, 3):
            assert selmer_bounds(L, ell)[1] == _unit_root_multiplicity(P, ell)


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


@pytest.mark.parametrize("model,eps", [(SIGN_BY_S6, -1), (SIGN_BY_S7, 1),
                                       (ALL_TRACES_ZERO, -1)])
def test_root_number_matches_newton_c8(model, eps):
    # c_8 = eps q^8 by Newton on S_1..S_8, without the functional equation
    m = WeierstrassModel.from_json(model)
    c = lfunction._newton_coeffs(frobenius_traces(m, 8))
    assert c[8] == eps * 5 ** 8
    assert localdata.root_number(m) == eps
    L = l_polynomial(m)
    assert (L.coeffs, L.epsilon) == (c, eps)


def _signs_from_s5(m):
    """The signs eps that the functional equation and S_5 allow: c_5 =
    eps q^2 c_3 must be Newton's c_5 from S_1..S_5."""
    q = m.field.q
    try:
        c = lfunction._newton_coeffs(frobenius_traces(m, 5))
    except ValueError:  # non-integral c_5: no sign fits
        return []
    return [eps for eps in (1, -1) if (c[4] == 0 or eps == 1)
            and eps * q ** 2 * c[3] == c[5]]


@pytest.mark.parametrize("model", [SIGN_BY_S6, SIGN_BY_S7, ALL_TRACES_ZERO],
                         ids=["S6", "S7", "zero"])
def test_root_number_routes_disagree_on_a_wrong_sign(model, monkeypatch,
                                                     tmp_path, capsys):
    # c_3 = 0 on all three models, so S_5 could not see a wrong sign: the
    # root number by reciprocity does, and lfunction exits 1
    m = WeierstrassModel.from_json(model)
    eps = localdata.root_number(m)
    monkeypatch.setattr(localdata, "root_number", lambda *args: -eps)
    with pytest.raises(ValueError, match="root number routes disagree"):
        l_polynomial(m)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    capsys.readouterr()
    assert cli.main(["lfunction", "--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "root number routes disagree" in captured.err


def test_minus_sign_on_a_c4_model_fits_no_product(monkeypatch):
    # every eps = -1 product has c_4 = 0, so a planted eps = -1 on a model
    # with c_4 != 0 leaves a key that no product of cyclotomics has
    F, rng = field_make(5), SplitMix64(3)
    m = random_model(F, 1, rng, minimal=True, smooth=True)
    while lfunction._newton_coeffs(frobenius_traces(m, 4))[4] == 0:
        m = random_model(F, 1, rng, minimal=True, smooth=True)
    for route in ("root_number", "root_number_by_reciprocity"):
        monkeypatch.setattr(localdata, route, lambda *args: -1)
    with pytest.raises(ValueError, match="weight-2 purity failed: .* the "
                       "key \\(1, -2, 1, 1, -1\\)"):
        l_polynomial(m)


def test_root_number_routes_agree_on_a_grid():
    # 1008 smooth models; q = 7 and 11 are 3 mod 4, where the reciprocity
    # sign (-1)^((q-1)/2 deg a deg b) of ffpoly.jacobi can be -1
    seen = collections.Counter()
    for q in (5, 7, 11, 13):
        for d in (1, 2, 3):
            models = random_models(field_make(q), d, SplitMix64(10 * q + d),
                                   84, minimal=True, smooth=True)
            assert len(models) == 84
            for m in models:
                w = localdata.root_number(m)
                assert localdata.root_number_by_reciprocity(m) == w, (q, d, m)
                dt = weierstrass.discriminant(m).dehomog_t()
                seen[q % 4, "w", w] += 1
                seen[q % 4, "II", dt.gcd(dt.hasse(1)).degree() % 2] += 1
                seen["ord_inf", 12 * d - dt.degree()] += 1
    # both signs, II places in odd and even total degree for both classes
    # of q mod 4, and I_1, II and good fibers at infinity
    assert len(seen) == 4 * 2 + 3, seen
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("model", [SEED0_MODEL, SIGN_BY_S6, SIGN_BY_S7,
                                   ALL_TRACES_ZERO],
                         ids=["seed0", "S6", "S7", "zero"])
def test_s5_check_of_the_returned_l(model):
    # S_5 as a named check off the per-call path: Newton's c_5 from the
    # counted S_1..S_5 is eps q^2 c_3, the c_5 of the functional equation
    m = WeierstrassModel.from_json(model)
    L = l_polynomial(m)
    c = lfunction._newton_coeffs(frobenius_traces(m, 5))
    assert c[:5] == L.coeffs[:5]
    assert c[5] == L.coeffs[5] == L.epsilon * 5 ** 2 * L.coeffs[3]


def test_root_number_matches_s5_sign_q7():
    # q = 7 = 3 mod 4, so a type II place of odd degree has w_v = -1
    F = field_make(7)
    rng = SplitMix64(0)
    decided = odd_type_ii = 0
    for _ in range(12):
        m = random_model(F, 1, rng, minimal=True, smooth=True)
        signs = _signs_from_s5(m)
        if len(signs) != 1:
            continue
        decided += 1
        assert localdata.root_number(m) == signs[0]
        odd_type_ii += any(pd.kodaira == "II" and pd.place.degree() % 2
                           for pd in localdata.global_summary(m).places)
    assert decided >= 6
    assert odd_type_ii


def test_q11_model_past_the_s7_budget():
    L = l_polynomial(WeierstrassModel.from_json(Q11_C1_ONLY))
    assert L.coeffs == [1, -11, 0, 0, 0, 0, 0, -11 ** 7, 11 ** 8]
    # L(T/11) = (1 - T)(1 - T^7) = Phi_1^2 Phi_7
    assert (L.epsilon, L.factorization) == (1, {1: 2, 7: 1})


@pytest.mark.parametrize("model,degrees", [(SIGN_BY_S7, [1, 2, 3, 4]),
                                           (SEED0_MODEL, [1, 2, 3])],
                         ids=["open-key", "unique-key"])
def test_l_polynomial_counts_s4_only_on_an_open_key(model, degrees,
                                                    monkeypatch):
    # SIGN_BY_S7's key (c_1..c_3 / q^i, eps) holds several products, so
    # S_4 decides; SEED0's holds one, and F_{5^4} is never built
    monkeypatch.setattr(ExtField, "_cache", {})
    seen = []
    count = lfunction.surface_point_count

    def spy(m, e):
        seen.append(e)
        return count(m, e)
    monkeypatch.setattr(lfunction, "surface_point_count", spy)
    l_polynomial(WeierstrassModel.from_json(model))
    assert seen == degrees
    assert sorted(ExtField._cache) == [(5, e) for e in degrees]


@pytest.mark.parametrize("shift,message", [
    (10 ** 6, "weight bound violated: \\|S_4\\|"),
    (1, "non-integral Newton coefficient c_4"),
    (4 * 5 ** 4, "weight-2 purity failed: .* key \\(1, -1, 0, 0, 1, -1\\)"),
], ids=["weight-bound", "newton", "purity"])
def test_a_wrong_s4_fails_a_check_on_an_open_key(shift, message, monkeypatch):
    # SIGN_BY_S7's key holds the products with P_4 = 0 and 1; S_4 + 4 q^4
    # moves Newton's c_4 / q^4 to -1, which no product of the key has
    count = lfunction.surface_point_count
    monkeypatch.setattr(lfunction, "surface_point_count",
                        lambda m, e: count(m, e) + shift * (e == 4))
    with pytest.raises(ValueError, match=message):
        l_polynomial(WeierstrassModel.from_json(SIGN_BY_S7))


def _l_polynomial_by_s4(m, eps):
    """The forced route: Newton on S_1..S_4, the functional equation with
    eps for the top half, and LPolynomial's exact factorization."""
    q = m.field.q
    c = lfunction._newton_coeffs(frobenius_traces(m, 4))
    return lfunction.LPolynomial(q, c + [eps * q ** (8 - 2 * i) * c[i]
                                         for i in range(3, -1, -1)], eps)


def _assert_lookup_matches_s4(models):
    """l_polynomial against the forced S_4 route on each model; returns
    how many models had an open key."""
    table, opened = lfunction._cyclotomic_products(), 0
    for m in models:
        L = l_polynomial(m)
        forced = _l_polynomial_by_s4(m, L.epsilon)
        assert (L.coeffs, L.epsilon, L.factorization) == \
            (forced.coeffs, forced.epsilon, forced.factorization), m
        q = L.q
        opened += len(table[tuple(c // q ** i for i, c in enumerate(
            L.coeffs[:4])) + (L.epsilon,)]) > 1
    return opened


@pytest.mark.parametrize("q,n", [(5, 40), (7, 40), (11, 20), (13, 20),
                                 (17, 12)])
def test_lookup_matches_forced_s4_on_seeded_models(q, n):
    models = random_models(field_make(q), 1, SplitMix64(1000 + q), n,
                           minimal=True, smooth=True)
    assert len(models) == n
    assert 0 < _assert_lookup_matches_s4(models) < n


def test_lookup_matches_forced_s4_on_the_root_number_grid():
    # the d = 1 models of test_root_number_routes_agree_on_a_grid
    opened = 0
    for q in (5, 7, 11, 13):
        models = random_models(field_make(q), 1, SplitMix64(10 * q + 1), 84,
                               minimal=True, smooth=True)
        assert len(models) == 84
        opened += _assert_lookup_matches_s4(models)
    assert 0 < opened < 336


def _totient_multisets(ks, budget):
    """Sorted tuples from ks (ascending, repeats allowed) whose totients
    sum to budget."""
    if budget == 0:
        yield ()
    for i, k in enumerate(ks):
        if sympy.totient(k) <= budget:
            for rest in _totient_multisets(ks[i:], budget - sympy.totient(k)):
                yield (k,) + rest


def test_cyclotomic_product_table_pinned():
    # products from sympy's cyclotomic polynomials over every k with
    # phi(k) <= 8 (the k <= 30 of _CYCLOTOMIC, searched up to 100)
    T = sympy.Symbol("T")
    ks = [k for k in range(1, 101) if sympy.totient(k) <= 8]
    products = {}
    for ms in _totient_multisets(ks, 8):
        P = sympy.Poly(sympy.prod(sympy.cyclotomic_poly(k, T) for k in ms), T)
        P = [int(a) for a in reversed(P.all_coeffs())]
        products[tuple(a * P[0] for a in P)] = collections.Counter(ms)
    assert len(products) == 224
    table = lfunction._cyclotomic_products()
    assert sorted(map(tuple, sum(table.values(), []))) == sorted(products)
    assert len(table) == 200
    for key, fits in table.items():
        assert all((*P[:4], P[8]) == key for P in fits)
    open_keys = [key for key, fits in table.items()
                 if len({P[4] for P in fits}) > 1]
    assert len(open_keys) == 17 and {key[-1] for key in open_keys} == {1}
    # eps = -1 forces c_4 = 0; 37 of 163 (c_1, c_2, c_3) take both signs
    assert {P[4] for key, fits in table.items() if key[-1] == -1
            for P in fits} == {0}
    signs = collections.Counter(key[1:4] for key in table)
    assert (len(signs), list(signs.values()).count(2)) == (163, 37)
    for q in (5, 13):
        for P, ms in products.items():
            assert lfunction.cyclotomic_factorization(
                q, [a * q ** i for i, a in enumerate(P)]) == ms


def test_cyclotomic_factorization_of_seed0():
    L = l_polynomial(WeierstrassModel.from_json(SEED0_MODEL))
    # L(T/5) = 1 + T + T^2 + T^3 - T^5 - T^6 - T^7 - T^8
    assert L.factorization == {1: 1, 2: 1, 4: 1, 5: 1}
    report = L.to_json()
    assert report["cyclotomic_factorization"] == {1: 1, 2: 1, 4: 1, 5: 1}
    assert report["analytic_rank"] == 1


@pytest.mark.parametrize("i", range(1, 9))
def test_perturbed_coefficient_rejected(i):
    c = list(SEED0_L)
    c[i] += 5 ** i
    with pytest.raises(ValueError, match="purity"):
        lfunction.LPolynomial(5, c, SEED0_EPS)
    c[i] += 1
    with pytest.raises(ValueError, match="not integral"):
        lfunction.LPolynomial(5, c, SEED0_EPS)


def test_purity_check_survives_python_O():
    c = list(SEED0_L)
    c[2] += 25
    script = ("from selmerfq import lfunction\n"
              "try:\n"
              "    lfunction.LPolynomial(5, %r, -1)\n"
              "except ValueError as exc:\n"
              "    print(exc)\n"
              "else:\n"
              "    raise SystemExit('no error')\n" % c)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "purity failed" in proc.stdout
