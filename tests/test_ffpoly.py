"""Finite field, polynomial, and place arithmetic."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from selmerfq import ffpoly
from selmerfq.ffpoly import (BinaryForm, Field, Place, UniPoly, factor,
                             field_make, is_squarefree, ord_at)
from selmerfq.rng import SplitMix64


def test_prime_field_arithmetic():
    F = field_make(7)
    assert F.add(3, 5) == 1
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert F.sub(1, 3) == 5
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == F.one


def test_field_make_rejects_small_characteristic():
    for p in (2, 3):
        with pytest.raises(ValueError):
            field_make(p)
    with pytest.raises(ValueError):
        field_make(4)


def test_extension_field_properties():
    F = field_make(5, 2)
    assert F.q == 25
    els = list(F.elements())
    assert len(els) == 25
    # Fermat: a^25 = a for all elements
    for a in els:
        assert F.pow(a, 25) == a
    # chi is multiplicative on nonzero elements
    rng = SplitMix64(4)
    for _ in range(30):
        a, b = F.random(rng), F.random(rng)
        if a and b:
            assert F.chi(F.mul(a, b)) == F.chi(a) * F.chi(b)


def test_sqrt_of_squares():
    F = field_make(13)
    for a in range(1, 13):
        sq = F.mul(a, a)
        r = F.sqrt(sq)
        assert F.mul(r, r) == sq


def test_unipoly_divmod_and_gcd():
    F = field_make(5)
    rng = SplitMix64(1)
    for _ in range(25):
        f = UniPoly(F, [F.random(rng) for _ in range(6)])
        g = UniPoly(F, [F.random(rng) for _ in range(3)])
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()
        d = f.gcd(g)
        assert f.divmod(d)[1].is_zero() or f.is_zero()
        assert g.divmod(d)[1].is_zero()


def test_irreducible_count_degree_2():
    # number of monic irreducible quadratics over F_5 is (25 - 5)/2 = 10
    F = field_make(5)
    count = 0
    for c0 in range(5):
        for c1 in range(5):
            if UniPoly(F, [c0, c1, 1]).is_irreducible():
                count += 1
    assert count == 10


def test_factor_roundtrip():
    F = field_make(7)
    rng = SplitMix64(2)
    for _ in range(20):
        f = UniPoly(F, [F.random(rng) for _ in range(8)])
        if f.is_zero() or f.is_constant():
            continue
        prod = UniPoly.const(F, f.leading())
        for g, mult in factor(f):
            assert g.is_irreducible()
            assert g.leading() == F.one
            for _ in range(mult):
                prod = prod * g
        assert prod == f


def test_roots_and_count_roots_agree():
    # count_roots against a brute-force count of the x in F_11 with f(x) = 0
    F = field_make(11)
    rng = SplitMix64(3)
    for _ in range(20):
        f = UniPoly(F, [F.random(rng) for _ in range(5)])
        if f.is_zero():
            continue
        assert f.count_roots() == sum(f.evaluate(x) == F.zero
                                      for x in F.elements())


def test_squarefree_detection():
    F = field_make(5)
    t = UniPoly.x(F)
    one = UniPoly.const(F, F.one)
    assert is_squarefree(t * t + one) in (True, False)  # total function
    assert not is_squarefree((t + one) * (t + one) * t)
    assert is_squarefree(t * (t + one))


def test_place_residue_fields():
    F = field_make(5)
    t = UniPoly.x(F)
    # degree-1 place: residue field is the base field, tau the root
    v = Place(t + UniPoly.const(F, F.from_int(2)))
    K, tau = v.residue_field()
    assert K is F and tau == F.neg(F.from_int(2))
    # degree-2 place: an extension field of size 25
    two = UniPoly.const(F, F.from_int(2))
    g = t * t + two  # t^2 + 2 is irreducible over F_5
    assert g.is_irreducible()
    K2, tau2 = Place(g).residue_field()
    assert isinstance(K2, Field) and K2.q == 25 and tau2 == 5
    # tau2 satisfies the place polynomial; F_5 elements keep their codes
    assert K2.add(K2.mul(tau2, tau2), F.from_int(2)) == K2.zero


def test_ord_at_finite_and_infinity():
    F = field_make(5)
    t = UniPoly.x(F)
    f = (t * t) * (t + UniPoly.const(F, F.one))
    form = BinaryForm.from_unipoly(f, 6)
    assert ord_at(form, Place(t)) == 2
    assert ord_at(form, Place(t + UniPoly.const(F, F.one))) == 1
    # degree-3 polynomial in a degree-6 form: ord at infinity is 3
    assert ord_at(form, Place.infinity()) == 3


def test_jet_matches_shift():
    # sum_j c_j u^j reproduces f at t = tau + u, at a degree-1 place and a
    # degree-2 place (kappa = F_25), and f(s, 1) at infinity; each identity
    # is checked on 25 points, so it holds as polynomials of degree 6
    F, L = field_make(5), field_make(5, 2)
    rng = SplitMix64(7)
    form = BinaryForm(F, 6, [F.random(rng) for _ in range(7)])
    t = UniPoly.x(F)
    for poly in (t + UniPoly.const(F, F.from_int(2)),
                 t * t + UniPoly.const(F, F.from_int(2))):
        v = Place(poly)
        K, tau = v.residue_field()
        K_jet, cs = form.jet(v, 7)
        assert K_jet == K and K.q == 5 ** poly.degree()
        E = K if K.q == 25 else L
        g, f = UniPoly(E, cs), UniPoly(E, form.coeffs)
        for x in E.elements():
            assert g.evaluate(E.sub(x, tau)) == f.evaluate(x)
    K, cs = form.jet(Place.infinity(), 9)
    assert K == F and cs[7:] == [F.zero, F.zero]
    for s in L.elements():
        assert UniPoly(L, cs).evaluate(s) \
            == UniPoly(L, form.coeffs[::-1]).evaluate(s)  # f(s, 1)


# sympy's factorization over GF(p) as an independent oracle

_ORACLE = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def _poly(draw, p, max_degree):
    """A polynomial over F_p of degree 1..max_degree."""
    cs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=max_degree))
    return UniPoly(field_make(p), cs + [draw(st.integers(1, p - 1))])


@st.composite
def _product(draw):
    """g1^e1 ... gk^ek over F_5 or F_7, of degree at most 16, so that
    repeated and p-th power factors are in reach."""
    p = draw(st.sampled_from((5, 7)))
    f = UniPoly(field_make(p), [1])
    for _ in range(draw(st.integers(1, 3))):
        g = draw(_poly(p, 4))
        for _ in range(draw(st.integers(1, p))):
            if f.degree() + g.degree() <= 16:
                f = f * g
    return f


def _sympy_poly(f):
    return sympy.Poly(f.coeffs[::-1], sympy.Symbol("x"), modulus=f.field.p)


@_ORACLE
@given(_product())
def test_factor_matches_sympy(f):
    p = f.field.p
    _, want = _sympy_poly(f).factor_list()
    want = sorted((tuple(int(c) % p for c in reversed(g.all_coeffs())), m)
                  for g, m in want)
    assert sorted((g.coeffs, m) for g, m in factor(f)) == want


@_ORACLE
@given(st.sampled_from((5, 7)).flatmap(lambda p: _poly(p, 8)))
def test_is_irreducible_matches_sympy(f):
    assert f.is_irreducible() == _sympy_poly(f).is_irreducible


# field axioms as properties, on prime, extension and residue fields

_CUBIC_PLACE = Place(UniPoly(field_make(5), [1, 1, 0, 1]))  # t^3 + t + 1
_FIELDS = [ffpoly.Field(5, 1), ffpoly.Field(5, 2), ffpoly.Field(7, 3),
           _CUBIC_PLACE.residue_field()[0]]


@pytest.mark.parametrize("F", _FIELDS, ids=repr)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 342), st.integers(0, 342), st.integers(0, 342))
def test_field_axioms(F, i, j, k):
    a, b, c = (n % F.q for n in (i, j, k))
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a != F.zero:
        assert F.mul(a, F.inv(a)) == F.one
    assert F.chi(F.mul(a, b)) == F.chi(a) * F.chi(b)
    p = F.characteristic
    assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))
