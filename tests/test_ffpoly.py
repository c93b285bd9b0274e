"""Finite field, polynomial, and place arithmetic."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from selmerfq import DomainError, ffpoly
from selmerfq.ffpoly import (BinaryForm, Field, Place, UniPoly, factor,
                             field_make, is_squarefree, ord_at)
from selmerfq.rng import SplitMix64


def test_prime_field_arithmetic():
    F = field_make(7)
    assert F.add(3, 5) == 1
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == F.one


def test_field_make_rejects_small_characteristic():
    for p in (2, 3):
        with pytest.raises(ValueError):
            field_make(p)
    with pytest.raises(ValueError):
        field_make(4)


def test_is_prime_matches_sympy():
    assert all(ffpoly._is_prime(n) == sympy.isprime(n) for n in range(10 ** 5))
    rng = SplitMix64(64)
    for _ in range(20000):
        n = rng.next_u64()
        assert ffpoly._is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to all prime bases up to 11, 13 and 23
    for n in (2152302898747, 3474749660383, 3825123056546413051):
        assert not ffpoly._is_prime(n)


def test_field_rejects_p_from_2_64():
    # 2^64 + 13 is prime; the range check comes before the primality test
    with pytest.raises(DomainError, match="below 2"):
        Field(2 ** 64 + 13)
    assert Field(2 ** 64 - 59).q == 2 ** 64 - 59  # the largest 64-bit prime
    # so is q = p^k: 65537^4 > 2^64 > 65521^4
    with pytest.raises(DomainError, match="below 2"):
        Field(65537, 4)
    assert Field(65521, 4).q == 65521 ** 4


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
    # count_roots against a brute-force count of the x with f(x) = 0, in
    # F_11 and in residue fields of degree 2 and 3; up to two random linear
    # factors make roots, repeated ones too, common in the larger fields
    residue = [Place(Field(p, k).modulus).residue_field()[0]
               for p, k in ((5, 2), (7, 2), (5, 3))]
    for F in [field_make(11)] + residue:
        rng = SplitMix64(3)
        for _ in range(20):
            f = UniPoly(F, [F.random(rng) for _ in range(5)])
            for _ in range(rng.below(3)):
                f = f * UniPoly(F, [F.random(rng), F.one])
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
            assert g.evaluate(E.add(x, E.neg(tau))) == f.evaluate(x)
    K, cs = form.jet(Place.infinity(), 9)
    assert K == F and cs[7:] == [F.zero, F.zero]
    for s in L.elements():
        assert UniPoly(L, cs).evaluate(s) \
            == UniPoly(L, form.coeffs[::-1]).evaluate(s)  # f(s, 1)


@pytest.mark.parametrize("p, k", [(5, 1), (7, 1), (5, 2)])
def test_leading_at_reads_the_first_jet_coefficient(p, k):
    # (ord_v f, c) from the division loop: ord_v f is the index of the first
    # nonzero Taylor coefficient, and the base-v digit c times P'(tau)^ord
    # is that coefficient; the two agree at degree-1 places and at infinity.
    # Forms are P^e g (t-degree 12 - e at infinity), g random and nonzero.
    F = field_make(p, k)
    rng = SplitMix64(31)
    D = 12
    for degree in (1, 2, 3, 0):
        for _ in range(6):
            e, head = rng.below(4), UniPoly.const(F, F.one)
            if degree == 0:
                v, n_g = Place.infinity(), D - e
            else:
                while True:
                    P = UniPoly(F, [F.random(rng) for _ in range(degree)]
                                + [F.one])
                    if P.is_irreducible():
                        break
                v = Place(P)
                for _ in range(e):
                    head = head * P
                n_g = D - e * degree
            g = UniPoly(F, [F.random(rng) for _ in range(n_g)]
                        + [1 + rng.below(F.q - 1)])
            form = BinaryForm.from_unipoly(head * g, D)
            K, cs = form.jet(v, D + 1)
            n, c = ffpoly.leading_at(form, v)
            assert n == ord_at(form, v) \
                == next(j for j, x in enumerate(cs) if x != K.zero)
            assert n >= e and c != K.zero
            if degree <= 1:
                assert c == cs[n]
            else:
                _, tau = v.residue_field()
                mu = UniPoly(K, v.poly.hasse(1).coeffs).evaluate(tau)
                assert K.mul(c, K.pow(mu, n)) == cs[n]
        zero = BinaryForm.zero(F, D)
        assert ffpoly.leading_at(zero, v) == (math.inf, F.zero)
        with pytest.raises(ValueError):
            ord_at(zero, v)


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


# chi, inv and jacobi against oracles: Euler's criterion and Fermat's a^(q-2)
# by square and multiply, and Euler's criterion on each factor of b

def _euler_chi(F, a):
    """Quadratic character by Euler's criterion, a^((q-1)/2) by Field.pow."""
    if a == F.zero:
        return 0
    return 1 if F.pow(a, (F.q - 1) // 2) == F.one else -1


def _extension(F, n):
    """F[x]/(f) for the least monic f of degree n = 2 or 3 with no root in
    F, so irreducible: found by evaluation alone, with no inverse."""
    for code in range(F.q ** n):
        f = UniPoly(F, [code // F.q ** i % F.q for i in range(n)] + [F.one])
        if all(f.evaluate(x) != F.zero for x in F.elements()):
            return Field.extension(f)


_F25 = Field(5, 2)


@pytest.mark.parametrize("F", [_F25, Field(7, 2), Field(5, 3),
                               _extension(_F25, 2)], ids=repr)
def test_chi_matches_euler_criterion(F):
    assert [F.chi(a) for a in F.elements()] \
        == [_euler_chi(F, a) for a in F.elements()]


@pytest.mark.parametrize("F,samples", [(_F25, None), (Field(7, 2), None),
                                       (Field(5, 7), 300),
                                       (_extension(_F25, 3), 300)],
                         ids=repr)
def test_inv_matches_fermat(F, samples):
    # every nonzero element, or a seeded sample of them
    rng = SplitMix64(F.q)
    elements = range(1, F.q) if samples is None \
        else [1 + rng.below(F.q - 1) for _ in range(samples)]
    for a in elements:
        assert F.inv(a) == F.pow(a, F.q - 2)
        assert F.mul(a, F.inv(a)) == F.one


@pytest.mark.parametrize("F", [Field(5), Field(7), Field(11), _F25],
                         ids=repr)
def test_jacobi_is_the_product_over_the_factors(F):
    # (a | 1) = 1, (a | b) = 0 on a common factor, and otherwise the
    # product of Euler's criterion in F[x]/(P) over the factors P^e of b
    rng = SplitMix64(F.q + 1)

    def poly(degree, monic=False):
        cs = [F.random(rng) for _ in range(degree)]
        return UniPoly(F, cs + [F.one if monic else F.random(rng)])

    one = UniPoly.const(F, F.one)
    signs = set()
    for _ in range(60):
        a, b = poly(rng.below(8)), poly(1 + rng.below(3), monic=True)
        b = b * b * poly(rng.below(4), monic=True) if rng.below(3) == 0 \
            else b * poly(rng.below(4), monic=True)
        assert ffpoly.jacobi(a, one) == 1
        g = poly(1 + rng.below(2), monic=True)
        assert ffpoly.jacobi(a * g, b * g) == 0
        expected = 1
        for P, e in factor(b):
            K = Field.extension(P)
            code = sum(c * F.q ** i for i, c in enumerate((a % P).coeffs))
            expected *= _euler_chi(K, code) ** e
        assert ffpoly.jacobi(a, b) == expected, (a, b)
        signs.add(expected)
    assert signs == {-1, 0, 1}


# the batched F_p[t] kernel against the scalar UniPoly oracle: p = 46337 is
# the last prime whose Euclid step fits uint32, 46349 the first in uint64,
# and 2^31 - 1 the edge of the domain, where rows_mul may add only K = 2
# products between reductions

KERNEL_PRIMES = (5, 7, 46337, 46349, 2 ** 31 - 1)


def _kernel_rows(p, wa, wb):
    """Seeded row pairs of widths wa, wb: uniform rows, zero rows, nonzero
    constants, pairs with a planted common factor of degree 1 to 3, rows of
    p - 1 (the largest partial sums of rows_mul), and t^2 - 1 beside
    -(t - 1)^2, both ways round, whose Euclid step reaches 2 (p - 1)^2."""
    F = Field(p)
    rng = np.random.default_rng([p, wa, wb])
    A, B = rng.integers(0, p, (48, wa)), rng.integers(0, p, (48, wb))
    A[0] = B[1] = A[2] = B[2] = 0
    A[3, 1:] = B[4, 1:] = A[5, 1:] = B[5, 1:] = 0
    A[3, 0], B[4, 0], A[5, 0], B[5, 0] = rng.integers(1, p, 4)
    A[6], B[6] = p - 1, p - 1
    for i, k in enumerate((1, 1, 2, 2, 3, 3, 3)):
        if k < min(wa, wb):
            f = UniPoly(F, rng.integers(0, p, k).tolist()
                        + [int(rng.integers(1, p))])
            for X, w in ((A, wa), (B, wb)):
                cofactor = UniPoly(F, rng.integers(0, p, w - k).tolist())
                cs = (f * cofactor).coeffs
                X[7 + i] = list(cs) + [0] * (w - len(cs))
    if min(wa, wb) >= 3:
        A[14:16, :3] = [[p - 1, 0, 1], [p - 1, 2, p - 1]]
        B[14:16, :3] = [[p - 1, 2, p - 1], [p - 1, 0, 1]]
        A[14:16, 3:] = B[14:16, 3:] = 0
    return A, B


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("wa, wb", [(13, 12), (3, 5), (25, 13)])
def test_batched_kernel_matches_unipoly(p, wa, wb):
    F = Field(p)
    A, B = _kernel_rows(p, wa, wb)
    G, M = ffpoly.rows_gcd(A, B, p), ffpoly.rows_mul(A, B, p)
    assert G.dtype == M.dtype == np.int64
    assert G.shape == (len(A), max(wa, wb))
    assert M.shape == (len(A), wa + wb - 1)
    assert ((0 <= G) & (G < p)).all() and ((0 <= M) & (M < p)).all()
    for a, b, g, m in zip(A, B, G, M):
        fa, fb, fg = (UniPoly(F, row.tolist()) for row in (a, b, g))
        assert UniPoly(F, m.tolist()) == fa * fb
        assert fg.degree() == fa.gcd(fb).degree()
        assert fg.is_zero() or ((fa % fg).is_zero() and (fb % fg).is_zero())


def test_batched_kernel_on_no_rows():
    A, B = np.zeros((0, 13), dtype=np.int64), np.zeros((0, 12), dtype=np.int64)
    assert ffpoly.rows_gcd(A, B, 5).shape == (0, 13)
    assert ffpoly.rows_mul(A, B, 5).shape == (0, 24)
