"""Weierstrass models, invariant forms, the coordinate-change group, and
section searches."""

import pytest

from selmerfq import ffpoly, weierstrass
from selmerfq.ffpoly import BinaryForm, Place, UniPoly, field_make, ord_at
from selmerfq.rng import SplitMix64
from selmerfq.weierstrass import (GroupElement, WeierstrassModel, act,
                                  c4_form, c6_form, compose, discriminant,
                                  f7_example_model, is_minimal,
                                  minimality_bruteforce, minimality_of_forms,
                                  random_model, singular_surface_points,
                                  stabilizer_order, torsion_section_search)


def _model(F, d, a2, a4, a6):
    return WeierstrassModel(
        F, d,
        BinaryForm.from_unipoly(a2, 2 * d),
        BinaryForm.from_unipoly(a4, 4 * d),
        BinaryForm.from_unipoly(a6, 6 * d))


def test_degree_validation():
    F = field_make(5)
    good = BinaryForm.zero(F, 2)
    with pytest.raises(ValueError):
        WeierstrassModel(F, 1, good, BinaryForm.zero(F, 3), BinaryForm.zero(F, 6))
    with pytest.raises(ValueError):
        random_model(F, -1, SplitMix64(0))


def test_zero_discriminant_rejected():
    F = field_make(5)
    with pytest.raises(ValueError):
        WeierstrassModel(F, 1, BinaryForm.zero(F, 2), BinaryForm.zero(F, 4),
                         BinaryForm.zero(F, 6))


def test_discriminant_degree_and_formula():
    # y^2 = x^3 + a4 x + a6 constant model: disc = -16(4 a4^3 + 27 a6^2)
    F = field_make(13)
    for a4 in range(13):
        for a6 in range(13):
            expected = (-16 * (4 * a4 ** 3 + 27 * a6 ** 2)) % 13
            if expected == 0:
                continue
            m = _model(F, 0, UniPoly.zero(F), UniPoly.const(F, a4),
                       UniPoly.const(F, a6))
            assert discriminant(m).coeffs[0] == expected


def test_c4_c6_disc_identity():
    # 1728 disc = c4^3 - c6^2 for the short form derived from (0, a2, a4, a6);
    # over F_{p^k} the integer constants must be their images, not codes
    for F in (field_make(7), field_make(5, 2), field_make(7, 3)):
        rng = SplitMix64(10)
        for _ in range(20):
            m = random_model(F, 1, rng)
            c4 = c4_form(m).dehomog_t()
            c6 = c6_form(m).dehomog_t()
            disc = discriminant(m).dehomog_t()
            lhs = disc.scale(F.from_int(1728))
            rhs = c4 * c4 * c4 - c6 * c6
            assert lhs == rhs, F


def test_json_roundtrip():
    F = field_make(5)
    rng = SplitMix64(11)
    m = random_model(F, 1, rng)
    assert WeierstrassModel.from_json(m.to_json()) == m


def _random_element(F, d, rng):
    r = BinaryForm(F, 2 * d, [F.random(rng) for _ in range(2 * d + 1)])
    return GroupElement(r, 1 + rng.below(F.q - 1))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("F", [field_make(5), field_make(5, 2)], ids=repr)
def test_group_action_composition(F, d):
    rng = SplitMix64(12)
    for _ in range(10):
        m = random_model(F, d, rng)
        g1, g2 = _random_element(F, d, rng), _random_element(F, d, rng)
        assert act(g2, act(g1, m)) == act(compose(g2, g1), m)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("F", [field_make(5), field_make(5, 2)], ids=repr)
def test_action_preserves_discriminant_class(F, d):
    # disc transforms by lambda^12, so vanishing orders are preserved
    rng = SplitMix64(13)
    for _ in range(5):
        m = random_model(F, d, rng)
        g = _random_element(F, d, rng)
        d1 = discriminant(m).dehomog_t()
        d2 = discriminant(act(g, m)).dehomog_t()
        assert d2 == d1.scale(F.pow(g.lam, 12))


def test_identity_action():
    F = field_make(5)
    rng = SplitMix64(14)
    m = random_model(F, 1, rng)
    assert act(GroupElement(BinaryForm.zero(F, 2), F.one), m) == m


def test_stabilizer_against_direct_count():
    # count stabilizing elements by brute force over the 500-element group
    import itertools
    F = field_make(5)
    rng = SplitMix64(15)
    for _ in range(3):
        m = random_model(F, 1, rng, minimal=True)
        direct = 0
        for coeffs in itertools.product(range(5), repeat=3):
            r = BinaryForm(F, 2, list(coeffs))
            for lam in range(1, 5):
                if act(GroupElement(r, lam), m) == m:
                    direct += 1
        assert direct == stabilizer_order(m)


def test_extra_symmetry_stabilizer():
    # a2 = a6 = 0 at q = 5: y -> y, x -> -x with lambda = 2 (2^2 = -1)
    F = field_make(5)
    t = UniPoly.x(F)
    m = _model(F, 1, UniPoly.zero(F), t * t * t * t + UniPoly.const(F, F.one),
               UniPoly.zero(F))
    assert stabilizer_order(m) == 4


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("F", [field_make(5), field_make(5, 2)], ids=repr)
def test_minimality_matches_bruteforce(F, d):
    # sparse forms in powers of t - a for a random a: most coefficients are
    # zero, so some draws are non-minimal at t = a or at infinity
    rng = SplitMix64(16)
    seen_nonminimal = 0
    for _ in range(80):
        shift = UniPoly(F, [F.neg(F.random(rng)), F.one])
        forms = []
        for degree in (2 * d, 4 * d, 6 * d):
            f = UniPoly.zero(F)
            for _ in range(degree + 1):
                c = F.random(rng) if rng.below(6) == 0 else F.zero
                f = f * shift + UniPoly.const(F, c)
            forms.append(BinaryForm.from_unipoly(f, degree))
        bf = minimality_bruteforce(F, d, *forms)
        assert minimality_of_forms(F, d, *forms) == bf
        seen_nonminimal += not bf
    assert 10 <= seen_nonminimal < 60
    # force a non-minimal model: (a2, a4, a6) scaled by (t^2, t^4, t^6)
    t = UniPoly.x(F)
    m = _model(F, 1, t * t, t * t * t * t, (t * t * t) * (t * t * t))
    assert not is_minimal(m)
    assert not minimality_bruteforce(F, 1, m.a2, m.a4, m.a6)


def test_smoothness_routes_agree():
    from selmerfq.weierstrass import is_smooth_surface
    F = field_make(5)
    rng = SplitMix64(17)
    agree = 0
    for _ in range(40):
        m = random_model(F, 1, rng, minimal=True)
        assert is_smooth_surface(m) == (len(singular_surface_points(m)) == 0)
        agree += 1
    assert agree == 40


def test_f7_example_structure():
    m = f7_example_model()
    assert m.field.p == 7 and m.d == 1
    assert is_minimal(m)


def test_f7_three_torsion_section():
    # the example admits a 3-torsion section; its (x, y) come in a +- pair
    m = f7_example_model()
    secs = torsion_section_search(m, 3)
    assert len(secs) >= 2
    xs = {tuple(x.coeffs) for x, y in secs}
    assert len(xs) >= 1


def test_no_torsion_on_random_smooth_models():
    F = field_make(5)
    rng = SplitMix64(18)
    for _ in range(5):
        m = random_model(F, 1, rng, minimal=True, smooth=True)
        assert torsion_section_search(m, 2) == []
        assert torsion_section_search(m, 3) == []


def test_two_torsion_found_when_planted():
    # y^2 = x(x^2 + a2 x + a4) has the 2-torsion section (0, 0); over F_25
    # at d = 3 the 2d + 1 = 7 interpolation nodes outnumber F_5
    for F, d in ((field_make(5), 1), (field_make(5, 2), 3)):
        t = UniPoly.x(F)
        one = UniPoly.const(F, F.one)
        m = _model(F, d, t * t + one, t * t * t + t + one, UniPoly.zero(F))
        secs = torsion_section_search(m, 2)
        assert any(x.is_zero() and y.is_zero() for x, y in secs), F
