"""Weierstrass models, invariant forms, the coordinate-change group, and
section searches."""

import pytest

from selmerfq import (DomainError, census, ffpoly, lfunction, localdata,
                      weierstrass)
from selmerfq.ffpoly import BinaryForm, Field, UniPoly, field_make
from selmerfq.rng import SplitMix64
from selmerfq.weierstrass import (GroupElement, WeierstrassModel, act,
                                  compose, discriminant,
                                  f7_example_model, minimality_bruteforce,
                                  minimality_of_forms, random_model,
                                  singular_surface_points, smooth_by_gcd,
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_c4_c6_disc_identity(d):
    # 1728 disc = c4^3 - c6^2 for the short form derived from (0, a2, a4, a6);
    # over F_{p^k} the integer constants must be their images, not codes
    for F in (field_make(7), field_make(5, 2), field_make(7, 3)):
        rng = SplitMix64(10)
        for _ in range(20):
            m = random_model(F, d, rng)
            c4, c6 = m.c4.dehomog_t(), m.c6.dehomog_t()
            disc = discriminant(m).dehomog_t()
            lhs = disc.scale(F.from_int(1728))
            rhs = c4 * c4 * c4 - c6 * c6
            assert lhs == rhs, F


@pytest.mark.parametrize("d", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_disc_form_matches_disc_rows(p, d):
    # the scalar c4 and Delta against the batched ones row for row; at p = 3,
    # where the q = 3 locus reads Delta, 1728 Delta = c4^3 - c6^2 says nothing
    F = Field(p)
    l2, l4, _ = census.coeff_lengths(d)
    rows = SplitMix64(p + d).below_array(p, 40 * (12 * d + 3))
    rows = rows.reshape(40, 12 * d + 3)
    a2, a4, a6 = rows[:, :l2], rows[:, l2:l2 + l4], rows[:, l2 + l4:]
    for c4, disc, f2, f4, f6 in zip(*census._invariant_rows(a2, a4, a6, p),
                                    a2, a4, a6):
        forms = (BinaryForm(F, len(f) - 1, f.tolist()) for f in (f2, f4, f6))
        c4_form, _, disc_form = weierstrass._invariant_forms(*forms)
        assert c4_form.coeffs == tuple(c4.tolist())
        assert disc_form.coeffs == tuple(disc.tolist())


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


@pytest.mark.parametrize("p,k,d,seed,draws", [
    (5, 1, 2, 0, 40), (7, 1, 2, 0, 40), (5, 2, 1, 501, 12), (7, 2, 1, 12, 8)])
def test_smoothness_of_forms_matches_kodaira_route(p, k, d, seed, draws):
    # the census criterion on one model (smooth_by_gcd) against Tate's
    # algorithm; each seed gives both outcomes (over F_49 about one minimal
    # draw in 100 is singular, and the Kodaira route takes 0.2 s a draw)
    F = Field(p, k)
    rng = SplitMix64(seed)
    seen = set()
    for _ in range(draws):
        m = random_model(F, d, rng, minimal=True)
        smooth = smooth_by_gcd(m)
        assert smooth == weierstrass.is_smooth_surface(m)
        seen.add(smooth)
    assert seen == {False, True}


def _count_builds(monkeypatch):
    """A list that gains an entry at each _invariant_forms call."""
    calls = []
    build = weierstrass._invariant_forms

    def counted(*forms):
        calls.append(1)
        return build(*forms)
    monkeypatch.setattr(weierstrass, "_invariant_forms", counted)
    return calls


def test_smooth_draws_compute_the_discriminant_once(monkeypatch):
    # minimality is tested on the raw forms, smoothness on the built model
    # from its own Delta and c4: one _invariant_forms call per model built
    F = Field(5, 2)
    calls = _count_builds(monkeypatch)
    built = []
    init = WeierstrassModel.__init__

    def counted_init(self, *args):
        built.append(1)
        init(self, *args)
    monkeypatch.setattr(WeierstrassModel, "__init__", counted_init)
    rng = SplitMix64(0)
    for _ in range(5):
        random_model(F, 2, rng, smooth=True)
    assert len(built) >= 5 and len(calls) == len(built)


def test_readers_of_a_built_model_build_no_forms(monkeypatch):
    # Tate's algorithm, the gcd test, reciprocity and the point counts read
    # the c4, c6 and Delta that the model stored when it was built
    m = random_model(field_make(5), 1, SplitMix64(3), smooth=True)
    calls = _count_builds(monkeypatch)
    lfunction.l_polynomial(m)
    localdata.global_summary(m)
    smooth_by_gcd(m)
    localdata.root_number_by_reciprocity(m)
    assert calls == []


def test_gcd_smoothness_needs_p_at_least_5():
    with pytest.raises(DomainError, match="p >= 5"):
        random_model(Field(3), 1, SplitMix64(0), smooth=True)


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
    assert not minimality_of_forms(F, 1, m.a2, m.a4, m.a6)
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
    assert minimality_of_forms(m.field, m.d, m.a2, m.a4, m.a6)


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
    # y^2 = x(x^2 + a2 x + a4) has the 2-torsion section (0, 0), also where
    # F_q has fewer than 2d + 1 elements
    for F, d in ((field_make(5), 1), (field_make(5), 3),
                 (field_make(5, 2), 3)):
        t = UniPoly.x(F)
        one = UniPoly.const(F, F.one)
        m = _model(F, d, t * t + one, t * t * t + t + one, UniPoly.zero(F))
        secs = torsion_section_search(m, 2)
        assert any(x.is_zero() and y.is_zero() for x, y in secs), F


def test_three_torsion_found_when_planted():
    # y^2 = x^3 + b^2 has psi3 = 3x(x^3 + 4b^2); b is squarefree, so -4b^2
    # is no cube and the 3-torsion sections are exactly (0, +-b)
    for F in (field_make(5), field_make(7), field_make(5, 2)):
        t = UniPoly.x(F)
        b = t * t * t + t + UniPoly.const(F, F.one)
        m = _model(F, 1, UniPoly.zero(F), UniPoly.zero(F), b * b)
        secs = sorted((x.coeffs, y.coeffs)
                      for x, y in torsion_section_search(m, 3))
        x0 = BinaryForm.zero(F, 2).coeffs
        assert secs == sorted((x0, BinaryForm.from_unipoly(y, 3).coeffs)
                              for y in (b, -b)), F


def test_torsion_search_rejects_small_characteristic():
    # at p = 3, psi3 = a2 x^3 + a2 a6 - a4^2 loses its x^4 term
    F = ffpoly.Field(3, 1)
    t = UniPoly.x(F)
    m = _model(F, 1, UniPoly.const(F, F.one), UniPoly.zero(F), t)
    for n in (2, 3):
        with pytest.raises(DomainError):
            torsion_section_search(m, n)


def _sections_by_enumeration(m, n):
    """Every x of degree <= 2 substituted into x^3 + a2 x^2 + a4 x + a6
    (n = 2) or into psi3 = 3x^4 + 4 a2 x^3 + 6 a4 x^2 + 12 a6 x
    + 4 a2 a6 - a4^2 (n = 3); at n = 3 every y of degree <= 3 with
    y^2 equal to the cubic."""
    import itertools
    F = m.field
    a2, a4, a6 = (f.dehomog_t() for f in (m.a2, m.a4, m.a6))
    c = lambda k: UniPoly.const(F, F.from_int(k))
    ys = [UniPoly(F, cs) for cs in itertools.product(F.elements(), repeat=4)]
    out = []
    for coeffs in itertools.product(F.elements(), repeat=3):
        x = UniPoly(F, coeffs)
        cubic = x * x * x + a2 * x * x + a4 * x + a6
        if n == 2:
            if cubic.is_zero():
                out.append((x, UniPoly.zero(F)))
            continue
        psi3 = (c(3) * x * x * x * x + c(4) * a2 * x * x * x
                + c(6) * a4 * x * x + c(12) * a6 * x
                + c(4) * a2 * a6 - a4 * a4)
        if psi3.is_zero():
            out.extend((x, y) for y in ys if y * y == cubic)
    return sorted((BinaryForm.from_unipoly(x, 2).coeffs,
                   BinaryForm.from_unipoly(y, 3).coeffs) for x, y in out)


@pytest.mark.parametrize("q", [5, 7])
def test_torsion_sections_match_enumeration(q):
    F = field_make(q)
    rng = SplitMix64(0x7051 + q)
    poly = lambda deg: UniPoly(F, [F.random(rng) for _ in range(deg + 1)])
    models = [random_model(F, 1, rng, minimal=True) for _ in range(6)]
    while len(models) < 12:
        # (x - e)(x^2 + c2 x + c4) and x^3 + b^2
        e, c2, c4, b = poly(2), poly(2), poly(4), poly(3)
        for a2, a4, a6 in ((c2 - e, c4 - e * c2, -(e * c4)),
                           (UniPoly.zero(F), UniPoly.zero(F), b * b)):
            try:
                models.append(_model(F, 1, a2, a4, a6))
            except ValueError:  # singular generic fiber
                pass
    if q == 7:
        models.append(f7_example_model())
    planted = 0
    for m in models:
        for n in (2, 3):
            secs = sorted((x.coeffs, y.coeffs)
                          for x, y in torsion_section_search(m, n))
            assert secs == _sections_by_enumeration(m, n), (m.to_json(), n)
            planted += bool(secs)
    assert planted >= 6
