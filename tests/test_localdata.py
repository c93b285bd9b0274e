"""Kodaira classification, Tamagawa numbers, Ogg consistency, and the
fiber-count oracle."""

import pytest

from selmerfq import localdata, weierstrass
from selmerfq.ffpoly import BinaryForm, Place, UniPoly, field_make
from selmerfq.localdata import (bad_places, fiber_point_count,
                                global_summary, local_data_at)
from selmerfq.rng import SplitMix64
from selmerfq.weierstrass import WeierstrassModel, f7_example_model, random_model


def _model(F, d, a2, a4, a6):
    return WeierstrassModel(
        F, d,
        BinaryForm.from_unipoly(a2, 2 * d),
        BinaryForm.from_unipoly(a4, 4 * d),
        BinaryForm.from_unipoly(a6, 6 * d))


def _t_place(F):
    return Place(UniPoly.x(F))


def _poly(F, coeffs):
    return UniPoly(F, [F.from_int(c) for c in coeffs])


def test_additive_type_ladder():
    """The standard representative models at (t) for each additive type."""
    F = field_make(5)
    t = UniPoly.x(F)
    z = UniPoly.zero(F)
    cases = [
        (z, z, t, "II", 1),
        (z, t, z, "III", 2),
        (z, z, t * t, "IV", 3),       # coeff 2 of a6 is 1, a square
        (z, z, (t * t).scale(F.from_int(2)), "IV", 1),  # coeff 2 is a non-square
        (z, t * t, t * t * t, "I_0*", None),
        (z, z, t * t * t * t, "IV*", None),
        (z, t * t * t, z, "III*", 2),
        (z, z, t * t * t * t * t, "II*", 1),
    ]
    for a2, a4, a6, kod, c in cases:
        m = _model(F, 1, a2, a4, a6)
        pd = local_data_at(m, _t_place(F))
        assert pd.kodaira == kod, (kod, pd.kodaira)
        assert pd.f_v == 2
        assert pd.ord_disc == pd.f_v + pd.m_v - 1  # Ogg
        if c is not None:
            assert pd.c_v == c


def test_non_minimal_at_place_rejected():
    F = field_make(5)
    t = UniPoly.x(F)
    m = _model(F, 1, t * t, t * t * t * t, (t * t * t) * (t * t * t))
    with pytest.raises(ValueError):
        local_data_at(m, _t_place(F))


def test_multiplicative_split_and_nonsplit():
    # y^2 = x^3 + x^2 + t^n: I_n at (t), split iff -c6 residue is square
    F = field_make(5)
    t = UniPoly.x(F)
    one = UniPoly.const(F, F.one)
    for n in (1, 2, 3, 4):
        a6 = UniPoly.const(F, F.one)
        for _ in range(n):
            a6 = a6 * t
        m = _model(F, 1, one, UniPoly.zero(F), a6)
        pd = local_data_at(m, _t_place(F))
        assert pd.kodaira == "I_%d" % n
        assert pd.f_v == 1 and pd.m_v == n
        if pd.split:
            assert pd.c_v == n
        else:
            assert pd.c_v == (2 if n % 2 == 0 else 1)


def test_istar_family_by_quadratic_twist():
    # twist of the I_n curve by t: a2 = t, a4 = 0, a6 = b t^(3+n) gives
    # I_n* at (t) with c = 4 iff b is a square
    F = field_make(5)
    t = UniPoly.x(F)
    for n in (1, 2, 3):
        for b, csq in ((1, 4), (2, 2)):
            a6 = UniPoly.const(F, F.from_int(b))
            for _ in range(3 + n):
                a6 = a6 * t
            m = _model(F, 1, t, UniPoly.zero(F), a6)
            pd = local_data_at(m, _t_place(F))
            assert pd.kodaira == "I_%d*" % n
            assert pd.c_v == csq
            assert pd.m_v == 5 + n
            assert pd.ord_disc == 6 + n


def test_i0star_component_counts():
    # c = 1 + number of kappa-roots of the residual cubic
    F = field_make(5)
    t = UniPoly.x(F)
    m = _model(F, 1, UniPoly.zero(F), t * t, t * t * t)
    pd = local_data_at(m, _t_place(F))
    # T^3 + T + 1 over F_5 has exactly one root (T = 1 is not, check directly)
    roots = UniPoly(F, [1, 1, 0, 1]).count_roots()
    assert pd.kodaira == "I_0*" and pd.c_v == 1 + roots


def test_good_reduction_elsewhere():
    F = field_make(5)
    t = UniPoly.x(F)
    m = _model(F, 1, UniPoly.zero(F), UniPoly.zero(F), t)
    one_place = Place(t - UniPoly.const(F, F.one))
    pd = local_data_at(m, one_place)
    assert pd.kodaira == "I_0" and pd.f_v == 0 and pd.c_v == 1


def test_global_summary_disc_bookkeeping():
    F = field_make(5)
    rng = SplitMix64(21)
    for _ in range(15):
        m = random_model(F, 1, rng, minimal=True)
        s = global_summary(m)
        assert s.disc_degree_check
        total = sum(pd.ord_disc * pd.place.degree() for pd in s.places)
        assert total == 12


def test_f7_example_local_data():
    m = f7_example_model()
    s = global_summary(m)
    kinds = sorted(pd.kodaira for pd in s.places)
    assert kinds == ["I_1", "I_3"]
    assert s.tamagawa_product == 3
    assert s.conductor_degree == 6
    assert s.disc_degree_check
    # the root number is defined here for smooth models (I_1 and II) only
    with pytest.raises(ValueError, match="I_3"):
        localdata.root_number(m)


@pytest.mark.parametrize("F", [field_make(5), field_make(5, 2),
                               field_make(7, 2)], ids=repr)
def test_fiber_count_oracle_small_places(F):
    """#W(kappa(v)) from the classification vs direct point enumeration,
    restricted to residue fields small enough to enumerate."""
    rng = SplitMix64(22)
    checked = 0
    for _ in range(16):
        m = random_model(F, 1, rng, minimal=True)
        for v in bad_places(m):
            Q = F.q ** v.degree()
            if Q > 625:
                continue
            pd = local_data_at(m, v)
            n = fiber_point_count(m, v)
            if pd.kodaira == "I_0":
                assert abs(n - (Q + 1)) <= 2 * int(Q ** 0.5) + 1
            elif pd.kodaira.startswith("I_") and not pd.kodaira.endswith("*") \
                    and pd.kodaira != "I_0":
                assert n == (Q if pd.split else Q + 2)
            else:
                assert n == Q + 1
            checked += 1
    assert checked >= 9


def test_sweep_has_no_classification_gaps():
    F = field_make(5)
    rng = SplitMix64(23)
    seen = set()
    for _ in range(120):
        m = random_model(F, 1, rng, minimal=True)
        for pd in global_summary(m).places:
            seen.add(pd.kodaira)
            assert pd.ord_disc == pd.f_v + pd.m_v - 1
    assert "I_1" in seen  # nodal fibers dominate
