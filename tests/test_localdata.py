"""Kodaira classification, Tamagawa numbers, Ogg consistency, and the
fiber-count oracle."""

import collections
import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selmerfq import DomainError, cli, localdata, weierstrass
from selmerfq.ffpoly import BinaryForm, Place, UniPoly, field_make
from selmerfq.localdata import (bad_places, fiber_point_count,
                                global_summary, local_data_at)
from selmerfq.rng import SplitMix64
from selmerfq.weierstrass import (GroupElement, WeierstrassModel, act,
                                  compose, f7_example_model, random_model)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_istar_family_by_quadratic_twist(q, n):
    # a2 = t, a4 = 0, a6 = b t^(3+n): the twist by t of an I_n curve, I_n*
    # at (t) with Delta_(6+n) = -64 b and c6_3 = -64, so c = 4 iff
    # chi((-1)^(n+1) b) = 1; only q = 3 mod 4 tells even n from odd n
    F = field_make(q)
    t = UniPoly.x(F)
    for b in range(1, q):
        m = _model(F, 2, t, UniPoly.zero(F),
                   UniPoly(F, [0] * (3 + n) + [b]))
        pd = local_data_at(m, _t_place(F))
        assert pd.kodaira == "I_%d*" % n
        assert pd.m_v == 5 + n and pd.ord_disc == 6 + n
        sign = F.one if n % 2 else F.neg(F.one)
        assert pd.c_v == (4 if F.chi(F.mul(sign, b)) == 1 else 2), b


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


def test_valuation_sum_check_exits_1(monkeypatch, tmp_path, capsys):
    # a place lost from bad_places leaves the valuations short of 12d
    places = localdata.bad_places
    monkeypatch.setattr(localdata, "bad_places", lambda m: places(m)[1:])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(f7_example_model().to_json()))
    assert cli.main(["tate", "--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad-place valuations must sum to 12d" in captured.err


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
            # the reduced cubic is singular at v, with its double root at x0
            x0 = weierstrass._fiber_multiple_root(m, v)
            cubic = weierstrass.fiber_cubic(m, v)
            assert cubic.evaluate(x0) == cubic.hasse(1).evaluate(x0) \
                == cubic.field.zero
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


# forced-additive models: a2, a4, a6 divisible by powers of a place v, then
# moved by a coordinate change (r, lambda), so that the triple root of the
# reduced cubic sits away from x = 0

def _forms_divisible_at(F, d, v, exps, cofactors):
    """a2, a4, a6 as v^e * (a cofactor given by its coefficients, low degree
    first) for e in exps, as forms of degree 2d, 4d, 6d.  At infinity v^e
    divides a form of degree D iff its t-degree is at most D - e."""
    forms = []
    for D, e, cs in zip((2 * d, 4 * d, 6 * d), exps, cofactors):
        f = UniPoly(F, cs)
        for _ in range(0 if v.is_infinity else e):
            f = f * v.poly
        forms.append(BinaryForm.from_unipoly(f, D) if f.degree() <= D
                     else BinaryForm.zero(F, D))
    return forms


def _cofactor_lengths(d, v, exps):
    return [max(D - e * v.degree() + 1, 0)
            for D, e in zip((2 * d, 4 * d, 6 * d), exps)]


def _random_place(F, degree, rng):
    """Infinity for degree 0, else a random monic irreducible place."""
    if degree == 0:
        return Place.infinity()
    while True:
        f = UniPoly(F, [F.random(rng) for _ in range(degree)] + [F.one])
        if f.is_irreducible():
            return Place(f)


def _forced_additive_grid(per_cell, degrees=(1, 2, 0)):
    """Seeded (model, place) pairs over F_5, F_7, F_13 and F_25 at places of
    the given degrees (0 for infinity), with v^(1..2) | a2, v^(1..5) | a4,
    v^(1..8) | a6; d = 2 at degree-2 places, d = 3 at degree-3 places, else
    d = 1."""
    rng = SplitMix64(16)
    out = []
    for F in (field_make(5), field_make(7), field_make(13), field_make(5, 2)):
        for degree in degrees:
            d = max(degree, 1)
            for _ in range(per_cell):
                v = _random_place(F, degree, rng)
                exps = (1 + rng.below(2), 1 + rng.below(5), 1 + rng.below(8))
                cofactors = [[F.random(rng) for _ in range(n)]
                             for n in _cofactor_lengths(d, v, exps)]
                r = BinaryForm(F, 2 * d, [F.random(rng) for _ in range(2 * d + 1)])
                g = GroupElement(r, 1 + rng.below(F.q - 1))
                try:
                    m = WeierstrassModel(
                        F, d, *_forms_divisible_at(F, d, v, exps, cofactors))
                except DomainError:  # Delta = 0
                    continue
                out.append((act(g, m), v))
    return out


def _local_row(m, v):
    try:
        pd = local_data_at(m, v)
    except DomainError as exc:
        return [str(exc), None, None]
    return [pd.kodaira, pd.c_v, pd.split]


# (kodaira, c_v) tally and SHA-256 of the ordered [kodaira, c_v, split] rows
# on _forced_additive_grid(50), as computed by Tate's algorithm with explicit
# x-translations and the I_n* subloop, which the table replaced
FORCED_TALLY = {
    "II 1": 57, "III 2": 100, "IV 1": 27, "IV 3": 30, "I_0* 1": 20,
    "I_0* 2": 64, "I_0* 4": 45, "I_1* 2": 15, "I_1* 4": 14, "I_2* 2": 13,
    "I_2* 4": 38, "I_3* 2": 3, "I_3* 4": 8, "I_4* 4": 15, "IV* 1": 12,
    "IV* 3": 15, "III* 2": 38, "II* 1": 16, "minimalize first": 30}
FORCED_SHA256 = \
    "9cfc247a24d4de5ea2b66bee92ee2baefa6f76155b67af7e34688d79fa43bc23"


def test_forced_additive_grid_pinned():
    rows = [_local_row(m, v) for m, v in _forced_additive_grid(50)]
    tally = collections.Counter(k if c is None else "%s %s" % (k, c)
                                for k, c, _ in rows)
    assert {k for k, c, _ in rows} >= {"II", "III", "IV", "I_0*", "I_1*",
                                       "I_2*", "I_3*", "I_4*", "IV*",
                                       "III*", "II*"}
    assert tally == FORCED_TALLY
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() \
        == FORCED_SHA256


# the same record on _forced_additive_grid(50, degrees=(3,)), d = 3, as
# computed by Tate's algorithm from Taylor coefficients (BinaryForm.jet)
# before the leading-coefficient table replaced them
FORCED3_TALLY = {
    "II 1": 25, "III 2": 28, "IV 1": 12, "IV 3": 10, "I_0* 1": 7,
    "I_0* 2": 29, "I_0* 4": 17, "I_1* 2": 2, "I_1* 4": 2, "I_2* 2": 3,
    "I_2* 4": 11, "I_3* 4": 3, "I_4* 4": 5, "IV* 1": 8, "IV* 3": 4,
    "III* 2": 11, "II* 1": 1, "minimalize first": 11}
FORCED3_SHA256 = \
    "ef4b1e40f3ec57af168d0ecc232eb18cb62351eb66c364e009868b9f97ee7514"


def test_forced_additive_grid_at_degree_3_places_pinned():
    rows = [_local_row(m, v)
            for m, v in _forced_additive_grid(50, degrees=(3,))]
    tally = collections.Counter(k if c is None else "%s %s" % (k, c)
                                for k, c, _ in rows)
    assert tally == FORCED3_TALLY
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() \
        == FORCED3_SHA256


def test_c6_guard_survives_python_O():
    # with c6 patched to zero, the IV, I_1* and IV* rows would read chi(0);
    # the guard names the place and the type instead, also under -O
    script = (
        "from selmerfq import localdata, weierstrass\n"
        "from selmerfq.ffpoly import BinaryForm, Place, UniPoly, field_make\n"
        "from selmerfq.weierstrass import WeierstrassModel\n"
        "F = field_make(5)\n"
        "def form(D, j):\n"
        "    return BinaryForm(F, D, [int(i == j) for i in range(D + 1)])\n"
        "weierstrass.c6_form = lambda m: BinaryForm.zero(F, 6 * m.d)\n"
        "for a2, a6 in ((None, 2), (1, 4), (None, 4)):\n"
        "    m = WeierstrassModel(F, 1, form(2, a2), form(4, None),\n"
        "                         form(6, a6))\n"
        "    try:\n"
        "        localdata.local_data_at(m, Place(UniPoly.x(F)))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        raise SystemExit('no error')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" at ")[0] for line in lines] == ["IV", "I_1*", "IV*"]
    assert all("Place([0, 1])" in line and "c6 coefficient" in line
               for line in lines)


@st.composite
def _moved_model(draw):
    """(m, v, g1, g2): m over F_5 or F_25 with d = 1 and v^e | a2, a4, a6 for
    drawn e at a degree-1 place or infinity, and two group elements."""
    F = draw(st.sampled_from((field_make(5), field_make(5, 2))))
    elem = st.integers(0, F.q - 1)
    v = draw(st.one_of(st.just(Place.infinity()), elem.map(
        lambda a: Place(UniPoly(F, [a, F.one])))))
    exps = draw(st.tuples(st.integers(0, 2), st.integers(0, 4),
                          st.integers(0, 7)))
    cofactors = [draw(st.lists(elem, min_size=n, max_size=n))
                 for n in _cofactor_lengths(1, v, exps)]
    try:
        m = WeierstrassModel(F, 1, *_forms_divisible_at(F, 1, v, exps,
                                                         cofactors))
    except DomainError:  # Delta = 0
        assume(False)
    g1, g2 = (GroupElement(BinaryForm(F, 2, draw(st.lists(elem, min_size=3,
                                                            max_size=3))),
                           draw(st.integers(1, F.q - 1))) for _ in range(2))
    return m, v, g1, g2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_moved_model())
def test_group_action_keeps_local_data(case):
    # the table reads only c4, c6 and Delta, so it rests on act being a group
    # action that scales them by lambda^4, lambda^6, lambda^12 and keeps the
    # local data
    m, v, g1, g2 = case
    F = m.field
    moved = act(g1, m)
    assert act(g2, moved) == act(compose(g2, g1), m)
    for form, k in ((weierstrass.discriminant, 12), (weierstrass.c4_form, 4),
                    (weierstrass.c6_form, 6)):
        assert form(moved).dehomog_t() \
            == form(m).dehomog_t().scale(F.pow(g1.lam, k))
    assert _local_row(moved, v) == _local_row(m, v)
