"""Parameter-space statistics: minimality counts, the singular-surface
locus, and orbit-stabilizer audits."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from selmerfq import DomainError, census, weierstrass
from selmerfq.census import (classify, coeff_lengths, exhaustive_minimality,
                             incidence_mask, orbit_stabilizer_audit,
                             run_census, singular_divisor_count,
                             tuple_to_index)
from selmerfq.ffpoly import (BinaryForm, Field, Place, UniPoly, field_make,
                             is_squarefree, ord_at)
from selmerfq.rng import SplitMix64

# q = 3, d = 1 fixture: fiber at t = 0 is y^2 = (x - 1)^2 x with an I_2
# node at x0 = 1, built to satisfy the three incidence constraints
NODE_DIGITS = [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]


def index_to_tuple(idx, q, width):
    out = []
    for _ in range(width):
        out.append(idx % q)
        idx //= q
    return out


def _forms_from_digits(F, d, digits):
    l2, l4, l6 = coeff_lengths(d)
    a2 = BinaryForm(F, 2 * d, digits[:l2])
    a4 = BinaryForm(F, 4 * d, digits[l2:l2 + l4])
    a6 = BinaryForm(F, 6 * d, digits[l2 + l4:])
    return a2, a4, a6


def test_index_roundtrip():
    for q in (3, 5):
        rng = SplitMix64(q)
        for _ in range(20):
            digits = [rng.below(q) for _ in range(15)]
            assert index_to_tuple(tuple_to_index(digits, q), q, 15) == digits


def test_exhaustive_minimality_q3():
    rep = exhaustive_minimality(3)
    assert rep["total"] == 3 ** 15
    # 4 degree-1 places x 27-element subspaces, overlapping only in the
    # zero tuple: 4*27 - 6 + 4 - 1 = 105 non-minimal tuples
    assert rep["nonminimal"] == 105
    assert rep["oracle_nonminimal"] == 105
    assert rep["minimal"] == 3 ** 15 - 105


def test_minimality_routes_cross_check_fires(monkeypatch):
    # wrong jets at infinity (coefficients 1..k in place of 0..k-1) move
    # route 1 off the subspace union
    right = census._jets

    def shifted(length, tp, q, k):
        if tp == "inf":
            return right(length, tp, q, k + 1)[:, 1:]
        return right(length, tp, q, k)
    monkeypatch.setattr(census, "_jets", shifted)
    with pytest.raises(ValueError, match="minimality routes disagree"):
        exhaustive_minimality(3)


@pytest.mark.parametrize("q", [3, 5])
def test_jets_match_binary_form_jet(q):
    # the batched jets of every vector of each block, at all q + 1 places,
    # equal BinaryForm.jet, with as many terms as exhaustive_minimality uses
    F = Field(q)
    places = [(a, Place(UniPoly(F, [F.neg(a), F.one]))) for a in range(q)]
    for tp, v in places + [("inf", Place.infinity())]:
        for length, k in zip(coeff_lengths(1), (2, 4, 6)):
            want = [BinaryForm(F, length - 1, index_to_tuple(i, q, length))
                    .jet(v, k)[1] for i in range(q ** length)]
            assert census._jets(length, tp, q, k).tolist() == want, (tp, k)


def test_minimality_budget():
    with pytest.raises(ValueError):
        exhaustive_minimality(5)


def test_incidence_mask_marks_node_fixture():
    mask = incidence_mask(3)
    assert bool(mask[tuple_to_index(NODE_DIGITS, 3)])


@pytest.mark.parametrize("q", [2, 4])
def test_incidence_mask_needs_an_odd_prime(q):
    # 2^15 fits the budget, so only the domain check stops characteristic 2
    with pytest.raises(DomainError):
        incidence_mask(q)


def test_node_fixture_is_directly_singular_i2():
    from selmerfq.ffpoly import Place, UniPoly, ord_at
    F = Field(3, 1)
    a2, a4, a6 = _forms_from_digits(F, 1, NODE_DIGITS)
    m = weierstrass.WeierstrassModel(F, 1, a2, a4, a6)
    wits = weierstrass.singular_surface_points(m)
    assert any((not v.is_infinity) and v.poly.coeffs == (0, 1) and x == 1
               for v, x in wits)
    assert ord_at(weierstrass.discriminant(m), Place(UniPoly.x(F))) == 2


def test_incidence_mask_matches_direct_incidence_test():
    # marked iff some (x0, t-point) has f = f_x = f_u = 0, with each block's
    # value and first Taylor coefficient at the t-point read off its digits
    mask = incidence_mask(3)
    idx = np.random.default_rng(11).integers(0, 3 ** 15, 3000)
    digits = idx[:, None] // 3 ** np.arange(15) % 3
    blocks = digits[:, :3], digits[:, 3:8], digits[:, 8:]
    hit = {}
    for tp in [0, 1, 2, "inf"]:
        if tp == "inf":  # the s-chart: top and next-to-top coefficients
            jets = [(b[:, -1], b[:, -2]) for b in blocks]
        else:
            jets = [[sum(math.comb(m, j) * tp ** (m - j) * b[:, m]
                         for m in range(j, b.shape[1])) for j in (0, 1)]
                    for b in blocks]
        (V2, D2), (V4, D4), (V6, D6) = jets
        hit[tp] = np.zeros(len(idx), dtype=bool)
        for x0 in range(3):
            f = x0 ** 3 + V2 * x0 ** 2 + V4 * x0 + V6
            f_x = 3 * x0 ** 2 + 2 * V2 * x0 + V4
            f_u = D2 * x0 ** 2 + D4 * x0 + D6
            hit[tp] |= (f % 3 == 0) & (f_x % 3 == 0) & (f_u % 3 == 0)
    finite = hit[0] | hit[1] | hit[2]
    direct = finite | hit["inf"]
    assert 0 < direct.sum() < len(idx)
    assert (hit["inf"] & ~finite).any() and (finite & ~hit["inf"]).any()
    assert np.array_equal(mask[idx], direct)


def test_squarefree_disc_not_marked():
    # models with squarefree discriminant are never incidence-marked
    mask = incidence_mask(3)
    from selmerfq.ffpoly import Place, is_squarefree, ord_at
    F = Field(3, 1)
    rng = SplitMix64(50)
    checked = 0
    while checked < 30:
        digits = [rng.below(3) for _ in range(15)]
        a2, a4, a6 = _forms_from_digits(F, 1, digits)
        disc = weierstrass._disc_form(a2, a4, a6)
        if disc.is_zero():
            continue
        dt = disc.dehomog_t()
        if dt.is_constant() or not is_squarefree(dt):
            continue
        if ord_at(disc, Place.infinity()) > 1:
            continue
        assert not mask[tuple_to_index(digits, 3)]
        checked += 1


def test_singular_divisor_count_window():
    import math
    rep = singular_divisor_count(3, seed=7, direct_samples=600)
    assert 13.5 < math.log(rep["image_count"], 3) < 14.5
    assert 0.3 <= rep["image_ratio"] <= 3.0
    assert rep["direct_detail"]["containment_violations"] == 0
    # the direct count dominates the rational-point image count
    assert rep["direct_count"] >= rep["image_count"]


@pytest.mark.parametrize("q,samples,message", [
    (1, 4000, "odd prime q, got 1"),
    (-3, 4000, "odd prime q, got -3"),
    (3, 300001, "direct_samples must be in [1, 300000], got 300001"),
])
def test_singular_divisor_count_checks_before_the_mask(monkeypatch, q, samples,
                                                       message):
    def no_mask(q):
        raise AssertionError("mask built")
    monkeypatch.setattr(census, "incidence_mask", no_mask)
    with pytest.raises(DomainError) as exc:
        singular_divisor_count(q, direct_samples=samples)
    assert message in str(exc.value)


def test_singular_divisor_count_seed0():
    # the values of the earlier per-model Jacobian search and combos @ B mask
    rep = singular_divisor_count(3, seed=0, direct_samples=4000)
    assert rep["image_count"] == 5389497
    assert rep["direct_count"] == 5969145
    assert rep["direct_detail"] == {"samples": 4000, "seed": 0,
                                 "sampled_singular": 1664,
                                 "sampled_marked": 1541,
                                 "containment_violations": 0}


@pytest.mark.parametrize("q,d,count",
                         [(3, 1, 400), (5, 1, 300), (7, 1, 250), (3, 2, 120)])
def test_singular_branches_match_jacobian_search(q, d, count):
    # bit by bit against the scalar search singular_surface_points, with
    # a vanishing discriminant counted as singular
    F = Field(q, 1)
    rows = _zero_biased_rows(q, d, count, 2000 * q + d)
    branches = census.singular_branches(np.array(rows, dtype=np.int64), q, d)
    disc_zero = 0
    for i, digits in enumerate(rows):
        a2, a4, a6 = _forms_from_digits(F, d, digits)
        if weierstrass._disc_form(a2, a4, a6).is_zero():
            want = True
            disc_zero += 1
        else:
            m = weierstrass.WeierstrassModel(F, d, a2, a4, a6)
            want = len(weierstrass.singular_surface_points(m)) > 0
        got = {k: bool(v[i]) for k, v in branches.items()}
        assert any(got.values()) == want, (digits, got)
    # each branch alone decides some tuple, and disc-zero tuples occur
    bits = np.array(list(branches.values()))
    for k, b in zip(branches, bits):
        assert (b & (bits.sum(0) == 1)).any(), k
    assert disc_zero


def test_containment_check_survives_python_O():
    # with a batched test that finds nothing, the marked sample models
    # violate containment; the check must fire with asserts stripped
    script = (
        "import numpy as np\n"
        "from selmerfq import census\n"
        "census.singular_branches = lambda digits, q, d: "
        "{'none': np.zeros(len(digits), dtype=bool)}\n"
        "try:\n"
        "    census.singular_divisor_count(3, seed=0, direct_samples=50)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('no error')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "have no singular point" in proc.stdout


def test_run_census_exhaustive_d0():
    rep = run_census(5, 0, mode="exhaustive")
    assert rep.counts["total"] == 125
    assert rep.counts["minimal"] == 125
    # disc = -16(4 a2^3 a6 - a2^2 a4^2 + 4 a4^3 + 27 a6^2 - 18 a2 a4 a6):
    # vanishing locus has exactly 25 points over F_5
    assert rep.counts["disc_zero"] == 25
    assert rep.counts["smooth"] == 100
    assert rep.stacky_count * (5 ** 1 * 4) == rep.counts["minimal"]
    assert rep.ratios["minimal"][0] == 1.0


def test_run_census_rejects_small_p():
    with pytest.raises(ValueError):
        run_census(3, 1, mode="sample", n=10 ** 4)


def test_run_census_sample_reproducible_and_dense():
    r1 = run_census(5, 1, mode="sample", n=10 ** 4, seed=1)
    r1b = run_census(5, 1, mode="sample", n=10 ** 4, seed=1)
    assert r1.counts == r1b.counts
    r2 = run_census(5, 1, mode="sample", n=10 ** 4, seed=2)
    for key in ("minimal", "smooth"):
        f1, rad1 = r1.ratios[key]
        f2, rad2 = r2.ratios[key]
        assert 0.5 < f1 <= 1.0
        se = ((rad1 / 1.96) ** 2 + (rad2 / 1.96) ** 2) ** 0.5
        assert abs(f1 - f2) <= max(3 * se, 1e-12)


def test_run_census_seed0_counts():
    # the benchmark's independent recount over the same draws agrees
    rep = run_census(5, 1, mode="sample", n=10 ** 4, seed=0)
    assert rep.counts == {"total": 10 ** 4, "minimal": 10000, "smooth": 7616,
                          "squarefree_disc": 6109, "disc_zero": 0}


def _scalar_bits(F, d, digits):
    """The census bits from the single-model routes: minimality_of_forms,
    the Kodaira route is_smooth_surface, and is_squarefree."""
    a2, a4, a6 = _forms_from_digits(F, d, digits)
    minimal = weierstrass.minimality_of_forms(F, d, a2, a4, a6)
    disc = weierstrass._disc_form(a2, a4, a6)
    if disc.is_zero():
        return {"minimal": minimal, "smooth": False,
                "squarefree_disc": False, "disc_zero": True}
    m = weierstrass.WeierstrassModel(F, d, a2, a4, a6)
    return {
        "minimal": minimal,
        "smooth": minimal and weierstrass.is_smooth_surface(m),
        "squarefree_disc": is_squarefree(disc.dehomog_t())
        and ord_at(disc, Place.infinity()) <= 1,
        "disc_zero": False,
    }


def _zero_biased_rows(q, d, count, seed):
    """Digits that are 0 with a per-tuple probability from 0 to 1, so that
    non-minimal, disc-zero and additive tuples all occur."""
    rng = SplitMix64(seed)
    rows = []
    for _ in range(count):
        zero_in_20 = rng.below(21)
        rows.append([0 if rng.below(20) < zero_in_20 else rng.below(q)
                     for _ in range(12 * d + 3)])
    return rows


@pytest.mark.parametrize("q,d,count", [(5, 1, 400), (7, 1, 300), (5, 2, 80)])
def test_classify_matches_single_model_routes(q, d, count):
    F = field_make(q)
    rows = _zero_biased_rows(q, d, count, 1000 * q + d)
    bits = classify(np.array(rows, dtype=np.int64), q, d)
    seen = set()
    for i, digits in enumerate(rows):
        want = _scalar_bits(F, d, digits)
        got = {k: bool(v[i]) for k, v in bits.items()}
        assert got == want, (digits, got, want)
        seen.add((want["minimal"], want["disc_zero"], want["smooth"]))
    assert any(not mn for mn, _, _ in seen)
    assert any(d0 for _, d0, _ in seen)
    assert (True, False, False) in seen  # minimal, disc nonzero, not smooth


def test_classify_on_no_rows():
    bits = classify(np.zeros((0, 15), dtype=np.int64), 5, 1)
    assert all(v.shape == (0,) for v in bits.values())


def test_run_census_sample_size_floor():
    with pytest.raises(ValueError):
        run_census(5, 1, mode="sample", n=100)


def test_run_census_sample_size_ceiling():
    with pytest.raises(ValueError, match="2\\^28"):
        run_census(5, 1, mode="sample", n=2 * 10 ** 10)


def test_run_census_work_ceiling(monkeypatch):
    def no_classify(digits, q, d):
        raise AssertionError("tuples classified")
    monkeypatch.setattr(census, "classify", no_classify)
    with pytest.raises(DomainError, match="census work N \\(12d\\+3\\)\\^2 "
                       "= 10207258214400 is past 2000000000"):
        run_census(5, 16, mode="sample", n=2 ** 28)
    # N = 2 10^5 at every d <= 6 stays inside the bound
    assert 2 * 10 ** 5 * (12 * 6 + 3) ** 2 <= census._MAX_CENSUS_WORK


def test_counts_do_not_depend_on_the_chunk(monkeypatch):
    # draws are consumed in one order whatever the chunk size
    seen = []
    for chunk in (512, 1000, 4096):
        monkeypatch.setattr(census, "_CLASSIFY_CHUNK", chunk)
        rep = run_census(5, 1, mode="sample", n=10 ** 4, seed=3)
        div = singular_divisor_count(3, seed=5, direct_samples=3000)
        seen.append((rep.counts, div["direct_detail"], div["image_count"]))
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize("flags", [{}, {"minimal": True},
                                   {"minimal": True, "smooth": True}])
@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("q", [5, 7, 11])
def test_random_models_match_random_model(q, d, flags, monkeypatch):
    # random_model is the oracle: the same models in draw order and the
    # same final rng state, for every count and chunk size
    F = field_make(q)
    for seed in (0, 1000003):
        rng = SplitMix64(seed)
        want, states = [], [rng.state]
        for _ in range(70):
            want.append(weierstrass.random_model(F, d, rng, **flags))
            states.append(rng.state)
        for chunk in (16, 4096):
            monkeypatch.setattr(census, "_CLASSIFY_CHUNK", chunk)
            for count in (0, 1, 70):
                rng = SplitMix64(seed)
                assert census.random_models(F, d, rng, count, **flags) \
                    == want[:count]
                assert rng.state == states[count]


@pytest.mark.parametrize("d", [0, 1, 2])
def test_random_models_at_p3(d):
    # batched draws match the oracle, and smooth ones raise as it does,
    # but before any draw: the classify smooth bit is proved only for p >= 5
    for flags in ({}, {"minimal": True}):
        rng, oracle = SplitMix64(d), SplitMix64(d)
        assert census.random_models(Field(3), d, rng, 20, **flags) == \
            [weierstrass.random_model(Field(3), d, oracle, **flags)
             for _ in range(20)]
        assert rng.state == oracle.state
    for F in (Field(3), Field(3, 2)):
        with pytest.raises(DomainError, match="needs p >= 5"):
            weierstrass.random_model(F, d, SplitMix64(0), smooth=True)
        rng = SplitMix64(0)
        with pytest.raises(DomainError, match="needs p >= 5"):
            census.random_models(F, d, rng, 3, smooth=True)
        assert rng.state == SplitMix64(0).state


def test_random_models_prime_power_field():
    # classify works mod p, so F_25 takes the random_model path
    F = Field(5, 2)
    rng, oracle = SplitMix64(4), SplitMix64(4)
    models = census.random_models(F, 1, rng, 3, minimal=True)
    assert models == [weierstrass.random_model(F, 1, oracle, minimal=True)
                      for _ in range(3)]
    assert rng.state == oracle.state


def test_random_models_extension_field_large_height():
    # minimality and smoothness by gcds of Hasse derivatives, without
    # factoring: one minimal model over F_25 at d = 16 took about 40 s when
    # each draw was factored, and a smooth one did not end within 60 s when
    # Tate's algorithm decided each draw.  A subprocess with a timeout fails
    # a returning hang fast instead of stalling the run.
    script = (
        "import time\n"
        "from selmerfq import census, weierstrass\n"
        "from selmerfq.ffpoly import Field\n"
        "from selmerfq.rng import SplitMix64\n"
        "for smooth in (False, True):\n"
        "    t0 = time.perf_counter()\n"
        "    (m,) = census.random_models(Field(5, 2), 16, SplitMix64(0), 1,\n"
        "                                minimal=True, smooth=smooth)\n"
        "    assert time.perf_counter() - t0 < 10, smooth\n"
        "    assert m.d == 16 and weierstrass.minimality_of_forms(\n"
        "        m.field, 16, m.a2, m.a4, m.a6)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr


def test_random_models_smooth_implies_minimal():
    F = field_make(5)
    rng, both = SplitMix64(2), SplitMix64(2)
    assert census.random_models(F, 1, rng, 20, smooth=True) == \
        census.random_models(F, 1, both, 20, minimal=True, smooth=True)
    assert rng.state == both.state


def test_orbit_stabilizer_audit():
    results = orbit_stabilizer_audit(5, 1, 5, seed=60)
    assert all(r["pass"] for r in results)
    for r in results:
        assert r["orbit_size"] * r["stabilizer"] == 500
