"""Acceptance criteria: ten checks, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; each criterion carries its stated tolerance and time budget.
"""

import hashlib
import json
import math
import time

import pytest
import sympy

from selmerfq import census, ffpoly, lattice, lfunction, localdata, weierstrass
from selmerfq.ffpoly import field_make
from selmerfq.lattice import QuadraticModule, standard_generators
from selmerfq.rng import SplitMix64


def _sigma(n):
    return sum(m for m in range(1, n + 1) if n % m == 0)


def _line(num, ok, text):
    print("%s: criterion %d - %s" % ("PASS" if ok else "FAIL", num, text))
    assert ok, text


@pytest.fixture(scope="module")
def mod2_exhaustive():
    lat, gens = standard_generators(2)
    module = QuadraticModule(lat, 2)
    t0 = time.monotonic()
    report = lattice.orbit_decompose(module, gens)
    return report, time.monotonic() - t0


def test_criterion_1_orbit_count_sigma_2(mod2_exhaustive):
    report, elapsed = mod2_exhaustive
    invs = sorted(tuple(inv) for _, _, inv in report.orbits)
    ok = (report.orbit_count == 3
          and invs == [(1, 0), (1, 1), (2, 0)]
          and elapsed < 60.0)
    _line(1, ok, "exhaustive mod-2 BFS on rank 20: %d orbits, invariants %s,"
          " %.1fs (< 60s)" % (report.orbit_count, invs, elapsed))


def test_criterion_2_primitive_single_orbit(mod2_exhaustive):
    report, _ = mod2_exhaustive
    prim = [(rep, size, inv) for rep, size, inv in report.orbits if inv[0] == 1]
    prim_invs = [inv for _, _, inv in prim]
    # one orbit per primitive q-class, and the class sizes add up to the
    # full count of primitive vectors
    distinct = len(prim_invs) == len(set(prim_invs))
    n_prim = 2 ** 20 - 2 ** 0  # everything except the zero vector at n = 2
    total = sum(size for _, size, _ in prim)
    ok = distinct and total == n_prim
    _line(2, ok, "each primitive q-class is a single orbit (exact); "
          "%d primitive vectors covered" % total)


def test_mod2_exhaustive_report_pinned(mod2_exhaustive):
    # orbit order, representatives, sizes, invariants and generator q-values
    report, _ = mod2_exhaustive
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0afa4bdbfdb928b1dac758bb7f68c28ed7f573c8613e843e2d7de990f8d55512")


def test_mod2_exhaustive_orbits_pinned(mod2_exhaustive):
    # the orbit list alone (order, representatives, sizes, invariants), which
    # no generating set of the same group may change
    report, _ = mod2_exhaustive
    text = json.dumps(report.to_json()["orbits"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f19fd29a71e4b940e876030f138ac548331204e04f37887737f8d7cd266ab82f")


def test_criterion_3_weyl_e8_n3():
    t0 = time.monotonic()
    report = lattice.weyl_e8_orbits(3)
    elapsed = time.monotonic() - t0
    ok = report.orbit_count == 5 and elapsed < 1.0
    _line(3, ok, "weyl_e8_orbits(3) = %d (want 5), %.2fs (< 1s)"
          % (report.orbit_count, elapsed))


def test_criterion_4_invariant_classes_and_connectivity():
    t0 = time.monotonic()
    lat = lattice.selmer_lattice(2)
    counts_ok = True
    for n in range(1, 13):
        module = QuadraticModule(lat, n)
        classes = module.predicted_classes()
        if len(classes) != _sigma(n):
            counts_ok = False
    module3 = QuadraticModule(lat, 3)
    rep = lattice.sampling_connectivity(module3, SplitMix64(0x5E1),
                                        pairs_per_class=100)
    elapsed = time.monotonic() - t0
    ok = counts_ok and rep.unresolved == [] and elapsed < 600.0
    _line(4, ok, "sigma(n) classes for n = 1..12 and n = 3 connectivity "
          "(100 pairs/class, %d unresolved), %.1fs (< 10 min)"
          % (len(rep.unresolved), elapsed))


def test_criterion_5_rank_two_ways():
    t0 = time.monotonic()
    F = field_make(5)
    rng = SplitMix64(0xC5)
    T = sympy.Symbol("T")
    ok = True
    for _ in range(50):
        m = weierstrass.random_model(F, 1, rng, minimal=True, smooth=True)
        disc = weierstrass.discriminant(m)
        # total vanishing degree of the discriminant, infinity included
        disc_deg = disc.dehomog_t().degree() + ffpoly.ord_at(
            disc, ffpoly.Place.infinity())
        summary = localdata.global_summary(m)
        L = lfunction.l_polynomial(m)
        # |alpha| = 5 exactly: L(T/5) = (-1)^m_1 prod Phi_k^m_k, checked
        # with sympy's own cyclotomic polynomials
        pure = sympy.expand(
            sum(c * (T / 5) ** i for i, c in enumerate(L.coeffs))
            - (-1) ** L.factorization.get(1, 0) * sympy.prod(
                sympy.cyclotomic_poly(k, T) ** mult
                for k, mult in L.factorization.items())) == 0
        if not (disc_deg == 12 and summary.conductor_degree == 12
                and L.degree == 8 and pure):
            ok = False
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    _line(5, ok, "50 smooth F_5 models: deg disc = 12, sum f_v deg v = 12, "
          "deg L = 8, |alpha| = 5 exactly; %.1fs (< 10 min)" % elapsed)


def test_criterion_6_census_densities():
    t0 = time.monotonic()
    mask = census.incidence_mask(3)
    marks_mb = mask.nbytes / 2 ** 20
    image_count = int(mask.sum())
    log3 = math.log(image_count, 3)
    minrep = census.exhaustive_minimality(3)
    elapsed = time.monotonic() - t0
    ok = (13.5 < log3 < 14.5
          and minrep["nonminimal"] == minrep["oracle_nonminimal"] == 105
          and marks_mb <= 256 and elapsed < 1800.0)
    _line(6, ok, "q = 3 exhaustive: log3(image_count) = %.2f in (13.5, 14.5), "
          "minimal fraction exact vs oracle (%d non-minimal), %.0f MB marks, "
          "%.1fs (< 30 min)" % (log3, minrep["nonminimal"], marks_mb, elapsed))


def test_criterion_7_stacky_identity():
    results = census.orbit_stabilizer_audit(5, 1, 100, seed=0x57AC)
    ok = all(r["pass"] for r in results) and len(results) == 100
    _line(7, ok, "|orbit| x |stabilizer| = 500 on %d/%d random minimal models"
          % (sum(r["pass"] for r in results), len(results)))


def test_criterion_8_f7_example():
    t0 = time.monotonic()
    m = weierstrass.f7_example_model()
    summary = localdata.global_summary(m)
    kinds = sorted(pd.kodaira for pd in summary.places)
    secs = weierstrass.torsion_section_search(m, 3)
    elapsed = time.monotonic() - t0
    ok = (kinds == ["I_1", "I_3"] and summary.tamagawa_product == 3
          and len(secs) > 0 and elapsed < 1.0)
    _line(8, ok, "F_7 example: types %s, c-product %d, 3-torsion section "
          "found, %.2fs (< 1s)" % (kinds, summary.tamagawa_product, elapsed))


def test_criterion_9_torsion_freeness():
    t0 = time.monotonic()
    F = field_make(5)
    ok = True
    for d in (1, 2):
        rng = SplitMix64(0x709 + d)
        for _ in range(100):
            m = weierstrass.random_model(F, d, rng, minimal=True, smooth=True)
            if weierstrass.torsion_section_search(m, 2) != [] \
                    or weierstrass.torsion_section_search(m, 3) != []:
                ok = False
                break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    _line(9, ok, "200 smooth models d in {1, 2}: no 2- or 3-torsion "
          "sections, %.1fs (< 5 min)" % elapsed)


def test_criterion_10_smoothness_agreement():
    t0 = time.monotonic()
    F = field_make(5)
    rng = SplitMix64(0x5A)
    agree = 0
    for _ in range(1000):
        m = weierstrass.random_model(F, 1, rng, minimal=True)
        kodaira_route = weierstrass.is_smooth_surface(m)
        jacobian_route = len(weierstrass.singular_surface_points(m)) == 0
        if kodaira_route == jacobian_route:
            agree += 1
    elapsed = time.monotonic() - t0
    ok = agree == 1000 and elapsed < 600.0
    _line(10, ok, "Kodaira vs Jacobian smoothness agree on %d/1000 models, "
          "%.1fs (< 10 min)" % (agree, elapsed))
