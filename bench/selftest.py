"""Quick tests of the benchmark's own oracles; runs in seconds.

    python3 bench/selftest.py

Each oracle accepts a known-good case and rejects a perturbed one.
Where the known-good case needs the program (an L-polynomial, the
incidence mask, the census predicates), it is computed here from
selmerfq's public functions.
"""

import itertools
import os
import sys

import oracles

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class Failed(Exception):
    pass


def expect(ok, what):
    if not ok:
        raise Failed(what)


def form_model(a2, a4, a6, p=5):
    return {"p": p, "k": 1, "d": 1, "a2": a2, "a4": a4, "a6": a6}


def test_cyclotomic_product():
    q = 5
    good = [1] + [0] * 7 + [-q ** 8]          # L = 1 - q^8 T^8
    P = [c // q ** i for i, c in enumerate(good)]
    expect(oracles.cyclotomic_factorization(P) == {1: 1, 2: 1, 4: 1, 8: 1},
           "1 - T^8 = -Phi_1 Phi_2 Phi_4 Phi_8")
    expect(oracles.lpoly_problems(good, -1, q, [0, 0]) == [],
           "1 - q^8 T^8 passes every L-polynomial check")
    shifted = list(good)
    shifted[1] += q                           # c_1 shifted by q
    P = [c // q ** i for i, c in enumerate(shifted)]
    expect(oracles.cyclotomic_factorization(P) is None,
           "1 + T - T^8 is not a product of cyclotomic polynomials")
    expect("L(T/q) is a product of cyclotomic polynomials"
           in oracles.lpoly_problems(shifted, -1, q, [0, 0]),
           "the shifted L-polynomial fails the cyclotomic check")


def _zero_counts_mod2(gram):
    r = len(gram)
    zeros = sum(oracles.quad(gram, v) % 2 == 0
                for v in itertools.product((0, 1), repeat=r))
    return sorted([1, zeros - 1, 2 ** r - zeros])


def test_quadric_orbit_sizes():
    # E8 and U + U are even unimodular of plus type mod 2: count the zeros
    # of q by brute force
    expect(_zero_counts_mod2(oracles.e8_cartan()) == oracles.quadric_orbit_sizes(8)
           == [1, 120, 135], "E8 mod 2: sizes 1, 120, 135")
    hyp = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    expect(_zero_counts_mod2(hyp) == oracles.quadric_orbit_sizes(4),
           "U + U mod 2")
    expect(sum(oracles.quadric_orbit_sizes(20)) == 2 ** 20, "sizes sum to 2^20")
    # U + A2 is of minus type mod 2 (x^2 + xy + y^2 has no nonzero zero),
    # with 2^(r-1) - 2^(r/2-1) zeros: its sizes are rejected
    minus = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]
    expect(_zero_counts_mod2(minus) == [1, 5, 10] != oracles.quadric_orbit_sizes(4),
           "minus-type sizes are rejected")


def test_point_counts():
    # y^2 = x^3 + 1 is supersingular over F_5 (5 = 2 mod 3): p + 1 points
    # over F_5 and, with a_2 = a_1^2 - 2p = -10, 36 over F_25.  The form
    # a6 = s^6 vanishes at t = infinity, whose fiber y^2 = x^3 has Q + 1.
    good = form_model([0] * 3, [0] * 5, [1] + [0] * 6)
    for e, want in ((1, 5 * 6 + 6), (2, 25 * 36 + 26)):
        for count in (oracles.point_count_naive, oracles.point_count):
            expect(count(good, e) == want,
                   "%s over F_5^%d: %d points" % (count.__name__, e, want))
    # y^2 = x^3 + x is ordinary over F_5, with 4 points
    perturbed = form_model([0] * 3, [1] + [0] * 4, [0] * 7)
    for count in (oracles.point_count_naive, oracles.point_count):
        expect(count(perturbed, 1) == 5 * 4 + 6 != 36,
               "%s: the perturbed model has 26 points" % count.__name__)
    rng = oracles.SplitMix64(7)
    for _ in range(5):
        m = form_model(*oracles.split_forms([rng.below(5) for _ in range(15)], 1))
        for e in (1, 2):
            expect(oracles.point_count_naive(m, e) == oracles.point_count(m, e),
                   "enumeration and chi sums agree")


def test_traces_against_program():
    from selmerfq import lfunction, weierstrass
    model = form_model([0, 0, 4], [4, 2, 0, 3, 0], [4, 0, 1, 1, 3, 1, 2])
    L = lfunction.l_polynomial(weierstrass.WeierstrassModel.from_json(model))
    traces = [oracles.trace(model, e, oracles.point_count_naive) for e in (1, 2)]
    expect(oracles.lpoly_problems(L.coeffs, L.epsilon, 5, traces) == [],
           "the program's L-polynomial passes")
    for i, shift in ((1, 5), (2, 25)):
        c = list(L.coeffs)
        c[i] += shift
        expect(oracles.lpoly_problems(c, L.epsilon, 5, traces) != [],
               "c_%d shifted by %d is rejected" % (i, shift))


def test_base_point_marking():
    from selmerfq import census
    # a2 = s^2, a4 = s^4, a6 = t^5 s: the fiber at t = 0 is
    # y^2 = x (x - 1)^2 and a6 has no linear term there, so (x0, t0) = (1, 0)
    # has f = f_x = f_t = 0
    good = [1, 0, 0] + [1, 0, 0, 0, 0] + [0, 0, 0, 0, 0, 1, 0]
    # a6 + t s^5 makes f_t = 1 at that point, and leaves no other base point
    perturbed = [1, 0, 0] + [1, 0, 0, 0, 0] + [0, 1, 0, 0, 0, 1, 0]
    mask = census.incidence_mask(3)
    for digits, want in ((good, True), (perturbed, False)):
        idx = sum(c * 3 ** i for i, c in enumerate(digits))
        expect(oracles.has_base_point(digits, 3) is want and bool(mask[idx]) is want,
               "base point marked: %s" % want)
    rng = oracles.SplitMix64(11)
    for _ in range(300):
        idx = rng.below(3 ** 15)
        expect(oracles.has_base_point(oracles.index_digits(idx, 3, 15), 3)
               == bool(mask[idx]), "marking agrees with the incidence mask")


def test_census_recount():
    from selmerfq import ffpoly, weierstrass
    from selmerfq.ffpoly import BinaryForm, Place
    # a_k = t^k: ord_0 (2, 4, 6), not minimal; a6 = t^5 s makes it minimal
    nonminimal = [0, 0, 1] + [0, 0, 0, 0, 1] + [0] * 6 + [1]
    minimal = [0, 0, 1] + [0, 0, 0, 0, 1] + [0] * 5 + [1, 0]
    expect(oracles.census_classify(nonminimal, 5)[0] is False, "t^2, t^4, t^6")
    expect(oracles.census_classify(minimal, 5)[0] is True, "t^2, t^4, t^5 s")
    F = ffpoly.field_make(5)
    rng = oracles.SplitMix64(5)
    seen = set()
    for _ in range(300):
        digits = [rng.below(5) for _ in range(15)]
        a2, a4, a6 = (BinaryForm(F, D, f) for D, f in
                      zip((2, 4, 6), oracles.split_forms(digits, 1)))
        mn = weierstrass.minimality_of_forms(F, 1, a2, a4, a6)
        try:
            m = weierstrass.WeierstrassModel(F, 1, a2, a4, a6)
        except ValueError:  # the discriminant vanishes
            want = (mn, True, False, False)
        else:
            disc = weierstrass.discriminant(m)
            sq = ffpoly.is_squarefree(disc.dehomog_t()) \
                and ffpoly.ord_at(disc, Place.infinity()) <= 1
            want = (mn, False, mn and weierstrass.is_smooth_surface(m), sq)
        got = oracles.census_classify(digits, 5)
        expect(got == want, "recount of %s: %s, program %s" % (digits, got, want))
        seen.add(got)
    expect(len(seen) >= 2, "the sample has smooth and singular models")


def main():
    sys.path.insert(0, SRC)
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print("PASS", name)
            except Failed as exc:
                failures += 1
                print("FAIL", name, "-", exc)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
