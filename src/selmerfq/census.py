"""Statistics over the coefficient space A^{12d+3}(F_q): minimality and
smoothness densities, the singular-surface locus via incidence marking,
and orbit-stabilizer audits for the change-of-coordinates group.

Coefficient tuples are encoded as mixed-radix integers with a_{2,0} the
fastest digit.  The census classifies chunks of tuples, held as int64 rows,
by array passes of ffpoly's batched F_p[t] kernel, each gcd only on the rows
it can still decide.  For p >= 5, with D^(j) the Hasse derivatives and
ord_inf f = deg(form) - deg f(1, t): minimal iff d = 0, or gcd(D^(0..1) a2,
D^(0..3) a4, D^(0..5) a6) is a nonzero constant and the top 2, 4, 6
coefficients do not all vanish; squarefree_disc iff g1 = gcd(Delta,
D1 Delta) is constant and ord_inf Delta <= 1; smooth (bad fibers I_1 or II)
iff minimal, gcd(g1, D2 Delta) is constant, g1 | c4, and ord_inf Delta <= 1,
or = 2 with c4 vanishing at infinity; c4 and Delta come from
`_invariant_rows`, weierstrass._invariant_forms on rows.  `random_models`
keeps the rows these bits accept, in draw order: what a loop of
weierstrass.random_model returns.

The direct singularity test `singular_branches` runs on the same kernel and
is exact for every odd p.  With A, B, C = a2, a4, a6 and ' = d/dt, put
N = 9C - AB and M = 2(A^2 - 3B): the first subresultant of the fiber cubic
f and f_x is -M x + N, so at a root of Delta with M != 0 the double root is
x0 = N/M and f_t(x0) = 0 iff G = A' N^2 + B' N M + C' M^2 vanishes; with
M = 0 the root is triple and f_t(x0) = 0 iff H vanishes, H = A' A^2 -
3 A B' + 9 C' for p >= 5 and, as x0^3 = -C, H = A'^3 C^2 - B'^3 C + C'^3
for p = 3.  A tuple is singular iff h = gcd(Delta, G) has a root off M,
i.e. deg gcd(h, M^k) < deg h for k >= 12d; or gcd(Delta, M, H) is not
constant; or, on the rows reversed (the chart at infinity), Delta(0) = 0
and G(0) = 0 when M(0) != 0, H(0) = 0 when M(0) = 0.  Delta = 0 counts as
singular and needs no test of its own: the multiple-root section
(x0(t), 0) is integral over F_p[t] and has f = f_x = 0, hence f_t = 0,
along it, so it meets the fiber at infinity in a point the last test finds.
"""

import functools
import itertools
import math
import time

import numpy as np

from . import DomainError, ffpoly, weierstrass
from .ffpoly import BinaryForm, UniPoly
from .rng import SplitMix64

_EXHAUSTIVE_BUDGET = 1 << 28
# most direct samples of singular_divisor_count: about 7 s on 2 CPUs
_MAX_DIRECT_SAMPLES = 3 * 10 ** 5
# largest census work N (12d+3)^2: on 2 CPUs a unit takes 1.3-3.1 * 10^-8 s,
# slowest at d <= 1, so the largest accepted run ends within about a minute
_MAX_CENSUS_WORK = 2 * 10 ** 9
# largest random_models count * (k d)^2 drawn one model at a time (k > 1 or
# p >= 2^31): a unit takes 1-5 * 10^-4 s on 2 CPUs, so a minute at most
_MAX_SCALAR_WORK = 10 ** 5
# tuples per array pass: enough to amortize each numpy call of rows_gcd's
# Euclid steps, at a 1.5 MB rows_gcd peak at d = 1; counts do not depend on it
_CLASSIFY_CHUNK = 4096


def coeff_lengths(d):
    return (2 * d + 1, 4 * d + 1, 6 * d + 1)


def exhaustive_space(q, d):
    """Size q^(12d+3) of the coefficient space; raises past the budget."""
    total = q ** (12 * d + 3)
    if total > _EXHAUSTIVE_BUDGET:
        raise DomainError("budget exceeded: q^(12d+3) = %d > 2^28" % total)
    return total


def tuple_to_index(coeffs, q):
    """Mixed-radix code of a flat coefficient tuple, first entry fastest."""
    idx = 0
    for c in reversed(coeffs):
        idx = idx * q + c
    return idx


class CensusReport:
    def __init__(self, q, d, mode, seed, n, counts, ratios, stacky_count,
                 elapsed):
        self.q = q
        self.d = d
        self.mode = mode
        self.seed = seed
        self.n = n
        self.counts = counts
        self.ratios = ratios  # name -> (fraction, 95% radius)
        self.stacky_count = stacky_count
        self.elapsed = elapsed

    def to_json(self):
        return {
            "q": self.q,
            "d": self.d,
            "mode": self.mode,
            "seed": self.seed,
            "n": self.n,
            "counts": dict(self.counts),
            "ratios": {k: {"fraction": v[0], "radius_95": v[1]}
                       for k, v in self.ratios.items()},
            "stacky_count": self.stacky_count,
            "elapsed_seconds": self.elapsed,
        }


def _invariant_rows(a2, a4, a6, p):
    """(c4, Delta) of weierstrass._invariant_forms, row by row."""
    mul = functools.partial(ffpoly.rows_mul, p=p)
    a2sq = mul(a2, a2)
    X = mul(a2, (2 * a2sq - 9 * a4) % p)
    inner = mul(a6, (2 * X + 27 * a6) % p) \
        + mul(mul(a4, a4), (4 * a4 - a2sq) % p)
    return 16 * (a2sq - 3 * a4) % p, -16 * inner % p


def classify(digits, q, d):
    """Census bits (see the module docstring) of the tuples in the rows of
    `digits`, as boolean arrays by count name; exact for p >= 5, any d."""
    l2, l4, _ = coeff_lengths(d)
    a2, a4, a6 = digits[:, :l2], digits[:, l2:l2 + l4], digits[:, l2 + l4:]
    deg, hasse = ffpoly.rows_degree, ffpoly.rows_hasse
    gcd = functools.partial(ffpoly.rows_gcd, p=q)
    minimal = np.ones(len(digits), dtype=bool)
    if d > 0:
        g, rows = a2, np.arange(len(digits))
        for f, js in ((a2, [1]), (a4, range(4)), (a6, range(6))):
            for j in js:  # on the rows whose running gcd is no unit
                g = gcd(g, hasse(f[rows], j, q))
                keep = deg(g) != 0
                rows, g = rows[keep], g[keep]
        minimal[rows] = False
        minimal &= a2[:, -2:].any(1) | a4[:, -4:].any(1) | a6[:, -6:].any(1)

    c4, disc = _invariant_rows(a2, a4, a6, q)
    ord_inf = 12 * d - deg(disc)
    g1 = gcd(disc, hasse(disc, 1, q))
    singular = deg(g1) != 0
    g1, fibers_ok = g1[singular], ~singular
    fibers_ok[singular] = (deg(gcd(g1, hasse(disc[singular], 2, q))) == 0) \
        & (deg(gcd(c4[singular], g1)) == deg(g1))
    return {
        "minimal": minimal,
        "smooth": minimal & fibers_ok
        & ((ord_inf <= 1) | ((ord_inf == 2) & (c4[:, -1] == 0))),
        "squarefree_disc": ~singular & (ord_inf <= 1),
        "disc_zero": ~disc.any(1),
    }


def run_census(q, d, mode="sample", n=10 ** 4, seed=0):
    """Statistics over coefficient tuples, classified by `classify` in
    chunks; p >= 5, where its predicates are exact, p < 2^31, and N (12d+3)^2
    <= _MAX_CENSUS_WORK.  It raises DomainError only on inputs outside these
    bounds, before any draw."""
    ffpoly.field_make(q)  # rejects p in {2, 3} and composite q
    if q >= 1 << 31:
        raise DomainError("census runs over prime fields with p < 2^31")
    width = 12 * d + 3
    total_space = q ** width
    t0 = time.time()

    if mode == "exhaustive":
        n_models = exhaustive_space(q, d)
        seed_out = rng = None
    elif mode == "sample":
        if n < 10 ** 4:  # the work bound below caps N
            raise DomainError("sampling needs N >= 10^4, got %d" % n)
        rng = SplitMix64(seed)
        n_models = n
        seed_out = seed
    else:
        raise DomainError("mode must be 'exhaustive' or 'sample'")
    work = n_models * width ** 2
    if work > _MAX_CENSUS_WORK:
        raise DomainError("census work N (12d+3)^2 = %d is past %d"
                          % (work, _MAX_CENSUS_WORK))

    counts = {"total": n_models, "minimal": 0, "smooth": 0,
              "squarefree_disc": 0, "disc_zero": 0}
    for lo in range(0, n_models, _CLASSIFY_CHUNK):
        rows = min(_CLASSIFY_CHUNK, n_models - lo)
        if rng is None:
            idx = np.arange(lo, lo + rows, dtype=np.int64)
            digits = idx[:, None] // q ** np.arange(width, dtype=np.int64) % q
        else:
            digits = rng.below_array(q, rows * width).reshape(rows, width)
        for key, bits in classify(digits, q, d).items():
            counts[key] += int(bits.sum())

    ratios = {}
    for key in ("minimal", "smooth", "squarefree_disc"):
        frac = counts[key] / counts["total"]
        if mode == "exhaustive":
            rad = 0.0
        else:
            rad = 1.96 * (frac * (1 - frac) / n_models) ** 0.5
        ratios[key] = (frac, rad)

    group_order = q ** (2 * d + 1) * (q - 1)
    if mode == "exhaustive":
        stacky = counts["minimal"] / group_order
    else:
        stacky = counts["minimal"] / n_models * total_space / group_order
    return CensusReport(q, d, mode, seed_out, n_models, counts, ratios,
                        stacky, time.time() - t0)


def random_models(F, d, rng, count, minimal=False, smooth=False):
    """The models of `count` calls of weierstrass.random_model(F, d, rng,
    minimal, smooth), leaving rng in the same state; smooth implies minimal.
    Over prime fields with p < 2^31 the draws are decided by `classify` in
    chunks, and rng is then replayed up to the last accepted row; over
    F_{p^k}, k > 1, or p >= 2^31, each from random_model, if count (k d)^2
    <= _MAX_SCALAR_WORK.  Smooth needs p >= 5.  Both raise before any draw."""
    if d < 0:
        raise DomainError("height d must be >= 0, got %r" % (d,))
    if smooth and F.characteristic < 5:
        raise DomainError("smoothness by the gcd test needs p >= 5")
    minimal = minimal or smooth
    if F.k != 1 or F.q >= 1 << 31:
        work = count * (F.k * d) ** 2
        if work > _MAX_SCALAR_WORK:
            raise DomainError("one model at a time over %r: count * (k d)^2 "
                              "= %d is past %d" % (F, work, _MAX_SCALAR_WORK))
        return [weierstrass.random_model(F, d, rng, minimal, smooth)
                for _ in range(count)]
    q, width = F.q, 12 * d + 3
    l2, l4, _ = coeff_lengths(d)
    start = rng.state
    models, drawn, used = [], 0, 0  # used: rows up to the last accepted one
    while len(models) < count:
        # 3/4 or more of the rows pass (q = 5..13, d <= 2, measured), so
        # twice the shortfall is most often one pass
        rows = min(_CLASSIFY_CHUNK, 2 * (count - len(models)) + 8)
        digits = rng.below_array(q, rows * width).reshape(rows, width)
        bits = classify(digits, q, d)
        ok = ~bits["disc_zero"]
        if minimal:
            ok &= bits["minimal"]
        if smooth:
            ok &= bits["smooth"]
        for i in np.flatnonzero(ok)[:count - len(models)]:
            row = digits[i].tolist()
            models.append(weierstrass.WeierstrassModel(F, d, *(
                BinaryForm(F, len(c) - 1, c)
                for c in (row[:l2], row[l2:l2 + l4], row[l2 + l4:]))))
            used = drawn + int(i) + 1
        drawn += rows
    rng.state = start
    rng.below_array(q, used * width)
    return models


# ---------------------------------------------------------------------------
# Hasse-derivative jets at the q + 1 degree-1 places (pure linear algebra,
# so it runs even at p = 3).  For d = 1 the non-minimal locus and the
# incidence mask are unions over places of block products on the a6, a4, a2
# digit blocks of q^7, q^5, q^3 vectors: a tuple is non-minimal at v iff the
# first 2, 4, 6 jet coefficients of a2, a4, a6 at v all vanish.

def _jets(length, tp, q, k):
    """The first k Taylor coefficients D^(j) f(alpha), j < k, at the t-point
    tp (alpha in F_q, or 'inf': the reversed digits at 0, as in
    `singular_branches`) of every digit vector of one block, first digit
    fastest, as a (q^length, k) array mod q; BinaryForm.jet, batched."""
    digits = np.arange(q ** length)[:, None] // q ** np.arange(length) % q
    if tp == "inf":
        digits, tp = digits[:, ::-1], 0
    return np.stack([ffpoly.rows_hasse(digits, j, q)
                     @ np.array([pow(tp, m, q) for m in range(length - j)],
                                dtype=np.int64) % q
                     for j in range(k)], axis=1)


def exhaustive_minimality(q):
    """Exact count of minimal tuples over the whole d = 1 coefficient space.

    Two independent routes whose agreement is checked: at every place v
    (the q degree-1 places plus infinity) the outer product of the kernel
    masks K6_v x K4_v x K2_v, each over its own block of q^7, q^5, q^3
    digit vectors, ORed over v; and direct enumeration of the non-minimal
    locus as a union of coordinate subspaces.  Feasible budget:
    q^15 <= 2^28.
    """
    total = exhaustive_space(q, 1)
    t0 = time.time()
    l2, l4, l6 = coeff_lengths(1)

    # route 1: a6 is the slowest digit block, so it is the outer axis
    bad = np.zeros((q ** l6, q ** l4, q ** l2), dtype=bool)
    for tp in list(range(q)) + ["inf"]:
        K6, K4, K2 = (~_jets(ln, tp, q, k).any(1)
                      for ln, k in ((l6, 6), (l4, 4), (l2, 2)))
        bad |= K6[:, None, None] & K4[None, :, None] & K2[None, None, :]
    nonmin_indices = np.flatnonzero(bad)
    nonmin_count = len(nonmin_indices)

    # route 2: the non-minimal locus is the union over places v of the
    # subspaces {a2 = c2 v^2, a4 = c4 v^4, a6 = c6 v^6}
    F = ffpoly.Field(q, 1)
    oracle = set()
    vs = [UniPoly(F, [F.neg(F.from_int(a)), F.one]) for a in range(q)]
    for v in vs + [None]:  # None marks the place at infinity
        if v is None:
            pows = [UniPoly.const(F, F.one)] * 3
        else:
            v2 = v * v
            pows = [v2, v2 * v2, v2 * v2 * v2]
        for c2 in range(q):
            for c4 in range(q):
                for c6 in range(q):
                    parts = []
                    for c, pw, ln in zip((c2, c4, c6), pows, (l2, l4, l6)):
                        poly = pw.scale(F.from_int(c))
                        cs = list(poly.coeffs) + [0] * (ln - len(poly.coeffs))
                        parts.extend(int(x) for x in cs[:ln])
                    oracle.add(tuple_to_index(parts, q))
    if set(nonmin_indices.tolist()) != oracle:
        raise ValueError("minimality routes disagree: %d non-minimal tuples "
                         "by the kernel products, %d by the subspace union"
                         % (nonmin_count, len(oracle)))

    return {
        "q": q, "d": 1, "total": total,
        "minimal": total - nonmin_count,
        "nonminimal": nonmin_count,
        "oracle_nonminimal": len(oracle),
        "minimal_fraction": (total - nonmin_count) / total,
        "elapsed_seconds": time.time() - t0,
    }


# ---------------------------------------------------------------------------
# the singular-surface locus: incidence marking and the direct Jacobian test

def _locus_space(q):
    """q^15 tuples in the d = 1 space of the locus, for an odd prime q."""
    if q == 2 or not ffpoly._is_prime(q):
        raise DomainError("incidence marking needs an odd prime q, got %r" % q)
    return exhaustive_space(q, 1)


def incidence_mask(q):
    """Boolean mark array over the whole d = 1 coefficient space: True where
    some rational base point (x0, tau) has f = f_x = f_u = 0 for the fiber
    cubic f = x^3 + a2 x^2 + a4 x + a6 and u the local parameter at the
    t-point tau.  With V_k, D_k the value and first Taylor coefficient of
    a_k at tau, these are x0^3 + V2 x0^2 + V4 x0 + V6, 3 x0^2 + 2 V2 x0 + V4
    and D2 x0^2 + D4 x0 + D6.  f_x does not involve a6; where it vanishes,
    f = f_u = 0 fixes (V6, D6), so each tau ORs in one lookup of a
    (V6, D6)-indexed table over the a6 block.  Pure linear algebra, so it
    runs at p = 3 as well; q must be an odd prime."""
    _locus_space(q)
    l2, l4, l6 = coeff_lengths(1)
    mask = np.zeros((q ** l6, q ** l4, q ** l2), dtype=bool)
    for tp in list(range(q)) + ["inf"]:
        (V2, D2), (V4, D4), (V6, D6) = (_jets(ln, tp, q, 2).T
                                        for ln in (l2, l4, l6))
        V4, D4 = V4[:, None], D4[:, None]
        # marks[V6 + q D6, i4, i2]: some x0 with f_x = 0 has that target
        marks = np.zeros((q * q, q ** l4, q ** l2), dtype=bool)
        for x0 in range(q):
            i4, i2 = np.nonzero((3 * x0 * x0 + 2 * x0 * V2 + V4) % q == 0)
            target = -(x0 ** 3 + V2 * x0 * x0 + V4 * x0) % q \
                + q * (-(D2 * x0 * x0 + D4 * x0) % q)
            marks[target[i4, i2], i4, i2] = True
        # OR the lookup in slices of the a6 block, so the temporary stays
        # 1/q^2 of the mask
        lookup = V6 + q * D6
        step = q ** (l6 - 2)
        for lo in range(0, q ** l6, step):
            mask[lo:lo + step] |= marks[lookup[lo:lo + step]]
    return mask.reshape(-1)


def _jacobian_rows(A, B, C, p):
    """(M, G, H) of the module docstring for coefficient rows a2, a4, a6."""
    mul = functools.partial(ffpoly.rows_mul, p=p)
    dA, dB, dC = (ffpoly.rows_hasse(f, 1, p) for f in (A, B, C))
    AA = mul(A, A)
    N = (9 * C - mul(A, B)) % p
    M = 2 * (AA - 3 * B) % p
    G = (mul(dA, mul(N, N)) + mul(dB, mul(N, M)) + mul(dC, mul(M, M))) % p
    if p == 3:  # x0^3 = -C, and cubing is additive
        def cube(f):
            return mul(mul(f, f), f)
        H = mul(cube(dA), mul(C, C)) - mul(cube(dB), C) + cube(dC)
    else:  # x0 = -A/3
        H = mul(dA, AA) - 3 * mul(A, dB) + 9 * dC
    return M, G, H % p


def singular_branches(digits, q, d):
    """The three branches of the Jacobian criterion in the module docstring,
    as boolean arrays over the rows of `digits`; a tuple is singular iff
    one of them holds.  Exact for odd p and d >= 1."""
    l2, l4, _ = coeff_lengths(d)
    forms = digits[:, :l2], digits[:, l2:l2 + l4], digits[:, l2 + l4:]
    deg = ffpoly.rows_degree
    gcd = functools.partial(ffpoly.rows_gcd, p=q)
    disc = _invariant_rows(*forms, q)[1]
    M, G, H = _jacobian_rows(*forms, q)
    # h has a root off M iff deg gcd(h, M^k) < deg h, for k >= deg h;
    # gcd(h, g^2) for g = gcd(h, M^k) is gcd(h, M^2k), of width at most h's
    h = gcd(disc, G)
    h_on_M = gcd(h, M)
    for _ in range(math.ceil(math.log2(12 * d))):
        h_on_M = gcd(h, ffpoly.rows_mul(h_on_M, h_on_M, q))[:, :h.shape[1]]
    # the chart at infinity: the rows reversed, at s = 0
    M_inf, G_inf, H_inf = (f[:, 0] for f in
                           _jacobian_rows(*(f[:, ::-1] for f in forms), q))
    return {
        "double_root": deg(h_on_M) < deg(h),
        "triple_root": deg(gcd(gcd(disc, M), H)) > 0,
        "infinity": (disc[:, -1] == 0)
        & np.where(M_inf != 0, G_inf == 0, H_inf == 0),
    }


def singular_divisor_count(q, seed=0, direct_samples=4000):
    """Report on the d = 1 singular-surface locus: image_count, direct_count.

    image_count is exact: the tuples `incidence_mask` marks, by one table
    lookup per t-point over the a6 block.  direct_count is a sampling
    estimate: `direct_samples` uniform tuples, decided in chunks by the
    batched Jacobian test `singular_branches`; only an exhaustive direct
    count over the whole space is out of time budget.  The containment
    audit (marked => directly singular) runs on the same sample, of at most
    _MAX_DIRECT_SAMPLES tuples.
    """
    t0 = time.time()
    total = _locus_space(q)
    if not 1 <= direct_samples <= _MAX_DIRECT_SAMPLES:
        raise DomainError("direct_samples must be in [1, %d], got %d"
                          % (_MAX_DIRECT_SAMPLES, direct_samples))
    mask = incidence_mask(q)
    image_count = int(mask.sum())
    width = 15
    radix = q ** np.arange(width, dtype=np.int64)

    rng = SplitMix64(seed)
    sampled_singular = 0
    sampled_marked = 0
    containment_violations = 0
    for lo in range(0, direct_samples, _CLASSIFY_CHUNK):
        rows = min(_CLASSIFY_CHUNK, direct_samples - lo)
        idx = rng.below_array(total, rows)
        sing = np.logical_or.reduce(list(
            singular_branches(idx[:, None] // radix % q, q, 1).values()))
        marked = mask[idx]
        sampled_singular += int(sing.sum())
        sampled_marked += int(marked.sum())
        containment_violations += int((marked & ~sing).sum())
    if containment_violations:
        raise ValueError("%d incidence-marked sampled models have no singular "
                         "point" % containment_violations)

    direct_count = round(sampled_singular / direct_samples * total)
    detail = {
        "samples": direct_samples,
        "seed": seed,
        "sampled_singular": sampled_singular,
        "sampled_marked": sampled_marked,
        "containment_violations": containment_violations,
    }
    return {"q": q, "d": 1, "image_count": image_count,
            "image_ratio": image_count / q ** (width - 1),
            "direct_mode": "sample", "direct_count": direct_count,
            "direct_detail": detail, "elapsed_seconds": time.time() - t0}


# ---------------------------------------------------------------------------
# orbit-stabilizer audit

def orbit_stabilizer_audit(q, d, count, seed=0):
    """For `count` random minimal models, enumerate the full orbit under
    G(F_q) = G_a^{2d+1} x| G_m and check |orbit| * |stabilizer| = |G|;
    also that each orbit element is hit exactly |stabilizer| times (the
    weighted-count consistency behind the stacky identity)."""
    F = ffpoly.field_make(q)
    group_order = q ** (2 * d + 1) * (q - 1)
    rng = SplitMix64(seed)
    elems = list(F.elements())
    nonzero = [x for x in elems if x != F.zero]
    results = []
    for m in random_models(F, d, rng, count, minimal=True):
        hits = {}
        for r_coeffs in itertools.product(elems, repeat=2 * d + 1):
            r = BinaryForm(F, 2 * d, list(r_coeffs))
            for lam in nonzero:
                g = weierstrass.GroupElement(r, lam)
                b2, b4, b6 = weierstrass.act_on_forms(g, m.a2, m.a4, m.a6)
                key = b2.coeffs + b4.coeffs + b6.coeffs
                hits[key] = hits.get(key, 0) + 1
        stab = weierstrass.stabilizer_order(m)
        orbit_size = len(hits)
        ok = (orbit_size * stab == group_order
              and all(v == stab for v in hits.values()))
        results.append({
            "model": m.to_json(),
            "orbit_size": orbit_size,
            "stabilizer": stab,
            "group_order": group_order,
            "pass": ok,
        })
    return results
