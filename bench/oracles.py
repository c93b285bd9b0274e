"""Checks made apart from selmerfq.

Nothing here imports the program.  Each function recomputes, from the
definitions, a quantity that a workload's report must match: census
counts over the same SplitMix64 draws, point counts over F_{p^e},
cyclotomic factorizations of d = 1 L-polynomials, orbit invariants of
the E8 and Selmer lattices, and base points of the q = 3 singular locus.

Polynomials over F_p are lists of ints, lowest degree first, with no
trailing zeros (the zero polynomial is []).  A binary form of degree D
is its D + 1 coefficients, entry j multiplying t^j s^(D-j).
"""

import functools
import math
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator with rejection sampling in below()."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n


# ---------------------------------------------------------------------------
# F_p[t]

def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b, p):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def pscale(a, c, p):
    return trim([(c * x) % p for x in a])


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim([x % p for x in out])


def pmod(a, b, p):
    """Remainder of a by the nonzero b."""
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        f = (a[-1] * inv) % p
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - f * y) % p
        a = trim(a)
    return a


def pgcd(a, b, p):
    while b:
        a, b = b, pmod(a, b, p)
    return a


def hasse(a, j, p):
    """The j-th Hasse derivative: t^m -> C(m, j) t^(m-j)."""
    return trim([(math.comb(m, j) * a[m]) % p for m in range(j, len(a))])


def peval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def ord_at_root(a, alpha, p):
    """Exponent of (t - alpha) in the nonzero polynomial a."""
    n = 0
    while True:
        quot, acc = [], 0
        for c in reversed(a):
            acc = (acc * alpha + c) % p
            quot.append(acc)
        if quot.pop() != 0:
            return n
        a = list(reversed(quot))
        n += 1


# ---------------------------------------------------------------------------
# census recount

def split_forms(digits, d):
    l2, l4 = 2 * d + 1, 4 * d + 1
    return digits[:l2], digits[l2:l2 + l4], digits[l2 + l4:]


def _minimal(forms, degrees, p):
    """No place v of degree <= 1 with ord_v(a_k) >= k for k = 2, 4, 6
    (zero forms count as infinitely divisible).  For d = 1 no place of
    higher degree can qualify: v^6 | a6 forces deg v <= 1 unless a6 = 0."""
    polys = [trim(f) for f in forms]
    for alpha in range(p):
        if all(not f or ord_at_root(f, alpha, p) >= k
               for f, k in zip(polys, (2, 4, 6))):
            return False
    return not all(not f or D - (len(f) - 1) >= k
                   for f, D, k in zip(polys, degrees, (2, 4, 6)))


def census_classify(digits, p, d=1):
    """(minimal, disc_zero, smooth, squarefree_disc) of one coefficient tuple.

    Smoothness for p >= 5: the model is minimal and at every place,
    infinity included, ord Delta <= 1, or ord Delta = 2 with c4 vanishing
    there (Kodaira types I_1 and II).  At finite places this reads
    gcd(Delta, D1 Delta, D2 Delta) = 1 and gcd(Delta, D1 Delta) | c4,
    with D_j the Hasse derivatives.
    """
    if d != 1:
        raise ValueError("the recount covers d = 1")
    a2, a4, a6 = (trim(f) for f in split_forms(digits, d))
    minimal = _minimal(split_forms(digits, d), (2 * d, 4 * d, 6 * d), p)
    a2sq = pmul(a2, a2, p)
    inner = pscale(pmul(pmul(a2sq, a2, p), a6, p), 4, p)
    inner = padd(inner, pscale(pmul(a2sq, pmul(a4, a4, p), p), p - 1, p), p)
    inner = padd(inner, pscale(pmul(pmul(a4, a4, p), a4, p), 4, p), p)
    inner = padd(inner, pscale(pmul(a6, a6, p), 27, p), p)
    inner = padd(inner, pscale(pmul(pmul(a2, a4, p), a6, p), -18, p), p)
    disc = pscale(inner, -16, p)
    if not disc:
        return minimal, True, False, False
    ord_inf = 12 * d - (len(disc) - 1)
    g1 = pgcd(disc, hasse(disc, 1, p), p)
    squarefree = len(g1) == 1 and ord_inf <= 1
    c4 = pscale(padd(a2sq, pscale(a4, -3, p), p), 16, p)
    c4_ord_inf = 10 ** 9 if not c4 else 4 * d - (len(c4) - 1)
    g2 = pgcd(g1, hasse(disc, 2, p), p)
    smooth = (minimal and len(g2) == 1 and not pmod(c4, g1, p)
              and (ord_inf <= 1 or (ord_inf == 2 and c4_ord_inf >= 1)))
    return minimal, False, smooth, squarefree


def census_recount(seed, n, p, d=1):
    """Counts over the n tuples a sampled census draws from `seed`:
    12d + 3 draws of below(p) per tuple, a_{2,0} first."""
    rng = SplitMix64(seed)
    width = 12 * d + 3
    counts = {"total": n, "minimal": 0, "smooth": 0,
              "squarefree_disc": 0, "disc_zero": 0}
    for _ in range(n):
        digits = [rng.below(p) for _ in range(width)]
        mn, d0, sm, sq = census_classify(digits, p, d)
        counts["minimal"] += mn
        counts["disc_zero"] += d0
        counts["smooth"] += sm
        counts["squarefree_disc"] += sq
    return counts


# ---------------------------------------------------------------------------
# F_{p^e} and point counts

def _irreducible(p, e):
    """Least monic irreducible of degree e over F_p (by trial division)."""
    def monic(deg, code):
        return [(code // p ** i) % p for i in range(deg)] + [1]
    for code in range(p ** e):
        f = monic(e, code)
        if all(pmod(f, monic(k, c), p) for k in range(1, e // 2 + 1)
               for c in range(p ** k)):
            return f
    raise ValueError("no irreducible polynomial found")


class GF:
    """F_{p^e}: an element is the integer whose base-p digits are its
    coordinates in the basis 1, x, ..., x^(e-1) of F_p[x]/(f), so F_p
    sits inside as 0..p-1.  Multiplication uses log/exp tables over a
    multiplicative generator; addition a Q x Q table."""

    def __init__(self, p, e):
        self.p, self.e, self.Q = p, e, p ** e
        mod = _irreducible(p, e)
        Q = self.Q

        def to_poly(a):
            return trim([(a // p ** i) % p for i in range(e)])

        def to_int(f):
            return sum(c * p ** i for i, c in enumerate(f))

        for g in range(1, Q):
            exp, cur = [], 1
            while True:
                exp.append(cur)
                cur = to_int(pmod(pmul(to_poly(cur), to_poly(g), p), mod, p))
                if cur == 1:
                    break
            if len(exp) == Q - 1:
                break
        log = [-1] * Q
        for i, a in enumerate(exp):
            log[a] = i
        self.exp, self.log = exp, log
        digits = [(np.arange(Q) // p ** i) % p for i in range(e)]
        self.add_table = sum(((da[:, None] + da[None, :]) % p) * p ** i
                             for i, da in enumerate(digits))
        self.exp_np = np.array(exp + exp, dtype=np.int64)
        self.log_np = np.array(log, dtype=np.int64)
        chi = np.where(self.log_np % 2 == 0, 1, -1)
        chi[0] = 0
        self.chi_np = chi

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.Q - 1)]

    def mul_np(self, a, b):
        out = self.exp_np[self.log_np[a] + self.log_np[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def eval_form(self, coeffs, t):
        """The form at the point (s, t) = (1, t), or at infinity for None."""
        if t is None:
            return coeffs[-1]
        add = self.add_table
        acc = 0
        for c in reversed(coeffs):
            acc = int(add[self.mul(acc, t), c])
        return acc


@functools.lru_cache(maxsize=None)
def field(p, e):
    return GF(p, e)


def _forms_of(model):
    return model["a2"], model["a4"], model["a6"]


def point_count_naive(model, e):
    """#W(F_{p^e}) by direct enumeration of the affine points (x, y) of
    each fiber plus its point at infinity, in plain Python."""
    F = field(model["p"], e)
    Q = F.Q
    add = F.add_table.tolist()
    squares = [0] * Q
    for y in range(Q):
        squares[F.mul(y, y)] += 1
    total = 0
    for t in list(range(Q)) + [None]:
        a2, a4, a6 = (F.eval_form(f, t) for f in _forms_of(model))
        count = 1
        for x in range(Q):
            v = add[F.mul(add[F.mul(add[x][a2], x)][a4], x)][a6]
            count += squares[v]
        total += count
    return total


def point_count(model, e):
    """#W(F_{p^e}) as the sum over fibers of Q + 1 + sum_x chi(cubic(x)),
    with numpy over the x axis and one fiber per Frobenius orbit of t."""
    F = field(model["p"], e)
    p, Q = F.p, F.Q
    reps, weights, seen = [None, 0], [1, 1], set()
    for t in range(1, Q):
        if t in seen:
            continue
        orbit, u = 0, t
        while u not in seen:
            seen.add(u)
            orbit += 1
            u = F.exp[(F.log[u] * p) % (Q - 1)]
        reps.append(t)
        weights.append(orbit)
    vals = np.array([[F.eval_form(f, t) for f in _forms_of(model)]
                     for t in reps], dtype=np.int64)
    a2, a4, a6 = (vals[:, i:i + 1] for i in range(3))
    x = np.arange(Q, dtype=np.int64)[None, :]
    add = F.add_table
    cubic = add[F.mul_np(add[F.mul_np(add[x, a2], x), a4], x), a6]
    fibers = Q + 1 + F.chi_np[cubic].sum(axis=1)
    return int((fibers * np.array(weights)).sum())


def trace(model, e, count=point_count):
    """S_e = #W(F_{q^e}) - (1 + 2 q^e + q^2e)."""
    Q = model["p"] ** e
    return count(model, e) - (1 + 2 * Q + Q * Q)


def newton(power_sums):
    """c_1..c_k of prod(1 - alpha T) from the power sums p_1..p_k."""
    c = [Fraction(1)]
    for k in range(1, len(power_sums) + 1):
        acc = Fraction(power_sums[k - 1])
        for i in range(1, k):
            acc += c[i] * power_sums[k - 1 - i]
        c.append(-acc / k)
    if any(x.denominator != 1 for x in c):
        raise ValueError("power sums give non-integral coefficients")
    return [int(x) for x in c[1:]]


def escalation(c):
    """Which trace the epsilon decision needs, from c_1..c_4: c_5 = eps
    q^2 c_3 makes S_5 decide unless c_3 = 0 (and c_4 != 0 forces eps = +1);
    c_6 = eps q^4 c_2 makes S_6 decide; otherwise c_7 = eps q^6 c_1."""
    c1, c2, c3, c4 = c
    if c3 or c4:
        return "S5"
    if not (c1 or c2):
        return "zero"
    return "S6" if c2 else "S7"


# ---------------------------------------------------------------------------
# d = 1 L-polynomials

def euler_phi(k):
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def _divmod_int(a, b):
    """Quotient and remainder of integer polynomials (lowest degree first),
    b monic."""
    a = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        f = a[shift + len(b) - 1]
        quot[shift] = f
        for i, y in enumerate(b):
            a[shift + i] -= f * y
    return quot, a[:len(b) - 1]


@functools.lru_cache(maxsize=None)
def cyclotomic(k):
    """Phi_k, lowest degree first, from T^k - 1 = prod_{j | k} Phi_j."""
    num = [-1] + [0] * (k - 1) + [1]
    for j in range(1, k):
        if k % j == 0:
            num, rem = _divmod_int(num, cyclotomic(j))
            if any(rem):
                raise ArithmeticError("cyclotomic division failed")
    return tuple(num)


CYCLOTOMIC_ORDERS = [k for k in range(1, 31) if euler_phi(k) <= 8]


def cyclotomic_factorization(P):
    """{k: multiplicity} with P = +-prod Phi_k^m and phi(k) <= 8, or None."""
    P = list(P)
    while P and P[-1] == 0:
        P.pop()
    out = {}
    for k in CYCLOTOMIC_ORDERS:
        phi = cyclotomic(k)
        while len(P) >= len(phi):
            quot, rem = _divmod_int(P, phi)
            if any(rem):
                break
            P = quot
            out[k] = out.get(k, 0) + 1
    return out if P in ([1], [-1]) else None


def lpoly_problems(coeffs, epsilon, q, traces):
    """What is wrong with a d = 1 L-polynomial; empty when it passes.
    traces holds S_1, S_2, ... from the benchmark's own point counts."""
    c = list(coeffs)
    if len(c) != 9 or c[0] != 1:
        return ["degree 8 with c_0 = 1"]
    out = []
    if any(c[8 - i] != epsilon * q ** (8 - 2 * i) * c[i] for i in range(9)):
        out.append("functional equation c_(8-i) = eps q^(8-2i) c_i")
    if any(c[i] % q ** i for i in range(9)):
        out.append("q^i divides c_i")
    elif cyclotomic_factorization([c[i] // q ** i for i in range(9)]) is None:
        out.append("L(T/q) is a product of cyclotomic polynomials")
    if c[1:1 + len(traces)] != newton(traces):
        out.append("c_1..c_%d from the benchmark's point counts" % len(traces))
    return out


# ---------------------------------------------------------------------------
# lattices

def e8_cartan():
    """E8 Cartan matrix in the basis whose Dynkin diagram is the chain
    0-1-2-3-4-5-6 with node 7 attached to node 4."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)):
        g[i][j] = g[j][i] = -1
    return g


def selmer_gram(d):
    """U^(2d-2) + (-E8)^d, hyperbolic planes first."""
    r = 12 * d - 4
    g = [[0] * r for _ in range(r)]
    for b in range(2 * d - 2):
        g[2 * b][2 * b + 1] = g[2 * b + 1][2 * b] = 1
    e8 = e8_cartan()
    for b in range(d):
        base = 4 * d - 4 + 8 * b
        for i in range(8):
            for j in range(8):
                g[base + i][base + j] = -e8[i][j]
    return g


def quad(gram, v):
    return sum(v[i] * gram[i][j] * v[j]
               for i in range(len(v)) for j in range(len(v))) // 2


def content_invariant(gram, v, n):
    """(t, qbar): t = gcd(n, coordinates), qbar = q(v / t) mod n / t."""
    v = [x % n for x in v]
    t = n
    for x in v:
        t = math.gcd(t, x)
    if t == n:
        return (n, 0)
    return (t, quad(gram, [x // t for x in v]) % (n // t))


def sigma(n):
    return sum(k for k in range(1, n + 1) if n % k == 0)


def quadric_orbit_sizes(r):
    """Orbit sizes of a nondegenerate plus-type quadratic form on F_2^r
    (r even) under its orthogonal group: the zero vector, the other
    zeros 2^(r-1) + 2^(r/2-1) - 1, and the non-zeros 2^(r-1) - 2^(r/2-1)."""
    h = r // 2 - 1
    return sorted([1, 2 ** (r - 1) + 2 ** h - 1, 2 ** (r - 1) - 2 ** h])


# ---------------------------------------------------------------------------
# the q = 3 singular locus

def index_digits(idx, q, width):
    out = []
    for _ in range(width):
        out.append(idx % q)
        idx //= q
    return out


def has_base_point(digits, q, d=1):
    """Is there a rational (x0, t0), t0 in P^1(F_q), with y = 0 and
    f = f_x = f_t = 0 for f = x^3 + a2 x^2 + a4 x + a6 - y^2?"""
    forms = split_forms(digits, d)
    charts = []
    for t0 in range(q):
        polys = [trim(f) for f in forms]
        charts.append([(peval(f, t0, q), peval(hasse(f, 1, q), t0, q))
                       for f in polys])
    # at infinity the local parameter is s: value and s-derivative are
    # the t^D and t^(D-1) coefficients
    charts.append([(f[-1], f[-2]) for f in forms])
    for (a2, b2), (a4, b4), (a6, b6) in charts:
        for x0 in range(q):
            f = (x0 ** 3 + a2 * x0 ** 2 + a4 * x0 + a6) % q
            fx = (3 * x0 ** 2 + 2 * a2 * x0 + a4) % q
            ft = (b2 * x0 ** 2 + b4 * x0 + b6) % q
            if f == fx == ft == 0:
                return True
    return False


def sampled_marked(seed, samples, q, d=1):
    """How many of the tuples divisor-count samples from `seed` (one
    below(q^(12d+3)) draw each) have a rational base point."""
    rng = SplitMix64(seed)
    width = 12 * d + 3
    return sum(has_base_point(index_digits(rng.below(q ** width), q, width), q, d)
               for _ in range(samples))
