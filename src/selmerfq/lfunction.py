"""Point counts of smooth Weierstrass surfaces over extension fields,
Frobenius traces on the middle cohomology piece, and the integral
L-polynomial of degree 12d-4 with its weight-2 root bounds.

Each extension F_{q^e} gets log/exp tables over a multiplicative generator
(multiplication and the quadratic character become array gathers), while
addition works digitwise on the base-p digit encoding of ffpoly.Field
elements.  That encoding makes (F_{q^e}, +) the index grid (Z/p)^e, so the
character sums of all fibers come from one additive convolution, an FFT
over that grid, per depressed cubic shape.
"""

import math
from fractions import Fraction

import numpy as np

from . import ffpoly, weierstrass

_TABLE_BUDGET = 1 << 24


class ExtField:
    """Vectorized arithmetic for F_{p^e} on integer-encoded elements."""

    _cache = {}

    def __new__(cls, p, e):
        key = (p, e)
        if key not in cls._cache:
            obj = super().__new__(cls)
            obj._build(p, e)
            cls._cache[key] = obj
        return cls._cache[key]

    def _build(self, p, e):
        F = ffpoly.Field(p, e)
        Q = F.q
        if Q > _TABLE_BUDGET:
            raise ValueError("q^e = %d exceeds table budget" % Q)
        self.F = F
        self.p = p
        self.e = e
        self.Q = Q
        g = self._generator(F)
        pows = p ** np.arange(e, dtype=np.int64)
        # exp by doubling: exp[n:2n] = exp[:n] g^n, where multiplying by
        # g^n is an e x e matrix mod p on base-p digits (row j: g^n x^j)
        exp = np.ones(Q - 1, dtype=np.int64)
        n = 1
        while n < Q - 1:
            gn = F.pow(g, n)
            times_gn = np.array([F.mul(gn, int(pw)) for pw in pows])[:, None] \
                // pows % p
            digits = exp[:min(n, Q - 1 - n), None] // pows % p
            exp[n:2 * n] = (digits @ times_gn % p) @ pows
            n *= 2
        log = np.zeros(Q, dtype=np.int64)
        log[exp] = np.arange(Q - 1)
        self.exp = exp
        self.log = log
        chi = np.where(log % 2 == 0, 1, -1).astype(np.int8)
        chi[0] = 0
        self.chi_table = chi
        self._pows = pows

    @staticmethod
    def _generator(F):
        order_facs = ffpoly._prime_divisors(F.q - 1)
        for g in range(2, F.q):
            if all(F.pow(g, (F.q - 1) // ell) != F.one for ell in order_facs):
                return g
        raise AssertionError("no multiplicative generator found")

    def add(self, a, b):
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for pw in self._pows:
            out += (((a // pw) + (b // pw)) % self.p) * pw
        return out

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        la = self.log[a]
        lb = self.log[b]
        out = self.exp[(la + lb) % (self.Q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)


def surface_point_count(m, e):
    """#W(F_{q^e}) of the projective Weierstrass surface, fiberwise: each t
    in P^1(F_{q^e}) contributes Q + 1 + sum_x chi(cubic(x)).

    The cubic is depressed and rescaled to sign * (v^3 + eps v + B') with
    eps in {0, 1, g}, so a fiber's character sum is h_eps(B') for
    h_eps(b) = sum_v chi(v^3 + eps v + b).  With elements as base-p digit
    integers, (F_Q, +) is the index grid (Z/p)^e, and h_eps for every b is
    one FFT cross-correlation of chi with the value counts of v^3 + eps v.
    """
    if m.field.k != 1:
        raise ValueError("extension counting assumes a prime base field")
    E = ExtField(m.field.p, e)
    Q = E.Q
    elts = np.arange(Q, dtype=np.int64)

    def evaluate(form):
        """form at every (1, t), t in F_Q, then at (0, 1)."""
        acc = np.full(Q, form.coeffs[-1], dtype=np.int64)
        for c in reversed(form.coeffs[:-1]):
            acc = E.add(E.mul(acc, elts), np.int64(c))
        return np.append(acc, form.dehomog_s().evaluate(m.field.zero))

    A2, A4, A6 = (evaluate(f) for f in (m.a2, m.a4, m.a6))
    # depress: x -> u - a2/3 turns the cubic into u^3 + A u + B with
    # A = a4 - 3 t^2 and B = 2 t^3 - a4 t + a6 for t = a2/3
    F1 = m.field
    third = np.int64(F1.inv(F1.from_int(3)))
    negone = np.int64(F1.neg(F1.one))
    t = E.mul(A2, third)
    t2 = E.mul(t, t)
    A = E.add(A4, E.mul(negone, E.mul(np.int64(F1.from_int(3)), t2)))
    B = E.add(E.add(E.mul(np.int64(F1.from_int(2)), E.mul(t, t2)),
                    E.mul(negone, E.mul(A4, t))), A6)

    # rescale u = c v with c = g^(log A // 2): A / c^2 is 1 or g, and the
    # character picks up chi(c^3) = chi(c); A = 0 keeps c = 1, eps = 0
    lc = np.where(A == 0, 0, E.log[A] // 2)
    eps_idx = np.where(A == 0, 0, 1 + E.log[A] % 2)
    sgn = 1 - 2 * (lc & 1)
    Bp = np.where(B == 0, 0, E.exp[(E.log[B] - 3 * lc) % (Q - 1)])

    shape = (E.p,) * E.e
    chi_hat = np.fft.fftn(E.chi_table.reshape(shape))
    v3 = E.mul(elts, E.mul(elts, elts))
    fiber = np.full(Q + 1, Q + 1, dtype=np.int64)
    for k, eps in enumerate((0, 1, E.exp[1])):
        N = np.bincount(E.add(v3, E.mul(eps, elts)), minlength=Q)
        N_hat = np.fft.fftn(N.reshape(shape))
        h = np.fft.ifftn(chi_hat * np.conj(N_hat)).ravel()
        h_int = np.rint(h.real).astype(np.int64)
        residual = float(np.max(np.abs(h - h_int)))
        if residual > 0.25:
            raise ValueError("FFT rounding residual %.3g exceeds 0.25 at "
                             "q^e = %d" % (residual, Q))
        cols = eps_idx == k
        fiber[cols] += sgn[cols] * h_int[Bp[cols]]

    sing = evaluate(weierstrass.discriminant(m)) == 0
    hasse = math.isqrt(4 * Q)
    if np.any(np.abs(fiber[~sing] - (Q + 1)) > hasse):
        raise ValueError("Hasse bound violated at q^e = %d" % Q)
    if np.any((fiber[sing] < Q - 1) | (fiber[sing] > Q + 2)):
        raise ValueError("singular fiber count out of range at q^e = %d" % Q)
    return int(fiber.sum())


def surface_point_count_slow(m, e):
    """Pure-Python oracle for small q^e: identical totals, no tables.
    Prime-field coefficients are the same integers in F_{p^e}."""
    F = ffpoly.Field(m.field.p, e * m.field.k)
    forms = [ffpoly.BinaryForm(F, f.degree, f.coeffs)
             for f in (m.a2, m.a4, m.a6)]
    total = 0
    pts = [(F.one, t) for t in F.elements()] + [(F.zero, F.one)]
    for s0, t0 in pts:
        a2, a4, a6 = (f.evaluate(s0, t0) for f in forms)
        cnt = 1
        for x in F.elements():
            val = F.add(F.mul(F.add(F.mul(F.add(x, a2), x), a4), x), a6)
            cnt += 1 + F.chi(val)
        total += cnt
    return total


def frobenius_traces(m, m_max):
    """S_e = #W(F_{q^e}) - (1 + 2q^e + q^{2e}) for e = 1..m_max; the
    subtracted term collects H^0, the two Tate classes (fiber and zero
    section) in H^2, and H^4."""
    if m.d < 1:
        raise ValueError("d >= 1 required")
    if not weierstrass.is_smooth_surface(m):
        raise ValueError("smooth model required (integral fibers)")
    q = m.field.q
    out = []
    for e in range(1, m_max + 1):
        qe = q ** e
        s = surface_point_count(m, e) - (1 + 2 * qe + qe * qe)
        assert abs(s) <= (12 * m.d - 4) * qe, "weight bound violated"
        out.append(s)
    return out


class LPolynomial:
    """det(1 - Frob T) on the middle piece; degree D = 12d-4, c_0 = 1."""

    def __init__(self, q, coeffs, epsilon):
        self.q = q
        self.coeffs = list(coeffs)
        self.degree = len(coeffs) - 1
        self.epsilon = epsilon

    def reciprocal_roots(self):
        """The alpha_i, i.e. roots of z^D L(1/z) = c_0 z^D + ... + c_D."""
        return np.roots(self.coeffs)

    def distinct_reciprocal_roots(self):
        """Roots of the exact square-free part (multiple roots make plain
        np.roots lose ~eps^(1/mult) digits, too coarse for the 1e-6 purity
        tolerance)."""
        return np.roots(_squarefree_part(self.coeffs))

    def to_json(self):
        roots = self.distinct_reciprocal_roots()
        absdev = float(np.max(np.abs(np.abs(roots) - self.q))) / self.q
        return {
            "q": self.q,
            "degree": self.degree,
            "coefficients": [int(c) for c in self.coeffs],
            "epsilon": self.epsilon,
            "roots_abs_check": {"max_relative_deviation": absdev,
                                "tolerance": 1e-6},
        }


def _squarefree_part(coeffs):
    """Exact square-free part of an integer polynomial (highest-first),
    via a Fraction Euclidean gcd with the derivative."""
    def norm(p):
        while p and p[0] == 0:
            p = p[1:]
        return [Fraction(x) for x in p]

    def polymod(a, b):
        a = list(a)
        while len(a) >= len(b) and a:
            f = a[0] / b[0]
            for i in range(len(b)):
                a[i] -= f * b[i]
            a = a[1:]
            while a and a[0] == 0:
                a = a[1:]
        return a

    p = norm(coeffs)
    dp = norm([c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])])
    a, b = p, dp
    while b:
        a, b = b, polymod(a, b)
    g = a
    # divide p by g exactly
    quot = []
    rem = list(p)
    while len(rem) >= len(g):
        f = rem[0] / g[0]
        quot.append(f)
        for i in range(len(g)):
            rem[i] -= f * g[i]
        rem = rem[1:]
    return [float(x) for x in quot]


def _newton_coeffs(power_sums, k_max):
    """c_1..c_k from p_1..p_k via c_k = -(p_k + sum c_i p_{k-i})/k."""
    c = [Fraction(1)]
    for k in range(1, k_max + 1):
        acc = Fraction(power_sums[k - 1])
        for i in range(1, k):
            acc += c[i] * power_sums[k - 1 - i]
        c.append(-acc / k)
    for x in c:
        assert x.denominator == 1, "non-integral Newton coefficient"
    return [int(x) for x in c]


def _predicted_power_sum(coeffs, power_sums, k):
    """p_k from c_1..c_k and p_1..p_{k-1} (Newton, k <= deg)."""
    s = -k * coeffs[k]
    for i in range(1, k):
        s -= coeffs[i] * power_sums[k - 1 - i]
    return s


def l_polynomial(m):
    """Integral L-polynomial for a smooth d = 1 model: Newton identities on
    S_1..S_4, the top half from the functional equation c_{8-i} = eps
    q^{8-2i} c_i, and eps pinned by S_5 (S_6 only if S_5 cannot decide)."""
    if m.d != 1:
        raise ValueError("full L-polynomials are computed for d = 1 only")
    q = m.field.q
    D = 8
    S = frobenius_traces(m, 5)
    half = _newton_coeffs(S[:4], 4)  # c_0..c_4

    def full_coeffs(eps):
        c = list(half)
        for i in range(3, -1, -1):
            c.append(eps * q ** (D - 2 * i) * c[i])
        return c

    candidates = []
    for eps in (1, -1):
        if half[4] != 0 and eps * half[4] != half[4]:
            continue  # c_4 = eps c_4 forces eps = +1 when c_4 != 0
        c = full_coeffs(eps)
        if _predicted_power_sum(c, S, 5) == S[4]:
            candidates.append(eps)
    if not candidates:
        raise ValueError("trace inconsistency")
    if len(candidates) > 1:
        if half[1:] == [0, 0, 0, 0]:
            # all traces vanish, L = 1 + eps q^8 T^8.  Frobenius here is
            # q times a finite-order isometry phi of the rank-8 middle
            # lattice; eps = +1 would make char(phi) = x^8 + 1, forcing
            # phi to have order 16, but the orthogonal group of that
            # lattice has 2-Sylow exponent 8.  So eps = -1, no S_6 needed.
            candidates = [-1]
        else:
            S6 = surface_point_count(m, 6) - (1 + 2 * q ** 6 + q ** 12)
            S = S + [S6]
            candidates = [eps for eps in candidates
                          if _predicted_power_sum(full_coeffs(eps), S, 6) == S6]
            if len(candidates) > 1:
                # still tied: then c_2 = c_3 = c_4 = 0 with c_1 != 0, e.g.
                # L = (1 + c_1 T)(1 +- q^7 T^7), and both signs are pure;
                # p_7 depends on eps through c_7 = eps q^6 c_1, so S_7 decides
                S7 = surface_point_count(m, 7) - (1 + 2 * q ** 7 + q ** 14)
                S = S + [S7]
                candidates = [eps for eps in candidates
                              if _predicted_power_sum(full_coeffs(eps), S, 7) == S7]
            if len(candidates) > 1:
                raise ValueError("epsilon undetermined at trace budget")
        if len(candidates) != 1:
            raise ValueError("trace inconsistency")
    eps = candidates[0]
    L = LPolynomial(q, full_coeffs(eps), eps)

    roots = L.distinct_reciprocal_roots()
    assert np.all(np.abs(np.abs(roots) - q) <= 1e-6 * q), "weight-2 purity failed"
    # functional equation pairing: {q^2/alpha} = {alpha} as sets of
    # distinct roots (multiplicity pairing is the eps relation above)
    paired = np.sort_complex(q * q / roots)
    assert np.allclose(np.sort_complex(roots), paired, rtol=1e-6, atol=1e-6 * q)
    return L


def charpoly_mod(L, n):
    """Coefficients of L mod n and the multiplicity of the factor (1 - T).

    The multiplicity bounds the unit-root eigenspace of Frobenius mod n;
    it is an upper-bound diagnostic only, since the characteristic
    polynomial does not determine the module structure of ker(Frob - 1).
    """
    if math.gcd(L.q, n) != 1:
        raise ValueError("gcd(q, n) = 1 required")
    coeffs = [c % n for c in L.coeffs]
    mult = 0
    work = list(coeffs)
    while len(work) > 1 and sum(work) % n == 0:
        # synthetic division by (T - 1); the unit factor -1 of (1 - T)
        # does not affect multiplicity
        out = []
        acc = 0
        for c in reversed(work):
            acc = (acc + c) % n
            out.append(acc)
        assert out[-1] % n == 0
        work = list(reversed(out[:-1]))
        mult += 1
    return coeffs, mult
