"""Point counts of smooth Weierstrass surfaces over extension fields,
Frobenius traces on the middle cohomology piece, and the integral
L-polynomial of a d = 1 model with its exact cyclotomic factorization.

For d = 1 the surface is rational, and Frobenius acts on the E8
Mordell-Weil lattice as q times an isometry of finite order.  So
P(T) = L(T/q) is +-prod Phi_k^m_k with phi(k) <= 8, the sign of the
functional equation is the global root number prod_v w_v of the local
data, and the analytic rank is m_1.  L follows from S_1..S_3 and that
sign, which quadratic reciprocity checks, with S_4 only on the 17 open keys
(c_1, c_2, c_3, sign) of the 224 products.  The same table, one knapsack
pass over the Phi_k, gives each product's multiset {k: m_k}, from which
selmer_bounds reads m_1 <= dim Sel_ell <= hi.

Each F_{q^e} = F_p[x]/(f), f the least monic primitive polynomial of degree
e, gets log/exp tables over the generator x, with log 0 = 2(q^e - 1) past
every sum of two nonzero logs and exp 0 from there on: a product, zeros
included, and the quadratic character are array gathers.  Addition works
on base-p digits, the coefficients on 1, x, ...  No count depends on f,
which may differ from the modulus of ffpoly.Field(p, e): only prime-field
constants and the list of all elements leave ExtField.  The digits make
(F_{q^e}, +) the grid (Z/p)^e, so h_eps(b) = sum_v chi(v^3 + eps v + b),
eps in {0, 1, x}, is one FFT convolution over it per field (at q = 23,
e = 4, built only on an open key: 0.2 s, 80 MB peak RSS).  A point
count evaluates c4 and c6 and reads each fiber off h.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from . import DomainError, ffpoly, localdata, weierstrass

_TABLE_BUDGET = 1 << 24
_MODULUS_BLOCK = 32  # codes per order test; at 5^5 one in 11 is primitive


def _primitive_modulus(p, e):
    """Digits c_0..c_(e-1) of the least monic primitive x^e + sum c_i x^i by
    code sum c_i p^i, and x's matrix on base-p digit rows; primitive means
    c_0 != 0 and x of order p^e - 1 (Lidl and Niederreiter, Thm 3.16)."""
    Q = p ** e
    exps = [Q - 1] + [(Q - 1) // ell for ell in ffpoly._prime_divisors(Q - 1)]
    eye = np.eye(e, dtype=np.int64)
    for start in range(0, Q, _MODULUS_BLOCK):
        tails = np.arange(start, min(start + _MODULUS_BLOCK, Q))[:, None] \
            // p ** np.arange(e) % p
        tails = tails[tails[:, 0] != 0]
        comp = np.zeros((len(tails), e, e), dtype=np.int64)
        comp[:, :-1, 1:], comp[:, -1] = eye[1:, 1:], -tails % p
        acc, square = dict.fromkeys(exps, eye), comp  # x^n for n in exps
        for bit in range(Q.bit_length()):
            for n in exps:
                if n >> bit & 1:
                    acc[n] = acc[n] @ square % p
            square = square @ square % p
        one = np.array([(acc[n] == eye).all(axis=(1, 2)) for n in exps])
        primitive = one[0] & ~one[1:].any(axis=0)
        if primitive.any():
            return tails[primitive][0], comp[primitive][0]


class ExtField:
    """Vectorized arithmetic for F_{p^e} over the least primitive modulus,
    and h[k, b] = h_eps(b) for eps = (0, 1, x)[k]."""

    _cache = {}

    def __new__(cls, p, e):
        key = (p, e)
        if key not in cls._cache:
            obj = super().__new__(cls)
            obj._build(p, e)
            cls._cache[key] = obj
        return cls._cache[key]

    def _build(self, p, e):
        Q = p ** e
        if Q > _TABLE_BUDGET:
            raise DomainError("q^e = %d exceeds table budget 2^24" % Q)
        ffpoly.Field(p)  # validates p
        _, times_gn = _primitive_modulus(p, e)
        self.p = p
        self.Q = Q
        pows = p ** np.arange(e, dtype=np.int64)
        # exp by doubling: exp[n:2n] = exp[:n] x^n, and times x^n is the n-th
        # power of f's companion matrix on base-p digit rows; then exp again,
        # and zeros from log 0 = 2(Q - 1), past any two nonzero logs, on
        self.exp = np.zeros(4 * Q - 3, dtype=np.int64)
        exp = self.exp[:Q - 1]
        exp[0] = n = 1
        while n < Q - 1:
            digits = exp[:min(n, Q - 1 - n), None] // pows % p
            exp[n:2 * n] = (digits @ times_gn % p) @ pows
            times_gn = times_gn @ times_gn % p
            n *= 2
        self.exp[Q - 1:2 * Q - 2] = exp
        self.log = np.full(Q, 2 * (Q - 1), dtype=np.int64)
        self.log[exp] = np.arange(Q - 1)
        self.chi = chi = (1 - 2 * (self.log & 1)).astype(np.int8)
        chi[0] = 0
        # h_eps is the cross-correlation of chi with the value counts of
        # v^3 + eps v over the index grid (Z/p)^e
        shape = (p,) * e
        chi_hat = np.fft.fftn(chi.reshape(shape))
        elts = np.arange(Q, dtype=np.int64)
        v3 = self.mul(elts, self.mul(elts, elts))
        self.h = np.empty((3, Q), dtype=np.int32)  # |h| <= Q <= 2^24
        for k, eps in enumerate((0, 1, exp[1])):
            N = self.mul(eps, elts)  # then v^3 + eps v, digit by digit
            for pw in pows:
                d = N // pw % p
                N += ((v3 // pw + d) % p - d) * pw
            del d  # the FFTs below set the q = 23, e = 4 peak
            N_hat = np.fft.fftn(np.bincount(N, minlength=Q).reshape(shape))
            h = np.fft.ifftn(chi_hat * np.conj(N_hat, out=N_hat)).ravel()
            self.h[k] = np.rint(h.real)
            residual = float(np.max(np.abs(h - self.h[k])))
            if residual > 0.25:
                raise ValueError("FFT rounding residual %.3g exceeds 0.25 at "
                                 "q^e = %d" % (residual, Q))

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]


def surface_point_count(m, e):
    """#W(F_{q^e}) of the projective Weierstrass surface, fiberwise: each t
    in P^1(F_{q^e}) contributes Q + 1 + sum_x chi(cubic(x)).

    The fiber cubic depressed is u^3 + A u + B with A = -c4/48 and
    B = -c6/864.  Rescaled to sign * (v^3 + eps v + B') with eps in
    {0, 1, g}, its character sum is the table entry ExtField.h_eps(B').
    c4 and c6 are evaluated by Horner, whose prime-field constants c change
    base-p digit 0 alone: a + c is a - a % p + (a % p + c) % p.
    """
    if m.field.k != 1:
        raise DomainError("extension counting assumes a prime base field")
    E = ExtField(m.field.p, e)
    Q = E.Q
    elts = np.arange(Q, dtype=np.int64)

    def evaluate(form):
        """form at every (1, t), t in F_Q, then at (0, 1)."""
        acc = np.full(Q, form.coeffs[-1], dtype=np.int64)
        for c in reversed(form.coeffs[:-1]):
            acc = E.mul(acc, elts)
            low = acc % E.p
            acc += (low + c) % E.p - low
        return np.append(acc, form.coeffs[-1])

    F1 = m.field
    C4, C6 = evaluate(m.c4), evaluate(m.c6)
    A = E.mul(C4, F1.neg(F1.inv(F1.from_int(48))))
    B = E.mul(C6, F1.neg(F1.inv(F1.from_int(864))))

    # u = c v with c = g^(log A // 2): A / c^2 is 1 or g, row chi(A) of h,
    # and a factor chi(c^3) = chi(c); A = 0 has log A // 2 = Q - 1, c = 1
    lc = E.log[A] // 2
    Bp = E.mul(B, E.exp[-3 * lc % (Q - 1)])
    fiber = Q + 1 + (1 - 2 * (lc & 1)) * E.h[E.chi[A], Bp]

    # singular fibers: 1728 Delta = c4^3 - c6^2 vanishes
    sing = E.mul(C4, E.mul(C4, C4)) == E.mul(C6, C6)
    hasse = math.isqrt(4 * Q)
    if np.any(np.abs(fiber[~sing] - (Q + 1)) > hasse):
        raise ValueError("Hasse bound violated at q^e = %d" % Q)
    if np.any((fiber[sing] < Q - 1) | (fiber[sing] > Q + 2)):
        raise ValueError("singular fiber count out of range at q^e = %d" % Q)
    return int(fiber.sum())


def surface_point_count_slow(m, e):
    """Pure-Python oracle for small q^e, the cross-check of
    surface_point_count: identical totals, no tables.  Prime-field
    coefficients are the same integers in F_{p^e}."""
    if m.field.k != 1:
        raise DomainError("extension counting assumes a prime base field")
    F = ffpoly.Field(m.field.p, e)
    forms = [ffpoly.UniPoly(F, f.coeffs) for f in (m.a2, m.a4, m.a6)]
    # each t in F_{p^e}, then infinity, where a form is its t^D coefficient
    pts = [[f.evaluate(t) for f in forms] for t in F.elements()]
    pts.append([f.coeffs[-1] for f in (m.a2, m.a4, m.a6)])
    return sum(localdata.cubic_point_count(F, *a) for a in pts)


def frobenius_traces(m, m_max):
    """S_e = #W(F_{q^e}) - (1 + 2q^e + q^{2e}) for e = 1..m_max; the
    subtracted term collects H^0, the two Tate classes (fiber and zero
    section) in H^2, and H^4.  The total space must be smooth, as decided
    by weierstrass.smooth_by_gcd."""
    if m.d < 1:
        raise DomainError("d >= 1 required")
    if not weierstrass.smooth_by_gcd(m):
        raise DomainError("smooth total space required: bad fibers I_1 or II")
    return [_trace(m, e) for e in range(1, m_max + 1)]


def _trace(m, e):
    """S_e of a smooth model, within the weight bound |S_e| <= (12d - 4) q^e."""
    qe = m.field.q ** e
    s = surface_point_count(m, e) - (1 + 2 * qe + qe * qe)
    if abs(s) > (12 * m.d - 4) * qe:
        raise ValueError("weight bound violated: |S_%d| = %d > %d q^%d"
                         % (e, abs(s), 12 * m.d - 4, e))
    return s


class LPolynomial:
    """det(1 - Frob T) on the middle piece of a d = 1 model: degree 8,
    c_0 = 1.  The constructor reads the cyclotomic factorization of
    P(T) = L(T/q) from the 224 products and raises when P is none of them,
    a product of another degree or c_0 = -1 included."""

    def __init__(self, q, coeffs, epsilon):
        self.q = q
        self.coeffs = list(coeffs)
        self.degree = len(coeffs) - 1
        self.epsilon = epsilon
        self.factorization = cyclotomic_factorization(q, self.coeffs)

    def to_json(self):
        return {
            "q": self.q,
            "degree": self.degree,
            "coefficients": [int(c) for c in self.coeffs],
            "epsilon": self.epsilon,
            "cyclotomic_factorization": dict(self.factorization),
            "analytic_rank": self.factorization.get(1, 0),
            "selmer_bounds": {str(ell): dict(zip(("lo", "hi", "exact"),
                              selmer_bounds(self, ell))) for ell in (2, 3)},
        }


def _divmod_monic(a, b):
    """Quotient and remainder of integer polynomials (lowest degree first)
    by a monic b."""
    a = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        f = quot[shift] = a[shift + len(b) - 1]
        for i, y in enumerate(b):
            a[shift + i] -= f * y
    return quot, a[:len(b) - 1]


def _cyclotomics(n):
    """Phi_k for k <= n, lowest degree first: T^k - 1 over Phi_j, j | k."""
    phis = {}
    for k in range(1, n + 1):
        phis[k] = [-1] + [0] * (k - 1) + [1]
        for j in range(1, k):
            if k % j == 0:
                phis[k] = _divmod_monic(phis[k], phis[j])[0]
    return phis


# deg Phi_k = phi(k) <= 8 holds only for k <= 30
_CYCLOTOMIC = {k: f for k, f in _cyclotomics(30).items() if len(f) <= 9}


@functools.cache  # 1.5 ms, so built on first use, not at import
def _cyclotomic_products():
    """{P: {k: m_k}} over the 224 degree-8 products P(T) = +-prod Phi_k^m_k,
    times (-1)^m_1 to P(0) = 1, each P a tuple lowest degree first."""
    partial = [[([1], {})]] + [[] for _ in range(8)]  # (P, {k: m_k}) by degree
    for k, phi in _CYCLOTOMIC.items():
        for n in range(len(phi) - 1, 9):  # ascending n: Phi_k may repeat
            partial[n] += [(np.convolve(f, phi), {**ms, k: ms.get(k, 0) + 1})
                           for f, ms in partial[n + 1 - len(phi)]]
    return {tuple((P * P[0]).tolist()): ms for P, ms in partial[8]}


def cyclotomic_factorization(q, coeffs):
    """{k: m_k} with L(T/q) = +-prod Phi_k^m_k, read from _cyclotomic_products
    for the integers c_0 = 1, c_1, ..., c_8 of L.  Raises ValueError unless
    q^i | c_i and L(T/q) is one of the 224 products, weight-2 purity exactly:
    a product of another degree, or c_0 = -1, fails as well."""
    if any(c % q ** i for i, c in enumerate(coeffs)):
        raise ValueError("L(T/q) is not integral: q^i does not divide c_i "
                         "in %s" % (coeffs,))
    P = tuple(c // q ** i for i, c in enumerate(coeffs))
    factorization = _cyclotomic_products().get(P)
    if factorization is None:
        raise ValueError("weight-2 purity failed: L(T/q) = %s is no "
                         "+-prod Phi_k^m_k of degree 8 with P(0) = 1" % (P,))
    return dict(factorization)


def selmer_bounds(L, ell):
    """(lo, hi, exact) with lo = m_1 <= dim_{F_ell} Sel_ell <= hi for a prime
    ell, hi the multiplicity of (1 - T) in P(T) = L(T/q) mod ell.  As
    Phi_{ell^a} = (1 - T)^phi(ell^a) mod ell and no other Phi_k has the root
    1 mod ell, hi = sum_a phi(ell^a) m_{ell^a}, where phi(k) = deg Phi_k."""
    lo = L.factorization.get(1, 0)
    hi = sum(m * (len(_CYCLOTOMIC[k]) - 1) for k, m in L.factorization.items()
             if k in [ell ** a for a in range(5)])  # phi(ell^a) <= 8: a <= 4
    return lo, hi, lo == hi


def _newton_coeffs(power_sums):
    """c_0..c_k from p_1..p_k via c_k = -(p_k + sum c_i p_{k-i})/k."""
    c = [1]
    for k in range(1, len(power_sums) + 1):
        acc = power_sums[k - 1] + sum(c[i] * power_sums[k - 1 - i]
                                      for i in range(1, k))
        if acc % k:
            raise ValueError("non-integral Newton coefficient c_%d = %d/%d "
                             "from power sums %s" % (k, -acc, k, power_sums))
        c.append(-acc // k)
    return c


def l_polynomial(m):
    """Integral L-polynomial of a smooth d = 1 model.

    c_1..c_3 come from Newton on S_1..S_3, and eps is the root number from
    Tate's algorithm (a fiber type other than I_1 or II: it and the gcd test
    of frobenius_traces disagree on smoothness), which the root number by
    reciprocity must equal.  L(T/q) is the product P of _cyclotomic_products
    with the key (P_1, P_2, P_3, P_8) = (c_i / q^i, i <= 3; eps), on an
    open key the one with Newton's c_4 from S_1..S_4; none means purity
    failed.  37 of the 163 (c_1, c_2, c_3) occur under both signs: a sign
    both routes get wrong alike is caught only where its key is missing.
    Counts run over F_{q^e}, e <= 3 (4 on an open key), and q^5 <= 2^24
    (q <= 27)."""
    if m.d != 1:
        raise DomainError("full L-polynomials are computed for d = 1 only")
    q = m.field.q
    if q ** 5 > _TABLE_BUDGET:  # a wider domain needs a measured memory bound
        raise DomainError("lfunction needs q^5 <= 2^24 (q <= 27), got q = %d"
                          % q)
    traces = frobenius_traces(m, 3)
    c = _newton_coeffs(traces)
    try:
        eps = localdata.root_number(m)
    except DomainError as exc:
        raise ValueError("smoothness routes disagree: %s" % exc)
    w = localdata.root_number_by_reciprocity(m)
    if w != eps:
        raise ValueError("root number routes disagree: Tate's algorithm "
                         "gives %d, quadratic reciprocity %d" % (eps, w))
    fits = [P for P in _cyclotomic_products() if P[8] == eps
            and P[1] * q == c[1] and P[2] * q ** 2 == c[2]
            and P[3] * q ** 3 == c[3]]
    if len(fits) > 1:  # c_4 open: S_4 picks the product
        c.append(_newton_coeffs(traces + [_trace(m, 4)])[4])
        fits = [P for P in fits if P[4] * q ** 4 == c[4]]
    if not fits:
        key = [Fraction(ci, q ** i) for i, ci in enumerate(c)]
        raise ValueError("weight-2 purity failed: no +-prod Phi_k^m_k of "
                         "degree 8 has the key (%s)"
                         % ", ".join(map(str, key[:4] + [eps] + key[4:])))
    return LPolynomial(q, [a * q ** i for i, a in enumerate(fits[0])], eps)
