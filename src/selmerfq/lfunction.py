"""Point counts of smooth Weierstrass surfaces over extension fields,
Frobenius traces on the middle cohomology piece, and the integral
L-polynomial of a d = 1 model with its exact cyclotomic factorization.

For d = 1 the surface is rational, and Frobenius acts on the E8
Mordell-Weil lattice as q times an isometry of finite order.  So
P(T) = L(T/q) is +-prod Phi_k^m_k with phi(k) <= 8, the sign of the
functional equation is the global root number prod_v w_v of the local
data, and the analytic rank is m_1.  L follows from S_1..S_4 and that
sign; S_5 cross-checks it, and exact division checks the factorization.

Each extension F_{q^e} gets log/exp tables over a multiplicative generator
(multiplication and the quadratic character become array gathers), while
addition works digitwise on the base-p digit encoding of ffpoly.Field
elements.  That encoding makes (F_{q^e}, +) the index grid (Z/p)^e, so the
character sums of all fibers come from one additive convolution, an FFT
over that grid, per depressed cubic shape.
"""

import cmath
import math

import numpy as np

from . import DomainError, ffpoly, localdata, weierstrass

_TABLE_BUDGET = 1 << 24


def table_size(q, e):
    """q^e, the entries of an F_{q^e} table; raises past the 2^24 budget."""
    Q = q ** e
    if Q > _TABLE_BUDGET:
        raise DomainError("q^e = %d exceeds table budget 2^24" % Q)
    return Q


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
        Q = table_size(p, e)
        F = ffpoly.Field(p, e)
        self.F = F
        self.p = p
        self.e = e
        self.Q = Q
        g = self._generator(F)
        pows = p ** np.arange(e, dtype=np.int64)
        # exp by doubling: exp[n:2n] = exp[:n] g^n, where multiplying by
        # g^n is an e x e matrix mod p on base-p digits (row j: g^n x^j),
        # and the matrix of g^2n is that of g^n squared
        times_gn = np.array([F.mul(g, int(pw)) for pw in pows])[:, None] \
            // pows % p
        exp = np.ones(Q - 1, dtype=np.int64)
        n = 1
        while n < Q - 1:
            digits = exp[:min(n, Q - 1 - n), None] // pows % p
            exp[n:2 * n] = (digits @ times_gn % p) @ pows
            times_gn = times_gn @ times_gn % p
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
        raise DomainError("extension counting assumes a prime base field")
    E = ExtField(m.field.p, e)
    Q = E.Q
    elts = np.arange(Q, dtype=np.int64)

    def evaluate(form):
        """form at every (1, t), t in F_Q, then at (0, 1)."""
        acc = np.full(Q, form.coeffs[-1], dtype=np.int64)
        for c in reversed(form.coeffs[:-1]):
            acc = E.add(E.mul(acc, elts), np.int64(c))
        return np.append(acc, form.coeffs[-1])

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

    # singular fibers: the depressed cubic's discriminant -16(4A^3 + 27B^2)
    sing = E.add(E.mul(np.int64(F1.from_int(4)), E.mul(A, E.mul(A, A))),
                 E.mul(np.int64(F1.from_int(27)), E.mul(B, B))) == 0
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
    total = 0
    for a2, a4, a6 in pts:
        cnt = 1
        for x in F.elements():
            val = F.add(F.mul(F.add(F.mul(F.add(x, a2), x), a4), x), a6)
            cnt += 1 + F.chi(val)
        total += cnt
    return total


def frobenius_traces(m, m_max, summary=None):
    """S_e = #W(F_{q^e}) - (1 + 2q^e + q^{2e}) for e = 1..m_max; the
    subtracted term collects H^0, the two Tate classes (fiber and zero
    section) in H^2, and H^4.  Smoothness is read off `summary`, as in
    weierstrass.is_smooth_surface."""
    if m.d < 1:
        raise DomainError("d >= 1 required")
    if not weierstrass.is_smooth_surface(m, summary):
        raise DomainError("smooth total space required: bad fibers I_1 or II")
    q = m.field.q
    out = []
    for e in range(1, m_max + 1):
        qe = q ** e
        s = surface_point_count(m, e) - (1 + 2 * qe + qe * qe)
        if abs(s) > (12 * m.d - 4) * qe:
            raise ValueError("weight bound violated: |S_%d| = %d > %d q^%d"
                             % (e, abs(s), 12 * m.d - 4, e))
        out.append(s)
    return out


class LPolynomial:
    """det(1 - Frob T) on the middle piece of a d = 1 model: degree 8,
    c_0 = 1.  The constructor factors P(T) = L(T/q) exactly into
    cyclotomic polynomials and raises when it cannot."""

    def __init__(self, q, coeffs, epsilon):
        self.q = q
        self.coeffs = list(coeffs)
        self.degree = len(coeffs) - 1
        self.epsilon = epsilon
        self.factorization = cyclotomic_factorization(q, self.coeffs)

    def distinct_reciprocal_roots(self):
        """The exact values q zeta, zeta a primitive k-th root of unity, for
        each Phi_k in the factorization."""
        return np.array([self.q * cmath.exp(2j * math.pi * j / k)
                         for k in self.factorization
                         for j in range(1, k + 1) if math.gcd(j, k) == 1])

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
            "cyclotomic_factorization": dict(self.factorization),
            "analytic_rank": self.factorization.get(1, 0),
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


def cyclotomic_factorization(q, coeffs):
    """{k: m_k} with L(T/q) = +-prod Phi_k^m_k over phi(k) <= 8, for the
    integer coefficients c_0, c_1, ... of L.  Raises ValueError unless
    q^i | c_i and the division leaves +-1: weight-2 purity, exactly."""
    if any(c % q ** i for i, c in enumerate(coeffs)):
        raise ValueError("L(T/q) is not integral: q^i does not divide c_i "
                         "in %s" % (coeffs,))
    P = rest = [c // q ** i for i, c in enumerate(coeffs)]
    out = {}
    for k, phi in _CYCLOTOMIC.items():
        while len(rest) >= len(phi):
            quot, rem = _divmod_monic(rest, phi)
            if any(rem):
                break
            rest = quot
            out[k] = out.get(k, 0) + 1
    if rest not in ([1], [-1]):
        raise ValueError("weight-2 purity failed: L(T/q) = %s leaves %s "
                         "after dividing out cyclotomic factors" % (P, rest))
    return out


def _newton_coeffs(power_sums, k_max):
    """c_0..c_k from p_1..p_k via c_k = -(p_k + sum c_i p_{k-i})/k."""
    c = [1]
    for k in range(1, k_max + 1):
        acc = power_sums[k - 1] + sum(c[i] * power_sums[k - 1 - i]
                                      for i in range(1, k))
        if acc % k:
            raise ValueError("non-integral Newton coefficient c_%d = %d/%d "
                             "from power sums %s" % (k, -acc, k, power_sums))
        c.append(-acc // k)
    return c


def _predicted_power_sum(coeffs, power_sums, k):
    """p_k from c_1..c_k and p_1..p_{k-1} (Newton, k <= deg)."""
    return -k * coeffs[k] - sum(coeffs[i] * power_sums[k - 1 - i]
                                for i in range(1, k))


def l_polynomial(m):
    """Integral L-polynomial of a smooth d = 1 model.

    c_1..c_4 come from Newton's identities on S_1..S_4.  The sign eps of
    the functional equation c_{8-i} = eps q^{8-2i} c_i is the global root
    number from Tate's algorithm (localdata.root_number), and fills in the
    top half.  The one cross-check: Newton's p_5 from c_1..c_5 must equal
    the counted S_5.  LPolynomial then checks purity by exact cyclotomic
    division.  Point counts run over F_{q^e} for e <= 5 only, so q^5 must
    fit the table budget (q <= 27).  Smoothness and eps share one
    `summary` = localdata.global_summary(m).
    """
    if m.d != 1:
        raise DomainError("full L-polynomials are computed for d = 1 only")
    q = m.field.q
    table_size(q, 5)
    summary = localdata.global_summary(m)
    S = frobenius_traces(m, 5, summary)
    c = _newton_coeffs(S[:4], 4)
    eps = localdata.root_number(m, summary)
    c += [eps * q ** (8 - 2 * i) * c[i] for i in range(3, -1, -1)]
    p5 = _predicted_power_sum(c, S, 5)
    if p5 != S[4]:
        raise ValueError("S_5 cross-check failed: Newton predicts %d, the "
                         "point count gives %d" % (p5, S[4]))
    return LPolynomial(q, c, eps)


def charpoly_mod(L, n):
    """Coefficients of L mod n and the multiplicity of the factor (1 - T).

    The multiplicity bounds the unit-root eigenspace of Frobenius mod n;
    it is an upper-bound diagnostic only, since the characteristic
    polynomial does not determine the module structure of ker(Frob - 1).
    """
    if math.gcd(L.q, n) != 1:
        raise DomainError("gcd(q, n) = 1 required")
    coeffs = [c % n for c in L.coeffs]
    mult = 0
    work = coeffs
    while len(work) > 1 and sum(work) % n == 0:
        # divide by T - 1, whose remainder work(1) = sum(work) is 0 mod n;
        # the unit factor -1 of (1 - T) does not affect multiplicity
        work = [c % n for c in _divmod_monic(work, (-1, 1))[0]]
        mult += 1
    return coeffs, mult
