"""Point counts of smooth Weierstrass surfaces over extension fields,
Frobenius traces on the middle cohomology piece, and the integral
L-polynomial of a d = 1 model with its exact cyclotomic factorization.

For d = 1 the surface is rational, and Frobenius acts on the E8
Mordell-Weil lattice as q times an isometry of finite order.  So
P(T) = L(T/q) is +-prod Phi_k^m_k with phi(k) <= 8, the sign of the
functional equation is the global root number prod_v w_v of the local
data, and the analytic rank is m_1.  L follows from S_1..S_4 and that
sign, which quadratic reciprocity checks; exact division checks the
factorization, from which selmer_bounds reads m_1 <= dim Sel_ell <= hi.

Each F_{q^e} = F_p[x]/(f), f the least monic primitive polynomial of degree
e, gets log/exp tables over the generator x (multiplication and the
quadratic character become array gathers); addition works on base-p digits,
the coefficients on 1, x, ...  No count depends on f, which may differ from
the modulus of ffpoly.Field(p, e): only prime-field constants and the list
of all elements leave ExtField.  The digits make (F_{q^e}, +) the grid
(Z/p)^e, so h_eps(b) = sum_v chi(v^3 + eps v + b), eps in {0, 1, x}, is one
FFT convolution over it per field.  A point count evaluates c4 and c6 and
reads each fiber off h.
"""

import math

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
        # exp by doubling: exp[n:2n] = exp[:n] x^n, and multiplying by x^n
        # is the n-th power of the companion matrix of f on base-p digit rows
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
        self._pows = pows
        # h_eps is the cross-correlation of chi with the value counts of
        # v^3 + eps v over the index grid (Z/p)^e
        shape = (p,) * e
        chi_hat = np.fft.fftn(chi.reshape(shape))
        elts = np.arange(Q, dtype=np.int64)
        v3 = self.mul(elts, self.mul(elts, elts))
        self.h = np.empty((3, Q), dtype=np.int32)  # |h| <= Q <= 2^24
        for k, eps in enumerate((0, 1, exp[1])):
            N = np.bincount(self.add(v3, self.mul(eps, elts)), minlength=Q)
            N_hat = np.fft.fftn(N.reshape(shape))
            h = np.fft.ifftn(chi_hat * np.conj(N_hat)).ravel()
            self.h[k] = np.rint(h.real)
            residual = float(np.max(np.abs(h - self.h[k])))
            if residual > 0.25:
                raise ValueError("FFT rounding residual %.3g exceeds 0.25 at "
                                 "q^e = %d" % (residual, Q))

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

    The fiber cubic depressed is u^3 + A u + B with A = -c4/48 and
    B = -c6/864.  Rescaled to sign * (v^3 + eps v + B') with eps in
    {0, 1, g}, its character sum is the table entry ExtField.h_eps(B').
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

    F1 = m.field
    C4, C6 = evaluate(weierstrass.c4_form(m)), evaluate(weierstrass.c6_form(m))
    A = E.mul(C4, np.int64(F1.neg(F1.inv(F1.from_int(48)))))
    B = E.mul(C6, np.int64(F1.neg(F1.inv(F1.from_int(864)))))

    # rescale u = c v with c = g^(log A // 2): A / c^2 is 1 or g, and the
    # character picks up chi(c^3) = chi(c); A = 0 keeps c = 1, eps = 0
    lc = np.where(A == 0, 0, E.log[A] // 2)
    eps_idx = np.where(A == 0, 0, 1 + E.log[A] % 2)
    sgn = 1 - 2 * (lc & 1)
    Bp = np.where(B == 0, 0, E.exp[(E.log[B] - 3 * lc) % (Q - 1)])
    fiber = Q + 1 + sgn * E.h[eps_idx, Bp]

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


def selmer_bounds(L, ell):
    """(lo, hi, exact) with lo = m_1 <= dim_{F_ell} Sel_ell <= hi for a prime
    ell, hi the multiplicity of (1 - T) in P(T) = L(T/q) mod ell.  As
    Phi_{ell^a} = (1 - T)^phi(ell^a) mod ell and no other Phi_k has the root
    1 mod ell, hi = sum_a phi(ell^a) m_{ell^a}, where phi(k) = deg Phi_k."""
    lo = L.factorization.get(1, 0)
    hi = sum(m * (len(_CYCLOTOMIC[k]) - 1) for k, m in L.factorization.items()
             if k in [ell ** a for a in range(5)])  # phi(ell^a) <= 8: a <= 4
    return lo, hi, lo == hi


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


def l_polynomial(m):
    """Integral L-polynomial of a smooth d = 1 model.

    c_1..c_4 come from Newton's identities on S_1..S_4, and the sign eps
    of the functional equation c_{8-i} = eps q^{8-2i} c_i fills in the top
    half.  eps is the root number from Tate's algorithm (localdata.
    root_number), where a fiber type other than I_1 or II means that it and
    the gcd test of frobenius_traces disagree on smoothness; the root number
    by quadratic reciprocity must equal it, and eps = -1 forces c_4 = 0.
    LPolynomial then checks purity by exact cyclotomic division.  Counts run
    over F_{q^e}, e <= 4, and the domain is q^5 <= 2^24 (q <= 27).
    """
    if m.d != 1:
        raise DomainError("full L-polynomials are computed for d = 1 only")
    q = m.field.q
    if q ** 5 > _TABLE_BUDGET:  # a wider domain needs a measured memory bound
        raise DomainError("lfunction needs q^5 <= 2^24 (q <= 27), got q = %d"
                          % q)
    c = _newton_coeffs(frobenius_traces(m, 4), 4)
    try:
        eps = localdata.root_number(m)
    except DomainError as exc:
        raise ValueError("smoothness routes disagree: %s" % exc)
    w = localdata.root_number_by_reciprocity(m)
    if w != eps:
        raise ValueError("root number routes disagree: Tate's algorithm "
                         "gives %d, quadratic reciprocity %d" % (eps, w))
    if eps == -1 and c[4]:
        raise ValueError("functional equation check failed: eps = -1 forces "
                         "c_4 = 0, Newton gives c_4 = %d" % c[4])
    return LPolynomial(q, c + [eps * q ** (8 - 2 * i) * c[i]
                               for i in range(3, -1, -1)], eps)
