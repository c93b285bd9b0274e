"""Point counts of smooth Weierstrass surfaces over extension fields,
Frobenius traces on the middle cohomology piece, and the integral
L-polynomial of degree 12d-4 with its weight-2 root bounds.

Counting is table driven: each extension F_{q^e} gets log/exp tables over
a multiplicative generator (multiplication and the quadratic character
become array gathers) while addition works digitwise on the base-p digit
encoding of ffpoly.Field elements, so whole fibers are counted with numpy.
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
        exp = np.zeros(Q - 1, dtype=np.int64)
        log = np.zeros(Q, dtype=np.int64)
        cur = F.one
        for i in range(Q - 1):
            exp[i] = cur
            log[cur] = i
            cur = F.mul(cur, g)
        self.exp = exp
        self.log = log
        chi = np.where(log % 2 == 0, 1, -1).astype(np.int8)
        chi[0] = 0
        self.chi_table = chi
        self._pows = np.array([p ** i for i in range(e)], dtype=np.int64)
        # Zech logarithms: zech[k] = log(1 + g^k), -1 where 1 + g^k = 0
        ones = self.add(np.int64(F.one), exp)
        zech = np.where(ones == 0, np.int64(-1), log[ones])
        self.zech = zech

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

    def chi(self, a):
        return self.chi_table[np.asarray(a, dtype=np.int64)]

    # Log-domain ("Zech") arithmetic: elements are discrete logs, with -1
    # standing for zero.  Multiplication needs no table gathers at all and
    # addition needs one, which is what makes the fiber loop fast.

    def log_of(self, a):
        a = np.asarray(a, dtype=np.int64)
        return np.where(a == 0, np.int64(-1), self.log[a])

    def ladd(self, la, lb):
        z = self.zech[(lb - la) % (self.Q - 1)]
        out = np.where(z < 0, np.int64(-1), (la + z) % (self.Q - 1))
        out = np.where(la < 0, lb, out)
        return np.where(lb < 0, la, out)


def _frobenius_orbit_reps(E, q):
    """Representatives and sizes of the orbits of t -> t^q on F_{q^e}.

    The coefficient forms live over F_q, so conjugate fibers are Frobenius
    twists of each other with equal point counts; counting one fiber per
    orbit cuts the work by a factor of about e.
    """
    key = q
    cache = getattr(E, "_orbit_cache", None)
    if cache is None:
        cache = E._orbit_cache = {}
    if key in cache:
        return cache[key]
    Qm1 = E.Q - 1
    seen = np.zeros(Qm1, dtype=bool)
    reps = [np.int64(0)]
    weights = [1]
    for l in range(Qm1):
        if seen[l]:
            continue
        size = 0
        cur = l
        while True:
            seen[cur] = True
            size += 1
            cur = (cur * q) % Qm1
            if cur == l:
                break
        reps.append(E.exp[l])
        weights.append(size)
    reps = np.array(reps, dtype=np.int64)
    weights = np.array(weights, dtype=np.int64)
    assert int(weights.sum()) == E.Q
    cache[key] = (reps, weights)
    return reps, weights


def surface_point_count(m, e, check_fibers=True):
    """#W(F_{q^e}) of the projective Weierstrass surface, fiberwise:
    each t in P^1(F_{q^e}) contributes Q + 1 + sum_x chi(cubic(x)).
    Only one fiber per Frobenius orbit of t is actually counted, and the
    cubic is depressed first so the inner loop is one log-domain multiply
    and two Zech additions per cell."""
    if m.field.k != 1:
        raise ValueError("extension counting assumes a prime base field")
    E = ExtField(m.field.p, e * m.field.k)
    Q = E.Q
    reps, weights = _frobenius_orbit_reps(E, m.field.q)
    ncols = len(reps) + 1  # orbit representatives + the fiber at infinity

    def eval_on_reps(form):
        cs = form.coeffs
        acc = np.full(len(reps), cs[-1], dtype=np.int64)
        for c in reversed(cs[:-1]):
            acc = E.add(E.mul(acc, reps), np.int64(c))
        inf_val = np.int64(form.dehomog_s().evaluate(m.field.zero))
        return np.concatenate([acc, [inf_val]])

    A2, A4, A6 = (eval_on_reps(f) for f in (m.a2, m.a4, m.a6))
    # depress: x -> u - a2/3 turns the cubic into u^3 + A u + B with
    # A = a4 - 3 t^2 and B = 2 t^3 - a4 t + a6 for t = a2/3
    F1 = ffpoly.Field(m.field.p, 1)
    third = np.int64(F1.inv(F1.from_int(3)))
    negone = np.int64(F1.neg(F1.one))
    t = E.mul(A2, third)
    t2 = E.mul(t, t)
    A = E.add(A4, E.mul(negone, E.mul(np.int64(F1.from_int(3)), t2)))
    B = E.add(E.add(E.mul(np.int64(F1.from_int(2)), E.mul(t, t2)),
                    E.mul(negone, E.mul(A4, t))), A6)

    fiber = np.full(ncols, Q + 1, dtype=np.int64)  # point at infinity + x-grid
    Qm1 = Q - 1
    lA = E.log_of(A)
    lB = E.log_of(B)
    # rescale u = c v so the cubic becomes v^3 + eps v + B' with eps in
    # {0, 1, n} for the fixed nonsquare n = g; chi picks up chi(c^3) = chi(c)
    lc = np.where(lA < 0, 0, np.where(lA % 2 == 0, lA // 2, (lA - 1) // 2))
    eps_idx = np.where(lA < 0, 0, np.where(lA % 2 == 0, 1, 2))
    sgn = np.where(lA < 0, 1, 1 - 2 * (lc & 1)).astype(np.int64)
    lBp = np.where(lB < 0, -1, (lB - 3 * lc) % Qm1).astype(np.int32)

    # chi(1 + g^k) straight off the Zech table, as a byte per exponent;
    # then chi(g(v) + B') = chi(g(v)) * zchi[log(B'/g(v))] cell by cell
    zchi = np.where(E.zech < 0, 0, 1 - 2 * (E.zech & 1)).astype(np.int8)
    varr = np.arange(Q, dtype=np.int64)
    v2 = E.mul(varr, varr)
    chi_col = np.zeros(ncols, dtype=np.int64)
    for gi, eps in enumerate((np.int64(0), np.int64(1), E.exp[1])):
        cols = np.nonzero(eps_idx == gi)[0]
        if len(cols) == 0:
            continue
        g = E.mul(varr, E.add(v2, eps))
        lg = E.log_of(g).astype(np.int32)
        chig = np.where(lg < 0, 0, 1 - 2 * (lg & 1)).astype(np.int8)
        colsum = np.zeros(len(cols), dtype=np.int64)
        lBc = lBp[cols]
        good = lBc >= 0
        # B' = 0 columns reduce to the fixed sum over the scaled curve
        colsum[~good] = int(chig.sum(dtype=np.int64))
        # the (at most three) rows with g(v) = 0 each contribute chi(B')
        nzero = int((lg < 0).sum())
        colsum += nzero * np.where(good, 1 - 2 * (lBc & 1), 0)
        rows = np.nonzero(lg >= 0)[0]
        lgr = lg[rows]
        chir = chig[rows]
        lBg = lBc[good]
        if len(lBg):
            acc = np.zeros(len(lBg), dtype=np.int64)
            step = max(1, (1 << 23) // len(lBg))
            for lo in range(0, len(rows), step):
                d = lBg[None, :] - lgr[lo:lo + step, None]
                d = np.where(d < 0, d + np.int32(Qm1), d)
                acc += (chir[lo:lo + step, None] * zchi[d]).sum(
                    axis=0, dtype=np.int64)
            colsum[good] += acc
        chi_col[cols] = sgn[cols] * colsum
    fiber += chi_col

    if check_fibers:
        dvals = eval_on_reps(weierstrass.discriminant(m))
        sing = dvals == 0
        hasse = math.isqrt(4 * Q)
        good = fiber[~sing]
        assert np.all(np.abs(good - (Q + 1)) <= hasse), "Hasse bound violated"
        bad = fiber[sing]
        assert np.all((bad >= Q - 1) & (bad <= Q + 2)), "singular fiber count out of range"

    full_weights = np.concatenate([weights, [1]])
    return int((fiber * full_weights).sum())


def surface_point_count_slow(m, e):
    """Pure-Python oracle for small q^e: identical totals, no tables."""
    F = ffpoly.Field(m.field.p, e * m.field.k)
    base = m.field
    total = 0
    pts = [(F.one, t) for t in F.elements()] + [(F.zero, F.one)]
    for s0, t0 in pts:
        a2 = _eval_form(F, base, m.a2, s0, t0)
        a4 = _eval_form(F, base, m.a4, s0, t0)
        a6 = _eval_form(F, base, m.a6, s0, t0)
        cnt = 1
        for x in F.elements():
            val = F.add(F.mul(F.add(F.mul(F.add(x, a2), x), a4), x), a6)
            cnt += 1 + F.chi(val)
        total += cnt
    return total


def _eval_form(F, base, form, s0, t0):
    out = F.zero
    tp = F.one
    spow = [F.one]
    for _ in range(form.degree):
        spow.append(F.mul(spow[-1], s0))
    for j, c in enumerate(form.coeffs):
        if c != base.zero:
            out = F.add(out, F.mul(F.mul(c, tp), spow[form.degree - j]))
        tp = F.mul(tp, t0)
    return out


class TraceVector:
    def __init__(self, model, traces):
        self.model = model
        self.traces = traces  # S_1..S_m

    def __len__(self):
        return len(self.traces)


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
    return TraceVector(m, out)


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
    tv = frobenius_traces(m, 5)
    S = tv.traces
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
