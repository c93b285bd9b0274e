"""Exact arithmetic over finite fields, univariate polynomials, and binary
forms.

Every field element is a plain python int in [0, q).  F_p holds residues.
An extension F[x]/(f) of a field F, f monic irreducible of degree n, codes
c_0 + c_1 x + ... + c_(n-1) x^(n-1) as sum c_i |F|^i: the base-|F| digits
of an element are its coefficients, each an element of F.  A constant is
its own low digit, so an element of F has the same code in every extension
of F, and the image of an integer n is n mod p in every field.  F_{p^k} is
F_p extended by the least monic irreducible of degree k; the residue field
of a place is the base field extended by the place polynomial.

All values are immutable after construction.
"""

import math

import numpy as np

from . import DomainError
from .rng import SplitMix64


def _is_prime(n):
    """Miller-Rabin with the first 12 primes as bases: exact for n below
    318665857834031151167461 > 2^64, the least strong pseudoprime to all
    12 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A finite field: F_p, or an extension base[x]/(modulus).

    Field(p, k) for k > 1 is F_p extended by the least monic irreducible of
    degree k, ordering polynomials by their code sum(c_i * p^i).
    """

    zero = 0
    one = 1

    def __init__(self, p, k=1):
        if not 1 <= k <= 16:
            raise DomainError("extension degree must be in [1, 16]")
        # below 2^64, so that SplitMix64.below can draw elements
        if not p ** k < 2 ** 64:
            raise DomainError("q = %r^%d is not below 2^64" % (p, k))
        if not _is_prime(p):
            hint = next((", and F_%d is written %d^%d" % (p, r, j) for j in
                         range(2, 64) for r in [round(max(p, 0) ** (1 / j))]
                         if r ** j == p and _is_prime(r)), "")
            raise DomainError("p = %r is not prime: a field is p or p^k with "
                              "p prime%s" % (p, hint))
        self.p = self.characteristic = self.q = p
        self.k = 1
        self.base = self.modulus = None
        self._name = "F_%d" % p
        if k > 1:
            self._adjoin(self._least_irreducible(p, k))
            self._name = "F_%d^%d" % (p, k)

    @classmethod
    def extension(cls, modulus):
        """F[x]/(modulus) for an irreducible UniPoly modulus over a Field F;
        x has the code F.q."""
        if not isinstance(modulus, UniPoly) or modulus.degree() < 1:
            raise ValueError("modulus must be a nonconstant UniPoly")
        K = cls.__new__(cls)
        K._adjoin(modulus)
        K._name = "%r[t]/(%r)" % (modulus.field, K.modulus)
        return K

    def _adjoin(self, modulus):
        F = self.base = modulus.field
        self.modulus = modulus.monic()
        self._n = self.modulus.degree()
        # x^n mod modulus, low degree first
        self._tail = [F.neg(c) for c in self.modulus.coeffs[:-1]]
        self.p = self.characteristic = F.p
        self.k = F.k * self._n
        self.q = F.q ** self._n

    @staticmethod
    def _least_irreducible(p, k):
        base = Field(p)
        for code in range(p ** k):
            f = UniPoly(base, [code // p ** i % p for i in range(k)] + [1])
            if f.is_irreducible():
                return f
        raise AssertionError("no irreducible of degree %d over F_%d" % (k, p))

    def _split(self, a):
        """The base-field digits of a, low degree first."""
        out = []
        for _ in range(self._n):
            a, c = divmod(a, self.base.q)
            out.append(c)
        return out

    def _join(self, digits):
        out = 0
        for c in reversed(digits):
            out = out * self.base.q + c
        return out

    # -- element ops (elements are ints in [0, q)) --

    def add(self, a, b):
        F = self.base
        if F is None:
            return (a + b) % self.p
        return self._join([F.add(x, y)
                           for x, y in zip(self._split(a), self._split(b))])

    def neg(self, a):
        F = self.base
        if F is None:
            return (-a) % self.p
        return self._join([F.neg(x) for x in self._split(a)])

    def mul(self, a, b):
        F = self.base
        if F is None:
            return (a * b) % self.p
        n, tail = self._n, self._tail
        db = self._split(b)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(self._split(a)):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = F.add(prod[i + j], F.mul(x, y))
        for i in range(2 * n - 2, n - 1, -1):  # top degree first
            if prod[i]:
                for j, c in enumerate(tail):
                    prod[i - n + j] = F.add(prod[i - n + j], F.mul(prod[i], c))
        return self._join(prod[:n])

    def pow(self, a, e):
        """a^e for e >= 0, by square and multiply."""
        out, base = self.one, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        """a^-1; over F[x]/(f) by extended Euclid on f and a's digits."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.base is None or a == 1:  # 1: monic divisors
            return pow(a, self.p - 2, self.p)
        F = self.base
        r0, r1 = self.modulus, UniPoly(F, self._split(a))
        s0, s1 = UniPoly.zero(F), UniPoly.const(F, F.one)
        while r1.degree() > 0:
            quot, rem = r0.divmod(r1)
            r0, r1, s0, s1 = r1, rem, s1, s0 - quot * s1
        return self._join(s1.scale(F.inv(r1.coeffs[0])).coeffs)

    def chi(self, a):
        """Quadratic character: 0 on zero, +1 on squares, -1 otherwise.  F_p
        by Euler's criterion; over F[x]/(f) the Jacobi symbol (a | f)."""
        if a == 0:
            return 0
        if self.base is None:
            return 1 if pow(a, (self.p - 1) // 2, self.p) == 1 else -1
        return jacobi(UniPoly(self.base, self._split(a)), self.modulus)

    def from_int(self, n):
        """The image of the integer n."""
        return n % self.p

    def random(self, rng):
        return rng.below(self.q)

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.base, self.modulus) \
            == (other.p, other.base, other.modulus)

    def __hash__(self):
        return hash((Field, self.p, self.base, self.modulus))

    def __repr__(self):
        return self._name


def field_make(p, k=1):
    """Public field constructor.  Characteristics 2 and 3 are rejected:
    the local classification tables downstream assume p >= 5."""
    if p in (2, 3):
        raise DomainError("characteristic %d not supported (need p >= 5)" % p)
    return Field(p, k)


def field_from_spec(spec):
    """Parse a "p" or "p^k" field spec string."""
    try:
        parts = [int(x) for x in spec.split("^", 1)]
    except ValueError:
        raise DomainError("field spec must be p or p^k, got %r" % (spec,))
    return field_make(*parts)


class UniPoly:
    """Univariate polynomial over a field, coefficients low degree first.

    Canonical form: no trailing zeros; the zero polynomial has an empty
    coefficient tuple.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        z = field.zero
        cs = list(coeffs)
        while cs and cs[-1] == z:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- basics --

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def const(cls, field, c):
        return cls(field, [c])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return "UniPoly(%r, %r)" % (self.field, list(self.coeffs))

    # -- arithmetic --

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return UniPoly(F, out)

    def __neg__(self):
        F = self.field
        return UniPoly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero(F)
        out = [F.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca != F.zero:
                for j, cb in enumerate(b):
                    out[i + j] = F.add(out[i + j], F.mul(ca, cb))
        return UniPoly(F, out)

    def scale(self, c):
        F = self.field
        return UniPoly(F, [F.mul(c, x) for x in self.coeffs])

    def divmod(self, other):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree()
        inv_lead = F.inv(other.leading())
        quot = [F.zero] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            c = F.mul(rem[-1], inv_lead)
            k = len(rem) - 1 - d
            quot[k] = c
            minus_c = F.neg(c)
            for i, oc in enumerate(other.coeffs):
                rem[k + i] = F.add(rem[k + i], F.mul(minus_c, oc))
            while rem and rem[-1] == F.zero:
                rem.pop()
        return UniPoly(F, quot), UniPoly(F, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def hasse(self, j):
        """Hasse derivative D^(j): t^m -> C(m, j) t^(m-j), D^(1) = d/dt; in any
        characteristic, (t - a)^k | f iff D^(0..k-1) f all vanish at a."""
        F = self.field
        return UniPoly(F, [F.mul(F.from_int(math.comb(m, j)), c)
                           for m, c in enumerate(self.coeffs[j:], start=j)])

    def evaluate(self, x):
        F = self.field
        out = F.zero
        for c in reversed(self.coeffs):
            out = F.add(F.mul(out, x), c)
        return out

    # -- modular exponentiation helpers --

    def powmod(self, e, mod):
        out = UniPoly.const(self.field, self.field.one)
        base = self % mod
        while e:
            if e & 1:
                out = (out * base) % mod
            base = (base * base) % mod
            e >>= 1
        return out

    def is_irreducible(self):
        return self.degree() >= 1 and factor(self) == [(self.monic(), 1)]

    def count_roots(self):
        """Number of distinct roots in the coefficient field, read off the
        first distinct-degree pair of factor."""
        g, d = next(_distinct_degree(self), (None, 0))
        return g.degree() if d == 1 else 0


def jacobi(a, b):
    """The Jacobi symbol (a | b) in F[t], b monic: prod chi_P(a mod P)^e over
    the factors P^e of b (Rosen, Number Theory in Function Fields, ch. 3).
    Euclid, with (c a | b) = chi(c)^deg b (a | b) for a unit c, and for
    monic a, b reciprocity: (a | b) = (b | a) (-1)^((|F|-1)/2 deg a deg b)."""
    F = b.field
    out = 1
    while b.degree() > 0:  # b = 1 ends it before a is reduced mod 1
        a = a % b
        if a.is_zero():
            return 0
        if b.degree() % 2:
            out *= F.chi(a.leading())
        if (F.q - 1) // 2 * a.degree() * b.degree() % 2:
            out = -out
        a, b = b, a.monic()
    return out


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_squarefree(f):
    """gcd(f, f') is constant.  In characteristic p a vanishing derivative
    means f is a p-th power, which the gcd criterion also catches.  The
    scalar cross-check of the squarefree_disc bit of census.classify;
    bench/spans.py wraps it."""
    if f.is_zero():
        raise ValueError("squarefreeness undefined for the zero polynomial")
    return f.gcd(f.hasse(1)).is_constant()


def factor(f):
    """Factor a nonzero univariate polynomial into monic irreducibles.

    Returns a list of (irreducible monic UniPoly, multiplicity), sorted by
    (degree, coefficients).  Squarefree decomposition, then distinct-degree,
    then seeded Cantor-Zassenhaus equal-degree splitting.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    F = f.field
    rng = SplitMix64(0x5EED)
    out = {}

    def squarefree_parts(g, mult):
        # yields (squarefree poly, multiplicity) pieces
        p = F.characteristic
        while True:
            if g.is_constant():
                return
            d = g.hasse(1)
            if d.is_zero():
                # g = h(x^p); p-th root the coefficients
                root_coeffs = []
                e = F.q // p
                for i in range(0, g.degree() + 1, p):
                    c = g.coeffs[i] if i < len(g.coeffs) else F.zero
                    root_coeffs.append(F.pow(c, e))
                g = UniPoly(F, root_coeffs)
                mult *= p
                continue
            w = g.gcd(d)
            sf = (g // w).monic()
            i = 1
            while not sf.is_constant():
                y = sf.gcd(w)
                piece = (sf // y).monic()
                if not piece.is_constant():
                    yield piece, mult * i
                sf = y
                w = w // y
                i += 1
            if w.is_constant():
                return
            g = w
            # remaining part is a p-th power; loop handles it

    def equal_degree_split(g, d):
        # g is a product of irreducibles all of degree d; return them
        if g.degree() == d:
            return [g.monic()]
        q = F.q
        while True:
            r = UniPoly(F, [F.random(rng) for _ in range(g.degree())])
            if r.is_zero() or r.is_constant():
                continue
            h = r.powmod((q ** d - 1) // 2, g) - UniPoly.const(F, F.one)
            w = h.gcd(g)
            if not w.is_constant() and w.degree() < g.degree():
                return equal_degree_split(w, d) + equal_degree_split((g // w).monic(), d)

    for sf, mult in squarefree_parts(f.monic(), 1):
        for g, d in _distinct_degree(sf):
            for piece in equal_degree_split(g, d):
                out[piece.coeffs] = out.get(piece.coeffs, 0) + mult
    result = [(UniPoly(F, list(k)), m) for k, m in out.items()]
    result.sort(key=lambda fm: (fm[0].degree(), fm[0].coeffs))
    return result


def _distinct_degree(f):
    """Distinct-degree stage of factor: (g, d), d increasing, g != 1 the
    product of the degree-d irreducible factors of a monic squarefree f.
    For any f the first pair has d = 1 iff f has a root; g = gcd(x^q - x, f)."""
    x = UniPoly.x(f.field)
    h, rem, d = x, f, 0
    while rem.degree() > 0:
        d += 1
        if 2 * d > rem.degree():
            yield rem, rem.degree()
            return
        h = h.powmod(f.field.q, rem)
        g = (h - x).gcd(rem)  # deg rem >= 2 > deg x
        if not g.is_constant():
            yield g, d
            rem = rem // g
            h = h % rem


class Place:
    """A closed point of P^1 over the base field: a monic irreducible
    polynomial in t, or the point at infinity."""

    __slots__ = ("poly",)

    def __init__(self, poly=None):
        if poly is not None:
            if poly.degree() < 1:
                raise ValueError("finite place needs a nonconstant polynomial")
            poly = poly.monic()
        self.poly = poly

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinity(self):
        return self.poly is None

    def degree(self):
        return 1 if self.is_infinity else self.poly.degree()

    def residue_field(self):
        """kappa(v) together with the image of t in it."""
        if self.is_infinity:
            raise ValueError("infinity has no finite residue construction here")
        if self.poly.degree() == 1:
            F = self.poly.field
            tau = F.neg(self.poly.coeffs[0])
            return F, tau
        return Field.extension(self.poly), self.poly.field.q

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.poly == other.poly

    def __hash__(self):
        return hash(("place", None if self.is_infinity else self.poly.coeffs))

    def __repr__(self):
        return "Place(inf)" if self.is_infinity else "Place(%r)" % (list(self.poly.coeffs),)


class BinaryForm:
    """Homogeneous form of degree D in (s, t); coeffs[j] multiplies t^j s^(D-j).

    All D+1 coefficients are stored, zeros included, so the intended degree
    survives vanishing top coefficients.  A form holds its coefficients,
    degree and jets; arithmetic runs on f(1, t) as a UniPoly, and
    from_unipoly wraps the result.
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field, degree, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError("degree-%d form needs %d coefficients, got %d"
                             % (degree, degree + 1, len(coeffs)))
        self.field = field
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field, degree):
        return cls(field, degree, [field.zero] * (degree + 1))

    @classmethod
    def from_unipoly(cls, f, degree):
        """View a polynomial in t as a form of the given degree (chart s=1)."""
        if f.degree() > degree:
            raise ValueError("polynomial degree exceeds form degree")
        cs = list(f.coeffs) + [f.field.zero] * (degree - f.degree())
        return cls(f.field, degree, cs)

    def is_zero(self):
        z = self.field.zero
        return all(c == z for c in self.coeffs)

    def dehomog_t(self):
        """f(1, t) as a UniPoly in t."""
        return UniPoly(self.field, list(self.coeffs))

    def jet(self, v, n):
        """(kappa(v), [c_0, ..., c_(n-1)]), the first n Taylor coefficients
        at the place v.  At a finite place c_j = D^(j) f(1, t) at the image
        tau of t, the Hasse derivative taken over the base field and
        evaluated in kappa(v): the remainder of the j-th synthetic division
        of f(1, t) by t - tau.  At infinity c_j is the s^j coefficient of
        f(s, 1)."""
        if v.is_infinity:
            cs = list(self.coeffs[::-1][:n])
            return self.field, cs + [self.field.zero] * (n - len(cs))
        K, tau = v.residue_field()
        cs = list(self.coeffs)
        out = []
        for _ in range(n):
            for i in range(len(cs) - 2, -1, -1):
                cs[i] = K.add(cs[i], K.mul(tau, cs[i + 1]))
            out.append(cs.pop(0) if cs else K.zero)
        return K, out

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.field == other.field
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return "BinaryForm(deg=%d, %r)" % (self.degree, list(self.coeffs))


def leading_at(f, v):
    """(ord_v f, c) for a binary form f at a place v of P^1, by one division
    loop.  At a finite place, c is the first nonzero digit of f(1, t) in
    base P, the place polynomial, as a kappa(v) code: the Taylor coefficient
    of that order (BinaryForm.jet) over P'(tau)^ord.  At infinity, ord_v f =
    D - deg_t f(1, t) and c is the top coefficient of f(1, t).  The zero
    form gives (inf, 0)."""
    ft = f.dehomog_t()
    if ft.is_zero():
        return math.inf, f.field.zero
    if v.is_infinity:
        return f.degree - ft.degree(), ft.leading()
    for n in range(ft.degree() + 1):  # ord_v f <= deg f(1, t)
        ft, rem = ft.divmod(v.poly)
        if not rem.is_zero():
            return n, sum(c * f.field.q ** i for i, c in enumerate(rem.coeffs))


def ord_at(f, v):
    """Valuation of a nonzero binary form at a place of P^1 (leading_at)."""
    if f.is_zero():
        raise ValueError("valuation of the zero form is undefined")
    return leading_at(f, v)[0]


# ---------------------------------------------------------------------------
# batched F_p[t]: one polynomial per row of an int64 array, low degree first,
# entries in [0, p), p < 2^31 (rows_mul and rows_gcd give their dtype rules)

def rows_mul(A, B, p):
    """Row-wise product of two polynomial batches.  Each column of A adds a
    product below (p - 1)^2 to the int64 sums, so they are reduced mod p
    only every K = floor((2^63 - p) / (p - 1)^2) >= 2 columns, and last."""
    out = np.zeros((A.shape[0], A.shape[1] + B.shape[1] - 1), dtype=np.int64)
    K = (2 ** 63 - p) // (p - 1) ** 2
    for i in range(A.shape[1]):
        if i and i % K == 0:
            out -= out // p * p
        out[:, i:i + B.shape[1]] += A[:, i:i + 1] * B
    return out - out // p * p


def rows_hasse(A, j, p):
    """Row-wise Hasse derivative D^(j): t^m -> C(m, j) t^(m-j).  In any
    characteristic, (t - a)^k | f iff D^(0..k-1) f all vanish at a."""
    binom = np.array([math.comb(m, j) % p for m in range(j, A.shape[1])],
                     dtype=np.int64)
    return A[:, j:] * binom % p


def rows_degree(A):
    """Degree of each row; -1 for the zero polynomial."""
    return np.where(A != 0, np.arange(A.shape[1]), -1).max(axis=1)


def _shift_up(X, k):
    """X with column i moved up by k[i] rows, zeros below."""
    return np.take_along_axis(np.concatenate([X, np.zeros_like(X)]),
                              k + np.arange(len(X))[:, None], 0)


def rows_gcd(A, B, p):
    """Row-wise gcd up to a unit, by inverse-free Euclid on a transposed
    copy held leading coefficient first: row k of a holds the t^(da - k)
    coefficients, da >= deg a.  The step a <- lead(b) a + (p - lead(a))
    t^(da - db) b drops row 0 and lowers da by one; when da < db the pair
    swaps and b is shifted up to its leading coefficient.  The step runs in
    uint32 if 2 (p - 1)^2 < 2^32 (p <= 46337), else in uint64, never beside
    int64 (numpy would give float64); x mod p is x - x // p * p, faster in
    numpy than x % p.  A row is done once b is 0 (the gcd is a) or a unit."""
    dtype = np.uint32 if 2 * (p - 1) ** 2 < 2 ** 32 else np.uint64
    width = max(A.shape[1], B.shape[1])
    out = np.zeros((len(A), width), dtype=np.int64)
    a, b = (np.zeros((width, len(A)), dtype) for _ in range(2))
    a[:A.shape[1]], b[:B.shape[1]] = A[:, ::-1].T, B[:, ::-1].T
    da, db = (np.full(len(A), X.shape[1] - 1) for X in (A, B))
    rows = np.arange(len(A))
    while True:
        s = da < db
        if 2 * s.sum() > len(s):  # swap the names, then the rows that stay
            a, b, da, db, s = b, a, db, da, ~s
        s = np.flatnonzero(s)
        a[:, s], b[:, s], da[s], db[s] = b[:, s], a[:, s], db[s], da[s]
        z = np.flatnonzero(b[0] == 0)
        if z.size:
            shift = (b[:, z] != 0).argmax(0)  # 0 on a zero column
            db[z] = np.where(b[shift, z] != 0, db[z] - shift, -1)
            b[:, z] = _shift_up(b[:, z], shift)
        done = db <= 0
        if done.any():
            zero = db[done] < 0
            g = np.where(zero, a[:, done], b[:, done])[::-1]
            out[rows[done], :width] = _shift_up(
                g, width - 1 - zero * da[done]).T
            rows, da, db, a, b = (np.compress(~done, x, axis=-1)
                                  for x in (rows, da, db, a, b))
        if not rows.size:
            return out
        width = da.max() + 1
        a, b = a[:width], b[:width]
        minus_lead = (p - a[0]) % p  # 0, not p, where row 0 of a is 0
        a[:-1] = a[1:] * b[0] + minus_lead * b[1:]
        a[-1] = 0
        a -= a // p * p
        da -= 1
