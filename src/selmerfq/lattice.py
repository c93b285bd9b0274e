"""The even unimodular lattice U^(2d-2) + (-E8)^d, its reduction mod n,
reflections, and orbit decomposition of (Z/nZ)^r under the reflection
group.  The orbit count realizes sigma(n) = sum of divisors.

Exhaustive decomposition walks each orbit of mixed-radix packed int32
vectors with numpy, one cursor per generator.  Each vector's digits are
made once, by floor division, and audited for the content invariant; a
reflection image v - b w is the packed index minus b times w packed, plus
one correction per digit on supp w, with b read from the digits on supp
Gw.  Every reduction mod n is x - (x // n) * n.  Past the fixed budget
n^r <= BUDGET a sampling mode checks the predicted invariant classes by
exhibiting explicit reflection words between random same-class pairs.
"""

from math import gcd

import numpy as np

from . import DomainError
from .ffpoly import _prime_divisors

BUDGET = 1 << 26
# vectors one generator sweep reflects: bounds the sweep's temporaries
BLOCK = 16384
# bound on sigma(n) * pairs_per_class * rank, the certificates of one
# sampling run times their vector length: on 2 CPUs a certificate takes
# 0.25 ms at rank 20 and 1.7 ms at rank 188, so the largest accepted run
# takes 20-25 s
SAMPLE_BUDGET = 2 * 10 ** 6

# E8 Cartan matrix: chain 0-1-2-3-4-5-6 with node 7 attached to node 4
_E8_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]


def e8_gram():
    g = 2 * np.eye(8, dtype=np.int64)
    for i, j in _E8_EDGES:
        g[i, j] = g[j, i] = -1
    return g


def hyperbolic_gram():
    return np.array([[0, 1], [1, 0]], dtype=np.int64)


class IntegralLattice:
    """Even integral lattice given by its Gram matrix."""

    def __init__(self, gram):
        gram = np.asarray(gram, dtype=np.int64)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be square")
        if not np.array_equal(gram, gram.T):
            raise ValueError("gram must be symmetric")
        if any(int(x) % 2 for x in np.diag(gram)):
            raise ValueError("even lattice needs even diagonal")
        self.gram = gram
        self.rank = gram.shape[0]

    def q(self, v):
        """Integral quadratic value v.Gv/2."""
        v = np.asarray(v, dtype=object)
        return int(v @ self.gram.astype(object) @ v) // 2


def selmer_lattice(d):
    """U^(2d-2) + (-E8)^d, rank 12d-4, for d >= 2; d = 1 is the E8 route
    (weyl_e8_orbits)."""
    if d < 2:
        raise DomainError("d >= 2 required; for d = 1 use weyl_e8_orbits")
    blocks = [hyperbolic_gram()] * (2 * d - 2) + [-e8_gram()] * d
    r = 12 * d - 4
    g = np.zeros((r, r), dtype=np.int64)
    pos = 0
    for b in blocks:
        k = b.shape[0]
        g[pos:pos + k, pos:pos + k] = b
        pos += k
    return IntegralLattice(g)


def e8_lattice():
    return IntegralLattice(e8_gram())


class QuadraticModule:
    """(Z/nZ)^r with q(v) = v.Gv/2 mod n from an even integral Gram."""

    def __init__(self, lat, n):
        if n < 1:
            raise DomainError("modulus must be >= 1")
        self.lattice = lat
        self.gram = lat.gram
        self.rank = lat.rank
        self.n = n

    def q(self, v):
        """(v.Gv)/2 mod n, computed on the integer lift."""
        v = np.asarray(v, dtype=np.int64) % self.n
        return int(v @ self.gram @ v) // 2 % self.n

    def bilinear(self, x, y):
        x = np.asarray(x, dtype=np.int64) % self.n
        y = np.asarray(y, dtype=np.int64) % self.n
        return int(x @ self.gram @ y) % self.n

    def reflect(self, w, v):
        """r_w(v) = v - (B(v,w)/q(w)) w; q(w) must be a unit mod n."""
        qw = self.q(w)
        if gcd(qw, self.n) != 1:
            raise ValueError("non-invertible reflection vector")
        c = pow(qw, -1, self.n) if self.n > 1 else 0
        w = np.asarray(w, dtype=np.int64) % self.n
        v = np.asarray(v, dtype=np.int64) % self.n
        return tuple(int(x) for x in (v - self.bilinear(v, w) * c * w) % self.n)

    def content_invariant(self, v):
        """(t, qbar): t = gcd of the lifted coordinates with n; qbar is the
        q-value of the primitive part v/t taken mod n/t.  qbar is well
        defined: two lifts of v/t differ by (n/t)c and q changes by
        (n/t)B(v/t, c) + (n/t)^2 q(c), both 0 mod n/t."""
        v = [int(x) % self.n for x in v]
        t = self.n
        for x in v:
            t = gcd(t, x)
        if t == self.n:
            return (self.n, 0)
        prim = np.array([x // t for x in v], dtype=np.int64)
        qbar = int(prim @ self.gram @ prim) // 2 % (self.n // t)
        return (t, qbar)

    def predicted_classes(self):
        """All invariant values realized on (Z/nZ)^r; for the unimodular
        Selmer module q is surjective on primitive vectors (it contains a
        hyperbolic block), so the class list is {(n,0)} plus (t, qbar) for
        every proper divisor t and every qbar mod n/t — sigma(n) classes."""
        out = [(self.n, 0)]
        for t in range(1, self.n):
            if self.n % t == 0:
                out.extend((t, r) for r in range(self.n // t))
        return out


def standard_generators(d):
    """Reflection vectors for the Selmer lattice of height d, each with at
    most 3 nonzero coordinates: e+f and e-f per hyperbolic block, the 8
    basis roots per -E8 block, and for every basis vector b outside the
    first hyperbolic block (e, f) the bridge e + (1 - q(b)) f + b, of
    q = 1, which joins b's block to the first."""
    lat = selmer_lattice(d)
    eye = np.eye(lat.rank, dtype=np.int64)
    hyp = 4 * d - 4  # coordinates of the hyperbolic blocks
    gens = [eye[i] + s * eye[i + 1] for i in range(0, hyp, 2) for s in (1, -1)]
    gens += list(eye[hyp:])
    gens += [eye[0] + (1 - lat.q(b)) * eye[1] + b for b in eye[2:]]
    return lat, gens


class OrbitReport:
    def __init__(self, n, rank, mode, orbit_count, orbits, certificates=None,
                 unresolved=None, generator_qs=None):
        self.n = n
        self.rank = rank
        self.mode = mode
        self.orbit_count = orbit_count
        self.orbits = orbits  # list of (representative tuple, size, invariant)
        self.certificates = certificates
        self.unresolved = unresolved
        self.generator_qs = generator_qs

    def to_json(self):
        obj = {
            "n": self.n,
            "rank": self.rank,
            "mode": self.mode,
            "orbit_count": self.orbit_count,
            "orbits": [
                {"representative": list(map(int, rep)), "size": size,
                 "invariant": list(inv)}
                for rep, size, inv in self.orbits
            ],
        }
        if self.generator_qs is not None:
            obj["generator_q_values"] = list(map(int, self.generator_qs))
        if self.certificates is not None:
            obj["connectivity"] = self.certificates
        if self.unresolved is not None:
            obj["unresolved"] = self.unresolved
        return obj


def _usable(module, gens):
    """Generators with q(w) invertible mod n, deduplicated mod n."""
    out = []
    seen = set()
    for w in gens:
        wm = tuple(int(x) % module.n for x in w)
        if wm in seen:
            continue
        seen.add(wm)
        if gcd(module.q(wm), module.n) == 1:
            out.append(np.array(wm, dtype=np.int64))
    return out


def orbit_space(n, r):
    """Size n^r of (Z/nZ)^r; raises past BUDGET."""
    total = n ** r
    if total > BUDGET:
        raise DomainError("n^r = %d exceeds budget %d" % (total, BUDGET))
    return total


def orbit_decompose(module, generators):
    """Exhaustive orbit decomposition of (Z/nZ)^r under the reflections in
    `generators`; raises when n^r exceeds BUDGET (use sampling_connectivity
    instead).

    Vectors are packed indices sum v_i n^i, held as int32: exact, since
    n^r <= BUDGET = 2^26 < 2^31.  Each has its digits made once, when it is
    found, as floor(v / n^i) - n floor(v / n^(i+1)), int8 while n < 128
    (so the content t0 <= n fits too).  Raises DomainError where an
    intermediate could leave int32 (never for an n the CLI takes).

    Generator k has a cursor into the orbit's vectors in the order found: a
    sweep reflects its next BLOCK vectors and appends the images not seen
    before; the orbit is complete when every cursor reaches its end.  Every
    BLOCK vectors found, and at the end, are checked to carry the
    representative's content invariant (t0, qbar0): t0 divides every digit;
    for each prime p | n/t0, no vector has every digit divisible by t0 p;
    and q(v/t0) = qbar0 mod n/t0, summed over the nonzero Gram terms.

    r_w(v) = v - b w with b = B(v, w) q(w)^-1 mod n, a sum over the digits
    on supp Gw.  Digit i of v - b w is y_i = v_i - b w_i plus n c_i with
    c_i = -floor(y_i / n), so the packed image is v - b (w packed) plus
    c_i n^(i+1) summed over supp w."""
    n, r = module.n, module.rank
    total = orbit_space(n, r)
    if n == 1:
        rep = (0,) * r
        return OrbitReport(1, r, "exhaustive", 1, [(rep, 1, (1, 0))])

    gram = module.gram
    # q(v) = sum_i (G_ii/2) v_i^2 + sum_{i<j} G_ij v_i v_j, nonzero terms
    half = np.triu(gram, 1) + np.diag(np.diag(gram) // 2)
    qi, qj = np.nonzero(half)
    qh = half[qi, qj, None].astype(np.int32)
    # widest intermediates: v - b w packed (< n^(r+1)), b and q(v/t) before
    # their reduction mod n (< (r + sum |terms|) n^2)
    if max(n * total, (r + int(np.abs(qh).sum())) * n * n) >= 1 << 31:
        raise DomainError("n = %d, rank %d: orbit arithmetic overflows int32"
                          % (n, r))
    pows = n ** np.arange(r, dtype=np.int32)
    # per generator: (j, q(w)^-1 (Gw)_j mod n) on supp Gw, (i, w_i, n^(i+1))
    # on supp w, and w packed; each coefficient, like each row of `qh`, is a
    # 1-element int32 array, so int8 digits times it are int32 on numpy 1 too
    refl = []
    gen_qs = []
    for w in _usable(module, generators):
        gen_qs.append(module.lattice.q(w))
        c = (gram @ w % n * pow(module.q(w), -1, n) % n).astype(np.int32)
        refl.append(([(j, c[j, None]) for j in np.flatnonzero(c)],
                     [(i, int(w[i]), int(pows[i]) * n)
                      for i in np.flatnonzero(w)],
                     int(w @ pows)))

    unseen = np.ones(total, dtype=bool)
    # the vectors a cursor or the audit has yet to pass, and their digits
    found = np.empty(0, dtype=np.int32)
    store = np.empty((r, 0), dtype=np.int8 if n < 128 else np.int32)
    orbits = []
    start = 0
    while unseen[start]:
        unseen[start] = False
        rep = tuple(int(start // p % n) for p in pows)
        inv = t0, qbar0 = module.content_invariant(rep)
        nt = n // t0
        primes = _prime_divisors(nt)
        img = np.array([start], dtype=np.int32)  # appended first
        cur = [0] * len(refl)  # generator k has swept vectors 0 .. cur[k]-1
        base = size = audited = 0  # found[0] is vector `base` of the orbit
        while True:
            if size - base + img.size > found.size:
                # keep what a cursor or the audit has not passed; double
                lo, hi = min([audited, *cur]) - base, size - base
                cap = max(found.size, 2 * (hi - lo + img.size)) - (hi - lo)
                found = np.concatenate([found[lo:hi], np.empty(cap, np.int32)])
                store = np.concatenate(
                    [store[:, lo:hi], np.empty((r, cap), store.dtype)], axis=1)
                base += lo
            digits = img // pows[:, None]  # r x m
            digits[:-1] -= digits[1:] * n
            found[size - base:size - base + img.size] = img
            store[:, size - base:size - base + img.size] = digits
            size += img.size
            least = min(cur, default=size)
            if least == size or size - audited >= BLOCK:
                digits = store[:, audited - base:size - base]
                prim = digits // t0
                qv = sum((h * prim[i] * prim[j]
                          for h, i, j in zip(qh, qi, qj)), np.int32(-qbar0))
                if not ((prim * t0 == digits).all()
                        and all((prim // p * p != prim).any(axis=0).all()
                                for p in primes)
                        and (qv // nt * nt == qv).all()):
                    raise ValueError("orbit %d not invariant-homogeneous"
                                     % len(orbits))
                audited = size
            if least == size:
                break
            k = cur.index(least)  # the generator furthest behind
            bterms, wterms, wp = refl[k]
            lo, hi = least - base, min(size, least + BLOCK) - base
            cur[k] = hi + base
            b = sum(cj * store[j, lo:hi] for j, cj in bterms)
            b -= b // n * n
            # v - b w packed, then n c_i added to each digit on supp w
            img = found[lo:hi] - wp * b
            for i, wi, pn in wterms:
                img -= pn * ((store[i, lo:hi] - wi * b) // n)
            # an involution maps distinct vectors to distinct images, so
            # marking `unseen` per sweep is the whole dedup
            img = img[unseen.take(img)]
            unseen[img] = False
        orbits.append((rep, size, inv))
        start += int(unseen[start:].argmax())
    if sum(s for _, s, _ in orbits) != total:
        raise ValueError("orbit sizes do not sum to n^r = %d" % total)
    return OrbitReport(n, r, "exhaustive", len(orbits), orbits,
                       generator_qs=gen_qs)


def weyl_e8_orbits(n):
    """Exhaustive orbit decomposition of (Z/nZ)^8 under the eight simple
    E8 reflections (sign convention immaterial to orbits)."""
    lat = e8_lattice()
    module = QuadraticModule(lat, n)
    gens = [np.eye(8, dtype=np.int64)[i] for i in range(8)]
    return orbit_decompose(module, gens)


def sampling_connectivity(module, rng, pairs_per_class=100):
    """Sampling-mode orbit report: classes predicted by content_invariant;
    for each class, connect random same-class pairs by an explicit
    reflection word (certificate) built from midpoint reflections:
    if q(x) = q(y) and q(x - y) is a unit then r_{x-y}(x) = y, and a random
    midpoint z with q(z) = q(x) splits the general case in two steps.
    Classes whose pairs cannot all be certified are reported UNRESOLVED.
    Raises before any draw when sigma(n) * pairs_per_class * rank exceeds
    SAMPLE_BUDGET; since sigma(n) >= n, n is checked first, so sigma(n) is
    never listed for a huge n."""
    n, r = module.n, module.rank
    past = DomainError("n = %d, %d pairs per class, rank %d: past the "
                       "sampling budget sigma(n) * pairs * rank <= %d"
                       % (n, pairs_per_class, r, SAMPLE_BUDGET))
    if n * pairs_per_class * r > SAMPLE_BUDGET:
        raise past
    classes = module.predicted_classes()
    if len(classes) * pairs_per_class * r > SAMPLE_BUDGET:
        raise past
    results = {}
    unresolved = []
    for (t, qbar) in classes:
        if t == n:
            # the class is the single zero vector
            results[str((t, qbar))] = {"pairs": pairs_per_class,
                                       "connected": pairs_per_class}
            continue
        connected = 0
        for _ in range(pairs_per_class):
            x, px = _random_class_vector(module, t, qbar, rng)
            y, py = _random_class_vector(module, t, qbar, rng)
            # reflections are linear, so a word taking px to py also takes
            # x = t px to y = t py; the primitive parts are built with equal
            # q mod n, which the midpoint construction needs
            word = _connect(module, px, py, rng)
            if word is not None:
                v = x
                for w in word:
                    v = np.array(module.reflect(w, v), dtype=np.int64)
                if tuple(int(c) for c in v) != tuple(int(c) % n for c in y):
                    raise ValueError("reflection word maps %s to %s, not "
                                     "to %s mod %d" % (x, v, y, n))
                connected += 1
        results[str((t, qbar))] = {"pairs": pairs_per_class, "connected": connected}
        if connected < pairs_per_class:
            unresolved.append((t, qbar))
    reps = [(tuple(int(c) for c in _random_class_vector(module, t, qb, rng)[0]),
             None, (t, qb)) for (t, qb) in classes]
    return OrbitReport(n, r, "invariant+sampling", len(classes), reps,
                       certificates=results,
                       unresolved=[list(u) for u in unresolved])


def _random_class_vector(module, t, qbar, rng):
    """Random vector with invariant (t, qbar) plus its primitive part,
    normalized so the primitive part has q = qbar mod n (the first
    hyperbolic coordinate pair absorbs the adjustment)."""
    n = module.n
    prim = rng.below_array(n, module.rank)
    prim[:2] = 1, 0  # primitive, and then q(prim + c f) = c + q(prim)
    prim[1] = (qbar - module.q(prim)) % n
    v = (t * prim) % n
    if module.content_invariant(v) != (t, qbar % max(n // t, 1)):
        raise ValueError("vector %s drawn for class %s has invariant %s"
                         % (v, (t, qbar), module.content_invariant(v)))
    return v, prim


def _connect(module, x, y, rng):
    """Reflection word taking x to y, or None.  Midpoint construction:
    q(x) = q(y) makes B(x, x-y) = q(x-y), so r_{x-y}(x) = y whenever
    q(x-y) is a unit; otherwise route through one of 256 random z of the
    same q."""
    n = module.n
    x = np.asarray(x, dtype=np.int64) % n
    y = np.asarray(y, dtype=np.int64) % n
    if tuple(x) == tuple(y):
        return []
    d = (x - y) % n
    if gcd(module.q(d), n) == 1:
        return [d]
    qx = module.q(x)
    for _ in range(256):
        z, _ = _random_class_vector(module, 1, qx, rng)
        d1 = (x - z) % n
        d2 = (z - y) % n
        if gcd(module.q(d1), n) == 1 and gcd(module.q(d2), n) == 1:
            return [d1, d2]
    return None
