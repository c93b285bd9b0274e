"""The even unimodular lattice U^(2d-2) + (-E8)^d, its reduction mod n,
reflections, and orbit decomposition of (Z/nZ)^r under the reflection
group.  The orbit count realizes sigma(n) = sum of divisors.

Exhaustive decomposition is a BFS over mixed-radix packed vectors with
numpy: each reflection image is the packed index plus a sparse digit update
(read the digits on supp Gw, rewrite those on supp w), and each BFS level
audits the content invariant of its vectors.  Past the fixed budget
n^r <= BUDGET a sampling mode checks the predicted invariant classes by
exhibiting explicit reflection words between random same-class pairs.
"""

from math import gcd

import numpy as np

from . import DomainError
from .rng import SplitMix64

BUDGET = 1 << 26

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


def standard_generators(d, rng=None, extra=64):
    """Reflection vector pool for the Selmer lattice of height d: e+f and
    e-f per hyperbolic block, the 8 basis roots per E8 block, plus seeded
    random vectors whose integral q lands in {1, -1, 2, -2}."""
    lat = selmer_lattice(d)
    r = lat.rank
    gens = []
    for b in range(2 * d - 2):
        e = np.zeros(r, dtype=np.int64)
        f = np.zeros(r, dtype=np.int64)
        e[2 * b] = 1
        f[2 * b + 1] = 1
        gens.append(e + f)
        gens.append(e - f)
    for b in range(d):
        base = 2 * (2 * d - 2) + 8 * b
        for i in range(8):
            v = np.zeros(r, dtype=np.int64)
            v[base + i] = 1
            gens.append(v)
    if rng is None:
        rng = SplitMix64(0xA11CE)
    targets = (1, -1, 2, -2)
    for i in range(extra):
        # hit the target q exactly: with v[0] = 1 the first hyperbolic pair
        # contributes v[0]*v[1], so v[1] absorbs the residual
        v = np.array([rng.below(5) - 2 for _ in range(r)], dtype=np.int64)
        v[0] = 1
        v[1] = 0
        v[1] = targets[i % 4] - lat.q(v)
        if lat.q(v) != targets[i % 4]:
            raise ValueError("extra generator %d misses q = %d"
                             % (i, targets[i % 4]))
        gens.append(v)
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

    Vectors are packed indices sum v_i n^i.  r_w(v) = v - b w with
    b = B(v, w) q(w)^-1 reads the digits on supp(Gw) and rewrites those on
    supp(w).  Every vector lies in exactly one BFS level, and each level
    checks that its vectors carry the representative's content_invariant."""
    n, r = module.n, module.rank
    total = orbit_space(n, r)
    if n == 1:
        rep = (0,) * r
        return OrbitReport(1, r, "exhaustive", 1, [(rep, 1, (1, 0))])

    gram = module.gram
    # q(v) = sum_i (G_ii/2) v_i^2 + sum_{i<j} G_ij v_i v_j, nonzero terms
    half = np.triu(gram, 1) + np.diag(np.diag(gram) // 2)
    q_terms = [(i, j, half[i, j]) for i, j in zip(*np.nonzero(half))]
    pows = np.array([n ** i for i in range(r)], dtype=np.int64)
    # per generator: supp w, w there, supp Gw mod n, Gw there, q(w)^-1
    refl = []
    gen_qs = []
    for w in _usable(module, generators):
        gen_qs.append(module.lattice.q(w))
        gw = gram @ w % n
        sw, sg = np.flatnonzero(w), np.flatnonzero(gw)
        refl.append((sw, w[sw], sg, gw[sg], pow(module.q(w), -1, n)))

    visited = np.zeros(total, dtype=bool)
    orbits = []
    start = 0
    while not visited[start]:
        visited[start] = True
        rep = tuple(int(start // p % n) for p in pows)
        inv = module.content_invariant(rep)
        frontier = np.array([start], dtype=np.int64)
        size = 0
        while frontier.size:
            size += frontier.size
            digits = frontier // pows[:, None] % n  # r x m
            t = np.gcd(np.gcd.reduce(digits), n)
            prim = digits // t
            qbar = sum(g * prim[i] * prim[j] for i, j, g in q_terms) % (n // t)
            if np.any(t != inv[0]) or np.any(qbar != inv[1]):
                raise ValueError("orbit %d not invariant-homogeneous"
                                 % len(orbits))
            # an involution maps distinct vectors to distinct images, so
            # marking `visited` per generator is the whole dedup
            nxt = []
            for sw, ws, sg, gs, qinv in refl:
                b = sum(g * digits[j] for j, g in zip(sg, gs)) * qinv % n
                img = frontier.copy()
                for i, wi in zip(sw, ws):
                    img += ((digits[i] - wi * b) % n - digits[i]) * pows[i]
                img = img[~visited[img]]
                visited[img] = True
                nxt.append(img)
            frontier = np.concatenate([frontier[:0], *nxt])
        orbits.append((rep, size, inv))
        start += int(visited[start:].argmin())
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


def sampling_connectivity(module, rng, pairs_per_class=100, tries=256):
    """Sampling-mode orbit report: classes predicted by content_invariant;
    for each class, connect random same-class pairs by an explicit
    reflection word (certificate) built from midpoint reflections:
    if q(x) = q(y) and q(x - y) is a unit then r_{x-y}(x) = y, and a random
    midpoint z with q(z) = q(x) splits the general case in two steps.
    Classes whose pairs cannot all be certified are reported UNRESOLVED."""
    n, r = module.n, module.rank
    classes = module.predicted_classes()
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
            word = _connect(module, px, py, rng, tries)
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
    nt = max(n // t, 1)
    while True:
        prim = np.array([rng.below(n) for _ in range(module.rank)],
                        dtype=np.int64)
        prim[0] = 1  # primitive, and q(prim) = prim[1] + q(prim with prim[1]=0)
        rest = prim.copy()
        rest[1] = 0
        q_rest = int(rest @ module.gram @ rest) // 2
        prim[1] = (qbar - q_rest) % n
        v = (t * prim) % n
        if module.content_invariant(v) == (t, qbar % nt):
            return v, prim


def _connect(module, x, y, rng, tries):
    """Reflection word taking x to y, or None.  Midpoint construction:
    q(x) = q(y) makes B(x, x-y) = q(x-y), so r_{x-y}(x) = y whenever
    q(x-y) is a unit; otherwise route through a random z of the same q."""
    n = module.n
    x = np.asarray(x, dtype=np.int64) % n
    y = np.asarray(y, dtype=np.int64) % n
    if tuple(x) == tuple(y):
        return []
    d = (x - y) % n
    if gcd(module.q(d), n) == 1:
        return [d]
    qx = module.q(x)
    for _ in range(tries):
        z, _ = _random_class_vector(module, 1, qx, rng)
        if module.q(z) != qx:
            continue
        d1 = (x - z) % n
        d2 = (z - y) % n
        if gcd(module.q(d1), n) == 1 and gcd(module.q(d2), n) == 1:
            return [d1, d2]
    return None
