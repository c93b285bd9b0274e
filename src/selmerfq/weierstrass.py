"""Minimal Weierstrass models y^2 z = x^3 + a2 x^2 z + a4 x z^2 + a6 z^3
over the projective t-line, with homogeneous coefficient forms of degrees
2d, 4d, 6d.

Covers the discriminant, minimality, the (r, lambda) coordinate-change
action on equations and its stabilizers, torsion-section search at levels
2 and 3, and smoothness of the total space.
"""

import itertools

from . import DomainError, ffpoly
from .ffpoly import BinaryForm, Place, UniPoly, factor, ord_at


class WeierstrassModel:
    """Immutable model of height d.  The discriminant must not vanish
    identically (the generic fiber is a smooth elliptic curve)."""

    __slots__ = ("field", "d", "a2", "a4", "a6", "_disc")

    def __init__(self, field, d, a2, a4, a6):
        if (a2.degree, a4.degree, a6.degree) != (2 * d, 4 * d, 6 * d):
            raise DomainError("coefficient form degrees must be (2d, 4d, 6d)")
        self.field = field
        self.d = d
        self.a2 = a2
        self.a4 = a4
        self.a6 = a6
        self._disc = _disc_form(a2, a4, a6)
        if self._disc.is_zero():
            raise DomainError("singular generic fiber (discriminant is zero)")

    def __eq__(self, other):
        return (
            isinstance(other, WeierstrassModel)
            and self.field == other.field
            and self.d == other.d
            and (self.a2, self.a4, self.a6) == (other.a2, other.a4, other.a6)
        )

    def __hash__(self):
        return hash((self.field, self.d, self.a2, self.a4, self.a6))

    def __repr__(self):
        return "WeierstrassModel(d=%d over %r)" % (self.d, self.field)

    def to_json(self):
        return {
            "p": self.field.p,
            "k": self.field.k,
            "d": self.d,
            "a2": list(self.a2.coeffs),
            "a4": list(self.a4.coeffs),
            "a6": list(self.a6.coeffs),
        }

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; each coefficient must be an element code,
        an int in [0, q)."""
        F = ffpoly.field_make(obj["p"], obj.get("k", 1))
        d = obj["d"]
        forms = []
        for name, degree in (("a2", 2 * d), ("a4", 4 * d), ("a6", 6 * d)):
            if not all(type(c) is int and 0 <= c < F.q for c in obj[name]):
                raise DomainError("%s must hold element codes in [0, %d), "
                                  "got %r" % (name, F.q, obj[name]))
            forms.append(BinaryForm(F, degree, obj[name]))
        return cls(F, d, *forms)


def _disc_form(a2, a4, a6):
    """-16(4 a2^3 a6 - a2^2 a4^2 + 4 a4^3 + 27 a6^2 - 18 a2 a4 a6)."""
    F = a2.field
    c = F.from_int
    a2sq = a2 * a2
    t1 = (a2sq * a2 * a6).scale(c(4))
    t2 = a2sq * (a4 * a4)
    t3 = (a4 * a4 * a4).scale(c(4))
    t4 = (a6 * a6).scale(c(27))
    t5 = (a2 * a4 * a6).scale(c(18))
    inner = t1 - t2 + t3 + t4 - t5
    return inner.scale(F.neg(c(16)))


def discriminant(m):
    """The degree-12d discriminant form, nonzero by construction."""
    return m._disc


def bad_places(m):
    """Places dividing the discriminant (including infinity if it does)."""
    disc = discriminant(m)
    out = []
    dt = disc.dehomog_t()
    if not dt.is_constant():
        out.extend(Place(f) for f, _ in factor(dt))
    if ord_at(disc, Place.infinity()) > 0:
        out.append(Place.infinity())
    return out


def c4_form(m):
    """c4 = 16(a2^2 - 3 a4), a degree-4d form."""
    F = m.field
    return (m.a2 * m.a2 - m.a4.scale(F.from_int(3))).scale(F.from_int(16))


def c6_form(m):
    """c6 = -32(2 a2^3 - 9 a2 a4 + 27 a6), a degree-6d form."""
    F = m.field
    inner = (m.a2 * m.a2 * m.a2).scale(F.from_int(2)) \
        - (m.a2 * m.a4).scale(F.from_int(9)) + m.a6.scale(F.from_int(27))
    return inner.scale(F.neg(F.from_int(32)))


def minimality_of_forms(field, d, a2, a4, a6):
    """Minimality predicate on raw coefficient forms, nonzero discriminant
    not assumed: no place v with ord_v(a2) >= 2, ord_v(a4) >= 4,
    ord_v(a6) >= 6 (vanishing forms count as infinitely divisible).  As in
    census.classify, v^k | f iff v divides D^(0..k-1) f: no finite v
    qualifies iff gcd(D^(0..1) a2, D^(0..3) a4, D^(0..5) a6) is a nonzero
    constant, and infinity does not iff a top 2, 4, 6 coefficient is not 0."""
    if d == 0:
        return True
    pattern = ((a2, 2), (a4, 4), (a6, 6))
    if not any(c != field.zero for f, k in pattern for c in f.coeffs[-k:]):
        return False
    g = UniPoly.zero(field)
    for f, k in pattern:
        ft = f.dehomog_t()
        for j in range(k):
            g = g.gcd(ft.hasse(j))
            if g.degree() == 0:
                return True
    return False


def is_minimal(m):
    return minimality_of_forms(m.field, m.d, m.a2, m.a4, m.a6)


def minimality_bruteforce(field, d, a2, a4, a6):
    """Independent oracle for minimality_of_forms: enumerate every irreducible
    place of degree up to d dividing any of the forms (plus infinity) and
    test the divisibility pattern directly.  Slower but assumption-free."""
    if d == 0:
        return True
    forms = [f for f in (a2, a4, a6) if not f.is_zero()]
    if not forms:
        return False
    places = set()
    for f in forms:
        ft = f.dehomog_t()
        if not ft.is_constant():
            for fac, _ in factor(ft):
                if fac.degree() <= d:
                    places.add(Place(fac))
    places.add(Place.infinity())
    for v in places:
        ok2 = a2.is_zero() or ord_at(a2, v) >= 2
        ok4 = a4.is_zero() or ord_at(a4, v) >= 4
        ok6 = a6.is_zero() or ord_at(a6, v) >= 6
        if ok2 and ok4 and ok6:
            return False
    return True


class GroupElement:
    """(r, lambda) with r a degree-2d form and lambda a nonzero scalar;
    acts on Weierstrass equations by x -> x + r then the lambda-scaling."""

    __slots__ = ("r", "lam")

    def __init__(self, r, lam):
        if lam == r.field.zero:
            raise DomainError("lambda must be nonzero")
        self.r = r
        self.lam = lam

    def __eq__(self, other):
        return isinstance(other, GroupElement) and (self.r, self.lam) == (other.r, other.lam)

    def __hash__(self):
        return hash((self.r, self.lam))


def translate_x(a2, a4, a6, r):
    """Coefficients of y^2 = x^3 + a2 x^2 + a4 x + a6 after x -> x + r:
    a2 + 3r, a4 + 2 r a2 + 3 r^2, a6 + r a4 + r^2 a2 + r^3.  Works on
    binary forms (r of degree 2d) and on polynomials alike."""
    c = r.field.from_int
    r2 = r * r
    return (a2 + r.scale(c(3)), a4 + (r * a2).scale(c(2)) + r2.scale(c(3)),
            a6 + r * a4 + r2 * a2 + r2 * r)


def act_on_forms(g, a2, a4, a6):
    """Coefficient transform of the equation under g = (r, lambda):
    translate_x by r, then scale a2, a4, a6 by l^2, l^4, l^6.  Works on bare
    forms (no discriminant recomputation), which the census orbit
    enumeration needs."""
    F = a2.field
    l2 = F.mul(g.lam, g.lam)
    b2, b4, b6 = translate_x(a2, a4, a6, g.r)
    return b2.scale(l2), b4.scale(F.mul(l2, l2)), b6.scale(F.pow(l2, 3))


def act(g, m):
    """The group action on models; see act_on_forms for the formulas."""
    a2n, a4n, a6n = act_on_forms(g, m.a2, m.a4, m.a6)
    return WeierstrassModel(m.field, m.d, a2n, a4n, a6n)


def compose(g2, g1):
    """Composition law with act(g2, act(g1, m)) == act(compose(g2, g1), m),
    the cross-check that act is a group action."""
    F = g1.r.field
    lam1_inv2 = F.inv(F.mul(g1.lam, g1.lam))
    r = g1.r + g2.r.scale(lam1_inv2)
    return GroupElement(r, F.mul(g1.lam, g2.lam))


def stabilizer_order(m):
    """Order of the stabilizer of m in G(F_q) = G_a^{2d+1} x| G_m.

    For fixed lambda the a2-equation forces r uniquely (r = 0 when
    a2 = 0), so it suffices to loop over lambda and verify."""
    F = m.field
    three_inv = F.inv(F.from_int(3))
    count = 0
    for lam in F.elements():
        if lam == F.zero:
            continue
        lam_inv2 = F.inv(F.mul(lam, lam))
        if m.a2.is_zero():
            r = BinaryForm.zero(F, 2 * m.d)
        else:
            r = m.a2.scale(F.mul(F.sub(lam_inv2, F.one), three_inv))
        if act(GroupElement(r, lam), m) == m:
            count += 1
    return count


def is_smooth_surface(m, summary=None):
    """True iff the total space is smooth, equivalently every bad fiber has
    Kodaira type I_1 or II in `summary` (default global_summary(m))."""
    from . import localdata
    summary = summary or localdata.global_summary(m)
    return all(pd.kodaira in ("I_1", "II") for pd in summary.places)


def singular_surface_points(m):
    """Direct Jacobian search for singular points of the total space.

    Independent of the Kodaira tables: for each place dividing the
    discriminant, locate the multiple root of the fiber cubic over the
    residue field and test the t-derivative condition there.  Returns a
    list of (place, x0) witnesses.  Cross-checks is_smooth_surface (the
    Kodaira route) and census.singular_branches; bench/spans.py wraps it.
    """
    witnesses = []
    for v in bad_places(m):
        x0 = _fiber_multiple_root(m, v)
        if x0 is None:
            continue
        # d/du of the chart equation at (x0, y=0, u=0): the u^1 jet terms
        (K, (_, d2)), (_, (_, d4)), (_, (_, d6)) = (
            f.jet(v, 2) for f in (m.a2, m.a4, m.a6))
        x0sq = K.mul(x0, x0)
        ft = K.add(K.add(K.mul(d2, x0sq), K.mul(d4, x0)), d6)
        if ft == K.zero:
            witnesses.append((v, x0))
    return witnesses


def fiber_cubic(m, v):
    """The reduced fiber cubic x^3 + a2 x^2 + a4 x + a6 at v, over kappa(v)."""
    (K, (c2,)), (_, (c4,)), (_, (c6,)) = (f.jet(v, 1)
                                          for f in (m.a2, m.a4, m.a6))
    return UniPoly(K, [c6, c4, c2, K.one])


def _fiber_multiple_root(m, v):
    """The multiple root x0 of the reduced fiber cubic at v, in kappa(v);
    None if the fiber is smooth (good reduction)."""
    cubic = fiber_cubic(m, v)
    K = cubic.field
    g = cubic.gcd(cubic.hasse(1))
    if g.is_constant():
        return None
    if g.degree() == 1:
        return K.neg(K.mul(g.coeffs[0], K.inv(g.coeffs[1])))
    if g.degree() == 3:
        # char 3 with vanishing derivative: the cubic is x^3 - x0^3, and
        # cube roots are the inverse Frobenius y -> y^(q/3)
        return K.pow(K.neg(g.coeffs[0]), K.q // 3)
    # triple root: g = (x - x0)^2
    return K.neg(K.mul(g.coeffs[1], K.inv(K.mul(K.from_int(2), g.coeffs[2]))))


def torsion_section_search(m, n):
    """Polynomial torsion sections of level n in {2, 3}.

    Level 2: homogeneous degree-2d roots r of the fiber cubic; sections
    (r, 0).  Level 3: polynomial roots of the 3-division polynomial whose
    y-coordinate is itself a degree-3d polynomial; both y-signs returned.
    Candidates come from interpolation through 2d+1 base-field nodes.
    """
    if n not in (2, 3):
        raise DomainError("torsion search supports n in {2, 3}")
    F = m.field
    d = m.d
    npts = 2 * d + 1
    if F.q < npts:
        raise DomainError("base field too small for interpolation nodes")
    nodes = range(npts)  # the first 2d + 1 element codes, all distinct
    A2t, A4t, A6t = (m.a2.dehomog_t(), m.a4.dehomog_t(), m.a6.dehomog_t())

    if n == 2:
        target = _cubic_in_x(F, A2t, A4t, A6t)
    else:
        target = _psi3_in_x(F, A2t, A4t, A6t)

    # per-node roots of the specialized polynomial in x
    per_node = []
    for tau in nodes:
        spec = UniPoly(F, [c.evaluate(tau) for c in target])
        roots = [x for x in F.elements() if spec.evaluate(x) == F.zero]
        if not roots:
            return []
        per_node.append(roots)

    basis = _lagrange_basis(F, nodes)
    sections = []
    seen = set()
    for combo in itertools.product(*per_node):
        r = sum((L.scale(y) for L, y in zip(basis, combo)), UniPoly.zero(F))
        if r.degree() > 2 * d or r.coeffs in seen:
            continue
        # exact check: substitute r into the target polynomial
        if not _subst_x(target, r).is_zero():
            continue
        seen.add(r.coeffs)
        r_form = BinaryForm.from_unipoly(r, 2 * d)
        if n == 2:
            sections.append((r_form, BinaryForm.zero(F, 3 * d)))
        else:
            cubic = _cubic_in_x(F, A2t, A4t, A6t)
            ysq = _subst_x(cubic, r)
            y = _poly_sqrt(ysq, 3 * d)
            if y is None:
                continue
            y_form = BinaryForm.from_unipoly(y, 3 * d)
            sections.append((r_form, y_form))
            if not y.is_zero():
                sections.append((r_form, BinaryForm.from_unipoly(-y, 3 * d)))
    return sections


def _cubic_in_x(F, A2t, A4t, A6t):
    """x^3 + a2 x^2 + a4 x + a6 as a list of t-polynomials, low x-degree first."""
    one = UniPoly.const(F, F.one)
    return [A6t, A4t, A2t, one]


def _psi3_in_x(F, A2t, A4t, A6t):
    """3x^4 + 4 a2 x^3 + 6 a4 x^2 + 12 a6 x + (4 a2 a6 - a4^2)."""
    c = lambda k: UniPoly.const(F, F.from_int(k))
    return [
        A2t * A6t * c(4) - A4t * A4t,
        A6t * c(12),
        A4t * c(6),
        A2t * c(4),
        c(3),
    ]


def _subst_x(coeffs_in_x, r):
    F = r.field
    out = UniPoly.zero(F)
    for c in reversed(coeffs_in_x):
        out = out * r + c
    return out


def _lagrange_basis(F, nodes):
    """The L_i with L_i(nodes[j]) = [i == j]; sum y_i L_i interpolates y."""
    basis = []
    for xi in nodes:
        num = UniPoly.const(F, F.one)
        den = F.one
        for xj in nodes:
            if xj != xi:
                num = num * UniPoly(F, [F.neg(xj), F.one])
                den = F.mul(den, F.sub(xi, xj))
        basis.append(num.scale(F.inv(den)))
    return basis


def _poly_sqrt(f, half_degree):
    """Square root of f as a polynomial of degree <= half_degree, or None."""
    F = f.field
    if f.is_zero():
        return UniPoly.zero(F)
    if f.degree() % 2 or f.degree() > 2 * half_degree:
        return None
    lead_root = F.sqrt(f.leading())
    if lead_root is None:
        return None
    root = UniPoly.const(F, lead_root)
    for fac, mult in factor(f):
        if mult % 2:
            return None
        for _ in range(mult // 2):
            root = root * fac
    return root if root * root == f else None


def random_model(field, d, rng, minimal=False, smooth=False):
    """Seeded random model of height d; optionally resample until minimal
    and/or smooth.  rng is a SplitMix64."""
    if d < 0:
        raise DomainError("height d must be >= 0, got %r" % (d,))
    while True:
        a2 = BinaryForm(field, 2 * d, [field.random(rng) for _ in range(2 * d + 1)])
        a4 = BinaryForm(field, 4 * d, [field.random(rng) for _ in range(4 * d + 1)])
        a6 = BinaryForm(field, 6 * d, [field.random(rng) for _ in range(6 * d + 1)])
        try:
            m = WeierstrassModel(field, d, a2, a4, a6)
        except ValueError:  # singular generic fiber: draw again
            continue
        if minimal and not is_minimal(m):
            continue
        if smooth and not is_smooth_surface(m):
            continue
        return m


def f7_example_model():
    """The short-form transform over F_7 of y^2 z + t x y z + (t^3+3) y z^2 = x^3:
    completing the square with y -> y - (t x + t^3 + 3)/2 gives
    a2 = t^2/4, a4 = t(t^3+3)/2, a6 = (t^3+3)^2/4."""
    F = ffpoly.field_make(7)
    half = F.inv(F.from_int(2))
    quarter = F.mul(half, half)
    t = UniPoly.x(F)
    t3p3 = t * t * t + UniPoly.const(F, F.from_int(3))
    a2 = BinaryForm.from_unipoly((t * t).scale(quarter), 2)
    a4 = BinaryForm.from_unipoly((t * t3p3).scale(half), 4)
    a6 = BinaryForm.from_unipoly((t3p3 * t3p3).scale(quarter), 6)
    return WeierstrassModel(F, 1, a2, a4, a6)
