"""Minimal Weierstrass models y^2 z = x^3 + a2 x^2 z + a4 x z^2 + a6 z^3
over the projective t-line, with homogeneous coefficient forms of degrees
2d, 4d, 6d.

Covers the discriminant, minimality, the (r, lambda) coordinate-change
action on equations and its stabilizers, torsion-section search at levels
2 and 3, and smoothness of the total space.  Roots in F_q[t], the x and
the y of a torsion section, come from one rational-root search,
_roots_in_t; roots over a residue field from ffpoly.factor.
"""

from . import DomainError, ffpoly
from .ffpoly import BinaryForm, Place, UniPoly, factor, leading_at


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
        an int in [0, q), and p, k and d must be JSON integers."""
        for name in "pkd":
            if type(obj.get(name, 1)) is not int:
                raise DomainError("%s = %r is not an int" % (name, obj[name]))
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
    """Delta = -16(a6(4 a2^3 + 27 a6 - 18 a2 a4) + a4^2(4 a4 - a2^2)), the
    grouping of census._disc_rows: 6 products in t."""
    F = a2.field
    c = F.from_int
    A2, A4, A6 = (f.dehomog_t() for f in (a2, a4, a6))
    a2sq = A2 * A2
    inner = A6 * ((a2sq * A2).scale(c(4)) + A6.scale(c(27))
                  - (A2 * A4).scale(c(18))) \
        + A4 * A4 * (A4.scale(c(4)) - a2sq)
    return BinaryForm.from_unipoly(inner.scale(F.neg(c(16))), 3 * a4.degree)


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
    if leading_at(disc, Place.infinity())[0] > 0:
        out.append(Place.infinity())
    return out


def c4_form(m):
    """c4 = 16(a2^2 - 3 a4), a degree-4d form."""
    F = m.field
    A2, A4 = m.a2.dehomog_t(), m.a4.dehomog_t()
    c4 = (A2 * A2 - A4.scale(F.from_int(3))).scale(F.from_int(16))
    return BinaryForm.from_unipoly(c4, 4 * m.d)


def c6_form(m):
    """c6 = -32(a2(2 a2^2 - 9 a4) + 27 a6), a degree-6d form: 2 products."""
    F = m.field
    c = F.from_int
    A2, A4, A6 = (f.dehomog_t() for f in (m.a2, m.a4, m.a6))
    inner = A2 * ((A2 * A2).scale(c(2)) - A4.scale(c(9))) + A6.scale(c(27))
    return BinaryForm.from_unipoly(inner.scale(F.neg(c(32))), 6 * m.d)


def minimality_of_forms(field, d, a2, a4, a6):
    """Minimality predicate on raw coefficient forms, nonzero discriminant
    not assumed: no place v with ord_v(a2) >= 2, ord_v(a4) >= 4,
    ord_v(a6) >= 6 (vanishing forms count as infinitely divisible).  As in
    census.classify, v^k | f iff v divides D^(0..k-1) f: no finite v
    qualifies iff gcd(D^(0..1) a2, D^(0..3) a4, D^(0..5) a6) is a nonzero
    constant, and infinity does not iff a top 2, 4, 6 coefficient is not 0.
    At d = 0 every tuple is minimal by convention, (0, 0, 0) included,
    although its vanishing forms would count as infinitely divisible: so
    `census --q 5 --d 0 --mode exhaustive` reports all 125 tuples minimal."""
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


def smooth_by_gcd(m):
    """Smoothness of the total space, p >= 5, by the smooth bit of
    census.classify; Tate's algorithm cross-checks it in every l_polynomial,
    where localdata.root_number raises at a fiber other than I_1 or II.
    With g1 = gcd(Delta, D1 Delta), every finite bad fiber is I_1 or II iff
    g1 shares no root with D2 Delta and g1 | c4; the fiber at infinity is
    iff ord_inf Delta <= 1, or = 2 with c4 vanishing there.  A model that is
    not minimal at v has ord_v Delta >= 12, so it is never smooth."""
    if m.field.characteristic < 5:
        raise DomainError("smoothness by the gcd test needs p >= 5")
    dt, c4 = discriminant(m).dehomog_t(), c4_form(m)
    g1 = dt.gcd(dt.hasse(1))
    ord_inf = 12 * m.d - dt.degree()
    return g1.gcd(dt.hasse(2)).degree() == 0 \
        and (c4.dehomog_t() % g1).is_zero() \
        and (ord_inf <= 1 or ord_inf == 2 and c4.coeffs[-1] == m.field.zero)


def minimality_bruteforce(field, d, a2, a4, a6):
    """Independent oracle for minimality_of_forms: enumerate every irreducible
    place of degree up to d dividing any of the forms (plus infinity) and
    test the divisibility pattern directly.  Slower but assumption-free."""
    if d == 0:
        return True
    places = set()
    for f in (a2, a4, a6):
        ft = f.dehomog_t()
        if not ft.is_constant():
            for fac, _ in factor(ft):
                if fac.degree() <= d:
                    places.add(Place(fac))
    places.add(Place.infinity())
    return not any(all(leading_at(f, v)[0] >= k
                       for f, k in ((a2, 2), (a4, 4), (a6, 6)))
                   for v in places)


class GroupElement:
    """(r, lambda) with r a degree-2d form and lambda a nonzero scalar;
    acts on Weierstrass equations by x -> x + r then the lambda-scaling."""

    __slots__ = ("r", "lam")

    def __init__(self, r, lam):
        if lam == r.field.zero:
            raise DomainError("lambda must be nonzero")
        self.r = r
        self.lam = lam


def act_on_forms(g, a2, a4, a6):
    """Coefficient transform of the equation under g = (r, lambda): x -> x + r
    gives a2 + 3r, a4 + r(2 a2 + 3r), a6 + r(a4 + r(a2 + r)), by Horner in 3
    products, which then scale by l^2, l^4, l^6.  Works on bare forms (no
    discriminant recomputation), which the census orbit enumeration needs."""
    F = a2.field
    c = F.from_int
    r, A2, A4, A6 = (f.dehomog_t() for f in (g.r, a2, a4, a6))
    l2 = F.mul(g.lam, g.lam)
    moved = ((A2 + r.scale(c(3))).scale(l2),
             (A4 + r * (A2.scale(c(2)) + r.scale(c(3)))).scale(F.mul(l2, l2)),
             (A6 + r * (A4 + r * (A2 + r))).scale(F.pow(l2, 3)))
    return tuple(BinaryForm.from_unipoly(f, form.degree)
                 for f, form in zip(moved, (a2, a4, a6)))


def act(g, m):
    """The group action on models; see act_on_forms for the formulas."""
    a2n, a4n, a6n = act_on_forms(g, m.a2, m.a4, m.a6)
    return WeierstrassModel(m.field, m.d, a2n, a4n, a6n)


def compose(g2, g1):
    """Composition law with act(g2, act(g1, m)) == act(compose(g2, g1), m),
    the cross-check that act is a group action."""
    F = g1.r.field
    lam1_inv2 = F.inv(F.mul(g1.lam, g1.lam))
    r = g1.r.dehomog_t() + g2.r.dehomog_t().scale(lam1_inv2)
    return GroupElement(BinaryForm.from_unipoly(r, g1.r.degree),
                        F.mul(g1.lam, g2.lam))


def stabilizer_order(m):
    """Order of the stabilizer of m in G(F_q) = G_a^{2d+1} x| G_m.

    For fixed lambda the a2-equation l^2 (a2 + 3r) = a2 forces
    r = (l^-2 - 1) a2 / 3, so it suffices to loop over lambda and compare
    the moved forms with the model's."""
    F = m.field
    three_inv = F.inv(F.from_int(3))
    forms = (m.a2, m.a4, m.a6)
    count = 0
    for lam in F.elements():
        if lam == F.zero:
            continue
        u = F.mul(F.add(F.inv(F.mul(lam, lam)), F.neg(F.one)), three_inv)
        r = BinaryForm.from_unipoly(m.a2.dehomog_t().scale(u), 2 * m.d)
        count += act_on_forms(GroupElement(r, lam), *forms) == forms
    return count


def is_smooth_surface(m):
    """True iff every bad fiber has Kodaira type I_1 or II: the Kodaira
    route to smoothness, the oracle of smooth_by_gcd in the tests and the
    benchmark self-test."""
    from . import localdata
    return all(pd.kodaira in ("I_1", "II")
               for pd in localdata.global_summary(m).places)


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
    """The multiple root x0 in kappa(v) of the reduced fiber cubic at a place
    v dividing Delta, infinity included: as forms Delta = 16 disc(x^3 + a2
    x^2 + a4 x + a6), so the cubic has one.  kappa(v) is perfect, so its
    repeated factor is linear, and factor finds it also where the cubic is
    a cube x^3 - x0^3 in characteristic 3."""
    cubic = fiber_cubic(m, v)
    return next(cubic.field.neg(g.coeffs[0]) for g, mult in factor(cubic)
                if mult > 1)


def torsion_section_search(m, n):
    """Polynomial torsion sections of level n in {2, 3}, for p >= 5.

    The x are the homogeneous degree-2d roots r of the fiber cubic
    (level 2) or of the 3-division polynomial (level 3); the y are the
    degree-3d roots of Y^2 - (r^3 + a2 r^2 + a4 r + a6): y = 0 at level 2,
    and a +- pair at level 3 where the cubic at r is a nonzero square.
    """
    if n not in (2, 3):
        raise DomainError("torsion search supports n in {2, 3}")
    F = m.field
    if F.characteristic < 5:
        raise DomainError("torsion search needs p >= 5")
    d = m.d
    A2t, A4t, A6t = (m.a2.dehomog_t(), m.a4.dehomog_t(), m.a6.dehomog_t())
    one = UniPoly.const(F, F.one)
    cubic = [A6t, A4t, A2t, one]
    division = cubic if n == 2 else _psi3_in_x(F, A2t, A4t, A6t)
    return [(BinaryForm.from_unipoly(r, 2 * d),
             BinaryForm.from_unipoly(y, 3 * d))
            for r in _roots_in_t(division, 2 * d)
            for y in _roots_in_t([-_subst_x(cubic, r), UniPoly.zero(F), one],
                                 3 * d)]


def _roots_in_t(coeffs_in_x, max_degree):
    """The roots r in F_q[t] with deg r <= max_degree of sum_k c_k(t) x^k,
    whose top coefficient is a nonzero constant.  With c_k the lowest
    nonzero coefficient, 0 is a root iff k > 0 and every other root divides
    c_k (rational root theorem), so the candidates are the unit multiples
    of the monic divisors of c_k of degree <= max_degree.  A root takes
    each tau in F_q to a root of the specialization at t = tau, so there is
    none unless every specialization has one, and a candidate goes to the
    exact check only if its values are such roots.  On Y^2 - f this finds
    the square roots of f, and the prefilter is the test chi(f(tau)) >= 0."""
    F = coeffs_in_x[0].field
    specs = []
    for tau in F.elements():
        spec = UniPoly(F, [c.evaluate(tau) for c in coeffs_in_x])
        if all(spec.evaluate(x) != F.zero for x in F.elements()):
            return []
        specs.append(spec)
    lowest = next(c for c in coeffs_in_x if not c.is_zero())
    divisors = [UniPoly.const(F, F.one)]
    for f, mult in factor(lowest):
        multiples = []
        for g in divisors:
            for _ in range(mult):
                g = g * f
                if g.degree() > max_degree:
                    break
                multiples.append(g)
        divisors += multiples
    candidates = [UniPoly.zero(F)] + [g.scale(u) for g in divisors
                                      for u in F.elements() if u != F.zero]
    return [r for r in candidates
            if all(spec.evaluate(r.evaluate(tau)) == F.zero
                   for tau, spec in zip(F.elements(), specs))
            and _subst_x(coeffs_in_x, r).is_zero()]


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


def random_model(field, d, rng, minimal=False, smooth=False):
    """Seeded random model of height d; optionally resample until minimal
    and/or smooth (smooth implies minimal, and is decided by smooth_by_gcd
    on the built model, so Delta is computed once).  rng is a SplitMix64."""
    if d < 0:
        raise DomainError("height d must be >= 0, got %r" % (d,))
    while True:
        a2 = BinaryForm(field, 2 * d, [field.random(rng) for _ in range(2 * d + 1)])
        a4 = BinaryForm(field, 4 * d, [field.random(rng) for _ in range(4 * d + 1)])
        a6 = BinaryForm(field, 6 * d, [field.random(rng) for _ in range(6 * d + 1)])
        if (minimal or smooth) and not minimality_of_forms(field, d, a2, a4, a6):
            continue
        try:
            m = WeierstrassModel(field, d, a2, a4, a6)
        except ValueError:  # singular generic fiber: draw again
            continue
        if not smooth or smooth_by_gcd(m):
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
