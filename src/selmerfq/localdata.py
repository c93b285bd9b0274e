"""Kodaira types, conductor exponents, component counts, and Tamagawa
numbers at places of bad reduction, for p >= 5 (tame reduction), plus
global consistency sums, the root number of a smooth model, and a
fiber-point-count oracle.

The type is read off the valuations (ord_v c4, ord_v Delta); Tamagawa
numbers that depend on rationality questions (split multiplicative,
IV/IV* square classes, the starred-I subloop) are decided by quadratic
character and root-count computations in the residue field kappa(v).
Component counts come from Ogg's relation ord_disc = f_v + m_v - 1.
"""

from . import DomainError, weierstrass
from .ffpoly import UniPoly, ord_at
from .weierstrass import bad_places, translate_x


class PlaceData:
    """Local invariants at one place."""

    __slots__ = ("place", "kodaira", "ord_disc", "f_v", "m_v", "c_v", "split")

    def __init__(self, place, kodaira, ord_disc, f_v, m_v, c_v, split=None):
        self.place = place
        self.kodaira = kodaira
        self.ord_disc = ord_disc
        self.f_v = f_v
        self.m_v = m_v
        self.c_v = c_v
        self.split = split
        if ord_disc != f_v + m_v - 1:
            raise ValueError("Ogg relation violated at %r: ord_disc %d != "
                             "f_v %d + m_v %d - 1" % (place, ord_disc, f_v, m_v))

    def to_json(self):
        if self.place.is_infinity:
            pl = "inf"
        else:
            pl = list(self.place.poly.coeffs)
        return {
            "place": pl,
            "degree": self.place.degree(),
            "kodaira": self.kodaira,
            "ord_disc": self.ord_disc,
            "f_v": self.f_v,
            "m_v": self.m_v,
            "c_v": self.c_v,
            "split": self.split,
        }

    def __repr__(self):
        return "PlaceData(%s at %r, c=%d)" % (self.kodaira, self.place, self.c_v)


class GlobalLocalSummary:
    __slots__ = ("model", "places", "conductor_degree", "tamagawa_product",
                 "disc_degree_check")

    def __init__(self, model, places):
        self.model = model
        self.places = places
        self.conductor_degree = sum(pd.f_v * pd.place.degree() for pd in places)
        prod = 1
        for pd in places:
            prod *= pd.c_v
        self.tamagawa_product = prod
        total = sum(pd.ord_disc * pd.place.degree() for pd in places)
        self.disc_degree_check = (total == 12 * model.d)


def _coeff(poly, i):
    return poly.coeffs[i] if i <= poly.degree() else poly.field.zero


def local_data_at(m, v):
    """PlaceData at v for a model minimal at v, p >= 5.  Additive types are
    read off the Hasse-derivative jets of a2, a4, a6 at v (BinaryForm.jet),
    x-translated to the triple root of the reduced cubic.  Non-minimality at
    v (ord_v a2, a4, a6 >= 2, 4, 6) gives ord_v Delta >= 12, ord_v c4 >= 4,
    which no type below matches: the final "minimalize first" fires."""
    if m.field.characteristic < 5:
        raise DomainError("local classification needs p >= 5")
    disc = weierstrass.discriminant(m)
    delta = ord_at(disc, v)
    if delta == 0:
        return PlaceData(v, "I_0", 0, 0, 1, 1)

    c4 = weierstrass.c4_form(m)
    vc4 = 10 ** 9 if c4.is_zero() else ord_at(c4, v)

    if vc4 == 0:
        # multiplicative: split iff -c6 is a square in kappa(v)
        K, (c6res,) = weierstrass.c6_form(m).jet(v, 1)
        split = K.chi(K.neg(c6res)) == 1
        if split:
            c = delta
        else:
            c = 2 if delta % 2 == 0 else 1
        return PlaceData(v, "I_%d" % delta, delta, 1, delta, c, split)

    # additive; expand in the local coordinate and translate x by the
    # triple root of the reduced cubic
    (K, A2), (_, A4), (_, A6) = (f.jet(v, delta + 4)
                                 for f in (m.a2, m.a4, m.a6))
    x0 = K.neg(K.mul(A2[0], K.inv(K.from_int(3))))
    A2, A4, A6 = translate_x(*(UniPoly(K, f) for f in (A2, A4, A6)),
                             UniPoly.const(K, x0))

    if vc4 == 2 and delta >= 7:
        n = delta - 6
        c = _istar_tamagawa(K, A2, A4, A6, n)
        return PlaceData(v, "I_%d*" % n, delta, 2, 5 + n, c)
    if delta == 2:
        return PlaceData(v, "II", 2, 2, 1, 1)
    if delta == 3:
        return PlaceData(v, "III", 3, 2, 2, 2)
    if delta == 4:
        c = 3 if K.chi(_coeff(A6, 2)) == 1 else 1
        return PlaceData(v, "IV", 4, 2, 3, c)
    if delta == 6:
        # I_0*: component group order 1 + #kappa-roots of the residual cubic
        P = UniPoly(K, [_coeff(A6, 3), _coeff(A4, 2), _coeff(A2, 1), K.one])
        c = 1 + P.count_roots()
        return PlaceData(v, "I_0*", 6, 2, 5, c)
    if delta == 8:
        # IV*: re-center at the triple root of the residual cubic first
        t0 = K.neg(K.mul(_coeff(A2, 1), K.inv(K.from_int(3))))
        A2, A4, A6 = translate_x(A2, A4, A6, UniPoly(K, [K.zero, t0]))
        c = 3 if K.chi(_coeff(A6, 4)) == 1 else 1
        return PlaceData(v, "IV*", 8, 2, 7, c)
    if delta == 9:
        return PlaceData(v, "III*", 9, 2, 8, 2)
    if delta == 10:
        return PlaceData(v, "II*", 10, 2, 9, 1)
    raise DomainError("minimalize first")


def _istar_tamagawa(K, A2, A4, A6, n):
    """Tamagawa number of I_n*, n >= 1, via the standard subloop.

    On entry the reduced cubic has a triple root at 0 modulo u and its
    depressed residual cubic P(T) has a double root; we re-center at that
    double root, then walk the even/odd quadratic tests.
    """
    P = UniPoly(K, [_coeff(A6, 3), _coeff(A4, 2), _coeff(A2, 1), K.one])
    g = P.gcd(P.hasse(1))
    if g.degree() != 1:
        raise ValueError("I_n* place without a residual double root: "
                         "deg gcd(P, P') = %d" % g.degree())
    t0 = K.neg(K.mul(g.coeffs[0], K.inv(g.coeffs[1])))
    A2, A4, A6 = translate_x(A2, A4, A6, UniPoly(K, [K.zero, t0]))
    a21 = _coeff(A2, 1)
    if a21 == K.zero:
        raise ValueError("I_n* place: a_{2,1} vanishes after re-centering")

    step = 1
    while step <= n:
        if step % 2 == 1:
            # test Y^2 = A6 coefficient at u^(step+3)
            test = _coeff(A6, step + 3)
        else:
            # test a21 X^2 + a4c X + a6c
            a4c = _coeff(A4, (step + 4) // 2)
            a6c = _coeff(A6, step + 3)
            test = K.sub(K.mul(a4c, a4c),
                         K.mul(K.from_int(4), K.mul(a21, a6c)))
        if test != K.zero:
            if step != n:
                raise ValueError("I_n* subloop ended at %d, n = %d"
                                 % (step, n))
            return 4 if K.chi(test) == 1 else 2
        if step % 2 == 0:
            # depress: kill the a4c term by an x-shift at level u^((step+2)/2)
            shift = K.neg(K.mul(a4c, K.inv(K.mul(K.from_int(2), a21))))
            j = (step + 2) // 2
            r = UniPoly(K, [K.zero] * j + [shift])
            A2, A4, A6 = translate_x(A2, A4, A6, r)
        step += 1
    raise ValueError("I_n* subloop overran n = %d" % n)


def global_summary(m):
    """Aggregate local data over every bad place; raises unless the
    discriminant valuations sum to 12d."""
    data = [local_data_at(m, v) for v in bad_places(m)]
    summary = GlobalLocalSummary(m, data)
    if not summary.disc_degree_check:
        raise ValueError("bad-place valuations must sum to 12d")
    return summary


def root_number(m, summary=None):
    """Global root number prod_v w_v of a smooth model, p >= 5 (Rohrlich,
    "Variation of the root number in families of elliptic curves", 1993).
    Its bad fibers are I_1, with w_v = -1 if split and +1 if not, and II,
    with w_v = (-1 | kappa(v)) = ((-1)^((q-1)/2))^deg v; w_v read off
    `summary` (default global_summary(m))."""
    q = m.field.q
    w = 1
    for pd in (summary or global_summary(m)).places:
        if pd.kodaira == "I_1":
            w *= -1 if pd.split else 1
        elif pd.kodaira == "II":
            w *= (-1) ** ((q - 1) // 2 * pd.place.degree())
        else:
            raise DomainError("root number needs I_1 or II fibers, found %s"
                             % pd.kodaira)
    return w


def fiber_point_count(m, v):
    """#W(kappa(v)) for the (possibly singular) Weierstrass fiber at v.

    Independent of the classification tables: one point at infinity plus,
    for each x in kappa(v), 1 + chi(cubic(x)) points.  Oracle values:
    good fiber within the Hasse bound; I_n split Q, nonsplit Q + 2; additive
    types exactly Q + 1.  The cross-check of the Kodaira type and split flag
    that local_data_at reads off the classification tables.
    """
    cubic = weierstrass.fiber_cubic(m, v)
    K = cubic.field
    count = 1
    for x in K.elements():
        count += 1 + K.chi(cubic.evaluate(x))
    return count
