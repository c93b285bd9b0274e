"""Kodaira types, conductor exponents, component counts, and Tamagawa
numbers at places of bad reduction, for p >= 5 (tame reduction), plus
global consistency sums, the root number of a smooth model two ways, and
the naive chi-sum point count of a fiber, which lfunction's slow count shares.

Types and Tamagawa numbers come from a table on the valuations and
leading coefficients of c4, c6 and Delta at the place: one quadratic
character or one root count in kappa(v) per type, each of even total
order (Tate, "Algorithm for determining the type of a singular fiber in
an elliptic pencil", LNM 476, 1975; see local_data_at).  Component
counts come from Ogg's relation ord_disc = f_v + m_v - 1.
"""

from . import DomainError, weierstrass
from .ffpoly import UniPoly, jacobi, leading_at
from .weierstrass import bad_places


class PlaceData:
    """Local invariants at one place."""

    __slots__ = ("place", "kodaira", "ord_disc", "f_v", "m_v", "c_v", "split")

    def __init__(self, place, kodaira, ord_disc, f_v, c_v, split=None):
        self.place = place
        self.kodaira = kodaira
        self.ord_disc = ord_disc
        self.f_v = f_v
        self.m_v = ord_disc - f_v + 1  # Ogg
        self.c_v = c_v
        self.split = split

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


_FIXED = {2: ("II", 1), 3: ("III", 2), 9: ("III*", 2), 10: ("II*", 1)}


def local_data_at(m, v):
    """PlaceData at v for a model minimal at v, p >= 5 (Tate 1975).  With
    (delta, D), (ord c4, C4) and (ord c6, C6) the valuations and leading
    coefficients in kappa(v) of Delta, c4 and c6 (ffpoly.leading_at), I_n
    is split iff chi(-C6) = 1; an additive type is fixed by delta and
    ord c4, and c_v by one test:
      I_n*, ord c4 = 2, delta = 6 + n >= 7: c = 4 iff chi(D) = 1 for even
        n, chi(C6 D) = 1 for odd n; else c = 2;
      II, III, III*, II* (delta = 2, 3, 9, 10): c = 1, 2, 2, 1;
      IV, IV* (delta = 4, 8): c = 3 iff chi(-6 C6) = 1, else 1;
      I_0* (delta = 6): c = 1 + #kappa-roots of X^3 - 27 C4 X - 54 C6,
        reading C4 as 0 unless ord c4 = 2 and C6 as 0 unless ord c6 = 3.
    A coefficient of order k is the Taylor one (BinaryForm.jet) over mu^k,
    mu = P'(tau), and every test has even total order (0; 2, 4; 6 + n,
    9 + n; the cubic is homogeneous under X -> mu X), so both give one c.
    I_n* is tested first, as I_2*, I_3*, I_4* have delta = 8, 9, 10.
    Non-minimality at v (ord_v a2, a4, a6 >= 2, 4, 6) gives delta >= 12 and
    ord_v c4 >= 4, which no row matches: "minimalize first" fires."""
    if m.field.characteristic < 5:
        raise DomainError("local classification needs p >= 5")
    delta, D = leading_at(weierstrass.discriminant(m), v)
    if delta == 0:
        return PlaceData(v, "I_0", 0, 0, 1)
    vc4, C4 = leading_at(m.c4, v)
    vc6, C6 = leading_at(m.c6, v)
    K = m.field if v.is_infinity else v.residue_field()[0]

    if vc4 == 0:
        kodaira = "I_%d" % delta
        split = K.chi(K.neg(_forced_c6(kodaira, v, vc6, C6, 0))) == 1
        c = delta if split else 2 - delta % 2
        return PlaceData(v, kodaira, delta, 1, c, split)

    # additive: f_v = 2
    if vc4 == 2 and delta >= 7:
        kodaira = "I_%d*" % (delta - 6)
        C6 = _forced_c6(kodaira, v, vc6, C6, 3)
        c = 4 if K.chi(K.mul(C6, D) if delta % 2 else D) == 1 else 2
    elif delta in _FIXED:
        kodaira, c = _FIXED[delta]
    elif delta in (4, 8):
        kodaira = "IV" if delta == 4 else "IV*"
        C6 = _forced_c6(kodaira, v, vc6, C6, delta // 2)
        c = 3 if K.chi(K.mul(K.from_int(-6), C6)) == 1 else 1
    elif delta == 6:
        kodaira = "I_0*"
        cubic = UniPoly(K, [K.mul(K.from_int(-54), C6 if vc6 == 3 else 0),
                            K.mul(K.from_int(-27), C4 if vc4 == 2 else 0),
                            K.zero, K.one])
        c = 1 + cubic.count_roots()
    else:
        raise DomainError("minimalize first")
    return PlaceData(v, kodaira, delta, 2, c)


def _forced_c6(kodaira, v, vc6, C6, j):
    """C6, once ord_v c6 = j is checked: 1728 Delta = c4^3 - c6^2 forces it
    where I_n, IV, I_n* and IV* read C6, and another order gives a wrong c."""
    if vc6 != j:
        raise ValueError("%s at %r: c6 coefficient %d is not leading "
                         "(ord_v c6 = %s)" % (kodaira, v, j, vc6))
    return C6


def global_summary(m):
    """Aggregate local data over every bad place; raises unless the
    discriminant valuations sum to 12d."""
    data = [local_data_at(m, v) for v in bad_places(m)]
    summary = GlobalLocalSummary(m, data)
    if not summary.disc_degree_check:
        raise ValueError("bad-place valuations must sum to 12d")
    return summary


def root_number(m):
    """Global root number prod_v w_v of a smooth model, p >= 5 (Rohrlich,
    "Variation of the root number in families of elliptic curves", 1993).
    Its bad fibers are I_1, with w_v = -1 if split and +1 if not, and II,
    with w_v = (-1 | kappa(v)) = ((-1)^((q-1)/2))^deg v, read off
    global_summary(m); raises DomainError at any other fiber type."""
    q = m.field.q
    w = 1
    for pd in global_summary(m).places:
        if pd.kodaira == "I_1":
            w *= -1 if pd.split else 1
        elif pd.kodaira == "II":
            w *= (-1) ** ((q - 1) // 2 * pd.place.degree())
        else:
            raise DomainError("root number needs I_1 or II fibers, found %s"
                             % pd.kodaira)
    return w


def root_number_by_reciprocity(m):
    """root_number's cross-check in l_polynomial: one Jacobi symbol in F_q[t]
    and no factoring.  For Delta(1, t) = c Delta1 Delta2^2, Delta2 = gcd(
    Delta, D1 Delta) (the II places), Delta1 monic (the I_1 places) of degree
    n, w = (-1)^n chi(-1)^(n(n-1)/2 + deg Delta2) (-c6 Delta1' | Delta1) w_inf,
    w_inf = -chi(-c6(0, 1)) if ord_inf Delta = 1, chi(-1) if 2, else 1: the
    w_v of root_number (Rohrlich), as prod chi_v(-c6) over the I_1 places v
    is (-c6 | Delta1) and their number r has (-1)^r = (-1)^n chi(disc
    Delta1) = (-1)^n chi(-1)^(n(n-1)/2) (Delta1' | Delta1) (Stickelberger)."""
    F = m.field
    dt, c6 = weierstrass.discriminant(m).dehomog_t(), m.c6
    delta2 = dt.gcd(dt.hasse(1))
    delta1 = (dt // (delta2 * delta2)).monic()
    n, chi_minus_one = delta1.degree(), F.chi(F.neg(F.one))
    w_inf = {1: -F.chi(F.neg(c6.coeffs[-1])), 2: chi_minus_one}
    return (-1) ** n * chi_minus_one ** (n * (n - 1) // 2 + delta2.degree()) \
        * jacobi(-c6.dehomog_t() * delta1.hasse(1), delta1) \
        * w_inf.get(12 * m.d - dt.degree(), 1)


def cubic_point_count(K, a2, a4, a6):
    """#{y^2 = x^3 + a2 x^2 + a4 x + a6} over the finite field K, with its
    one point at infinity: 1 + chi(cubic(x)) points per x, chi by squares."""
    squares = {K.mul(x, x) for x in K.elements()}
    vals = (K.add(K.mul(K.add(K.mul(K.add(x, a2), x), a4), x), a6)
            for x in K.elements())
    return 1 + sum(1 if v == 0 else 2 * (v in squares) for v in vals)


def fiber_point_count(m, v):
    """#W(kappa(v)) for the (possibly singular) Weierstrass fiber at v.

    Independent of the classification tables.  Oracle values: good fiber
    within the Hasse bound; I_n split Q, nonsplit Q + 2; additive types
    exactly Q + 1.  The cross-check of the Kodaira type and split flag that
    local_data_at reads off the classification tables.
    """
    cubic = weierstrass.fiber_cubic(m, v)
    a6, a4, a2, _ = cubic.coeffs
    return cubic_point_count(cubic.field, a2, a4, a6)
