"""Arithmetic of Weierstrass models over F_q(t): local invariants,
L-polynomials, lattice orbit counts, and parameter-space censuses."""

__version__ = "0.1.0"


class DomainError(ValueError):
    """An input outside the domain of the computation asked for.  Any other
    ValueError, such as a failed cross-check, is a fault of the program."""


from . import census, ffpoly, lattice, lfunction, localdata, rng, weierstrass  # noqa: E402,F401
