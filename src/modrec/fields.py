"""Specialization fields: the coefficient fields of the arithmetic recursion.

The mass programme of ``tamagawa`` is written once and runs over three
fields, each carrying the counting unit q and the zeta numerator P of the
curve: numeric (a curve over F_q, exact rationals), Betti (q = t^2, Poincare
series) and Hodge (q = u v, Hodge series).  The Betti and Hodge elements are
the ``factored`` types, loaded only when such a field is built.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError


class SpecializationField:
    """Coefficient field carrying the counting unit q and the numerator P.

    numeric: q is the base-field size, P the curve's zeta numerator.
    betti:   q = t^2 and P(x) = (1 + t x)^{2g}.
    hodge:   q = u v and P(x) = ((1 + u x)(1 + v x))^g.

    Numeric elements are plain ints and Fractions: q is a Fraction, so
    1 / q and q^(-i) stay exact.  Betti and Hodge elements are ``Factored``
    (``factored.BettiFactored`` and ``HodgeFactored``): an integer Laurent
    numerator over a product of factors (1 - q^c), which every value of the
    mass programme has, so their sums, products and equality tests need no
    gcd; they mix only with ints and elements of the same field.
    ``reduce`` turns one into the canonical ``RatFun``, an output form, and
    ``element`` maps a ``Poly`` back into the field.
    Every field answers the same calls: ``q_power``, ``geom``, ``P_power``,
    ``P_one``, ``zeta`` and ``reduce``, and its elements mix with the int
    literals 0 and 1, so the arithmetic recursion is written once for every
    field.  Each instance owns the memoization stores of the recursion built
    on top of it, so independently created fields recompute from scratch.
    """

    NUMERIC = "numeric"
    BETTI = "betti"
    HODGE = "hodge"

    def __init__(self, mode, genus, curve=None):
        if mode not in (self.NUMERIC, self.BETTI, self.HODGE):
            raise ValidationError("unknown specialization mode %r" % mode)
        if mode == self.NUMERIC:
            if curve is None:
                raise ValidationError("numeric mode needs a curve")
            genus = curve.genus
        if genus < 2:
            raise ValidationError("genus must be at least 2")
        self.mode = mode
        self.genus = genus
        self.curve = curve
        if mode == self.NUMERIC:
            self._kind = None
            self.q = Fraction(curve.q)
        else:
            from .factored import BettiFactored, HodgeFactored

            self._kind = BettiFactored if mode == self.BETTI else HodgeFactored
            self.q = self._kind.monomial(1)
        self._qpow = {1: self.q}
        self._geom = {}
        self._zeta = {}
        self._P_one = None
        self.mass_cache = {}
        self.total_cache = {}

    @staticmethod
    def numeric(curve):
        return SpecializationField(SpecializationField.NUMERIC, curve.genus, curve)

    @staticmethod
    def betti(genus):
        return SpecializationField(SpecializationField.BETTI, genus)

    @staticmethod
    def hodge(genus):
        return SpecializationField(SpecializationField.HODGE, genus)

    def q_power(self, e):
        if e not in self._qpow:
            self._qpow[e] = self.q ** e if self._kind is None else self._kind.monomial(e)
        return self._qpow[e]

    def geom(self, c):
        """1 / (1 - q^c) for c >= 1."""
        if c not in self._geom:
            self._geom[c] = (1 / (1 - self.q_power(c)) if self._kind is None
                             else self._kind.geom(c))
        return self._geom[c]

    def P_at(self, x):
        """The zeta numerator P evaluated at a number x (numeric mode)."""
        acc = 0
        for c in reversed(self.curve.coefficients()):
            acc = acc * x + c
        return acc

    def P_power(self, e):
        """P(q^e) in the field."""
        if self._kind is None:
            return self.P_at(self.q_power(e))
        return self._kind.P_power(self.genus, e)

    def P_one(self):
        if self._P_one is None:
            self._P_one = self.P_at(1) if self._kind is None else self.P_power(0)
        return self._P_one

    def zeta(self, i):
        """Z(q^{-i}) in the field: P(q^{-i}) / ((1 - q^{-i})(1 - q^{1-i})),
        written as P(q^{-i}) q^{2i-1} / ((1 - q^i)(1 - q^{i-1}))."""
        if i < 2:
            raise ValidationError("zeta values are used for i >= 2")
        if i not in self._zeta:
            self._zeta[i] = (self.P_power(-i) * self.q_power(2 * i - 1)
                             * self.geom(i) * self.geom(i - 1))
        return self._zeta[i]

    def element(self, poly):
        """A ``Poly`` in t (Betti) or u, v (Hodge) as an element of the field."""
        return self._kind.from_poly(poly)

    def reduce(self, value):
        """The canonical form of a field element: itself in numeric mode, the
        reduced ``RatFun`` in the others."""
        return value if self._kind is None else value.ratfun()
