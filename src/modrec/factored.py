"""Betti and Hodge field elements over known cyclotomic denominators.

Every denominator of the arithmetic mass programme is a product of powers
of q and factors (1 - q^c): from the zeta values, from 1 / (q - 1) and from
the links 1 / (1 - q^(a+b)).  ``Factored`` holds such an element as

    N / prod_c (1 - q^c)^(k_c),

N an integer Laurent polynomial and (k_c) a multiplicity vector, so the
programme needs no gcd:

* a sum raises both operands to the larger multiplicities, each step
  multiplying a numerator by (1 - q^c), one shift and subtraction;
* a product convolves the numerators and adds the vectors.

All of this list arithmetic (products, exact divisions, the (1 - q^c)
steps and shifted adds) is the coefficient-list kernel of
``modrec.exactalg``.

N is graded over Z[q, 1/q]: N = sum_s x_s c_s(q), the c_s dense coefficient
lists sharing one lowest exponent.  Betti (q = t^2) has the grades x_0 = 1
and x_1 = t, with x_1 x_1 = q.  Hodge (q = u v) has x_s = u^s for s >= 0 and
v^-s for s < 0, a basis of Z[u, v] over Z[uv]; x_s x_r = q^m x_(s+r), with
m = min(|s|, |r|) when s and r have opposite signs and 0 otherwise.  A
product lays each numerator out as one list in which the exponents of its
terms add, so one kernel product multiplies them.

Two elements are equal when their difference, raised to the common
multiplicities, has a zero numerator, so comparing needs no gcd either.
``ratfun`` is the one reduction (``tamagawa.ss_mass`` memoizes it): it
divides N exactly by the cyclotomic factors that the vector names, Phi_m(t)
with m | 2c for Betti and Phi_m(uv) on every graded piece for Hodge, and
returns the canonical ``RatFun``, unused variables stripped.  ``from_poly``
goes the other way for a ``Poly`` in t (Betti) or u, v (Hodge), term by
term, so a polynomial is compared with an element in this arithmetic.  An
element mixes only with ints and with elements of its own field; anything
else is a ``TypeError``.
"""

from functools import lru_cache
from itertools import zip_longest
from math import comb

from .errors import ValidationError
from .exactalg import (Poly, RatFun, _strip_vars, add_into, conv, divexact, over_one_minus,
                       times_one_minus)


class Factored:
    """N / prod_c (1 - q^c)^(k_c); see the module docstring.

    ``low`` is the q-exponent of index 0 of every piece, ``parts`` maps a
    grade to its coefficient list, and ``mult`` is the tuple (k_1, k_2, ...).
    Instances are never mutated.
    """

    __slots__ = ("low", "parts", "mult")

    def __init__(self, low, parts, mult=()):
        self.low = low
        self.parts = parts
        self.mult = mult

    # -- the elements the fields build ----------------------------------

    @classmethod
    def monomial(cls, e, c=1):
        """c q^e."""
        return cls(e, {0: [c]})

    @classmethod
    def geom(cls, c):
        """1 / (1 - q^c), c >= 1."""
        return cls(0, {0: [1]}, (0,) * (c - 1) + (1,))

    @classmethod
    def from_poly(cls, poly):
        """The element of a ``Poly`` in the field's variables, each term
        mapped by ``_grade`` to its grade and q-exponent."""
        if not set(poly.vars) <= set(cls.VARS):
            raise ValidationError("%s is not a polynomial in %s" % (poly, ", ".join(cls.VARS)))
        return cls._from_terms({cls._grade(dict(zip(poly.vars, e))): c
                                for e, c in poly.terms.items()})

    @classmethod
    def _from_terms(cls, terms):
        """The polynomial sum c x_s q^i over {(s, i): c}."""
        low = min(i for _, i in terms)
        parts = {}
        for (s, i), c in terms.items():
            piece = parts.setdefault(s, [])
            piece.extend([0] * (i - low + 1 - len(piece)))
            piece[i - low] += c
        return cls(low, parts)

    # -- arithmetic -------------------------------------------------------

    def __neg__(self):
        return type(self)(self.low, {s: [-x for x in a] for s, a in self.parts.items()},
                          self.mult)

    def _raised(self, mult):
        """The pieces over the larger multiplicities ``mult``."""
        parts = self.parts
        for c, (have, want) in enumerate(zip_longest(self.mult, mult, fillvalue=0), 1):
            if want > have:
                parts = {s: times_one_minus(a, c, want - have) for s, a in parts.items()}
        return parts

    def __add__(self, other):
        if type(other) is int:
            if not other:
                return self
            other = type(self).monomial(0, other)
        elif type(other) is not type(self):
            return NotImplemented
        mult = tuple(map(max, zip_longest(self.mult, other.mult, fillvalue=0)))
        low = min(self.low, other.low)
        out = {}
        for x in (self, other):
            shift = x.low - low
            for s, a in x._raised(mult).items():
                if s in out:
                    add_into(out[s], a, shift)
                else:
                    out[s] = [0] * shift + a
        return type(self)(low, out, mult)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int or type(other) is type(self):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is int:
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if type(other) is int:
            other = type(self).monomial(0, other)
        elif type(other) is not type(self):
            return NotImplemented
        mult = tuple(map(sum, zip_longest(self.mult, other.mult, fillvalue=0)))
        low = self.low + other.low
        for x, y in ((self, other), (other, self)):
            if len(y.parts) == 1 and len(y.parts.get(0, ())) == 1:  # c q^e
                c = y.parts[0][0]
                parts = x.parts if c == 1 else {s: [c * v for v in a] for s, a in x.parts.items()}
                return type(self)(low, parts, mult)
        if not self.parts or not other.parts:
            return type(self)(low, {}, mult)
        # one convolution: x_s q^k sits at (s - base) + stride (offset(s) + k - low),
        # which is additive in the exponents of the product's terms
        base_a, base_b, stride = self._layout(other)
        digits = conv(self._digits(base_a, stride), other._digits(base_b, stride))
        base, parts = base_a + base_b, {}
        for s in range(base, base + stride):
            piece = _trimmed(digits[s - base + stride * self._offset(s)::stride])
            if piece:
                parts[s] = piece
        return type(self)(low, parts, mult)

    __rmul__ = __mul__

    def _digits(self, base, stride):
        """The numerator in the one-list layout of ``__mul__``."""
        offset = self._offset
        spots = {s: s - base + stride * offset(s) for s in self.parts}
        out = [0] * max(spots[s] + stride * len(a) for s, a in self.parts.items())
        for s, a in self.parts.items():
            out[spots[s]:spots[s] + stride * len(a):stride] = a
        return out

    def __eq__(self, other):
        if type(other) is int or type(other) is type(self):
            return not any(any(a) for a in (self - other).parts.values())
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.ratfun())


class BettiFactored(Factored):
    """Betti field element, q = t^2: grades x_0 = 1 and x_1 = t."""

    __slots__ = ()
    VARS = ("t",)

    @staticmethod
    def _grade(exps):
        # t^j = x_(j mod 2) q^(j // 2)
        j = exps.get("t", 0)
        return j % 2, j // 2

    @staticmethod
    def _offset(s):
        return 0

    def _layout(self, other):
        # stride 2 reads t^(2k + s): a product landing in grade 2 is grade 0
        # one power of q up, which is x_1 x_1 = q
        return 0, 0, 2

    @classmethod
    def P_power(cls, genus, e):
        """P(q^e) = (1 + t q^e)^(2g): C(2g, j) t^j q^(ej), t^j = x_(j mod 2) q^(j // 2)."""
        return cls._from_terms({(j % 2, e * j + j // 2): comb(2 * genus, j)
                                for j in range(2 * genus + 1)})

    def ratfun(self):
        """The canonical reduced ``RatFun``."""
        even, odd = self.parts.get(0, []), self.parts.get(1, [])
        ts = [0] * (2 * max(len(even), len(odd)))
        ts[0:2 * len(even):2] = even
        ts[1:2 * len(odd) + 1:2] = odd
        powers = {2 * c: k for c, k in enumerate(self.mult, 1) if k}
        (ts,), low, sign, phi = _cancel([ts], 2 * self.low, powers)
        if not ts:
            return RatFun.zero()
        den = _phi_product(phi)
        num = {(low + i,): sign * x for i, x in enumerate(ts) if x}
        den = {(i,): x for i, x in enumerate(den) if x}
        if low < 0:  # t^-low joins the denominator
            num = {(i - low,): x for (i,), x in num.items()}
            den = {(i - low,): x for (i,), x in den.items()}
        return RatFun(Poly(*_strip_vars(("t",), num)), Poly(*_strip_vars(("t",), den)))


class HodgeFactored(Factored):
    """Hodge field element, q = u v: grades x_s = u^s (s >= 0), v^-s (s < 0)."""

    __slots__ = ()
    VARS = ("u", "v")

    @staticmethod
    def _grade(exps):
        # u^a v^b = x_(a-b) q^min(a, b)
        a, b = exps.get("u", 0), exps.get("v", 0)
        return a - b, min(a, b)

    @staticmethod
    def _offset(s):
        # x_s q^k = u^a v^b with a - b = s and b = k + max(-s, 0)
        return max(-s, 0)

    def _layout(self, other):
        # the position (a - b - base) + stride (b - low) of u^a v^b; the
        # stride exceeds the product's range of grades, so none wraps
        a, b = self.parts, other.parts
        return min(a), min(b), max(a) - min(a) + max(b) - min(b) + 1

    @classmethod
    def P_power(cls, genus, e):
        """P(q^e) = ((1 + u q^e)(1 + v q^e))^g: C(g, a) C(g, b) u^a v^b q^(e(a+b)),
        u^a v^b = x_(a-b) q^min(a, b)."""
        return cls._from_terms({(a - b, e * (a + b) + min(a, b)): comb(genus, a) * comb(genus, b)
                                for a in range(genus + 1) for b in range(genus + 1)})

    def ratfun(self):
        """The canonical reduced ``RatFun``."""
        grades = list(self.parts)
        powers = {c: k for c, k in enumerate(self.mult, 1) if k}
        pieces, low, sign, phi = _cancel([self.parts[s] for s in grades], self.low, powers)
        terms = {}
        for s, piece in zip(grades, pieces):
            for i, x in enumerate(piece):
                if x:
                    k = low + i
                    terms[(s + k, k) if s >= 0 else (k, k - s)] = sign * x
        if not terms:
            return RatFun.zero()
        # u^su v^sv joins the denominator when the numerator has negative exponents
        su = max(0, -min(a for a, _ in terms))
        sv = max(0, -min(b for _, b in terms))
        num = {(a + su, b + sv): x for (a, b), x in terms.items()}
        den = {(su + k, sv + k): x for k, x in enumerate(_phi_product(phi)) if x}
        return RatFun(Poly(*_strip_vars(("u", "v"), num)), Poly(*_strip_vars(("u", "v"), den)))


# ---------------------------------------------------------------------------
# exact division by the known denominator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)  # m <= 2 n for the largest admitted rank n
def cyclotomic(m):
    """Phi_m as an ascending int list: y^m - 1 divided by Phi_d for d | m, d < m."""
    a = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            a = divexact(a, cyclotomic(d))
    return a


def _fold(a, m):
    """a mod (y^m - 1), as a list of length m."""
    return [sum(a[r::m]) for r in range(m)]


def _cancel(pieces, low, powers):
    """Divide the pieces of N exactly by the factors of prod (1 - y^c)^(k_c).

    ``powers`` maps c to k_c.  First whole factors 1 - y^c go while every
    piece is divisible (a fold test and a running sum), then single
    Phi_m(y), m | c.  Returns (pieces, low, sign, phi): the trimmed pieces
    (one empty list each when N = 0), their lowest y-exponent, the sign
    (-1)^(sum k_c) over the factors left, from 1 - y^c = -(y^c - 1), and
    the exponents {m: e_m} of the Phi_m(y) left in the denominator.
    """
    pieces = [_trimmed(a) for a in pieces]
    if not any(pieces):
        return [[] for _ in pieces], 0, 1, {}
    start = min(next(i for i, x in enumerate(a) if x) for a in pieces if a)
    pieces = [a[start:] for a in pieces]
    low += start
    powers = dict(powers)
    for c in sorted(powers, reverse=True):
        while powers[c] and all(not any(_fold(a, c)) for a in pieces):
            # a piece is empty or longer than c, so its quotient is exact
            pieces = [over_one_minus(a, c, max(len(a) - c, 0)) for a in pieces]
            powers[c] -= 1
    sign = -1 if sum(powers.values()) % 2 else 1
    phi = {}
    for c, k in powers.items():
        for m in range(1, c + 1):
            if c % m == 0 and k:
                phi[m] = phi.get(m, 0) + k
    for m in sorted(phi, reverse=True):
        cyc = cyclotomic(m)
        while phi[m] and all(divexact(_fold(a, m), cyc) is not None for a in pieces):
            pieces = [divexact(a, cyc) for a in pieces]
            phi[m] -= 1
    return pieces, low, sign, {m: e for m, e in phi.items() if e}


def _trimmed(a):
    end = len(a)
    while end and not a[end - 1]:
        end -= 1
    return a[:end]


def _phi_product(phi):
    """prod_m Phi_m^(e_m) as an ascending int list."""
    out = [1]
    for m, e in phi.items():
        for _ in range(e):
            out = conv(out, cyclotomic(m))
    return out
