"""Slow reference paths that the production code replaced, kept for tests.

* ``ArithPoly`` is ``exactalg.Poly`` with the ring arithmetic it had before
  it became an output form: + - * and powers, the ``zero``, ``one``,
  ``const`` and ``var`` constructors and the variable alignment they run
  on.  ``ReducingRatFun`` and the tests build their polynomials with it; a
  production ``Poly`` mixes with it on either side.  Production code
  compares a polynomial with a Betti or Hodge value by mapping it into the
  field (``SpecializationField.element``) and comparing there.
* ``ReducingRatFun`` is ``exactalg.RatFun`` with the gcd-reducing
  constructor and the + - * /, powers and substitution it had before the
  Betti and Hodge values became ``factored`` elements; ``coefficient``,
  ``substitute``, ``evaluate``, ``signed_content`` and ``scaled`` are the
  ``Poly`` operations that only it and the tests use.  Production code
  compares without a gcd: ``Factored`` values by their difference over
  common multiplicities, a reduced mass against a polynomial by
  cross-multiplying, and ``RatFun`` is only the output form.  The oracles
  below that work with rational functions build them from
  ``ReducingRatFun``.
* ``compositions`` lists all 2^(n-1) ordered compositions of n.  Production
  code never lists them: ``hn`` splits off one first part at a time, and
  ``tamagawa`` sums over them as programmes over prefix sums.
* ``zagier_sum_by_prefix_tree`` walks Zagier's closed-form mass term by term
  down a tree of compositions, with the exponent as a ``Fraction`` that must
  come out an integer.  ``tamagawa._zagier_sum`` telescopes the exponent into
  integer links and must give the same rational function.
* ``tail_bound_by_compositions`` adds the Siegel tail bound one composition at
  a time; ``tamagawa._tail_bound`` groups compositions by part count and pair
  sum and must give the same ``Fraction``.
* ``enumerate_types_by_gaps`` walks rational slope gaps, solves for the
  degrees in ``Fraction`` and drops every gap vector whose degrees are not
  integers.  It returns (codim(parts), parts) pairs.  ``hn.enumerate_types``
  splits off integer first parts instead, adds up each codimension across
  the splits, and must return the same list.
* ``cone_sum`` sums the stratum masses of one composition over every degree
  vector, in closed form per residue cell of the slope-gap lattice.  With
  ``cone_for`` it drives the Harder-Narasimhan recursion that the closed-form
  ``tamagawa.ss_mass`` must match.
* ``ConstantRatFunField`` is the numeric field as it was before its elements
  became plain ints and Fractions: q, its powers and P(x) are constant
  ``RatFun``s (``OrderedConstant``, which compares by value as the old code
  compared ``const_value()``).  Masses and Siegel reports computed in it must
  equal the Fraction ones.
* ``RatFunField`` is the Betti or Hodge field as it was before its elements
  became ``Factored``: q, its powers, P(x) and the zeta values are reduced
  ``RatFun``s, so every sum and product runs a gcd.  ``ratfun_zagier_sum``
  is the mass programme with its total masses written over that field, as
  ``tamagawa`` had them; the ``Factored`` masses must reduce to the same
  rational functions.
* ``poly_gcd`` and ``poly_divexact`` are the univariate gcd (a primitive
  remainder sequence over Z) and exact division that ``exactalg`` held
  while the zeta root check took its square-free part with them.
  ``curve._squarefree_part`` runs Euclid's algorithm over Q instead and must
  agree up to sign and content.  ``ReducingRatFun`` runs on these two.
* ``graded_poly_gcd`` and ``graded_poly_divexact`` extend them to Q[u, v]
  pairs with one argument of the form u^i v^j f(uv), by a gcd over the
  graded pieces and a sparse division.  ``poly_gcd`` refuses multivariate
  pairs since the Hodge masses are reduced by known cyclotomic factors; the
  ``graded_gcd`` fixture installs these two in their place, so that
  ``RatFun`` arithmetic in u, v, which the Hodge oracles above run on,
  works in the tests that ask for it.
* ``is_irreducible_by_frobenius`` is Rabin's test: it raises x to p^m, and
  to p^(m/l) for each prime l | m, for every candidate.
  ``curve._is_irreducible`` is Ben-Or's test, one x -> x^p step and one gcd
  per degree up to m/2, and must decide every candidate the same way.
  ``generator_by_full_scan`` tries every element from 1 as a generator;
  ``curve._generator`` skips the constants of F_p when m > 1, whose orders
  divide p - 1, and must find the same g.
* ``exp_log_by_digit_walk`` builds a finite field's exp/log tables by
  decoding each element to digits and multiplying by the generator with a
  generic polynomial product and reduction.  ``curve._exp_log`` steps by
  tables of half-digit products, filled by linearity from the images of
  x^i, for every p and m, and must build the same tables.
* ``count_prime_field`` counts points over a prime field F_p, p odd, by
  plain Horner steps mod p over every x at once.  ``curve.count_points``
  counts over every field, prime ones too, through ``curve._count_by_tables``
  and must give the same count.
* ``stratum_mass`` is the mass of one stratum, q^mass_exponent times the
  semistable masses of its parts.  ``tamagawa.siegel_check`` gives each
  tuple of part keys one weight and sums each level over q^level, and its
  partial sums must be the sums of these masses.
* ``count_by_tables_per_element`` counts points over a field by evaluating
  f and h at every element.  ``curve._count_by_tables`` evaluates one
  element per Frobenius orbit, weighted by the orbit's size, and must give
  the same count.
* ``power_tail_by_head`` sums i^p x^i over i >= start as the full sum minus
  its head, term by term.  ``tamagawa._power_tail`` expands (start + j)^p
  binomially instead and must give the same ``Fraction``.
* ``torsion_vectors`` lists the torus cells (d_1, ..., d_n) of a matrix
  divisor space, and ``div_poincare_by_cells`` sums the cell polynomials one
  cell at a time.  ``matrixdiv.div_poincare`` convolves symmetric-power lists
  instead and must agree.
* ``series_expand`` expands a univariate ``RatFun`` as a power series by
  long division by its reduced denominator.  The production code divides by
  the denominators it knows instead: ``zeta_Z`` and ``sym_count_by_zeta``
  read a divisor count off the expanded zeta function, where
  ``symprod.sym_count`` sums a_k (q^(n-k+1) - 1) / (q - 1).
* ``perfection_by_ratfun`` and ``bb_total_by_polys`` are ``kirwan``'s
  identities on ``Poly`` and a gcd-reduced ``RatFun`` over 1 - t^2, and
  ``fixed_determinant_by_ratfun`` divides out (1 + t)^(2g) by reducing a
  ``RatFun``; the production code divides on coefficient lists.
  ``strata_by_rescan`` counts each stratum's codimension and multiplicity by
  a scan of all weights per distinct value; ``kirwan.strata`` reads them
  off one sorted count.
* ``sym_poincare_by_loop`` fills a dict over (min(2g, n) + 1)(n + 1) steps;
  ``symprod.sym_poincare`` reads each coefficient off running sums of the
  binomials C(2g, i) instead.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import comb
from math import gcd as _int_gcd

from modrec.curve import _pgcd, _pmod, _pmul, _ppowmod, _prime_divisors
from modrec.errors import InvariantViolation
from modrec.exactalg import (VARIABLES, Poly, RatFun, Series, _all_int, _as_coeff, _check_var,
                             _cnorm, _normed, _strip_vars, conv, divexact)
from modrec.errors import ValidationError
from modrec.fields import SpecializationField
from modrec.hn import codim, mass_exponent
from modrec.kirwan import Stratum, strata
from modrec.symprod import sym_poincare
from modrec.tamagawa import ss_mass, total_mass
from modrec.yangmills import moduli_poincare


# ---------------------------------------------------------------------------
# Poly arithmetic
# ---------------------------------------------------------------------------

_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}


class ArithPoly(Poly):
    """``exactalg.Poly`` with the ring arithmetic it had before it became an
    output form: + - * and powers, and the constructors ``zero``, ``one``,
    ``const`` and ``var``.  Every operand goes through ``of``, so a
    production polynomial mixes with these on either side."""

    __slots__ = ()

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return ArithPoly((), {})

    @staticmethod
    def one():
        return ArithPoly.const(1)

    @staticmethod
    def const(c):
        c = _as_coeff(c)
        if not c:
            return ArithPoly.zero()
        return ArithPoly((), {(): c})

    @staticmethod
    def var(name):
        _check_var(name)
        return ArithPoly((name,), {(1,): 1})

    @staticmethod
    def of(value):
        """value as an ``ArithPoly``: a ``Poly`` keeps its terms, a rational
        is a constant, anything else is ``NotImplemented``."""
        if isinstance(value, ArithPoly):
            return value
        if isinstance(value, Poly):
            return ArithPoly(value.vars, value.terms)
        if isinstance(value, (int, Fraction)):
            return ArithPoly.const(value)
        return NotImplemented

    @property
    def is_const(self):
        return not self.vars

    def __eq__(self, other):
        other = ArithPoly.of(other)
        if other is NotImplemented:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = Poly.__hash__

    def __bool__(self):
        return not self.is_zero

    # -- arithmetic ----------------------------------------------------

    def __neg__(self):
        return ArithPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        other = ArithPoly.of(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        vars, ta, tb = _align(self, other)
        out = dict(ta)
        for e, c in tb.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _cnorm(s)
            else:
                out.pop(e, None)
        vars, out = _strip_vars(vars, out)
        return ArithPoly(vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = ArithPoly.of(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = ArithPoly.of(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = ArithPoly.of(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ArithPoly.zero()
        if self.is_const:
            c = self.terms[()]
            return ArithPoly(other.vars, {e: _cnorm(c * v) for e, v in other.terms.items()})
        if other.is_const:
            c = other.terms[()]
            return ArithPoly(self.vars, {e: _cnorm(c * v) for e, v in self.terms.items()})
        if self.vars == other.vars and len(self.vars) == 1:
            name = self.vars[0]
            return ArithPoly.univariate(
                name, _normed(conv(self.scalar_coeffs(name), other.scalar_coeffs(name))))
        vars, ta, tb = _align(self, other)
        out = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        out = {e: _cnorm(c) for e, c in out.items()}
        vars, out = _strip_vars(vars, out)
        return ArithPoly(vars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValidationError("Poly exponent must be a non-negative integer")
        result = ArithPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result


def _align(a, b):
    """Common variable tuple plus both term dicts re-indexed onto it."""
    if a.vars == b.vars:
        return a.vars, a.terms, b.terms
    union = tuple(sorted(set(a.vars) | set(b.vars), key=_VAR_INDEX.__getitem__))

    def remap(p):
        idx = [union.index(v) for v in p.vars]
        out = {}
        n = len(union)
        for e, c in p.terms.items():
            new = [0] * n
            for pos, k in zip(idx, e):
                new[pos] = k
            out[tuple(new)] = c
        return out

    return union, remap(a), remap(b)


# ---------------------------------------------------------------------------
# the univariate gcd and exact division
# ---------------------------------------------------------------------------


def _int_coeffs(coeffs):
    """Clear denominators of a coefficient list; returns a primitive int list."""
    if _all_int(coeffs):
        return _int_primitive(coeffs)
    den = 1
    for c in coeffs:
        if isinstance(c, Fraction):
            den = den * c.denominator // _int_gcd(den, c.denominator)
    return _int_primitive([int(c * den) for c in coeffs])


def _int_prem(a, b):
    """Pseudo-remainder of integer coefficient lists (ascending)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for j in range(db + 1):
            a[shift + j] -= la * b[j]
        while a and a[-1] == 0:
            a.pop()
    return a


def _int_primitive(a):
    g = _int_gcd(*a)
    if g > 1:
        a = [c // g for c in a]
    return a


def _gcd_univar(A, B):
    """gcd of ascending coefficient lists: primitive ints, positive leading."""
    A = _int_coeffs(A)
    B = _int_coeffs(B)
    if len(A) < len(B):
        A, B = B, A
    while any(B):
        R = _int_primitive(_int_prem(A, B))
        A, B = B, R
    if A and A[-1] < 0:
        A = [-c for c in A]
    return A


def poly_gcd(a, b):
    """Greatest common divisor, primitive with positive leading coefficient.

    Univariate pairs take the primitive remainder sequence; a multivariate
    pair raises ``ValidationError``.
    """
    if a.is_zero and b.is_zero:
        return ArithPoly.zero()
    if a.is_zero:
        return scaled(b, 1 / signed_content(b))
    if b.is_zero:
        return scaled(a, 1 / signed_content(a))
    if a.is_const or b.is_const:
        return ArithPoly.one()
    union = set(a.vars) | set(b.vars)
    if len(union) > 1:
        raise ValidationError("multivariate gcd is not supported: %s and %s" % (a, b))
    name = a.vars[0]
    return ArithPoly.univariate(name, _gcd_univar(a.scalar_coeffs(name), b.scalar_coeffs(name)))


def poly_divexact(a, b):
    """Exact polynomial division in one variable; raises if the division
    leaves a remainder, and on a multivariate pair."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return ArithPoly.zero()
    if b.is_const:
        return scaled(a, Fraction(1) / Fraction(b.terms[()]))
    union = set(a.vars) | set(b.vars)
    if len(union) > 1:
        raise ValidationError("multivariate exact division is not supported: %s by %s" % (a, b))
    name = b.vars[0]
    quot = divexact(a.scalar_coeffs(name), b.scalar_coeffs(name))
    if quot is None:
        raise ValidationError("non-exact polynomial division")
    return ArithPoly.univariate(name, quot)




# the graded gcd and division below fall back on these, also while a test
# has patched this module's poly_gcd and poly_divexact
univariate_gcd, univariate_divexact = poly_gcd, poly_divexact


# ---------------------------------------------------------------------------
# the reducing RatFun, and the Poly operations only it and the tests use
# ---------------------------------------------------------------------------


def coefficient(p, name, k):
    """Coefficient of ``name**k`` in p as a Poly in the remaining variables."""
    _check_var(name)
    if name not in p.vars:
        return p if k == 0 else ArithPoly.zero()
    i = p.vars.index(name)
    rest = p.vars[:i] + p.vars[i + 1:]
    terms = {}
    for e, c in p.terms.items():
        if e[i] == k:
            terms[e[:i] + e[i + 1:]] = c
    if not terms:
        return ArithPoly.zero()
    rest, terms = _strip_vars(rest, terms)
    return ArithPoly(rest, terms)


def substitute(p, bindings):
    """Substitute polynomials (or scalars) for variables of p; returns a ArithPoly."""
    bound = {}
    for name, value in bindings.items():
        _check_var(name)
        value = ArithPoly.of(value)
        if value is NotImplemented:
            raise ValidationError("binding for %s is not a polynomial" % name)
        bound[name] = value
    if not any(v in bound for v in p.vars):
        return p
    result = ArithPoly.zero()
    powers = {name: {0: ArithPoly.one()} for name in p.vars}

    def _power(name, k):
        cache = powers[name]
        if k not in cache:
            base = bound.get(name, ArithPoly.var(name))
            best = max(i for i in cache if i <= k)
            acc = cache[best]
            for i in range(best, k):
                acc = acc * base
                cache[i + 1] = acc
        return cache[k]

    for e, c in p.terms.items():
        term = ArithPoly.const(c)
        for name, k in zip(p.vars, e):
            if k:
                term = term * _power(name, k)
        result = result + term
    return result


def evaluate(p, bindings):
    """p with every variable bound to a rational; returns a Fraction."""
    return substitute(p, {k: ArithPoly.const(v) for k, v in bindings.items()}).const_value()


def signed_content(p):
    """Rational r with the sign of the leading coefficient such that p / r
    has coprime integer coefficients and positive leading one.  Always a
    ``Fraction``, so that 1 / r stays exact."""
    if p.is_zero:
        raise ValidationError("zero polynomial has no content")
    values = p.terms.values()
    if _all_int(values):
        r = Fraction(_int_gcd(*values))
    else:
        num_gcd = 0
        den_lcm = 1
        for c in values:
            f = Fraction(c)
            num_gcd = _int_gcd(num_gcd, f.numerator)
            den_lcm = den_lcm * f.denominator // _int_gcd(den_lcm, f.denominator)
        r = Fraction(num_gcd, den_lcm)
    return -r if p.terms[max(p.terms)] < 0 else r


def scaled(p, factor):
    """p times the rational factor."""
    factor = Fraction(factor)
    if factor == 0:
        return ArithPoly.zero()
    return ArithPoly(p.vars, {e: _cnorm(c * factor) for e, c in p.terms.items()})


class ReducingRatFun(RatFun):
    """``exactalg.RatFun`` with a reducing constructor and arithmetic.

    Sums over coprime denominators and inverses skip the gcds whose answer
    is known: (n_a d_b + n_b d_a) / (d_a d_b) is reduced as it stands, since
    an irreducible factor of d_a divides neither d_b nor n_a, and d_a d_b is
    normalised, being primitive by Gauss's lemma with leading term the
    product of the two positive leading terms; such a sum vanishes only when
    both denominators are 1, so a zero sum is 0/1.  An inverse den / num of a
    reduced pair only needs its new denominator normalised.  The gcd and
    exact division are looked up as this module's ``poly_gcd`` and
    ``poly_divexact`` at each call, so a test that patches them here (the
    ``graded_gcd`` fixture, the gcd counters) reaches this arithmetic.
    """

    __slots__ = ()

    def __init__(self, num, den=1, *, _reduced=False):
        num, den = ArithPoly.of(num), ArithPoly.of(den)
        if num is NotImplemented or den is NotImplemented:
            raise ValidationError("RatFun expects polynomials or rationals")
        super().__init__(num, den)
        if not _reduced:
            self.num, self.den = _reduce(self.num, self.den)

    @staticmethod
    def zero():
        return ReducingRatFun(ArithPoly.zero(), ArithPoly.one(), _reduced=True)

    @staticmethod
    def one():
        return ReducingRatFun(ArithPoly.one(), ArithPoly.one(), _reduced=True)

    @staticmethod
    def var(name):
        return ReducingRatFun(ArithPoly.var(name), ArithPoly.one(), _reduced=True)

    @staticmethod
    def of(value):
        """value as a ``ReducingRatFun``: a ``RatFun`` is taken as canonical."""
        if isinstance(value, ReducingRatFun):
            return value
        if isinstance(value, RatFun):
            return ReducingRatFun(value.num, value.den, _reduced=True)
        p = ArithPoly.of(value)
        if p is NotImplemented:
            return NotImplemented
        return ReducingRatFun(p, ArithPoly.one(), _reduced=True)

    def as_poly(self):
        if not self.is_poly:
            raise ValidationError("rational function is not a polynomial: %s" % self)
        return self.num

    def const_value(self):
        return self.num.const_value() / self.den.const_value()

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        other = ReducingRatFun.of(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = RatFun.__hash__

    def __neg__(self):
        return ReducingRatFun(-self.num, self.den, _reduced=True)

    def __add__(self, other):
        other = ReducingRatFun.of(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = poly_gcd(self.den, other.den)
        if g.is_const:
            # already reduced and normalised (see the class docstring)
            num = self.num * other.den + other.num * self.den
            return ReducingRatFun(num, self.den * other.den, _reduced=True)
        # Fraction-style addition: keep gcd inputs small
        da = poly_divexact(self.den, g)
        db = poly_divexact(other.den, g)
        num = self.num * db + other.num * da
        h = poly_gcd(num, g)
        if not h.is_const:
            num = poly_divexact(num, h)
            g = poly_divexact(g, h)
        num, den = _unit_normalize(num, da * db * g)
        return ReducingRatFun(num, den, _reduced=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = ReducingRatFun.of(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = ReducingRatFun.of(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = ReducingRatFun.of(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ReducingRatFun.zero()
        # cross-cancel first so the final product needs no gcd
        na, db = _cancel(self.num, other.den)
        nb, da = _cancel(other.num, self.den)
        num, den = _unit_normalize(na * nb, da * db)
        return ReducingRatFun(num, den, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ReducingRatFun.of(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = ReducingRatFun.of(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValidationError("RatFun exponent must be an integer")
        if n == 0:
            return ReducingRatFun.one()
        base = self
        if n < 0:
            if base.is_zero:
                raise ZeroDivisionError("negative power of zero")
            base = base._inverse()
            n = -n
        num, den = _unit_normalize(base.num ** n, base.den ** n)
        return ReducingRatFun(num, den, _reduced=True)

    def _inverse(self):
        # den / num is coprime already: only the new denominator needs normalising
        num, den = _unit_normalize(self.den, self.num)
        return ReducingRatFun(num, den, _reduced=True)

    def substitute(self, bindings):
        """Substitute polynomials (or scalars) for variables and reduce."""
        poly_bindings = {}
        for name, value in bindings.items():
            _check_var(name)
            value = ReducingRatFun.of(value)
            if value is NotImplemented or not value.is_poly:
                raise ValidationError("binding for %s is not a polynomial" % name)
            poly_bindings[name] = value.num
        num = substitute(self.num, poly_bindings)
        den = substitute(self.den, poly_bindings)
        if den.is_zero:
            raise ZeroDivisionError("denominator vanishes identically after substitution")
        return ReducingRatFun(num, den)


def _reduce(num, den):
    if num.is_zero:
        return ArithPoly.zero(), ArithPoly.one()
    g = poly_gcd(num, den)
    if not g.is_const:
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    return _unit_normalize(num, den)


def _unit_normalize(num, den):
    r = signed_content(den)
    if r != 1:
        den = scaled(den, 1 / r)
        num = scaled(num, 1 / r)
    return num, den


def _cancel(a, b):
    """Divide out gcd(a, b); returns the reduced pair."""
    g = poly_gcd(a, b)
    if g.is_const:
        return a, b
    return poly_divexact(a, g), poly_divexact(b, g)


def compositions(n):
    """All ordered tuples of positive integers summing to n."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return out


def zagier_sum_by_prefix_tree(n, d, field):
    """Zagier's closed-form semistable mass, one composition at a time.

    Compositions are walked as a prefix tree, so partial products are shared;
    each appended part b after part a multiplies by total(b) / (1 - q^(a+b)),
    and the exponent accumulates (a + b) <s d / n> + (g - 1) s b in
    ``Fraction``, with <x> = ceil(x) - x.  Single summands need not be
    integers, but each finished exponent must be.
    """
    g = field.genus
    one = ReducingRatFun.one()
    alpha = [None] + [total_mass(m, field) for m in range(1, n + 1)]
    link = {(a, b): alpha[b] / (one - field.q_power(a + b))
            for a in range(1, n) for b in range(1, n - a + 1)}
    terms = []

    def extend(prefix, last, term, exponent):
        if prefix == n:
            if exponent.denominator != 1:
                raise InvariantViolation(
                    "non-integer exponent %s in the closed-form mass" % exponent)
            terms.append(term * field.q_power(int(exponent)))
            return
        x = Fraction(prefix * d, n)
        up = -(-x.numerator // x.denominator) - x
        for right in range(1, n - prefix + 1):
            extend(prefix + right, right, term * link[last, right],
                   exponent + (last + right) * up + (g - 1) * prefix * right)

    for first in range(1, n + 1):
        extend(first, first, alpha[first], Fraction(0))
    return sum(terms, ReducingRatFun.zero())


def tail_bound_by_compositions(n, field, max_codim):
    """The Siegel tail bound, summed over each composition with r >= 2 parts
    of q^{2G} * prod_i max_res ss_mass(n_i, res) * sum_{c >= start}
    (c - G + 1)^(r-2) q^(-c), with G = (g-1) sum_{i<j} n_i n_j."""
    g = field.genus
    q = field.q
    x = 1 / q
    bound = Fraction(0)
    for comp in compositions(n):
        r = len(comp)
        if r < 2:
            continue
        G = (g - 1) * sum(comp[i] * comp[j]
                          for i in range(r) for j in range(i + 1, r))
        best = Fraction(1)
        for nj in comp:
            best = best * max(ss_mass(nj, res, field) for res in range(nj))
        start = max(max_codim + 1, G + 1)
        tail = Fraction(0)
        p = r - 2
        for s in range(p + 1):
            tail += comb(p, s) * (1 - G) ** (p - s) * power_tail_by_head(x, s, start)
        bound += q ** (2 * G) * best * tail
    return bound


def power_tail_by_head(x, p, start):
    """sum_{i >= start} i^p x^i as an exact Fraction, for 0 < x < 1: the full
    sum N_p(x) / (1 - x)^(p+1), by the derivative recurrence S_p = x dS_{p-1}/dx,
    minus the head sum_{i < start} i^p x^i."""
    num = [Fraction(1)]
    for k in range(1, p + 1):
        deriv = [i * c for i, c in enumerate(num)][1:]
        mixed = [Fraction(0)] * (len(num) + 1)
        for i, c in enumerate(deriv):
            mixed[i] += c
            mixed[i + 1] -= c
        for i, c in enumerate(num):
            mixed[i] += k * c
        num = [Fraction(0)] + mixed  # multiply by x
        while num and num[-1] == 0:
            num.pop()
    full = sum(c * x ** i for i, c in enumerate(num)) / (1 - x) ** (p + 1)
    head = sum(Fraction(i) ** p * x ** i for i in range(start))
    return full - head


def gap_weights(comp):
    """Per adjacent pair, the rate at which one unit of slope gap raises the
    codimension, and the gap period preserving degree integrality and
    residues.  Both come from the linearity of the codimension form."""
    N = sum(comp)
    prefix = 0
    weights, periods = [], []
    for k in range(len(comp) - 1):
        prefix += comp[k]
        weights.append(Fraction(prefix * (N - prefix), comp[k] * comp[k + 1]))
        periods.append(comp[k] * comp[k + 1] * N)
    return weights, periods


def degrees_from_gaps(comp, d, gaps):
    """Integer degree vector with the given adjacent slope gaps, or None.

    gap_k = n_{k+1} d_k - n_k d_{k+1}; together with the total degree this
    determines the slopes, hence the degrees, uniquely over the rationals.
    """
    N = sum(comp)
    shift = Fraction(0)
    for k, gap in enumerate(gaps):
        shift += Fraction(gap * (N - sum(comp[: k + 1])), comp[k] * comp[k + 1])
    mu = Fraction(d + shift, N)
    degrees = []
    for k, n in enumerate(comp):
        dk = n * mu
        if dk.denominator != 1:
            return None
        degrees.append(int(dk))
        if k < len(comp) - 1:
            mu = mu - Fraction(gaps[k], n * comp[k + 1])
    if sum(degrees) != d:
        return None
    return degrees


def enumerate_types_by_gaps(n, d, g, max_codim):
    """(codim(parts), parts) for all types of total rank n and degree d with
    codim <= max_codim.

    For each composition the codimension is an affine form with positive
    weights in the slope gaps, so a gap-box search with pruning is finite and
    complete.  Output sorted by (codim, parts).  No work budget.
    """
    found = [((n, d),)]
    for comp in compositions(n):
        r = len(comp)
        if r < 2:
            continue
        base = (g - 1) * sum(comp[i] * comp[j]
                             for i in range(r) for j in range(i + 1, r))
        weights, _ = gap_weights(comp)
        budget = Fraction(max_codim - base)

        def search(k, gaps, used):
            if k == r - 1:
                degrees = degrees_from_gaps(comp, d, gaps)
                if degrees is not None:
                    found.append(tuple(zip(comp, degrees)))
                return
            remaining_min = sum(weights[k + 1:])
            gap = 1
            while used + weights[k] * gap + remaining_min <= budget:
                search(k + 1, gaps + (gap,), used + weights[k] * gap)
                gap += 1

        search(0, (), Fraction(0))
    return sorted((codim(parts, g), parts) for parts in found)


@dataclass(frozen=True)
class ConeSum:
    """Degree-cone summation data for one composition.

    ``factors[j][r]`` is the semistable mass of a rank ``composition[j]``
    part whose degree is congruent to r.  The exponent of q on a degree
    vector is the affine form with the stated coefficients; its restriction
    to every unbounded ray of the slope-decreasing cone has negative slope,
    which is what makes the closed-form summation legitimate.
    """

    composition: tuple
    genus: int
    factors: tuple

    def exponent_form(self):
        """(coefficients on d_1..d_r, constant) of the mass exponent."""
        comp = self.composition
        N = sum(comp)
        prefix = [0]
        for n in comp:
            prefix.append(prefix[-1] + n)
        coeffs = tuple(prefix[j] + prefix[j + 1] - N for j in range(len(comp)))
        const = (self.genus - 1) * sum(
            comp[i] * comp[j] for i in range(len(comp)) for j in range(i + 1, len(comp)))
        return coeffs, const


def cone_sum(cs, d, field):
    """Closed-form sum of stratum masses over all degree vectors of the cone.

    The slope-gap coordinates gamma_k >= 1 carve the cone into finitely many
    residue cells; on each cell the exponent decreases by the integer
    W_k = m_k (N - m_k) N per period step, so each cell contributes its base
    term times prod_k 1/(1 - q^{-W_k}).
    """
    comp = cs.composition
    r = len(comp)
    if r == 1:
        return cs.factors[0][d % comp[0]]
    weights, periods = gap_weights(comp)
    if any(w <= 0 for w in weights):
        raise InvariantViolation("cone weight must be positive")
    _, const = cs.exponent_form()
    geom = []
    for w, P in zip(weights, periods):
        W = w * P
        if W.denominator != 1 or W <= 0:
            raise InvariantViolation("period step must be a positive integer")
        ratio = field.q_power(-int(W))
        if ratio == 1:
            raise InvariantViolation("geometric ratio 1 in a cone sum")
        geom.append(1 / (1 - ReducingRatFun.of(ratio)))
    total = ReducingRatFun.zero()
    for gamma in itertools.product(*(range(1, P + 1) for P in periods)):
        degrees = degrees_from_gaps(comp, d, gamma)
        if degrees is None:
            continue
        exponent = Fraction(const) - sum(w * c for w, c in zip(weights, gamma))
        if exponent.denominator != 1:
            raise InvariantViolation("non-integer exponent on an integral cell")
        term = field.q_power(int(exponent))
        for j, dj in enumerate(degrees):
            term = term * cs.factors[j][dj % comp[j]]
        for gfac in geom:
            term = term * gfac
        total = total + term
    return total


def cone_for(comp, field, mass):
    """Cone-sum data for one composition, with part masses from ``mass``."""
    factors = tuple(
        tuple(mass(nj, res, field) for res in range(nj)) for nj in comp)
    return ConeSum(comp, field.genus, factors)


@total_ordering
class OrderedConstant(ReducingRatFun):
    """A constant rational function that compares by its value; arithmetic is
    RatFun's on a plain copy (so reflected operators do not dispatch back
    here), with every result wrapped again."""

    __slots__ = ()

    @staticmethod
    def of(value):
        if value is NotImplemented:
            return value
        value = ReducingRatFun.of(value)
        return OrderedConstant(value.num, value.den, _reduced=True)

    def __lt__(self, other):
        return self.const_value() < ReducingRatFun.of(other).const_value()


def _wrapped(op):
    return lambda self, *args: OrderedConstant.of(
        op(ReducingRatFun(self.num, self.den, _reduced=True), *args))


for _name in ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__"):
    setattr(OrderedConstant, _name, _wrapped(getattr(ReducingRatFun, _name)))


class ConstantRatFunField(SpecializationField):
    """The numeric field with constant-RatFun elements: q, its powers and
    P(x) by the loop over the numerator's coefficients."""

    def __init__(self, curve):
        super().__init__(SpecializationField.NUMERIC, curve.genus, curve)
        self.q = OrderedConstant.of(curve.q)
        self._qpow = {1: self.q}

    def P_at(self, x):
        acc = OrderedConstant.of(0)
        xp = OrderedConstant.of(1)
        for c in self.curve.coefficients():
            if c:
                acc = acc + c * xp
            xp = xp * x
        return acc


class RatFunField:
    """The Betti or Hodge field with reduced ``RatFun`` elements: q, its
    powers, P(x) and the zeta values, memoized per instance."""

    def __init__(self, mode, genus):
        self.mode, self.genus = mode, genus
        self.q = ReducingRatFun(ArithPoly.var("t") ** 2 if mode == SpecializationField.BETTI
                                else ArithPoly.var("u") * ArithPoly.var("v"))
        self._qpow, self._zeta, self._P_one = {}, {}, None
        self.total_cache = {}

    def q_power(self, e):
        if e not in self._qpow:
            self._qpow[e] = self.q ** e
        return self._qpow[e]

    def geom(self, c):
        """1 / (1 - q^c), so that ``tamagawa.total_mass`` runs on this field too."""
        return 1 / (1 - self.q_power(c))

    def P_at(self, x):
        if self.mode == SpecializationField.BETTI:
            return (1 + ReducingRatFun.var("t") * x) ** (2 * self.genus)
        u, v = ReducingRatFun.var("u"), ReducingRatFun.var("v")
        return ((1 + u * x) * (1 + v * x)) ** self.genus

    def P_one(self):
        if self._P_one is None:
            self._P_one = self.P_at(1)
        return self._P_one

    def zeta(self, i):
        if i not in self._zeta:
            qi = self.q_power(-i)
            self._zeta[i] = self.P_at(qi) / ((1 - qi) * (1 - self.q_power(1 - i)))
        return self._zeta[i]


def ratfun_total_mass(n, field):
    """P(1) / (q - 1) * q^((n^2-1)(g-1)) * zeta(2) ... zeta(n), memoized per field."""
    if n not in field.total_cache:
        value = field.P_one() / (field.q - 1)
        value = value * field.q_power((n * n - 1) * (field.genus - 1))
        for i in range(2, n + 1):
            value = value * field.zeta(i)
        field.total_cache[n] = value
    return field.total_cache[n]


def ratfun_zagier_sum(n, d, field):
    """The programme over (prefix s, last part a) on ``RatFun`` elements."""
    g = field.genus
    alpha = [None] + [ratfun_total_mass(m, field) for m in range(1, n + 1)]
    up = [-(-s * d // n) for s in range(n)]
    geom = [None] + [1 / (1 - field.q_power(c)) for c in range(1, n + 1)]

    def part(s, b):
        t = s + b
        e = b * up[s] + (g - 1) * s * b + (b * up[t] if t < n else -d * s)
        return alpha[b] * field.q_power(e)

    states = [{}] + [{a: part(0, a)} for a in range(1, n + 1)]
    for s in range(1, n):
        for b in range(1, n - s + 1):
            inner = sum(value * geom[a + b] for a, value in states[s].items())
            states[s + b][b] = inner * part(s, b)
    return sum(states[n].values())


def graded_poly_gcd(a, b):
    """``poly_gcd``, and in Q[u, v] when one argument is u^i v^j f(uv)."""
    if a.is_zero or b.is_zero or a.is_const or b.is_const or len(set(a.vars) | set(b.vars)) < 2:
        return univariate_gcd(a, b)
    return gcd_graded(a, b)


def graded_poly_divexact(a, b):
    """``poly_divexact``, and by leading terms in the last variable
    when the pair is multivariate."""
    union = sorted(set(a.vars) | set(b.vars))
    if a.is_zero or b.is_const or len(union) < 2:
        return univariate_divexact(a, b)
    return divexact_sparse(a, b, union[-1])


def graded_parts(p):
    """Write p = u^i v^j * sum_s c_s(uv) x_s with the monomial u^i v^j maximal.

    Here x_s = u^s for s >= 0 and v^-s for s < 0, a basis of Q[u, v] over
    Q[uv].  Returns ((i, j), {s: ascending coefficient list of c_s}).
    """
    exps = []
    for e, c in p.terms.items():
        x = dict(zip(p.vars, e))
        exps.append((x.get("u", 0), x.get("v", 0), c))
    mu = min(i for i, _, _ in exps)
    mv = min(j for _, j, _ in exps)
    parts = {}
    for i, j, c in exps:
        i, j = i - mu, j - mv
        coeffs = parts.setdefault(i - j, {})
        coeffs[min(i, j)] = c
    return (mu, mv), {s: [cs.get(k, 0) for k in range(max(cs) + 1)]
                      for s, cs in parts.items()}


def gcd_graded(a, b):
    """gcd in Q[u, v] when one argument is u^i v^j f(uv).

    Q[u, v] is free over Q[w], w = uv, so A = u^i v^j sum_s c_s(w) x_s.  With
    f(0) != 0 every divisor of f(uv) is h(uv) for a divisor h of f, and h(uv)
    divides A exactly when h divides every c_s; the monomial parts meet in
    their componentwise minimum.
    """
    if not set(a.vars) | set(b.vars) <= {"u", "v"}:
        raise ValidationError("multivariate gcd is supported only in u, v: %s and %s" % (a, b))
    (ma, parts_a), (mb, parts_b) = graded_parts(a), graded_parts(b)
    if len(parts_b) > 1:
        if len(parts_a) > 1:
            raise ValidationError("multivariate gcd needs one argument of the form "
                                  "u^i*v^j*f(u*v): %s and %s" % (a, b))
        parts_a, parts_b = parts_b, parts_a
    h = parts_b[0]
    for c in parts_a.values():
        if len(h) == 1:
            break
        h = _gcd_univar(h, c)
    mu, mv = min(ma[0], mb[0]), min(ma[1], mb[1])
    if len(h) == 1:
        h = [1]
    terms = {(mu + k, mv + k): c for k, c in enumerate(h) if c}
    vars, terms = _strip_vars(("u", "v"), terms)
    return ArithPoly(vars, terms)


def divexact_sparse(a, b, main):
    """Division by leading terms in ``main``, recursing on their coefficients."""
    db = b.degree(main)
    lb = coefficient(b, main, db)
    v = ArithPoly.var(main)
    quot = ArithPoly.zero()
    r = a
    while not r.is_zero and r.degree(main) >= db:
        dr = r.degree(main)
        lr = coefficient(r, main, dr)
        if lb.is_const:
            qc = scaled(lr, Fraction(1) / Fraction(lb.terms[()]))
        else:
            qc = graded_poly_divexact(lr, lb)
        step = qc * v ** (dr - db)
        quot = quot + step
        r = r - step * b
        if not r.is_zero and r.degree(main) == dr:
            raise ValidationError("non-exact polynomial division")
    if not r.is_zero:
        raise ValidationError("non-exact polynomial division")
    return quot


def is_irreducible_by_frobenius(poly, p):
    """Rabin's criterion for a monic polynomial f of degree m over F_p:
    x^(p^m) = x mod f, and gcd(x^(p^(m/l)) - x, f) = 1 for each prime l | m."""
    m = len(poly) - 1
    x = [0, 1]
    if _ppowmod(x, p ** m, poly, p) != _pmod(x, poly, p):
        return False
    for ell in _prime_divisors(m):
        g = _pgcd([(a - b) % p for a, b in itertools.zip_longest(
            _ppowmod(x, p ** (m // ell), poly, p), x, fillvalue=0)], poly, p)
        if len(g) - 1 > 0:
            return False
    return True


def generator_by_full_scan(p, m, modulus):
    """The first element g of F_{p^m}, in encoding order, of order q - 1,
    trying every g from 1, the constants of F_p included."""
    q, powers = p ** m, [p ** i for i in range(m)]
    n = q - 1
    cofactors = [n // ell for ell in _prime_divisors(n)]
    return next(g for g in range(1, q) if all(
        _ppowmod([g // pw % p for pw in powers], e, modulus, p) != [1] for e in cofactors))


def exp_log_by_digit_walk(p, m, modulus):
    """exp/log tables of F_{p^m}: g is ``generator_by_full_scan``, and each
    step decodes a to its digits and multiplies by g with a generic product
    and reduction mod the modulus."""
    q, powers = p ** m, [p ** i for i in range(m)]
    n, g = q - 1, generator_by_full_scan(p, m, modulus)
    gd = [g // pw % p for pw in powers]
    exp, log = [0] * n, [0] * q
    a = 1
    for k in range(n):
        exp[k] = a
        log[a] = k
        prod = _pmod(_pmul([a // pw % p for pw in powers], gd, p), modulus, p)
        a = sum(map(operator.mul, prod, powers))
    if a != 1:
        raise InvariantViolation("%d is not primitive in F_{%d^%d}" % (g, p, m))
    return exp, log


def count_by_tables_per_element(K, f, h):
    """``curve._count_by_tables`` with one term per element: the affine count
    over K through its exp/log tables, x = 0 and then x = g^k for every k,
    and the table sols.  The production count evaluates one k per Frobenius
    orbit of k -> pk mod q - 1 and weights it by the orbit's size."""
    p, n, exp, log = K.p, K.q - 1, K.exp, K.log
    sols = bytearray(K.q)
    sols[0] = 1
    squares = (exp * 2)[::2]  # (g^k)^2
    for w in (map(operator.xor, squares, exp) if p == 2 else squares):
        sols[w] += 1

    def value(coeffs, k):  # Horner at x = g^k; an F_p scalar changes digit 0 only
        acc = 0
        for c in reversed(coeffs):
            if acc:
                acc = exp[(log[acc] + k) % n]
            acc += (acc + c) % p - acc % p
        return acc

    def over(a, b):  # #{z : z^2 + a z = b}, the square completed when p is odd
        if a:
            return sols[b and exp[(log[b] - 2 * log[a]) % n]]
        return sols[b] if p > 2 else 1

    count = over(h[0] if h else 0, f[0])  # x = 0
    return count + sum(over(value(h, k), value(f, k)) for k in range(n)), sols


def count_prime_field(f, p):
    """Affine count of z^2 = f(x) over F_p, p odd, and the table
    sols[w] = #{z : z^2 = w}: plain Horner steps mod p over every x at once,
    with no exp/log tables."""
    sols = bytearray(p)
    for w in [x * x % p for x in range(p)]:
        sols[w] += 1
    values = [f[-1]] * p
    for c in reversed(f[:-1]):
        values = [(v * x + c) % p for v, x in zip(values, range(p))]
    return sum(map(sols.__getitem__, values)), sols


def stratum_mass(parts, field):
    """Mass of the stratum labelled by the type parts ((n_1, d_1), ..., (n_r,
    d_r)): q^mass_exponent times the semistable masses of the parts."""
    value = field.q_power(mass_exponent(parts, field.genus))
    for nj, dj in parts:
        value = value * ss_mass(nj, dj, field)
    return value


def torsion_vectors(n, e):
    """All vectors of n non-negative integers with sum e, lexicographic."""
    if n == 1:
        yield (e,)
        return
    for first in range(e + 1):
        for rest in torsion_vectors(n - 1, e - first):
            yield (first,) + rest


def div_poincare_by_cells(n, e, g):
    """Betti polynomial of the matrix divisor space, one torus cell at a time."""
    total = ArithPoly.zero()
    for vec in torsion_vectors(n, e):
        term = ArithPoly.var("t") ** (2 * sum(i * di for i, di in enumerate(vec)))
        for di in vec:
            term = term * sym_poincare(g, di)
        total = total + term
    return total


def series_expand(f, var, order):
    """Expand a rational function in ``var`` alone as a power series around 0."""
    f = ReducingRatFun.of(f)
    _check_var(var)
    if order < 0:
        raise ValidationError("series order must be non-negative")
    if any(v != var for v in f.num.vars + f.den.vars):
        raise ValidationError("series coefficients must be scalars: %s involves "
                              "variables other than %s" % (f, var))
    num = f.num.scalar_coeffs(var)[: order + 1]
    den = f.den.scalar_coeffs(var)
    d0 = den[0]
    if not d0:
        raise ValidationError("pole at 0 in the expansion variable %s" % var)
    inv = None if d0 == 1 else Fraction(1) / d0
    steps = [(k, c) for k, c in enumerate(den[: order + 1]) if k and c]
    out = []
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0
        for k, c in steps:
            if k > n:
                break
            acc -= c * out[n - k]
        out.append(_cnorm(acc if inv is None else acc * inv))
    return Series(out)


def zeta_Z(curve):
    """Z(t) = P(t) / ((1 - t)(1 - q t)) as an exact rational function."""
    t = ArithPoly.var("t")
    return ReducingRatFun(ArithPoly.univariate("t", curve.coefficients()),
                          (ArithPoly.one() - t) * (ArithPoly.one() - curve.q * t))


def sym_count_by_zeta(curve, n):
    """Degree-n effective divisors, read off the expanded zeta function."""
    return series_expand(zeta_Z(curve), "t", n).coeffs[n]


def sym_poincare_by_loop(g, n):
    """Betti polynomial of the n-th symmetric power: C(2g, i) t^(i + 2b) for
    every i <= min(2g, n) and 0 <= b <= n - i, added into a dict."""
    terms = {}
    for i in range(0, min(2 * g, n) + 1):
        c = comb(2 * g, i)
        for b in range(0, n - i + 1):
            k = i + 2 * b
            terms[k] = terms.get(k, 0) + c
    return ArithPoly.univariate("t", [terms.get(k, 0) for k in range(2 * n + 1)])


def _proj_poincare(dim):
    return ArithPoly.univariate("t", [1, 0] * dim + [1])


def strata_by_rescan(ws):
    """``kirwan.strata`` with one scan of the weights per distinct value."""
    w = ws.weights
    out = [Stratum(beta=0, fixed_dim=None, codim=0)] if ws.has_semistable() else []
    for value in sorted(set(w), key=lambda v: (abs(v), -v)):
        if value == 0:
            continue
        if value > 0:
            codim = sum(1 for x in w if x < value)
        else:
            codim = sum(1 for x in w if x > value)
        out.append(Stratum(beta=value, fixed_dim=ws.multiplicity(value) - 1, codim=codim))
    return out


def bb_total_by_polys(ws):
    """P_t(P^N) as the sum of the shifted fixed-point pieces, in ``Poly``."""
    t = ArithPoly.var("t")
    acc = ArithPoly.zero()
    for value in sorted(set(ws.weights)):
        below = sum(1 for x in ws.weights if x < value)
        acc = acc + t ** (2 * below) * _proj_poincare(ws.multiplicity(value) - 1)
    if acc != _proj_poincare(ws.dim):
        raise InvariantViolation("fixed-point decomposition does not add up")
    return acc


def perfection_by_ratfun(ws):
    """(series, polynomial part, periodic tail) of the perfection identity:
    the semistable series as a reduced ``RatFun`` over 1 - t^2, split as
    Q + R / (1 - t^2) with deg R < 2 by multiplying the reduced form back."""
    t = ArithPoly.var("t")
    one = ArithPoly.one()
    num = _proj_poincare(ws.dim)
    for s in strata(ws):
        if s.beta != 0:
            num = num - t ** (2 * s.codim) * _proj_poincare(s.fixed_dim)
    ss = ReducingRatFun(num, one - t ** 2)
    if ss.is_poly:
        return ss, ss.num, ArithPoly.zero()
    scaled = ss * ReducingRatFun(one - t ** 2)
    if not scaled.is_poly:
        raise InvariantViolation("denominator does not divide 1 - t^2")
    rem = scaled.as_poly().scalar_coeffs("t")
    q = [0] * max(1, len(rem) - 2)
    for k in range(len(rem) - 1, 1, -1):
        c = rem[k]
        if c:
            q[k - 2] += -c
            rem[k] = 0
            rem[k - 2] += c
    return ss, ArithPoly.univariate("t", q), ArithPoly.univariate("t", rem[:2])


def fixed_determinant_by_ratfun(n, d, g):
    """The moduli polynomial over (1 + t)^(2g), reduced as a ``RatFun``."""
    jac = (ArithPoly.one() + ArithPoly.var("t")) ** (2 * g)
    return ReducingRatFun(moduli_poincare(n, d, g), jac).as_poly()
