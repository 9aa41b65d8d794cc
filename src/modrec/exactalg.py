"""Exact polynomials, rational functions and truncated power series.

Everything is built on arbitrary-precision rationals (``fractions.Fraction``,
with integer-valued coefficients stored as plain ``int``).  No floating point
enters any computation.

Representation choices:

* ``Poly`` is a sparse multivariate polynomial over the closed variable set
  ``{t, u, v}``.  A polynomial stores the ordered tuple of variables it
  actually uses and a dict mapping exponent tuples to nonzero coefficients.
  Unused variables are stripped, so two equal polynomials are structurally
  identical.

* ``RatFun`` is the output form of a rational function: a numerator and a
  denominator that are coprime, the denominator with coprime integer
  coefficients and a positive leading coefficient (lexicographic term
  order), so equality is plain structural equality.  It does no arithmetic:
  Betti and Hodge values are computed as ``modrec.factored`` elements over
  known cyclotomic denominators and reduced into this form once.  The
  reducing ``RatFun`` arithmetic, with its gcds, is a test oracle.

* ``Series`` is a dense truncated power series in one variable whose
  coefficients are plain scalars (``int`` or ``Fraction``), stored as a list.
  Arithmetic never reads past the truncation order.

Integer path: every stored coefficient is an ``int`` or a ``Fraction`` with
denominator > 1, so int inputs give int outputs and an integral Fraction
comes back as ``int``.  Sums and products of ints are ints, so a result list
is normalised once, and only when it holds a non-int (``_normed``).

>>> t = Poly.var("t")
>>> (Poly.one() + t) * (Poly.one() - t) == Poly.one() - t ** 2
True
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from operator import mul as _mul

from .errors import ValidationError

VARIABLES = ("t", "u", "v")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}


_INT = {int}


def _all_int(values):
    """True when every value is a plain int (one C-level pass over the types)."""
    return set(map(type, values)) <= _INT


def _cnorm(c):
    # keep integral coefficients as ints: int arithmetic is much faster; the
    # type test spares ints the slow abstract-class isinstance check
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _normed(values):
    """The list with integral Fractions as ints; itself when it holds ints only."""
    return values if _all_int(values) else [_cnorm(c) for c in values]


def _as_coeff(c):
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return _cnorm(c)
    if isinstance(c, str):
        return _cnorm(Fraction(c))
    # floats stay out on purpose: the whole point is exactness
    raise TypeError("coefficients must be int, Fraction or 'p/q' string, got %r" % type(c))


def _check_var(name):
    if name not in _VAR_INDEX:
        raise ValidationError("unknown variable %r; allowed: %s" % (name, ", ".join(VARIABLES)))
    return name


class Poly:
    """Sparse exact polynomial in a subset of the variables t, u, v."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None, *, _trusted=False):
        if _trusted:
            self.vars = vars
            self.terms = terms if terms is not None else {}
            return
        vars = tuple(vars)
        for name in vars:
            _check_var(name)
        if list(vars) != sorted(vars, key=_VAR_INDEX.__getitem__) or len(set(vars)) != len(vars):
            raise ValidationError("variables must be distinct and in canonical order %s" % (VARIABLES,))
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(vars):
                raise ValidationError("exponent length does not match variable list")
            if any(e < 0 for e in exp):
                raise ValidationError("negative exponent in polynomial")
            c = _as_coeff(c)
            if c:
                clean[exp] = clean.get(exp, 0) + c
        clean = {e: _cnorm(c) for e, c in clean.items() if c}
        self.vars, self.terms = _strip_vars(vars, clean)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return Poly((), {}, _trusted=True)

    @staticmethod
    def one():
        return Poly.const(1)

    @staticmethod
    def const(c):
        c = _as_coeff(c)
        if not c:
            return Poly.zero()
        return Poly((), {(): c}, _trusted=True)

    @staticmethod
    def var(name):
        _check_var(name)
        return Poly((name,), {(1,): 1}, _trusted=True)

    @staticmethod
    def univariate(name, coeffs):
        """Build a polynomial in one variable from an ascending coefficient list."""
        _check_var(name)
        if not _all_int(coeffs):
            coeffs = [_as_coeff(c) for c in coeffs]
        return _univar(name, coeffs)

    @staticmethod
    def _coerce(value):
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.const(value)
        return NotImplemented

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_const(self):
        return not self.vars

    def const_value(self):
        if self.vars:
            raise ValidationError("polynomial is not constant: %s" % self)
        if not self.terms:
            return Fraction(0)
        return Fraction(self.terms[()])

    def degree(self, name=None):
        """Total degree, or degree in one variable (zero polynomial: -1)."""
        if self.is_zero:
            return -1
        if name is None:
            return max(sum(e) for e in self.terms)
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def scalar_coeffs(self, name, upto=None):
        """Ascending list of scalar coefficients; requires univariate/const."""
        if any(v != name for v in self.vars):
            raise ValidationError("polynomial is not univariate in %s: %s" % (name, self))
        terms = self.terms
        d = max(terms)[0] if self.vars else len(terms) - 1  # constant 0, zero -1
        out = [0] * ((d if upto is None else max(d, upto)) + 1)
        if self.vars:
            for (k,), c in terms.items():
                out[k] = c
        elif terms:
            out[0] = terms[()]
        return out

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __bool__(self):
        return not self.is_zero

    # -- arithmetic ----------------------------------------------------

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()}, _trusted=True)

    def __add__(self, other):
        other = Poly._coerce(other)
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
        return Poly(vars, out, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly.zero()
        if self.is_const:
            c = self.terms[()]
            return Poly(other.vars, {e: _cnorm(c * v) for e, v in other.terms.items()}, _trusted=True)
        if other.is_const:
            c = other.terms[()]
            return Poly(self.vars, {e: _cnorm(c * v) for e, v in self.terms.items()}, _trusted=True)
        if self.vars == other.vars and len(self.vars) == 1:
            return _mul_dense_univar(self, other)
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
        return Poly(vars, out, _trusted=True)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValidationError("Poly exponent must be a non-negative integer")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- normal-form helpers --------------------------------------------

    def signed_content(self):
        """Rational r with the sign of the leading coefficient such that
        self / r has coprime integer coefficients and positive leading one.
        Always a ``Fraction``, so that 1 / r stays exact."""
        if self.is_zero:
            raise ValidationError("zero polynomial has no content")
        values = self.terms.values()
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
        return -r if self.terms[max(self.terms)] < 0 else r

    def scaled(self, factor):
        factor = Fraction(factor)
        if factor == 0:
            return Poly.zero()
        return Poly(self.vars, {e: _cnorm(c * factor) for e, c in self.terms.items()}, _trusted=True)

    # -- display ---------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return "Poly(%s)" % self


def _strip_vars(vars, terms):
    """Drop variables whose exponent is zero in every term."""
    if not vars or not terms:
        return ((), dict(terms)) if terms else ((), {})
    used = [False] * len(vars)
    for e in terms:
        for i, k in enumerate(e):
            if k:
                used[i] = True
    if all(used):
        return vars, terms
    keep = [i for i, u in enumerate(used) if u]
    new_vars = tuple(vars[i] for i in keep)
    new_terms = {}
    for e, c in terms.items():
        new_terms[tuple(e[i] for i in keep)] = c
    return new_vars, new_terms


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


def _univar(name, coeffs):
    """Trusted polynomial in ``name`` from normalised ascending coefficients."""
    terms = {(k,): c for k, c in enumerate(coeffs) if c}
    if not terms:
        return Poly.zero()
    if len(terms) == 1 and (0,) in terms:
        return Poly((), {(): terms[(0,)]}, _trusted=True)
    return Poly((name,), terms, _trusted=True)


def _mul_dense_univar(a, b):
    name = a.vars[0]
    ca = a.scalar_coeffs(name)
    cb = b.scalar_coeffs(name)
    out = [0] * (len(ca) + len(cb) - 1)
    nonzero = [(j, y) for j, y in enumerate(cb) if y]  # zeros skipped on both sides
    for i, x in enumerate(ca):
        if x:
            for j, y in nonzero:
                out[i + j] += x * y
    return _univar(name, _normed(out))


# ---------------------------------------------------------------------------
# gcd and exact division
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
    pair raises ``ValidationError``.  The one caller is the square-free step
    of the zeta root check in ``curve``: rational functions are reduced
    against their known cyclotomic denominators instead (``modrec.factored``).
    """
    if a.is_zero and b.is_zero:
        return Poly.zero()
    if a.is_zero:
        return b.scaled(1 / b.signed_content())
    if b.is_zero:
        return a.scaled(1 / a.signed_content())
    if a.is_const or b.is_const:
        return Poly.one()
    union = set(a.vars) | set(b.vars)
    if len(union) > 1:
        raise ValidationError("multivariate gcd is not supported: %s and %s" % (a, b))
    name = a.vars[0]
    return Poly.univariate(name, _gcd_univar(a.scalar_coeffs(name), b.scalar_coeffs(name)))


def poly_divexact(a, b):
    """Exact polynomial division in one variable; raises if the division
    leaves a remainder, and on a multivariate pair."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return Poly.zero()
    if b.is_const:
        return a.scaled(Fraction(1) / Fraction(b.terms[()]))
    union = set(a.vars) | set(b.vars)
    if len(union) > 1:
        raise ValidationError("multivariate exact division is not supported: %s by %s" % (a, b))
    return _divexact_univar(a, b, b.vars[0])


def _divexact_univar(a, b, name):
    """Long division on dense coefficient lists of one variable."""
    rem = a.scalar_coeffs(name)
    B = b.scalar_coeffs(name)
    db = len(B) - 1
    if len(rem) <= db:
        raise ValidationError("non-exact polynomial division")
    lead = B[-1]
    lower = [(j, c) for j, c in enumerate(B[:-1]) if c]
    quot = [0] * (len(rem) - db)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + db]
        if not c:
            continue
        if isinstance(c, int) and isinstance(lead, int) and c % lead == 0:
            qc = c // lead
        else:
            qc = _cnorm(Fraction(c) / lead)
        quot[k] = qc
        for j, bj in lower:
            rem[k + j] -= qc * bj
    if any(rem[:db]):
        raise ValidationError("non-exact polynomial division")
    return Poly.univariate(name, quot)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFun:
    """Quotient of polynomials, built from parts already in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = Poly._coerce(num)
        den = Poly._coerce(den)
        if num is NotImplemented or den is NotImplemented:
            raise ValidationError("RatFun expects polynomials or rationals")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def zero():
        return RatFun(Poly.zero(), Poly.one())

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_poly(self):
        return self.den == Poly.one()

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_poly:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFun(%s)" % self


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


class Series:
    """Truncated power series in one variable with int/Fraction coefficients."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs, *, _trusted=False):
        if not _trusted:
            _check_var(var)
            coeffs = [_as_coeff(c) for c in coeffs]
            if not coeffs:
                raise ValidationError("series needs at least the constant coefficient")
        self.var = var
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def truncate(self, order):
        if order >= self.order:
            return self
        return Series(self.var, self.coeffs[: order + 1], _trusted=True)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if other.var != self.var:
            raise ValidationError("series variables differ")
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        # coefficient k is the dot product of a[:k+1] with b[k], ..., b[0]
        out = [sum(map(_mul, a[: k + 1], b[k::-1])) for k in range(n + 1)]
        return Series(self.var, _normed(out), _trusted=True)

    __rmul__ = __mul__

    def __repr__(self):
        return "Series(%r, %r)" % (self.var, self.coeffs)


def is_palindrome(p, top_degree):
    """True iff coefficient(k) == coefficient(top_degree - k) for all k."""
    if not isinstance(p, Poly):
        raise ValidationError("is_palindrome expects a Poly")
    if any(v != "t" for v in p.vars):
        raise ValidationError("palindrome check requires a univariate polynomial in t")
    if p.degree("t") > top_degree:
        raise ValidationError("degree exceeds the stated top degree")
    coeffs = p.scalar_coeffs("t", upto=top_degree)
    return all(coeffs[k] == coeffs[top_degree - k] for k in range(top_degree + 1))


# ---------------------------------------------------------------------------
# JSON output forms ("p/q" strings, univariate coefficient lists)
# ---------------------------------------------------------------------------


def fraction_to_str(c):
    return str(Fraction(c))


def poly_to_json(p):
    """Univariate polynomials use the coefficient-list form; multivariate
    ones fall back to a sorted exponent/coefficient term list."""
    if not isinstance(p, Poly):
        raise ValidationError("poly_to_json expects a Poly")
    if len(p.vars) > 1:
        return {"vars": list(p.vars),
                "terms": [[list(e), fraction_to_str(c)]
                          for e, c in sorted(p.terms.items())]}
    var = p.vars[0] if p.vars else None
    coeffs = p.scalar_coeffs(var) if var else ([p.const_value()] if not p.is_zero else [0])
    return {"var": var, "coeffs": [fraction_to_str(c) for c in coeffs]}


def ratfun_to_json(f):
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}
