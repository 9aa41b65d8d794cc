"""Exact polynomials, rational functions and truncated power series.

Everything is built on arbitrary-precision rationals (``fractions.Fraction``,
with integer-valued coefficients stored as plain ``int``).  No floating point
enters any computation.

Representation choices:

* ``Poly`` is the output form of a sparse multivariate polynomial over the
  closed variable set ``{t, u, v}``.  A polynomial stores the ordered tuple
  of variables it actually uses and a dict mapping exponent tuples to
  nonzero coefficients.  Unused variables are stripped, so two equal
  polynomials are structurally identical.  ``Poly(vars, terms)`` stores
  terms already in this form, and ``Poly.univariate`` builds them from a
  coefficient list.  It does no arithmetic: the t-side modules compute on
  coefficient lists and wrap the result once, and a Betti or Hodge
  comparison maps its polynomials into ``modrec.factored`` elements.

* ``RatFun`` is the output form of a rational function: a numerator and a
  denominator that are coprime, the denominator with coprime integer
  coefficients and a positive leading coefficient (lexicographic term
  order), so equality is plain structural equality.  It does no arithmetic:
  Betti and Hodge values are computed as ``modrec.factored`` elements over
  known cyclotomic denominators and reduced into this form once.  No
  production path needs a polynomial gcd: the reducing ``RatFun`` and
  ``Poly`` arithmetic and the gcd and exact division they run on are test
  oracles.

* ``Series`` is a dense truncated power series whose coefficients are
  plain scalars (``int`` or ``Fraction``), stored as a list; it holds the
  gauge recursion's memo.  Arithmetic never reads past the truncation order.

* Dense coefficient lists (ascending, index k for y^k) carry every
  integer-series computation in the package through one kernel: ``conv``
  (the product, optionally cut to its first coefficients, by shifted copies
  or by one integer product), ``divexact``
  (exact division, ``None`` on a remainder), ``times_one_minus`` and
  ``over_one_minus`` (multiplying by (1 - y^c)^k and expanding a quotient
  by 1 - y^c) and ``add_into`` (a shifted add).  ``Series`` products,
  ``modrec.factored`` and the t-side modules all call it.

Integer path: every stored coefficient is an ``int`` or a ``Fraction`` with
denominator > 1, so int inputs give int outputs and an integral Fraction
comes back as ``int``.  Sums and products of ints are ints, so a result list
is normalised once, and only when it holds a non-int (``_normed``).

>>> conv([1, 1], [1, -1]) == [1, 0, -1]
True
>>> Poly.univariate("t", [1, 0, -1])
Poly(1 - t^2)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .errors import ValidationError

VARIABLES = ("t", "u", "v")


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
    # floats stay out on purpose: the whole point is exactness
    raise TypeError("coefficients must be int or Fraction, got %r" % type(c))


def _check_var(name):
    if name not in VARIABLES:
        raise ValidationError("unknown variable %r; allowed: %s" % (name, ", ".join(VARIABLES)))
    return name


class Poly:
    """Sparse exact polynomial in a subset of the variables t, u, v, built
    from canonical terms only: nothing is checked (see the module docstring).
    An output form: it compares, hashes and prints, and does no arithmetic."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = vars
        self.terms = terms

    @classmethod
    def univariate(cls, name, coeffs):
        """Build a polynomial in one variable from an ascending coefficient list."""
        _check_var(name)
        if not _all_int(coeffs):
            coeffs = [_as_coeff(c) for c in coeffs]
        terms = {(k,): c for k, c in enumerate(coeffs) if c}
        if not terms:
            return cls((), {})
        if len(terms) == 1 and (0,) in terms:
            return cls((), {(): terms[(0,)]})
        return cls((name,), terms)

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def const_value(self):
        if self.vars:
            raise ValidationError("polynomial is not constant: %s" % self)
        if not self.terms:
            return Fraction(0)
        return Fraction(self.terms[()])

    def degree(self, name):
        """Degree in one variable (zero polynomial: -1)."""
        if self.is_zero:
            return -1
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
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

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


_ONE = Poly((), {(): 1})


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


# ---------------------------------------------------------------------------
# dense coefficient lists
# ---------------------------------------------------------------------------


def conv(a, b, top=None):
    """The product of two non-empty dense coefficient lists: its first ``top``
    coefficients when a cut is given, all of them otherwise.

    Two paths, chosen by the shorter factor's length after the cut and by
    the coefficient types:

    * a factor of at most 8 entries, or a non-int coefficient: shifted
      copies of the longer factor, one per nonzero entry of the shorter;
    * otherwise one integer product (Kronecker substitution): each list is
      evaluated at 2^K, with K past the bit size of every coefficient the
      product can have, and the product's low base-2^K digits, read back
      with an offset of 2^(K-1) each, are its signed coefficients.
    """
    size = len(a) + len(b) - 1
    if top is not None and top < size:
        size = top
        a, b = a[:size], b[:size]
    if len(a) < len(b):
        a, b = b, a
    lb = len(b)
    if lb <= 8 or not (_all_int(a) and _all_int(b)):
        out = [0] * size
        for j, y in enumerate(b):
            if y:
                out[j:j + len(a)] = [o + y * x for o, x in zip(out[j:], a)]
        return out
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + lb.bit_length()
    width = bits // 8 + 1  # bytes per digit, so |coefficient| < 2^(8 width - 1)
    value = _evaluate(a, width) * _evaluate(b, width)
    # the offset makes every digit non-negative; the digits past the cut go
    value += int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    data = (value & ((1 << 8 * width * size) - 1)).to_bytes(width * size, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, width * size, width)]


def _evaluate(a, width):
    """sum a_i 2^(8 width i) for coefficients of at most 8 width - 1 bits."""
    pos = b"".join([(x if x > 0 else 0).to_bytes(width, "little") for x in a])
    neg = b"".join([(-x if x < 0 else 0).to_bytes(width, "little") for x in a])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def divexact(a, b):
    """a / b on dense coefficient lists, b with a nonzero last entry; None
    when b leaves a remainder.  Int quotients stay ints, others are
    Fractions."""
    db = len(b) - 1
    rem = list(a)
    lead = b[-1]
    lower = [(j, c) for j, c in enumerate(b[:-1]) if c]
    quot = [0] * max(len(rem) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + db]
        if not c:
            continue
        if type(c) is int and type(lead) is int and c % lead == 0:
            qc = c // lead
        else:
            qc = _cnorm(Fraction(c) / lead)
        quot[k] = qc
        for j, bj in lower:
            rem[k + j] -= qc * bj
    return None if any(rem[:db]) else quot


def add_into(acc, b, shift):
    """acc + y^shift b, both dense lists from index 0 (acc is reused)."""
    end = shift + len(b)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    acc[shift:end] = map(sum, zip(acc[shift:end], b))
    return acc


def times_one_minus(a, c, k=1):
    """a (1 - y^c)^k, c >= 1: one shift and subtraction per factor."""
    pad = [0] * c
    for _ in range(k):
        a = [x - y for x, y in zip(a + pad, pad + a)]
    return a


def over_one_minus(a, c, size):
    """The first ``size`` >= 0 coefficients of the series a / (1 - y^c),
    c >= 1: a running sum per residue class mod c."""
    out = list(a[:size]) + [0] * (size - len(a))
    for r in range(min(c, size)):
        out[r::c] = accumulate(out[r::c])
    return out


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFun:
    """Quotient of polynomials, built from parts already in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        if not (isinstance(num, Poly) and isinstance(den, Poly)):
            raise ValidationError("RatFun expects polynomials")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def zero():
        return RatFun(Poly((), {}))

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_poly(self):
        return self.den == _ONE

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
    """Truncated power series with int/Fraction coefficients, built only from
    coefficient lists that are already normalised."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def truncate(self, order):
        if order >= self.order:
            return self
        return Series(self.coeffs[: order + 1])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        top = min(self.order, other.order) + 1
        return Series(_normed(conv(self.coeffs, other.coeffs, top)))

    __rmul__ = __mul__

    def __repr__(self):
        return "Series(%r)" % (self.coeffs,)


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
