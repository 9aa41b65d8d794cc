"""Rank-1 torus actions on projective space: strata, identities, quotients.

For the multiplicative group acting on P^N with integer weights w_0..w_N
(linearization fixed at zero), a point is semistable iff its weight support
straddles zero.  Unstable points fall into one stratum per occurring
nonzero weight value b: for b > 0 the points whose minimal occurring weight
is b (symmetrically for b < 0).  The fixed locus of value b is the
projectivized weight-b coordinate subspace, and the stratum codimension is
the number of coordinates on the far side of b.

Two exact identities gate the bookkeeping: the fixed-point decomposition of
the Poincare polynomial of P^N, and the perfection identity that solves for
the equivariant series of the semistable locus.  When semistable equals
stable the latter is the Poincare polynomial of the quotient variety.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantViolation, ValidationError
from .exactalg import Poly, RatFun, is_palindrome


class WeightSystem:
    """Integer weights w_0..w_N of the torus on P^N, N >= 1."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = tuple(int(x) for x in weights)
        if len(w) < 2:
            raise ValidationError("need at least two weights (a positive-dimensional space)")
        self.weights = w

    @property
    def dim(self):
        return len(self.weights) - 1

    def multiplicity(self, value):
        return sum(1 for w in self.weights if w == value)

    def has_semistable(self):
        return min(self.weights) <= 0 <= max(self.weights)

    def to_json(self):
        return list(self.weights)


# weight value beta (0 for the semistable stratum, whose fixed_dim is None),
# dimension of its fixed subspace, codimension
Stratum = namedtuple("Stratum", "beta fixed_dim codim")


def _proj_poincare(dim):
    """Poincare polynomial of P^dim."""
    return Poly.univariate("t", [1, 0] * dim + [1])


def strata(ws):
    """All nonempty strata: the semistable one (if any) plus one per
    occurring nonzero weight value."""
    w = ws.weights
    out = []
    if ws.has_semistable():
        out.append(Stratum(beta=0, fixed_dim=None, codim=0))
    for value in sorted(set(w), key=lambda v: (abs(v), -v)):
        if value == 0:
            continue
        if value > 0:
            codim = sum(1 for x in w if x < value)
        else:
            codim = sum(1 for x in w if x > value)
        out.append(Stratum(beta=value, fixed_dim=ws.multiplicity(value) - 1, codim=codim))
    _check_partition(ws, out)
    return out


def _check_partition(ws, stratum_list):
    # every coordinate lies in exactly one fixed subspace; the unstable
    # strata account for all nonzero weight values
    w = ws.weights
    covered = sum(s.fixed_dim + 1 for s in stratum_list if s.beta != 0)
    expected = sum(1 for x in w if x != 0)
    if covered != expected:
        raise InvariantViolation("fixed subspaces fail to cover the coordinates")
    values = {s.beta for s in stratum_list if s.beta != 0}
    if values != {x for x in w if x != 0}:
        raise InvariantViolation("strata do not match the occurring weight values")


class BBReport(namedtuple("BBReport", "total pieces match")):
    __slots__ = ()

    def to_json(self):
        return {
            "total": [str(c) for c in self.total.scalar_coeffs("t")],
            "match": self.match,
        }


def bb_decomposition(ws):
    """Fixed-point decomposition of the Poincare polynomial of P^N.

    P_t(P^N) must equal the sum over distinct weight values v of
    t^{2 #{i : w_i < v}} P_t(P^{m_v - 1}); a mismatch means the attracting
    cell dimensions are wrong, and raises.
    """
    w = ws.weights
    total = _proj_poincare(ws.dim)
    t = Poly.var("t")
    pieces = []
    acc = Poly.zero()
    for value in sorted(set(w)):
        below = sum(1 for x in w if x < value)
        piece = t ** (2 * below) * _proj_poincare(ws.multiplicity(value) - 1)
        pieces.append((value, piece))
        acc = acc + piece
    if acc != total:
        raise InvariantViolation(
            "fixed-point decomposition does not add up: %s vs %s" % (acc, total))
    return BBReport(total=total, pieces=tuple(pieces), match=True)


class PerfectionReport(namedtuple(
        "PerfectionReport", "ss_series polynomial_part periodic_tail is_polynomial")):
    __slots__ = ()

    def series_coefficients(self, order):
        from .exactalg import series_expand

        return series_expand(self.ss_series, "t", order).coefficient_values()


def perfection_check(ws):
    """Solve the perfection identity for the semistable equivariant series.

    P_t(P^N)/(1-t^2) equals the semistable series plus the shifted fixed
    contributions t^{2 d_b} P_t(Z_b)/(1-t^2); the solved-for series must
    have non-negative coefficients in every degree, checked exactly through
    division by (1 - t^2).
    """
    if not ws.has_semistable():
        raise ValidationError("semistable locus is empty for these weights")
    t = Poly.var("t")
    one = Poly.one()
    num = _proj_poincare(ws.dim)
    for s in strata(ws):
        if s.beta == 0:
            continue
        num = num - t ** (2 * s.codim) * _proj_poincare(s.fixed_dim)
    ss = RatFun(num, one - t ** 2)
    poly_part, tail = _split_by_one_minus_t2(ss)
    coeffs = poly_part.scalar_coeffs("t", upto=max(poly_part.degree("t"), 1))
    tail_coeffs = tail.scalar_coeffs("t", upto=1)
    low = [c + tail_coeffs[k % 2] for k, c in enumerate(coeffs)]
    if any(c < 0 for c in low) or any(c < 0 for c in tail_coeffs):
        raise InvariantViolation("semistable series has a negative coefficient")
    return PerfectionReport(ss_series=ss, polynomial_part=poly_part,
                            periodic_tail=tail, is_polynomial=tail.is_zero)


def _split_by_one_minus_t2(f):
    """Write f = Q(t) + R(t)/(1 - t^2) with deg R < 2; requires the reduced
    denominator to divide 1 - t^2."""
    t = Poly.var("t")
    one = Poly.one()
    if f.is_poly:
        return f.num, Poly.zero()
    scaled = f * RatFun(one - t ** 2)
    if not scaled.is_poly:
        raise InvariantViolation("denominator does not divide 1 - t^2")
    num = scaled.as_poly()
    coeffs = num.scalar_coeffs("t")
    q = [0] * max(1, len(coeffs) - 2)
    rem = list(coeffs)
    for k in range(len(rem) - 1, 1, -1):
        c = rem[k]
        if c:
            q[k - 2] += -c
            rem[k] = 0
            rem[k - 2] += c
    return Poly.univariate("t", q), Poly.univariate("t", rem[:2])


def quotient_poincare(ws):
    """Poincare polynomial of the quotient of the semistable locus.

    Valid when semistable equals stable: no zero weights, and weights of
    both signs present.  The solved-for series must collapse to a
    palindromic polynomial with non-negative integer coefficients.
    """
    if 0 in ws.weights:
        raise ValidationError("zero weight present: semistable differs from stable")
    if not (min(ws.weights) < 0 < max(ws.weights)):
        raise ValidationError("semistable locus is empty for these weights")
    report = perfection_check(ws)
    if not report.is_polynomial:
        raise InvariantViolation("quotient series is not a polynomial")
    poly = report.polynomial_part
    top = poly.degree("t")
    if not is_palindrome(poly, top):
        raise InvariantViolation("quotient polynomial is not palindromic")
    if any(c < 0 or not isinstance(c, int) for c in poly.scalar_coeffs("t")):
        raise InvariantViolation("quotient polynomial has bad coefficients")
    return poly
