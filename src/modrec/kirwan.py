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
Both run on integer coefficient lists: the one denominator, 1 - t^2, is
known in advance and is divided out by running sums.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import InvariantViolation, ValidationError
from .exactalg import Poly, over_one_minus


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


def _blocks(dim, blocks):
    """Coefficients of t^0..t^(2 dim) of the sum of sign t^(2 start) P_t(P^d)
    over the (start, d, sign) blocks, start + d <= dim, where P_t(P^d) =
    1 + t^2 + ... + t^(2 d): each block adds sign to the q-indices
    start..start + d (q = t^2) of one difference array."""
    diff = [0] * (dim + 2)
    for start, d, sign in blocks:
        diff[start] += sign
        diff[start + d + 1] -= sign
    out = [0] * (2 * dim + 1)
    out[0::2] = over_one_minus(diff, 1, dim + 1)
    return out


def _value_counts(w):
    """(value, multiplicity, number of smaller weights) for each distinct
    weight value, ascending, from one sorted count."""
    out = []
    below = 0
    for value, m in sorted(Counter(w).items()):
        out.append((value, m, below))
        below += m
    return out


def strata(ws):
    """All nonempty strata: the semistable one (if any) plus one per
    occurring nonzero weight value."""
    w = ws.weights
    out = []
    if ws.has_semistable():
        out.append(Stratum(beta=0, fixed_dim=None, codim=0))
    for value, m, below in sorted(_value_counts(w), key=lambda c: (abs(c[0]), -c[0])):
        if value == 0:
            continue
        # the far side of value: the weights below it, or those above it
        codim = below if value > 0 else len(w) - below - m
        out.append(Stratum(beta=value, fixed_dim=m - 1, codim=codim))
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


class BBReport(namedtuple("BBReport", "total match")):
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
    total = _blocks(ws.dim, [(0, ws.dim, 1)])
    acc = _blocks(ws.dim, [(below, m - 1, 1) for _, m, below in _value_counts(ws.weights)])
    if acc != total:
        raise InvariantViolation(
            "fixed-point decomposition does not add up: %s vs %s" % (acc, total))
    return BBReport(total=Poly.univariate("t", total), match=True)


class PerfectionReport(namedtuple(
        "PerfectionReport", "numerator polynomial_part periodic_tail is_polynomial")):
    """The semistable series numerator / (1 - t^2), with ``numerator`` its
    coefficient tuple, split as polynomial_part + periodic_tail / (1 - t^2)."""

    __slots__ = ()

    def series_coefficients(self, order):
        return over_one_minus(self.numerator, 2, order + 1)


def perfection_check(ws):
    """Solve the perfection identity for the semistable equivariant series.

    P_t(P^N)/(1-t^2) equals the semistable series plus the shifted fixed
    contributions t^{2 d_b} P_t(Z_b)/(1-t^2); the solved-for series must
    have non-negative coefficients in every degree, checked exactly through
    division by (1 - t^2).
    """
    if not ws.has_semistable():
        raise ValidationError("semistable locus is empty for these weights")
    num = _blocks(ws.dim, [(0, ws.dim, 1)] + [(s.codim, s.fixed_dim, -1)
                                               for s in strata(ws) if s.beta != 0])
    # num = Q (1 - t^2) + R with deg R < 2, so the series is Q + R / (1 - t^2):
    # R_0 and R_1 sum the even and the odd coefficients of num, and from
    # deg num - 1 on the series repeats R_0, R_1, so its coefficients up to
    # deg num cover every degree
    series = over_one_minus(num, 2, len(num))
    if any(c < 0 for c in series):
        raise InvariantViolation("semistable series has a negative coefficient")
    tail = [sum(num[0::2]), sum(num[1::2])]
    poly = [c - tail[k % 2] for k, c in enumerate(series[:-2])]
    return PerfectionReport(numerator=tuple(num), polynomial_part=Poly.univariate("t", poly),
                            periodic_tail=Poly.univariate("t", tail),
                            is_polynomial=not any(tail))


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
    coeffs = poly.scalar_coeffs("t")
    if coeffs != coeffs[::-1]:
        raise InvariantViolation("quotient polynomial is not palindromic")
    if any(c < 0 or not isinstance(c, int) for c in coeffs):
        raise InvariantViolation("quotient polynomial has bad coefficients")
    return poly
