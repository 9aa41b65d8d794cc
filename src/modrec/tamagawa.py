"""Arithmetic recursion for stacky masses of semistable bundles.

The total mass of all rank-n bundles of a fixed degree, weighted by
1/#Aut, is the zeta-value product

    total(n) = P(1)/(q-1) * q^{(n^2-1)(g-1)} * zeta(2) ... zeta(n)

(the mass-formula normalization of the volume of the integral subgroup,
together with the count of line-bundle twists).  Subtracting, per
filtration type, q^{mass_exponent} times the product of lower-rank
semistable masses leaves the semistable mass beta(n, d).  Zagier's
inversion of that recursion writes beta(n, d) in closed form as a sum over
the 2^(n-1) compositions of n of products of total masses (see
``_zagier_sum``), which is what ``ss_mass`` computes.

The recursion itself is the test oracle, in ``tests/oracles.py``: per
composition the infinite degree sum collapses on each residue cell of the
slope-gap lattice, where the exponent is affine with negative weights, to a
product of geometric series.

Everything is generic over the coefficient field, so the same formulas
yield exact rational numbers (numeric mode), Poincare series (Betti mode,
q = t^2) and Hodge refinements (q = u v).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, gcd

from .curve import SpecializationField
from .errors import InvariantViolation, ValidationError
from .exactalg import RatFun
from .hn import codim, compositions, enumerate_types, mass_exponent


def total_mass(n, d, field):
    """Total stacky mass of rank-n degree-d bundles; independent of d."""
    if n < 1:
        raise ValidationError("rank must be positive")
    g = field.genus
    value = field.P_one() / (field.q - RatFun.one())
    value = value * field.q_power((n * n - 1) * (g - 1))
    for i in range(2, n + 1):
        value = value * field.zeta(i)
    return value


# Largest rank ss_mass accepts per field, with the longest one mass at that
# rank took at g = 2 and 3 on a 2-core x86-64 host (numeric: curves over
# F_2).  The closed form has 2^(n-1) terms, so each further rank doubles it.
MASS_RANK_LIMIT = {SpecializationField.NUMERIC: (16, "3.5 s"),
                   SpecializationField.BETTI: (9, "8 s"),
                   SpecializationField.HODGE: (6, "4 s")}


def _zagier_sum(n, d, field):
    """Closed inversion of the Harder-Narasimhan recursion (Zagier 1996).

    The sum over compositions n = n_1 + ... + n_k of

        prod_i total(n_i) * q^((g-1) sum_{i<j} n_i n_j) * q^E
            * prod_{i<k} 1 / (1 - q^(n_i + n_{i+1})),

    with E = sum_{i<k} (n_i + n_{i+1}) <(n_1 + ... + n_i) d / n> and
    <x> = ceil(x) - x.  Single summands of E need not be integers, but E
    must be.  Compositions are walked as a prefix tree, so the partial
    products are shared.
    """
    g = field.genus
    one = RatFun.one()
    alpha = [None] + [total_mass(m, d, field) for m in range(1, n + 1)]
    # appending part b after part a multiplies by total(b) / (1 - q^(a+b))
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
    return sum(terms, RatFun.zero())


def ss_mass(n, d, field):
    """Stacky mass of semistable rank-n degree-d bundles in the given field.

    Memoized per field instance on (n, d mod n): twisting by a degree-1 line
    bundle shifts d by n without changing the mass.  Ranks past the field's
    MASS_RANK_LIMIT are refused with ValidationError.
    """
    if n < 1:
        raise ValidationError("rank must be positive")
    limit, seconds = MASS_RANK_LIMIT[field.mode]
    if n > limit:
        raise ValidationError(
            "rank %d is past the %s mass limit %d: the closed form has 2^(n-1) terms, "
            "and rank %d takes up to %s" % (n, field.mode, limit, limit, seconds))
    key = (n, d % n)
    cached = field.mass_cache.get(key)
    if cached is not None:
        return cached
    value = _zagier_sum(n, d, field)
    if field.mode == SpecializationField.NUMERIC and value.const_value() <= 0:
        raise InvariantViolation("numeric semistable mass is not positive")
    field.mass_cache[key] = value
    return value


def stratum_mass(mu, field):
    """Mass of the stratum labelled by one filtration type."""
    value = field.q_power(mass_exponent(mu, field.genus))
    for nj, dj in mu.parts:
        value = value * ss_mass(nj, dj, field)
    return value


def stable_count(n, d, field):
    """Exact number of stable bundles of coprime rank and degree.

    Every stable bundle has automorphism group the nonzero scalars, so the
    count is (q - 1) times the semistable mass; it must come out a
    non-negative integer, and anything else means a formula bug.
    """
    _require_numeric(field)
    if gcd(n, d) != 1:
        raise ValidationError("rank and degree must be coprime for stable counts")
    value = ((field.q - RatFun.one()) * ss_mass(n, d, field)).const_value()
    if value.denominator != 1 or value < 0:
        raise InvariantViolation("stable count %s is not a non-negative integer" % value)
    return int(value)


def fixed_determinant_count(n, d, field):
    """Stable bundles with one fixed determinant: the count divided by P(1)."""
    count = stable_count(n, d, field)
    classes = int(field.P_one().const_value())
    if count % classes:
        raise InvariantViolation(
            "stable count %d is not divisible by the class number %d" % (count, classes))
    return count // classes


def _require_numeric(field):
    if field.mode != SpecializationField.NUMERIC:
        raise ValidationError("this operation needs the numeric specialization")


# ---------------------------------------------------------------------------
# executable mass-formula check
# ---------------------------------------------------------------------------


class SiegelReport(namedtuple("SiegelReport", "n d mode total semistable partial_sums gaps "
                                               "tail_bound")):
    __slots__ = ()

    def to_json(self):
        from .exactalg import fraction_to_str

        return {
            "n": self.n,
            "d": self.d,
            "mode": self.mode,
            "value": fraction_to_str(self.semistable),
            "total": fraction_to_str(self.total),
            "partial_sums": [fraction_to_str(v) for v in self.partial_sums],
            "gaps": [fraction_to_str(v) for v in self.gaps],
            "tail_bound": fraction_to_str(self.tail_bound),
        }


def siegel_check(n, d, field, max_codim):
    """Partial sums of stratum masses must climb to the total mass.

    The semistable term plus all strata of codimension <= level is compared
    with the zeta-value total for every level up to ``max_codim``; the gaps
    must shrink monotonically and the final gap must sit below a geometric
    tail bound computed from the ratios actually used.
    """
    _require_numeric(field)
    if max_codim < 0:
        raise ValidationError("codimension bound must be >= 0")
    g = field.genus
    total = total_mass(n, d, field).const_value()
    beta = ss_mass(n, d, field).const_value()
    level_mass = {}
    for mu in enumerate_types(n, d, g, max_codim):
        if mu.is_trivial:
            continue
        c = codim(mu, g)
        level_mass[c] = level_mass.get(c, Fraction(0)) + stratum_mass(mu, field).const_value()
    partials, gaps = [], []
    acc = beta
    for level in range(max_codim + 1):
        acc += level_mass.get(level, Fraction(0))
        partials.append(acc)
        gap = total - acc
        if gap < 0 or (n > 1 and gap == 0):
            raise InvariantViolation("partial sums overshoot the total mass")
        if gaps and gap > gaps[-1]:
            raise InvariantViolation("gaps must be non-increasing")
        if gaps and level in level_mass and not gap < gaps[-1]:
            raise InvariantViolation("gap failed to shrink on an occupied level")
        gaps.append(gap)
    bound = _tail_bound(n, d, field, max_codim)
    if gaps[-1] > bound:
        raise InvariantViolation(
            "final gap %s exceeds the geometric tail bound %s" % (gaps[-1], bound))
    return SiegelReport(n, d, field.mode, total, beta,
                        tuple(partials), tuple(gaps), bound)


def _tail_bound(n, d, field, max_codim):
    """Rigorous overcount of all stratum masses with codim > max_codim.

    Per composition: every such stratum has mass q^{K - c} times a product
    of part masses, with K = 2(g-1) sum n_i n_j; the number of strata at
    codimension c is at most (c - G + 1)^{r-2}.  Summing the resulting
    polynomial-times-geometric series in closed form bounds the tail.
    """
    g = field.genus
    q = field.q.const_value()
    x = 1 / q
    bound = Fraction(0)
    for comp in compositions(n):
        r = len(comp)
        if r < 2:
            continue
        G = (g - 1) * sum(comp[i] * comp[j]
                          for i in range(r) for j in range(i + 1, r))
        K = 2 * G
        best = Fraction(1)
        for nj in comp:
            best = best * max(ss_mass(nj, res, field).const_value() for res in range(nj))
        start = max(max_codim + 1, G + 1)
        tail = Fraction(0)
        # sum_{c >= start} (c - G + 1)^(r-2) x^c, exact
        p = r - 2
        for s in range(p + 1):
            shift = 1 - G
            tail += comb(p, s) * shift ** (p - s) * _power_tail(x, s, start)
        bound += q ** K * best * tail
    return bound


def _power_tail(x, p, start):
    """sum_{i >= start} i^p x^i as an exact Fraction, for 0 < x < 1."""
    # numerator of sum_{i>=0} i^p x^i over (1-x)^(p+1), by the derivative
    # recurrence S_p = x * dS_{p-1}/dx
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
