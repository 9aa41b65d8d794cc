"""Equivariant series of semistable strata and moduli Poincare polynomials.

The total series for rank n over a genus-g curve is the closed form

    prod_{j=1}^n (1 + t^{2j-1})^{2g} / ((1 - t^{2n}) prod_{j=1}^{n-1} (1 - t^{2j})^2)

and the semistable part is obtained by subtracting, per nontrivial
filtration type mu, the product of lower-rank semistable series shifted by
t^{2 codim(mu)}.  Since every stratum shifts by at least t^2, only the types
with codim <= T/2 can touch a series truncated at order T, which keeps each
step finite.  Types whose parts have equal keys (n_i, min(d_i mod n_i,
-d_i mod n_i)), in any order, share one product, subtracted once per shift,
and d and -d share one memo entry.  In the coprime case multiplying by
(1 - t^2) collapses the series to the Poincare polynomial of the moduli
space.
"""

from math import comb, gcd, prod
from operator import sub

from .errors import InvariantViolation, ValidationError, check_budget, shown, weighted
from .exactalg import Poly, Series, conv, divexact, over_one_minus, times_one_minus
from .hn import walk_types

_SS_SERIES = {}

# The most weighted coefficient products (_series_charge) of one call; the
# slowest admitted, moduli_poincare(3, d, 130), is timed in README.md.
MAX_SERIES_PRODUCTS = 100_000_000

# orders above the expected top degree in which moduli_poincare requires the
# collapsed series to vanish; a wrong type cutoff shows up there
TRUNCATION_SLACK = 4


def _check_rank_genus(n, g):
    if n < 1:
        raise ValidationError("rank must be positive")
    if g < 2:
        raise ValidationError("genus must be at least 2")


def classifying_series(n, g):
    """Poincare series of the classifying space of the rank-n gauge group,
    as a ``factored.BettiFactored``: the numerator
    prod_j (1 + t^(2j-1))^(2g) over (1 - q^n) prod_{j<n} (1 - q^j)^2, q = t^2."""
    from .factored import BettiFactored

    _check_rank_genus(n, g)
    num = _numerator_coefficients(n, g, 2 * g * n * n)
    return BettiFactored(0, {0: num[0::2], 1: num[1::2]}, (2,) * (n - 1) + (1,))


def _numerator_coefficients(n, g, order):
    """Coefficients of t^0 up to t^order of prod_{j<=n} (1 + t^(2j-1))^(2g),
    one product per factor with its binomial expansion."""
    binomials = [comb(2 * g, i) for i in range(2 * g + 1)]
    coeffs = [1]
    for step in range(1, 2 * n, 2):
        factor = [0] * (2 * g * step + 1)
        factor[::step] = binomials
        coeffs = conv(coeffs, factor, order + 1)
    return coeffs


def classifying_coefficients(n, g, order):
    """Coefficients of t^0..t^order of the classifying series, expanded from
    the product form without reducing it: the numerator's coefficients, then
    a running sum per residue class for each division by (1 - t^(2j))."""
    _check_rank_genus(n, g)
    coeffs = _numerator_coefficients(n, g, order)
    for step in [2 * n] + [2 * j for j in range(1, n) for _ in range(2)]:
        coeffs = over_one_minus(coeffs, step, order + 1)
    return coeffs


def _series_charge(n, g, order, groups):
    """(order + 1)^2 coefficient products for each numerator factor of the
    classifying series and for each product of a group, at the group's order,
    weighted for coefficients of about 2gn bits (``errors.weighted``), plus
    one subtraction per coefficient of each type's shifted copy."""
    products = n * (order + 1) ** 2 + sum((len(keys) - 1) * (order - min(shifts) + 1) ** 2
                                          for keys, shifts in groups.items())
    passes = sum(count * (order - shift + 1)
                 for shifts in groups.values() for shift, count in shifts.items())
    return weighted(products, 2 * g * n) + passes


def ss_equivariant_series(n, d, g, order):
    """Equivariant Poincare series of the semistable stratum, to the given order.

    Memoized on (n, min(d mod n, -d mod n), g): twisting by a line bundle
    makes the series periodic in d, and dualising sends a type ((n_1, d_1),
    ..., (n_k, d_k)) to ((n_k, -d_k), ..., (n_1, -d_1)) with equal codimension,
    so d and -d give equal series.  One entry keeps the longest series so far
    and serves shorter orders by truncation.  A part's series depends only on
    its key (n_i, min(d_i mod n_i, -d_i mod n_i)) and the product commutes,
    so the types are grouped by the sorted tuple of their part keys, and each
    group's parts are multiplied once, to the order its least shift needs,
    and subtracted once per shift, times the number of its types there.
    The request is planned (``_plan``) before any series is built, then its
    keys are computed from rank 1 up.
    """
    if order < 0:
        raise ValidationError("truncation order must be >= 0")
    residue = min(d % n, -d % n)
    cached = _SS_SERIES.get((n, residue, g))
    if cached is not None and cached.order >= order:
        return cached.truncate(order)
    for (m, r), (top, groups) in reversed(_plan(n, residue, g, order).items()):
        coeffs = classifying_coefficients(m, g, top)
        for keys, shifts in groups.items():
            cut = top - min(shifts)
            parts = [_SS_SERIES[nj, rj, g].truncate(cut) for nj, rj in keys]
            product = prod(parts[1:], start=parts[0])
            for shift, count in shifts.items():
                # most shifts hold one type, and scaling long ints by 1 still copies them
                copy = product.coeffs if count == 1 else map(count.__mul__, product.coeffs)
                coeffs[shift:] = map(sub, coeffs[shift:], copy)
        _SS_SERIES[m, r, g] = Series(coeffs)
    return _SS_SERIES[n, residue, g]


def _plan(n, residue, g, order):
    """{(m, r): (order, groups)}, in falling rank, for each key the request
    must compute; groups maps each sorted part-key tuple to {shift: count},
    the number of its types at each shift 2 codim.  A key's order is the
    longest that a group holding it asks for, and all such groups belong to
    higher ranks, so each key is walked once, at its residue and final
    order, unless the memo serves it.  The walks share one MAX_TYPES count,
    and each key is charged against MAX_SERIES_PRODUCTS as soon as its
    groups are known.
    """
    what = "rank %s at genus %s to order %s" % (shown(n), shown(g), shown(order))
    wanted, plan, spent = {(n, residue): order}, {}, 0
    for m in range(n, 0, -1):
        for r in range(m // 2 + 1):
            top, cached = wanted.get((m, r)), _SS_SERIES.get((m, r, g))
            if top is None or cached is not None and cached.order >= top:
                continue
            types = walk_types(m, r, g, top // 2, what, spent)
            spent += len(types)
            groups = {}
            for codim, parts in types[1:]:
                keys = tuple(sorted((nj, min(dj % nj, -dj % nj)) for nj, dj in parts))
                shifts = groups.setdefault(keys, {})
                shifts[2 * codim] = shifts.get(2 * codim, 0) + 1
            check_budget(what, "weighted coefficient products",
                         _series_charge(m, g, top, groups), MAX_SERIES_PRODUCTS)
            for keys, shifts in groups.items():
                for key in keys:
                    wanted[key] = max(wanted.get(key, 0), top - min(shifts))
            plan[m, r] = top, groups
    return plan


def moduli_poincare(n, d, g):
    """Poincare polynomial of the moduli space of stable bundles (coprime case).

    Computed with slack above the expected top degree 2(n^2(g-1)+1); nonzero
    coefficients beyond the top degree mean the type cutoff is wrong and are
    reported as a violation, as are failures of palindromic symmetry,
    integrality or vanishing at t = -1.
    """
    _check_rank_genus(n, g)
    if gcd(n, d) != 1:
        raise ValidationError("rank and degree must be coprime; 'modrec mass --mode betti' "
                              "gives the semistable mass at any degree")
    top = 2 * (n * n * (g - 1) + 1)
    order = top + TRUNCATION_SLACK
    values = times_one_minus(ss_equivariant_series(n, d, g, order).coeffs, 2)[: order + 1]
    for k in range(top + 1, order + 1):
        if values[k] != 0:
            raise InvariantViolation(
                "coefficient %d above the top degree is %s; wrong truncation"
                % (k, values[k]))
    values = values[: top + 1]
    if values != values[::-1]:
        raise InvariantViolation("moduli polynomial is not palindromic")
    if any(not isinstance(c, int) or c < 0 for c in values):
        raise InvariantViolation("moduli polynomial has bad coefficients")
    if sum(values[0::2]) != sum(values[1::2]):
        raise InvariantViolation("moduli polynomial misses the vanishing at t = -1")
    return Poly.univariate("t", values)


def fixed_determinant_poly(n, d, g):
    """Moduli polynomial with the torus factor (1+t)^{2g} divided out."""
    quot = divexact(moduli_poincare(n, d, g).scalar_coeffs("t"),
                    [comb(2 * g, i) for i in range(2 * g + 1)])
    if quot is None:
        raise InvariantViolation("moduli polynomial is not divisible by (1 + t)^(2g)")
    return Poly.univariate("t", quot)


def clear_caches():
    _SS_SERIES.clear()
