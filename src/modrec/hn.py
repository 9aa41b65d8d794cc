"""Filtration types: ordered (rank, degree) lists with decreasing slopes.

A type mu = ((n_1, d_1), ..., (n_r, d_r)) with d_1/n_1 > ... > d_r/n_r
indexes one stratum of the instability stratification.  Two integer-linear
forms drive everything:

    codim(mu)         = sum_{l>j} (n_l d_j - n_j d_l + n_l n_j (g-1))
    mass_exponent(mu) = sum_{i<j} (n_i d_j - n_j d_i + n_i n_j (g-1))

whose sum is 2(g-1) sum_{i<j} n_i n_j.  The codimension form is strictly
increasing in the slope gaps, which makes the bounded enumeration finite and
provably complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .errors import InvariantViolation, ValidationError

# Most gap vectors enumerate_types may have to examine.  At rank 2 and 3,
# where the bound below is nearly exact, 2e5 of them take about 5 s on a
# 2-core x86-64 host; moduli_poincare(8, 1, 2) needs at most 3.2e4 per call.
MAX_GAP_VECTORS = 200_000


@dataclass(frozen=True)
class HNType:
    parts: tuple

    def __post_init__(self):
        parts = tuple((int(n), int(d)) for n, d in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValidationError("a type needs at least one part")
        for n, _ in parts:
            if n < 1:
                raise ValidationError("ranks must be positive")
        for (n1, d1), (n2, d2) in zip(parts, parts[1:]):
            if d1 * n2 <= d2 * n1:
                raise ValidationError("slopes must be strictly decreasing")

    @property
    def is_trivial(self):
        return len(self.parts) == 1

    def to_json(self):
        return [[n, d] for n, d in self.parts]

    @staticmethod
    def trivial(n, d):
        return HNType(((n, d),))


def codim(mu, g):
    """Codimension of the stratum labelled by mu (0 iff mu is trivial)."""
    _check_genus(g)
    parts = mu.parts
    total = 0
    for j in range(len(parts)):
        nj, dj = parts[j]
        for l in range(j + 1, len(parts)):
            nl, dl = parts[l]
            total += nl * dj - nj * dl + nl * nj * (g - 1)
    return total


def mass_exponent(mu, g):
    """Exponent of q in the stacky mass of the stratum labelled by mu.

    Counting extensions with the automorphism groupoid gives, per pair of
    parts, dim Ext^1 - dim Hom = n_i d_j - n_j d_i + n_i n_j (g - 1) by
    Riemann-Roch; the exponent is the pair sum.  It satisfies
    mass_exponent + codim = 2 (g-1) sum_{i<j} n_i n_j.
    """
    _check_genus(g)
    parts = mu.parts
    total = 0
    for i in range(len(parts)):
        ni, di = parts[i]
        for j in range(i + 1, len(parts)):
            nj, dj = parts[j]
            total += ni * dj - nj * di + ni * nj * (g - 1)
    return total


def _check_genus(g):
    if g < 2:
        raise ValidationError("genus must be at least 2")


def compositions(n):
    """All ordered tuples of positive integers summing to n."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return out


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


def enumerate_types(n, d, g, max_codim):
    """All types of total rank n and degree d with codim <= max_codim.

    For each composition the codimension is an affine form with positive
    weights in the slope gaps, so a gap-box search with pruning is finite and
    complete.  Output sorted by (codim, parts).  A request whose search
    could visit more than MAX_GAP_VECTORS gap vectors is refused up front
    with ValidationError.
    """
    if n < 1:
        raise ValidationError("rank must be positive")
    _check_genus(g)
    if max_codim < 0:
        raise ValidationError("codimension bound must be >= 0")
    if 2 ** (n - 1) > MAX_GAP_VECTORS:
        raise ValidationError(
            "rank %d has 2^%d compositions, past the budget of %d gap vectors"
            % (n, n - 1, MAX_GAP_VECTORS))
    boxes = []
    for comp in compositions(n):
        r = len(comp)
        if r < 2:
            continue
        base = (g - 1) * sum(comp[i] * comp[j]
                             for i in range(r) for j in range(i + 1, r))
        weights, _ = gap_weights(comp)
        if base + sum(weights) <= max_codim:
            boxes.append((comp, weights, Fraction(max_codim - base)))
    # gaps >= 1 with sum_k w_k gap_k <= B: the unit cubes [gap - 1, gap] are
    # disjoint and lie in the simplex sum_k w_k x_k <= B, x >= 0, so there
    # are at most B^(r-1) / ((r-1)! prod w_k) of them
    work = sum(budget ** len(weights) / (factorial(len(weights)) * prod(weights))
               for _, weights, budget in boxes)
    if work > MAX_GAP_VECTORS:
        raise ValidationError(
            "codimension bound %d needs up to %d gap vectors, past the budget of %d "
            "(about 5 s)" % (max_codim, int(work), MAX_GAP_VECTORS))
    found = [HNType.trivial(n, d)]
    for comp, weights, budget in boxes:
        r = len(comp)

        def search(k, gaps, used):
            if k == r - 1:
                degrees = degrees_from_gaps(comp, d, gaps)
                if degrees is not None:
                    found.append(HNType(tuple(zip(comp, degrees))))
                return
            remaining_min = sum(weights[k + 1:])
            gap = 1
            while used + weights[k] * gap + remaining_min <= budget:
                search(k + 1, gaps + (gap,), used + weights[k] * gap)
                gap += 1

        search(0, (), Fraction(0))
    for mu in found:
        c = codim(mu, g)
        if c > max_codim:
            raise InvariantViolation("enumeration produced an out-of-bound type")
    found.sort(key=lambda mu: (codim(mu, g), mu.parts))
    return found
