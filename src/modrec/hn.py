"""Filtration types: tuples of (rank, degree) parts with decreasing slopes.

A type is a plain tuple of parts mu = ((n_1, d_1), ..., (n_r, d_r)) with
positive ranks and d_1/n_1 > ... > d_r/n_r; it indexes one stratum of the
instability stratification.  Two integer-linear forms drive everything:

    codim(mu)         = sum_{l>j} (n_l d_j - n_j d_l + n_l n_j (g-1))
    mass_exponent(mu) = sum_{i<j} (n_i d_j - n_j d_i + n_i n_j (g-1))

whose sum is 2(g-1) sum_{i<j} n_i n_j.  In the prefix ranks
S_k = n_1 + ... + n_k and prefix degrees D_k = d_1 + ... + d_k, with
c_k = n D_k - S_k d, the codimension is

    n codim(mu) = n (g-1) sum_{i<j} n_i n_j + sum_{k<r} (n_k + n_{k+1}) c_k.

Decreasing slopes give c_k >= 1, and c_k = -S_k d mod n, so the least c_k
is ((-S_k d - 1) mod n) + 1.  Every c_k raises the codimension, which makes
the bounded enumeration an integer walk over the D_k, finite and complete.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import InvariantViolation, ValidationError, check_budget, shown

# Most prefix-degree vectors walk_types may test, and most compositions of
# the rank.  moduli_poincare(n, d, g) walks its top call at
# min(d mod n, -d mod n), so d and -d are admitted together: (10, d, 2) tests
# at most 122,787 vectors, (7, d, 5) 108,322, (5, d, 17) 140,170 and
# (4, d, 47) 149,584, while (11, d, 2) needs at least 359,325, (6, d, 9)
# 156,075 and (4, d, 48) 158,665.  README.md gives the time of a walk to the
# limit.
MAX_LATTICE_POINTS = 150_000


def codim(parts, g):
    """Codimension of the stratum labelled by the type parts (0 iff one part)."""
    _check_genus(g)
    total = 0
    for j in range(len(parts)):
        nj, dj = parts[j]
        for l in range(j + 1, len(parts)):
            nl, dl = parts[l]
            total += nl * dj - nj * dl + nl * nj * (g - 1)
    return total


def mass_exponent(parts, g):
    """Exponent of q in the stacky mass of the stratum labelled by parts.

    Counting extensions with the automorphism groupoid gives, per pair of
    parts, dim Ext^1 - dim Hom = n_i d_j - n_j d_i + n_i n_j (g - 1) by
    Riemann-Roch; the exponent is the pair sum.  It satisfies
    mass_exponent + codim = 2 (g-1) sum_{i<j} n_i n_j.
    """
    _check_genus(g)
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


def _compositions_within(n, bound):
    """(composition, pair sum) for each composition of n whose pair sum
    sum_{i<j} n_i n_j is at most bound.  A prefix of sum s and pair sum P
    ends with a pair sum of at least P + s (n - s), so a prefix past the
    bound is cut with all its extensions."""
    out = []

    def extend(prefix, s, pairs):
        if s == n:
            out.append((prefix, pairs))
        for part in range(1, n - s + 1):
            grown = pairs + s * part
            if grown + (s + part) * (n - s - part) <= bound:
                extend(prefix + (part,), s + part, grown)

    extend((), 0, 0)
    return out


def walk_types(n, d, g, max_codim):
    """Yield (codim, parts) for each type of total rank n and degree d with
    codim <= max_codim, the trivial type first and the rest in walk order.

    Compositions whose rank pairs alone cost more than max_codim are never
    built.  For each other composition the prefix degrees D_1, ..., D_{r-1}
    are walked in turn.  D_k is at least floor_k = (least c_k + S_k d) / n,
    and D_{r-1} = d, so part k + 1 has degree at least
    floor_{k+1} - D_{k-1} - d_k; below d_k = (floor_{k+1} - D_{k-1}) n_k //
    (n_k + n_{k+1}) + 1 its slope cannot fall below that of part k.  The
    walk of d_k starts at the larger of that value and the one that puts c_k
    at its least.  A step raises c_k by n, so n codim by (n_k + n_{k+1}) n,
    and raises the slope of part k, so the walk stops at the first value
    past the codimension budget or with a slope not below that of part
    k - 1.  The codimension is read from the running cost, (g - 1) pairs +
    cost / n.  A request that tests more than MAX_LATTICE_POINTS
    prefix-degree vectors, or has more compositions than that, raises
    ValidationError.
    """
    if n < 1:
        raise ValidationError("rank must be positive")
    _check_genus(g)
    if max_codim < 0:
        raise ValidationError("codimension bound must be >= 0")
    # 2^(n-1) compositions pass the limit exactly when n - 1 passes its log2,
    # so no power of n bits is built
    check_budget("rank %s" % shown(n), "log2 compositions (n - 1)", n - 1,
                 MAX_LATTICE_POINTS.bit_length() - 1)
    yield 0, ((n, d),)
    visited = 0
    for comp, pairs in _compositions_within(n, max_codim // (g - 1)):
        r = len(comp)
        if r < 2:
            continue
        budget = n * (max_codim - (g - 1) * pairs)
        prefix = list(accumulate(comp[:-1]))
        weights = [comp[k] + comp[k + 1] for k in range(r - 1)]
        least = [(-s * d - 1) % n + 1 for s in prefix]
        floor = [(c + s * d) // n for c, s in zip(least, prefix)] + [d]
        rest = [0] * r  # least cost of the steps from k on
        for k in range(r - 2, -1, -1):
            rest[k] = rest[k + 1] + weights[k] * least[k]
        if rest[0] > budget:
            continue
        found = []

        def walk(k, D, last, used, degrees):
            nonlocal visited
            if k == r - 1:
                dk = d - D
                if last * comp[k] > dk * comp[k - 1]:
                    found.append(((g - 1) * pairs + used // n, tuple(zip(comp, degrees + [dk]))))
                return
            step = weights[k] * n
            dk = floor[k] - D
            skipped = max(0, (floor[k + 1] - D) * comp[k] // weights[k] + 1 - dk)
            cost = used + weights[k] * least[k] + skipped * step
            dk += skipped
            while True:
                visited += 1
                if visited > MAX_LATTICE_POINTS:
                    check_budget("codimension bound %s" % shown(max_codim), "lattice points",
                                 visited, MAX_LATTICE_POINTS)
                if cost + rest[k + 1] > budget or k and last * comp[k] <= dk * comp[k - 1]:
                    return
                walk(k + 1, D + dk, dk, cost, degrees + [dk])
                cost += step
                dk += 1

        walk(0, 0, None, 0, [])
        yield from found


def enumerate_types(n, d, g, max_codim):
    """walk_types as a list of (codim, parts), sorted by (codim, parts).  The
    walk makes the parts, so a type with a rank below 1 or slopes that do not
    strictly decrease, or a last codimension that codim() does not recompute
    or that passes the bound, is a program fault: InvariantViolation."""
    keyed = sorted(walk_types(n, d, g, max_codim))  # parts differ, so no tie
    for _, parts in keyed:
        falling = all(d1 * n2 > d2 * n1 for (n1, d1), (n2, d2) in zip(parts, parts[1:]))
        if not parts or min(rank for rank, _ in parts) < 1 or not falling:
            raise InvariantViolation("enumeration produced the malformed type %r" % (parts,))
    top, parts = keyed[-1]
    if top > max_codim or codim(parts, g) != top:
        raise InvariantViolation("enumeration produced a wrong or out-of-bound codimension")
    return keyed
