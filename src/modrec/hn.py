"""Filtration types: tuples of (rank, degree) parts with decreasing slopes.

A type is a plain tuple of parts mu = ((n_1, d_1), ..., (n_r, d_r)) with
positive ranks and d_1/n_1 > ... > d_r/n_r; it indexes one stratum of the
instability stratification.  Two integer-linear forms drive everything:

    codim(mu)         = sum_{l>j} (n_l d_j - n_j d_l + n_l n_j (g-1))
    mass_exponent(mu) = sum_{i<j} (n_i d_j - n_j d_i + n_i n_j (g-1))

whose sum is 2(g-1) sum_{i<j} n_i n_j.  A nontrivial type splits into its
first part (n_1, d_1), the maximal destabilising subbundle, and a type of
(n - n_1, d - d_1) whose first slope is below d_1/n_1, and the codimension
is additive across the split:

    codim(mu) = n d_1 - n_1 d + n_1 (n - n_1)(g-1) + codim(rest).

The first part has slope above d/n, so the rest may be the single part
(n - n_1, d - d_1), and every first part within the bound is one type.
"""

from .errors import InvariantViolation, ValidationError, check_budget, shown

# Most types one request may walk, over all its walks (README.md).
MAX_TYPES = 155_000


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


def walk_types(n, d, g, max_codim, what=None, spent=0):
    """List (codim, parts) for each type of total rank n and degree d with
    codim <= max_codim, the trivial type first.

    One recursion on the first part: the remaining (N, D) splits off
    (n_1, d_1) for each n_1 < N, d_1 rising from floor(n_1 D / N) + 1 while
    the codimension is within the bound and the slope below that of the part
    before.  Each (n_1, d_1) tried is one type, closed by the single part
    (N - n_1, D - d_1).  A request's walks share one count: past MAX_TYPES,
    with ``spent`` types walked before this one, the request named by
    ``what`` (by default, the codimension bound) is refused.
    """
    if n < 1:
        raise ValidationError("rank must be positive")
    _check_genus(g)
    if max_codim < 0:
        raise ValidationError("codimension bound must be >= 0")
    # a rank n has 2^(n-1) compositions, checked by the log2 of that count so
    # no power of n bits is built; it also caps the recursion depth
    check_budget("rank %s" % shown(n), "log2 compositions (n - 1)", n - 1,
                 MAX_TYPES.bit_length() - 1)
    if what is None:
        what = "codimension bound %s" % shown(max_codim)
    check_budget(what, "types", spent + 1, MAX_TYPES)
    found = [(0, ((n, d),))]
    room = MAX_TYPES - spent

    def split(prefix, N, D, last_n, last_d, used):
        for n1 in range(1, N):
            d1 = n1 * D // N + 1
            cost = used + N * d1 - n1 * D + n1 * (N - n1) * (g - 1)
            while cost <= max_codim and d1 * last_n < last_d * n1:
                head = prefix + ((n1, d1),)
                found.append((cost, head + ((N - n1, D - d1),)))
                if len(found) > room:
                    check_budget(what, "types", spent + len(found), MAX_TYPES)
                split(head, N - n1, D - d1, n1, d1, cost)
                d1 += 1
                cost += N

    split((), n, d, 0, 1, 0)  # slope 1/0: the first part has no part before
    return found


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
