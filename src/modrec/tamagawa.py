"""Arithmetic recursion for stacky masses of semistable bundles.

The total mass of all rank-n bundles of a fixed degree, weighted by
1/#Aut, is the zeta-value product

    total(n) = P(1)/(q-1) * q^{(n^2-1)(g-1)} * zeta(2) ... zeta(n)

(the mass-formula normalization of the volume of the integral subgroup,
together with the count of line-bundle twists).  Subtracting, per
filtration type, q^{mass_exponent} times the product of lower-rank
semistable masses leaves the semistable mass beta(n, d).  Zagier's
inversion of that recursion is a closed-form sum over the compositions of n
of products of total masses.  Its exponents telescope to integers per part,
so ``ss_mass`` computes it as a programme over prefix sums (``_zagier_sum``),
and ``_tail_bound`` sums the Siegel tail over classes of compositions.

The test oracles in ``tests/oracles.py`` are the term-by-term closed form,
the tail bound per composition, and the recursion itself, whose degree sum
per composition collapses on each residue cell of the slope-gap lattice to
a product of geometric series.

The code is written once for every field of ``SpecializationField``: it
uses only the field's q-powers, 1 / (1 - q^c), P(q^e) and zeta values,
field arithmetic and the literals 0 and 1.  The numeric field's elements
are plain ints and Fractions, so numeric masses, counts and Siegel reports
come out as exact rational numbers with no wrapping.  In the Betti
(q = t^2) and Hodge (q = u v) fields every total mass and every state of
the programme is a ``Factored`` element, an integer numerator over a
product of factors (1 - q^c), so its sums and products run no gcd; the
mass is reduced to a canonical ``RatFun`` once, at the end of ``ss_mass``.
The same formulas thus give Poincare series and their Hodge refinements.
Masses and counts need no filtration types, so ``hn`` is loaded only by
``siegel_check``.
"""

from collections import namedtuple
from fractions import Fraction
from math import comb, gcd

from .errors import InvariantViolation, ValidationError, check_budget, shown
from .fields import SpecializationField


def total_mass(n, field):
    """Total stacky mass of rank-n bundles of any one degree (it does not
    depend on the degree), memoized per field instance on n (in its own
    store, apart from the semistable masses)."""
    if n < 1:
        raise ValidationError("rank must be positive")
    cached = field.total_cache.get(n)
    if cached is not None:
        return cached
    g = field.genus
    value = -field.P_one() * field.geom(1)  # P(1) / (q - 1)
    value = value * field.q_power((n * n - 1) * (g - 1))
    for i in range(2, n + 1):
        value = value * field.zeta(i)
    field.total_cache[n] = value
    return value


# Largest rank ss_mass accepts in the Betti and Hodge fields; README.md
# gives the slowest admitted mass at each.
MASS_RANK_LIMIT = {SpecializationField.BETTI: 26,
                   SpecializationField.HODGE: 11}

# A numeric mass works on Fractions of about n^2 g log q bits, so it is
# charged n^6 bits(q)^2 g and refused past this charge, which alone bounds
# its rank.  Rank 64 over F_2 at g = 2 is admitted; README.md gives the
# slowest admitted masses.
NUMERIC_MASS_CHARGE = 6 * 10 ** 11

# siegel_check keeps M + 1 levels of Fractions of about M bits(q) bits, and
# their arithmetic and printing are quadratic in that size, so it is charged
# (M + 1) (M bits(q))^2, measured over q from 2 to 2^61 - 1 (README.md).
SIEGEL_CHARGE = 5 * 10 ** 11


def _zagier_sum(n, d, field):
    """Closed inversion of the Harder-Narasimhan recursion (Zagier 1996).

    The sum over compositions n = n_1 + ... + n_k, with prefix sums s_i, of

        prod_i total(n_i) * q^((g-1) sum_{i<j} n_i n_j + E)
            * prod_{i<k} 1 / (1 - q^(n_i + n_{i+1})),

    E = sum_{i<k} (n_i + n_{i+1}) (u_{s_i} - s_i d / n), u_s = ceil(s d / n).
    As sum_{i<k} (n_i + n_{i+1}) s_i = n s_{k-1}, E telescopes to the integer
    sum_{i<k} (n_i + n_{i+1}) u_{s_i} - d s_{k-1}, which splits over parts.
    So the sum is a programme over the O(n^2) states (prefix s, last part a):
    the state (s + b, b) sums the states (s, a) times 1 / (1 - q^(a+b)), then
    multiplies once by the weight of its last part.
    """
    g = field.genus
    alpha = [None] + [total_mass(m, field) for m in range(1, n + 1)]
    up = [-(-s * d // n) for s in range(n)]
    geom = [None] + [field.geom(c) for c in range(1, n + 1)]

    def part(s, b):
        t = s + b
        e = b * up[s] + (g - 1) * s * b + (b * up[t] if t < n else -d * s)
        return alpha[b] * field.q_power(e)

    # states[s][a]: the sum over compositions of s whose last part is a
    states = [{}] + [{a: part(0, a)} for a in range(1, n + 1)]
    for s in range(1, n):
        for b in range(1, n - s + 1):
            inner = sum(value * geom[a + b] for a, value in states[s].items())
            states[s + b][b] = inner * part(s, b)
    return sum(states[n].values())


def ss_mass(n, d, field):
    """Stacky mass of semistable rank-n degree-d bundles in the given field.

    Memoized per field instance on (n, r), r = min(d mod n, -d mod n), and
    computed at r: twisting by a degree-1 line bundle shifts d by n, and
    dualising sends d to -d, without changing the mass, and the programme's
    q-powers grow with d.  Numeric masses past NUMERIC_MASS_CHARGE, and
    Betti and Hodge ranks past the field's MASS_RANK_LIMIT, are refused with
    ValidationError.  Betti and Hodge masses come out of the programme in
    factored form and are reduced once, here, to a ``RatFun``.
    """
    if n < 1:
        raise ValidationError("rank must be positive")
    if field.mode == SpecializationField.NUMERIC:
        bits = field.curve.q.bit_length()
        check_budget("numeric mass of rank %s over q = %s at genus %s"
                     % (shown(n), shown(field.curve.q), shown(field.genus)),
                     "n^6 bits(q)^2 g", n ** 6 * bits * bits * field.genus, NUMERIC_MASS_CHARGE)
    else:
        check_budget("%s mass" % field.mode, "rank", n, MASS_RANK_LIMIT[field.mode])
    key = (n, min(d % n, -d % n))
    cached = field.mass_cache.get(key)
    if cached is not None:
        return cached
    value = field.reduce(_zagier_sum(n, key[1], field))
    if field.mode == SpecializationField.NUMERIC and value <= 0:
        raise InvariantViolation("numeric semistable mass is not positive")
    field.mass_cache[key] = value
    return value


def matches_moduli_polynomial(mass, poly, field):
    """True when (q - 1) mass equals the polynomial ``poly``, for a reduced
    Betti or Hodge mass N / D: the sides are cross-multiplied in the field,
    N (q - 1) == poly D, so the comparison needs no gcd."""
    element = field.element
    return element(mass.num) * (field.q - 1) == element(poly) * element(mass.den)


def stable_count(n, d, field):
    """Exact number of stable bundles of coprime rank and degree.

    Every stable bundle has automorphism group the nonzero scalars, so the
    count is (q - 1) times the semistable mass; it must come out a
    non-negative integer, and anything else means a formula bug.
    """
    _require_numeric(field)
    if gcd(n, d) != 1:
        raise ValidationError("rank and degree must be coprime for stable counts")
    value = (field.q - 1) * ss_mass(n, d, field)
    if value.denominator != 1 or value < 0:
        raise InvariantViolation("stable count %s is not a non-negative integer" % value)
    return int(value)


def fixed_determinant_count(n, d, field):
    """Stable bundles with one fixed determinant: the count divided by P(1)."""
    count = stable_count(n, d, field)
    classes = field.P_one()
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
        return {
            "n": self.n,
            "d": self.d,
            "mode": self.mode,
            "value": str(Fraction(self.semistable)),
            "total": str(Fraction(self.total)),
            "partial_sums": [str(Fraction(v)) for v in self.partial_sums],
            "gaps": [str(Fraction(v)) for v in self.gaps],
            "tail_bound": str(Fraction(self.tail_bound)),
        }


def siegel_check(n, d, field, max_codim):
    """Partial sums of stratum masses must climb to the total mass.

    The semistable term plus all strata of codimension <= level is compared
    with the zeta-value total for every level up to ``max_codim``; the gaps
    must shrink monotonically and the final gap must sit below a geometric
    tail bound computed from the ratios actually used.  Types are enumerated,
    and the levels charged against SIEGEL_CHARGE, before any mass.  A
    stratum's mass is q^(2 (g-1) sum_{i<j} n_i n_j - codim) times the masses
    of its parts, so each tuple of part keys (n_i, d_i mod n_i) gets one
    weight, and each level, the codimension the walk read off, sums the
    weights of its strata over q^level.  README.md times the slowest checks.
    """
    from .hn import enumerate_types

    _require_numeric(field)
    if max_codim < 0:
        raise ValidationError("codimension bound must be >= 0")
    types = enumerate_types(n, d, field.genus, max_codim)
    size = max_codim * field.curve.q.bit_length()
    check_budget("codimension bound %s at rank %s over q = %s"
                 % (shown(max_codim), shown(n), shown(field.curve.q)),
                 "(M + 1) (M bits(q))^2", (max_codim + 1) * size * size, SIEGEL_CHARGE)
    total = total_mass(n, field)
    beta = ss_mass(n, d, field)
    weights, sums = {}, {}
    for c, parts in types[1:]:  # types[0] is the trivial type, alone at codim 0
        keys = tuple(sorted((nj, dj % nj) for nj, dj in parts))
        if keys not in weights:
            pairs = sum(a * b for i, (a, _) in enumerate(keys) for b, _ in keys[i + 1:])
            value = field.q_power(2 * (field.genus - 1) * pairs)
            for nj, rj in keys:
                value = value * ss_mass(nj, rj, field)
            weights[keys] = value
        sums[c] = sums.get(c, 0) + weights[keys]
    level_mass = {c: value / field.q_power(c) for c, value in sums.items()}
    partials, gaps = [], []
    acc = beta
    for level in range(max_codim + 1):
        acc += level_mass.get(level, 0)
        partials.append(acc)
        gap = total - acc
        if gap < 0 or (n > 1 and gap == 0):
            raise InvariantViolation("partial sums overshoot the total mass")
        if gaps and gap > gaps[-1]:
            raise InvariantViolation("gaps must be non-increasing")
        if gaps and level in level_mass and not gap < gaps[-1]:
            raise InvariantViolation("gap failed to shrink on an occupied level")
        gaps.append(gap)
    bound = _tail_bound(n, field, max_codim)
    if gaps[-1] > bound:
        raise InvariantViolation(
            "final gap %s exceeds the geometric tail bound %s" % (gaps[-1], bound))
    return SiegelReport(n, d, field.mode, total, beta,
                        tuple(partials), tuple(gaps), bound)


def _tail_bound(n, field, max_codim):
    """Rigorous overcount of all stratum masses with codim > max_codim.

    Per composition into r >= 2 parts with G = (g-1) sum_{i<j} n_i n_j,
    every such stratum has mass q^{2G - c} times a product of part masses,
    each at most M(n_i), the max of ss_mass(n_i, r) over r <= n_i / 2 (by
    duality, over every residue), and at most (c - G + 1)^{r-2} strata have
    codimension c.  A composition enters only through r, its pair sum P and
    the product of its M(n_i), so W[s] sums those products over the
    compositions of s by (r, P), appending parts b < n; each class adds
    q^{2G} W times the tail sum, in closed form.
    """
    g = field.genus
    q = field.q
    x = 1 / q
    top = [None] + [max(ss_mass(m, res, field) for res in range(m // 2 + 1))
                    for m in range(1, n)]
    weights = [{(0, 0): Fraction(1)}] + [{} for _ in range(n)]
    for s in range(n):
        for (r, P), w in weights[s].items():
            for b in range(1, min(n - s, n - 1) + 1):
                key = (r + 1, P + s * b)
                row = weights[s + b]
                row[key] = row.get(key, 0) + w * top[b]
    powers = {}
    bound = Fraction(0)
    for (r, P), w in weights[n].items():
        G = (g - 1) * P
        start = max(max_codim + 1, G + 1)
        tail = Fraction(0)
        # sum_{c >= start} (c - G + 1)^(r-2) x^c, exact
        p = r - 2
        for s in range(p + 1):
            if (s, start) not in powers:
                powers[s, start] = _power_tail(x, s, start)
            tail += comb(p, s) * (1 - G) ** (p - s) * powers[s, start]
        bound += q ** (2 * G) * w * tail
    return bound


def _power_tail(x, p, start):
    """sum_{i >= start} i^p x^i as an exact Fraction, for 0 < x < 1.

    With i = start + j the sum is x^start sum_k C(p, k) start^(p-k) S_k(x),
    where S_k(x) = sum_{j >= 0} j^k x^j = N_k(x) / (1 - x)^(k+1) and the
    integer numerators come from the derivative recurrence
    S_k = x dS_{k-1}/dx: N_k = x (N_{k-1}' (1 - x) + k N_{k-1}).
    """
    num, scale = [1], 1 - x
    tail = start ** p / scale  # k = 0, N_0 = 1
    for k in range(1, p + 1):
        deriv = [i * c for i, c in enumerate(num)][1:]
        num = [0] + [k * c + d - e for c, d, e in zip(num, deriv + [0], [0] + deriv)]
        scale *= 1 - x
        value = 0
        for c in reversed(num):
            value = value * x + c
        tail += comb(p, k) * start ** (p - k) * value / scale
    return x ** start * tail
