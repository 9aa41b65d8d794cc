"""Symmetric powers of the curve: cohomology polynomials and divisor counts.

The Betti polynomial of the n-th symmetric power is the x^n coefficient of

    (1 + x t)^{2g} / ((1 - x)(1 - x t^2)).

Its coefficients are running sums of the binomials C(2g, i), so it costs
O(n + g) steps.  On the arithmetic side, points of the n-th symmetric power
are effective divisors of degree n, whose generating function is the zeta
function P(t) / ((1 - t)(1 - q t)); its known denominator is divided out in
closed form.  The brute-force oracle counts multisets of closed points
directly instead, from the point counts over F_{q^r} for r <= n, so
``curve.FIELD_SIZE_LIMIT`` bounds its degree.  Polynomials charged more
than MAX_LOOP_STEPS are refused before any loop.
"""

from math import comb

from .errors import ValidationError, check_budget, shown
from .exactalg import Poly, conv, over_one_minus


# A symmetric-power polynomial is charged its 2n + 1 coefficients and its
# min(2g, n) + 1 running sums, each weighted (1 + bits / COEFF_BITS)^2 for
# coefficients of at most bits bits, since printing one is quadratic in its
# length.  README.md gives the slowest admitted requests; past g = 3000 the
# size bound is loose, and --n 1062 --g 1000000 takes 0.3 s.  Every
# symmetric power that matrixdiv's own budget admits at ranks 2-7 and genus
# up to 10^100 is charged under 70,000 steps.
MAX_LOOP_STEPS = 700_000
COEFF_BITS = 1000


def _coeff_bits(g, n):
    """A bound on the bit length of every coefficient of the n-th power."""
    top = max(min(2 * g, n), 1)
    # a coefficient sums C(2g, i) over i <= min(2g, n) in one parity class,
    # so it is below 2^(2g) and below (2g e / top)^top
    return min(2 * g, top * (6 * g // top).bit_length())


def _poincare_steps(g, n):
    entries = 2 * n + 1 + min(2 * g, n) + 1
    return entries * (COEFF_BITS + _coeff_bits(g, n)) ** 2 // COEFF_BITS ** 2


def sym_poincare(g, n):
    """Betti polynomial of the n-th symmetric power of a genus-g curve.

    The coefficient of t^k is the sum of C(2g, i) over i = k mod 2 with
    i <= min(k, 2n - k, 2g), one entry of the running sums of the binomials
    in each parity class."""
    if g < 2:
        raise ValidationError("genus must be at least 2")
    if n < 0:
        raise ValidationError("symmetric power index must be >= 0")
    check_budget("symmetric power %s at genus %s" % (shown(n), shown(g)), "loop steps",
                 _poincare_steps(g, n), MAX_LOOP_STEPS)
    top = min(2 * g, n)
    sums = [1]
    for i in range(1, top + 1):
        sums.append(sums[-1] * (2 * g - i + 1) // i)  # C(2g, i), summed below
    sums = over_one_minus(sums, 2, top + 1)
    # min(k, 2n - k, top) has the parity of k unless it is top = 2g, where
    # the even and the odd binomials both sum to 2^(2g - 1)
    return Poly.univariate("t", [sums[min(k, 2 * n - k, top)] for k in range(2 * n + 1)])


def sym_count(curve, n):
    """Number of degree-n effective divisors, the t^n coefficient of the zeta
    function P(t) / ((1 - t)(1 - q t)):

        sum_{k <= min(n, 2g)} a_k S_(n-k+1),  S_j = (q^j - 1) / (q - 1).

    One power and one division give S_j at the largest k; each smaller k
    then steps S_(j+1) = q S_j + 1.
    """
    if n < 0:
        raise ValidationError("degree must be >= 0")
    q = curve.q
    coeffs = curve.coefficients()[: n + 1]
    s = (q ** (n - len(coeffs) + 2) - 1) // (q - 1)
    count = 0
    for a in reversed(coeffs):
        count += a * s
        s = q * s + 1
    if count < 0:
        raise ValidationError("negative divisor count signals invalid zeta data")
    return count


def divisor_enumerate(model, n):
    """Count effective divisors of degree n as multisets of closed points.

    Closed points of exact degree d are obtained from the extension counts
    N_1..N_n by Moebius inversion; the multiset count is the resulting
    Euler-product coefficient.  Independent of the zeta reconstruction for
    n beyond the genus, which is what makes it an oracle.
    """
    from .curve import check_field_size, count_points

    if n < 0:
        raise ValidationError("degree must be >= 0")
    if n == 0:
        return 1
    check_field_size(model.p, model.k * n)
    counts = {r: count_points(model, r) for r in range(1, n + 1)}
    closed = {}
    for d in range(1, n + 1):
        total = sum(_moebius(d // e) * counts[e] for e in range(1, d + 1) if d % e == 0)
        if total % d:
            raise ValidationError("inconsistent point counts in orbit inversion")
        closed[d] = total // d
    # coefficient of x^n in prod_d (1 - x^d)^(-B_d), with
    # (1 - x^d)^(-b) = sum_k C(b + k - 1, k) x^(dk)
    ways = [1] + [0] * n
    for d in range(1, n + 1):
        b = closed[d]
        if b:
            factor = [0] * (n + 1)
            factor[::d] = [comb(b + k - 1, k) for k in range(n // d + 1)]
            ways = conv(ways, factor, n + 1)
    return ways[n]


def _moebius(n):
    from .curve import _prime_divisors

    primes = _prime_divisors(n)
    return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)
