"""Symmetric powers of the curve: cohomology polynomials and divisor counts.

The Betti polynomial of the n-th symmetric power is the x^n coefficient of

    (1 + x t)^{2g} / ((1 - x)(1 - x t^2)).

On the arithmetic side, points of the n-th symmetric power are effective
divisors of degree n, whose generating function is the zeta function; the
brute-force oracle counts multisets of closed points directly instead.
Polynomials charged more than MAX_LOOP_STEPS are refused before any loop.
"""

from __future__ import annotations

from math import comb

from .curve import _prime_divisors, check_field_size, count_points, zeta_Z
from .errors import InvariantViolation, ValidationError
from .exactalg import Poly, series_expand


# A symmetric-power polynomial is charged the steps of its loop plus ROW_PAD
# steps per power of x, for building and printing its coefficients.  Slowest
# admitted requests on the 2-core host, best of 3: symprod --n 2812 --g 1500
# 1.6 s, --n 34631 --g 100 1.5 s and --n 228570 --g 2 1.4 s.  Unbudgeted, the
# first refused request of each family took 1.4-1.6 s; a refusal such as
# symprod --n 100000000 --g 2 exits in 0.1 s.  Every symmetric power that
# matrixdiv's own budget admits is charged under 900,000 steps.
MAX_LOOP_STEPS = 8_000_000
ROW_PAD = 30


def _poincare_steps(g, n):
    return (min(2 * g, n) + 1 + ROW_PAD) * (n + 1)


def sym_poincare(g, n):
    """Betti polynomial of the n-th symmetric power of a genus-g curve."""
    if g < 2:
        raise ValidationError("genus must be at least 2")
    if n < 0:
        raise ValidationError("symmetric power index must be >= 0")
    if _poincare_steps(g, n) > MAX_LOOP_STEPS:
        raise ValidationError("symmetric power %d at genus %d needs more than %d loop steps"
                              % (n, g, MAX_LOOP_STEPS))
    terms = {}
    for i in range(0, min(2 * g, n) + 1):
        c = comb(2 * g, i)
        for b in range(0, n - i + 1):
            k = i + 2 * b
            terms[k] = terms.get(k, 0) + c
    return Poly.univariate("t", [terms.get(k, 0) for k in range(2 * n + 1)])


def sym_count(curve, n):
    """Number of degree-n effective divisors, read off the zeta expansion."""
    if not curve.is_arithmetic:
        raise ValidationError("divisor counts need arithmetic mode")
    if n < 0:
        raise ValidationError("degree must be >= 0")
    coeff = series_expand(zeta_Z(curve), "t", n).coeffs[n]
    if not isinstance(coeff, int):
        raise InvariantViolation("divisor count came out non-integral: %s" % coeff)
    if coeff < 0:
        raise ValidationError("negative divisor count signals invalid zeta data")
    return coeff


DIVISOR_DEGREE_LIMIT = 6


def divisor_enumerate(model, n):
    """Count effective divisors of degree n as multisets of closed points.

    Closed points of exact degree d are obtained from the extension counts
    N_1..N_n by Moebius inversion; the multiset count is the resulting
    Euler-product coefficient.  Independent of the zeta reconstruction for
    n beyond the genus, which is what makes it an oracle.
    """
    if n < 0:
        raise ValidationError("degree must be >= 0")
    if n > DIVISOR_DEGREE_LIMIT:
        raise ValidationError("divisor enumeration is desk-scale: n <= %d" % DIVISOR_DEGREE_LIMIT)
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
    # coefficient of x^n in prod_d (1 - x^d)^(-B_d)
    ways = [0] * (n + 1)
    ways[0] = 1
    for d in range(1, n + 1):
        b = closed[d]
        if b == 0:
            continue
        new = [0] * (n + 1)
        for base in range(n + 1):
            if ways[base] == 0:
                continue
            k = 0
            while base + d * k <= n:
                new[base + d * k] += ways[base] * comb(b + k - 1, k)
                k += 1
        ways = new
    return ways[n]


def _moebius(n):
    primes = _prime_divisors(n)
    return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)
