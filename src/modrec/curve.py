"""Curve models, finite fields, point counts and zeta data.

A curve enters as a hyperelliptic model over a prime field, or directly as
its point counts.  Either way its data is the zeta numerator, kept as its
ascending integer coefficients; the Betti and Hodge specializations of
``modrec.fields`` need only a genus, and take no curve.

Finite fields F_{p^m} are realized as polynomial quotients.  The defining
irreducible is the smallest one in lexicographic order on the ascending
coefficient tuple (c_0, ..., c_{m-1}), so counts are reproducible across
runs.  An element is the int sum c_i p^i of its coefficients, and products
go through exp/log tables of a primitive element, built by one walk for
every p and m.
Fields are capped at FIELD_SIZE_LIMIT elements, the largest size that
counts in a few seconds.
The model is defined over F_p, so Frobenius permutes the points and a count
over F_{p^m} evaluates one x per Frobenius orbit.  No field is cached: each
count builds its own, and a model keeps its counts N_r, so one model builds
each field at most once.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import InvariantViolation, ValidationError, check_budget, shown
from .fields import SpecializationField  # noqa: F401 - still read as curve.SpecializationField

FIELD_SIZE_LIMIT = 2 ** 18


# ---------------------------------------------------------------------------
# arithmetic over F_p[x] (dense ascending int lists)
# ---------------------------------------------------------------------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pmod(a, m, p):
    a, inv_lead = _trim(list(a)), pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        c, shift = a[-1] * inv_lead % p, len(a) - len(m)
        for j, mj in enumerate(m):
            a[shift + j] = (a[shift + j] - c * mj) % p
        _trim(a)
    return a


def _pgcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _ppowmod(base, e, m, p):
    result = [1]
    base = _pmod(list(base), m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _pderiv(a, p):
    return _trim([(k * c) % p for k, c in enumerate(a)][1:])


def _is_irreducible(poly, p):
    """Frobenius criterion for a monic polynomial over F_p."""
    m = len(poly) - 1
    x = [0, 1]
    if _ppowmod(x, p ** m, poly, p) != _pmod(x, poly, p):
        return False
    for ell in _prime_divisors(m):
        g = _pgcd([(a - b) % p for a, b in itertools.zip_longest(
            _ppowmod(x, p ** (m // ell), poly, p), x, fillvalue=0)], poly, p)
        if len(g) - 1 > 0:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _find_irreducible(p, m):
    """Smallest monic irreducible of degree m, lexicographic on (c_0..c_{m-1}).

    For m > 1 every candidate with c_0 = 0 is divisible by x, so the scan
    starts at c_0 = 1; the polynomial found is the same.
    """
    if m == 1:
        return [0, 1]
    for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise InvariantViolation("no irreducible polynomial found (impossible)")


class GF:
    """F_{p^m} with elements as ints sum c_i p^i; exp[k] = g^k, g primitive, and log inverts it.

    The tables come from one walk a -> a * g for every p and m (see
    ``_exp_log``).  Every construction builds its tables; a model keeps its
    counts instead.
    """

    def __new__(cls, p, m):
        check_field_size(p, m)
        self = super().__new__(cls)
        self.p, self.m, self.q = p, m, p ** m
        self.modulus = _find_irreducible(p, m)
        self.exp, self.log = _exp_log(p, m, self.modulus)
        return self


def check_field_size(p, m):
    """Refuse F_{p^m} past FIELD_SIZE_LIMIT, without computing a huge power:
    p^m >= 2^(m floor(log2 p)), so that exponent is checked first."""
    what = "field F_{%s^%s}" % (shown(p), shown(m))
    check_budget(what, "m floor(log2 p)", m * (p.bit_length() - 1),
                 FIELD_SIZE_LIMIT.bit_length() - 1)
    check_budget(what, "p^m", p ** m, FIELD_SIZE_LIMIT)


def _exp_log(p, m, modulus):
    """exp/log tables of the first element g, in encoding order, of order q - 1.

    The walk a -> a * g carries each element as its digit vector packed w
    bits apart, w = bit_length(2p - 2).  Multiplying by g is F_p-linear, so
    it is tabulated on the low h = m // 2 and the high m - h digits, each
    table indexed by a packed half, from the m images x^i g alone: an entry
    whose digit i is d >= 1 is the entry with d - 1 there plus the image of
    x^i.  A sum of two packed entries has digits at most 2p - 2, and p comes
    off each digit >= p at once: a digit below p fits in w - 1 bits, so
    adding 2^(w-1) - p to every digit sets the top bit of exactly those >= p
    and carries out of none.  The walk must come back to 1 after exactly
    q - 1 steps.
    """
    q, powers = p ** m, [p ** i for i in range(m)]
    n = q - 1
    cofactors = [n // ell for ell in _prime_divisors(n)]
    g = next(g for g in range(1, q) if all(
        _ppowmod([g // pw % p for pw in powers], e, modulus, p) != [1] for e in cofactors))
    h, w = m // 2, (2 * p - 2).bit_length()
    top = w - 1

    def pack(digits):
        return sum(d << w * i for i, d in enumerate(digits))

    offset, tops = pack([(1 << top) - p] * m), pack([1 << top] * m)
    gd = [g // pw % p for pw in powers]
    images = [pack(_pmod(_pmul([0] * i + [1], gd, p), modulus, p)) for i in range(m)]

    def half(low, size):  # per packed half: the packed product by g, and the int
        times, code, keys = [0] * (1 << w * size), [0] * (1 << w * size), [0]
        for i in range(low, low + size):
            step, image, unit = 1 << w * (i - low), images[i], powers[i]
            known = len(keys)
            keys = [key + d * step for d in range(p) for key in keys]
            for key in keys[known:]:
                s = times[key - step] + image
                times[key] = s - (((s + offset) & tops) >> top) * p
                code[key] = code[key - step] + unit
        return times, code

    lo_times, lo_code = half(0, h)
    hi_times, hi_code = half(h, m - h)
    shift = w * h
    mask = (1 << shift) - 1
    exp, log = [0] * n, [0] * q
    r = 1
    for k in range(n):
        lo, hi = r & mask, r >> shift
        a = lo_code[lo] + hi_code[hi]
        exp[k] = a
        log[a] = k
        s = lo_times[lo] + hi_times[hi]
        r = s - (((s + offset) & tops) >> top) * p
    if r != 1 or log[1] != 0:
        raise InvariantViolation("%d is not primitive in F_{%d^%d}" % (g, p, m))
    return exp, log


# ---------------------------------------------------------------------------
# hyperelliptic models and point counting
# ---------------------------------------------------------------------------


class HyperellipticModel:
    """y^2 + h(x) y = f(x) over F_{p^k}, with f, h defined over F_p.

    deg f is 2g+1 or 2g+2 and deg h <= g; the affine curve must be smooth.
    ``_counts`` keeps N_r from ``count_points``: FIELD_SIZE_LIMIT admits k r <= 18.
    """

    __slots__ = ("p", "k", "f", "h", "_counts")

    def __init__(self, p, k, f, h):
        if k < 1:
            raise ValidationError("extension exponent k must be >= 1")
        check_field_size(p, k)
        if not _is_prime(p):
            raise ValidationError("p must be prime, got %d" % p)
        f = _trim([c % p for c in f])
        h = _trim([c % p for c in h])
        self.p, self.k, self.f, self.h, self._counts = p, k, tuple(f), tuple(h), {}
        d = len(f) - 1
        if d < 5:
            raise ValidationError("deg f must be at least 5 (genus >= 2)")
        g = (d - 1) // 2
        if len(h) - 1 > g:
            raise ValidationError("deg h must be at most g = %d" % g)
        self._check_affine_smooth()

    @property
    def genus(self):
        return (len(self.f) - 2) // 2

    @property
    def q(self):
        return self.p ** self.k

    def _check_affine_smooth(self):
        p, f, h = self.p, list(self.f), list(self.h)
        if p == 2:
            # y^2 = f(x) degenerates in characteristic 2, and even-degree f
            # can drop genus behind an Artin-Schreier substitution; only the
            # standard odd-degree form keeps the genus bookkeeping honest.
            # Singular points are the common roots of h and h'^2 f - f'^2.
            if not h:
                raise ValidationError("characteristic 2 requires a nonzero h")
            if (len(f) - 1) % 2 == 0:
                raise ValidationError("characteristic 2 requires deg f = 2g + 1")
            fp = _pderiv(f, p)
            hp = _pderiv(h, p)
            crit = [(a - b) % p for a, b in itertools.zip_longest(
                _pmul(_pmul(hp, hp, p), f, p), _pmul(fp, fp, p), fillvalue=0)]
            g = _pgcd(h, _trim(crit), p)
            if len(g) - 1 >= 1:
                raise ValidationError("affine curve is singular in characteristic 2")
        else:
            inv4 = pow(4, p - 2, p)
            hh = _pmul(h, h, p)
            F = [(a + b * inv4) % p for a, b in itertools.zip_longest(f, hh, fillvalue=0)]
            F = _trim(F)
            g = _pgcd(F, _pderiv(F, p), p)
            if len(g) - 1 >= 1:
                raise ValidationError("affine curve is singular (discriminant condition)")


def count_points(model, r):
    """Exact number of points of the smooth model over F_{q^r}.

    Each x adds #{z : z^2 + h(x) z = f(x)}: #{z : z^2 = F(x)}, F = f + h^2/4,
    for odd p; for p = 2 one z if h(x) = 0, else #{z : z^2 + z = f(x)/h(x)^2}.
    """
    if r < 1:
        raise ValidationError("extension degree r must be >= 1")
    if r in model._counts:
        return model._counts[r]
    p, f, h = model.p, model.f, model.h
    if p > 2:
        inv4 = pow(4, p - 2, p)
        f = [(a + b * inv4) % p for a, b in itertools.zip_longest(f, _pmul(h, h, p), fillvalue=0)]
        h = ()
    count, sols = _count_by_tables(GF(p, model.k * r), f, h)
    # points at infinity: one for odd degree; for even degree (odd
    # characteristic only) solve z^2 = lead, i.e. 2 points or none
    model._counts[r] = count + (1 if (len(f) - 1) % 2 else sols[f[-1]])
    return model._counts[r]


def _count_by_tables(K, f, h):
    """Affine count over the field K through its exp/log tables, and the
    table sols: #{z : z^2 = w} for odd p, #{z : z^2 + z = w} for p = 2."""
    p, n, exp, log = K.p, K.q - 1, K.exp, K.log
    sols = bytearray(K.q)
    sols[0] = 1
    squares = (exp * 2)[::2]  # (g^k)^2
    for w in (map(operator.xor, squares, exp) if p == 2 else squares):
        sols[w] += 1

    def value(coeffs, k):  # Horner at x = g^k; an F_p scalar changes digit 0 only
        acc = 0
        for c in reversed(coeffs):
            if acc:
                acc = exp[(log[acc] + k) % n]
            acc += (acc + c) % p - acc % p
        return acc

    def over(a, b):  # #{z : z^2 + a z = b}, the square completed when p is odd
        if a:
            return sols[b and exp[(log[b] - 2 * log[a]) % n]]
        return sols[b] if p > 2 else 1

    count = over(h[0] if h else 0, f[0])  # x = 0
    # f and h lie over F_p, so x = g^k and x^p = g^(pk mod n) add the same
    # term: one k per orbit of k -> pk mod n, weighted by the orbit's size
    seen, k = bytearray(n), 0
    while k >= 0:
        size, j = 0, k
        while True:
            seen[j] = 1
            size += 1
            j = j * p % n
            if j == k:
                break
        count += size * over(value(h, k), value(f, k))
        k = seen.find(0, k + 1)
    return count, sols


# ---------------------------------------------------------------------------
# zeta data
# ---------------------------------------------------------------------------


class CurveData:
    """Genus, the size q of the base field and the degree-2g zeta numerator,
    given as its ascending integer coefficient list (constant term 1) and
    returned as one by ``coefficients``."""

    __slots__ = ("genus", "q", "_coeffs")

    def __init__(self, genus, q, numerator):
        if genus < 2:
            raise ValidationError("genus must be at least 2, got %d" % genus)
        _validate_prime_power(q)
        self.genus, self.q = genus, q
        self._coeffs = _validate_numerator(numerator, q, genus)

    @staticmethod
    def from_model(model):
        check_field_size(model.p, model.k * model.genus)
        counts = [count_points(model, r) for r in range(1, model.genus + 1)]
        return zeta_from_counts(model.q, model.genus, counts)

    def coefficients(self):
        return list(self._coeffs)

    def point_count(self, r):
        """N_r recovered from the zeta numerator via Newton's identities."""
        a = self._coeffs
        e = [(-1) ** k * a[k] for k in range(len(a))]
        power_sums = _power_sums_from_elementary(e, r)
        return self.q ** r + 1 - power_sums[r - 1]

    def class_number(self):
        """P(1) = number of degree-0 divisor classes."""
        return sum(self._coeffs)


# Miller-Rabin on these bases is exact below the bound (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n):
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
    return True


def _validate_prime_power(q):
    if q < 2:
        raise ValidationError("q must be a prime power >= 2")
    if q >= _MR_EXACT_BELOW:
        raise ValidationError("q = %d is past the exact prime-power test, which needs q < %d"
                              % (q, _MR_EXACT_BELOW))
    for k in range(1, q.bit_length()):
        r = 0  # the largest r with r^k <= q, bit by bit
        for b in reversed(range(q.bit_length() // k + 1)):
            if (r | 1 << b) ** k <= q:
                r |= 1 << b
        if r ** k == q and _is_prime(r):
            return
    raise ValidationError("q = %d is not a prime power" % q)


def _power_sums_from_elementary(e, upto):
    """Newton's identities: power sums p_1..p_upto from e_0=1, e_1, e_2, ..."""
    ps = []
    for k in range(1, upto + 1):
        s = sum((-1) ** (i - 1) * e[i] * ps[k - i - 1] for i in range(1, min(k, len(e))))
        ps.append(s + ((-1) ** (k - 1) * k * e[k] if k < len(e) else 0))
    return ps


def _validate_numerator(P, q, g):
    """The ascending coefficient list P of a zeta numerator as a tuple, once
    it passes every check."""
    if len(P) != 2 * g + 1 or not P[-1]:
        raise ValidationError("zeta numerator must have degree 2g in t")
    if any(not isinstance(c, int) for c in P):
        raise ValidationError("zeta numerator needs integer coefficients")
    coeffs = tuple(P)
    if coeffs[0] != 1:
        raise ValidationError("zeta numerator must have constant term 1")
    for i in range(0, g + 1):
        if coeffs[2 * g - i] != q ** (g - i) * coeffs[i]:
            raise ValidationError(
                "functional-equation symmetry fails at coefficient %d" % i)
    # exact coefficient bounds implied by reciprocal roots of norm sqrt(q)
    for i in range(1, 2 * g + 1):
        if coeffs[i] ** 2 > comb(2 * g, i) ** 2 * q ** i:
            raise ValidationError("coefficient %d violates its Weil bound" % i)
    if sum(coeffs) <= 0:
        raise ValidationError("P(1) must be positive (class number)")
    _weil_norm_check(coeffs, q)
    # derived counts must satisfy Hasse-Weil exactly
    e = [(-1) ** k * coeffs[k] for k in range(len(coeffs))]
    for r, s in enumerate(_power_sums_from_elementary(e, 2 * g), start=1):
        if s ** 2 > 4 * g ** 2 * q ** r:
            raise ValidationError("derived count at r=%d violates Hasse-Weil" % r)
    return coeffs


def _weil_norm_check(coeffs, q):
    """Exact check that every root of the numerator has |t| = q^(-1/2).

    With s = 1/t + qt the functional equation gives P(t) = t^g R(s), where
    R(s) = a_g + sum_k a_{g-k} D_k(s) and D_k(1/t + qt) = t^-k + q^k t^k.  A
    root beta of R lifts to the reciprocal roots alpha and q/alpha of P, with
    alpha + q/alpha = beta; both have absolute value sqrt(q) exactly when
    beta is real and beta^2 <= 4q.  So every root of V, defined by V(s^2) =
    (-1)^g R(s) R(-s), must lie in [0, 4q].  Sturm's theorem counts the
    distinct roots there on the squarefree part of V (a chain on V itself
    miscounts when a multiple root sits at an end of the interval).
    """
    S = _squarefree_part(_norm_polynomial(coeffs, q))
    chain = [S, _derivative(S)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _primitive(_divmod(chain[-2], chain[-1])[1])])

    def variations(x):
        signs = [v for v in (sum(c * x ** i for i, c in enumerate(p)) for p in chain) if v]
        return sum((a > 0) != (b > 0) for a, b in zip(signs, signs[1:]))

    if variations(0) - variations(4 * q) + (S[0] == 0) != len(S) - 1:
        raise ValidationError("zeta numerator has a root off the circle |t| = q^(-1/2) "
                              "(norm condition)")


def _norm_polynomial(coeffs, q):
    """V, with V(s^2) = (-1)^g R(s) R(-s), as an ascending int list of
    degree g (see ``_weil_norm_check``)."""
    g = len(coeffs) // 2
    R, D = [coeffs[g]] + [0] * g, [[2], [0, 1]]
    for k in range(1, g + 1):
        R = [r + coeffs[g - k] * c for r, c in itertools.zip_longest(R, D[k], fillvalue=0)]
        D.append([c - q * b for c, b in itertools.zip_longest([0] + D[k], D[k - 1], fillvalue=0)])
    # the odd coefficients of R(s) R(-s) cancel, so V takes the even ones
    sign = (-1) ** g
    return [sign * sum((-1) ** i * R[i] * R[k - i] for i in range(max(0, k - g), min(k, g) + 1))
            for k in range(0, 2 * g + 1, 2)]


def _squarefree_part(V):
    """V / gcd(V, V') by Euclid's algorithm over Q, on ascending lists, with
    each remainder scaled to coprime ints; V has degree >= 1."""
    a, b = V, _derivative(V)
    while b:
        a, b = b, _primitive(_divmod(a, b)[1])
    return _primitive(_divmod(V, a)[0])


def _primitive(a):
    """A list of rationals times the positive rational that makes its
    entries coprime ints (a Sturm chain keeps its signs)."""
    den = lcm(*(Fraction(c).denominator for c in a))
    a = [int(c * den) for c in a]
    content = gcd(*a)
    return [c // content for c in a] if content > 1 else a


def _derivative(a):
    return [k * c for k, c in enumerate(a)][1:]


def _divmod(a, b):
    """Quotient and remainder of ascending coefficient lists over Q; b has a
    nonzero last entry, and the remainder's last entry is nonzero too."""
    a = [Fraction(c) for c in a]
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        c = quot[shift] = a[shift + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            a[shift + j] -= c * bj
    return quot, _trim(a[:len(b) - 1])


def zeta_from_counts(q, g, counts):
    """Reconstruct the zeta numerator from N_1..N_g.

    Power sums S_r = q^r + 1 - N_r determine the first g coefficients via
    Newton's identities; the functional equation supplies the rest.
    """
    _validate_prime_power(q)
    if g < 2:
        raise ValidationError("genus must be at least 2")
    if len(counts) != g:
        raise ValidationError("need exactly g = %d point counts" % g)
    S = [q ** r + 1 - counts[r - 1] for r in range(1, g + 1)]
    e = [Fraction(1)]
    for k in range(1, g + 1):
        # S_k = e_1 S_{k-1} - e_2 S_{k-2} + ... + (-1)^{k-1} k e_k
        acc = Fraction(S[k - 1])
        for i in range(1, k):
            acc -= (-1) ** (i - 1) * e[i] * S[k - i - 1]
        ek = acc / ((-1) ** (k - 1) * k)
        if ek.denominator != 1:
            raise ValidationError("counts are inconsistent: non-integer coefficient")
        e.append(ek)
    a = [1] + [int((-1) ** k * e[k]) for k in range(1, g + 1)]
    a += [q ** (g - i) * a[i] for i in range(g - 1, -1, -1)]
    return CurveData(g, q, a)
