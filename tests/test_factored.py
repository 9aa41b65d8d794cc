"""The coefficient-list kernel of exactalg (the product, exact division and
the (1 - y^c) steps) against schoolbook arithmetic, the cyclotomic products
of the factored masses built on it, and the canonical form of their
reductions."""

import random
from fractions import Fraction
from math import comb

import pytest

from modrec.errors import ValidationError
from modrec.exactalg import RatFun, conv, divexact, over_one_minus, times_one_minus
from modrec.factored import BettiFactored, HodgeFactored, _phi_product, cyclotomic

from oracles import ArithPoly


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# coefficients whose bit sizes straddle the byte widths of the integer product
EDGES = [0, 1, -1] + [s * (2 ** (8 * k - 1) + e) for k in (1, 2, 3, 5)
                      for e in (-1, 0, 1) for s in (1, -1)]
# each side of the 8/9 boundary between the two paths (shifted copies /
# integer product), and longer factors up to 60 entries, cut and uncut
LENGTHS = list(range(1, 41)) + [47, 48, 49, 60]


def test_conv_matches_schoolbook():
    # every length pair, uncut and cut at 1, at the shorter length (where
    # both factors reach the cut) and past the full length
    rng = random.Random(20261019)
    for la in LENGTHS:
        for lb in LENGTHS:
            a = [rng.choice(EDGES) for _ in range(la)]
            b = [rng.choice(EDGES) for _ in range(lb)]
            full = schoolbook(a, b)
            assert conv(a, b) == full, (a, b)
            for top in (1, min(la, lb), la + lb + 5):
                assert conv(a, b, top) == full[:top], (a, b, top)
    # a Fraction takes shifted copies at every length, also where int
    # coefficients would take the integer product
    for la, lb in [(1, 1), (3, 8), (9, 9), (12, 30), (47, 47), (48, 48), (49, 60)]:
        a = [Fraction(rng.choice(EDGES), rng.randint(1, 9)) for _ in range(la)]
        b = [rng.choice(EDGES) for _ in range(lb)]
        full = schoolbook(a, b)
        for top in (None, 1, min(la, lb), la + lb + 5):
            assert conv(a, b, top) == full[:top] == conv(b, a, top), (la, lb, top)


def test_conv_signs_and_zeros():
    for n in (1, 8, 9, 40):
        zeros, ones = [0] * n, [-1] * n
        assert conv(zeros, ones) == [0] * (2 * n - 1)
        assert conv(ones, ones) == schoolbook(ones, ones)
        big = [-(2 ** 63 + 1)] * n
        assert conv(big, [0] * 3 + [1]) == [0] * 3 + big
        assert conv(big, big) == schoolbook(big, big)


def test_phi_product_matches_schoolbook():
    for phi in ({1: 1}, {2: 3}, {1: 2, 3: 1, 4: 2}, {5: 1, 6: 2, 12: 1}, {30: 1, 7: 4}):
        want = [1]
        for m, e in phi.items():
            for _ in range(e):
                want = schoolbook(want, cyclotomic(m))
        assert _phi_product(phi) == want, phi
    # the cyclotomic factors of y^12 - 1
    assert _phi_product({d: 1 for d in (1, 2, 3, 4, 6, 12)}) == [-1] + [0] * 11 + [1]


def test_divexact_matches_schoolbook():
    rng = random.Random(17)
    for lq in (1, 2, 5, 12):
        for lb in (1, 2, 3, 9):
            for lead in (1, -1, 3):  # monic, and not
                q = [rng.randint(-9, 9) for _ in range(lq - 1)] + [rng.choice((-2, 1, 7))]
                b = [rng.randint(-9, 9) for _ in range(lb - 1)] + [lead]
                a = schoolbook(q, b)
                assert divexact(a, b) == q, (q, b)
                if lb > 1:  # a remainder of degree below b's
                    a[0] += 1
                    assert divexact(a, b) is None, (a, b)
    # Fraction quotients, of int and of Fraction dividends; ints stay ints
    q = [Fraction(1, 3), 2, Fraction(-5, 2)]
    assert divexact(schoolbook(q, [1, 3]), [1, 3]) == q
    assert divexact([1, 1], [2]) == [Fraction(1, 2), Fraction(1, 2)]
    assert divexact([3, 6], [3]) == [1, 2] and type(divexact([3, 6], [3])[0]) is int
    # a dividend shorter than the divisor
    assert divexact([0, 0], [1, 0, 1]) == [] and divexact([1], [1, 1]) is None


def test_one_minus_steps_match_schoolbook():
    rng = random.Random(23)
    for c in range(1, 7):
        factor = [1] + [0] * (c - 1) + [-1]
        for k in range(4):
            a = [rng.randint(-50, 50) for _ in range(rng.randint(1, 12))]
            want = a
            for _ in range(k):
                want = schoolbook(want, factor)
            assert times_one_minus(a, c, k) == want, (a, c, k)
            if not k:
                continue
            # 1 / (1 - y^c)^k = sum_j C(j + k - 1, k - 1) y^(cj)
            for size in (0, 1, len(a), len(a) + 2 * c + 1):
                geom = [comb(j // c + k - 1, k - 1) if j % c == 0 else 0 for j in range(size)]
                out = a
                for _ in range(k):
                    out = over_one_minus(out, c, size)
                assert out == schoolbook(a, geom)[:size], (a, c, k, size)


def _form(p):
    return p.vars, p.terms


def test_ratfun_parts_carry_only_the_variables_they_use():
    # Poly stores its terms unchecked, so ratfun must hand it canonical ones:
    # structural equality with the named constructors rests on that
    three = BettiFactored.monomial(0, 3).ratfun()
    assert _form(three.num) == ((), {(): 3}) and _form(three.den) == ((), {(): 1})
    assert three == RatFun(ArithPoly.const(3))
    assert _form(BettiFactored(0, {1: [1]}).ratfun().num) == (("t",), {(1,): 1})
    geom = HodgeFactored.geom(1).ratfun()  # 1 / (1 - uv) = -1 / (uv - 1)
    assert _form(geom.num) == ((), {(): -1})
    assert _form(geom.den) == (("u", "v"), {(0, 0): -1, (1, 1): 1})
    u = HodgeFactored(0, {1: [1]}).ratfun()
    assert _form(u.num) == (("u",), {(1,): 1}) and _form(u.den) == ((), {(): 1})
    assert u == RatFun(ArithPoly.var("u"))
    value = HodgeFactored(0, {-1: [1]}) * HodgeFactored.geom(2)
    v_over = value.ratfun()
    assert v_over.num == ArithPoly.var("v") * -1
    assert v_over.den.vars == ("u", "v")
    # from_poly maps the parts N / D back term by term: N == value D
    assert HodgeFactored.from_poly(v_over.num) == value * HodgeFactored.from_poly(v_over.den)
    assert BettiFactored.from_poly(three.num) == 3
    with pytest.raises(ValidationError):  # a polynomial in the field's variables only
        BettiFactored.from_poly(u.num)
