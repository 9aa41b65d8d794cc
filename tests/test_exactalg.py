"""Exact arithmetic layer: spec'd examples, ring axioms, canonical forms.

The long-division oracle below is written independently of the library's
series code: it works on dense Fraction lists and nothing else.
"""

import operator
import random
from fractions import Fraction

import pytest

import oracles
from modrec import exactalg
from modrec.errors import ValidationError
from modrec.exactalg import (
    Poly,
    RatFun,
    fraction_to_str,
    poly_to_json,
    ratfun_to_json,
)

from oracles import (
    ArithPoly,
    ReducingRatFun,
    coefficient,
    divexact_sparse,
    evaluate,
    graded_poly_divexact,
    graded_poly_gcd,
    poly_divexact,
    poly_gcd,
    scaled,
    series_expand,
    signed_content,
    substitute,
)

T = ArithPoly.var("t")
U = ArithPoly.var("u")
V = ArithPoly.var("v")


def dense(p, var="t", upto=None):
    return p.scalar_coeffs(var, upto=upto)


def longdiv_oracle(num, den, order):
    """Power-series quotient of dense Fraction lists, written from scratch."""
    num = [Fraction(c) for c in num] + [Fraction(0)] * order
    den = [Fraction(c) for c in den]
    assert den[0] != 0
    out = []
    for n in range(order + 1):
        c = num[n]
        for k in range(1, min(n, len(den) - 1) + 1):
            c -= den[k] * out[n - k]
        out.append(c / den[0])
    return out


# -- rational function arithmetic -------------------------------------------


def test_additive_inverse_is_zero():
    f = ReducingRatFun(1, ArithPoly.one() - T)
    assert (f + (-f)).is_zero
    assert f + (-f) == ReducingRatFun.zero()


def test_normalization_cancels_common_factor():
    f = ReducingRatFun(ArithPoly.one() - T ** 2, ArithPoly.one() - T)
    assert f * ReducingRatFun.one() == ReducingRatFun(ArithPoly.one() + T)
    assert f.is_poly and f.as_poly() == ArithPoly.one() + T


def test_division_example_against_series_oracle():
    lhs = (ReducingRatFun((ArithPoly.one() + T) ** 4, ArithPoly.one() - T ** 2)
           / (ArithPoly.one() + T))
    rhs = ReducingRatFun((ArithPoly.one() + T) ** 2, ArithPoly.one() - T)
    assert lhs == rhs
    got = series_expand(lhs, "t", 6).coeffs
    want = longdiv_oracle(dense((ArithPoly.one() + T) ** 2, upto=6), [1, -1], 6)
    assert got == want


def test_division_by_zero_raises():
    f = ReducingRatFun(1, ArithPoly.one() - T)
    with pytest.raises(ZeroDivisionError):
        f / ReducingRatFun.zero()
    with pytest.raises(ZeroDivisionError):
        ReducingRatFun(ArithPoly.one(), ArithPoly.zero())


# -- series expansion ---------------------------------------------------------


def test_geometric_series():
    f = ReducingRatFun(1, ArithPoly.one() - T)
    assert series_expand(f, "t", 3).coeffs == [1, 1, 1, 1]
    assert series_expand(f, "t", 0).coeffs == [1]


def test_series_example_from_long_division():
    f = ReducingRatFun((ArithPoly.one() + T) ** 4, ArithPoly.one() - T ** 2)
    got = series_expand(f, "t", 2).coeffs
    assert got == longdiv_oracle([1, 4, 6, 4, 1], [1, 0, -1], 2)
    assert got == [1, 4, 7]


def test_series_pole_detection():
    with pytest.raises(ValidationError):
        series_expand(ReducingRatFun(1, T), "t", 3)


def test_series_multiplicativity():
    rng = random.Random(20260809)
    for _ in range(25):
        f = _random_ratfun(rng)
        g = _random_ratfun(rng)
        order = 8
        sf = series_expand(f, "t", order)
        sg = series_expand(g, "t", order)
        assert sf * sg == series_expand(f * g, "t", order)


# -- substitution -------------------------------------------------------------


def test_substitute_examples():
    f = ReducingRatFun(U - 1)
    assert f.substitute({"u": ReducingRatFun(T ** 2)}) == ReducingRatFun(T ** 2 - 1)

    p = ReducingRatFun(ArithPoly.one() + 4 * V ** 4)
    val = p.substitute({"v": ReducingRatFun(Fraction(1, 4))})
    assert val.const_value() == Fraction(65, 64)

    f = ReducingRatFun(U, U - 1)
    assert f.substitute({"u": ReducingRatFun(T ** 2)}) == ReducingRatFun(T ** 2, T ** 2 - 1)


def test_substitute_vanishing_denominator():
    f = ReducingRatFun(1, U - 1)
    with pytest.raises(ZeroDivisionError):
        f.substitute({"u": ReducingRatFun.one()})


def test_substitute_then_expand_commutes():
    rng = random.Random(7)
    for _ in range(15):
        f = _random_ratfun(rng)
        binding = {"t": Poly.univariate("t", [0, rng.randint(1, 3)])}
        lhs = series_expand(f.substitute(binding), "t", 6)
        # expand then substitute coefficientwise: substitute t -> c*t in the
        # truncated series means scaling coefficient k by c**k
        c = binding["t"].scalar_coeffs("t")[1]
        rhs = [v * c ** k for k, v in enumerate(series_expand(f, "t", 6).coeffs)]
        assert lhs.coeffs == rhs


# -- ring axioms on randomized inputs ------------------------------------------


def _random_poly(rng, vars=("t",), max_deg=3):
    p = ArithPoly.zero()
    for _ in range(rng.randint(1, 4)):
        term = ArithPoly.const(rng.randint(-4, 4))
        for v in vars:
            term = term * ArithPoly.var(v) ** rng.randint(0, max_deg)
        p = p + term
    return p


def _random_ratfun(rng):
    num = _random_poly(rng)
    den = ArithPoly.zero()
    while den.is_zero or coefficient(den, "t", 0).is_zero:
        den = ArithPoly.one() + ArithPoly.var("t") * _random_poly(rng)
        if rng.random() < 0.3:
            den = den * (ArithPoly.one() - ArithPoly.var("t") ** rng.randint(1, 2))
        if coefficient(den, "t", 0).is_zero:
            den = den + 1
    return ReducingRatFun(num, den)


def test_ring_axioms():
    rng = random.Random(12345)
    for _ in range(40):
        a, b, c = (_random_ratfun(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _random_uv_poly(rng, max_deg):
    """A random f(uv) with f(0) != 0."""
    w = U * V
    return sum((rng.randint(-4, 4) * w ** k for k in range(1, rng.randint(1, max_deg) + 1)),
               ArithPoly.const(rng.choice([-3, -2, -1, 1, 2, 3])))


def _graded_gcd_cases(seed, count):
    """Pairs A = p * planted, B = m * f(uv) * planted with planted = u^a v^b h(uv)."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        p = _random_poly(rng, vars=("u", "v"), max_deg=3)
        if p.is_zero:
            continue
        planted = U ** rng.randint(0, 2) * V ** rng.randint(0, 2) * _random_uv_poly(rng, 2)
        m = U ** rng.randint(0, 3) * V ** rng.randint(0, 3)
        f = _random_uv_poly(rng, 3)
        if len(cases) % 2:
            # every graded piece of p but one shares the factor e(uv) with f
            e = (ArithPoly.const(rng.choice([1, 2]))
                 + rng.choice([-1, 1, 3]) * (U * V) ** rng.randint(1, 2))
            p = e * p + rng.choice([U, V]) ** rng.randint(1, 3)
            f = f * e
        cases.append((p * planted, m * f * planted, planted))
    return cases


def test_graded_gcd_randomized():
    poly_gcd, poly_divexact = graded_poly_gcd, graded_poly_divexact
    for a, b, planted in _graded_gcd_cases(31337, 40):
        g = poly_gcd(a, b)
        assert poly_divexact(a, g) * g == a
        assert poly_divexact(b, g) * g == b
        poly_divexact(g, planted)
        assert poly_gcd(b, a) == g
        assert signed_content(g) == 1
        # idempotence: gcd of g with either argument is g again
        assert poly_gcd(g, a) == g


def test_graded_gcd_is_maximal_against_univariate_gcd():
    # g(u, v0) divides the gcd of the specializations, and u-degrees agree
    # for a generic v0: an independent check that g is the whole gcd
    for a, b, _ in _graded_gcd_cases(2718, 25):
        deg = graded_poly_gcd(a, b).degree("u")
        seen = []
        for v0 in (2, -3, 5, 7, -11):
            special = poly_gcd(substitute(a, {"v": v0}), substitute(b, {"v": v0}))
            seen.append(special.degree("u"))
        assert min(seen) == deg, (a, b, seen)


def test_graded_gcd_examples(graded_gcd):
    poly_gcd = graded_poly_gcd
    w = ArithPoly.one() - U * V
    # normalized to a positive lexicographic leading coefficient
    assert (poly_gcd(U ** 2 * V * w * (U - V), U * V ** 3 * w * (ArithPoly.one() + U * V))
            == -U * V * w)
    assert poly_gcd(U * (ArithPoly.one() + U), V) == ArithPoly.one()
    # w divides the u^0 piece of w + u but not its u^1 piece
    assert poly_gcd(w + U, w) == ArithPoly.one()
    assert poly_gcd(V * w, V * (V * w + U * w ** 2 + U ** 2)) == V
    f = ReducingRatFun((ArithPoly.one() + U * V) * (U + V), U * (ArithPoly.one() - (U * V) ** 2))
    assert f == ReducingRatFun(U + V, U * (ArithPoly.one() - U * V))


def test_multivariate_gcd_refusals():
    # neither argument has the shape u^i v^j f(uv)
    with pytest.raises(ValidationError):
        graded_poly_gcd((U + V) * (U - V), (U + V) * (ArithPoly.one() + U + V))
    # the plain gcd and division are univariate
    with pytest.raises(ValidationError):
        poly_gcd(U * V, ArithPoly.one() - U * V)
    with pytest.raises(ValidationError):
        poly_divexact(U * (ArithPoly.one() - U * V), ArithPoly.one() - U * V)
    # variables outside {u, v}
    with pytest.raises(ValidationError):
        poly_gcd(T + U, ArithPoly.one() + T * U)
    # a rational binding would need a gcd outside that domain
    with pytest.raises(ValidationError):
        ReducingRatFun(T).substitute({"t": ReducingRatFun(1, ArithPoly.one() - T)})
    # q and x are not variables: every q-denominator is specialized first
    with pytest.raises(ValidationError):
        ArithPoly.var("q")


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Poly.univariate("t", [0.5, 1])
    with pytest.raises(ValidationError):
        RatFun(0.5)


def test_normalization_idempotent():
    rng = random.Random(99)
    for _ in range(25):
        f = _random_ratfun(rng)
        again = ReducingRatFun(f.num, f.den)
        assert again.num == f.num and again.den == f.den
        # denominator canonical: integer, coprime, positive leading coefficient
        assert signed_content(f.den) == 1


# -- serialization ----------------------------------------------------------------


def test_poly_json_roundtrip():
    # the emitted form is the literal document, and its strings give p back
    p = Poly.univariate("t", [1, Fraction(-3, 2), 0, 7])
    obj = poly_to_json(p)
    assert obj == {"var": "t", "coeffs": ["1", "-3/2", "0", "7"]}
    assert Poly.univariate(obj["var"], [Fraction(c) for c in obj["coeffs"]]) == p
    assert poly_to_json(ArithPoly.const(Fraction(5, 3))) == {"var": None, "coeffs": ["5/3"]}
    assert poly_to_json(ArithPoly.zero()) == {"var": None, "coeffs": ["0"]}


def test_ratfun_json_roundtrip():
    f = ReducingRatFun((ArithPoly.one() + T) ** 2, ArithPoly.one() - T)
    obj = ratfun_to_json(f)
    # canonical form: the denominator's leading coefficient is positive
    assert obj == {"num": {"var": "t", "coeffs": ["-1", "-2", "-1"]},
                   "den": {"var": "t", "coeffs": ["-1", "1"]}}
    num, den = (Poly.univariate("t", [Fraction(c) for c in obj[k]["coeffs"]])
                for k in ("num", "den"))
    assert RatFun(num, den) == f


def test_multivariate_json_roundtrip(graded_gcd):
    u, v = ArithPoly.var("u"), ArithPoly.var("v")
    p = ArithPoly.one() + 2 * u + 2 * v + u * v
    obj = poly_to_json(p)
    assert obj == {"vars": ["u", "v"],
                   "terms": [[[0, 0], "1"], [[0, 1], "2"], [[1, 0], "2"], [[1, 1], "1"]]}
    assert Poly(tuple(obj["vars"]), {tuple(e): int(c) for e, c in obj["terms"]}) == p
    assert ratfun_to_json(ReducingRatFun(p, ArithPoly.one() - u * v)) == {
        "num": {"vars": ["u", "v"],
                "terms": [[[0, 0], "-1"], [[0, 1], "-2"], [[1, 0], "-2"], [[1, 1], "-1"]]},
        "den": {"vars": ["u", "v"], "terms": [[[0, 0], "-1"], [[1, 1], "1"]]}}


def test_fraction_strings():
    assert fraction_to_str(Fraction(65, 24)) == "65/24"
    assert fraction_to_str(75) == "75"


# -- dense univariate exact division -----------------------------------------


def _random_univar(rng, max_deg, fractions):
    coeffs = []
    for _ in range(rng.randint(0, max_deg) + 1):
        c = rng.randint(-6, 6)
        if fractions and rng.random() < 0.4:
            c = Fraction(c, rng.randint(1, 5))
        coeffs.append(c)
    if not coeffs[-1]:
        coeffs[-1] = rng.choice([-3, -1, 1, 2, Fraction(2, 3) if fractions else 5])
    return ArithPoly.univariate("t", coeffs)


def test_univariate_divexact_matches_sparse_loop():

    rng = random.Random(4242)
    for trial in range(200):
        fractions = trial % 2 == 1
        a = _random_univar(rng, 8, fractions)
        b = _random_univar(rng, 5, fractions)
        if b.is_const:
            b = b + T
        got = poly_divexact(a * b, b)
        assert got == a
        assert got == divexact_sparse(a * b, b, "t")
        # a nonzero remainder of lower degree makes the division non-exact
        r = Poly.univariate("t", [rng.randint(1, 4)]
                            + [rng.randint(-3, 3) for _ in range(b.degree("t") - 1)])
        with pytest.raises(ValidationError):
            poly_divexact(a * b + r, b)
        with pytest.raises(ValidationError):
            divexact_sparse(a * b + r, b, "t")


def test_univariate_divexact_edge_cases():

    # a constant by a polynomial of positive degree is never exact
    with pytest.raises(ValidationError):
        poly_divexact(ArithPoly.const(3), ArithPoly.one() + T)
    # non-monic divisors keep the quotient exact and integral where it is
    cyclo = ArithPoly.one() + T + T ** 2
    assert poly_divexact((2 * T - 3) * cyclo, 2 * T - 3) == cyclo
    assert poly_divexact(ArithPoly.one() - T ** 12, ArithPoly.one() - T ** 4) == (
        ArithPoly.one() + T ** 4 + T ** 8)


def test_series_expand_needs_scalar_coefficients():
    f = ReducingRatFun(ArithPoly.one(), ArithPoly.one() - U * T)
    with pytest.raises(ValidationError):
        series_expand(f, "t", 3)
    f = ReducingRatFun(ArithPoly.one(), ArithPoly.one() - U)
    assert series_expand(f, "u", 2).coeffs == [1, 1, 1]


# -- integer path ------------------------------------------------------------------


def _int_coefficients(values):
    return all(type(c) is int for c in values)


def test_int_inputs_give_int_coefficients():
    rng = random.Random(606)
    for vars in [("t",), ("u", "v"), ("t", "u", "v")]:
        for _ in range(20):
            a = _random_poly(rng, vars=vars)
            b = _random_poly(rng, vars=vars)
            for p in (a + b, a - b, a * b, a ** 3, -a):
                assert _int_coefficients(p.terms.values()), p
    p = Poly.univariate("t", [3, 0, -2, 0, 0])
    assert p.terms == {(0,): 3, (2,): -2} and _int_coefficients(p.terms.values())
    f = ReducingRatFun(ArithPoly.one() + T ** 3, (ArithPoly.one() - T) * (ArithPoly.one() - T ** 2))
    s = series_expand(f, "t", 12)
    assert _int_coefficients(s.coeffs)
    assert _int_coefficients((s * s).coeffs)


def test_integral_fractions_come_back_as_int():
    half = Fraction(1, 2)
    assert Poly.univariate("t", [Fraction(4, 2), 0, Fraction(-6, 3)]).terms == {(0,): 2, (2,): -2}
    assert type(Poly.univariate("t", [Fraction(4, 2)]).terms[()]) is int
    assert type(ArithPoly.const(Fraction(6, 3)).terms[()]) is int
    a = ArithPoly.univariate("t", [half, half])  # (1 + t) / 2
    b = ArithPoly.univariate("t", [2, 2])
    for p in (a * b, a * 2, a + a, (a * U) * (b * U)):
        assert _int_coefficients(p.terms.values()), p
    assert (a * b).scalar_coeffs("t") == [1, 2, 1]
    s = series_expand(ReducingRatFun(Poly.univariate("t", [half, half])), "t", 3)
    assert s.coeffs == [half, half, 0, 0]
    assert _int_coefficients((s * series_expand(ReducingRatFun(2), "t", 3)).coeffs)
    f = ReducingRatFun(2, ArithPoly.const(2) - 2 * T)
    assert _int_coefficients(series_expand(f, "t", 5).coeffs)


def test_signed_content_is_an_exact_fraction():
    for p in (Poly.univariate("t", [4, -6, 8]), -ArithPoly.univariate("t", [4, -6, 8]),
              ArithPoly.const(5), Poly.univariate("t", [Fraction(1, 3), 2]), 6 * U * V - 4 * V):
        r = signed_content(p)
        assert type(r) is Fraction
        assert type(1 / r) is Fraction
        q = scaled(p, 1 / r)
        assert _int_coefficients(q.terms.values()) and signed_content(q) == 1
    assert signed_content(Poly.univariate("t", [4, -6, 8])) == 2
    assert signed_content(-ArithPoly.univariate("t", [4, -6, 8])) == -2


# -- gcd skips against the fully reduced form ------------------------------------


def _coprime_pairs(rng, count, hodge):
    """Reduced pairs whose denominators are coprime, in t or of the form u^i v^j f(uv)."""
    def poly():
        if not hodge:
            return _random_univar(rng, 4, fractions=False)
        return U ** rng.randint(0, 2) * V ** rng.randint(0, 2) * _random_uv_poly(rng, 3)

    pairs = []
    while len(pairs) < count:
        dens = [poly() for _ in range(2)]
        nums = [poly() for _ in range(2)]
        if any(p.is_zero for p in dens + nums) or not graded_poly_gcd(*dens).is_const:
            continue
        pairs.append(tuple(ReducingRatFun(n, d) for n, d in zip(nums, dens)))
    return pairs


def _value(f, point):
    return evaluate(f.num, point) / evaluate(f.den, point)


@pytest.mark.parametrize("hodge", [False, True], ids=["t", "uv"])
def test_gcd_skips_match_full_reduction(hodge, graded_gcd):
    rng = random.Random(8128 + hodge)
    for a, b in _coprime_pairs(rng, 40, hodge):
        k = rng.randint(1, 3)
        got = {"sum": a + b, "quotient": a / b, "power": a ** -k}
        want = {"sum": ReducingRatFun(a.num * b.den + b.num * a.den, a.den * b.den),
                "quotient": ReducingRatFun(a.num * b.den, a.den * b.num),
                "power": ReducingRatFun(a.den ** k, a.num ** k)}
        for name in got:
            assert got[name].num == want[name].num and got[name].den == want[name].den, name
        for _ in range(3):
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for v in ("t", "u", "v")}
            values = [evaluate(f.num, point) * evaluate(f.den, point) for f in (a, b)]
            if not all(values):
                continue
            x, y = _value(a, point), _value(b, point)
            assert _value(got["sum"], point) == x + y
            assert _value(got["quotient"], point) == x / y
            assert _value(got["power"], point) == x ** -k
        for p in (a, ReducingRatFun(a.num)):
            zero = p + (-p)
            assert zero.num == ArithPoly.zero() and zero.den == ArithPoly.one()


# -- the t-side divides by the denominators it knows --------------------------


def test_known_denominators_make_no_gcd(monkeypatch):
    from modrec.curve import CurveData
    from modrec.kirwan import WeightSystem, perfection_check
    from modrec.symprod import sym_count
    from modrec.yangmills import fixed_determinant_poly

    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(oracles, "poly_gcd", counted)
    for weights in [(-1, 1), (0, 1, -1), (2, 2, 0, -1, -3), (1, 1, 1, -1, -1, -1)]:
        perfection_check(WeightSystem(weights))
    curve = CurveData(2, 2, [1, 0, 0, 0, 4])
    assert [sym_count(curve, n) for n in range(4)] == [1, 3, 7, 15]
    for n, d, g in [(2, 1, 2), (3, 1, 2), (3, 2, 3)]:
        fixed_determinant_poly(n, d, g)
    assert not calls
    ReducingRatFun(1, ArithPoly.one() - T) + ReducingRatFun(1, ArithPoly.one() - T ** 2)
    assert calls  # while the reducing RatFun's arithmetic does reach the wrapper


def test_t_side_modules_hold_no_ratfun_or_series_expand():
    from modrec import kirwan, matrixdiv, symprod

    for module in (kirwan, matrixdiv, symprod):
        assert not hasattr(module, "RatFun"), module.__name__
        assert not hasattr(module, "series_expand"), module.__name__
    assert not hasattr(exactalg, "series_expand")


def test_list_arithmetic_lives_in_the_exactalg_kernel():
    # products, exact divisions and (1 - y^c) running sums of coefficient
    # lists are exactalg's conv, divexact, times_one_minus and over_one_minus
    from modrec import factored, kirwan, matrixdiv, yangmills

    helpers = {"_conv", "_coefficients", "_evaluate", "_divide", "_add_into",
               "_times_one_minus", "_running", "_add_product", "_over_one_minus_t2"}
    for module in (factored, kirwan, matrixdiv, yangmills):
        assert not helpers & set(vars(module)), module.__name__
        assert not hasattr(module, "accumulate"), module.__name__
    for name in ("_mul_dense_univar", "_divexact_univar"):
        assert not hasattr(exactalg, name), name
    assert factored.conv is matrixdiv.conv is exactalg.conv
    assert factored.divexact is yangmills.divexact is exactalg.divexact


def test_ratfun_is_an_output_form():
    # no production path does RatFun or Poly arithmetic: the types hold
    # canonical parts, compare, hash and print, and a Factored mixes only
    # with ints and its own field
    from modrec.fields import SpecializationField

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__",
                 "substitute", "as_poly", "const_value", "one", "var"):
        assert not hasattr(RatFun, name), name
    for name in ("_reduce", "_cancel", "_unit_normalize"):
        assert not hasattr(exactalg, name), name
    for name in ("coefficient", "substitute", "evaluate",
                 "__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__pow__", "__bool__", "zero", "one", "const", "var", "is_const", "_coerce"):
        assert not hasattr(Poly, name), name
    assert not hasattr(exactalg, "_align")
    f = RatFun(T, T - 1)
    assert (str(f), f.is_poly, f.is_zero) == ("(t)/(-1 + t)", False, False)
    assert f == ReducingRatFun(-T, ArithPoly.one() - T) and hash(f) == hash(RatFun(T, T - 1))
    assert RatFun.zero() == RatFun(ArithPoly.zero()) and RatFun.zero().is_zero
    for F in (SpecializationField.betti(2), SpecializationField.hodge(2)):
        for other in (F.q.ratfun(), F.q.ratfun().num, Fraction(1, 2)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(F.q, other)
                with pytest.raises(TypeError):
                    op(other, F.q)
        assert F.q * 2 - F.q == F.q and F.q != F.q.ratfun()
        # equality raises both sides to common multiplicities, with no gcd
        assert F.geom(1) * (1 - F.q) == 1 and F.geom(2) * (1 - F.q) != F.geom(1)
