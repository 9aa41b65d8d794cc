"""Curve oracle: brute-force point counts, zeta reconstruction, specializations."""

import itertools
import time
from fractions import Fraction
from math import comb, isqrt

import pytest

from modrec.curve import (
    GF,
    _find_irreducible,
    _is_irreducible,
    _weil_norm_check,
    CurveData,
    HyperellipticModel,
    SpecializationField,
    count_points,
    zeta_Z,
    zeta_from_counts,
    zeta_value,
)
from modrec.errors import ValidationError
from modrec.exactalg import Poly, RatFun, series_expand

T = Poly.var("t")

MODEL_F2 = HyperellipticModel(p=2, k=1, f=(0, 0, 0, 0, 0, 1), h=(1,))  # y^2+y = x^5
MODEL_F3 = HyperellipticModel(p=3, k=1, f=(1, 0, 0, 0, 0, 1), h=())    # y^2 = x^5+1


def test_field_construction_is_deterministic():
    K = GF(2, 2)
    assert K.modulus == [1, 1, 1]  # x^2 + x + 1 is the first irreducible
    K9 = GF(3, 2)
    assert K9.modulus == [1, 0, 1]  # x^2 + 1 over F_3
    assert len(list(K9.elements())) == 9


def _first_irreducible_full_scan(p, m):
    # every tuple (c_0, ..., c_{m-1}) in lexicographic order, c_0 = 0 included
    for tail in itertools.product(range(p), repeat=m):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return poly


def test_modulus_matches_full_lexicographic_scan():
    # skipping c_0 = 0 must not change the modulus, or counts would change
    primes = [p for p in range(2, 3 ** 8 + 1)
              if all(p % k for k in range(2, int(p ** 0.5) + 1))]
    checked = 0
    for p in primes:
        m = 1
        while p ** m <= 3 ** 8:
            assert _find_irreducible(p, m) == _first_irreducible_full_scan(p, m), (p, m)
            checked += 1
            m += 1
    assert checked == 893


def test_degree_one_polynomials_are_irreducible():
    for poly, p in (([0, 1], 2), ([1, 1], 2), ([2, 1], 3), ([0, 1], 5), ([3, 1], 5)):
        assert _is_irreducible(poly, p), (poly, p)
    assert _is_irreducible([1, 1, 1], 2) and not _is_irreducible([1, 0, 1], 2)


def test_largest_field_builds_quickly(monkeypatch):
    monkeypatch.setattr(GF, "_cache", {})
    start = time.perf_counter()
    K = GF(2, 20)
    assert time.perf_counter() - start < 1.0
    assert K.q == 2 ** 20 and K.modulus[0] == 1


def test_field_size_guard():
    with pytest.raises(ValidationError):
        GF(2, 25)


def test_count_points_examples():
    assert count_points(MODEL_F2, 1) == 3
    assert count_points(MODEL_F2, 2) == 5


def test_count_points_weil_bound_f3():
    n1 = count_points(MODEL_F3, 1)
    # |N_1 - (q+1)| <= 2g sqrt(q), squared to keep it exact
    assert (n1 - 4) ** 2 <= 16 * 3


def test_singular_models_rejected():
    with pytest.raises(ValidationError):
        HyperellipticModel(p=3, k=1, f=(0, 0, 0, 0, 0, 1), h=())  # y^2 = x^5
    with pytest.raises(ValidationError):
        HyperellipticModel(p=2, k=1, f=(0, 0, 0, 0, 0, 1), h=())  # char 2, h = 0
    with pytest.raises(ValidationError):
        # char 2, even degree: genus can drop behind a change of variable
        HyperellipticModel(p=2, k=1, f=(0, 1, 0, 0, 0, 0, 1), h=(1,))
    with pytest.raises(ValidationError):
        # affine singular point at x = 0 in characteristic 2
        HyperellipticModel(p=2, k=1, f=(0, 0, 0, 0, 0, 1), h=(0, 1))


def test_even_degree_model_odd_characteristic():
    # y^2 = x^6 + 1 over F_5: independent affine count plus two points at
    # infinity because the leading coefficient is a square
    model = HyperellipticModel(p=5, k=1, f=(1, 0, 0, 0, 0, 0, 1), h=())
    squares = {}
    for y in range(5):
        squares[y * y % 5] = squares.get(y * y % 5, 0) + 1
    affine = sum(squares.get((x ** 6 + 1) % 5, 0) for x in range(5))
    assert count_points(model, 1) == affine + 2
    # the zeta data must reproduce untouched counts
    c = CurveData.from_model(model)
    for r in range(3, 5):
        assert c.point_count(r) == count_points(model, r)


def test_extension_base_field_consistency():
    # the same equation read over F_4: its N_r is the F_2 model's N_2r
    base = MODEL_F2
    ext = HyperellipticModel(p=2, k=2, f=(0, 0, 0, 0, 0, 1), h=(1,))
    assert count_points(ext, 1) == count_points(base, 2)
    assert count_points(ext, 2) == count_points(base, 4)


def test_prime_power_base_field_zeta():
    # zeta reconstruction over q = 4, with the untouched extensions checked
    ext = HyperellipticModel(p=2, k=2, f=(0, 0, 0, 0, 0, 1), h=(1,))
    c = CurveData.from_model(ext)
    assert c.q == 4
    for r in range(c.genus + 1, 2 * c.genus + 1):
        assert c.point_count(r) == count_points(ext, r)


def test_zeta_from_counts_example():
    c = zeta_from_counts(2, 2, [3, 5])
    assert c.numerator == Poly.one() + 4 * T ** 4
    assert c.class_number() == 5


def test_zeta_round_trip():
    c = CurveData.from_model(MODEL_F2)
    counts = [c.point_count(r) for r in range(1, c.genus + 1)]
    again = zeta_from_counts(c.q, c.genus, counts)
    assert again.numerator == c.numerator


def test_rationality_at_desk_scale():
    # counts not used in the reconstruction (r = g+1..2g) must match fresh
    # enumeration: the zeta function really is rational
    for model in (MODEL_F2, MODEL_F3):
        c = CurveData.from_model(model)
        g = c.genus
        for r in range(g + 1, 2 * g + 1):
            assert c.point_count(r) == count_points(model, r)


def test_hasse_weil_all_tested_extensions():
    for model in (MODEL_F2, MODEL_F3):
        c = CurveData.from_model(model)
        for r in range(1, 2 * c.genus + 1):
            n = c.point_count(r)
            assert (n - (c.q ** r + 1)) ** 2 <= 4 * c.genus ** 2 * c.q ** r


def test_zeta_Z_examples():
    c = zeta_from_counts(2, 2, [3, 5])
    z = zeta_Z(c)
    expected = RatFun(Poly.one() + 4 * T ** 4,
                      (Poly.one() - T) * (Poly.one() - 2 * T))
    assert z == expected
    # coefficient of t in the expansion equals N_1
    assert series_expand(z, "t", 1).coefficient_values()[1] == 3


def test_zeta_Z_requires_arithmetic_mode():
    with pytest.raises(ValidationError):
        zeta_Z(CurveData.symbolic(2))


def test_genus_bound_enforced():
    with pytest.raises(ValidationError):
        CurveData.symbolic(0)
    with pytest.raises(ValidationError):
        CurveData.symbolic(1)


def test_invalid_counts_rejected():
    # no valid integer zeta numerator for these counts
    with pytest.raises(ValidationError):
        zeta_from_counts(2, 2, [4, 5])
    # wildly violating Hasse-Weil
    with pytest.raises(ValidationError):
        zeta_from_counts(2, 2, [30, 5])


def test_zeta_value_numeric():
    c = zeta_from_counts(2, 2, [3, 5])
    F = SpecializationField.numeric(c)
    assert zeta_value(F, 2) == Fraction(65, 24)


def test_zeta_value_betti():
    F = SpecializationField.betti(2)
    z = zeta_value(F, 2)
    expected = RatFun((Poly.one() + T ** 3) ** 4,
                      T ** 6 * (T ** 4 - 1) * (T ** 2 - 1))
    assert z == expected
    # numeric spot check at t = 1/2 against direct evaluation
    val = z.substitute({"t": RatFun(Fraction(1, 2))}).const_value()
    q = Fraction(1, 4)
    direct = (1 + Fraction(1, 2) * q ** -2) ** 4 / ((1 - q ** -2) * (1 - q ** -1))
    assert val == direct


def test_zeta_value_hodge_specializes_to_betti():
    Fh = SpecializationField.hodge(2)
    Fb = SpecializationField.betti(2)
    zh = zeta_value(Fh, 2)
    t = RatFun(T)
    assert zh.substitute({"u": t, "v": t}) == zeta_value(Fb, 2)


def test_hodge_numerator_specializes_to_betti():
    Fh = SpecializationField.hodge(2)
    Fb = SpecializationField.betti(2)
    # Kronecker substitution: the coefficient of x^j has t-degree j <= 2g = 4
    # after u = v = t, so x = t^5 keeps the identity in x intact
    x = RatFun(T ** 5)
    t = RatFun(T)
    assert Fh.P_at(x).substitute({"u": t, "v": t}) == Fb.P_at(x)


def test_class_number_vs_divisor_classes():
    # every degree-(2g-1) divisor class has the same number of effective
    # representatives, so #C^(2g-1) = P(1) * (q^g - 1)/(q - 1)
    from modrec.symprod import divisor_enumerate

    for model in (MODEL_F2, MODEL_F3):
        c = CurveData.from_model(model)
        g, q = c.genus, c.q
        expected = c.class_number() * (q ** g - 1) // (q - 1)
        assert divisor_enumerate(model, 2 * g - 1) == expected


def test_genus2_over_f7():
    # q = 7 makes q ** (g - i) a float for i > g; the functional equation
    # must still hold in integers
    model = HyperellipticModel(p=7, k=1, f=(1, 0, 0, 0, 0, 1), h=())  # y^2 = x^5+1
    assert [count_points(model, r) for r in (1, 2)] == [8, 50]
    c = CurveData.from_model(model)
    assert c.numerator == Poly.univariate("t", [1, 0, 0, 0, 49])
    assert c.class_number() == 50
    assert zeta_from_counts(7, 2, [8, 50]).numerator == c.numerator


def _weil_product(betas, q):
    """prod (1 - beta t + q t^2): its roots lie on |t| = q^(-1/2) iff every
    beta^2 <= 4q."""
    poly = [1]
    for beta in betas:
        out = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            out[i] += c
            out[i + 1] -= beta * c
            out[i + 2] += q * c
        poly = out
    return poly


def test_weil_products_are_accepted():
    # double roots, beta = 0 and beta^2 = 4q included
    checked = 0
    for q in (2, 3, 4, 9, 16, 25):
        b = isqrt(4 * q)
        for g in (2, 3):
            for betas in itertools.combinations_with_replacement(range(-b, b + 1), g):
                _weil_norm_check(_weil_product(betas, q), q)
                checked += 1
    assert checked == 4042


def test_off_circle_products_are_rejected():
    checked = 0
    for q in (2, 3, 4, 9):
        for g in (2, 3):
            for betas in itertools.combinations_with_replacement(range(-8, 9), g):
                if any(beta * beta > 4 * q for beta in betas):
                    with pytest.raises(ValidationError, match="norm condition"):
                        _weil_norm_check(_weil_product(betas, q), q)
                    checked += 1
    assert checked == 3570
    # a double root at w = 4q beside one outside the interval: a Sturm chain
    # on V rather than its squarefree part accepts this
    with pytest.raises(ValidationError, match="norm condition"):
        _weil_norm_check(_weil_product((6, 6, 7), 9), 9)


def test_root_condition_is_the_only_failed_check():
    # N = (3, 3) at q = 3 gives P = 1 - t - 3t^2 - 3t^3 + 9t^4 and R(s) =
    # s^2 - s - 9, whose root (1 + sqrt 37)/2 has beta^2 just above 4q = 12;
    # P passes every cheaper check
    q, g, coeffs = 3, 2, [1, -1, -3, -3, 9]
    for i in range(1, 2 * g + 1):
        assert coeffs[i] ** 2 <= comb(2 * g, i) ** 2 * q ** i
    assert sum(coeffs) > 0
    e = [(-1) ** k * c for k, c in enumerate(coeffs)]
    power_sums = []
    for r in range(1, 2 * g + 1):
        s = sum((-1) ** (i - 1) * e[i] * power_sums[r - i - 1] for i in range(1, r))
        power_sums.append(s + (-1) ** (r - 1) * r * e[r])
    assert all(s ** 2 <= 4 * g ** 2 * q ** r for r, s in enumerate(power_sums, start=1))
    with pytest.raises(ValidationError, match="norm condition"):
        _weil_norm_check(coeffs, q)
    with pytest.raises(ValidationError, match="norm condition"):
        zeta_from_counts(q, g, [3, 3])
    # N = (0, 10) at q = 2: P = 1 - 3t + 7t^2 - 6t^3 + 4t^4 passes the bounds,
    # P(1) > 0 and Hasse-Weil for the given counts; R = s^2 - 3s + 3 has no
    # real root, and the root check runs before Hasse-Weil on derived counts
    with pytest.raises(ValidationError, match="norm condition"):
        zeta_from_counts(2, 2, [0, 10])
