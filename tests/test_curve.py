"""Curve oracle: brute-force point counts, zeta reconstruction, specializations."""

import functools
import itertools
import random
import time
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

import pytest

from modrec.curve import (
    FIELD_SIZE_LIMIT,
    GF,
    _count_by_tables,
    _find_irreducible,
    _generator,
    _is_irreducible,
    _is_prime,
    _norm_polynomial,
    _pmod,
    _pmul,
    _squarefree_part,
    _validate_prime_power,
    _weil_norm_check,
    CurveData,
    HyperellipticModel,
    SpecializationField,
    count_points,
    zeta_from_counts,
)
from modrec.errors import ValidationError
from modrec.symprod import sym_count

from oracles import (ArithPoly, ReducingRatFun, count_by_tables_per_element, count_prime_field,
                     exp_log_by_digit_walk, generator_by_full_scan, is_irreducible_by_frobenius,
                     poly_divexact, poly_gcd, sym_count_by_zeta)

T = ArithPoly.var("t")

MODEL_F2 = HyperellipticModel(p=2, k=1, f=(0, 0, 0, 0, 0, 1), h=(1,))  # y^2+y = x^5
MODEL_F3 = HyperellipticModel(p=3, k=1, f=(1, 0, 0, 0, 0, 1), h=())    # y^2 = x^5+1


def test_field_construction_is_deterministic():
    K = GF(2, 2)
    assert K.modulus == [1, 1, 1]  # x^2 + x + 1 is the first irreducible
    K9 = GF(3, 2)
    assert K9.modulus == [1, 0, 1]  # x^2 + 1 over F_3
    assert K9.q == 9 and sorted(K9.exp) == list(range(1, 9))
    # nothing is cached: a rebuild is a new object with the same tables
    again = GF(2, 2)
    assert again is not K
    assert (again.modulus, again.exp, again.log) == (K.modulus, K.exp, K.log)


class _TupleGF:
    """Test oracle: F_{p^m} with length-m coefficient tuples and schoolbook
    arithmetic over the same modulus as GF."""

    def __init__(self, p, m):
        self.p, self.m, self.q = p, m, p ** m
        self.modulus = _find_irreducible(p, m)
        self.zero = (0,) * m
        self.one = tuple([1] + [0] * (m - 1))
        self._inverses = {}

    def elements(self):
        return (tuple(reversed(digits))
                for digits in itertools.product(range(self.p), repeat=self.m))

    def lift(self, c):
        return tuple([c % self.p] + [0] * (self.m - 1))

    def encode(self, a):
        return sum(c * self.p ** i for i, c in enumerate(a))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = _pmod(_pmul(list(a), list(b), self.p), self.modulus, self.p)
        return tuple(prod + [0] * (self.m - len(prod)))

    def inv(self, a):
        if a not in self._inverses:
            result, base, e = self.one, a, self.q - 2
            while e:
                if e & 1:
                    result = self.mul(result, base)
                base = self.mul(base, base)
                e >>= 1
            self._inverses[a] = result
        return self._inverses[a]

    def eval_poly(self, coeffs, x):
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.lift(c))
        return acc


@functools.lru_cache(maxsize=None)
def _tuple_field(p, m):
    """The oracle field and its solution dictionary, sols[w] = #{z : z^2 = w},
    or #{z : z^2 + z = w} for p = 2; built once and shared by every model."""
    K = _TupleGF(p, m)
    sols = {}
    for z in K.elements():
        w = K.mul(z, z)
        if p == 2:
            w = K.add(w, z)
        sols[w] = sols.get(w, 0) + 1
    return K, sols


def _tuple_count_points(model, r):
    """Test oracle: the point count with per-field solution dictionaries."""
    K, sols = _tuple_field(model.p, model.k * r)
    f, h = list(model.f), list(model.h)
    inv4 = K.inv(K.lift(4)) if model.p > 2 else None
    count = 0
    for x in K.elements():
        a, b = K.eval_poly(h, x), K.eval_poly(f, x)
        if model.p > 2:
            count += sols.get(K.add(b, K.mul(K.mul(a, a), inv4)), 0)
        elif a == K.zero:
            count += 1  # squaring is a bijection
        else:
            count += sols.get(K.mul(b, K.inv(K.mul(a, a))), 0)
    if (len(f) - 1) % 2 == 1:
        return count + 1
    return count + sols.get(K.lift(f[-1]), 0)


ORACLE_FIELD_BOUND = 3 ** 8


def _oracle_fields():
    for p in (2, 3, 5, 7, 11):
        m = 1
        while p ** m <= ORACLE_FIELD_BOUND:
            yield p, m
            m += 1


def _seeded_models(p, rng):
    """A smooth model per kind: (deg f parity, h nonzero); characteristic 2
    admits odd deg f with nonzero h only."""
    kinds = ([(1, True)] * 3 if p == 2 else [(1, False), (0, True), (1, True)])
    models = []
    for odd, with_h in kinds:
        while True:
            g = rng.choice((2, 3))
            deg = 2 * g + 1 if odd else 2 * g + 2
            f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            h = [rng.randrange(p) for _ in range(rng.randrange(g + 1))] + [1] if with_h else []
            try:
                models.append(HyperellipticModel(p=p, k=1, f=tuple(f), h=tuple(h)))
                break
            except ValidationError:
                continue
    return models


def test_counts_match_tuple_oracle():
    # every model kind on every field, so each kind meets the composite
    # degrees (2^6, 2^8, 3^4, ...) whose Frobenius orbits have several sizes;
    # characteristic 2 has one kind, and its three models take turns
    rng = random.Random(2008)
    models = {p: _seeded_models(p, rng) for p in (2, 3, 5, 7, 11)}
    checked = 0
    for p, m in _oracle_fields():
        for model in [models[p][m % 3]] if p == 2 else models[p]:
            assert count_points(model, m) == _tuple_count_points(model, m), (model, m)
            checked += 1
    assert checked == 72


@pytest.mark.parametrize("p, m, f, h", [
    (3, 11, (1, 2, 0, 1, 1, 1), ()),       # y^2 = x^5 + x^4 + x^3 + 2x + 1
    (3, 11, (2, 0, 1, 0, 0, 0, 1), ()),    # y^2 = x^6 + x^2 + 2, even degree
    (2, 17, (1, 0, 0, 1, 0, 1), (1, 1)),   # y^2 + (x + 1) y = x^5 + x^3 + 1
], ids=["F_3^11-odd", "F_3^11-even", "F_2^17"])
def test_orbit_count_matches_per_element_sum(p, m, f, h):
    # one x per Frobenius orbit, weighted by the orbit's size, against the
    # sum over every element, at the largest fields of each characteristic
    model = HyperellipticModel(p=p, k=1, f=f, h=h)
    K = GF(p, m)
    assert _count_by_tables(K, model.f, model.h) == count_by_tables_per_element(K, model.f, model.h)


def test_curve_still_exposes_the_specialization_field():
    import modrec.fields

    assert SpecializationField is modrec.fields.SpecializationField


def test_prime_field_horner_matches_the_tables():
    # the exp/log path against plain Horner steps mod p, on the same f
    rng = random.Random(262139)
    for p in (3, 5, 7, 11, 101, 65521):
        K = GF(p, 1)
        for _ in range(3):
            f = [rng.randrange(p) for _ in range(rng.choice((5, 6, 7)))] + [rng.randrange(1, p)]
            assert _count_by_tables(K, f, ()) == count_prime_field(f, p), (p, f)


def test_exp_log_are_inverse_bijections():
    for p, m in _oracle_fields():
        K, T = GF(p, m), _TupleGF(p, m)
        n = K.q - 1
        assert len(K.exp) == n and len(K.log) == K.q
        assert sorted(K.exp) == list(range(1, K.q))
        assert [K.log[a] for a in K.exp] == list(range(n))
        # each step of the walk is a product in the oracle's arithmetic
        g = tuple(K.exp[1 % n] // p ** i % p for i in range(m))
        prods = [T.encode(T.mul(tuple(a // p ** i % p for i in range(m)), g)) for a in K.exp]
        assert prods == K.exp[1:] + K.exp[:1], (p, m)


def _first_irreducible_full_scan(p, m, first=0):
    # every tuple (c_0, ..., c_{m-1}) with c_0 >= first in lexicographic
    # order, decided by the Frobenius oracle
    for tail in itertools.product(range(first, p), *[range(p)] * (m - 1)):
        poly = list(tail) + [1]
        if is_irreducible_by_frobenius(poly, p):
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


def test_ben_or_matches_the_frobenius_oracle():
    # every monic candidate, reducible or not, is decided the same way
    checked = 0
    for p, top in ((2, 6), (3, 6), (5, 4)):
        for m in range(1, top + 1):
            for tail in itertools.product(range(p), repeat=m):
                poly = list(tail) + [1]
                assert _is_irreducible(poly, p) == is_irreducible_by_frobenius(poly, p), (poly, p)
                checked += 1
    assert checked == 126 + 1092 + 780


def test_modulus_and_generator_match_the_oracles_up_to_the_limit():
    # every extension field the limit admits, and the prime fields p < 520:
    # the search past F_p must find the same generator as the full scan
    primes = [p for p in range(2, 520) if _is_prime(p)]
    extensions = [(p, m) for p in primes for m in range(2, LIMIT_BITS + 1)
                  if p ** m <= FIELD_SIZE_LIMIT]
    assert (len(primes), len(extensions)) == (97, 150)
    for p, m in extensions:
        modulus = _find_irreducible(p, m)
        # c_0 = 0 costs 2^17 candidates at F_{2^18}; the full scan up to 3^8 covers it
        assert modulus == _first_irreducible_full_scan(p, m, first=1), (p, m)
        assert _generator(p, m, modulus) == generator_by_full_scan(p, m, modulus), (p, m)
    for p in primes:
        assert GF(p, 1).exp[1 % (p - 1)] == generator_by_full_scan(p, 1, [0, 1]), p


def test_degree_one_polynomials_are_irreducible():
    for poly, p in (([0, 1], 2), ([1, 1], 2), ([2, 1], 3), ([0, 1], 5), ([3, 1], 5)):
        assert _is_irreducible(poly, p), (poly, p)
    assert _is_irreducible([1, 1, 1], 2) and not _is_irreducible([1, 0, 1], 2)


LIMIT_BITS = FIELD_SIZE_LIMIT.bit_length() - 1


def test_largest_field_builds_quickly():
    start = time.perf_counter()
    K = GF(2, LIMIT_BITS)
    assert time.perf_counter() - start < 1.0
    assert K.q == FIELD_SIZE_LIMIT and K.modulus[0] == 1


def test_largest_binary_field_counts_in_budget():
    start = time.perf_counter()
    count = count_points(MODEL_F2, LIMIT_BITS)
    assert time.perf_counter() - start < 5.0
    assert count == CurveData.from_model(MODEL_F2).point_count(LIMIT_BITS)


def _odd_sweep_fields():
    # every odd p^m <= 3^8 with p <= 13, and one prime field past the tables
    fields = [(p, m) for p in (3, 5, 7, 11, 13) for m in range(1, 9) if p ** m <= 3 ** 8]
    return fields + [(65521, 1)]


def test_odd_field_tables_match_digit_walk():
    fields = _odd_sweep_fields()
    assert len(fields) == 24
    for p, m in fields:
        K = GF(p, m)
        assert (K.exp, K.log) == exp_log_by_digit_walk(p, m, K.modulus), (p, m)


def test_binary_field_tables_match_digit_walk():
    # the same walk serves p = 2, with two bits per digit
    for m in range(1, 13):
        K = GF(2, m)
        assert (K.exp, K.log) == exp_log_by_digit_walk(2, m, K.modulus), m


def test_largest_odd_fields_build_quickly():
    for p, m in ((3, 11), (509, 2), (262139, 1)):
        start = time.perf_counter()
        K = GF(p, m)
        assert time.perf_counter() - start < 1.0, (p, m)
        assert len(K.exp) == K.q - 1 and K.exp[0] == 1


def test_largest_odd_field_counts_in_budget():
    start = time.perf_counter()
    count = count_points(MODEL_F3, 11)
    assert time.perf_counter() - start < 5.0
    assert count == CurveData.from_model(MODEL_F3).point_count(11)


def test_field_size_guard():
    for p, m in ((2, LIMIT_BITS + 1), (2, 25), (3, 12), (1000000000000000003, 1),
                 (2, 10 ** 12)):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"field F_\{\d+\^\d+\}: "
                                                  r"(m floor\(log2 p\)|p\^m) = \d+ exceeds"):
            GF(p, m)
        assert time.perf_counter() - start < 0.1


def test_prime_test_matches_trial_division():
    for n in range(-1, 5000):
        assert _is_prime(n) == (n > 1 and all(n % d for d in range(2, isqrt(n) + 1))), n
    # strong pseudoprimes to the first 11 and the first 12 prime bases
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(1000000000000000003)


def test_prime_powers_decided_without_trial_division():
    big = 1000000000000000003
    for q in range(1, 3000):
        base = next((d for d in range(2, q + 1) if q % d == 0), None)
        is_power = base is not None and all(_is_prime(d) == (d == base)
                                            for d in range(2, q + 1) if q % d == 0)
        try:
            _validate_prime_power(q)
            accepted = True
        except ValidationError:
            accepted = False
        assert accepted == is_power, q
    start = time.perf_counter()
    for q in (big, (10 ** 9 + 7) ** 2, 2 ** 81, 3 ** 50):
        _validate_prime_power(q)
    for q in (big * 3, (10 ** 9 + 7) * (10 ** 9 + 9), 2 ** 40 * 3, 318665857834031151167461):
        with pytest.raises(ValidationError, match="not a prime power"):
            _validate_prime_power(q)
    # the first strong pseudoprime to all 13 bases is where the test stops
    with pytest.raises(ValidationError, match="prime-power test"):
        _validate_prime_power(3317044064679887385961981)
    assert time.perf_counter() - start < 1.0


def test_count_points_examples():
    assert count_points(MODEL_F2, 1) == 3
    assert count_points(MODEL_F2, 2) == 5
    with pytest.raises(ValidationError, match="^extension degree r must be >= 1$"):
        count_points(MODEL_F2, 0)


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
    assert c.coefficients() == [1, 0, 0, 0, 4]
    assert c.class_number() == 5


def test_zeta_round_trip():
    c = CurveData.from_model(MODEL_F2)
    counts = [c.point_count(r) for r in range(1, c.genus + 1)]
    again = zeta_from_counts(c.q, c.genus, counts)
    assert again.coefficients() == c.coefficients()


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


def test_divisor_counts_from_zeta_data():
    c = zeta_from_counts(2, 2, [3, 5])
    assert c.coefficients() == [1, 0, 0, 0, 4]
    # the degree-1 effective divisors are the N_1 rational points
    assert sym_count(c, 1) == 3
    assert [sym_count(c, n) for n in range(6)] == [sym_count_by_zeta(c, n) for n in range(6)]


def test_numeric_field_needs_a_curve():
    # the zeta data (Z(q^-i) and the counts it encodes) exist only over a field
    with pytest.raises(ValidationError, match="numeric mode needs a curve"):
        SpecializationField(SpecializationField.NUMERIC, 2)


def test_genus_bound_enforced():
    with pytest.raises(ValidationError, match="genus must be at least 2, got 0"):
        CurveData(0, 2, [1])
    with pytest.raises(ValidationError, match="genus must be at least 2, got 1"):
        CurveData(1, 2, [1, 0, 2])


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
    assert F.zeta(2) == Fraction(65, 24)


def test_zeta_value_betti():
    F = SpecializationField.betti(2)
    z = F.reduce(F.zeta(2))
    expected = ReducingRatFun((ArithPoly.one() + T ** 3) ** 4,
                      T ** 6 * (T ** 4 - 1) * (T ** 2 - 1))
    assert z == expected
    # numeric spot check at t = 1/2 against direct evaluation
    val = ReducingRatFun.of(z).substitute({"t": Fraction(1, 2)}).const_value()
    q = Fraction(1, 4)
    direct = (1 + Fraction(1, 2) * q ** -2) ** 4 / ((1 - q ** -2) * (1 - q ** -1))
    assert val == direct


def test_zeta_value_hodge_specializes_to_betti():
    Fh = SpecializationField.hodge(2)
    Fb = SpecializationField.betti(2)
    zh = ReducingRatFun.of(Fh.reduce(Fh.zeta(2)))
    assert zh.substitute({"u": T, "v": T}) == Fb.reduce(Fb.zeta(2))


def test_hodge_numerator_specializes_to_betti():
    # P(q^e) in factored form, reduced: u = v = t takes the Hodge numerator
    # ((1 + u x)(1 + v x))^g to the Betti one (1 + t x)^(2g), q = uv to t^2
    t = ReducingRatFun(T)
    for g in (2, 3):
        Fh, Fb = SpecializationField.hodge(g), SpecializationField.betti(g)
        for e in range(-3, 4):
            hodge = ReducingRatFun.of(Fh.reduce(Fh.P_power(e))).substitute({"u": t, "v": t})
            assert hodge == Fb.reduce(Fb.P_power(e)) == (1 + t * t ** (2 * e)) ** (2 * g)


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
    assert c.coefficients() == [1, 0, 0, 0, 49]
    assert c.class_number() == 50
    assert zeta_from_counts(7, 2, [8, 50]).coefficients() == c.coefficients()


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


def _primitive(a):
    """A nonzero coefficient list scaled to coprime ints with a positive top."""
    den = lcm(*(Fraction(c).denominator for c in a))
    ints = [int(c * den) for c in a]
    return [c // (gcd(*ints) if ints[-1] > 0 else -gcd(*ints)) for c in ints]


def _squarefree_by_gcd(V):
    derivative = [k * c for k, c in enumerate(V)][1:]
    V = ArithPoly.univariate("t", V)
    return poly_divexact(V, poly_gcd(V, ArithPoly.univariate("t", derivative))).scalar_coeffs("t")


def test_squarefree_part_matches_the_gcd_oracle():
    # Euclid over Q agrees up to sign and content with V / gcd(V, V') by the
    # primitive remainder sequence, on the norm polynomials of the Weil
    # products on and off the circle, and on a seeded sweep of products of
    # powers of linear and quadratic factors
    cases = []
    for q in (2, 3, 4, 9, 16, 25):
        for g in (2, 3):
            for betas in itertools.combinations_with_replacement(range(-8, 9), g):
                cases.append(_norm_polynomial(_weil_product(betas, q), q))
    # multiple roots at the ends of [0, 4q], which a chain on V miscounts
    for betas, q, root in (((0, 0), 2, 0), ((0, 0, 1), 3, 0), ((4, -4), 4, 16),
                           ((6, 6, 1), 9, 36), ((0, 0, 10, -10), 25, 0), ((0, 0, 10, -10), 25, 100)):
        V = _norm_polynomial(_weil_product(betas, q), q)
        for k in range(2):  # V and V' vanish there
            assert sum(i ** k * c * root ** (i - k) for i, c in enumerate(V) if i >= k) == 0
        cases.append(V)
    rng = random.Random(1975)
    for _ in range(300):
        q = rng.choice([2, 3, 4, 5, 9])
        V = [rng.choice([-3, -1, 1, 2])]
        for root in rng.sample([0, 4 * q, 1, 2, q, 3 * q, 4 * q + 1], rng.randint(1, 4)):
            for _ in range(rng.randint(1, 3)):  # times (t - root)
                V = [a - root * b for a, b in zip([0] + V, V + [0])]
        for _ in range(rng.choice([0, 0, 1, 2])):  # times (1 + t^2)
            V = [a + b for a, b in zip(V + [0, 0], [0, 0] + V)]
        cases.append(V)
    for V in cases:
        assert _primitive(_squarefree_part(V)) == _primitive(_squarefree_by_gcd(V)), V


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
