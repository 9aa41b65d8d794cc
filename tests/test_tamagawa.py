"""Arithmetic recursion: zeta-value totals, cone sums, counts, mass formula.

Three oracles are the point: closed-form cone sums must agree with honest
finite truncations over enumerated types, the closed-form semistable mass
must agree exactly with the recursion that subtracts those cone sums, and
the programmes over prefix sums (mass and Siegel tail bound) must agree
exactly with the term-by-term sums over compositions.
"""

import random
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import gcd
from pathlib import Path

import pytest

import oracles
from modrec import acceptance, cli
from modrec.cli import load_curve
from modrec.curve import CurveData, HyperellipticModel, zeta_from_counts
from modrec.errors import ValidationError
from modrec.exactalg import Poly, RatFun, _strip_vars
from modrec.fields import SpecializationField
from modrec.hn import codim, enumerate_types
from modrec.tamagawa import (
    MASS_RANK_LIMIT,
    NUMERIC_MASS_CHARGE,
    _power_tail,
    _tail_bound,
    _zagier_sum,
    fixed_determinant_count,
    matches_moduli_polynomial,
    siegel_check,
    ss_mass,
    stable_count,
    total_mass,
)
from modrec.yangmills import classifying_series, moduli_poincare

from oracles import (
    ArithPoly,
    ConeSum,
    ConstantRatFunField,
    RatFunField,
    ReducingRatFun,
    compositions,
    cone_for,
    cone_sum,
    poly_gcd,
    power_tail_by_head,
    ratfun_zagier_sum,
    stratum_mass,
    tail_bound_by_compositions,
    zagier_sum_by_prefix_tree,
)

T = ArithPoly.var("t")

MODEL_F2 = HyperellipticModel(p=2, k=1, f=(0, 0, 0, 0, 0, 1), h=(1,))


@pytest.fixture()
def F2():
    return SpecializationField.numeric(CurveData.from_model(MODEL_F2))


def test_total_mass_rank_one(F2):
    assert total_mass(1, F2) == Fraction(5)  # P(1)/(q-1) = 5/1


def test_total_mass_rank_two_example(F2):
    assert total_mass(2, F2) == Fraction(325, 3)


def test_total_mass_betti_matches_classifying_series():
    # the zeta-value product q^{(n^2-1)(g-1)} zeta(2)..zeta(n), specialized
    # to q = t^2 and multiplied by (1+t)^{2g}/(1-t^2), is exactly the
    # classifying series: the formal correspondence between the recursions.
    # The full total mass, P(1)/(q-1) times that product, then equals minus
    # the classifying series, the (q-1) versus (1-t^2) sign.
    for n in (2, 3):
        for g in (2, 3):
            F = SpecializationField.betti(g)
            torus = F.P_power(0) * F.geom(1)
            assert total_mass(n, F) * (F.q - 1) * torus == F.P_one() * classifying_series(n, g)
            assert total_mass(n, F) == -classifying_series(n, g)
            assert total_mass(n, F) != classifying_series(n, g)


def test_ss_mass_rank_one(F2):
    for d in (-1, 0, 7):
        assert ss_mass(1, d, F2) == Fraction(5)


def test_ss_mass_rank_two_example(F2):
    assert ss_mass(2, 1, F2) == Fraction(75)


def test_cone_sum_two_line_bundle_strata():
    # unit part factors isolate the pure geometric series: for odd total
    # degree the sum of q^{(g-1)-k} over odd gaps k >= 1 is q^g/(q^2-1)
    curve = CurveData.from_model(MODEL_F2)
    F = SpecializationField.numeric(curve)
    one = ReducingRatFun.one()
    cs = ConeSum((1, 1), F.genus, ((one,), (one,)))
    assert cone_sum(cs, 1, F).const_value() == Fraction(4, 3)
    # even total degree: gaps are even, sum q^{(g-1)-k} = q^{g-1}/(q^2-1)
    assert cone_sum(cs, 0, F).const_value() == Fraction(2, 3)


def test_cone_sum_single_part(F2):
    seven, nine = ReducingRatFun(Fraction(7)), ReducingRatFun(Fraction(9))
    cs = ConeSum((2,), F2.genus, ((seven, nine),))
    assert cone_sum(cs, 4, F2) == seven
    assert cone_sum(cs, 5, F2) == nine


def test_cone_sum_against_partial_sums(F2):
    # |closed form - partial sum up to codim M| <= first omitted level
    # divided by (1 - 1/q), for the two-part composition
    g = F2.genus
    cs_factors = ((ss_mass(1, 0, F2),), (ss_mass(1, 0, F2),))
    cs = ConeSum((1, 1), g, cs_factors)
    closed = cone_sum(cs, 1, F2).const_value()
    for M in (5, 10, 15, 20):
        types = [mu for _, mu in enumerate_types(2, 1, g, M) if len(mu) > 1]
        partial = sum(stratum_mass(mu, F2) for mu in types)
        assert 0 < closed - partial
        omitted = [mu for _, mu in enumerate_types(2, 1, g, M + 4)
                   if len(mu) > 1 and codim(mu, g) > M]
        first = min(omitted, key=lambda mu: codim(mu, g))
        first_mass = stratum_mass(first, F2)
        q = F2.q
        assert closed - partial <= first_mass / (1 - 1 / q)


def test_stable_count_examples(F2):
    assert stable_count(1, 0, F2) == 5  # the class number P(1)
    assert stable_count(2, 1, F2) == 75
    assert fixed_determinant_count(2, 1, F2) == 15


def test_fixed_det_eigenvalue_oracle(F2):
    # Frobenius eigenvalue evaluation of the fixed-determinant polynomial
    # 1 + t^2 + 4t^3 + t^4 + t^6: even degrees contribute q^(deg/2), the odd
    # part vanishes because a_1 = 0 for this curve
    q = 2
    assert fixed_determinant_count(2, 1, F2) == 1 + q + q ** 2 + q ** 3


def test_stable_count_requires_coprime(F2):
    with pytest.raises(ValidationError):
        stable_count(2, 0, F2)


def test_stable_count_requires_numeric():
    with pytest.raises(ValidationError):
        stable_count(2, 1, SpecializationField.betti(2))


def test_betti_cross_check_rank_two():
    # the central identity: (q-1) * semistable mass specialized to q = t^2
    # equals the moduli Poincare polynomial, as exact rational functions
    F = SpecializationField.betti(2)
    assert matches_moduli_polynomial(ss_mass(2, 1, F), moduli_poincare(2, 1, 2), F)


def test_betti_cross_check_rank_four():
    # stresses the cone machinery through four-part compositions
    F = SpecializationField.betti(2)
    assert matches_moduli_polynomial(ss_mass(4, 1, F), moduli_poincare(4, 1, 2), F)


def test_duality_in_degree():
    # dualizing bundles identifies M(n, d) with M(n, -d), and -1 = 2 mod 3
    assert moduli_poincare(3, 1, 2) == moduli_poincare(3, 2, 2)
    curve = CurveData.from_model(MODEL_F2)
    F = SpecializationField.numeric(curve)
    assert stable_count(3, 1, F) == stable_count(3, 2, F)


def test_higher_rank_counts_are_integers(F2):
    assert stable_count(3, 1, F2) == 3875
    assert fixed_determinant_count(3, 1, F2) == 775
    assert stable_count(4, 1, F2) == 685875
    assert fixed_determinant_count(4, 1, F2) == 137175


def test_masses_at_large_degree_cost_as_at_the_residue():
    # each count runs on a fresh field, so the large degree misses the memo
    curve = CurveData.from_model(MODEL_F2)
    expected = stable_count(3, 2, SpecializationField.numeric(curve))
    for d in (10 ** 8 + 1, 10 ** 3999 + 1):
        start = time.perf_counter()
        assert stable_count(3, d, SpecializationField.numeric(curve)) == expected
        assert time.perf_counter() - start < 1.0


def test_mass_periodicity_numeric_and_betti():
    curve = CurveData.from_model(MODEL_F2)
    for make in (lambda: SpecializationField.numeric(curve),
                 lambda: SpecializationField.betti(2)):
        # ss_mass computes at d mod n, so the programme runs at d and d + n
        F = make()
        assert F.reduce(_zagier_sum(2, 1, F)) == F.reduce(_zagier_sum(2, 3, F))
        assert F.reduce(_zagier_sum(3, 2, F)) == F.reduce(_zagier_sum(3, 5, F))


HODGE_CASES = [(2, 1, 2), (3, 1, 2), (2, 1, 3), (3, 2, 2), (3, 1, 3)]


def test_hodge_specializes_to_betti():
    t = ReducingRatFun(T)
    for n, d, g in HODGE_CASES:
        hodge = ReducingRatFun.of(ss_mass(n, d, SpecializationField.hodge(g)))
        betti = ss_mass(n, d, SpecializationField.betti(g))
        assert hodge.substitute({"u": t, "v": t}) == betti, (n, d, g)


def test_hodge_mass_is_uv_symmetric(graded_gcd):
    u, v = ReducingRatFun.var("u"), ReducingRatFun.var("v")
    for n, d, g in HODGE_CASES:
        h = ReducingRatFun.of(ss_mass(n, d, SpecializationField.hodge(g)))
        assert h.substitute({"u": v, "v": u}) == h, (n, d, g)


def test_siegel_check_rank_one(F2):
    # a single stratum: the semistable term already exhausts the total
    report = siegel_check(1, 0, F2, 0)
    assert report.gaps == (Fraction(0),)
    assert report.partial_sums == (report.total,)


def test_siegel_check_rank_two(F2):
    report = siegel_check(2, 1, F2, 20)
    assert report.gaps[-1] <= report.tail_bound
    assert all(x >= y for x, y in zip(report.gaps, report.gaps[1:]))
    assert report.gaps[-1] < Fraction(1, 2 ** 14)
    assert report.partial_sums[-1] < report.total


def test_siegel_check_rank_three(F2):
    report = siegel_check(3, 1, F2, 20)
    assert all(x >= y for x, y in zip(report.gaps, report.gaps[1:]))
    assert report.gaps[-1] <= report.tail_bound


def test_siegel_levels_are_the_per_type_sums(F2):
    # one weight per tuple of part keys, over q^level, against one
    # stratum_mass per type, filed by the codimension codim() gives it
    for n in range(1, 6):
        for d in (-1, 0, 1, 2):
            report = siegel_check(n, d, F2, 12)
            levels = [ss_mass(n, d, F2)] + [0] * 12
            for _, mu in enumerate_types(n, d, F2.genus, 12)[1:]:
                levels[codim(mu, F2.genus)] += stratum_mass(mu, F2)
            assert list(report.partial_sums) == list(accumulate(levels)), (n, d)


def test_genus_three_curve_end_to_end():
    # y^2 + y = x^7 over F_2: nonzero middle zeta coefficient, class number 7
    from modrec.curve import count_points

    model = HyperellipticModel(p=2, k=1, f=(0,) * 7 + (1,), h=(1,))
    assert model.genus == 3
    assert [count_points(model, r) for r in range(1, 4)] == [3, 5, 3]
    curve = CurveData.from_model(model)
    assert curve.coefficients() == [1, 0, 0, -2, 0, 0, 8]
    assert curve.class_number() == 7
    F = SpecializationField.numeric(curve)
    assert stable_count(2, 1, F) == 1029
    assert fixed_determinant_count(2, 1, F) == 147
    assert stable_count(3, 1, F) == 1700937
    report = siegel_check(2, 1, F, 20)
    assert report.gaps[-1] <= report.tail_bound


def test_second_curve_counts():
    # y^2 = x^5 + 1 over F_3
    model = HyperellipticModel(p=3, k=1, f=(1, 0, 0, 0, 0, 1), h=())
    curve = CurveData.from_model(model)
    assert curve.coefficients() == [1, 0, 0, 0, 9]
    assert curve.class_number() == 10
    F = SpecializationField.numeric(curve)
    assert stable_count(2, 1, F) == 400
    assert fixed_determinant_count(2, 1, F) == 40


def test_siegel_report_json_roundtrip(F2):
    report = siegel_check(2, 1, F2, 8)
    obj = report.to_json()
    assert obj["n"] == 2 and obj["mode"] == "numeric"
    assert Fraction(obj["total"]) == report.total
    assert [Fraction(s) for s in obj["gaps"]] == list(report.gaps)


# -- the closed form against the cone recursion ---------------------------------


def cone_mass(n, d, field, memo):
    """Semistable mass by the Harder-Narasimhan recursion: the total mass
    minus, per composition, the cone sum of its strata over all degrees."""
    key = (n, d % n)
    if key not in memo:
        value = total_mass(n, field)
        for comp in compositions(n):
            if len(comp) > 1:
                parts = cone_for(comp, field, lambda m, e, F: cone_mass(m, e, F, memo))
                value = value - cone_sum(parts, d, field)
        memo[key] = value
    return memo[key]


CURVE_G3 = zeta_from_counts(2, 3, [3, 5, 9])

SWEEP = [
    ("numeric", 2, 5, lambda: SpecializationField.numeric(CurveData.from_model(MODEL_F2))),
    ("numeric", 3, 5, lambda: SpecializationField.numeric(CURVE_G3)),
    ("betti", 2, 4, lambda: SpecializationField.betti(2)),
    ("betti", 3, 4, lambda: SpecializationField.betti(3)),
    ("hodge", 2, 3, lambda: SpecializationField.hodge(2)),
    ("hodge", 3, 3, lambda: SpecializationField.hodge(3)),
]


@pytest.mark.parametrize("mode, g, top, make", SWEEP,
                         ids=["%s-g%d" % (mode, g) for mode, g, _, _ in SWEEP])
def test_closed_form_matches_cone_recursion(mode, g, top, make, graded_gcd):
    # the recursion runs on Fractions, or on reducing RatFuns in Betti and Hodge
    oracle_field = make() if mode == "numeric" else RatFunField(mode, g)
    memo = {}
    assert (oracle_field.mode, oracle_field.genus) == (mode, g)
    for n in range(1, top + 1):
        for d in range(n):
            # a fresh field per mass, so no closed-form value serves another
            assert ss_mass(n, d, make()) == cone_mass(n, d, oracle_field, memo), (n, d)


def test_closed_form_betti_rank_five_and_six():
    # the cone recursion takes minutes here; the gauge recursion does not.
    # Also ranks 7 and 8 at g = 2 and ranks 4 and 5 at g = 3, every coprime d
    # at ranks 4 to 7
    cases = [(5, 1, 2), (5, 2, 2), (5, 3, 2), (5, 4, 2), (6, 1, 2), (6, 5, 2)]
    cases += [(7, d, 2) for d in range(1, 7)] + [(8, 1, 2), (8, 3, 2)]
    cases += [(n, d, 3) for n in (4, 5) for d in range(1, n) if gcd(n, d) == 1]
    fields = {g: SpecializationField.betti(g) for g in (2, 3)}
    for n, d, g in cases:
        F = fields[g]
        assert matches_moduli_polynomial(ss_mass(n, d, F), moduli_poincare(n, d, g), F), (n, d, g)
    # and no wrong polynomial matches, every coprime (n, d) to rank 5 at g = 2
    # and to rank 3 at g = 3
    for g, top in ((2, 5), (3, 3)):
        for n in range(1, top + 1):
            for d in (d for d in range(n) if gcd(n, d) == 1):
                poly = moduli_poincare(n, d, g)
                spots = [(k,) for k in range(poly.degree("t") + 1)]
                _assert_only_the_polynomial_matches(
                    ss_mass(n, d, fields[g]), poly, fields[g], spots, [(poly.degree("t") + 1,)])


def _bumped(p, e, c):
    """p plus c times the monomial of exponent tuple e (in p's variables)."""
    terms = dict(p.terms)
    terms[e] = terms.get(e, 0) + c
    if not terms[e]:
        del terms[e]
    return Poly(*_strip_vars(p.vars, terms))


def _assert_only_the_polynomial_matches(mass, poly, F, spots, past):
    """``poly`` matches ``mass``, and a +-1 change at each exponent in
    ``spots``, a term at each exponent in ``past`` (one degree past the
    top) and a +-1 change in the mass numerator's constant term do not."""
    assert matches_moduli_polynomial(mass, poly, F)
    for e in spots:
        for c in (1, -1):
            assert not matches_moduli_polynomial(mass, _bumped(poly, e, c), F), (e, c)
    for e in past:
        assert not matches_moduli_polynomial(mass, _bumped(poly, e, 1), F), e
    for c in (1, -1):
        num = _bumped(mass.num, (0,) * len(mass.num.vars), c)
        assert not matches_moduli_polynomial(RatFun(num, mass.den), poly, F), c


def test_fixed_determinant_counts_integral_to_rank_nine():
    # every coprime d to rank 9, then d = 1 at ranks 17, 32 and 61, which
    # NUMERIC_MASS_CHARGE admits over F_2 at g = 2; fixed_determinant_count
    # checks divisibility by the class number
    config = Path(__file__).resolve().parent.parent / "configs" / "g2q2.json"
    curve = load_curve(str(config))
    F = SpecializationField.numeric(curve)
    cases = [(n, d) for n in range(1, 10) for d in range(n) if gcd(n, d) == 1]
    cases += [(17, 1), (32, 1), (61, 1)]
    for n, d in cases:
        count = stable_count(n, d, F)
        assert count > 0 and count % curve.class_number() == 0, (n, d)
        assert fixed_determinant_count(n, d, F) > 0, (n, d)


def test_mass_rank_limit():
    for mode, _, _, make in SWEEP[2::2]:
        F = make()
        limit = MASS_RANK_LIMIT[mode]
        with pytest.raises(ValidationError, match="%s mass: rank = %d exceeds the limit %d"
                                                  % (mode, limit + 1, limit)):
            ss_mass(limit + 1, 1, F)


def test_masses_of_dual_degrees_are_equal():
    # dualising sends degree d to -d, so the programme gives one mass at the
    # residues r and n - r; ss_mass computes only the smaller one.  Each
    # field is fresh, so neither side is served by the other's memo
    q = 2 ** 61 - 1
    curves = [load_curve(str(ROOT / "configs/g2q2.json")), CURVE_G3,
              zeta_from_counts(q, 2, [q + 1, q * q + 1])]
    fields = [(partial(SpecializationField.numeric, curve), 7) for curve in curves]
    fields += [(partial(SpecializationField.betti, g), 7) for g in (2, 3)]
    fields += [(partial(SpecializationField.hodge, g), 5) for g in (2, 3)]
    for make, top in fields:
        for n in range(2, top + 1):
            for r in range(1, (n + 1) // 2):
                F, dual = make(), make()
                assert (F.reduce(_zagier_sum(n, r, F))
                        == dual.reduce(_zagier_sum(n, n - r, dual))), (F.mode, F.genus, n, r)


def test_numeric_mass_is_charged_by_the_size_of_q():
    # n^6 bits(q)^2 g: over q = 10^9 + 7 at g = 2, rank 26 is the last admitted
    q = 10 ** 9 + 7
    F = SpecializationField.numeric(zeta_from_counts(q, 2, [q + 1, q * q + 1]))
    start = time.perf_counter()
    for n in (27, 60):
        with pytest.raises(ValidationError, match=r"numeric mass of rank %d over q = %d at "
                                                  r"genus 2: n\^6 bits\(q\)\^2 g = " % (n, q)):
            ss_mass(n, 1, F)
    assert time.perf_counter() - start < 0.1
    assert stable_count(5, 1, F) > 0
    assert NUMERIC_MASS_CHARGE >= 60 ** 6 * 2 ** 2 * 3  # rank 60 over F_2 up to genus 3


# -- the programmes over prefix sums against the composition sums -----------


# the same fields as SWEEP, to the ranks where the prefix tree stays quick
PROGRAMME_SWEEP = [(mode, g, top, make)
                   for (mode, g, _, make), top in zip(SWEEP, (8, 8, 6, 5, 4, 3))]


@pytest.mark.parametrize("mode, g, top, make", PROGRAMME_SWEEP,
                         ids=["%s-g%d" % (mode, g) for mode, g, _, _ in PROGRAMME_SWEEP])
def test_mass_programme_matches_prefix_tree(mode, g, top, make, graded_gcd):
    # every d from -1 to 2n - 1, so the telescoped exponent meets negative
    # degrees and degrees past n, not just residues; the prefix tree runs on
    # Fractions, or on reducing RatFuns in Betti and Hodge
    F = make()
    oracle = F if mode == "numeric" else RatFunField(mode, g)
    for n in range(1, top + 1):
        for d in range(-1, 2 * n):
            expected = zagier_sum_by_prefix_tree(n, d, oracle)
            assert F.reduce(_zagier_sum(n, d, F)) == expected, (n, d)


# Betti to rank 8 and Hodge to rank 5, at g = 2 and 3
FACTORED_SWEEP = [(mode, g, top) for mode, top in (("betti", 8), ("hodge", 5)) for g in (2, 3)]


@pytest.mark.parametrize("mode, g, top", FACTORED_SWEEP,
                         ids=["%s-g%d" % (mode, g) for mode, g, _ in FACTORED_SWEEP])
def test_factored_masses_match_ratfun_programme(mode, g, top, graded_gcd):
    # every d from -1 to 2n - 1 on the Factored side; the RatFun programme
    # runs once per residue, its mass being periodic in d
    F, oracle = SpecializationField(mode, g), RatFunField(mode, g)
    for n in range(1, top + 1):
        expected = [ratfun_zagier_sum(n, d, oracle) for d in range(n)]
        for d in range(-1, 2 * n):
            assert F.reduce(_zagier_sum(n, d, F)) == expected[d % n], (n, d)
        assert F.reduce(total_mass(n, F)) == oracle.total_cache[n], n


@pytest.mark.parametrize("mode", ["betti", "hodge"])
def test_mass_programme_makes_no_gcd(monkeypatch, mode):
    # the Factored programme and its cyclotomic reduction never reach the
    # general gcd, which RatFun arithmetic would call on every sum
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(oracles, "poly_gcd", counted)
    for g in (2, 3):
        F = SpecializationField(mode, g)
        for n in range(1, 6):
            for d in range(n):
                value = _zagier_sum(n, d, F)
                assert not calls, (n, d)
                assert F.reduce(value) == ss_mass(n, d, F)
    assert not calls
    ReducingRatFun(1, ArithPoly.one() - T) + ReducingRatFun(1, ArithPoly.one() - T ** 2)
    assert calls  # while the reducing RatFun's arithmetic does reach the wrapper


def _count_gcd_calls(monkeypatch):
    """Route the one polynomial gcd there is, the oracle's, through a
    counter, after checking that no modrec module holds a gcd of its own."""
    for name, module in list(sys.modules.items()):
        if name == "modrec" or name.startswith("modrec."):
            assert "poly_gcd" not in vars(module), name
            assert not any(value is poly_gcd for value in vars(module).values()), name
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(oracles, "poly_gcd", counted)
    return calls


CROSS_CHECKS = {
    "criterion-1": acceptance.criterion_1_rank2_closed_form,
    "criterion-2": acceptance.criterion_2_three_way_cross_check,
    "criterion-3": acceptance.criterion_3_classifying_correspondence,
    "crosscheck": lambda: cli.main(["crosscheck", "--n", "3", "--d", "1", "--g", "2"]),
}


@pytest.mark.parametrize("name", sorted(CROSS_CHECKS))
def test_cross_checks_make_no_gcd(monkeypatch, capsys, name):
    # the gauge and arithmetic sides meet in factored form, or with the
    # reduced mass cross-multiplied against the polynomial, never by a gcd
    calls = _count_gcd_calls(monkeypatch)
    result = CROSS_CHECKS[name]()
    assert not calls, name
    if name == "crosscheck":
        assert result == 0 and capsys.readouterr().out == '{"match": true}\n'
    ReducingRatFun(1, ArithPoly.one() - T) + ReducingRatFun(1, ArithPoly.one() - T ** 2)
    assert calls  # while the reducing RatFun's arithmetic is counted


# (n, d, g) at which the Hodge mass's polynomial is checked
HODGE_POLYNOMIAL_CASES = [(2, 1, 2), (3, 1, 2), (2, 1, 3), (3, 2, 3), (4, 1, 2), (5, 1, 2),
                          (4, 1, 3)]


@pytest.mark.parametrize("n, d, g", HODGE_POLYNOMIAL_CASES)
def test_hodge_mass_gives_the_hodge_polynomial(n, d, g):
    # (uv - 1) times the Hodge mass is the Hodge polynomial E(u, v) of the
    # moduli space: non-negative integer coefficients, Serre symmetry
    # E_(a,b) = E_(D-a,D-b) in its dimension D, u <-> v symmetry, and the
    # Poincare polynomial of the gauge recursion at u = v = t
    F = SpecializationField.hodge(g)
    mass = ss_mass(n, d, F)
    u, v = ArithPoly.var("u"), ArithPoly.var("v")
    assert mass.den == u * v - 1
    E = mass.num
    D = n * n * (g - 1) + 1
    spots = [(a, b) for a in range(D + 1) for b in range(D + 1)]
    _assert_only_the_polynomial_matches(mass, E, F, spots, [(D + 1, D), (D, D + 1)])
    assert not matches_moduli_polynomial(mass, E + u, F)
    terms = E.terms
    assert E.vars == ("u", "v") and all(type(c) is int and c > 0 for c in terms.values())
    assert all(terms.get((D - a, D - b)) == c for (a, b), c in terms.items())
    assert all(terms.get((b, a)) == c for (a, b), c in terms.items())
    betti = [0] * (2 * D + 1)
    for (a, b), c in terms.items():
        betti[a + b] += c
    assert Poly.univariate("t", betti) == moduli_poincare(n, d, g)


@pytest.mark.parametrize("make", [make for _, _, _, make in SWEEP[:2]],
                         ids=["numeric-g2", "numeric-g3"])
def test_tail_bound_matches_composition_loop(make):
    F = make()
    for n in range(1, 9):
        for max_codim in (0, 3, 20):
            assert _tail_bound(n, F, max_codim) == tail_bound_by_compositions(n, F, max_codim)


def test_power_tail_matches_head_subtraction():
    rng = random.Random(2008)
    cases = [(Fraction(1, q), p, start) for q in (2, 3, 4, 81) for p in range(0, 9)
             for start in (1, 2, 7)]
    for _ in range(200):
        den = rng.randint(2, 100)
        cases.append((Fraction(rng.randint(1, den - 1), den), rng.randint(0, 16),
                      rng.randint(1, 60)))
    for x, p, start in cases:
        assert _power_tail(x, p, start) == power_tail_by_head(x, p, start), (x, p, start)


# -- plain Fractions against the constant-RatFun numeric field ---------------


ROOT = Path(__file__).resolve().parent.parent
NUMERIC_CONFIGS = ["configs/g2q2.json", "configs/g2q2_counts.json",
                   "bench/configs/g2_f3k4.json"]


@pytest.mark.parametrize("config", NUMERIC_CONFIGS)
def test_fraction_field_matches_constant_ratfun_field(config):
    curve = load_curve(str(ROOT / config))
    F, oracle = SpecializationField.numeric(curve), ConstantRatFunField(curve)
    assert isinstance(ss_mass(3, 1, oracle), RatFun)
    for n in range(1, 9):
        for d in range(-1, 2 * n):
            assert RatFun(ArithPoly.const(ss_mass(n, d, F))) == ss_mass(n, d, oracle), (n, d)
    for n in range(1, 7):
        for d in (0, 1):
            for max_codim in (3, 20):
                report = siegel_check(n, d, F, max_codim)
                assert report == siegel_check(n, d, oracle, max_codim), (n, d, max_codim)


def _plain(value):
    return type(value) in (int, Fraction)


@pytest.mark.parametrize("config", NUMERIC_CONFIGS)
def test_numeric_values_are_ints_or_fractions(config):
    F = SpecializationField.numeric(load_curve(str(ROOT / config)))
    assert _plain(F.q) and _plain(F.P_one())
    assert all(_plain(F.zeta(i)) for i in range(2, 9))
    for n in range(1, 7):
        assert _plain(total_mass(n, F))
        assert all(_plain(ss_mass(n, d, F)) for d in range(n))
        assert all(_plain(stratum_mass(mu, F)) for _, mu in enumerate_types(n, 1, F.genus, 6))
        report = siegel_check(n, 1, F, 6)
        numbers = [report.total, report.semistable, report.tail_bound]
        assert all(_plain(v) for v in numbers + list(report.partial_sums) + list(report.gaps))
