"""The acceptance suite: nine exact, timed criteria.

Each criterion re-derives its expected values from an independent route
(closed forms, brute-force enumeration, exclusion counts) and compares
exactly; there are no tolerances anywhere except the stated wall-clock
budgets.  ``run_all`` prints one line per criterion and is wired to the
CLI ``--selftest`` flag; the pytest module drives the same functions.
"""

import random
import sys
import time
from collections import namedtuple

from .curve import CurveData, HyperellipticModel, count_points
from .exactalg import Poly
from .fields import SpecializationField
from .hn import codim, enumerate_types, mass_exponent
from .kirwan import WeightSystem, bb_decomposition, perfection_check, quotient_poincare
from .matrixdiv import div_bridge_check
from .symprod import divisor_enumerate, sym_count, sym_poincare
from .tamagawa import (_zagier_sum, fixed_determinant_count, matches_moduli_polynomial,
                       siegel_check, ss_mass, stable_count)
from .yangmills import (classifying_series, clear_caches, moduli_poincare,
                        ss_equivariant_series)

MODEL_F2 = HyperellipticModel(p=2, k=1, f=(0, 0, 0, 0, 0, 1), h=(1,))
MODEL_F3 = HyperellipticModel(p=3, k=1, f=(1, 0, 0, 0, 0, 1), h=())


def criterion_1_rank2_closed_form():
    # P_t(M(2, 1)) (1 - q)^2 (1 + q) = P(1) (P(q) - q^g P(1)), q = t^2
    for g in (2, 3):
        F = SpecializationField.betti(g)
        P1 = F.P_one()
        lhs = F.element(moduli_poincare(2, 1, g)) * (1 - F.q) * (1 - F.q) * (1 + F.q)
        assert lhs == P1 * (F.P_power(1) - F.q_power(g) * P1), "closed form fails at g=%d" % g
    return "moduli polynomial (2,1) equals the closed form for g=2,3"


def criterion_2_three_way_cross_check():
    cases = []
    for g in (2, 3):
        for n, d in [(2, 1), (3, 1), (3, 2)]:
            F = SpecializationField.betti(g)
            assert matches_moduli_polynomial(ss_mass(n, d, F), moduli_poincare(n, d, g), F), \
                "cross-check fails at (n,d,g)=(%d,%d,%d)" % (n, d, g)
            cases.append((n, d, g))
    return "arithmetic and gauge pipelines agree on %d cases" % len(cases)


def criterion_3_classifying_correspondence():
    for g in (2, 3):
        for n in (2, 3, 4):
            F = SpecializationField.betti(g)
            value = F.q_power((n * n - 1) * (g - 1))
            for i in range(2, n + 1):
                value = value * F.zeta(i)
            torus = F.P_power(0) * F.geom(1)
            assert value * torus == classifying_series(n, g), \
                "correspondence fails at (n,g)=(%d,%d)" % (n, g)
    return "zeta-value product matches the classifying series for n=2,3,4 and g=2,3"


def criterion_4_numeric_ground_truth():
    from .yangmills import fixed_determinant_poly

    assert count_points(MODEL_F2, 1) == 3
    assert count_points(MODEL_F2, 2) == 5
    curve = CurveData.from_model(MODEL_F2)
    assert curve.coefficients() == [1, 0, 0, 0, 4]
    F = SpecializationField.numeric(curve)
    assert stable_count(2, 1, F) == 75
    fixed = fixed_determinant_count(2, 1, F)
    # eigenvalue evaluation of the fixed-determinant polynomial: even degrees
    # contribute q^(k/2); the odd part vanishes because the curve has a_1 = 0
    assert curve.coefficients()[1] == 0
    q = 2
    coeffs = fixed_determinant_poly(2, 1, curve.genus).scalar_coeffs("t")
    eigen = sum(c * q ** (k // 2) for k, c in enumerate(coeffs) if k % 2 == 0)
    assert fixed == 15 == eigen
    return "N_1=3, N_2=5, P=1+4t^4, 75 stable bundles, 15 with fixed determinant"


def criterion_5_executable_tamagawa():
    curve = CurveData.from_model(MODEL_F2)
    F = SpecializationField.numeric(curve)
    details = []
    for n in (2, 3):
        report = siegel_check(n, 1, F, 20)
        assert all(x >= y for x, y in zip(report.gaps, report.gaps[1:])), \
            "gaps not monotone for n=%d" % n
        assert report.gaps[-1] <= report.tail_bound, "tail bound fails for n=%d" % n
        details.append("n=%d gap %s <= bound %s" % (n, report.gaps[-1], report.tail_bound))
    return "; ".join(details)


def criterion_6_matrix_divisor_bridge():
    report = div_bridge_check(2, 2, e=30, cutoff=8)
    assert report.match, "bridge mismatch at t^%s" % report.first_mismatch
    assert report.divisor_coeffs == report.stabilized_coeffs, "stabilization fails"
    return "divisor coefficients at e=30,31 match the classifying series through t^8"


def criterion_7_macdonald_suite():
    assert sym_poincare(2, 2) == Poly.univariate("t", [1, 4, 7, 4, 1])
    for model in (MODEL_F2, MODEL_F3):
        curve = CurveData.from_model(model)
        for n in range(0, 7):
            assert sym_count(curve, n) == divisor_enumerate(model, n), \
                "divisor identity fails at p=%d, n=%d" % (model.p, n)
    return "symmetric-power polynomial and divisor counts agree on two curves, n<=6"


def criterion_8_kirwan_rank1_suite():
    rng = random.Random(20260809)
    done = 0
    while done < 50:
        size = rng.randint(1, 8)
        w = tuple(rng.randint(-5, 5) for _ in range(size + 1))
        ws = WeightSystem(w)
        bb_decomposition(ws)
        if ws.has_semistable():
            perfection_check(ws)
        done += 1
    got = quotient_poincare(WeightSystem((1, 1, -1, -1)))
    assert got == Poly.univariate("t", [1, 0, 2, 0, 1]), "product-of-lines quotient"
    return "50 randomized weight systems balance; quotient(1,1,-1,-1) = 1+2t^2+t^4"


def criterion_9_property_suite():
    cases = [(1, 0), (2, 1), (3, 1), (3, 2)]
    for g in (2, 3):
        for n, d in cases:
            p = moduli_poincare(n, d, g)
            top = 2 * (n * n * (g - 1) + 1)
            assert p.degree("t") == top, "degree fails at (%d,%d,%d)" % (n, d, g)
            coeffs = p.scalar_coeffs("t")
            assert coeffs == coeffs[::-1]  # palindromic
            assert all(isinstance(c, int) and c >= 0 for c in coeffs)
            assert sum(coeffs[0::2]) == sum(coeffs[1::2])  # vanishes at t = -1
    # periodicity of the series and of the masses; the series memo is keyed
    # on d mod n, so it is cleared between d and d + n, and ss_mass computes
    # at d mod n, so the mass programme is run at d and d + n directly
    for n, d in [(2, 1), (3, 2)]:
        clear_caches()
        base = ss_equivariant_series(n, d, 2, 14)
        clear_caches()
        assert base == ss_equivariant_series(n, d + n, 2, 14)
    curve = CurveData.from_model(MODEL_F2)
    for make in (lambda: SpecializationField.numeric(curve),
                 lambda: SpecializationField.betti(2)):
        F = make()
        assert F.reduce(_zagier_sum(2, 1, F)) == F.reduce(_zagier_sum(2, 3, F))
        assert F.reduce(_zagier_sum(3, 1, F)) == F.reduce(_zagier_sum(3, 4, F))
    # exponent identity on every enumerated type up to codimension 20
    checked = 0
    for g in (2, 3):
        for n, d in [(2, 1), (3, 1), (3, 2)]:
            for _, parts in enumerate_types(n, d, g, 20):
                pairs = sum(parts[i][0] * parts[j][0]
                            for i in range(len(parts)) for j in range(i + 1, len(parts)))
                assert mass_exponent(parts, g) == 2 * (g - 1) * pairs - codim(parts, g)
                checked += 1
    return "moduli properties, periodicity, exponent identity on %d types" % checked


Criterion = namedtuple("Criterion", "number title limit_seconds run")


CRITERIA = (
    Criterion(1, "rank-2 closed form", 1.0, criterion_1_rank2_closed_form),
    Criterion(2, "three-way cross-check", 30.0, criterion_2_three_way_cross_check),
    Criterion(3, "classifying-series correspondence", 5.0, criterion_3_classifying_correspondence),
    Criterion(4, "numeric ground truth", 5.0, criterion_4_numeric_ground_truth),
    Criterion(5, "executable Tamagawa number 1", 30.0, criterion_5_executable_tamagawa),
    Criterion(6, "matrix-divisor bridge", 10.0, criterion_6_matrix_divisor_bridge),
    Criterion(7, "symmetric-power suite", 10.0, criterion_7_macdonald_suite),
    Criterion(8, "rank-1 stratification suite", 5.0, criterion_8_kirwan_rank1_suite),
    Criterion(9, "property suite", 30.0, criterion_9_property_suite),
)


def run_criterion(criterion):
    """(passed, elapsed_seconds, detail-or-error)."""
    start = time.perf_counter()
    try:
        detail = criterion.run()
    except Exception as exc:  # noqa: BLE001 - report, runner decides
        return False, time.perf_counter() - start, "%s: %s" % (type(exc).__name__, exc)
    elapsed = time.perf_counter() - start
    if elapsed >= criterion.limit_seconds:
        return False, elapsed, "over the %.0fs budget" % criterion.limit_seconds
    return True, elapsed, detail


def run_all(stream=None):
    stream = stream or sys.stdout
    all_ok = True
    for criterion in CRITERIA:
        ok, elapsed, detail = run_criterion(criterion)
        all_ok = all_ok and ok
        stream.write("%s  %d  %-33s (%.2fs < %.0fs)  %s\n" % (
            "PASS" if ok else "FAIL", criterion.number, criterion.title,
            elapsed, criterion.limit_seconds, detail))
    stream.flush()
    return all_ok
