"""Rank-1 stratification: decomposition and perfection identities, quotients.

The quotient oracle is the exclusion point count: over a field with q
elements the semistable locus has [N+1]_q - [a]_q - [b]_q points (a, b the
numbers of positive/negative weights), and dividing by the scalar orbit
count q - 1 gives the quotient's counting polynomial, which turns into the
Poincare polynomial under q = t^2.
"""

import random
import time

import pytest

from modrec import kirwan
from modrec.cli import main
from modrec.errors import InvariantViolation, ValidationError
from modrec.exactalg import Poly
from modrec.kirwan import (
    PerfectionReport,
    Stratum,
    WeightSystem,
    bb_decomposition,
    perfection_check,
    quotient_poincare,
    strata,
)

from oracles import (
    ArithPoly,
    ReducingRatFun,
    bb_total_by_polys,
    perfection_by_ratfun,
    series_expand,
    strata_by_rescan,
)

T = ArithPoly.var("t")


def quotient_count_oracle(weights):
    """((q^{N+1}-1) - (q^a - 1) - (q^b - 1)) / (q-1)^2 at q = t^2."""
    q = T ** 2
    one = ArithPoly.one()
    a = sum(1 for w in weights if w > 0)
    b = sum(1 for w in weights if w < 0)
    N1 = len(weights)
    num = (q ** N1 - one) - (q ** a - one) - (q ** b - one)
    return ReducingRatFun(num, (q - one) ** 2).as_poly()


def test_strata_examples():
    s = strata(WeightSystem((-1, 1)))
    assert s[0] == Stratum(0, None, 0)
    assert {(x.beta, x.fixed_dim, x.codim) for x in s[1:]} == {(1, 0, 1), (-1, 0, 1)}

    s = strata(WeightSystem((1, 1, -1, -1)))
    assert {(x.beta, x.fixed_dim, x.codim) for x in s[1:]} == {(1, 1, 2), (-1, 1, 2)}

    s = strata(WeightSystem((1, 1)))
    assert all(x.beta != 0 for x in s)  # semistable locus empty
    assert {(x.beta, x.fixed_dim, x.codim) for x in s} == {(1, 1, 0)}


def test_bb_examples():
    assert bb_decomposition(WeightSystem((0, 0, 0))).match
    report = bb_decomposition(WeightSystem((-1, 1)))
    assert report.total == ArithPoly.one() + T ** 2
    assert bb_decomposition(WeightSystem((1, 1, -1, -1))).match


def test_perfection_examples():
    r = perfection_check(WeightSystem((-1, 1)))
    assert r.is_polynomial and r.polynomial_part == ArithPoly.one()

    r = perfection_check(WeightSystem((1, 1, -1, -1)))
    assert r.is_polynomial
    assert r.polynomial_part == Poly.univariate("t", [1, 0, 2, 0, 1])

    # zero weight: identity still balances, series is genuinely infinite
    r = perfection_check(WeightSystem((0, 1, -1)))
    assert not r.is_polynomial
    assert all(c >= 0 for c in r.series_coefficients(10))


def test_perfection_requires_semistable_points():
    with pytest.raises(ValidationError):
        perfection_check(WeightSystem((1, 2)))


def test_quotient_examples():
    assert quotient_poincare(WeightSystem((-1, 1))) == ArithPoly.one()
    assert quotient_poincare(WeightSystem((1, 1, -1, -1))) == Poly.univariate("t", [1, 0, 2, 0, 1])


def test_quotient_against_count_oracle():
    for weights in [(-1, 1), (1, 1, -1, -1), (1, 1, 1, -1, -1, -1), (2, 1, -1), (3, 1, -2, -2)]:
        got = quotient_poincare(WeightSystem(weights))
        assert got == quotient_count_oracle(weights), weights
        coeffs = got.scalar_coeffs("t")
        assert coeffs == coeffs[::-1]


@pytest.mark.parametrize("coeffs, message", [
    ([1, 2], "quotient polynomial is not palindromic"),
    ([-1, 0, -1], "quotient polynomial has bad coefficients"),
])
def test_quotient_identity_checks_fire(coeffs, message, capsys, monkeypatch):
    report = PerfectionReport(numerator=(1,), polynomial_part=Poly.univariate("t", coeffs),
                              periodic_tail=ArithPoly.zero(), is_polynomial=True)
    monkeypatch.setattr(kirwan, "perfection_check", lambda ws: report)
    with pytest.raises(InvariantViolation, match="^%s$" % message):
        quotient_poincare(WeightSystem((1, 1, -1, -1)))
    assert main(["kirwan", "--weights", "[1,1,-1,-1]", "--op", "quotient"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "invariant violation: %s\n" % message


def test_quotient_preconditions():
    with pytest.raises(ValidationError):
        quotient_poincare(WeightSystem((0, 1, -1)))
    with pytest.raises(ValidationError):
        quotient_poincare(WeightSystem((1, 2, 3)))


def test_weight_negation_symmetry():
    rng = random.Random(4242)
    for _ in range(20):
        n = rng.randint(1, 8)
        w = [rng.randint(-5, 5) for _ in range(n + 1)]
        if not (min(w) < 0 < max(w)) or 0 in w:
            continue
        ws, neg = WeightSystem(tuple(w)), WeightSystem(tuple(-x for x in w))
        assert quotient_poincare(ws) == quotient_poincare(neg)
        got = {(s.beta, s.fixed_dim, s.codim) for s in strata(ws)}
        want = {(-s.beta if s.beta else 0, s.fixed_dim, s.codim) for s in strata(neg)}
        assert got == want


def test_translation_to_all_positive_kills_semistable():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 6)
        w = [rng.randint(-5, 5) for _ in range(n + 1)]
        shift = 1 - min(w)
        shifted = WeightSystem(tuple(x + shift for x in w))
        assert not shifted.has_semistable()
        assert all(s.beta != 0 for s in strata(shifted))


def test_randomized_identities():
    rng = random.Random(987654321)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 8)
        w = tuple(rng.randint(-5, 5) for _ in range(n + 1))
        ws = WeightSystem(w)
        bb_decomposition(ws)  # raises on mismatch
        if ws.has_semistable():
            perfection_check(ws)  # raises on negative coefficient
        checked += 1


def test_list_paths_match_ratfun_oracle():
    # bb, perfection and quotient on coefficient lists against the Poly sums
    # and the gcd-reduced RatFun over 1 - t^2 they replaced
    rng = random.Random(20261019)
    seen = {"series": 0, "polynomial": 0, "quotient": 0}
    for _ in range(240):
        size = rng.randint(1, 10)
        ws = WeightSystem(tuple(rng.randint(-6, 6) for _ in range(size + 1)))
        assert strata(ws) == strata_by_rescan(ws), ws.weights
        assert bb_decomposition(ws).total == bb_total_by_polys(ws)
        if not ws.has_semistable():
            continue
        report = perfection_check(ws)
        ss, poly_part, tail = perfection_by_ratfun(ws)
        assert (report.polynomial_part, report.periodic_tail) == (poly_part, tail), ws.weights
        assert report.is_polynomial == tail.is_zero
        order = 2 * ws.dim + 2
        assert report.series_coefficients(order) == series_expand(ss, "t", order).coeffs
        seen["polynomial" if report.is_polynomial else "series"] += 1
        if 0 not in ws.weights and min(ws.weights) < 0 < max(ws.weights):
            assert quotient_poincare(ws) == poly_part
            seen["quotient"] += 1
    assert min(seen.values()) >= 20, seen


def test_ten_thousand_distinct_weights_run_in_one_pass():
    # one sorted count and one difference array: a rescan per distinct value
    # took seconds here
    ws = WeightSystem(tuple(range(-5000, 5001)))
    start = time.perf_counter()
    found = strata(ws)
    assert bb_decomposition(ws).match
    report = perfection_check(ws)
    assert time.perf_counter() - start < 1.0
    assert len(found) == 10001 and found[1] == Stratum(1, 0, 5001)
    assert found[2] == Stratum(-1, 0, 5001)
    assert not report.is_polynomial  # the zero weight leaves a periodic tail
