"""Gauge-side recursion: closed forms, series oracle, moduli polynomials."""

import re
from fractions import Fraction
from math import gcd

import pytest

from modrec.cli import main
from modrec.errors import InvariantViolation, ValidationError
from modrec import hn, yangmills
from modrec.exactalg import Poly, Series, conv, over_one_minus
from modrec.fields import SpecializationField
from modrec.hn import codim, enumerate_types
from modrec.tamagawa import ss_mass
from modrec.yangmills import (
    classifying_coefficients,
    classifying_series,
    clear_caches,
    fixed_determinant_poly,
    moduli_poincare,
    ss_equivariant_series,
)

from oracles import ArithPoly, ReducingRatFun, evaluate, fixed_determinant_by_ratfun, series_expand

T = ArithPoly.var("t")
ONE = ArithPoly.one()


def rank2_closed_form(g):
    """(1+t)^{2g} ((1+t^3)^{2g} - t^{2g} (1+t)^{2g}) / ((1-t^2)^2 (1+t^2))."""
    num = (ONE + T) ** (2 * g) * ((ONE + T ** 3) ** (2 * g) - T ** (2 * g) * (ONE + T) ** (2 * g))
    den = (ONE - T ** 2) ** 2 * (ONE + T ** 2)
    return ReducingRatFun(num, den)


def test_classifying_series_examples():
    assert classifying_series(1, 2).ratfun() == ReducingRatFun((ONE + T) ** 4, ONE - T ** 2)
    expected2 = ReducingRatFun((ONE + T) ** 4 * (ONE + T ** 3) ** 4,
                               (ONE - T ** 4) * (ONE - T ** 2) ** 2)
    assert classifying_series(2, 2).ratfun() == expected2
    # coefficient of t^2 is C(4, 2) exterior pairs plus the two degree-2
    # polynomial generators coming from the (1 - t^2)^2 factor
    got = series_expand(classifying_series(2, 2).ratfun(), "t", 2).coeffs
    assert got == [1, 4, 8]


def test_classifying_coefficients_match_reduced_expansion():
    # the product form expanded without reduction against series_expand of
    # the reduced RatFun; orders below, at and past the longest step 2n
    for g in (2, 3, 5):
        for n in range(1, 8):
            for order in (0, 1, 2 * n - 1, 2 * n, 2 * (n * n * (g - 1) + 1) + 4):
                series = classifying_series(n, g).ratfun()
                want = series_expand(series, "t", order).coeffs
                assert classifying_coefficients(n, g, order) == want, (n, g, order)
    with pytest.raises(ValidationError):
        classifying_coefficients(0, 2, 5)
    with pytest.raises(ValidationError):
        classifying_coefficients(2, 1, 5)


def test_ss_series_rank_one_is_total():
    for g in (2, 3):
        for d in (-1, 0, 5):
            got = ss_equivariant_series(1, d, g, 10)
            want = series_expand(ReducingRatFun((ONE + T) ** (2 * g), ONE - T ** 2), "t", 10)
            assert got == want


def test_ss_series_rank_two_closed_form():
    got = ss_equivariant_series(2, 1, 2, 12)
    q_factor = Poly.univariate("t", [1, 0, 1, 4, 1, 0, 1])
    want = series_expand(ReducingRatFun((ONE + T) ** 4 * q_factor, ONE - T ** 2), "t", 12)
    assert got == want


def test_ss_series_degree_periodicity():
    # the memo is keyed on the residue: clear it so d + n is really recomputed
    # (both walk the same types; the oracle sweep below walks d as given)
    for order in (8, 14):
        for n, d in [(2, 1), (3, 1)]:
            clear_caches()
            base = ss_equivariant_series(n, d, 2, order)
            clear_caches()
            assert base == ss_equivariant_series(n, d + n, 2, order)


def test_ss_series_duality():
    # the memo is keyed on min(d mod n, -d mod n): clear it so n - d is
    # really recomputed (both walk the same types; the oracle sweep below
    # walks d as given, so it checks the dual types too)
    for order in (8, 14, 26):
        for n, d in [(3, 1), (4, 1), (5, 2), (5, 3)]:
            clear_caches()
            base = ss_equivariant_series(n, d, 2, order)
            clear_caches()
            assert base == ss_equivariant_series(n, n - d, 2, order), (n, d, order)


def test_truncation_stability():
    low = ss_equivariant_series(2, 1, 2, 8)
    high = ss_equivariant_series(2, 1, 2, 16)
    assert high.truncate(8) == low


def test_moduli_rank_one():
    assert moduli_poincare(1, 0, 2) == (ONE + T) ** 4
    assert moduli_poincare(1, 3, 3) == (ONE + T) ** 6


def test_moduli_rank_two_example():
    got = moduli_poincare(2, 1, 2)
    q_factor = Poly.univariate("t", [1, 0, 1, 4, 1, 0, 1])
    assert got == (ONE + T) ** 4 * q_factor


def test_moduli_against_closed_form():
    for g in (2, 3, 4):
        got = moduli_poincare(2, 1, g)
        assert ReducingRatFun(got) == rank2_closed_form(g)


def test_moduli_properties():
    for n, d, g in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2)]:
        p = moduli_poincare(n, d, g)
        top = 2 * (n * n * (g - 1) + 1)
        assert p.degree("t") == top
        coeffs = p.scalar_coeffs("t")
        assert coeffs == coeffs[::-1]
        assert all(isinstance(c, int) and c >= 0 for c in coeffs)
        assert evaluate(p, {"t": -1}) == 0


# (2, 1, 2) has top degree 10 and the polynomial
# 1 + 4t + 7t^2 + 12t^3 + 24t^4 + 32t^5 + 24t^6 + 12t^7 + 7t^8 + 4t^9 + t^10;
# each change below passes the checks before the one it breaks
BROKEN_MODULI = [
    ({11: 1}, "coefficient 11 above the top degree is 1; wrong truncation"),
    ({1: 1}, "moduli polynomial is not palindromic"),
    ({0: -2, 10: -2}, "moduli polynomial has bad coefficients"),
    ({5: 1}, "moduli polynomial misses the vanishing at t = -1"),
]


@pytest.mark.parametrize("change, message", BROKEN_MODULI, ids=[m for _, m in BROKEN_MODULI])
def test_moduli_identity_checks_fire(change, message, capsys, monkeypatch):
    # the series plus change / (1 - t^2) collapses to the polynomial plus change
    order = 14
    good = ss_equivariant_series(2, 1, 2, order).coeffs
    delta = [change.get(k, 0) for k in range(order + 1)]
    broken = Series([a + b for a, b in zip(good, over_one_minus(delta, 2, order + 1))])
    monkeypatch.setattr(yangmills, "ss_equivariant_series", lambda n, d, g, top: broken)
    with pytest.raises(InvariantViolation, match="^%s$" % message):
        moduli_poincare(2, 1, 2)
    assert main(["betti", "--n", "2", "--d", "1", "--g", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "invariant violation: %s\n" % message


NON_COPRIME = ("rank and degree must be coprime; 'modrec mass --mode betti' "
               "gives the semistable mass at any degree")


def test_moduli_rejects_non_coprime(capsys):
    with pytest.raises(ValidationError, match="^%s$" % re.escape(NON_COPRIME)):
        moduli_poincare(2, 4, 2)
    # the refusal names the subcommand that serves every degree
    for command in ("betti", "crosscheck"):
        assert main([command, "--n", "2", "--d", "0", "--g", "2"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: %s\n" % NON_COPRIME


def _dual_to_mass(series, mass, D, T):
    """Whether series(t) = t^(2D) mass(1/t) to order T, for mass = num / den:
    series times den reversed equals num reversed, shifted up by
    2D + deg den - deg num, with no division."""
    num, den = mass.num.scalar_coeffs("t"), mass.den.scalar_coeffs("t")
    shift = 2 * D + len(den) - len(num)
    assert shift >= 0
    want = ([0] * shift + num[::-1] + [0] * (T + 1))[:T + 1]
    return conv(series, den[::-1], T + 1) == want


def test_gauge_series_is_dual_to_the_betti_mass_at_every_degree():
    # the semistable stack has dimension D = n^2 (g - 1); the dual form holds
    # at every d, where the coprime-only moduli check cannot reach, and d
    # runs over three periods so both routes reduce it themselves
    cases = 0
    for g, top in ((2, 8), (3, 5)):
        field = SpecializationField.betti(g)
        for n in range(1, top + 1):
            for d in range(-n, 2 * n):
                D = n * n * (g - 1)
                T = 2 * D + 12
                mass = ss_mass(n, d, field)
                series = ss_equivariant_series(n, d, g, T).coeffs
                assert _dual_to_mass(series, mass, D, T), (n, d, g)
                for k in range(T + 1) if 0 <= d < n else ():
                    # one coefficient raised by 1 breaks it
                    raised = series[:k] + [series[k] + 1] + series[k + 1:]
                    assert not _dual_to_mass(raised, mass, D, T), (n, d, g, k)
                cases += 1
    assert cases == 153


def test_fixed_determinant_poly():
    assert fixed_determinant_poly(2, 1, 2) == Poly.univariate("t", [1, 0, 1, 4, 1, 0, 1])
    # degree 6g - 6
    for g in (2, 3):
        assert fixed_determinant_poly(2, 1, g).degree("t") == 6 * g - 6


def test_fixed_determinant_matches_ratfun_oracle():
    for g in (2, 3):
        for n in range(1, 6):
            for d in range(1, n + 1):
                if gcd(n, d) == 1:
                    want = fixed_determinant_by_ratfun(n, d, g)
                    assert fixed_determinant_poly(n, d, g) == want, (n, d, g)


def test_known_low_betti_numbers():
    # the fixed-determinant space starts 1, 0, 1, 2g, ... for every genus
    for g in (2, 3, 4):
        head = fixed_determinant_poly(2, 1, g).scalar_coeffs("t")[:4]
        assert head == [1, 0, 1, 2 * g]
    # at genus 2 the space is the intersection of two quadrics in P^5
    assert fixed_determinant_poly(2, 1, 2).scalar_coeffs("t") == [1, 0, 1, 4, 1, 0, 1]


# -- the scalar series core against an independent recursion -----------------


def _lmul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def _classifying_oracle(n, g, order):
    """prod (1+t^{2j-1})^{2g} / ((1-t^{2n}) prod_{j<n} (1-t^{2j})^2) to the
    given order, by long division of exact coefficient lists."""
    num = [1]
    for j in range(1, n + 1):
        for _ in range(2 * g):
            num = _lmul(num, [1] + [0] * (2 * j - 2) + [1], order)
    den = [1] + [0] * (2 * n - 1) + [-1]
    for j in range(1, n):
        for _ in range(2):
            den = _lmul(den, [1] + [0] * (2 * j - 1) + [-1], order)
    out = []
    for k in range(order + 1):
        c = num[k]
        for i in range(1, min(k, len(den) - 1) + 1):
            c -= den[i] * out[k - i]
        q = Fraction(c, den[0])
        out.append(q.numerator if q.denominator == 1 else q)
    return out


def _ss_oracle(n, d, g, order, memo):
    """The semistable series recursion on exact coefficient lists, with its
    own memo keyed on (n, d, g, order) with d as given."""
    key = (n, d, g, order)
    if key not in memo:
        total = _classifying_oracle(n, g, order)
        for _, mu in enumerate_types(n, d, g, order // 2):
            if len(mu) == 1:
                continue
            shift = 2 * codim(mu, g)
            prod = [1] + [0] * (order - shift)
            for nj, dj in mu:
                prod = _lmul(prod, _ss_oracle(nj, dj, g, order - shift, memo), order - shift)
            for k, c in enumerate(prod):
                total[shift + k] -= c
        memo[key] = total
    return memo[key]


def test_ss_series_sweep_against_oracle():
    # every d in -n..2n-1 at the order moduli_poincare uses for (n, g); d < n
    # is computed from a cold memo, d >= n is served from the residue key
    for g, top in ((2, 6), (3, 5), (4, 4), (6, 3)):
        memo = {}
        for n in range(1, top + 1):
            order = 2 * (n * n * (g - 1) + 1) + yangmills.TRUNCATION_SLACK
            for d in range(-n, 2 * n):
                if d < n:
                    clear_caches()
                got = ss_equivariant_series(n, d, g, order)
                assert got.order == order
                assert got.coeffs == _ss_oracle(n, d, g, order, memo), (n, d, g)


def test_ss_series_high_genus_against_oracle():
    # many types per group: at (3, 1, 12) the top call has 241 nontrivial
    # types in 3 part-key groups (5 residue vectors)
    clear_caches()
    order = 2 * (3 * 3 * 11 + 1) + yangmills.TRUNCATION_SLACK
    assert ss_equivariant_series(3, 1, 12, order).coeffs == _ss_oracle(3, 1, 12, order, {})


def test_ss_series_memo_serves_prefixes():
    long = ss_equivariant_series(3, 1, 2, 20)
    assert ss_equivariant_series(3, 4, 2, 12) == long.truncate(12)
    assert yangmills._SS_SERIES[(3, 1, 2)].order == 20
    # a longer request replaces the entry and keeps the old prefix
    longer = ss_equivariant_series(3, 1, 2, 26)
    assert longer.truncate(20) == long
    assert yangmills._SS_SERIES[(3, 1, 2)].order == 26


@pytest.mark.parametrize("n, d, g, admitted", [
    (4, 1, 32, True), (4, 1, 47, True), (4, 1, 48, False), (7, 1, 6, False),
])
def test_dual_degrees_get_one_budget_decision(n, d, g, admitted):
    # the types are walked at min(d mod n, -d mod n), so d and n - d walk the
    # same types: at the limit both are admitted or both refused
    outcomes = []
    for degree in (d, n - d):
        clear_caches()
        try:
            outcomes.append(moduli_poincare(n, degree, g))
        except ValidationError as exc:
            assert "types" in str(exc), exc
            outcomes.append(None)
    assert (outcomes[0] is not None) is admitted
    assert outcomes[0] == outcomes[1]


def test_walks_of_one_request_share_one_count(monkeypatch):
    # the top walk alone is within the limit, but the request's lower-rank
    # walks are charged to the same count, and a refusal builds no series
    clear_caches()
    top = len(hn.walk_types(6, 1, 2, 6 * 6 + 3))
    monkeypatch.setattr(hn, "MAX_TYPES", top + 1)
    with pytest.raises(ValidationError) as info:
        moduli_poincare(6, 1, 2)
    assert str(info.value) == ("rank 6 at genus 2 to order 78: types = %d exceeds the limit %d"
                               % (top + 2, top + 1))
    assert not yangmills._SS_SERIES


@pytest.mark.parametrize("n, d, g", [(8, 1, 2), (5, 2, 3)])
def test_each_key_is_walked_once_per_request(monkeypatch, n, d, g):
    # a key's order is final before it is walked, so a longer order asked of
    # it later in the request cannot make it walk again
    walked = []
    walk = yangmills.walk_types

    def spy(m, r, *args):
        walked.append((m, r))
        return walk(m, r, *args)

    monkeypatch.setattr(yangmills, "walk_types", spy)
    clear_caches()
    moduli_poincare(n, d, g)
    assert len(walked) == len(set(walked)) == len(yangmills._SS_SERIES)


def test_ss_series_memo_is_bounded_by_residues():
    clear_caches()
    moduli_poincare(6, 1, 2)
    # one entry per (n', min(d' mod n', -d' mod n')) with n' < 6, and the
    # top call: 1 + 2 + 2 + 3 + 3 + 1
    assert len(yangmills._SS_SERIES) == 12
    assert all(0 <= 2 * d <= n and g == 2 for n, d, g in yangmills._SS_SERIES)
