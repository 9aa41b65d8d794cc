"""Matrix divisor spaces: cell decomposition, stabilization, the bridge."""

import pytest

from modrec import matrixdiv
from modrec.errors import ValidationError
from modrec.matrixdiv import div_bridge_check, div_poincare
from modrec.symprod import sym_poincare
from modrec.yangmills import classifying_series
from oracles import ArithPoly, div_poincare_by_cells, series_expand, torsion_vectors

T = ArithPoly.var("t")


def test_rank_one_is_symmetric_power():
    for e in range(6):
        assert div_poincare(1, e, 2) == sym_poincare(2, e)


def test_rank_two_degree_one_example():
    c1 = sym_poincare(2, 1)
    assert div_poincare(2, 1, 2) == c1 + T ** 2 * c1


def test_degree_zero_is_point():
    assert div_poincare(2, 0, 2) == ArithPoly.one()


def test_coefficients_nonnegative():
    for e in range(5):
        coeffs = div_poincare(2, e, 2).scalar_coeffs("t")
        assert all(isinstance(c, int) and c >= 0 for c in coeffs)


def test_bridge_rank_one():
    report = div_bridge_check(1, 2, e=16, cutoff=8)
    assert report.match
    want = series_expand(classifying_series(1, 2).ratfun(), "t", 8).coeffs
    assert list(report.classifying_coeffs) == want


def test_bridge_rank_two():
    report = div_bridge_check(2, 2, e=30, cutoff=8)
    assert report.match
    assert report.first_mismatch is None
    assert report.divisor_coeffs == report.stabilized_coeffs == report.classifying_coeffs


def test_bridge_precondition():
    with pytest.raises(ValidationError):
        div_bridge_check(2, 2, e=10, cutoff=8)


def test_cell_weight_ignores_first_entry():
    # the cell shift sums (i-1) d_i from i = 1, so the first entry is free:
    # this is what lets the coefficients stabilize as the degree grows
    def shift(vec):
        return sum(i * di for i, di in enumerate(vec))

    for vec in torsion_vectors(3, 4):
        bumped = (vec[0] + 7,) + vec[1:]
        assert shift(bumped) == shift(vec)


def test_stabilization_is_monotone():
    # once a coefficient agrees between consecutive torsion degrees it stays
    g, n, k = 2, 2, 4
    values = []
    for e in range(k + n * 2 * g, k + n * 2 * g + 4):
        values.append(div_poincare(n, e, g).scalar_coeffs("t", upto=k)[: k + 1])
    assert values[0] == values[1] == values[2] == values[3]


def test_capped_head_matches_full_polynomial():
    # the bridge's t-degree cap changes no coefficient it keeps
    for n in range(1, 5):
        for g in (2, 3):
            full = {}
            for cutoff in (0, 6, 12):
                low = cutoff + 2 * n * g
                for e in (low, low + 1, low + 7):
                    if e not in full:
                        full[e] = div_poincare(n, e, g).scalar_coeffs("t")
                    head = div_poincare(n, e, g, cap=cutoff)
                    assert head.degree("t") <= cutoff
                    assert head.scalar_coeffs("t", upto=cutoff) == full[e][: cutoff + 1], (
                        n, g, cutoff, e)


def test_report_json():
    report = div_bridge_check(2, 2, e=30, cutoff=4)
    obj = report.to_json()
    assert obj["match"] is True and obj["first_mismatch"] is None


def test_convolution_matches_cell_oracle():
    for g in (2, 3):
        for n in range(1, 6):
            for e in range(11):
                assert div_poincare(n, e, g) == div_poincare_by_cells(n, e, g), (n, e, g)


def _charge(n, e, g):
    """The convolution's charge from term counts: the rank-m entry at k is the
    rank-m divisor polynomial, and the shift by t^(2k) keeps its term count."""
    def pad(p):
        return len(p.terms) + matrixdiv.TERM_PAD

    def step(m, js):
        shifts = sum(pad(ArithPoly.one()) * pad(div_poincare(m, k, g)) for k in range(e + 1))
        return shifts + sum(pad(div_poincare(m, k, g)) * pad(sym_poincare(g, j - k))
                            for j in js for k in range(j + 1))

    return sum(step(m, range(e + 1)) for m in range(1, n - 1)) + step(n - 1, [e])


def test_betti_charge_closed_form():
    for n in range(2, 6):
        for e in range(1, 9):
            for g in (2, 3):
                assert matrixdiv._betti_charge(n, e) == _charge(n, e, g), (n, e, g)


def test_budget_boundary():
    # the largest admitted torsion degree at ranks 2 and 3, and one past it;
    # larger coefficients lower it
    for n, e, g in [(2, 221, 2), (3, 73, 2), (2, 202, 40), (3, 48, 10 ** 9),
                    (2, 222, 10 ** 9)]:
        with pytest.raises(ValidationError,
                           match=r"coefficient products = \d+ exceeds the limit 9000000$"):
            div_poincare(n, e, g)
    # a torsion degree past int -> str's digit guard is shown shortened
    with pytest.raises(ValidationError, match=r"^rank 2 at torsion degree at least 2\^16609 and "
                       r"genus 2: coefficient products = at least 2\^\d+ exceeds the limit"):
        div_poincare(2, 10 ** 5000, 2)
    assert div_poincare(3, 72, 2).scalar_coeffs("t")[:6] == [1, 4, 8, 16, 34, 64]
    assert div_poincare(3, 47, 10 ** 9).scalar_coeffs("t")[:2] == [1, 2 * 10 ** 9]


def test_rank_one_and_degree_zero_are_free():
    assert div_poincare(1, 2000, 2) == sym_poincare(2, 2000)
    assert div_poincare(10 ** 9, 0, 2) == ArithPoly.one()
    with pytest.raises(ValidationError, match="genus"):
        div_poincare(10 ** 9, 0, 1)
