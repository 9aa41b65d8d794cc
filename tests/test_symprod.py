"""Symmetric powers: closed formulas against the series engine and the
divisor-enumeration oracle."""

from math import comb
from pathlib import Path

import pytest

from modrec import curve, matrixdiv, symprod
from modrec.cli import load_curve
from modrec.curve import CurveData, HyperellipticModel
from modrec.errors import ValidationError
from modrec.exactalg import Poly
from modrec.symprod import divisor_enumerate, sym_count, sym_poincare

from oracles import ArithPoly, sym_count_by_zeta, sym_poincare_by_loop

ROOT = Path(__file__).resolve().parent.parent

MODEL_F2 = HyperellipticModel(p=2, k=1, f=(0, 0, 0, 0, 0, 1), h=(1,))
MODEL_F3 = HyperellipticModel(p=3, k=1, f=(1, 0, 0, 0, 0, 1), h=())


def _tmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _tsub(a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def generating_series_oracle(g, upto):
    """x^n coefficients of (1+xt)^{2g} / ((1-x)(1-x t^2)) as Polys in t.

    A dense double expansion: a power series in x whose coefficients are
    ascending t-coefficient lists, divided term by term by the denominator,
    whose x^0 coefficient is 1."""
    num = [[0] * i + [comb(2 * g, i)] for i in range(2 * g + 1)]
    # (1 - x)(1 - x t^2) = 1 - (1 + t^2) x + t^2 x^2
    den = [[1], [-1, 0, -1], [0, 0, 1]]
    out = []
    for n in range(upto + 1):
        acc = num[n] if n < len(num) else [0]
        for k in range(1, min(n, len(den) - 1) + 1):
            acc = _tsub(acc, _tmul(den[k], out[n - k]))
        out.append(acc)
    return [Poly.univariate("t", c) for c in out]


def test_sym_poincare_examples():
    assert sym_poincare(2, 0) == ArithPoly.one()
    assert sym_poincare(2, 1) == Poly.univariate("t", [1, 4, 1])
    assert sym_poincare(2, 2) == Poly.univariate("t", [1, 4, 7, 4, 1])


def test_sym_poincare_against_series_oracle():
    for g in (2, 3):
        oracle = generating_series_oracle(g, 6)
        for n in range(7):
            assert sym_poincare(g, n) == oracle[n]


def test_sym_poincare_matches_loop_oracle():
    for g in range(2, 7):
        for n in range(41):
            assert sym_poincare(g, n) == sym_poincare_by_loop(g, n), (g, n)


def test_sym_poincare_binomial_convolution():
    # b_k = sum_j C(2g, k - 2j), truncated to the valid j range
    for g, n in [(2, 3), (3, 4)]:
        p = sym_poincare(g, n)
        coeffs = p.scalar_coeffs("t", upto=2 * n)
        for k in range(2 * n + 1):
            want = sum(comb(2 * g, k - 2 * j)
                       for j in range(0, n + 1)
                       if 0 <= k - 2 * j <= min(2 * g, n - j))
            assert coeffs[k] == want, (g, n, k)


def test_sym_poincare_palindromic():
    for g in (2, 3):
        for n in range(7):
            coeffs = sym_poincare(g, n).scalar_coeffs("t", upto=2 * n)
            assert len(coeffs) == 2 * n + 1 and coeffs == coeffs[::-1], (g, n)


def test_sym_count_examples():
    c = CurveData.from_model(MODEL_F2)
    assert sym_count(c, 0) == 1
    assert sym_count(c, 1) == 3
    assert sym_count(c, 2) == 7


@pytest.mark.parametrize("config", sorted(str(p.relative_to(ROOT)) for p in [
    *ROOT.glob("configs/*.json"), *ROOT.glob("bench/configs/*.json")]))
def test_sym_count_matches_zeta_expansion(config):
    curve = load_curve(str(ROOT / config))
    for n in range(13):
        assert sym_count(curve, n) == sym_count_by_zeta(curve, n), (config, n)


def test_divisor_enumerate_examples():
    assert divisor_enumerate(MODEL_F2, 0) == 1
    assert divisor_enumerate(MODEL_F2, 1) == 3
    assert divisor_enumerate(MODEL_F2, 2) == 7
    # y^2 = 2x^6 + x^4 + 2 has no point over F_3, so the Euler product skips
    # degree 1; the zeta count agrees
    pointless = HyperellipticModel(p=3, k=1, f=(2, 0, 0, 0, 1, 0, 2), h=())
    counts = [divisor_enumerate(pointless, n) for n in range(5)]
    assert counts == [1, 0, 6, 12, 39]
    assert counts == [sym_count(CurveData.from_model(pointless), n) for n in range(5)]


def test_generating_identity_on_two_curves():
    for model in (MODEL_F2, MODEL_F3):
        c = CurveData.from_model(model)
        for n in range(0, 7):
            assert sym_count(c, n) == divisor_enumerate(model, n), (model.p, n)


def test_counts_are_kept_per_model(monkeypatch):
    # criterion 7's calls on fresh models build each field F_{p^m} once, and
    # the kept counts equal the counts of models that have counted nothing
    builds = []
    build = curve._exp_log

    def counted(p, m, modulus):
        builds.append((p, m))
        return build(p, m, modulus)

    monkeypatch.setattr(curve, "_exp_log", counted)
    models = [HyperellipticModel(p=2, k=1, f=(0, 0, 0, 0, 0, 1), h=(1,)),
              HyperellipticModel(p=3, k=1, f=(1, 0, 0, 0, 0, 1), h=())]
    for model in models:
        CurveData.from_model(model)
        for n in range(0, 7):
            divisor_enumerate(model, n)
    assert builds == [(p, m) for p in (2, 3) for m in range(1, 7)]
    for model in models:
        for r in range(1, 7):
            fresh = HyperellipticModel(model.p, model.k, model.f, model.h)
            assert model._counts[r] == curve.count_points(fresh, r), (model.p, r)


def test_stabilization():
    # for n >= 2g-1 the low-order coefficients stop changing
    for g in (2, 3):
        for n in range(2 * g - 1, 2 * g + 4):
            delta = ArithPoly.of(sym_poincare(g, n + 1)) - sym_poincare(g, n)
            low = delta.scalar_coeffs("t", upto=2 * (n - g) + 1)[: 2 * (n - g) + 2]
            assert all(c == 0 for c in low), (g, n)


def test_charges_count_the_loops():
    # the charge counts the 2n + 1 coefficients and the min(2g, n) + 1 running
    # sums, weighted by a bound on the coefficient size that must hold
    for g in (2, 3, 4, 5, 6, 10, 100, 1000, 10 ** 6):
        for n in list(range(25)) + [50, 200, 900]:
            coeffs = sym_poincare(g, n).scalar_coeffs("t")
            bits = symprod._coeff_bits(g, n)
            assert max(c.bit_length() for c in coeffs) <= bits, (g, n)
            entries = len(coeffs) + min(2 * g, n) + 1
            weight = (symprod.COEFF_BITS + bits) ** 2
            assert symprod._poincare_steps(g, n) == entries * weight // symprod.COEFF_BITS ** 2


def test_budget_admits_every_power_matrixdiv_admits(monkeypatch):
    # matrixdiv builds sym_poincare(g, k) for k <= e once its own budget admits
    # (n, e, g); a stub that stops at the first k >= 1 finds the largest admitted e
    class Admitted(Exception):
        pass

    def stub(g, k):
        if k:
            raise Admitted
        return ArithPoly.one()

    monkeypatch.setattr(matrixdiv, "sym_poincare", stub)

    def admits(n, e, g):
        try:
            matrixdiv.div_poincare(n, e, g)
        except Admitted:
            return True
        except ValidationError:
            return False
        raise AssertionError("the stub was not reached")

    checked = 0
    for n in (2, 3, 4):
        for g in (2, 3, 10, 91, 120, 400, 10 ** 6, 10 ** 100):
            low, high = 1, 1000  # admits(n, low, g) holds, admits(n, high, g) fails
            assert admits(n, low, g) and not admits(n, high, g)
            while high - low > 1:
                mid = (low + high) // 2
                low, high = (mid, high) if admits(n, mid, g) else (low, mid)
            # the charge grows with n, and the note at MAX_LOOP_STEPS says 70,000
            assert symprod._poincare_steps(g, low) < 70_000, (n, g, low)
            checked += 1
    assert checked == 24


def test_past_budget_is_refused_before_any_loop():
    # 10^5000 is past int -> str's digit guard, and is shown shortened
    for g, n in ((2, 10 ** 8), (10 ** 8, 10 ** 8), (3, 10 ** 30), (10 ** 6, 2800),
                 (2, 10 ** 5000)):
        with pytest.raises(ValidationError, match="loop steps"):
            sym_poincare(g, n)
