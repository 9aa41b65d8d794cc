import pytest

from modrec import exactalg, yangmills
from oracles import graded_poly_divexact, graded_poly_gcd


@pytest.fixture(autouse=True)
def _cold_gauge_memos():
    """Every test starts with empty gauge memos, so none passes on a series
    an earlier test left in the prefix memo."""
    yangmills.clear_caches()
    yield


@pytest.fixture()
def graded_gcd(monkeypatch):
    """RatFun arithmetic in Q(u, v): exactalg's gcd and exact division with
    the graded branch of tests/oracles.py."""
    monkeypatch.setattr(exactalg, "poly_gcd", graded_poly_gcd)
    monkeypatch.setattr(exactalg, "poly_divexact", graded_poly_divexact)
