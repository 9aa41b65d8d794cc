import pytest

import oracles
from modrec import yangmills
from oracles import graded_poly_divexact, graded_poly_gcd


@pytest.fixture(autouse=True)
def _cold_gauge_memos():
    """Every test starts with empty gauge memos, so none passes on a series
    an earlier test left in the prefix memo."""
    yangmills.clear_caches()
    yield


@pytest.fixture()
def graded_gcd(monkeypatch):
    """RatFun arithmetic in Q(u, v): the oracle gcd and exact division with
    their graded branch, both in tests/oracles.py."""
    monkeypatch.setattr(oracles, "poly_gcd", graded_poly_gcd)
    monkeypatch.setattr(oracles, "poly_divexact", graded_poly_divexact)
