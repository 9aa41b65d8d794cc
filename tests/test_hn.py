"""Filtration types: the two exponent forms and the bounded enumeration."""

import pytest

from modrec import hn
from modrec.errors import ValidationError
from modrec.hn import HNType, codim, compositions, enumerate_types, mass_exponent


def test_type_validation():
    HNType(((1, 1), (1, 0)))
    with pytest.raises(ValidationError):
        HNType(((1, 0), (1, 1)))  # increasing slopes
    with pytest.raises(ValidationError):
        HNType(((1, 0), (1, 0)))  # equal slopes
    with pytest.raises(ValidationError):
        HNType(((0, 1),))


def test_codim_examples():
    assert codim(HNType.trivial(3, 7), 2) == 0
    assert codim(HNType(((1, 1), (1, 0))), 2) == 2
    assert codim(HNType(((1, 2), (1, -1))), 2) == 4


def test_mass_exponent_examples():
    assert mass_exponent(HNType.trivial(5, -3), 2) == 0
    assert mass_exponent(HNType(((1, 1), (1, 0))), 2) == 0
    assert mass_exponent(HNType(((1, 2), (1, -1))), 2) == -2


def test_exponent_identity():
    for g in (2, 3):
        for n, d in [(2, 1), (3, 1), (3, 2), (4, 3)]:
            for mu in enumerate_types(n, d, g, 20):
                pairs = sum(a * b
                            for i, (a, _) in enumerate(mu.parts)
                            for b, _ in [p for p in mu.parts[i + 1:]])
                assert mass_exponent(mu, g) == 2 * (g - 1) * pairs - codim(mu, g)


def test_enumerate_rank_one():
    assert enumerate_types(1, 5, 2, 10) == [HNType.trivial(1, 5)]
    assert enumerate_types(1, -2, 3, 0) == [HNType.trivial(1, -2)]


def test_enumerate_rank_two_example():
    got = enumerate_types(2, 1, 2, 6)
    expected = [
        HNType.trivial(2, 1),
        HNType(((1, 1), (1, 0))),
        HNType(((1, 2), (1, -1))),
        HNType(((1, 3), (1, -2))),
    ]
    assert got == expected
    assert [codim(mu, 2) for mu in got] == [0, 2, 4, 6]
    assert enumerate_types(2, 1, 2, 0) == [HNType.trivial(2, 1)]


def test_enumeration_monotone_in_bound():
    sizes = [len(enumerate_types(3, 1, 2, M)) for M in range(0, 25, 4)]
    assert sizes == sorted(sizes)
    for M in range(0, 25, 4):
        inner = set(enumerate_types(3, 1, 2, M))
        outer = set(enumerate_types(3, 1, 2, M + 4))
        assert inner <= outer


def test_positivity_of_nontrivial_codim():
    for g in (2, 3):
        for mu in enumerate_types(3, 2, g, 15):
            r = len(mu.parts)
            if r > 1:
                assert codim(mu, g) >= r * (r - 1) // 2 * g


def test_shift_equivariance():
    g, n, d, M = 2, 3, 1, 12
    base = enumerate_types(n, d, g, M)
    for k in (1, -2):
        shifted = enumerate_types(n, d + n * k, g, M)
        image = sorted(
            (HNType(tuple((nj, dj + nj * k) for nj, dj in mu.parts)) for mu in base),
            key=lambda mu: (codim(mu, g), mu.parts))
        assert image == shifted
        for mu, nu in zip(base, image):
            assert codim(mu, g) == codim(nu, g)


def test_compositions():
    assert set(compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}


def test_serialization():
    assert HNType(((2, 3), (1, 0))).to_json() == [[2, 3], [1, 0]]


def test_enumeration_refuses_far_past_budget():
    with pytest.raises(ValidationError, match="gap vectors"):
        enumerate_types(3, 1, 2, 100000)
    with pytest.raises(ValidationError, match="compositions"):
        enumerate_types(40, 1, 2, 3)


def test_admitted_enumerations_stay_within_budget(monkeypatch):
    # the up-front estimate must bound the gap vectors the search visits:
    # with a small budget, every admitted request visits at most that many
    budget = 300
    monkeypatch.setattr(hn, "MAX_GAP_VECTORS", budget)
    visited = []
    original = hn.degrees_from_gaps

    def counting(comp, d, gaps):
        visited.append(gaps)
        return original(comp, d, gaps)

    monkeypatch.setattr(hn, "degrees_from_gaps", counting)
    admitted, refused, busiest = 0, 0, 0
    for g in (2, 3):
        for n in (2, 3, 4, 5):
            for M in range(0, 80, 3):
                visited.clear()
                try:
                    enumerate_types(n, 1, g, M)
                except ValidationError:
                    refused += 1
                    continue
                admitted += 1
                busiest = max(busiest, len(visited))
                assert len(visited) <= budget, (n, g, M)
    assert admitted and refused and busiest > budget // 3
