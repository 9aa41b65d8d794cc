"""Filtration types: the two exponent forms and the bounded enumeration."""

import pytest

from modrec import hn, yangmills
from modrec.errors import InvariantViolation, ValidationError
from modrec.hn import codim, enumerate_types, mass_exponent

from oracles import compositions, enumerate_types_by_gaps


def test_type_validation(monkeypatch):
    # the walk makes the parts, so a malformed walked type is a program fault
    walk = hn.walk_types
    for bad in [((1, 0), (1, 1)),  # increasing slopes
                ((1, 0), (1, 0)),  # equal slopes
                ((0, 1),),  # rank 0
                ((2, 1), (0, 0)),  # rank 0 after a part
                ()]:  # no part
        monkeypatch.setattr(hn, "walk_types", lambda *args: [*walk(*args), (0, bad)])
        with pytest.raises(InvariantViolation, match="malformed type"):
            enumerate_types(2, 1, 2, 6)
    monkeypatch.setattr(hn, "walk_types", walk)
    assert enumerate_types(2, 1, 2, 6)[1] == (2, ((1, 1), (1, 0)))


def test_codim_examples():
    assert codim(((3, 7),), 2) == 0
    assert codim(((1, 1), (1, 0)), 2) == 2
    assert codim(((1, 2), (1, -1)), 2) == 4


def test_mass_exponent_examples():
    assert mass_exponent(((5, -3),), 2) == 0
    assert mass_exponent(((1, 1), (1, 0)), 2) == 0
    assert mass_exponent(((1, 2), (1, -1)), 2) == -2


def test_exponent_identity():
    for g in (2, 3):
        for n, d in [(2, 1), (3, 1), (3, 2), (4, 3)]:
            for _, mu in enumerate_types(n, d, g, 20):
                pairs = sum(a * b for i, (a, _) in enumerate(mu) for b, _ in mu[i + 1:])
                assert mass_exponent(mu, g) == 2 * (g - 1) * pairs - codim(mu, g)


def test_enumerate_rank_one():
    assert enumerate_types(1, 5, 2, 10) == [(0, ((1, 5),))]
    assert enumerate_types(1, -2, 3, 0) == [(0, ((1, -2),))]


def test_enumerate_rank_two_example():
    got = enumerate_types(2, 1, 2, 6)
    expected = [
        (0, ((2, 1),)),
        (2, ((1, 1), (1, 0))),
        (4, ((1, 2), (1, -1))),
        (6, ((1, 3), (1, -2))),
    ]
    assert got == expected
    assert [codim(mu, 2) for _, mu in got] == [0, 2, 4, 6]
    assert enumerate_types(2, 1, 2, 0) == [(0, ((2, 1),))]


def test_enumeration_monotone_in_bound():
    sizes = [len(enumerate_types(3, 1, 2, M)) for M in range(0, 25, 4)]
    assert sizes == sorted(sizes)
    for M in range(0, 25, 4):
        inner = set(enumerate_types(3, 1, 2, M))
        outer = set(enumerate_types(3, 1, 2, M + 4))
        assert inner <= outer


def test_positivity_of_nontrivial_codim():
    for g in (2, 3):
        for _, mu in enumerate_types(3, 2, g, 15):
            r = len(mu)
            if r > 1:
                assert codim(mu, g) >= r * (r - 1) // 2 * g


def test_shift_equivariance():
    g, n, d, M = 2, 3, 1, 12
    base = enumerate_types(n, d, g, M)
    for k in (1, -2):
        shifted = enumerate_types(n, d + n * k, g, M)
        image = sorted((c, tuple((nj, dj + nj * k) for nj, dj in mu)) for c, mu in base)
        assert image == shifted
        for (_, mu), (c, nu) in zip(base, image):
            assert codim(mu, g) == codim(nu, g) == c


def test_compositions():
    assert set(compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}


def test_prefix_degree_identity():
    # n codim = n (g-1) sum_{i<j} n_i n_j + sum_{k<r} (n_k + n_{k+1}) c_k with
    # c_k = n D_k - S_k d >= 1, for prefix degrees D_k and prefix ranks S_k
    for g in (2, 3):
        for n in range(2, 6):
            for d in range(-1, n + 1):
                for _, mu in enumerate_types(n, d, g, 12):
                    ranks = [nj for nj, _ in mu]
                    S = D = 0
                    steps = []
                    for k in range(len(ranks) - 1):
                        S += ranks[k]
                        D += mu[k][1]
                        c = n * D - S * d
                        assert c >= 1
                        steps.append((ranks[k] + ranks[k + 1]) * c)
                    pairs = sum(a * b for i, a in enumerate(ranks) for b in ranks[i + 1:])
                    assert n * codim(mu, g) == n * (g - 1) * pairs + sum(steps), mu


@pytest.mark.parametrize("g", [2, 3, 5])
def test_enumeration_matches_gap_oracle(g):
    # the first-part recursion against the Fraction slope-gap search
    for n in range(1, 7):
        for d in range(-n, 2 * n):
            for M in (0, 1, 5, 9, 20):
                assert enumerate_types(n, d, g, M) == enumerate_types_by_gaps(n, d, g, M), \
                    (n, d, g, M)


@pytest.mark.parametrize("g", [2, 3, 5])
def test_walk_codim_is_codim(g):
    # the codimension read from the walk's running cost is the pair sum
    for n in range(1, 7):
        for d in range(-n, 2 * n):
            for M in (0, 7, 20):
                walked = list(hn.walk_types(n, d, g, M))
                assert walked[0] == (0, ((n, d),))
                for c, parts in walked:
                    assert c == codim(parts, g), (n, d, g, parts)


def test_enumeration_refuses_far_past_budget():
    with pytest.raises(ValidationError, match="types"):
        enumerate_types(3, 1, 2, 100000)
    with pytest.raises(ValidationError, match="compositions"):
        enumerate_types(40, 1, 2, 3)


# whole requests moduli_poincare(n, 1, g), planned from cold memos, so every
# key they need is walked and charged to one count: the third row holds the
# last admitted and the fourth the first refused rank at each genus from 2
# to 7, and the last admitted and first refused genus at rank 6
@pytest.mark.parametrize("n, g, admitted", [
    (9, 2, True), (7, 3, True), (6, 4, True), (5, 5, True), (4, 6, True), (6, 6, True),
    (10, 2, True), (8, 3, True), (7, 4, True),
    (11, 2, True), (9, 3, True), (8, 4, True), (7, 5, True), (6, 7, True), (6, 8, True),
    (12, 2, False), (10, 3, False), (9, 4, False), (8, 5, False), (7, 6, False), (7, 7, False),
    (6, 9, False),
])
def test_budget_boundary_of_top_calls(n, g, admitted):
    yangmills.clear_caches()
    order = 2 * (n * n * (g - 1) + 1) + yangmills.TRUNCATION_SLACK
    if admitted:
        assert len(yangmills._plan(n, 1, g, order)) > 1
    else:
        with pytest.raises(ValidationError, match="^rank %d at genus %d to order %d: types = "
                           % (n, g, order)):
            yangmills._plan(n, 1, g, order)


def test_admitted_enumerations_stay_within_budget(monkeypatch):
    # the walk counts the types it makes and stops past the budget: with a
    # small budget every admitted request is complete (it equals the oracle),
    # a refused bound stays refused for every larger bound, and the count is
    # of the order of the work, since some request admitted at the budget is
    # refused at a third of it
    budget = 300
    admitted, refused, tight = 0, 0, 0
    for g in (2, 3):
        for n in (2, 3, 4, 5):
            was_refused = False
            for M in range(0, 80, 3):
                monkeypatch.setattr(hn, "MAX_TYPES", budget)
                try:
                    types = enumerate_types(n, 1, g, M)
                except ValidationError:
                    refused += 1
                    was_refused = True
                    continue
                assert not was_refused, (n, g, M)
                admitted += 1
                assert types == enumerate_types_by_gaps(n, 1, g, M), (n, g, M)
                monkeypatch.setattr(hn, "MAX_TYPES", budget // 3)
                try:
                    enumerate_types(n, 1, g, M)
                except ValidationError:
                    tight += 1
    assert admitted and refused and tight
