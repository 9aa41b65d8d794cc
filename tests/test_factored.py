"""The integer-list product under the factored masses, against a schoolbook
product."""

import random

from modrec.factored import _conv, _phi_product, cyclotomic


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# coefficients whose bit sizes straddle the byte widths of the integer product
EDGES = [0, 1, -1] + [s * (2 ** (8 * k - 1) + e) for k in (1, 2, 3, 5)
                      for e in (-1, 0, 1) for s in (1, -1)]


def test_conv_matches_schoolbook():
    # every length pair up to 40 meets both branches and the 8/9 boundary
    rng = random.Random(20261019)
    for la in range(1, 41):
        for lb in range(1, 41):
            a = [rng.choice(EDGES) for _ in range(la)]
            b = [rng.choice(EDGES) for _ in range(lb)]
            assert _conv(a, b) == schoolbook(a, b), (a, b)


def test_conv_signs_and_zeros():
    for n in (1, 8, 9, 40):
        zeros, ones = [0] * n, [-1] * n
        assert _conv(zeros, ones) == [0] * (2 * n - 1)
        assert _conv(ones, ones) == schoolbook(ones, ones)
        big = [-(2 ** 63 + 1)] * n
        assert _conv(big, [0] * 3 + [1]) == [0] * 3 + big
        assert _conv(big, big) == schoolbook(big, big)


def test_phi_product_matches_schoolbook():
    for phi in ({1: 1}, {2: 3}, {1: 2, 3: 1, 4: 2}, {5: 1, 6: 2, 12: 1}, {30: 1, 7: 4}):
        want = [1]
        for m, e in phi.items():
            for _ in range(e):
                want = schoolbook(want, cyclotomic(m))
        assert _phi_product(phi) == want, phi
    # the cyclotomic factors of y^12 - 1
    assert _phi_product({d: 1 for d in (1, 2, 3, 4, 6, 12)}) == [-1] + [0] * 11 + [1]
