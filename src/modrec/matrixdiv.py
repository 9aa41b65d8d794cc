"""Spaces of matrix divisors as one convolution of symmetric-power lists.

The rank-n matrix divisor space of torsion degree e has a torus cell for
each d = (d_1, ..., d_n) with sum e, contributing prod_i S_{d_i} t^{2(i-1) d_i}
to the Betti polynomial (S_k the k-th symmetric power's polynomial):

    sum_d prod_i S_{d_i} t^{2(i-1) d_i} = [x^e] prod_{i<n} sum_k S_k (t^{2i} x)^k.

The cell weight ignores d_1, so raising e pushes new contributions to ever
higher degrees and the low-order coefficients stabilize; the stabilized
series is the classifying series of the rank-n gauge group, which is the
bridge between the divisor picture and the gauge picture.  The convolution
runs on integer coefficient lists (a shift by t^(2k) is a slice, a product
one ``exactalg.conv``) and wraps the result in a ``Poly`` once.  Requests
charged more than MAX_PRODUCTS coefficient products are refused before the
symmetric powers are built.

The bridge reads only t^0..t^cutoff, so it passes that cutoff as a t-degree
cap: every S_k, shifted entry and product is cut to degree <= cap inside the
same convolution.  The budget still charges the uncapped work, an upper
bound, so a capped request is refused exactly when the uncapped one is.
"""

from collections import namedtuple
from math import comb

from .errors import ValidationError, check_budget, shown, weighted
from .exactalg import Poly, add_into, conv
from .symprod import sym_poincare
from .yangmills import classifying_coefficients

# A product of polynomials with a and b terms is charged (a + TERM_PAD) *
# (b + TERM_PAD) coefficient products, padded for building and summing the
# result, each weighted for coefficients of about bits bits
# (``errors.weighted``).  README.md gives the slowest admitted requests.
MAX_PRODUCTS = 9_000_000
TERM_PAD = 10


def _betti_charge(n, e):
    """Padded products of the Betti convolution, n >= 2: step m shifts the
    rank-m entries (2km + 1 terms at k), then multiplies them by S_{j-k}."""
    a = 1 + TERM_PAD
    middle = 2 * (n - 1) * comb(e + 2, 4) + a * (n + 1) * comb(e + 2, 3) + a * a * comb(e + 2, 2)
    last = 4 * (n - 1) * comb(e + 1, 3) + 2 * a * n * comb(e + 1, 2) + a * a * (e + 1)
    shifts = a * (n - 1) * (n * comb(e + 1, 2) + a * (e + 1))
    return (n - 2) * middle + last + shifts


def div_poincare(n, e, g, cap=None):
    """Betti polynomial of the rank-n matrix divisor space of torsion degree e;
    only its coefficients of t^0..t^cap when a cap is given.

    It is [x^e] P_n, where P_1 = sum_k S_k x^k and P_{m+1}(x) = P_1(x) P_m(t^2 x).
    """
    if n < 1:
        raise ValidationError("rank must be positive")
    if e < 0:
        raise ValidationError("torsion degree must be >= 0")
    top = None if cap is None else cap + 1
    if n == 1 or e == 0:  # at e = 0 the one cell is S_0^n = 1
        return Poly.univariate("t", sym_poincare(g, e).scalar_coeffs("t")[:top])
    S = [sym_poincare(g, 0).scalar_coeffs("t")]  # checks the genus before the budget
    bits = min(2 * g * n, e * (2 * g * n).bit_length())  # coefficients near binomial(2gn, e)
    check_budget("rank %s at torsion degree %s and genus %s" % (shown(n), shown(e), shown(g)),
                 "coefficient products", weighted(_betti_charge(n, e), bits), MAX_PRODUCTS)
    S += [sym_poincare(g, k).scalar_coeffs("t")[:top] for k in range(1, e + 1)]
    # the shifts t^(2k) that stay within the cap; a longer one leaves 0
    reach = e + 1 if cap is None else min(e, cap // 2) + 1
    acc = S
    for m in range(1, n):
        shifted = [([0] * (2 * k) + p)[:top] for k, p in zip(range(reach), acc)]
        # the last step needs x^e only, the others the entries a shift still reaches
        js = [e] if m == n - 1 else range(reach)
        acc = []
        for j in js:
            entry = []
            for k, p in enumerate(shifted[: j + 1]):
                add_into(entry, conv(p, S[j - k], top), 0)
            acc.append(entry)
    return Poly.univariate("t", acc[-1])


class BridgeReport(namedtuple("BridgeReport", "n g e cutoff match first_mismatch divisor_coeffs "
                                               "stabilized_coeffs classifying_coeffs")):
    __slots__ = ()

    def to_json(self):
        return {
            "n": self.n,
            "g": self.g,
            "e": self.e,
            "cutoff": self.cutoff,
            "match": self.match,
            "first_mismatch": self.first_mismatch,
            "divisor_coeffs": [str(c) for c in self.divisor_coeffs],
            "stabilized_coeffs": [str(c) for c in self.stabilized_coeffs],
            "classifying_coeffs": [str(c) for c in self.classifying_coeffs],
        }


def div_bridge_check(n, g, e, cutoff):
    """Stabilization and bridge in one report.

    Coefficients of t^0..t^cutoff of the divisor polynomial at torsion
    degrees e and e+1 must agree with each other and with the classifying
    series.  A mismatch is reported with its first differing power rather
    than silently absorbed: it falsifies the configuration.
    """
    if cutoff < 0:
        raise ValidationError("cutoff must be >= 0")
    if e < cutoff + n * 2 * g:
        raise ValidationError(
            "torsion degree %d is too small for cutoff %d; need e >= cutoff + 2ng"
            % (e, cutoff))
    here = div_poincare(n, e, g, cap=cutoff).scalar_coeffs("t", upto=cutoff)
    there = div_poincare(n, e + 1, g, cap=cutoff).scalar_coeffs("t", upto=cutoff)
    target = classifying_coefficients(n, g, cutoff)
    first_mismatch = None
    for k in range(cutoff + 1):
        if not (here[k] == there[k] == target[k]):
            first_mismatch = k
            break
    return BridgeReport(n, g, e, cutoff, first_mismatch is None, first_mismatch,
                        tuple(here), tuple(there), tuple(target))
