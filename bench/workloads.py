"""The two benchmark workloads: query lists, seed-drawn order and degree
shifts, expected documents, and the independent derivations answers must meet.

A CLI query is a ``modrec`` argument string run in a fresh process.  A
session query is one library call made by a single warm worker process
(see ``child.py``).  The seed draws the query order (except in a
session) and, for betti, count, mass and stable_count queries, a degree
shift d -> d + k n with k in ``SHIFTS``.  Twisting by a line bundle makes
every one of those answers periodic in d with period n, so the expected
document recorded at the base degree is also the reference for the shifted
query.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")

SHIFTS = (0, 1, 2)
# moduli_poincare is not shifted: its memo is keyed on d as given, so shifts
# would change how much work the session's queries share from seed to seed.
SHIFTED_COMMANDS = ("betti", "count", "mass", "stable_count")

G2Q2 = "configs/g2q2.json"
G3Q2 = "bench/configs/g3q2_counts.json"
F7 = "bench/configs/g2_f7.json"

# The query groups of the cold workload, each aimed at other layers.  Why
# each workload and group exists is stated in bench/README.md.
GROUPS = {
    # Gauge recursion: yangmills, hn.enumerate_types and Series multiplies.
    "gauge": (
        "betti --n 2 --d 1 --g 2",
        "betti --n 3 --d 2 --g 2",
        "betti --n 4 --d 1 --g 2",
        "betti --n 5 --d 8 --g 2",
        "betti --n 2 --d 1 --g 3",
        "betti --n 3 --d 1 --g 3",
        "betti --n 2 --d 1 --g 4",
        "betti --n 3 --d 2 --g 4",
        "betti --n 3 --d 1 --g 2 --fixed-det",
        "bridge --n 3 --g 2 --e 30 --cutoff 12",
        "matrixdiv --n 4 --e 12 --g 2",
        "kirwan --weights [2,1,1,-1,-1,-2] --op quotient",
    ),
    # Arithmetic recursion: tamagawa cones and exactalg in all three fields.
    "arith": (
        "count --n 2 --d 1 --curve " + G2Q2,
        "count --n 3 --d 1 --curve " + G2Q2 + " --fixed-det",
        "mass --n 4 --d 2 --curve " + G2Q2,
        "siegel --n 3 --d 1 --curve " + G2Q2 + " --max-codim 20",
        "count --n 3 --d 1 --curve " + G3Q2 + " --fixed-det",
        "mass --n 3 --d 0 --curve " + G3Q2,
        "siegel --n 2 --d 1 --curve " + G3Q2 + " --max-codim 20",
        "mass --n 3 --d 1 --mode betti --g 2",
        "mass --n 3 --d 1 --mode hodge --g 2",
        "mass --n 3 --d 1 --mode hodge --g 3",
        "crosscheck --n 3 --d 1 --g 2",
    ),
    # Finite fields: curve.GF construction and count_points.
    "fields": (
        "zeta --curve bench/configs/g2_f2k5.json",
        "zeta --curve bench/configs/g2_f3k4.json",
        "zeta --curve bench/configs/g3_f2k3.json",
        "zeta --curve " + F7,
        "symprod --n 6 --curve " + G2Q2 + " --enumerate",
    ),
}

QUERIES = {
    # One fresh modrec process per query: every memo starts cold.
    "cold": tuple(key for keys in GROUPS.values() for key in keys),
    # One warm worker process: the memos are shared across queries.
    "session": tuple(
        ["moduli_poincare %d %d 2" % (n, d)
         for n in range(2, 6) for d in range(1, n) if gcd(n, d) == 1]
        + ["moduli_poincare %d %d 3" % (n, d)
           for n in range(2, 4) for d in range(1, n) if gcd(n, d) == 1]
        + ["ss_mass_betti %d %d 2" % (n, d)
           for n in range(1, 4) for d in range(2 * n)]
        + ["stable_count %d 1" % n for n in range(2, 6)]
        + ["run_all"]),
}
WORKLOADS = tuple(QUERIES)


@dataclass(frozen=True)
class Query:
    key: str      # base query, as recorded in the expected documents
    argv: tuple   # the query as run, after the degree shift
    d: int | None = None  # shifted degree, when the query was shifted


def _shift(key, k):
    words = key.split()
    if k == 0 or words[0] not in SHIFTED_COMMANDS:
        return Query(key, tuple(words))
    if words[0] in ("betti", "count", "mass"):
        n = int(words[words.index("--n") + 1])
        at = words.index("--d") + 1
    else:
        n, at = int(words[1]), 2
    d = int(words[at]) + k * n
    words[at] = str(d)
    return Query(key, tuple(words), d)


def draw(workload, seed):
    """The workload's queries in the order and with the shifts the seed draws.

    A session keeps its listed order: there the first query to need a memo
    pays for it, so a drawn order would move slowest_query_s from seed to
    seed by a third.  Its seed draws only the degree shifts.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    queries = [_shift(key, rng.choice(SHIFTS)) for key in QUERIES[workload]]
    if workload != "session":
        rng.shuffle(queries)
    return queries


def load_expected(workload):
    with open(os.path.join(EXPECTED_DIR, workload + ".json"), encoding="utf-8") as handle:
        return json.load(handle)


def expected_answer(query, record):
    """(exit code, stdout) the shifted query must give, from its base record."""
    rc, out = record["rc"], record["stdout"]
    if query.d is not None and out:
        doc = json.loads(out)
        if "d" in doc:
            doc["d"] = query.d
            out = json.dumps(doc, sort_keys=True) + "\n"
    return rc, out


# -- independent derivations ---------------------------------------------------


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ppow(a, e):
    out = [1]
    for _ in range(e):
        out = _pmul(out, a)
    return out


def _pdiv(a, b):
    """Exact division of integer coefficient lists; raises on a remainder."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            raise ArithmeticError("inexact division")
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact division")
    return q


def rank2_poincare(g):
    """Closed form of the rank-2 odd-degree moduli polynomial:
    (1+t)^2g ((1+t^3)^2g - t^2g (1+t)^2g) / ((1-t^2)^2 (1+t^2))."""
    one_t = _ppow([1, 1], 2 * g)
    inner = _ppow([1, 0, 0, 1], 2 * g)
    shifted = [0] * (2 * g) + one_t
    inner = [x - (shifted[i] if i < len(shifted) else 0) for i, x in enumerate(inner)]
    num = _pmul(one_t, inner)
    den = _pmul(_ppow([1, 0, -1], 2), [1, 0, 1])
    coeffs = _pdiv(num, den)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def zeta_numerator(q, g, counts):
    """Zeta numerator coefficients from N_1..N_g: Newton's identities for the
    first g coefficients, the functional equation for the rest."""
    S = [q ** r + 1 - counts[r - 1] for r in range(1, g + 1)]
    e = [Fraction(1)]
    for k in range(1, g + 1):
        acc = Fraction(S[k - 1])
        for i in range(1, k):
            acc -= (-1) ** (i - 1) * e[i] * S[k - i - 1]
        e.append(acc / ((-1) ** (k - 1) * k))
    a = [int((-1) ** k * e[k]) for k in range(g + 1)]
    return a + [q ** (g - i) * a[i] for i in range(g - 1, -1, -1)]


def zeta_document(q, g, counts):
    coeffs = zeta_numerator(q, g, counts)
    return {"class_number": str(sum(coeffs)), "counts": [str(c) for c in counts],
            "genus": g, "numerator_coeffs": [str(c) for c in coeffs], "q": q}


def permuting_power_counts(p, k, m, g):
    """N_1..N_g of y^2 = x^m + 1 over F_{p^k}, p odd, when x -> x^m permutes
    every F_{q^r}: then y^2 = u + 1 has q^r affine solutions and, for odd m,
    there is one point at infinity."""
    q = p ** k
    if p == 2 or m % 2 == 0 or any(gcd(m, q ** r - 1) != 1 for r in range(1, g + 1)):
        raise ValueError("x -> x^%d does not permute F_%d^r" % (m, q))
    return [q ** r + 1 for r in range(1, g + 1)]


def derived_document(key):
    """Expected stdout fixed by derivation rather than by the seed's output.

    For y^2 = x^5 + 1 over F_7, x -> x^5 permutes F_7 and F_49, so N_1 = 8,
    N_2 = 50, P = 1 + 49 T^4 and the class number is 50.  modrec 0.1.0
    exits 1 on it instead, which the benchmark counts as a failed query.
    """
    if key == "zeta --curve " + F7:
        doc = zeta_document(7, 2, permuting_power_counts(7, 1, 5, 2))
        return json.dumps(doc, sort_keys=True) + "\n"
    return None


# Brute-force point counts over F_q and F_q^2 (acceptance criterion 4).
KNOWN_COUNTS = {G2Q2: (2, [3, 5])}


def class_number(path, root):
    """P(1) of the curve in a config, from its point counts."""
    if path in KNOWN_COUNTS:
        q, counts = KNOWN_COUNTS[path]
    else:
        with open(os.path.join(root, path), encoding="utf-8") as handle:
            raw = json.load(handle)
        q, counts = raw["q"], raw["counts"]
    return sum(zeta_numerator(q, len(counts), counts))


def check_cli(query, rc, out, root):
    """Independent derivations a CLI answer must meet; None or a reason."""
    words = query.argv
    cmd = words[0]
    opts = dict(zip(words[1::2], words[2::2]))
    doc = json.loads(out) if rc == 0 and out.startswith("{") else None
    if cmd == "crosscheck":
        if rc != 0 or doc != {"match": True}:
            return "crosscheck did not exit 0 with a match"
    elif doc is None:
        return None
    elif cmd == "betti" and int(opts["--n"]) == 2 and "--fixed-det" not in words:
        if doc["coeffs"] != [str(c) for c in rank2_poincare(int(opts["--g"]))]:
            return "rank-2 closed form fails"
    elif cmd == "count":
        if int(opts["--n"]) == 2 and opts["--curve"] == G2Q2 and doc["stable_count"] != "75":
            return "y^2 + y = x^5 over F_2 must have 75 stable rank-2 bundles"
        if "--fixed-det" in words:
            h = class_number(opts["--curve"], root)
            if int(doc["fixed_det_count"]) * h != int(doc["stable_count"]):
                return "fixed_det_count x class number != stable_count"
    elif cmd == "symprod" and "--enumerate" in words:
        if doc["count"] != doc["enumerated"]:
            return "divisor count disagrees with enumeration"
    elif cmd == "zeta":
        counts = [int(c) for c in doc["counts"]]
        if doc != zeta_document(doc["q"], doc["genus"], counts):
            return "zeta numerator does not follow from the point counts"
    return None


def check_session(queries, results):
    """Derivations across one session pass, given the answers that matched
    their expected documents; {base key: reason} for failures.

    (q - 1) ss_mass(n, d) under q = t^2 must equal moduli_poincare(n, d, 2)
    for coprime (n, d): the arithmetic and gauge recursions agree.
    """
    bad = {}
    poincare = {}
    for q in queries:
        words = q.argv
        res = results.get(q.key)
        if res is None:
            continue
        if words[0] == "moduli_poincare":
            n, d, g = int(words[1]), int(words[2]), int(words[3])
            if n == 2 and res != [str(c) for c in rank2_poincare(g)]:
                bad[q.key] = "rank-2 closed form fails"
            if g == 2:
                poincare[(n, d % n)] = [int(c) for c in res]
        elif words[0] == "stable_count" and words[1] == "2" and res != "75":
            bad[q.key] = "y^2 + y = x^5 over F_2 must have 75 stable rank-2 bundles"
        elif words[0] == "run_all" and not res["ok"]:
            bad[q.key] = "acceptance suite failed"
    for q in queries:
        words = q.argv
        res = results.get(q.key)
        if words[0] != "ss_mass_betti" or res is None or words[3] != "2":
            continue
        n, d = int(words[1]), int(words[2])
        target = poincare.get((n, d % n))
        if gcd(n, d) != 1 or target is None:
            continue
        num = [Fraction(c) for c in res["num"]["coeffs"]]
        den = [Fraction(c) for c in res["den"]["coeffs"]]
        if _pmul(num, [-1, 0, 1]) != _trim(_pmul(target, den)):
            bad[q.key] = "(q - 1) ss_mass != moduli_poincare"
    return bad


def _trim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a
