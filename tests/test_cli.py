"""Command-line surface: documents, exit codes, config validation."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

import modrec
from modrec import cli, yangmills
from modrec.cli import SYMPROD_CHARGE, load_curve, main
from modrec.errors import InvariantViolation
from modrec.fields import SpecializationField
from modrec.symprod import sym_count
from modrec.tamagawa import SIEGEL_CHARGE

F2_CONFIG = {"mode": "hyperelliptic", "p": 2, "k": 1, "f": [0, 0, 0, 0, 0, 1], "h": [1]}
COUNTS_CONFIG = {"mode": "counts", "q": 2, "genus": 2, "counts": [3, 5]}


@pytest.fixture()
def curve_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(F2_CONFIG))
    return str(path)


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_count_document(capsys, curve_file):
    status, out, _ = run_cli(capsys, "count", "--n", "2", "--d", "1", "--curve", curve_file)
    assert status == 0
    assert json.loads(out) == {"stable_count": "75"}


def test_count_fixed_det(capsys, curve_file):
    status, out, _ = run_cli(capsys, "count", "--n", "2", "--d", "1",
                             "--curve", curve_file, "--fixed-det")
    assert status == 0
    assert json.loads(out) == {"stable_count": "75", "fixed_det_count": "15"}


def test_betti_document(capsys):
    status, out, _ = run_cli(capsys, "betti", "--n", "2", "--d", "1", "--g", "2")
    assert status == 0
    doc = json.loads(out)
    assert doc["coeffs"] == ["1", "4", "7", "12", "24", "32", "24", "12", "7", "4", "1"]
    assert doc["degree"] == 10


def test_crosscheck_document(capsys):
    status, out, _ = run_cli(capsys, "crosscheck", "--n", "3", "--d", "1", "--g", "2")
    assert status == 0
    assert json.loads(out) == {"match": True}


def test_gauge_route_reaches_rank_ten(capsys):
    # rank 10 at genus 2 is within MAX_TYPES and the rank limits on both routes
    status, out, _ = run_cli(capsys, "crosscheck", "--n", "10", "--d", "1", "--g", "2")
    assert status == 0
    assert json.loads(out) == {"match": True}
    yangmills.clear_caches()
    status, out, _ = run_cli(capsys, "betti", "--n", "10", "--d", "3", "--g", "2")
    assert status == 0
    assert json.loads(out)["degree"] == 2 * (10 * 10 + 1)


def test_zeta_value(capsys, curve_file):
    status, out, _ = run_cli(capsys, "zeta", "--curve", curve_file, "--i", "2")
    assert status == 0
    assert json.loads(out) == {"i": 2, "value": "65/24"}


def test_zeta_summary_roundtrip(capsys, curve_file):
    status, out, _ = run_cli(capsys, "zeta", "--curve", curve_file)
    doc = json.loads(out)
    assert doc["numerator_coeffs"] == ["1", "0", "0", "0", "4"]
    assert doc["class_number"] == "5"
    assert json.loads(json.dumps(doc)) == doc


def test_mass_betti_document(capsys):
    status, out, _ = run_cli(capsys, "mass", "--n", "2", "--d", "1",
                             "--mode", "betti", "--g", "2")
    assert status == 0
    doc = json.loads(out)
    assert doc["mode"] == "betti"
    assert set(doc["value"]) == {"num", "den"}


def test_mass_hodge_document(capsys):
    status, out, _ = run_cli(capsys, "mass", "--n", "2", "--d", "1",
                             "--mode", "hodge", "--g", "2")
    assert status == 0
    doc = json.loads(out)
    assert doc["mode"] == "hodge"
    from modrec.exactalg import ratfun_to_json
    from modrec.tamagawa import ss_mass

    assert doc["value"] == ratfun_to_json(ss_mass(2, 1, SpecializationField.hodge(2)))


def test_hn_types_document(capsys):
    status, out, _ = run_cli(capsys, "hn-types", "--n", "2", "--d", "1",
                             "--g", "2", "--max-codim", "6")
    doc = json.loads(out)
    assert doc["types"] == [[[2, 1]], [[1, 1], [1, 0]], [[1, 2], [1, -1]], [[1, 3], [1, -2]]]
    assert doc["codims"] == [0, 2, 4, 6]
    # csv and plain print each type through json.dumps, so a type must reach
    # them as lists: a tuple would print as ((1, 1), (1, 0))
    types = "[[2, 1]]%s[[1, 1], [1, 0]]%s[[1, 2], [1, -1]]%s[[1, 3], [1, -2]]"
    status, out, _ = run_cli(capsys, "--format", "csv", "hn-types", "--n", "2", "--d", "1",
                             "--g", "2", "--max-codim", "6")
    assert (status, out) == (0, "codims,0;2;4;6\nd,1\ng,2\nmax_codim,6\nn,2\n"
                                "types,%s\n" % (types % (";", ";", ";")))
    status, out, _ = run_cli(capsys, "--format", "plain", "hn-types", "--n", "2", "--d", "1",
                             "--g", "2", "--max-codim", "6")
    assert (status, out) == (0, "codims     0 2 4 6\nd          1\ng          2\n"
                                "max_codim  6\nn          2\ntypes      %s\n"
                                % (types % (" ", " ", " ")))


def test_symprod_and_enumeration(capsys, curve_file):
    status, out, _ = run_cli(capsys, "symprod", "--n", "2", "--g", "2")
    assert json.loads(out)["coeffs"] == ["1", "4", "7", "4", "1"]
    status, out, _ = run_cli(capsys, "symprod", "--n", "2",
                             "--curve", curve_file, "--enumerate")
    doc = json.loads(out)
    assert doc["count"] == doc["enumerated"] == "7"


def test_bridge_document(capsys):
    # the README case and the slowest benchmark query
    for n, cutoff in [("2", "8"), ("3", "12")]:
        status, out, _ = run_cli(capsys, "bridge", "--n", n, "--g", "2",
                                 "--e", "30", "--cutoff", cutoff)
        assert status == 0
        doc = json.loads(out)
        assert doc["match"] is True
        assert doc["divisor_coeffs"] == doc["stabilized_coeffs"] == doc["classifying_coeffs"]


def test_kirwan_ops(capsys):
    status, out, _ = run_cli(capsys, "kirwan", "--weights", "[1,1,-1,-1]", "--op", "quotient")
    assert json.loads(out)["coeffs"] == ["1", "0", "2", "0", "1"]
    status, out, _ = run_cli(capsys, "kirwan", "--weights", "[-1,1]", "--op", "strata")
    doc = json.loads(out)
    assert {tuple(sorted(s.items())) for s in doc["strata"]} == {
        (("beta", 0), ("codim", 0), ("fixed_dim", None)),
        (("beta", 1), ("codim", 1), ("fixed_dim", 0)),
        (("beta", -1), ("codim", 1), ("fixed_dim", 0)),
    }
    status, out, err = run_cli(capsys, "kirwan", "--weights", "[1,1,-1,-1]", "--op", "perfection")
    assert status == 0 and err == ""
    assert out == ('{"is_polynomial": true, "series_coeffs": ["1", "0", "2", "0", "1", "0", '
                   '"0", "0", "0"], "weights": [1, 1, -1, -1]}\n')


def test_kirwan_rejects_boolean_weights(capsys):
    for weights in ("[true,1,-1]", "[1,false]"):
        status, out, err = run_cli(capsys, "kirwan", "--weights", weights, "--op", "quotient")
        assert status == 1 and out == ""
        assert err == "error: weights must be a JSON integer array\n"


def test_formats(capsys, curve_file):
    _, json_out, _ = run_cli(capsys, "count", "--n", "2", "--d", "1", "--curve", curve_file)
    _, csv_out, _ = run_cli(capsys, "--format", "csv", "count", "--n", "2", "--d", "1",
                            "--curve", curve_file)
    _, plain_out, _ = run_cli(capsys, "--format", "plain", "count", "--n", "2", "--d", "1",
                              "--curve", curve_file)
    assert csv_out == "stable_count,75\n"
    assert plain_out == "stable_count  75\n"
    assert json.loads(json_out)["stable_count"] == "75"
    # a boolean renders as true or false in csv and plain
    for fmt, line in (("csv", "match,true\n"), ("plain", "match  true\n")):
        status, out, _ = run_cli(capsys, "--format", fmt, "crosscheck", "--n", "3", "--d", "1",
                                 "--g", "2")
        assert status == 0 and out == line


def test_unknown_subcommand_exits_one(capsys):
    status, _, err = run_cli(capsys, "frobnicate")
    assert status == 1
    assert err


def test_malformed_config_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    status, _, err = run_cli(capsys, "count", "--n", "2", "--d", "1", "--curve", str(path))
    assert status == 1 and "JSON" in err


@pytest.mark.parametrize("config, blamed", [
    (dict(F2_CONFIG, h=5), "'h'"),
    (dict(F2_CONFIG, f=["a", 0, 0, 0, 0, 1]), "'f'"),
    (dict(F2_CONFIG, f=[0, 0, 0, 0, 0, 1e3]), "'f'"),
    (dict(F2_CONFIG, f=[0, 0, 0, 0, 0, True]), "'f'"),
    (dict(COUNTS_CONFIG, counts=["3", 5]), "'counts'"),
    (5, "JSON object"),
    (dict(F2_CONFIG, p=4, f=[1, 0, 0, 0, 0, 1], h=[]), "error: p must be prime, got 4\n"),
    (dict(F2_CONFIG, p=3, f=[1, 0, 0, 0, 1], h=[]),
     "error: deg f must be at least 5 (genus >= 2)\n"),
    (dict(F2_CONFIG, h=[1, 0, 0, 1]), "error: deg h must be at most g = 2\n"),
    (dict(F2_CONFIG, k=0), "error: extension exponent k must be >= 1\n"),
    (dict(COUNTS_CONFIG, counts=[3, 5, 9]), "error: need exactly g = 2 point counts\n"),
    (dict(COUNTS_CONFIG, genus=1, counts=[3]), "error: genus must be at least 2\n"),
    (dict(COUNTS_CONFIG, q="2"), "field 'q' must be int\n"),
], ids=["h-int", "f-str", "f-float", "f-bool", "counts-str", "not-object", "p-not-prime",
        "deg-f-4", "deg-h-3", "k-0", "three-counts", "genus-1", "q-str"])
def test_malformed_config_lists_exit_one(capsys, tmp_path, config, blamed):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    for argv in (["zeta", "--curve", str(path)],
                 ["symprod", "--n", "2", "--curve", str(path), "--enumerate"]):
        status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: ") and blamed in err, (argv, err)


def test_missing_config_file_exits_one(capsys, tmp_path):
    path = tmp_path / "absent.json"
    status, out, err = run_cli(capsys, "zeta", "--curve", str(path))
    assert status == 1 and out == ""
    assert err == "error: cannot read curve file %s: [Errno 2] No such file or directory: %r\n" % (
        path, str(path))


def test_hasse_weil_violation_rejected(capsys, tmp_path):
    path = tmp_path / "bad_counts.json"
    path.write_text(json.dumps({"mode": "counts", "q": 2, "genus": 2, "counts": [30, 5]}))
    status, _, err = run_cli(capsys, "count", "--n", "2", "--d", "1", "--curve", str(path))
    assert status == 1 and err


def test_off_circle_counts_rejected(capsys, tmp_path):
    # inside the coefficient bounds and P(1) > 0, but R(s) = s^2 - 3s + 3 has
    # no real root; the root check refuses it before Hasse-Weil is tried on
    # the derived counts
    path = tmp_path / "off_circle.json"
    path.write_text(json.dumps(dict(COUNTS_CONFIG, counts=[0, 10])))
    status, out, err = run_cli(capsys, "count", "--n", "2", "--d", "1", "--curve", str(path))
    assert status == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "norm condition" in err


def test_missing_field_message(capsys, tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"mode": "counts", "q": 2, "genus": 2}))
    status, _, err = run_cli(capsys, "count", "--n", "2", "--d", "1", "--curve", str(path))
    assert status == 1 and "counts" in err


def test_invariant_violation_exits_two(capsys, monkeypatch):
    # main() builds its parser after the patch, so the handler default picks
    # up the broken function and the exit-code mapping is exercised
    import modrec.cli as cli_mod

    def broken(args):
        raise InvariantViolation("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "_cmd_betti", broken)
    status, _, err = run_cli(capsys, "betti", "--n", "2", "--d", "1", "--g", "2")
    assert status == 2
    assert "invariant violation" in err


def test_crosscheck_mismatch_exits_two(capsys, monkeypatch):
    # a disagreement between the pipelines must surface as exit code 2 with
    # the mismatch documented, not as an exception; the handler imports
    # ss_mass when it runs, so patching the library module reaches it
    import modrec.tamagawa as tamagawa_mod
    from modrec.exactalg import Poly, RatFun

    one = RatFun(Poly.univariate("t", [1]))
    monkeypatch.setattr(tamagawa_mod, "ss_mass", lambda n, d, field: one)
    status, out, _ = run_cli(capsys, "crosscheck", "--n", "2", "--d", "1", "--g", "2")
    assert status == 2
    assert json.loads(out) == {"match": False}


def test_crosscheck_is_bounded_by_the_gauge_budget(capsys, monkeypatch):
    # the gauge budget bounds rank and genus, so the polynomial goes first
    # and a request past it is refused before any mass is computed
    import modrec.tamagawa as tamagawa_mod

    def unbudgeted(n, d, field):
        raise AssertionError("ss_mass ran before the gauge budget refused")

    monkeypatch.setattr(tamagawa_mod, "ss_mass", unbudgeted)
    status, out, err = run_cli(capsys, "crosscheck", "--n", "2", "--d", "1", "--g", "3000")
    assert status == 1 and out == ""
    assert "weighted coefficient products" in err and "exceeds the limit" in err


def test_load_curve_symbolic(capsys, tmp_path):
    # a curve config carries zeta data; the genus alone is --g
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"mode": "symbolic", "genus": 3}))
    status, out, err = run_cli(capsys, "zeta", "--curve", str(path))
    assert status == 1 and out == ""
    assert err == "error: %s: unknown curve mode 'symbolic'\n" % path


def test_load_curve_counts_vs_model(tmp_path):
    p1 = tmp_path / "counts.json"
    p1.write_text(json.dumps(COUNTS_CONFIG))
    p2 = tmp_path / "model.json"
    p2.write_text(json.dumps(F2_CONFIG))
    assert load_curve(str(p1)).coefficients() == load_curve(str(p2)).coefficients()


def test_selftest_flag(capsys):
    status, out, _ = run_cli(capsys, "--selftest")
    assert status == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("mode", ["betti", "hodge"])
def test_mass_genus_zero_is_a_genus_error(capsys, mode):
    status, out, err = run_cli(capsys, "mass", "--n", "2", "--d", "1",
                               "--mode", mode, "--g", "0")
    assert status == 1 and out == ""
    assert err == "error: genus must be at least 2\n"


def test_symprod_genus_one_rejected(capsys):
    status, out, err = run_cli(capsys, "symprod", "--n", "2", "--g", "1")
    assert status == 1 and out == ""
    assert err == "error: genus must be at least 2\n"


@pytest.mark.parametrize("argv, blamed", [
    (["hn-types", "--n", "3", "--d", "1", "--g", "2", "--max-codim", "100000"],
     "error: codimension bound 100000: types = 155001 exceeds the limit 155000\n"),
    (["hn-types", "--n", "40", "--d", "1", "--g", "2", "--max-codim", "3"], "compositions"),
    (["siegel", "--n", "3", "--d", "1", "--curve", "{curve}", "--max-codim", "100000"],
     "types"),
    (["siegel", "--n", "48", "--d", "1", "--curve", "{curve}", "--max-codim", "3"],
     "compositions"),
    (["count", "--n", "65", "--d", "1", "--curve", "{curve}"],
     "error: numeric mass of rank 65 over q = 2 at genus 2: n^6 bits(q)^2 g = 603351125000"
     " exceeds the limit 600000000000\n"),
    (["mass", "--n", "27", "--d", "1", "--mode", "betti", "--g", "2"],
     "betti mass: rank = 27 exceeds the limit 26"),
    (["mass", "--n", "12", "--d", "1", "--mode", "hodge", "--g", "3"],
     "hodge mass: rank = 12 exceeds the limit 11"),
    (["betti", "--n", "16", "--d", "1", "--g", "2"],
     "error: rank 16 at genus 2 to order 518: types = 155001 exceeds the limit 155000\n"),
    (["betti", "--n", "20", "--d", "1", "--g", "2"], "compositions"),
    (["betti", "--n", "2", "--d", "1", "--g", "1000"], "weighted coefficient products"),
    (["matrixdiv", "--n", "10", "--e", "40", "--g", "2"], "coefficient products"),
    (["bridge", "--n", "3", "--g", "2", "--e", "300", "--cutoff", "12"], "coefficient products"),
    (["matrixdiv", "--n", "2", "--e", "100000000", "--g", "2"], "coefficient products"),
    (["matrixdiv", "--n", "2", "--e", "222", "--g", "1000000000"], "coefficient products"),
    (["symprod", "--n", "100000000", "--g", "2"], "loop steps"),
    (["matrixdiv", "--n", "1", "--e", "100000000", "--g", "2"], "loop steps"),
    (["symprod", "--n", "2800", "--g", "1000000"], "loop steps"),
    (["zeta", "--curve", "{curve}", "--i", "1000000"], "i bits(q) g"),
    (["symprod", "--n", "19", "--curve", "{curve}", "--enumerate"],
     "error: field F_{2^19}: m floor(log2 p) = 19 exceeds the limit 18\n"),
    (["hn-types", "--n", "3000000", "--d", "1", "--g", "2", "--max-codim", "3"],
     "rank 3000000: log2 compositions (n - 1) = 2999999 exceeds the limit 17"),
], ids=["hn-types-codim", "hn-types-rank", "siegel-codim", "siegel-rank", "count-rank",
        "mass-betti-rank", "mass-hodge-rank", "betti-types", "betti-rank", "betti-genus",
        "matrixdiv-rank", "bridge-degree", "matrixdiv-degree", "matrixdiv-genus",
        "symprod-degree", "matrixdiv-rank-one", "symprod-genus", "zeta-index",
        "enumerate-degree", "hn-types-huge-rank"])
def test_work_past_budget_is_refused(capsys, curve_file, argv, blamed):
    start = time.perf_counter()
    status, out, err = run_cli(capsys, *[a.format(curve=curve_file) for a in argv])
    assert time.perf_counter() - start < 2.0
    assert status == 1 and out == ""
    assert re.fullmatch(r"error: [^\n]+: [^\n]+ = \d+ exceeds the limit \d+\n", err), err
    assert blamed in err, err


def test_symprod_count_past_its_charge_is_refused(capsys):
    # n bits(q) = 6e6 is far past SYMPROD_CHARGE and one past the limit is
    # refused as well, both before any arithmetic; the brute-force oracle
    # is still admitted
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "g2q2.json")
    for n in (3_000_000, SYMPROD_CHARGE // 2 + 1):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "symprod", "--n", str(n), "--curve", config)
        assert time.perf_counter() - start < 1.0
        assert status == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "n bits(q)" in err, err
    status, out, err = run_cli(capsys, "symprod", "--n", "6", "--curve", config, "--enumerate")
    assert status == 0 and err == ""
    assert json.loads(out) == {"count": "155", "enumerated": "155", "n": 6}


def test_siegel_levels_past_their_charge_are_refused(capsys, tmp_path):
    # each of the M + 1 levels keeps Fractions of about M bits(q) bits: at
    # M = 100000 over F_2 the check is refused after its one walk, before any
    # mass; over q = 2^61 - 1, M = 512 is one past the last admitted bound
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "g2q2.json")
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "siegel", "--n", "2", "--d", "1", "--curve", config,
                               "--max-codim", "100000")
    assert time.perf_counter() - start < 1.0
    assert status == 1 and out == ""
    assert err == ("error: codimension bound 100000 at rank 2 over q = 2: (M + 1) (M bits(q))^2"
                   " = 4000040000000000 exceeds the limit %d\n" % SIEGEL_CHARGE)
    q = 2 ** 61 - 1
    path = tmp_path / "big_q.json"
    path.write_text(json.dumps({"mode": "counts", "q": q, "genus": 2,
                                "counts": [q + 1, q * q + 1]}))
    status, out, err = run_cli(capsys, "siegel", "--n", "2", "--d", "1", "--curve", str(path),
                               "--max-codim", "512")
    assert status == 1 and out == "" and "(M + 1) (M bits(q))^2 = 500399603712 exceeds" in err, err


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_symprod_enumeration_builds_each_field_once(capsys, monkeypatch):
    # one model serves the zeta reconstruction (N_1, N_2) and the oracle
    # (N_1..N_6): F_{2^r} is built once for each r, not twice for r <= 2
    from modrec import curve

    builds = []
    build = curve._exp_log

    def counted(p, m, modulus):
        builds.append((p, m))
        return build(p, m, modulus)

    monkeypatch.setattr(curve, "_exp_log", counted)
    status, out, err = run_cli(capsys, "symprod", "--n", "6", "--curve",
                               os.path.join(CONFIGS, "g2q2.json"), "--enumerate")
    assert status == 0 and err == ""
    assert json.loads(out) == {"count": "155", "enumerated": "155", "n": 6}
    assert builds == [(2, m) for m in range(1, 7)]


@pytest.mark.parametrize("n", [7, 12])
def test_enumeration_is_bounded_by_the_field_size(capsys, n):
    # the oracle counts over F_{2^n}, so FIELD_SIZE_LIMIT alone bounds n
    path = os.path.join(CONFIGS, "g2q2.json")
    status, out, err = run_cli(capsys, "symprod", "--n", str(n), "--curve", path, "--enumerate")
    assert status == 0 and err == ""
    doc = json.loads(out)
    assert doc["enumerated"] == doc["count"] == str(sym_count(load_curve(path), n))


@pytest.mark.parametrize("config, n, blamed", [
    ("g2q2_counts.json", "2", "{path}: divisor enumeration needs a hyperelliptic model"),
    ("g2q2_counts.json", "-1", "degree must be >= 0"),
    ("g2q2_counts.json", "3000000", "symprod at n = 3000000 over q = 2: n bits(q) = 6000000 "
                                    "exceeds the limit 650000"),
    ("g2q2.json", "3000000", "symprod at n = 3000000 over q = 2: n bits(q) = 6000000 "
                             "exceeds the limit 650000"),
    ("g2q2.json", "19", "field F_{{2^19}}: m floor(log2 p) = 19 exceeds the limit 18"),
    ("g2q2.json", "-1", "degree must be >= 0"),
], ids=["counts", "counts-negative", "counts-past-charge", "model-past-charge",
        "model-past-degree", "model-negative"])
def test_symprod_enumerate_error_order(capsys, config, n, blamed):
    # the charge check and the zeta count come before the oracle's
    # refusals, and a counts config is refused only at the oracle
    path = os.path.join(CONFIGS, config)
    status, out, err = run_cli(capsys, "symprod", "--n", n, "--curve", path, "--enumerate")
    assert status == 1 and out == ""
    assert err == "error: %s\n" % blamed.format(path=path), err


def test_numeric_mass_over_a_large_q_is_refused(capsys, tmp_path):
    q = 10 ** 9 + 7
    path = tmp_path / "large_q.json"
    path.write_text(json.dumps({"mode": "counts", "q": q, "genus": 2,
                                "counts": [q + 1, q * q + 1]}))
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "count", "--n", "60", "--d", "1", "--curve", str(path))
    assert time.perf_counter() - start < 2.0
    assert status == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "n^6 bits(q)^2 g" in err, err


def test_high_rank_under_a_small_bound_is_quick(capsys):
    # every first part's rank pair alone passes the bound, so no part is split off
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "hn-types", "--n", "18", "--d", "1", "--g", "2",
                               "--max-codim", "3")
    assert time.perf_counter() - start < 0.5
    assert status == 0 and err == ""
    assert out == ('{"codims": [0], "d": 1, "g": 2, "max_codim": 3, "n": 18, '
                   '"types": [[[18, 1]]]}\n')


@pytest.mark.parametrize("argv, blamed", [
    (["mass", "--n", "3", "--d", "1", "--curve", "{curve}", "--mode", "hodge", "--g", "3"],
     "not both"),
    (["mass", "--n", "3", "--d", "1", "--curve", "{curve}", "--g", "3"], "not both"),
    (["symprod", "--n", "3", "--curve", "{curve}", "--g", "5"], "not both"),
    (["symprod", "--n", "3", "--g", "2", "--enumerate"], "--enumerate needs --curve"),
    (["mass", "--n", "2", "--d", "1"],
     "error: mass needs either --curve, or --mode betti|hodge with --g\n"),
    (["symprod", "--n", "2"], "error: symprod needs --g (Betti mode) or --curve (counts)\n"),
    (["zeta", "--curve", "{curve}", "--i", "1"], "error: zeta values are used for i >= 2\n"),
], ids=["mass-curve-mode-g", "mass-curve-g", "symprod-curve-g", "symprod-enumerate-g",
        "mass-no-field", "symprod-no-field", "zeta-i-1"])
def test_conflicting_options_are_refused(capsys, curve_file, argv, blamed):
    status, out, err = run_cli(capsys, *[a.format(curve=curve_file) for a in argv])
    assert status == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and blamed in err, err


BIG_PRIME = 1000000000000000003


@pytest.mark.parametrize("config, argv, blamed", [
    (dict(COUNTS_CONFIG, q=BIG_PRIME), ["zeta"], "Weil bound"),
    (dict(COUNTS_CONFIG, q=3317044064679887385961981), ["zeta"], "prime-power test"),
    (dict(F2_CONFIG, p=BIG_PRIME, f=[1, 0, 0, 0, 0, 1], h=[]), ["zeta"], "m floor(log2 p)"),
    (dict(F2_CONFIG, k=10 ** 12), ["zeta"], "m floor(log2 p)"),
    (dict(F2_CONFIG, k=13), ["zeta"], "F_{2^26}"),
    (dict(F2_CONFIG, k=4), ["symprod", "--n", "5", "--enumerate"], "F_{2^20}"),
], ids=["counts-big-prime-q", "counts-q-past-test", "model-big-prime-p", "model-huge-k",
        "model-counts-past-limit", "enumerate-past-limit"])
def test_large_fields_are_refused_at_once(capsys, tmp_path, config, argv, blamed):
    path = tmp_path / "large.json"
    path.write_text(json.dumps(config))
    start = time.perf_counter()
    status, out, err = run_cli(capsys, *argv, "--curve", str(path))
    assert time.perf_counter() - start < 1.0
    assert status == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and blamed in err, err


def _decimal(text):
    """Exact value of a long decimal string, read in chunks under the digit guard."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _assert_full_fraction(text, expected):
    num, den = text.split("/")
    assert len(num) > 4300
    assert _decimal(num) == expected.numerator and _decimal(den) == expected.denominator


def test_zeta_value_past_digit_guard_prints_in_full(capsys, curve_file):
    limit = sys.get_int_max_str_digits()
    status, out, err = run_cli(capsys, "zeta", "--curve", curve_file, "--i", "5000")
    assert status == 0 and err == ""
    expected = SpecializationField.numeric(load_curve(curve_file)).zeta(5000)
    _assert_full_fraction(json.loads(out)["value"], expected)
    assert sys.get_int_max_str_digits() == limit


def test_symprod_count_past_digit_guard_prints_in_full(capsys, curve_file):
    limit = sys.get_int_max_str_digits()
    status, out, err = run_cli(capsys, "symprod", "--n", "15000", "--curve", curve_file)
    assert status == 0 and err == ""
    count = json.loads(out)["count"]
    expected = sym_count(load_curve(curve_file), 15000)
    assert len(count) > 4300 and _decimal(count) == expected
    assert sys.get_int_max_str_digits() == limit


def test_config_integer_past_digit_guard_exits_one(capsys, tmp_path, curve_file):
    path = tmp_path / "huge_q.json"
    path.write_text('{"mode": "counts", "q": %s, "genus": 2, "counts": [3, 5]}' % ("2" * 5001))
    # an answer printed in full first must not lift the guard for later input
    run_cli(capsys, "zeta", "--curve", curve_file, "--i", "5000")
    for argv in (["zeta", "--curve", str(path)],
                 ["count", "--n", "2", "--d", "1", "--curve", str(path)]):
        status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "5001 digits" in err


def test_arithmetic_curves_need_no_numpy(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(F2_CONFIG))
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(COUNTS_CONFIG))
    code = ("import sys\n"
            "from modrec.cli import main\n"
            "assert main(['zeta', '--curve', %r]) == 0\n"
            "assert main(['count', '--n', '2', '--d', '1', '--curve', %r]) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            % (str(model), str(counts)))
    src = os.path.dirname(os.path.dirname(modrec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        json.dumps({"class_number": "5", "counts": ["3", "5"], "genus": 2,
                    "numerator_coeffs": ["1", "0", "0", "0", "4"], "q": 2}, sort_keys=True),
        json.dumps({"stable_count": "75"})]


GAUGE_ONLY = {"curve", "fields", "factored", "tamagawa", "kirwan", "acceptance"}
# the finite-field and numeric queries run on ints and Fractions
SYMBOLIC = {"exactalg", "factored", "yangmills", "kirwan", "symprod", "matrixdiv"}


@pytest.mark.parametrize("argv, absent", [
    (["betti", "--n", "2", "--d", "1", "--g", "2"], GAUGE_ONLY | {"matrixdiv", "symprod"}),
    (["zeta", "--curve", "{model}"], SYMBOLIC | {"hn", "tamagawa"}),
    (["zeta", "--curve", "{counts}", "--i", "3"], SYMBOLIC | {"hn", "tamagawa"}),
    (["kirwan", "--weights", "[1,1,-1,-1]", "--op", "quotient"], {"curve", "hn", "yangmills"}),
    (["count", "--n", "3", "--d", "1", "--curve", "{model}", "--fixed-det"], SYMBOLIC | {"hn"}),
    (["count", "--n", "2", "--d", "1", "--curve", "{counts}"], SYMBOLIC | {"hn"}),
    (["mass", "--n", "4", "--d", "2", "--curve", "{model}"], SYMBOLIC | {"hn"}),
    (["siegel", "--n", "3", "--d", "1", "--curve", "{model}"], SYMBOLIC),
    (["bridge", "--n", "3", "--g", "2", "--e", "30", "--cutoff", "12"], GAUGE_ONLY),
    (["matrixdiv", "--n", "4", "--e", "12", "--g", "2"], GAUGE_ONLY),
    (["mass", "--n", "3", "--d", "1", "--mode", "betti", "--g", "2"],
     {"curve", "yangmills", "kirwan", "symprod", "matrixdiv"}),
    (["mass", "--n", "3", "--d", "1", "--mode", "hodge", "--g", "2"],
     {"curve", "yangmills", "kirwan", "symprod", "matrixdiv"}),
    (["crosscheck", "--n", "3", "--d", "1", "--g", "2"], {"curve", "kirwan", "symprod"}),
], ids=["betti", "zeta", "zeta-i", "kirwan", "count", "count-counts", "mass-numeric", "siegel",
        "bridge", "matrixdiv", "mass-betti", "mass-hodge", "crosscheck"])
def test_subcommand_imports_only_its_modules(tmp_path, argv, absent):
    # in a fresh process the cli module loads only errors, a subcommand
    # imports none of the other subcommands' modules (the symbolic fields and
    # the symmetric powers need no curve, the finite-field and numeric
    # queries no symbolic algebra), and no module pulls in dataclasses (and
    # inspect behind it) or __future__; pytest's own process has every module
    # loaded, so this needs a subprocess
    model = tmp_path / "model.json"
    model.write_text(json.dumps(F2_CONFIG))
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(COUNTS_CONFIG))
    code = ("import json, sys\n"
            "import modrec.cli\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('modrec.')]))\n"
            "assert 'dataclasses' not in sys.modules, 'imported by modrec.cli'\n"
            "assert '__future__' not in sys.modules, 'imported by modrec.cli'\n"
            "assert modrec.cli.main(%r) == 0\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('modrec.')]))\n"
            "print(json.dumps(['dataclasses' in sys.modules, '__future__' in sys.modules]))\n"
            % [a.format(model=str(model), counts=str(counts)) for a in argv])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(modrec.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    imported, _, loaded, stdlib_loaded = done.stdout.splitlines()
    assert sorted(json.loads(imported)) == ["modrec.cli", "modrec.errors"]
    loaded = {name[len("modrec."):] for name in json.loads(loaded)}
    assert "cli" in loaded and not loaded & absent, sorted(loaded & absent)
    assert json.loads(stdlib_loaded) == [False, False]  # dataclasses, __future__


# one argv per subcommand, with every option it takes
SAMPLE_ARGS = {
    "betti": ["--n", "3", "--d", "1", "--g", "2", "--fixed-det"],
    "count": ["--n", "2", "--d", "1", "--curve", "c.json", "--fixed-det"],
    "mass": ["--n", "3", "--d", "1", "--curve", "c.json", "--g", "2", "--mode", "hodge"],
    "siegel": ["--n", "3", "--d", "1", "--curve", "c.json", "--max-codim", "7"],
    "hn-types": ["--n", "3", "--d", "1", "--g", "2", "--max-codim", "4"],
    "symprod": ["--n", "4", "--g", "2", "--curve", "c.json", "--enumerate"],
    "matrixdiv": ["--n", "2", "--e", "5", "--g", "2"],
    "bridge": ["--n", "2", "--g", "2", "--e", "5", "--cutoff", "4"],
    "kirwan": ["--weights", "[1,-1]", "--op", "bb"],
    "crosscheck": ["--n", "2", "--d", "1", "--g", "2"],
    "zeta": ["--curve", "c.json", "--i", "3"],
}
REQUIRED_ARGS = {
    "betti": ["--n", "3", "--d", "1", "--g", "2"],
    "count": ["--n", "2", "--d", "1", "--curve", "c.json"],
    "mass": ["--n", "3", "--d", "1"],
    "siegel": ["--n", "3", "--d", "1", "--curve", "c.json"],
    "hn-types": ["--n", "3", "--d", "1", "--g", "2"],
    "symprod": ["--n", "4"],
    "matrixdiv": ["--n", "2", "--e", "5", "--g", "2"],
    "bridge": ["--n", "2", "--g", "2", "--e", "5", "--cutoff", "4"],
    "kirwan": ["--weights", "[1,-1]"],
    "crosscheck": ["--n", "2", "--d", "1", "--g", "2"],
    "zeta": ["--curve", "c.json"],
}


def test_sample_argvs_cover_every_subcommand():
    assert list(SAMPLE_ARGS) == list(REQUIRED_ARGS) == [name for name, _, _ in cli.COMMANDS]


@pytest.mark.parametrize("name", list(SAMPLE_ARGS))
def test_one_subparser_parses_as_the_full_parser(name):
    # main builds only the subparser its argv names; the namespace, defaults
    # and handler included, is the one the parser with every subparser gives
    for args in (SAMPLE_ARGS[name], REQUIRED_ARGS[name]):
        for before in ([], ["--format", "csv"], ["--selftest"], ["--format", "plain", "--selftest"]):
            argv = before + [name] + args
            assert cli._command(argv) == name
            assert cli.build_parser(name).parse_args(argv) == cli.build_parser().parse_args(argv)


def _outcome(capsys, argv):
    try:
        status = main(list(argv))
    except SystemExit as exc:  # --help prints and exits
        status = "SystemExit(%r)" % exc.code
    out = capsys.readouterr()
    return status, out.out, out.err


USAGE_CASES = {
    "help": ["--help"],
    "betti-help": ["betti", "--help"],
    "zeta-h": ["zeta", "-h"],
    "no-command": [],
    "format-only": ["--format", "csv"],
    "unknown": ["nope"],
    "unknown-then-betti": ["nope", "betti"],
    "selftest-help": ["--selftest", "--help"],
    "missing-option": ["betti", "--n", "2"],
    "bad-int": ["betti", "--n", "two", "--d", "1", "--g", "2"],
    "extra-option": ["betti", "--n", "2", "--d", "1", "--g", "2", "--x"],
    "bad-op": ["kirwan", "--weights", "[1,-1]", "--op", "nope"],
    "bad-mode": ["mass", "--n", "2", "--d", "1", "--mode", "nope", "--g", "2"],
    "bad-format": ["--format", "xml", "betti", "--n", "2", "--d", "1", "--g", "2"],
    "format-no-value": ["--format"],
    "abbreviated-format": ["--form", "csv", "betti", "--n", "2", "--d", "1", "--g", "2"],
    "csv": ["--format", "csv", "betti", "--n", "2", "--d", "1", "--g", "2"],
    "plain": ["--format", "plain", "kirwan", "--weights", "[1,1,-1,-1]", "--op", "quotient"],
}


@pytest.mark.parametrize("argv", list(USAGE_CASES.values()), ids=list(USAGE_CASES))
def test_output_matches_the_full_parser(capsys, monkeypatch, argv):
    # stdout, stderr and the exit status, usage errors and help included, are
    # those of a run that builds every subparser
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_command", lambda argv: None)
    assert got == _outcome(capsys, argv)


def test_gauge_route_does_not_import_the_arithmetic_one():
    # criterion 2 and crosscheck compare two computations only while the
    # gauge route stays clear of tamagawa
    code = ("import sys\n"
            "import modrec.yangmills, modrec.hn\n"
            "modrec.yangmills.moduli_poincare(3, 1, 2)\n"
            "modrec.yangmills.classifying_series(3, 2)\n"
            "assert 'modrec.tamagawa' not in sys.modules, 'modrec.tamagawa was imported'\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(modrec.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_src_does_not_import_dataclasses():
    package = os.path.dirname(modrec.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                assert "dataclasses" not in handle.read(), name
