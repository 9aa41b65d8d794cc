"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q bench/tests
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")


def _span(sid, name, start, end, parent, query=0):
    return (sid, name, start, end, parent, query)


def test_self_time_subtracts_children_including_recursive_spans():
    # main [0, 10] > ss_eq [1, 9] > (ss_eq [2, 5] > types [3, 4]), series_mul [6, 8]
    spans = [
        _span(3, "hn.enumerate_types", 3.0, 4.0, 2),
        _span(2, "yangmills.ss_equivariant_series", 2.0, 5.0, 1),
        _span(4, "exactalg.series_mul", 6.0, 8.0, 1),
        _span(1, "yangmills.ss_equivariant_series", 1.0, 9.0, 0),
        _span(0, "cli.main", 0.0, 10.0, None),
    ]
    assert self_times(spans) == {0: 2.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0}


def test_summary_totals_and_gauge_memo_hits():
    tracer = Tracer()
    tracer.spans = [
        _span(3, "hn.enumerate_types", 3.0, 4.0, 2),
        _span(2, "yangmills.ss_equivariant_series", 2.0, 5.0, 1),
        _span(1, "yangmills.ss_equivariant_series", 1.0, 9.0, 0),
        _span(0, "cli.main", 0.0, 10.0, None),
    ]
    summary = tracer.summary()
    assert summary["yangmills.ss_equivariant_series.calls"] == 2
    assert summary["yangmills.ss_equivariant_series.self_s"] == 7.0  # (8 - 3) + (3 - 1)
    # the outer call opened no enumerate_types span of its own: a memo hit
    assert summary["yangmills.ss_equivariant_series.hits"] == 1


def test_traced_wrappers_nest_spans():
    tracer = Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.span("leaf", leaf)
    outer = tracer.span("outer", lambda: traced_leaf() + traced_leaf())
    assert outer() == 2
    names = {sid: name for sid, name, *_ in tracer.spans}
    parents = [names.get(parent) for _, name, _, _, parent, _ in tracer.spans if name == "leaf"]
    assert parents == ["outer", "outer"]


def _record(workload, key):
    return workloads.load_expected(workload)[key]


def test_check_flags_changed_byte_and_wrong_exit_code():
    key = "betti --n 3 --d 2 --g 2"
    query = workloads.Query(key, tuple(key.split()))
    record = _record("cold", key)
    out = record["stdout"]
    assert run.cli_failure(query, 0, out, record) is None
    changed = out.replace('"4"', '"5"', 1)
    assert changed != out
    assert run.cli_failure(query, 0, changed, record) is not None
    assert run.cli_failure(query, 2, out, record) is not None


def test_derivations_reject_wrong_documents():
    fixed = workloads.Query("count", ("count", "--n", "3", "--d", "1", "--curve",
                                      workloads.G2Q2, "--fixed-det"))
    good = '{"fixed_det_count": "775", "stable_count": "3875"}\n'
    assert workloads.check_cli(fixed, 0, good, ROOT) is None
    bad = '{"fixed_det_count": "774", "stable_count": "3875"}\n'
    assert workloads.check_cli(fixed, 0, bad, ROOT) is not None
    rank2 = workloads.Query("betti", ("betti", "--n", "2", "--d", "1", "--g", "2"))
    doc = {"coeffs": [str(c) for c in workloads.rank2_poincare(2)], "d": 1, "degree": 10,
           "g": 2, "n": 2}
    assert workloads.check_cli(rank2, 0, json.dumps(doc), ROOT) is None
    doc["coeffs"][3] = "13"
    assert workloads.check_cli(rank2, 0, json.dumps(doc), ROOT) is not None


def test_f7_expectation_comes_from_the_derivation():
    record = _record("cold", "zeta --curve " + workloads.F7)
    assert record["source"] == "derivation"
    assert json.loads(record["stdout"]) == {
        "class_number": "50", "counts": ["8", "50"], "genus": 2,
        "numerator_coeffs": ["1", "0", "0", "0", "49"], "q": 7}


def test_seed_drawn_shift_keeps_expected_coefficients():
    shifted = set()
    for seed in range(6):
        for query in workloads.draw("cold", seed):
            if query.argv[0] != "betti" or query.argv[2] not in ("2", "3") or query.d is None:
                continue
            if query.argv in shifted:
                continue
            shifted.add(query.argv)
            proc = subprocess.run([sys.executable, "-m", "modrec", *query.argv], cwd=ROOT,
                                  env=ENV, capture_output=True, text=True, timeout=60)
            assert run.cli_failure(query, proc.returncode, proc.stdout,
                                   _record("cold", query.key)) is None
    assert shifted


def test_draw_is_reproducible_and_seed_dependent():
    assert workloads.draw("cold", 7) == workloads.draw("cold", 7)
    assert any(workloads.draw("cold", s) != workloads.draw("cold", 7) for s in range(3))
    for workload in workloads.WORKLOADS:
        keys = sorted(q.key for q in workloads.draw(workload, 3))
        assert keys == sorted(workloads.QUERIES[workload])
        assert set(keys) == set(workloads.load_expected(workload))


def _counts(summary):
    return {k: v for k, v in summary.items() if not k.endswith("_s") and not k.endswith(".s")}


def test_two_traced_runs_give_identical_counts():
    argv = [sys.executable, os.path.join(BENCH, "child.py"), "cli", "--trace", "--",
            "count", "--n", "3", "--d", "1", "--curve", workloads.G2Q2]
    runs = [json.loads(subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True,
                                      text=True, timeout=60, check=True).stdout)
            for _ in range(2)]
    assert runs[0]["stdout"] == '{"stable_count": "3875"}\n'
    first, second = (_counts(r["trace"]) for r in runs)
    assert first == second
    assert first["tamagawa.cone_cells.visited"] > 0
    assert first["exactalg.poly_gcd.calls"] > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_time_metrics_take_each_querys_best_pass():
    first, second = run.Pass(peak_rss_mb=30.0), run.Pass(peak_rss_mb=32.0)
    first.query_times = {"a": (1.0, 0.9), "b": (3.0, 2.5), run.STARTUP: (0.5, 0.4)}
    second.query_times = {"a": (2.0, 0.8), "b": (2.0, 1.9), run.STARTUP: (0.3, 0.3)}
    metrics = {k: v["value"] for k, v in
               run.end_to_end_metrics([first, second], [0.2, 0.1, 0.4]).items()}
    assert metrics == {"wall_s": 1.0 + 2.0 + 0.3, "cpu_s": 0.8 + 1.9 + 0.3,
                       "slowest_query_s": 2.0, "peak_rss_mb": 31.0, "setup_s": 0.2}


def test_refuses_to_run_without_modrec_source():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "cold", "--seed", "1", "--seconds", "1"], cwd=BENCH,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
