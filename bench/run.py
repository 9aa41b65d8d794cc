"""modrec benchmark: run one workload for a fixed time, check every answer,
print its metrics.

    python3 bench/run.py --workload cold --seed 1 --seconds 60 --trace 0

Run from the root of a modrec checkout; the program is imported from src/.
A run repeats the workload's query list (one pass) while another pass fits
in ``--seconds``, one query at a time: the next starts when the previous one
exited.  Before each pass it times ``SETUP_PER_PASS`` fresh interpreters
importing modrec.cli; ``setup_s`` is their median.  The time metrics take
each query's best wall and CPU time over the run's passes (best of N, as
``timeit`` does): on a shared host other tenants can slow a process by up
to 1.8x for seconds or minutes at a time, and the best time is the one
they disturb least.  With ``--trace 1`` the passes alternate untraced and
traced, and the per-layer metrics come from the traced ones.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.

A query fails when its exit code or stdout differs from its expected
document, or when an independent derivation rejects it.  A failure is a
refusal when the query exits 1 with empty stdout and no traceback (modrec
declined it); any other failure is a wrong answer and makes ``correct``
false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import workloads

ROOT = os.getcwd()
CHILD = os.path.join(workloads.BENCH_DIR, "child.py")
SETUP_PER_PASS = 2
# The session worker's own start-up and exit, timed as one more "query".
STARTUP = "(worker start-up and exit)"

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("slowest_query_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (metric, unit); values come from the summed trace summaries of a pass,
# ratios are computed in ``per_layer_metrics``.
PER_LAYER = tuple(
    [(name, "count") for name in (
        "exactalg.poly_gcd.calls", "exactalg.poly_gcd.multivar_calls")]
    + [("exactalg.poly_gcd.self_s", "s"),
       ("exactalg.poly_divexact.calls", "count"), ("exactalg.poly_divexact.self_s", "s"),
       ("exactalg.poly_pow.calls", "count"),
       ("exactalg.series_mul.calls", "count"), ("exactalg.series_mul.self_s", "s"),
       ("exactalg.series_expand.calls", "count"), ("exactalg.series_expand.self_s", "s"),
       ("exactalg.poly_mul.calls", "count"),
       ("exactalg.ratfun_arith.calls", "count"), ("exactalg.ratfun_arith.self_s", "s"),
       ("hn.enumerate_types.calls", "count"), ("hn.enumerate_types.self_s", "s"),
       ("hn.types_enumerated", "count"),
       ("hn.degrees_from_gaps.calls", "count"), ("hn.degrees_from_gaps.self_s", "s"),
       ("tamagawa.ss_mass.calls", "count"), ("tamagawa.ss_mass.memo_hit_ratio", "ratio"),
       ("tamagawa.ss_mass.self_s", "s"),
       ("tamagawa.cone_sum.calls", "count"), ("tamagawa.cone_sum.self_s", "s"),
       ("tamagawa.cone_cells.visited", "count"), ("tamagawa.cone_cells.integral_ratio", "ratio"),
       ("tamagawa.total_mass.self_s", "s"),
       ("yangmills.ss_equivariant_series.calls", "count"),
       ("yangmills.ss_equivariant_series.memo_hit_ratio", "ratio"),
       ("yangmills.ss_equivariant_series.self_s", "s"),
       ("yangmills.classifying_series.self_s", "s"),
       ("yangmills.moduli_poincare.self_s", "s"),
       ("curve.gf_build.calls", "count"), ("curve.gf_build.self_s", "s"),
       ("curve.count_points.calls", "count"), ("curve.count_points.self_s", "s"),
       ("curve.count_points.elements", "count"),
       ("curve.zeta_from_counts.self_s", "s"),
       ("symprod.sym_count.self_s", "s"), ("symprod.divisor_enumerate.self_s", "s"),
       ("matrixdiv.div_poincare.self_s", "s"), ("matrixdiv.cells", "count"),
       ("kirwan.self_s", "s"),
       ("cli.main.self_s", "s"), ("cli.load_curve.self_s", "s")]
    + [("acceptance.criterion_%d.s" % k, "s") for k in range(1, 10)]
    + [("trace.overhead_ratio", "ratio")])

RATIOS = {
    "tamagawa.ss_mass.memo_hit_ratio": ("tamagawa.ss_mass.hits", "tamagawa.ss_mass.calls"),
    "yangmills.ss_equivariant_series.memo_hit_ratio": (
        "yangmills.ss_equivariant_series.hits", "yangmills.ss_equivariant_series.calls"),
    "tamagawa.cone_cells.integral_ratio": (
        "tamagawa.cone_cells.integral", "tamagawa.cone_cells.visited"),
}


@dataclass
class Proc:
    rc: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # numpy's BLAS pool would spin a second core while one query runs.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def run_process(argv, env):
    """Run argv to completion; wall time, CPU and peak RSS of that process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(proc.returncode, out.decode("utf-8", "replace"), err[0].decode("utf-8", "replace"),
                wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


@dataclass
class Pass:
    wall: float = 0.0
    query_times: dict = field(default_factory=dict)   # query key -> (wall, cpu)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)   # (query key, reason, wrong answer?)
    trace: dict = field(default_factory=dict)

    def judge(self, key, reason, refused=False):
        """Count one attempted query; ``reason`` is None when it succeeded."""
        self.attempted += 1
        if reason is not None:
            self.failures.append((key, reason, not refused))

    def add_trace(self, summary):
        for name, value in summary.items():
            self.trace[name] = self.trace.get(name, 0) + value


def cli_failure(query, rc, out, record):
    """Why a CLI answer fails its expected document or a derivation, or None."""
    want = workloads.expected_answer(query, record)
    if (rc, out) != want:
        return "exit %s, stdout %r; expected exit %s, stdout %r" % (
            rc, out[:120], want[0], want[1][:120])
    return workloads.check_cli(query, rc, out, ROOT)


def cli_pass(queries, expected, env, traced):
    result = Pass()
    start = time.perf_counter()
    for q in queries:
        if traced:
            proc = run_process([sys.executable, CHILD, "cli", "--trace", "--", *q.argv], env)
            try:
                doc = json.loads(proc.stdout)
                rc, out = doc["rc"], doc["stdout"]
                result.add_trace(doc["trace"])
            except (ValueError, KeyError):
                rc, out = (proc.rc or 1), ""
        else:
            proc = run_process([sys.executable, "-m", "modrec", *q.argv], env)
            rc, out = proc.rc, proc.stdout
        result.query_times[q.key] = (proc.wall, proc.cpu)
        result.peak_rss_mb = max(result.peak_rss_mb, proc.rss_mb)
        reason = cli_failure(q, rc, out, expected[q.key])
        result.judge(q.key, reason,
                     refused=rc == 1 and out == "" and "Traceback" not in proc.stderr)
    result.wall = time.perf_counter() - start
    return result


def session_pass(queries, expected, env, traced):
    result = Pass()
    argv = [sys.executable, CHILD, "session"] + (["--trace"] if traced else [])
    proc = run_process(argv + [json.dumps([list(q.argv) for q in queries])], env)
    result.wall, result.peak_rss_mb = proc.wall, proc.rss_mb
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if traced and lines and "trace" in lines[-1]:
        result.add_trace(lines.pop()["trace"])
    reasons, matched = {}, {}
    for q, line in zip(queries, lines):
        result.query_times[q.key] = (line["s"], line["cpu_s"])
        got = json.dumps(line["result"], sort_keys=True)
        want = workloads.expected_answer(q, expected[q.key])[1]
        if line["error"] is not None:
            reasons[q.key] = line["error"]
        elif got != want:
            reasons[q.key] = "result %s; expected %s" % (got[:120], want[:120])
        else:
            matched[q.key] = line["result"]
    if len(lines) == len(queries):
        result.query_times[STARTUP] = (proc.wall - sum(line["s"] for line in lines),
                                       proc.cpu - sum(line["cpu_s"] for line in lines))
    reasons.update(workloads.check_session(queries, matched))
    for i, q in enumerate(queries):
        if i >= len(lines):
            result.judge(q.key, "worker ended early: exit %d %s"
                         % (proc.rc, proc.stderr.strip()[-300:]))
        else:
            reason = reasons.get(q.key)
            result.judge(q.key, reason,
                         refused=reason is not None and reason.startswith("ValidationError"))
    return result


def setup_times(env, count):
    """Wall times of ``count`` fresh interpreters importing modrec.cli."""
    times = []
    for _ in range(count):
        proc = run_process([sys.executable, "-c", "import modrec.cli"], env)
        if proc.rc != 0:
            raise RuntimeError("a fresh interpreter cannot import modrec.cli: "
                               + proc.stderr.strip()[-300:])
        times.append(proc.wall)
    return times


def best_times(passes):
    """{query key: (best wall, best CPU)} over the passes that timed it."""
    best = {}
    for p in passes:
        for key, (wall, cpu) in p.query_times.items():
            old = best.get(key, (wall, cpu))
            best[key] = (min(old[0], wall), min(old[1], cpu))
    return best


def end_to_end_metrics(passes, setup):
    best = best_times(passes)
    values = {
        "wall_s": sum(wall for wall, _ in best.values()),
        "cpu_s": sum(cpu for _, cpu in best.values()),
        "slowest_query_s": max(wall for key, (wall, _) in best.items() if key != STARTUP),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(setup),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def best_wall(passes):
    """One pass's wall time with every query at its best over the passes."""
    return sum(wall for wall, _ in best_times(passes).values())


def per_layer_metrics(untraced, traced):
    """Counts from the first traced pass (they repeat exactly), times as
    medians over the traced passes."""
    first = traced[0].trace
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = best_wall(traced) / best_wall(untraced)
        elif name in RATIOS:
            part, whole = (first.get(k, 0) for k in RATIOS[name])
            value = part / whole if whole else 0.0
        elif unit == "s":
            value = statistics.median(p.trace.get(name, 0.0) for p in traced)
        else:
            value = first.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "modrec", "cli.py")):
        sys.stderr.write("error: no modrec source at %s; run from the root of a "
                         "modrec checkout\n" % os.path.join(ROOT, "src"))
        return 2
    env = child_env()
    queries = workloads.draw(args.workload, args.seed)
    expected = workloads.load_expected(args.workload)
    one_pass = session_pass if args.workload == "session" else cli_pass

    try:
        setup_times(env, 1)   # untimed: writes a fresh checkout's bytecode caches
    except RuntimeError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    # Another round (set-up samples and a pass) starts only while a mean
    # round still fits, so a run never measures much past --seconds.
    setup, untraced, traced = [], [], []
    start = time.perf_counter()
    while True:
        if not args.trace:
            setup += setup_times(env, SETUP_PER_PASS)
        untraced.append(one_pass(queries, expected, env, False))
        if args.trace:
            traced.append(one_pass(queries, expected, env, True))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(untraced)) > args.seconds:
            break
    passes = untraced + traced

    if args.trace:
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(passes, setup)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for key, reason, wrong in sorted(set(failures)):
        sys.stderr.write("%s: %s: %s\n" % ("wrong" if wrong else "failed", key, reason))

    print("workload %s, seed %d: %d passes of %d queries, %s" % (
        args.workload, args.seed, len(passes), len(queries),
        "traced and untraced alternating" if args.trace else "untraced"))
    print("  pass wall times (s): %s; best of each query summed: %.3f"
          % (" ".join("%.3f" % p.wall for p in passes), best_wall(untraced)))
    for name, metric in metrics.items():
        print("  %-48s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if args.workload == "cold" and not args.trace:
        best = best_times(passes)
        for group, keys in workloads.GROUPS.items():
            print("  %-48s %14.6g s" % ("wall_s of the %s queries" % group,
                                        sum(best[key][0] for key in keys)))
    print("  %-48s %7d/%d (failed/attempted)" % ("fail_ratio", len(failures), attempted))
    print(json.dumps({"correct": not any(wrong for _, _, wrong in failures),
                      "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
