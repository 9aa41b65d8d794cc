"""Benchmark worker processes, started by run.py with PYTHONPATH=src.

    python3 bench/child.py cli [--trace] -- <modrec arguments>
    python3 bench/child.py session [--trace] '<JSON list of query word lists>'

``cli --trace`` runs one ``modrec`` query under the tracer and prints one
JSON object: exit code, the query's stdout and the trace summary.  Untraced
CLI queries run ``python3 -m modrec`` directly, so this mode exists only
for tracing.

``session`` runs library queries one after another in this one process,
so the modules' memos are shared, and prints one JSON line per query:
its result or error, its wall time and its CPU time.  With ``--trace`` a
last line holds the trace summary.
"""

from __future__ import annotations

import io
import json
import sys
import time

# Modules, not functions: the tracer rebinds module attributes after import.
from modrec import acceptance, cli, curve, exactalg, tamagawa, yangmills


def _tracer():
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    if tracer.missing:
        sys.stderr.write("trace: not in this modrec: %s\n" % ", ".join(tracer.missing))
    return tracer


def cli_query(argv):
    tracer = _tracer()
    captured, real = io.StringIO(), sys.stdout
    sys.stdout = captured
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout = real
    print(json.dumps({"rc": rc, "stdout": captured.getvalue(), "trace": tracer.summary()}))


class Session:
    """Answers session queries; fields are shared across queries like memos."""

    def __init__(self):
        self.betti = {}
        self.numeric = None

    def answer(self, words):
        op, args = words[0], [int(w) for w in words[1:]]
        if op == "moduli_poincare":
            poly = yangmills.moduli_poincare(*args)
            return [exactalg.fraction_to_str(c) for c in poly.scalar_coeffs("t")]
        if op == "ss_mass_betti":
            n, d, g = args
            if g not in self.betti:
                self.betti[g] = curve.SpecializationField.betti(g)
            return exactalg.ratfun_to_json(tamagawa.ss_mass(n, d, self.betti[g]))
        if op == "stable_count":
            if self.numeric is None:
                self.numeric = curve.SpecializationField.numeric(
                    cli.load_curve("configs/g2q2.json"))
            return str(tamagawa.stable_count(*args, self.numeric))
        if op == "run_all":
            report = io.StringIO()
            ok = acceptance.run_all(report)
            return {"ok": ok, "status": [line.split()[0] for line in report.getvalue().splitlines()]}
        raise ValueError("unknown session query %r" % op)


def session(queries, trace):
    tracer = _tracer() if trace else None
    worker = Session()
    for i, words in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        start, cpu = time.perf_counter(), time.process_time()
        result = error = None
        try:
            result = worker.answer(words)
        except Exception as exc:  # noqa: BLE001 - reported per query, the session goes on
            error = "%s: %s" % (type(exc).__name__, exc)
        print(json.dumps({"result": result, "error": error, "s": time.perf_counter() - start,
                          "cpu_s": time.process_time() - cpu}))
    if tracer is not None:
        print(json.dumps({"trace": tracer.summary()}))


def main(argv):
    mode, rest = argv[0], argv[1:]
    trace = rest[:1] == ["--trace"]
    if trace:
        rest = rest[1:]
    if mode == "cli" and trace and rest[:1] == ["--"]:
        cli_query(rest[1:])
    elif mode == "session" and len(rest) == 1:
        session(json.loads(rest[0]), trace)
    else:
        sys.stderr.write(__doc__)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
