"""Record the expected documents from the modrec in src/.

    python3 bench/record.py [workload ...]

Run from the root of a checkout.  Every base query (no degree shift) runs
once; its exit code and stdout are written to bench/expected/<workload>.json.
Where an independent derivation fixes the answer (``derived_document``),
the derivation is stored instead and the program's own output is kept
beside it for the record.  Recording stops if any other answer fails a
derivation check: then the program, not the expectation, is in question.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def record(workload, env):
    queries = [workloads.Query(key, tuple(key.split())) for key in workloads.QUERIES[workload]]
    records, problems = {}, []
    if workload == "session":
        proc = run.run_process([sys.executable, run.CHILD, "session",
                                json.dumps([list(q.argv) for q in queries])], env)
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        answers = {}
        for q, line in zip(queries, lines):
            if line["error"] is not None:
                problems.append("%s: %s" % (q.key, line["error"]))
                continue
            answers[q.key] = line["result"]
            records[q.key] = {"rc": 0, "stdout": json.dumps(line["result"], sort_keys=True),
                              "source": "program"}
        problems += ["%s: %s" % item for item in workloads.check_session(queries, answers).items()]
        return records, problems
    for q in queries:
        proc = run.run_process([sys.executable, "-m", "modrec", *q.argv], env)
        derived = workloads.derived_document(q.key)
        if derived is not None:
            records[q.key] = {"rc": 0, "stdout": derived, "source": "derivation",
                              "program": {"rc": proc.rc, "stdout": proc.stdout,
                                          "stderr": proc.stderr}}
            continue
        records[q.key] = {"rc": proc.rc, "stdout": proc.stdout, "source": "program"}
        reason = workloads.check_cli(q, proc.rc, proc.stdout, run.ROOT)
        if reason is not None:
            problems.append("%s: %s" % (q.key, reason))
    return records, problems


def main(argv):
    env = run.child_env()
    failed = False
    for workload in argv or workloads.WORKLOADS:
        records, problems = record(workload, env)
        for problem in problems:
            sys.stderr.write("%s: %s\n" % (workload, problem))
        if problems:
            failed = True
            continue
        path = os.path.join(workloads.EXPECTED_DIR, workload + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("recorded %d queries in %s" % (len(records), path))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
