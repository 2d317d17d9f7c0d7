#!/usr/bin/env python3
"""Record the reference files the benchmark checks against.

    python3 perfbench/record.py

Writes ``verdicts.json`` (stable verdict fields of every anchor point of the
report workloads) and ``verify_baseline.json`` (every check of a default
``run_suites()`` pass with its case count).  Run it only at the commit that
defines the benchmark: later commits are checked against what it recorded.
A point is recorded only if the report already passes the place and note
checks, so a recorded verdict never rests on a wrong factorization.
"""

from __future__ import annotations

import json
import sys

import run
from checks import VERDICTS_FILE, VERIFY_BASELINE_FILE, check_report, verdict


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from nilobstruct.obstruct import report, report_json
    from nilobstruct.verify import run_suites

    verdicts = {}
    for workload in run.ANCHORS:
        recorded = verdicts[workload] = {}
        for point in run.anchor_points(workload):
            payload = report_json(report(point.b, point.a))
            problems = check_report(point, payload)
            if problems:
                raise SystemExit(f"anchor {point.key} fails its checks: {problems}")
            recorded[point.key] = verdict(payload)
    VERDICTS_FILE.write_text(json.dumps(verdicts, indent=1, sort_keys=True) + "\n")

    results = run_suites(suite="all", max_order=8, exhaustive=False, seed=0)
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise SystemExit(f"verify checks fail: {failed}")
    baseline = [[r.name, r.scope, r.cases] for r in results]
    VERIFY_BASELINE_FILE.write_text("[\n" + ",\n".join(map(json.dumps, baseline)) + "\n]\n")
    print(f"recorded {sum(map(len, verdicts.values()))} verdicts and {len(baseline)} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
