#!/usr/bin/env python3
"""Run every workload over several seeds and summarize each metric.

    python3 perfbench/summarize.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads ...]
        [--seconds 20] [--trace 0] [--json out.json]

Runs ``run.py`` once per (workload, seed), one process at a time, and prints
for every metric the median, the quartiles from ``statistics.quantiles(n=4)``
and their spread (q3 - q1) / median next to the bound from BENCHMARK.json.
Every ``metric`` line the runs print is summarized as well, so this one
command shows all end-to-end metrics by their per-workload names with units,
and the measured values beside those reported at nominal host speed (as
``<name>.measured``); ``--json`` keeps them all under ``printed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    named = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            words = line.split()
            named[words[1]] = (float(words[2]), words[3])
            if words[4:5] == ["(measured"]:
                named[words[1] + ".measured"] = (float(words[5].rstrip(")")), words[3])
    return json.loads(lines[-1]), named


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write the raw results and summary here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    report = {}
    for workload in args.workloads:
        results, named = [], []
        for seed in args.seeds:
            result, lines = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            named.append(lines)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": rel, "bound": bound, "values": values}
            flag = "" if bound is None else f" bound {bound} {'ok' if rel < bound / 3 else 'WIDE'}"
            print(f"  {name:<36} median {median:.6g} {summary[name]['unit']} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {rel:.4f}{flag}")
        printed = {}
        for name in named[0]:
            values = [lines[name][0] for lines in named if name in lines]
            median, q1, q3, rel = spread(values)
            printed[name] = {"unit": named[0][name][1], "median": median, "spread": rel, "values": values}
            print(f"  [{name}] median {median:.6g} {named[0][name][1]} spread {rel:.4f}")
        report[workload] = {"seeds": args.seeds, "seconds": args.seconds, "summary": summary,
                            "printed": printed,
                            "correct": all(r["correct"] for r in results),
                            "attempted": sum(r["attempted"] for r in results),
                            "failed": sum(r["failed"] for r in results)}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
