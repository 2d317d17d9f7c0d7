#!/usr/bin/env python3
"""Benchmark for nilobstruct: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload report_small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.

Workloads (see README.md for why each exists):
  report_small      report() on distinct points with |x| <= 1e6, rationals, tiny
  report_bigfactor  report() on points where one coordinate has a prime > 1e6
  verify            one run_suites() pass per operation, with the CLI defaults

Each operation starts only after the previous one returned; no threads.
Only the call into the program is timed; its output is checked afterwards.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that wraps each layer's public functions and reports per-layer counts
and self times per operation, plus the tracing overhead.  Human-readable
lines come first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CONFIG = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
from checks import check_report, check_verify, load_verdicts, load_verify_baseline  # noqa: E402
from hostspeed import HostSpeed, speeds  # noqa: E402

WORKLOADS = ("report_small", "report_bigfactor", "verify")
LAYERS = ("arith", "localclass", "k2global", "obstruct", "cohomology", "nilpotent", "verify", "cli")

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 15
# Host-speed samples taken between two setup processes.
SETUP_SAMPLES = 10
# Percentile reported as op_ms_tail, fixed per workload so that runs of
# different lengths stay comparable.  p90 keeps well over ten samples beyond
# it in every run; p99 (printed too) moved by 20-40% between runs of
# report_small, too much for any bound.  A verify run has only a few passes,
# so its tail is the slowest pass.
TAIL_PERCENTILE = {"report_small": 90, "report_bigfactor": 90, "verify": 100}
# verify's op_ms_p50 and op_ms_tail come from exactly its first VERIFY_PASSES
# passes, so that a faster program, which fits more passes into a run, is
# compared on the same number of samples; every run makes at least that many.
VERIFY_PASSES = 3
# peak_rss_mb is read once this many operations have run, so that it
# measures a fixed amount of work, not one that grows with the program's
# speed; every run makes at least that many.
RSS_AFTER_OPS = {"report_small": 1000, "report_bigfactor": 60, "verify": 1}
# One recorded anchor point in every ANCHOR_EVERY points of a report corpus.
ANCHOR_EVERY = 10
ANCHORS = {"report_small": 400, "report_bigfactor": 30}
# Bare and import-only interpreters timed for cli.python_floor_ms/import_ms.
IMPORT_REPEATS = 7

# The untimed warm-up call of each workload, run in every setup_s process and
# once in the benchmark process before timing starts.
WARM_UP = {
    "report_small": "import nilobstruct\nnilobstruct.report(-1, 5)",
    "report_bigfactor": "import nilobstruct\nnilobstruct.report(-1, 5)",
    "verify": "from nilobstruct.verify import run_suites\nrun_suites(suite='cochain', max_order=2)",
}

# How each workload names the workload-independent metrics of BENCHMARK.json:
# (printed name, JSON name, scale, unit).
PRINTED_NAMES = {
    "report_small": (("points_per_s", "ops_per_s", 1, "1/s"), ("point_ms_p50", "op_ms_p50", 1, "ms"),
                     ("point_ms_tail", "op_ms_tail", 1, "ms")),
    "verify": (("verify_s", "op_ms_p50", 1e-3, "s"), ("verify_s_tail", "op_ms_tail", 1e-3, "s")),
}
PRINTED_NAMES["report_bigfactor"] = PRINTED_NAMES["report_small"]

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
clock = time.perf_counter


# ---------------------------------------------------------------------------
# Operations.  Each op maps an input item to (seconds in the program, problems).
# ---------------------------------------------------------------------------


# ``now`` is the clock an op is timed with: HostSpeed.now() during a run with
# host-speed samples, so that their time is not counted.


def report_op(verdicts: dict, now=clock):
    from nilobstruct import obstruct
    from nilobstruct.obstruct import report_json  # bound before tracing: not counted

    def op(point):
        start = now()
        try:
            rep = obstruct.report(point.b, point.a)
        except Exception as exc:  # a raising call is a failed operation
            return now() - start, [f"raised {exc!r}"]
        elapsed = now() - start
        return elapsed, check_report(point, report_json(rep), verdicts.get(point.key))

    return op


def verify_op(baseline: list, now=clock):
    from nilobstruct import verify

    def op(_item):
        start = now()
        try:
            results = verify.run_suites(suite="all", max_order=8, exhaustive=False, seed=0)
        except Exception as exc:  # a raising call is a failed operation
            return now() - start, [f"raised {exc!r}"]
        elapsed = now() - start
        return elapsed, check_verify(results, baseline)

    return op


def anchor_points(workload: str) -> list:
    return list(itertools.islice(corpus.stream(workload, "anchor"), ANCHORS[workload]))


def report_items(workload: str, seed: int):
    return corpus.with_anchors(workload, seed, anchor_points(workload), ANCHOR_EVERY)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def closed_loop(items, op, seconds: float, min_ops: int = 1, rss_after: int = 0):
    """Run ops one after another until ``seconds`` of wall time have passed
    and at least ``min_ops`` ops ran.

    Keeps no per-op object, so the benchmark's own memory does not grow with
    the number of ops.  Returns each op's start time and latency, the failed
    items with their problems, and the peak RSS in MiB read after ``rss_after``
    ops (or at the end, if fewer ran).
    """
    starts, latencies, failures = array("d"), array("d"), []
    rss_mb = None
    deadline = clock() + seconds
    while len(latencies) < min_ops or clock() < deadline:
        item = next(items)
        starts.append(clock())
        elapsed, problems = op(item)
        latencies.append(elapsed)
        if problems:
            failures.append((item, problems))
        if len(latencies) == rss_after:
            rss_mb = peak_rss_mb()
    return starts, latencies, failures, rss_mb if rss_mb is not None else peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """(nearest-rank value at ``percentile``, number of samples beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def spawn_ready(code: str) -> float:
    """Seconds from spawning ``python -c code`` until it prints 'ready'."""
    start = clock()
    proc = subprocess.Popen(
        [sys.executable, "-c", code + "\nprint('ready', flush=True)"],
        cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = clock() - start
        proc.stdout.read()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup process failed: {code!r}")
    return elapsed


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Measured durations of SETUP_REPEATS setup processes, and the same at
    nominal host speed by the samples taken just before and after each."""
    measured, nominal = [], []
    before = speeds(SETUP_SAMPLES)
    for _ in range(SETUP_REPEATS):
        elapsed = spawn_ready(WARM_UP[workload])
        after = speeds(SETUP_SAMPLES)
        measured.append(elapsed)
        nominal.append(elapsed * statistics.fmean(before + after))
        before = after
    return measured, nominal


def import_ms() -> dict[str, float]:
    """Median cold ``import nilobstruct.cli`` above a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(spawn_ready("pass"))
        full.append(spawn_ready("import nilobstruct.cli"))
    floor = statistics.median(bare) * 1000
    return {"cli.python_floor_ms": floor, "cli.import_ms": statistics.median(full) * 1000 - floor}


def input_properties(points, recorded: dict) -> dict[str, float]:
    """Properties of the points a run used, and how many were anchors."""
    kinds, primes = collections.Counter(), set()
    n = big = blocked = anchors = 0
    for p in points:
        n += 1
        kinds[p.kind] += 1
        big += p.has_big_prime
        blocked += p.real_blocked
        anchors += p.key in recorded
        primes.update(p.odd_primes)
    props = {f"share.{kind}": kinds[kind] / n for kind in sorted(kinds)}
    props["share.prime_factor_gt_1e6"] = big / n
    props["share.real_place_blocked"] = blocked / n
    props["distinct_odd_primes"] = len(primes)
    props["anchors_checked"] = anchors
    return props


def pseudoprime_probe(op, seed: int) -> list:
    """Run the pseudoprime points through the same op and checks.

    These points hit a known defect (``arith.is_prime`` accepts strong
    pseudoprimes to the bases 2..37), so they run outside the timed corpus
    and outside ``attempted``; every run prints their outcome.
    """
    rows = []
    for point in corpus.pseudoprime_points(seed):
        _, problems = op(point)
        rows.append((point, problems))
    return rows


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def workload_items(workload: str, seed: int):
    """The workload's endless input stream; the same seed gives the same items."""
    if workload.startswith("report_"):
        return report_items(workload, seed)
    # run_suites with the CLI defaults takes no input; the seed is unused.
    return itertools.repeat(None)


def workload_op(workload: str, now=clock):
    if workload.startswith("report_"):
        return report_op(load_verdicts()[workload], now)
    return verify_op(load_verify_baseline(), now)


def run_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    items = workload_items(workload, seed)
    min_ops = max(RSS_AFTER_OPS[workload], VERIFY_PASSES if workload == "verify" else 1)
    setups, setups_nominal = setup_seconds(workload)
    with HostSpeed() as speed:
        op = workload_op(workload, speed.now)
        exec(WARM_UP[workload], {})
        starts, measured_latencies, failures, rss_mb = closed_loop(
            items, op, seconds, min_ops, RSS_AFTER_OPS[workload])
    n = len(measured_latencies)
    lines = [f"failure {item!r}: {problems[0]}" for item, problems in failures[:5]]

    if workload.startswith("report_"):
        # The corpus is regenerated from the seed rather than kept during the run.
        done = itertools.islice(workload_items(workload, seed), n)
        lines += [f"input {k} {v}" for k, v in input_properties(done, load_verdicts()[workload]).items()]
    if workload == "report_bigfactor":
        for point, problems in pseudoprime_probe(op, seed):
            outcome = "FAILS: " + problems[0] if problems else "passes"
            lines.append(f"probe pseudoprime point ({point.b}, {point.a}) {outcome}")

    latencies = [speed.at_nominal(t, dt) for t, dt in zip(starts, measured_latencies)]
    sampled = latencies[:VERIFY_PASSES] if workload == "verify" else latencies
    tail_pct = TAIL_PERCENTILE[workload]
    tail_value, beyond = tail(sampled, tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups_nominal), "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_ms_p50": (statistics.median(sampled) * 1000, "ms"),
        "op_ms_tail": (tail_value * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    measured_sampled = measured_latencies[:VERIFY_PASSES] if workload == "verify" else measured_latencies
    measured = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(measured_latencies),
        "op_ms_p50": statistics.median(measured_sampled) * 1000,
        "op_ms_tail": tail(measured_sampled, tail_pct)[0] * 1000,
    }
    lines.append(f"host speed: {speed.mean_speed():.4f} of nominal on average ({len(speed.speeds)} samples)")
    for name, (value, unit) in metrics.items():
        raw = f" (measured {measured[name]:.6f})" if name in measured else ""
        lines.append(f"metric {name} {value:.6f} {unit}{raw}")
    p99, p99_beyond = tail(latencies, 99)
    lines.append(f"metric op_ms_p99 {p99 * 1000:.6f} ms ({p99_beyond} beyond)")
    for shown, name, scale, unit in PRINTED_NAMES[workload]:
        extra = f" (p{tail_pct}, {beyond} beyond, n={len(sampled)})" if name == "op_ms_tail" else ""
        lines.append(f"metric {shown} {metrics[name][0] * scale:.6f} {unit}{extra}")
    lines.append(f"metric fail_ratio {len(failures) / n:.6f} ratio ({len(failures)}/{n} failed)")
    lines.append(f"setup_s measured {' '.join(f'{s:.4f}' for s in setups)}")
    if n <= 10:
        lines.append(f"op_ms measured {' '.join(f'{s * 1000:.1f}' for s in measured_latencies)}")
    return metrics, n, len(failures), lines


def run_traced(workload: str, seed: int, seconds: float, layer_names: list) -> tuple[dict, int, int, list[str]]:
    from nilobstruct import arith, cli, cohomology, k2global, localclass, nilpotent, obstruct, verify
    from tracer import Tracer

    modules = (arith, localclass, k2global, obstruct, cohomology, nilpotent, verify, cli)
    op = workload_op(workload)
    exec(WARM_UP[workload], {})
    # Untraced reference first, then exactly the same inputs traced.
    _, plain, failures, _ = closed_loop(workload_items(workload, seed), op, seconds / 3)
    n = len(plain)
    tracer = Tracer()
    tracer.install(modules, "nilobstruct")
    traced = []
    try:
        for i, item in enumerate(itertools.islice(workload_items(workload, seed), n)):
            span_id = item.key if workload.startswith("report_") else f"pass-{i}"
            with tracer.span(workload, span_id):
                elapsed, problems = op(item)
            traced.append(elapsed)
            if problems:
                failures.append((item, problems))
    finally:
        tracer.uninstall()
    cli_ms = import_ms()
    overhead = sum(traced) / sum(plain)
    coverage = tracer.self_time_total() / sum(plain)
    metrics, lines = {}, []
    for name, unit in layer_names:
        if name in cli_ms:
            metrics[name] = (cli_ms[name], unit)
            continue
        key, kind = name.rsplit(".", 1)
        if key not in tracer.stats:
            lines.append(f"warning: {key} is not a public function of its layer; reported as 0")
        calls, self_s, inclusive = tracer.stats.get(key, (0, 0.0, 0.0))
        metrics[name] = ({"calls": calls, "self_s": self_s, "s": inclusive}[kind] / n, unit)
    lines.append(f"trace ops {n} untraced_s {sum(plain):.6f} traced_s {sum(traced):.6f} overhead x{overhead:.3f}")
    lines.append(f"trace self-time sum = {coverage:.3f} x untraced wall (tracing overhead x{overhead:.3f})")
    by_layer = tracer.by_layer()
    total = tracer.self_time_total()
    lines += [f"trace layer {layer} self_share {by_layer.get(layer, (0, 0.0))[1] / total:.4f}" for layer in LAYERS]
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(path, workload=workload, seed=seed, ops=n, untraced_s=sum(plain),
                traced_s=sum(traced), overhead=overhead, coverage=coverage, cli_ms=cli_ms)
    lines.append(f"trace spans written to {path.relative_to(ROOT)}")
    return metrics, 2 * n, len(failures), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nilobstruct" / "__init__.py").is_file():
        print(f"error: no package at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = json.loads(CONFIG.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in config[kind]]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        metrics, attempted, failed, lines = run_traced(args.workload, args.seed, args.seconds, wanted)
    else:
        metrics, attempted, failed, lines = run_end_to_end(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    missing = [name for name, _ in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
