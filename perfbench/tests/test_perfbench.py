"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import itertools
import json
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seconds: float = 1, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_prints_every_metric_with_unit(workload):
    proc = bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for shown, _, _, unit in run.PRINTED_NAMES[workload]:
        assert printed[shown] == unit
    assert printed["fail_ratio"] == "ratio"
    if workload == "verify":
        assert result["attempted"] >= run.VERIFY_PASSES
        assert f"n={run.VERIFY_PASSES})" in next(line for line in lines if line.startswith("metric verify_s_tail"))


def test_peak_rss_does_not_grow_with_run_length():
    rss = []
    for seconds in (1, 6):
        proc = bench("report_small", trace=0, seconds=seconds)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rss.append(result["metrics"]["peak_rss_mb"]["value"])
    assert result["attempted"] > run.RSS_AFTER_OPS["report_small"]
    assert abs(rss[1] - rss[0]) <= 0.01 * rss[0], rss


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc = bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert "warning" not in proc.stdout
    assert "overhead" in proc.stdout
    layer_calls = {
        "report_small": "arith.is_prime.calls",
        "report_bigfactor": "arith.factor_int.calls",
        "verify": "nilpotent.nf_mul.calls",
    }[workload]
    assert result["metrics"][layer_calls]["value"] > 0


def test_directory_without_the_program_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("report_small", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _anchor_and_verdicts():
    verdicts = checks.load_verdicts()["report_small"]
    point = run.anchor_points("report_small")[0]
    return point, verdicts


def test_planted_wrong_verdict_is_a_failure():
    point, verdicts = _anchor_and_verdicts()
    planted = dict(verdicts)
    global_part, rest = planted[point.key].split("|", 1)
    planted[point.key] = ("nonzero" if global_part == "zero" else "zero") + "|" + rest
    _, _, failures, _ = run.closed_loop(iter([point]), run.report_op(planted), 0)
    assert len(failures) == 1 and "recorded" in failures[0][1][0]
    _, _, failures, _ = run.closed_loop(iter([point]), run.report_op(verdicts), 0)
    assert failures == []


def test_planted_wrong_place_list_is_a_failure():
    point, verdicts = _anchor_and_verdicts()
    wrong = corpus.Point(point.kind, point.b, point.a, point.odd_primes + (1000003,))
    _, _, failures, _ = run.closed_loop(iter([wrong]), run.report_op(verdicts), 0)
    assert len(failures) == 1 and "places" in failures[0][1][0]


def test_pseudoprime_probe_fails_exactly_where_is_prime_is_fooled():
    from nilobstruct.arith import is_prime

    rows = run.pseudoprime_probe(run.report_op({}), seed=7)
    assert len(rows) == len(corpus.PSEUDOPRIMES)
    for point, problems in rows:
        fooled = is_prime(abs(point.b.numerator))
        assert bool(problems) == fooled, (point, problems)


def test_bad_notes_and_verify_regressions_are_failures():
    point, _ = _anchor_and_verdicts()
    payload = {"delta2": {"local": [{"place": str(p), "invariant": 0} for p in point.odd_primes] + [{"place": "R", "invariant": 0}]},
               "delta3_mod2": {"local": [{"place": str(p), "status": "zero"} for p in point.odd_primes] + [{"place": "R", "status": "zero"}]},
               "notes": ["reciprocity: ... (INCONSISTENT)"]}
    assert checks.check_report(point, payload) == ["note: reciprocity: ... (INCONSISTENT)"]

    class Result:
        def __init__(self, name, scope, cases, passed=True):
            self.name, self.scope, self.cases, self.passed = name, scope, cases, passed

    baseline = [["a", "G", 10], ["b", "G", 5]]
    assert checks.check_verify([Result("a", "G", 10), Result("b", "G", 5)], baseline) == []
    assert len(checks.check_verify([Result("a", "G", 10)], baseline)) == 1
    assert len(checks.check_verify([Result("a", "G", 9), Result("b", "G", 5)], baseline)) == 1
    assert len(checks.check_verify([Result("a", "G", 10), Result("b", "G", 5, False)], baseline)) == 1


def test_corpus_is_seeded_distinct_and_certified():
    for workload in ("report_small", "report_bigfactor"):
        first = list(itertools.islice(corpus.stream(workload, 3), 60))
        again = list(itertools.islice(corpus.stream(workload, 3), 60))
        other = list(itertools.islice(corpus.stream(workload, 4), 60))
        assert first == again and first != other
        assert len({p.key for p in first}) == len(first)
    big = list(itertools.islice(corpus.stream("report_bigfactor", 3), 30))
    assert all(p.has_big_prime for p in big)
    assert all(corpus.ref_is_prime(q) for p in big for q in p.odd_primes)
    for psi, (p, q) in corpus.PSEUDOPRIMES.items():
        assert p * q == psi and corpus.ref_is_prime(p) and corpus.ref_is_prime(q)
    assert not corpus.ref_is_prime(561) and corpus.ref_is_prime(2**61 - 1)
    with pytest.raises(ValueError):
        corpus.ref_is_prime(2**64 + 1)
    anchors = run.anchor_points("report_small")
    mixed = list(itertools.islice(corpus.with_anchors("report_small", 3, anchors, 10), 100))
    assert mixed[::10] == anchors[:10]
    assert len({p.key for p in mixed}) == 100


def test_recorded_verdicts_match_the_anchor_generator():
    recorded = checks.load_verdicts()
    for workload in run.ANCHORS:
        assert set(recorded[workload]) == {p.key for p in run.anchor_points(workload)}


def test_tracer_sees_from_imports_and_restores():
    from nilobstruct import arith, k2global, obstruct

    original = k2global.factor
    tracer = Tracer()
    tracer.install([arith, obstruct], "nilobstruct")
    try:
        assert k2global.factor is not original
        obstruct.report(Fraction(-1), Fraction(5))
    finally:
        tracer.uninstall()
    assert k2global.factor is original
    assert tracer.stats["arith.factor"][0] == 4
    assert tracer.stats["obstruct.report"][0] == 1
    assert tracer.self_time_total() <= tracer.stats["obstruct.report"][2] * 1.000001


def test_host_speed_scales_by_the_mean_speed_around_an_interval():
    speed = HostSpeed()
    speed.times = [0.0, 0.5, 1.0, 5.0, 6.0, 7.0]
    speed.speeds = [0.5, 0.5, 0.5, 1.0, 0.6, 0.8]
    # Long enough: the samples inside it.  Short: those within WINDOW_S around its middle.
    assert speed.at_nominal(5.0, 2.0) == pytest.approx(2.0 * 0.8)
    assert speed.at_nominal(0.4, 0.2) == pytest.approx(0.2 * 0.5)

    with HostSpeed() as live:
        start, wall = live.now(), run.clock()
        while run.clock() - wall < 0.3:
            pass
        elapsed, wall = live.now() - start, run.clock() - wall
    assert len(live.speeds) >= 5 and live.spent > 0
    assert elapsed == pytest.approx(wall - live.spent, abs=1e-3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
