"""report()'s JSON and CLI text stay byte-identical on a fixed corpus.

tests/report_corpus.txt holds the output of scripts/report_corpus.py: one
short hash per point.  A change to the report path that is meant to keep the
output leaves the file as it is; one that changes output on purpose records
it again in the same commit.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    path = ROOT / "scripts" / "report_corpus.py"
    spec = importlib.util.spec_from_file_location("report_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_output_matches_the_recorded_corpus():
    got = _load_script().corpus_lines()
    want = (ROOT / "tests" / "report_corpus.txt").read_text().splitlines()
    first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first is None, f"line {first + 1}: recorded {want[first]!r}, now {got[first]!r}"
    assert len(got) == len(want) == 8654


def test_corpus_covers_its_three_kinds():
    script = _load_script()
    points = script.corpus()
    assert len(points) == 6400 + 2000 + len(script.BIG_POINTS)
    assert len(set(points)) == len(points)
    denominators = [x.denominator for point in points[6400:8400] for x in point]
    assert any(d % 3**7 == 0 for d in denominators) and any(d % 5**5 == 0 for d in denominators)
    for point in points[8400:]:
        assert any(x.numerator * x.denominator % p == 0 for x in point for p in script.BIG_PRIMES)
