"""The experiment scripts the README documents run and finish cleanly."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=env, capture_output=True, text=True
    )


def test_congruence_scan_finds_no_disagreement():
    proc = run_script("congruence_scan.py", "--count", "200")
    assert proc.returncode == 0, proc.stderr
    assert "disagreements: 0" in proc.stdout


def test_congruence_scan_exits_1_on_a_disagreement(monkeypatch, capsys):
    path = ROOT / "scripts" / "congruence_scan.py"
    spec = importlib.util.spec_from_file_location("congruence_scan", path)
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    congruence = scan.delta3_congruence

    def flipped(b, a, p):
        d2_zero, d3_zero = congruence(b, a, p)
        return d2_zero, None if d3_zero is None else not d3_zero

    monkeypatch.setattr(scan, "delta3_congruence", flipped)
    monkeypatch.setattr(sys, "argv", ["congruence_scan.py", "--count", "200"])
    assert scan.main() == 1
    assert "disagreements: 0" not in capsys.readouterr().out


def test_congruence_scan_rejects_a_bound_below_the_largest_prime():
    proc = run_script("congruence_scan.py", "--bound", "50", "--count", "10")
    assert proc.returncode == 2
    assert "--bound" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("count", ("0", "-5"))
def test_congruence_scan_rejects_a_count_with_nothing_to_scan(count):
    proc = run_script("congruence_scan.py", "--count", count)
    assert proc.returncode == 2
    assert "--count" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_specific_lift_scan_rejects_a_max_p_below_the_least_prime():
    proc = run_script("specific_lift_scan.py", "--max-p", "-5")
    assert proc.returncode == 2
    assert "--max-p" in proc.stderr
    assert "Traceback" not in proc.stderr


# An Arabic-Indic 13, and an Arabic-Indic 3 between spaces: int() reads
# both, but the CLI's parse_int takes only ASCII -?[0-9]+.
@pytest.mark.parametrize(
    "script,option,value",
    (("specific_lift_scan.py", "--max-p", "\u0661\u0663"), ("congruence_scan.py", "--count", " \u0663 ")),
)
def test_scripts_take_only_ascii_integers(script, option, value):
    proc = run_script(script, option, value)
    assert proc.returncode == 2
    assert f"argument {option}: not an integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_curve_point_scan_finds_no_obstruction():
    proc = run_script("curve_point_scan.py", "--bound", "300")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("599 curve points (z, 1 - z), integers with |z| <= 300: 0 obstructed\n")


def test_curve_point_scan_exits_1_on_an_obstruction(monkeypatch, capsys):
    """Reading the point (z, z - 1), no curve point, obstructs some z."""
    path = ROOT / "scripts" / "curve_point_scan.py"
    spec = importlib.util.spec_from_file_location("curve_point_scan", path)
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    report = scan.report
    monkeypatch.setattr(scan, "report", lambda b, a: report(b, b - 1))
    monkeypatch.setattr(sys, "argv", ["curve_point_scan.py", "--bound", "30"])
    assert scan.main() == 1
    assert "z = " in capsys.readouterr().out


def test_curve_point_scan_rejects_a_bound_with_no_point():
    proc = run_script("curve_point_scan.py", "--bound", "0")
    assert proc.returncode == 2
    assert "--bound" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_specific_lift_scan_runs():
    """The family scan to 5000, the lift value at every prime p = 1 mod 4
    and the global verdict at p = 5 mod 8, as tests/specific_lift_scan.txt
    records it."""
    proc = run_script("specific_lift_scan.py", "--max-p", "5000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "specific_lift_scan.txt").read_text()


def _load_script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_edits_one_place_and_names_existing_tests():
    """Every old string of the mutant gate occurs exactly once in its file,
    so each mutant still edits the code it was written for; labels are
    unique and every listed test file exists.  An old string that occurs
    twice, or not at all, is reported."""
    gate = _load_script("mutants")
    assert gate.check_olds() == []
    labels = [m.label for m in gate.MUTANTS]
    assert len(labels) == len(set(labels)) >= 37
    assert all((ROOT / test).is_file() for m in gate.MUTANTS for test in m.tests)
    first = gate.MUTANTS[0]
    broken = [first._replace(old="no such line, anywhere"), first._replace(old="\n")]
    problems = gate.check_olds(broken)
    assert problems[0] == f"{first.label}: old string occurs 0 times in {first.file}"
    assert problems[1].startswith(f"{first.label}: old string occurs ") and len(problems) == 2
