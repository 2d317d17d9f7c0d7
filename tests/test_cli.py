import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilobstruct.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestDelta2Command:
    def test_tangential_point_zero(self, capsys):
        code, payload = run_json(capsys, "delta2", "5", "-5", "--json")
        assert code == 0
        assert payload["delta2"]["global"] == "zero"
        assert payload["delta2"]["witnesses"] == []
        assert payload["point"] == {"b": "5", "a": "-5"}
        assert "delta3_mod2" not in payload

    def test_witness_reported(self, capsys):
        code, payload = run_json(capsys, "delta2", "18", "5", "--json")
        assert code == 0
        assert payload["delta2"]["global"] == "nonzero"
        places = {w["place"] for w in payload["delta2"]["witnesses"]}
        assert "5" in places
        local = {entry["place"]: entry["invariant"] for entry in payload["delta2"]["local"]}
        assert local["5"] == 1 and local["R"] == 0

    def test_human_readable(self, capsys):
        code, out = run(capsys, "delta2", "-1", "5")
        assert code == 0
        assert "delta2 global (mod 2): zero" in out
        assert "delta2 global (full K2): nonzero" in out


class TestDelta3Command:
    def test_json_schema(self, capsys):
        code, payload = run_json(capsys, "delta3", "-1", "5", "--json")
        assert code == 0
        assert "delta2" not in payload
        entries = {e["place"]: e for e in payload["delta3_mod2"]["local"]}
        assert entries["5"]["status"] == "nonzero"
        assert {"case": "i", "applicable": True, "cup": 1} in entries["5"]["cases"]
        assert entries["R"]["status"] == "zero"

    def test_place_filter(self, capsys):
        code, payload = run_json(capsys, "delta3", "-1", "5", "--place", "5", "--json")
        assert code == 0
        assert [e["place"] for e in payload["delta3_mod2"]["local"]] == ["5"]

    def test_unsupported_place_outside_support(self, capsys):
        code, payload = run_json(capsys, "delta3", "3", "7", "--place", "5", "--json")
        assert code == 0
        entries = {e["place"]: e for e in payload["delta3_mod2"]["local"]}
        assert entries["5"]["status"] == "zero"

    def test_place_two_rejected(self, capsys):
        assert main(["delta3", "3", "7", "--place", "2"]) == 2
        assert "local delta3 is not evaluated at the place 2" in capsys.readouterr().err

    def test_place_that_is_not_a_number_rejected(self, capsys):
        assert main(["delta3", "3", "7", "--place", "x"]) == 2
        err = capsys.readouterr().err
        assert "argument --place: a place is an odd prime or R, not 'x'" in err
        assert "_parse_place" not in err

    def test_real_place_filter(self, capsys):
        code, payload = run_json(capsys, "delta3", "-3", "5", "--place", "R", "--json")
        assert code == 0
        (entry,) = payload["delta3_mod2"]["local"]
        assert entry["place"] == "R" and entry["status"] == "zero"


class TestReportCommand:
    def test_full_schema(self, capsys):
        code, payload = run_json(capsys, "report", "-1", "5", "--json")
        assert code == 0
        assert set(payload) == {"point", "delta2", "delta3_mod2", "notes"}
        assert isinstance(payload["notes"], list)


class TestFamilyCommands:
    def test_specific_lift(self, capsys):
        code, out = run(capsys, "family", "specific-lift", "5")
        assert code == 0
        assert "(1/2, 1/2)" in out

    def test_specific_lift_out_of_family(self, capsys):
        assert main(["family", "specific-lift", "7"]) == 2

    def test_global(self, capsys):
        code, out = run(capsys, "family", "global", "5")
        assert code == 0
        assert "zero" in out

    def test_global_out_of_family(self, capsys):
        assert main(["family", "global", "7"]) == 2


class TestErrors:
    @pytest.mark.parametrize("bad", ("0", "1.5", "x", "1/0"))
    def test_bad_rational(self, capsys, bad):
        assert main(["delta2", bad, "5"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


def test_verify_fast_subset(capsys):
    code, out = run(capsys, "verify", "--suite", "cochain", "--max-group-order", "2")
    assert code == 0
    assert "[pass]" in out and "FAIL" not in out
    assert "checks passed" in out


def test_verify_json_schema(capsys):
    argv = ("verify", "--suite", "cochain", "--max-group-order", "2")
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    _, text = run(capsys, *argv)
    lines = text.splitlines()
    # one object per check, in the order of the text lines, with no summary line
    assert len(records) == len(lines) - 1 == 12
    assert lines[-1] == "12/12 checks passed"
    for record, line in zip(records, lines):
        assert set(record) == {"name", "scope", "cases", "seconds", "passed", "first_failure"}
        assert line == f"[pass] {record['name']} ({record['scope']}): {record['cases']} cases"
        assert record["passed"] is True and record["first_failure"] is None
        assert isinstance(record["cases"], int) and record["cases"] > 0
        assert isinstance(record["seconds"], float) and record["seconds"] > 0


def test_verify_json_reports_the_first_failure(capsys, monkeypatch):
    from nilobstruct import verify

    def failing(*args):
        result = verify.CheckResult("binomial addition law", "Z/4 x Z/4", 16)
        result.failures += ["d1=1 d2=1", "d1=3 d2=3"]
        return result

    monkeypatch.setattr(verify, "check_binomial_addition", failing)
    code, out = run(capsys, "verify", "--suite", "cochain", "--max-group-order", "2", "--json")
    assert code == 1
    first = json.loads(out.splitlines()[0])
    assert first["passed"] is False and first["first_failure"] == "d1=1 d2=1"


@pytest.mark.parametrize("command", ("delta2", "delta3", "report"))
@pytest.mark.parametrize("as_json", (False, True))
@pytest.mark.parametrize("word", ("INCONSISTENT", "DISAGREES"))
def test_failed_self_check_exits_one_with_same_output(capsys, monkeypatch, command, as_json, word):
    import dataclasses

    from nilobstruct import cli
    from nilobstruct.obstruct import report

    rep = report(-1, 5)
    bad = dataclasses.replace(rep, notes=rep.notes + (f"congruence fast path at 5: delta2 {word}",))
    argv = [command, "-1", "5"] + (["--json"] if as_json else [])
    monkeypatch.setattr(cli, "report", lambda *args, **kwargs: rep)
    assert main(argv) == 0
    good_out = capsys.readouterr().out
    monkeypatch.setattr(cli, "report", lambda *args, **kwargs: bad)
    assert main(argv) == 1
    bad_out = capsys.readouterr().out
    if as_json:
        assert json.loads(bad_out)["notes"] == list(bad.notes)
        assert {k: v for k, v in json.loads(bad_out).items() if k != "notes"} == {
            k: v for k, v in json.loads(good_out).items() if k != "notes"
        }
    else:
        assert bad_out == good_out + f"note: {bad.notes[-1]}\n"


def test_report_loads_neither_oracle_engine():
    """report() and the report command need arith, localclass, k2global and
    obstruct only; the cochain and nilpotent engines are loaded by verify."""
    code = (
        "import sys\n"
        "import nilobstruct\n"
        "from nilobstruct import cli\n"
        "nilobstruct.report(-1, 5)\n"
        "assert cli.main(['report', '-1', '5', '--json']) == 0\n"
        "engines = ('nilobstruct.cohomology', 'nilobstruct.nilpotent', 'nilobstruct.verify')\n"
        "print(sorted(m for m in engines if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
