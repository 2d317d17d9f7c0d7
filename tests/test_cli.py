import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilobstruct.cli import main
from nilobstruct.obstruct import delta3_at, delta3_json


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

    def test_text_place_filter(self, capsys):
        _, full = run(capsys, "delta3", "-15", "7")
        code, out = run(capsys, "delta3", "-15", "7", "--place", "3")
        assert code == 0
        # the point, the block at 3 and the notes; not the blocks at 5, 7 and R
        lines = full.splitlines()
        end = lines.index("delta3 mod 2 at 5: blocked_by_delta2")
        assert lines[1] == "delta3 mod 2 at 3: zero"
        assert out.splitlines() == lines[:end] + [line for line in lines if line.startswith("note:")]

    def test_place_outside_support_is_delta3_at(self, capsys):
        code, payload = run_json(capsys, "delta3", "-15", "7", "--place", "11", "--json")
        assert code == 0
        assert payload["delta3_mod2"] == delta3_json([delta3_at(-15, 7, 11)])

    def test_place_two_rejected(self, capsys):
        assert main(["delta3", "3", "7", "--place", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: local delta3 is not evaluated at the place 2\n"

    @pytest.mark.parametrize("place", ("9", "1", "-5"))
    def test_place_that_is_not_an_odd_prime_rejected(self, capsys, place):
        assert main(["delta3", "3", "7", "--place", place]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {place} is not an odd prime\n"

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
    @pytest.mark.parametrize("bad", ("0", "1.5", "x", "1/0", "\u30007"))
    def test_bad_rational(self, capsys, bad):
        assert main(["delta2", bad, "5"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        (
            ["report", "\u0663", "5"],
            ["report", "-\u0663", "5"],
            ["delta3", "3", "7", "--place", "\u0663"],
            ["family", "global", "\u0661\u0663"],
            ["family", "specific-lift", "\u0661\u0663"],
            ["verify", "--suite", "cochain", "--max-group-order", "\u0662"],
            ["verify", "--suite", "cochain", "--max-group-order", "2", "--seed", "\u0661"],
        ),
    )
    def test_non_ascii_digits_rejected(self, capsys, argv):
        # Arabic-Indic digits are in neither -?digits(/digits)? nor -?digits
        assert main(argv) == 2
        assert capsys.readouterr().out == ""


def test_verify_fast_subset(capsys):
    code, out = run(capsys, "verify", "--suite", "cochain", "--max-group-order", "2")
    assert code == 0
    assert "[pass]" in out and "FAIL" not in out
    assert "checks passed" in out


@pytest.mark.parametrize("bound", ("0", "1", "-3"))
def test_verify_group_order_below_every_model_is_an_error(capsys, bound):
    # no cochain model is that small, so the cochain suite would run no model
    assert main(["verify", "--suite", "cochain", "--max-group-order", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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


def test_verify_exhaustive_cochain_suite(capsys, oracle):
    """--exhaustive enumerates every D(cb) cochain on the models of order <= 4
    and leaves every other record as the default pass has it."""
    code, out = run(capsys, "verify", "--exhaustive", "--suite", "cochain", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["passed"] for r in records)
    enumerated = {"Z/2": 16, "Z/4": 256, "Z/2xZ/2": 512, "(Z/8)^*": 512}
    # The cochain suite runs first in the default pass.
    want = [
        (r.name, r.scope, enumerated.get(r.scope, r.cases) if r.name == "D(cb) product rule" else r.cases)
        for r in oracle[: len(records)]
    ]
    assert [(r["name"], r["scope"], r["cases"]) for r in records] == want


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


def _fail_self_check(monkeypatch, word):
    """Make report() fail one self-check for real; return the point it fails on.

    DISAGREES: the congruence fast path at 5 for (-1, 5) reports the wrong
    delta2.  INCONSISTENT: (-1, -1) has real invariant 1/2 and symbol -1 at 2;
    reading that symbol as +1 breaks reciprocity.
    """
    from nilobstruct import obstruct

    if word == "DISAGREES":
        real_congruence = obstruct._congruence
        monkeypatch.setattr(
            obstruct, "_congruence", lambda b, a, p: (not real_congruence(b, a, p)[0], None)
        )
        return "-1", "5"
    real_two = obstruct._symbol_at_2

    def trivial_two(dec_b, dec_a):
        two = real_two(dec_b, dec_a)
        assert two.value == -1
        return two._replace(value=1)

    monkeypatch.setattr(obstruct, "_symbol_at_2", trivial_two)
    return "-1", "-1"


@pytest.mark.parametrize("command", ("delta2", "delta3", "report"))
@pytest.mark.parametrize("as_json", (False, True))
@pytest.mark.parametrize("word", ("INCONSISTENT", "DISAGREES"))
def test_failed_self_check_exits_one_with_same_output(capsys, monkeypatch, fresh_odd_places, command, as_json, word):
    from nilobstruct import cli
    from nilobstruct.arith import parse_rational
    from nilobstruct.obstruct import report

    point = _fail_self_check(monkeypatch, word)
    argv = [command, *point] + (["--json"] if as_json else [])
    assert main(argv) == 1
    bad_out = capsys.readouterr().out
    assert word in bad_out
    # The same report with its verdict flipped prints the same text and exits 0.
    bad = report(*map(parse_rational, point))
    assert not bad.consistent
    monkeypatch.setattr(cli, "report", lambda *args, **kwargs: bad._replace(consistent=True))
    assert main(argv) == 0
    assert capsys.readouterr().out == bad_out


def test_package_exports_resolve_and_star_import_binds_them():
    """Every name in nilobstruct.__all__ resolves, no public non-module name
    of the package is left out, and `from nilobstruct import *` binds
    exactly the names of __all__."""
    import inspect

    import nilobstruct

    exported = nilobstruct.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(nilobstruct, name), name
    public = {
        name for name, value in vars(nilobstruct).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(exported)
    namespace = {}
    exec("from nilobstruct import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(exported)


def test_report_loads_neither_oracle_engine():
    """report() and the delta2, delta3 and report commands need arith,
    localclass, k2global and obstruct only; the cochain and nilpotent engines
    are loaded by verify.  Their records are NamedTuples, so neither
    dataclasses nor inspect is loaded either."""
    code = (
        "import sys\n"
        "import nilobstruct\n"
        "from nilobstruct import cli\n"
        "nilobstruct.report(-1, 5)\n"
        "assert cli.main(['report', '-1', '5', '--json']) == 0\n"
        "assert cli.main(['report', '-1', '5']) == 0\n"
        "assert cli.main(['delta2', '-1', '5']) == 0\n"
        "assert cli.main(['delta3', '-1', '5', '--place', '5']) == 0\n"
        "modules = ('nilobstruct.cohomology', 'nilobstruct.nilpotent', 'nilobstruct.verify',\n"
        "           'dataclasses', 'inspect')\n"
        "print(sorted(m for m in modules if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _run_module(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run(
        [sys.executable, "-m", "nilobstruct", *argv], env=env, capture_output=True, text=True
    )


def test_module_entry_point_exit_codes(capsys):
    """`python -m nilobstruct` in a real process passes main()'s exit code
    on to the interpreter and prints what main() prints in process."""
    proc = _run_module("report", "-1", "5", "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, "report", "-1", "5", "--json")[1]

    proc = _run_module("delta3", "3", "7", "--place", "2")
    assert proc.returncode == 2
    assert "the place 2" in proc.stderr

    assert _run_module("report", "0", "5").returncode == 2


@pytest.mark.parametrize("argv", (("report", "-1", "5"), ("report", "-1", "5", "--json")))
def test_a_closed_stdout_exits_141_with_no_error(argv):
    """A reader that closes the pipe before the output is written (as `| head
    -0` can) gets exit code 141, 128 + SIGPIPE, and nothing on stderr: no
    "internal error" (exit 1 means an inconsistency) and no second error
    from the interpreter's flush at exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nilobstruct", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, text=True
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
