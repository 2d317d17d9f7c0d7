"""Output checks.  Each returns a list of problems; an empty list passes.

The report checks read only the stable JSON form of a report
(``report_json``), so they survive refactors that keep the JSON schema.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
VERDICTS_FILE = HERE / "verdicts.json"
VERIFY_BASELINE_FILE = HERE / "verify_baseline.json"

BAD_NOTE_WORDS = ("INCONSISTENT", "DISAGREES")


def verdict(payload: dict) -> str:
    """Stable verdict fields of a report: delta2 global, delta2 local
    invariants and delta3 status, per place."""
    d2 = payload["delta2"]
    local = ",".join(f"{e['place']}:{e['invariant']}" for e in d2["local"])
    d3 = ",".join(f"{e['place']}:{e['status']}" for e in payload["delta3_mod2"]["local"])
    return f"{d2['global']}|{local}|{d3}"


def check_report(point, payload: dict, recorded: str | None = None) -> list[str]:
    """Places must be exactly the generator's odd primes then R; no note may
    flag an inconsistency; an anchor point must match its recorded verdict."""
    problems = []
    want = [str(p) for p in point.odd_primes] + ["R"]
    for field in ("delta2", "delta3_mod2"):
        got = [e["place"] for e in payload[field]["local"]]
        if got != want:
            problems.append(f"{field} places {got} != generated {want}")
    for note in payload["notes"]:
        if any(word in note for word in BAD_NOTE_WORDS):
            problems.append(f"note: {note}")
    if recorded is not None and verdict(payload) != recorded:
        problems.append(f"verdict {verdict(payload)!r} != recorded {recorded!r}")
    return problems


def load_verdicts() -> dict:
    return json.loads(VERDICTS_FILE.read_text())


def check_verify(results, baseline: list) -> list[str]:
    """Every check passes; no recorded check disappears or covers fewer cases."""
    problems = [f"FAIL {r.name} ({r.scope})" for r in results if not r.passed]
    cases = {(r.name, r.scope): r.cases for r in results}
    for name, scope, want in baseline:
        got = cases.get((name, scope))
        if got is None:
            problems.append(f"missing check {name} ({scope})")
        elif got < want:
            problems.append(f"{name} ({scope}) covers {got} < {want} cases")
    return problems


def load_verify_baseline() -> list:
    return json.loads(VERIFY_BASELINE_FILE.read_text())
