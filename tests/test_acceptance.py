"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact (bit-for-bit agreement); the only numeric
budgets are the stated wall-clock ceilings, which are asserted too.
Criteria 6-9 read their oracle checks, and the seconds each took, from the
session's one ``run_suites`` pass (the ``oracle`` fixture in conftest.py).
"""

import json
import random
import time
from fractions import Fraction

from conftest import ODD_PRIMES_TO_97, lookup
from nilobstruct import nilpotent as nil
from nilobstruct import verify
from nilobstruct.arith import Point, is_fourth_power_mod, is_prime, legendre
from nilobstruct.cli import main
from nilobstruct.cohomology import standard_models
from nilobstruct.k2global import symbol_at_2
from nilobstruct.localclass import REAL, delta2_local
from nilobstruct.obstruct import (
    BLOCKED,
    ZERO,
    delta3_at,
    delta3_congruence,
    delta3_global_family,
    delta3_specific_lift_family,
)


def _line(n, ok, desc):
    print(f"acceptance criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def _cli_json(argv):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"CLI failed: {argv}"
    return json.loads(buf.getvalue())


def test_criterion_1_delta2_global():
    start = time.monotonic()
    ok = True
    for p in (3, 5, 7, 11, 13, 17, 19):
        payload = _cli_json(["delta2", str(p), str(-p), "--json"])
        ok = ok and payload["delta2"]["global"] == "zero"
    payload = _cli_json(["delta2", "-1", "5", "--json"])
    ok = ok and payload["delta2"]["global"] == "zero"
    payload = _cli_json(["delta2", "18", "5", "--json"])
    ok = ok and payload["delta2"]["global"] == "nonzero"
    ok = ok and any(w["place"] == "5" for w in payload["delta2"]["witnesses"])
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _line(1, ok, f"delta2 CLI verdicts for (p,-p), (-1,5), (18,5) in {elapsed:.2f}s")


def test_criterion_2_separation_at_five():
    d2 = delta2_local(-1, 5, 5)
    result = delta3_at(-1, 5, 5)
    case_i = next(t for t in result.cases if t.case == "i")
    ok = (
        d2 == 0
        and result.status == "nonzero"
        and case_i.applicable
        and case_i.cup == 1
        and all(not t.applicable for t in result.cases if t.case != "i")
    )
    _line(2, ok, "delta2 mod 2 vanishes at 5 while delta3 mod 2 obstructs via case (i)")


def test_criterion_3_congruence_equivalence():
    start = time.monotonic()
    rng = random.Random(1001)
    checked = 0
    ok = True
    while checked < 1000:
        p = rng.choice(ODD_PRIMES_TO_97)
        u = rng.randint(1, 10**6 // p)
        r = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        if r % p == 0:
            continue
        divisible = rng.choice((-1, 1)) * p * u
        if divisible % (p * p) == 0 or abs(divisible) > 10**6:
            continue
        b, a = (divisible, r) if rng.random() < 0.5 else (r, divisible)
        d2_zero, d3_zero = delta3_congruence(b, a, p)
        ok = ok and d2_zero == (legendre(a + b, p) == 1)
        ok = ok and d2_zero == (delta2_local(b, a, p) == 0)
        result = delta3_at(b, a, p)
        if not d2_zero:
            ok = ok and result.status == BLOCKED
        else:
            ok = ok and d3_zero == is_fourth_power_mod(a + b, p)
            ok = ok and (result.status == ZERO) == d3_zero
        checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _line(3, ok, f"theorem evaluator == congruence on {checked} random pairs in {elapsed:.1f}s")


def test_criterion_4_family_vanishing():
    ok = True
    for p in ODD_PRIMES_TO_97:
        for m in (1, 2, 3):
            ok = ok and delta3_at(-(p ** (2 * m + 1)), p, p).status == ZERO
            ok = ok and delta3_at(p ** (2 * m), p, p).status == ZERO
    rng = random.Random(1002)
    primes_3mod4 = [p for p in ODD_PRIMES_TO_97 if p % 4 == 3]
    for _ in range(100):
        p = rng.choice(primes_3mod4)
        x = p * rng.choice([k for k in range(-10**4 // p, 10**4 // p + 1) if k])
        ok = ok and delta3_at((1 - x) * -x, x, p).status == ZERO
    _line(4, ok, "(-p^{2m+1},p), (p^{2m},p) for p<=97, m<=3 and ((1-x)(-x),x) all ZERO")


def test_criterion_5_specific_lift_and_global_family():
    ok = True
    for p in range(5, 1001, 4):
        if not is_prime(p):
            continue
        result = delta3_specific_lift_family(p)
        want = 1 if p % 8 == 5 else 0
        ok = ok and result.at_p[0] == want and result.at_p[1] == want
        if p % 8 == 5:
            ok = ok and delta3_global_family(p).verdict == ZERO
    _line(5, ok, "specific lift at p == 1/2 iff p = 5 mod 8, and family global ZERO, p <= 1000")


def test_criterion_6_oracle_equivalence(oracle):
    results = lookup(
        oracle,
        [
            (name, model.name)
            for model in standard_models()
            for name in ("level-2 boundary == b cup a", "level-3 boundary == delta3 formulas")
        ],
    )
    ok = all(r.passed for r in results)
    cases = sum(r.cases for r in results)
    elapsed = sum(r.seconds for r in results)
    ok = ok and elapsed < 120.0
    _line(
        6,
        ok,
        f"boundary-of-section == delta3 cocycles pointwise (and closed forms up to the "
        f"explicit correction coboundaries), {cases} cases, {elapsed:.1f}s",
    )


def test_criterion_7_massey_theorem(oracle):
    results = lookup(oracle, [("massey == closed form", model.name) for model in standard_models()])
    ok = all(r.passed for r in results)
    cases = sum(r.cases for r in results)
    _line(7, ok, f"massey products with canonical defining systems == closed forms, {cases} cases")


def test_criterion_8_nilpotent_engine(oracle):
    shared = lookup(
        oracle,
        [
            ("TOWER4 exhaustive associativity", "TOWER4"),
            ("collection == magnus", "TOWER3 exhaustive"),
            ("collection == magnus", "TOWER4 exhaustive"),
            ("generator switch law", "TOWER4, (a,b) mod 4"),
        ],
    )
    start = time.monotonic()
    rng = random.Random(1003)
    spec8 = nil.full4(8)
    # 10^4 pairs of exponent vectors mod 8, ten bytes per pair.
    draw = bytes(rng.randrange(8) for _ in range(10 * 10_000))
    results = [*shared, verify.check_magnus(spec8, verify._series_products(spec8, draw), "FULL4(8) random")]
    ok = all(r.passed for r in results)
    elapsed = time.monotonic() - start + sum(r.seconds for r in shared)
    ok = ok and elapsed < 60.0
    _line(8, ok, f"associativity 128^3, collection == magnus, switch law, {elapsed:.1f}s")


def test_criterion_9_fbar(oracle):
    (result,) = lookup(oracle, [("fbar on units mod 48", "(Z/48)^*")])
    _line(9, result.passed, "fbar = (chi = +-3 mod 8) indicator on all 16 units mod 48")


def test_criterion_10_reciprocity():
    rng = random.Random(1004)
    checked = 0
    ok = True
    while checked < 500:
        b = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 100))
        a = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 100))
        if not (b and a):
            continue
        xor = 0
        for v in [*Point.of(b, a).primes(), REAL]:
            xor ^= delta2_local(b, a, v)
        ok = ok and (xor == 1) == (symbol_at_2(b, a).value == -1)
        checked += 1
    _line(10, ok, f"XOR of odd/real invariants == 2-adic symbol on {checked} random pairs")


def test_criterion_11_real_place():
    rng = random.Random(1005)
    checked = 0
    ok = True
    while checked < 500:
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**3), rng.randint(1, 50))
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**3), rng.randint(1, 50))
        result = delta3_at(b, a, REAL)
        if b < 0 and a < 0:
            ok = ok and result.status == BLOCKED
        else:
            ok = ok and result.status == ZERO
            ok = ok and any(l.comp_x == 0 and l.comp_y == 0 for l in result.real_lifts)
            ok = ok and len(result.real_lifts) == 2
        checked += 1
    _line(11, ok, f"real-place delta3 ZERO with a vanishing lift on {checked} sign patterns")
