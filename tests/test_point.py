"""The factored point behind report(): each coordinate is factored once,
and every per-place entry agrees with the standalone validated functions."""

import collections
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import kummer_real_cocycle
from nilobstruct import arith, k2global, localclass, obstruct
from nilobstruct.arith import InvalidPrimeError, Point, local_data
from nilobstruct.cohomology import cyclic_model, delta3_closed_form, lift_cochains, zero1
from nilobstruct.k2global import symbol_at_2, tame_symbol_odd
from nilobstruct.localclass import REAL, delta2_local
from nilobstruct.obstruct import (
    BLOCKED,
    NONZERO,
    ZERO,
    Delta3LocalResult,
    RealLift,
    UnsupportedPlaceError,
    delta2_global,
    delta3_at,
    report,
    report_json,
)


def _nonzero(rng, bound):
    while True:
        v = rng.randint(-bound, bound)
        if v:
            return v


def _points(seed, count):
    """Integer points |x| <= 1e6, rationals with parts <= 1e6 and tiny
    integers."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        if kind == 0:
            b, a = Fraction(_nonzero(rng, 10**6)), Fraction(_nonzero(rng, 10**6))
        elif kind == 1:
            b = Fraction(_nonzero(rng, 10**6), rng.randint(1, 10**6))
            a = Fraction(_nonzero(rng, 10**6), rng.randint(1, 10**6))
        else:
            b, a = Fraction(_nonzero(rng, 100)), Fraction(_nonzero(rng, 100))
        yield b, a


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_report_entries_equal_standalone_functions(seed):
    for b, a in _points(seed, 60):
        rep = report(b, a)
        places = [*Point.of(b, a).primes(), REAL]
        assert [v for v, _ in rep.delta2_local] == places
        assert [r.place for r in rep.delta3_local] == places
        for v, inv in rep.delta2_local:
            assert inv == delta2_local(b, a, v)
        for r in rep.delta3_local:
            assert r == delta3_at(b, a, r.place)
        # The global verdict rebuilt from the standalone symbols and the local
        # bits: a symbol is a mod-2 witness iff it is not 1 and its bit is 1,
        # and the symbol at 2 is one iff it is -1.
        symbols = [tame_symbol_odd(b, a, p) for p in places[:-1]] + [symbol_at_2(b, a)]
        bits = [inv for _, inv in rep.delta2_local[:-1]] + [1]
        k2 = tuple(s for s in symbols if not s.trivial)
        mod2 = tuple(s for s, bit in zip(symbols, bits) if bit and not s.trivial)
        assert rep.delta2 == delta2_global(b, a) == (not mod2, mod2, not k2, k2)


@pytest.mark.parametrize("b_sign", (1, -1))
@pytest.mark.parametrize("a_sign", (1, -1))
def test_real_place_entry_rederived_from_cochain_engine(b_sign, a_sign):
    """Every lift over the order-2 model of G_R, enumerated by the engine and
    run through the closed forms; no lift exists exactly when real delta2
    obstructs."""
    b, a = Fraction(b_sign * 3, 11), Fraction(a_sign * 7)
    model = cyclic_model(2, 7)
    b_coc, a_coc = kummer_real_cocycle(b, model), kummer_real_cocycle(a, model)
    lifts = lift_cochains(b_coc, a_coc)
    if not lifts:
        want = Delta3LocalResult(REAL, BLOCKED, ())
    else:
        f = zero1(model, 2, 2)
        real_lifts = []
        for c in lifts:
            [(comp_x, comp_y)] = delta3_closed_form(b_coc, a_coc, c, (f,))
            label = "c=0" if c.values[1] == 0 else "c={-1}"
            real_lifts.append(RealLift(label, comp_x.values[1][1], comp_y.values[1][1]))
        vanishing = any(lift.comp_x == lift.comp_y == 0 for lift in real_lifts)
        want = Delta3LocalResult(REAL, ZERO if vanishing else NONZERO, (), real_lifts=tuple(real_lifts))
    assert delta3_at(b, a, REAL) == want
    assert (want.status == BLOCKED) == (b_sign < 0 and a_sign < 0)


def _arith_calls(fn, *args):
    """{name: [positional arguments, ...]} of the calls that fn(*args) makes
    to the arith functions named below, in call order."""
    code_names = {
        getattr(arith, name).__code__: name
        for name in ("as_rational", "_valuation", "factor", "factor_int", "local_data")
    }
    calls = collections.defaultdict(list)

    def profile(frame, event, _):
        name = code_names.get(frame.f_code) if event == "call" else None
        if name:
            code = frame.f_code
            calls[name].append(tuple(frame.f_locals[v] for v in code.co_varnames[: code.co_argcount]))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def test_report_factors_each_coordinate_once():
    """Point.of validates b and a once and factors each of the four integer
    parts other than 1 once; every valuation, the exponent of 2 too, is read
    off those exponents, so neither _valuation nor factor nor local_data
    runs."""
    points = ((-1, 5), (Fraction(12, 7), 10), (18, 5), (1000003 * 3, -7), (Fraction(-5, 48), Fraction(3**7, 2**9)))
    for b, a in points:
        calls = _arith_calls(report, b, a)
        fb, fa = Fraction(b), Fraction(a)
        parts = (abs(fb.numerator), fb.denominator, abs(fa.numerator), fa.denominator)
        assert calls["factor_int"] == [(n,) for n in parts if n != 1]
        assert len(calls["as_rational"]) <= 4
        assert set(calls) == {"as_rational", "factor_int"}


_POWER_PRIMES = (2, 3, 5, 7, 47, 53, 97, 1009)


@st.composite
def _powerful_rationals(draw):
    """p**i * u / q**j: high prime powers in the numerator and denominator."""
    p, q = draw(st.sampled_from(_POWER_PRIMES)), draw(st.sampled_from(_POWER_PRIMES))
    limit = 40 if max(p, q) < 50 else 6
    i, j = draw(st.integers(0, limit)), draw(st.integers(0, limit))
    u = draw(st.integers(-(10**6), 10**6).filter(bool))
    return Fraction(p**i * u, q**j)


@given(_powerful_rationals(), _powerful_rationals())
def test_point_local_equals_local_data(b, a):
    """The exponents of the factorization and the re-division of local_data
    are two routes to the same valuations and unit residues."""
    point = Point.of(b, a)
    assert point.local == tuple((p, *local_data(b, a, p)) for p in point.primes())
    assert point.primes() == tuple(sorted({*arith.factor(b).primes(), *arith.factor(a).primes()} - {2}))


# Bad inputs to the public per-place evaluators and the error each raises.
# local_data is their one border: it checks the prime, then b, then a, so
# an input that is wrong twice fails on its prime.
_BAD_PLACE_INPUTS = (
    (("x", 5, 7), TypeError, "expected an int or Fraction, got str"),
    ((3, "x", 7), TypeError, "expected an int or Fraction, got str"),
    ((0, 5, 7), ValueError, "zero is not allowed here"),
    ((3, 0, 7), ValueError, "zero is not allowed here"),
    ((3, 5, 4), InvalidPrimeError, "4 is not an odd prime"),
    ((3, 5, 2), InvalidPrimeError, "2 is not an odd prime"),
    ((3, 5, 5.0), TypeError, "expected an int, got float"),
    (("x", 5, 4), InvalidPrimeError, "4 is not an odd prime"),
)


# The public evaluators at an odd prime, keyed by the local quantity each
# gives: local delta3 there is delta3_at.
_PER_PLACE = {"delta2_local": delta2_local, "tame_symbol_odd": tame_symbol_odd, "delta3_local_odd": delta3_at}


@pytest.mark.parametrize("fn", _PER_PLACE.values(), ids=_PER_PLACE)
@pytest.mark.parametrize("args, error, message", _BAD_PLACE_INPUTS, ids=[repr(x[0]) for x in _BAD_PLACE_INPUTS])
def test_per_place_evaluators_share_one_error_order(fn, args, error, message):
    if fn is delta3_at and args[2] == 2:
        error, message = UnsupportedPlaceError, "local delta3 is not evaluated at the place 2"
    with pytest.raises(error) as info:
        fn(*args)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("fn", _PER_PLACE.values(), ids=_PER_PLACE)
@pytest.mark.parametrize("p", (2.0, 5.0), ids=repr)
def test_a_float_prime_is_refused_by_type(fn, p):
    """2.0 is no more the place 2 than 5.0 is the prime 5: both are TypeErrors."""
    with pytest.raises(TypeError, match="expected an int, got float"):
        fn(3, 5, p)


def test_report_computes_the_symbol_at_2_once(monkeypatch, fresh_odd_places):
    """report() takes the symbol at 2 once, through its kernel, from the
    decompositions that the public decompose_2adic gives."""
    calls = []
    kernel = k2global._symbol_at_2

    def counting(dec_b, dec_a):
        calls.append((dec_b, dec_a))
        return kernel(dec_b, dec_a)

    monkeypatch.setattr(obstruct, "_symbol_at_2", counting)
    for b, a in ((-1, 5), (Fraction(12, 7), 10), (18, 5), (2, 2), (Fraction(-5, 48), Fraction(3**7, 2**9))):
        calls.clear()
        report(b, a)
        assert calls == [(k2global.decompose_2adic(b), k2global.decompose_2adic(a))]


def test_report_calls_no_public_per_place_evaluator(monkeypatch):
    """report() evaluates each place once from the factored point: local
    delta2 is read off the delta3 evaluation, never recomputed."""
    points = ((-1, 5), (18, 5), (Fraction(12, 7), 10), (-3, -7), (1000003 * 3, -7))
    want = [report_json(report(*args)) for args in points]

    def forbidden(*args):
        raise AssertionError("report() called a public per-place evaluator")

    monkeypatch.setattr(obstruct, "delta3_at", forbidden)
    monkeypatch.setattr(obstruct, "local_data", forbidden)
    monkeypatch.setattr(localclass, "delta2_local", forbidden)
    monkeypatch.setattr(obstruct, "delta2_local", forbidden, raising=False)
    assert [report_json(report(*args)) for args in points] == want


@pytest.mark.parametrize("seed", (1, 2))
def test_consistent_iff_no_note_reports_a_failed_check(monkeypatch, fresh_odd_places, seed):
    """rep.consistent is False exactly when a note reads INCONSISTENT or
    DISAGREES; checked on honest reports and on reports whose fast path or
    symbol at 2 is corrupted."""
    real_congruence = obstruct._congruence
    real_two = obstruct._symbol_at_2

    def flipped_congruence(b, a, p):
        return not real_congruence(b, a, p)[0], None

    def toggled_two(dec_b, dec_a):
        two = real_two(dec_b, dec_a)
        return two._replace(value=-two.value)

    seen = set()
    for patch in (None, ("_congruence", flipped_congruence), ("_symbol_at_2", toggled_two)):
        with monkeypatch.context() as m:
            if patch:
                m.setattr(obstruct, *patch)
            for b, a in _points(seed, 60):
                rep = report(b, a)
                failed = any(w in note for note in rep.notes for w in ("INCONSISTENT", "DISAGREES"))
                assert rep.consistent is not failed
                seen.add((patch is None, rep.consistent))
    assert seen == {(True, True), (False, True), (False, False)}


def test_point_holds_certified_local_data():
    point = Point.of(Fraction(-45, 7), 10)
    assert point.primes() == (3, 5, 7)
    # -45/7 = -(3^2 * 5) / 7 and 10 = 2 * 5: (v_b, u_b, v_a, u_a) per prime
    assert point.local[0] == (3, 2, -5 * pow(7, -1, 3) % 3, 0, 10 % 3)
    assert point.local[2] == (7, -1, -45 % 7, 0, 10 % 7)
