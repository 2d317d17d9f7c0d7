import collections
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import ODD_PRIMES_TO_97, is_lift, kummer_real_cocycle, next_prime
from nilobstruct import arith, k2global, localclass, obstruct
from nilobstruct.arith import (
    InvalidPrimeError,
    Point,
    is_fourth_power_mod,
    is_prime,
    legendre,
    local_data,
    sqrt_mod,
)
from nilobstruct.localclass import REAL, cup_qp, delta2_local, square_class_vu
from nilobstruct.obstruct import (
    BLOCKED,
    NONZERO,
    ZERO,
    CaseTrace,
    InapplicableError,
    OutOfFamilyError,
    RealLift,
    UnsupportedPlaceError,
    delta2_global,
    delta3_at,
    delta3_congruence,
    delta3_global_family,
    delta3_specific_lift_family,
    report,
)


def _places(b, a):
    """The places of a report: the odd primes of the point, then R."""
    return [*Point.of(b, a).primes(), REAL]


class TestRelevantPlaces:
    def test_examples(self):
        assert _places(-1, 5) == [5, REAL]
        assert _places(Fraction(12, 7), 10) == [3, 5, 7, REAL]
        assert _places(1, 1) == [REAL]
        assert [r.place for r in report(Fraction(12, 7), 10).delta3_local] == [3, 5, 7, REAL]

    def test_cancelling_valuations_still_relevant(self):
        # v_7 cancels in the product but the place still carries invariants
        b, a = Fraction(7 * 3), Fraction(-1, 7)
        assert 7 in _places(b, a)
        assert delta2_local(b, a, 7) == 1


class TestDelta3At:
    def test_dispatches_real(self):
        assert delta3_at(-3, 5, REAL).status == ZERO

    def test_dispatches_odd_and_off_support(self):
        assert delta3_at(-1, 5, 5).status == NONZERO
        assert delta3_at(3, 7, 5).status == ZERO


class TestDelta3LocalOdd:
    def test_minus_one_five(self):
        result = delta3_at(-1, 5, 5)
        assert result.status == NONZERO
        by_case = {t.case: t for t in result.cases}
        assert by_case["i"].applicable and by_case["i"].cup == 1
        assert not by_case["ii"].applicable
        assert not by_case["iii"].applicable

    def test_blocked_by_delta2(self):
        result = delta3_at(18, 5, 5)
        assert result.status == BLOCKED
        assert result.cases == ()

    def test_place_two_rejected(self):
        with pytest.raises(UnsupportedPlaceError):
            delta3_at(3, 5, 2)

    @pytest.mark.parametrize("p", (3, 5, 13, 17))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_odd_power_family(self, p, m):
        assert delta3_at(-(p ** (2 * m + 1)), p, p).status == ZERO

    @pytest.mark.parametrize("p", (3, 5, 13, 17))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_even_power_family(self, p, m):
        assert delta3_at(p ** (2 * m), p, p).status == ZERO

    @pytest.mark.parametrize("p", (3, 7, 11, 19))
    def test_curve_shadow_family(self, p):
        rng = random.Random(p)
        for _ in range(20):
            x = p * rng.choice([k for k in range(-40, 41) if k])
            assert delta3_at((1 - x) * -x, x, p).status == ZERO

    def test_root_choice_independence(self, filled_odd_places):
        """The other square root -r has the class of r times {-1}: the
        canonical-root reference with the other root p - sqrt_mod(u, p) gives
        the verdict and every case trace that _delta3_odd reads."""
        rng = random.Random(17)
        points = []
        while len(points) < 200:
            p = rng.choice(ODD_PRIMES_TO_97)
            b = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            a = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            if b and a:
                points.append((b, a, p))
        other_class = 0
        for b, a, p in points:
            data = local_data(b, a, p)
            status, cases = obstruct._delta3_odd(*data, p)
            assert (status, cases) == _delta3_with_canonical_roots(*data, p, root=_other_root)
            # At p = 3 mod 4 -1 is a non-residue, so the other root's class differs.
            other_class += p % 4 == 3 and any(t.applicable for t in cases)
        assert other_class

    def test_fourth_power_coset_invariance(self):
        rng = random.Random(18)
        count = 0
        while count < 200:
            p = rng.choice(ODD_PRIMES_TO_97)
            b = Fraction(rng.randint(-200, 200), rng.randint(1, 30))
            a = Fraction(rng.randint(-200, 200), rng.randint(1, 30))
            s = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            t = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            if not (b and a and s and t):
                continue
            base = delta3_at(b, a, p)
            moved = delta3_at(b * s**4, a * t**4, p)
            assert base.status == moved.status
            count += 1


# Status counts of delta3_at over every pair of classes in Q_p^*/Q_p^{*4},
# (blocked_by_delta2, zero, nonzero), by p mod 4.
_CLASS_PAIR_COUNTS = {1: (96, 88, 72), 3: (24, 37, 3)}


@pytest.mark.parametrize("p", (3, 5, 7, 17))
def test_every_class_pair_at_one_prime_per_residue_mod_8(p):
    """Every pair of classes p^v u^e (v < 4) in Q_p^*/Q_p^{*4}: u is the least
    non-residue and e < 4 at p = 1 mod 4, u = -1 and e < 2 at p = 3 mod 4.
    The status is invariant under sigma(b, a) = (a, b) and tau(b, a) =
    (1/b, -a/b), and is blocked_by_delta2 exactly where delta2_local is 1/2."""
    if p % 4 == 1:
        u, orders = next(n for n in range(2, p) if legendre(n, p) == -1), 4
    else:
        u, orders = -1, 2
    classes = [Fraction(p**v * u**e) for v in range(4) for e in range(orders)]
    counts = collections.Counter()
    for b in classes:
        for a in classes:
            status = delta3_at(b, a, p).status
            counts[status] += 1
            assert delta3_at(a, b, p).status == status
            assert delta3_at(1 / b, -a / b, p).status == status
            assert (delta2_local(b, a, p) == 1) == (status == BLOCKED)
    assert (counts[BLOCKED], counts[ZERO], counts[NONZERO]) == _CLASS_PAIR_COUNTS[p % 4]


def test_two_cup_minus_one_vanishes_at_every_odd_prime_below_10_4():
    """{2} cup {-1} = 0 at every odd p, the reason obstruct._criterion
    drops case (ii)'s term {2} cup a: that case applies only when a has
    the class of -1.  The classes are those of the supplement laws."""
    primes = [p for p in range(3, 10_000, 2) if is_prime(p)]
    assert len(primes) == 1228
    for p in primes:
        assert cup_qp(int(p % 8 in (3, 5)), int(p % 4 == 3), p) == 0, p


def _other_root(u, p):
    """The square root of u mod p that sqrt_mod does not return, or None."""
    r = sqrt_mod(u, p)
    return None if r is None else p - r


def _delta3_with_canonical_roots(v_b, u_b, v_a, u_a, p, root=sqrt_mod):
    """(status, cases) of the three-case loop with each root's class taken
    from the canonical Tonelli-Shanks root sqrt_mod (or from root(u, p)): a
    reference for obstruct._delta3_odd that computes every root."""
    cls_b = square_class_vu(v_b, u_b, p)
    cls_a = square_class_vu(v_a, u_a, p)
    if cup_qp(cls_b, cls_a, p):
        return BLOCKED, ()
    two = square_class_vu(0, 2, p)
    cases = []
    for name, (v, u), partner, extra in (
        ("i", (v_b, -u_b), cls_a, 0),
        ("ii", (v_a, -u_a), cls_b, cup_qp(two, cls_a, p)),
        ("iii", (v_b + v_a, u_b * u_a), cls_a, 0),
    ):
        r = root(u, p)
        if v % 2 or r is None:
            cases.append(CaseTrace(name, False, 0))
            continue
        root_class = square_class_vu(v // 2, r, p)
        cases.append(CaseTrace(name, True, cup_qp(two ^ root_class, partner, p) ^ extra))
    status = NONZERO if any(t.cup for t in cases) else ZERO
    return status, tuple(cases)


def _grid(primes=(3, 5, 7, 11, 13, 17, 19, 23), valuations=range(4)):
    """Local data (v_b, u_b, v_a, u_a, p): every pair of units at each prime,
    by default those up to 23, with v_b and v_a in 0..3."""
    for p in primes:
        for v_b in valuations:
            for v_a in valuations:
                for u_b in range(1, p):
                    for u_a in range(1, p):
                        yield v_b, u_b, v_a, u_a, p


# The keys (p mod 8, v_b mod 4, v_a mod 4, j_b, j_a) that occur: at p = 1 mod 4
# j_b is 0, 2 or 1 (the base i), and j_a is 0..3 with 3 only where j_b = 1.
_ODD_PLACE_KEYS = 2 * 16 * 10 + 2 * 16 * 4


@pytest.fixture
def filled_odd_places(fresh_odd_places):
    """The odd-place table after every class pair at 17, 5, 3 and 7, one
    prime per residue mod 8, which fills every key (see
    test_table_size_is_bounded): a test then reads at any prime entries
    written at these four, so a key that loses a class shows as a mismatch
    with the canonical-root reference.  Returns a copy of the table."""
    for data in _grid((17, 5, 3, 7)):
        obstruct._delta3_odd(*data)
    return dict(obstruct._ODD_PLACES)


def _canonical_root_mismatches():
    """The grid points where _delta3_odd differs from the canonical-root
    loop."""
    return [data for data in _grid() if obstruct._delta3_odd(*data) != _delta3_with_canonical_roots(*data)]


PRIMES_BELOW_2000 = tuple(filter(is_prime, range(3, 2000, 2)))


class TestQuarticRootClass:
    def test_matches_canonical_roots_on_a_full_grid(self, filled_odd_places):
        """Every unit pair at the primes up to 23 finds its key among those
        filled at 17, 5, 3 and 7, and the entry is the reference's."""
        assert _canonical_root_mismatches() == []
        assert obstruct._ODD_PLACES == filled_odd_places

    def test_grid_sees_a_wrong_unit_bit(self, monkeypatch, fresh_odd_places):
        """Dropping the quartic bit at p = 1 mod 4 must show on the grid: a
        pow that reads u^((p-1)/4) = +-1 as (-1)^((p-1)/4) keeps every square
        class but takes the roots of every unit square for squares."""

        def quartic_bit_dropped(base, exp, mod):
            r = pow(base, exp, mod)
            if mod % 4 == 1 and exp == (mod - 1) // 4 and r in (1, mod - 1):
                return 1 if mod % 8 == 1 else mod - 1
            return r

        monkeypatch.setattr(obstruct, "pow", quartic_bit_dropped, raising=False)
        bad = _canonical_root_mismatches()
        assert bad
        assert all(p % 4 == 1 for *_, p in bad)

    def test_matches_canonical_roots_beyond_the_grid(self, filled_odd_places):
        """Primes below 2000, and primes of 7 to 15 digits, where every
        class is read from u^((p-1)/4) or u^((p-1)/2) alone: 16 places per
        example, valuations in -7..7 and any units, each read from the
        table filled at 17, 5, 3 and 7.  Shrinking is left out, as the
        assertion names the failing place."""
        small = st.sampled_from(PRIMES_BELOW_2000)
        large = st.integers(10**6, 10**15 - 40).map(next_prime)
        valuations = st.integers(-7, 7)

        @settings(phases=[phase for phase in Phase if phase is not Phase.shrink])
        @given(st.data())
        def matches_canonical_roots(data):
            for _ in range(16):
                p = data.draw(st.one_of(small, large), label="p")
                units = st.integers(1, p - 1)
                v_b, u_b, v_a, u_a = data.draw(st.tuples(valuations, units, valuations, units), label="place")
                place = v_b, u_b, v_a, u_a, p
                assert obstruct._delta3_odd(*place) == _delta3_with_canonical_roots(*place), place

        matches_canonical_roots()
        assert obstruct._ODD_PLACES == filled_odd_places

    def test_two_legendre_symbols_per_place(self, monkeypatch, fresh_odd_places):
        """One residue pass: each place costs exactly two modular powers, of
        u_b and u_a, to (p-1)/4 at p = 1 mod 4 and to (p-1)/2 at p = 3 mod 4,
        on a miss that fills its key as on a hit, and no Legendre symbol or
        quartic test beside them."""
        calls = []

        def counting_pow(base, exp, mod):
            calls.append((base, exp, mod))
            return pow(base, exp, mod)

        def forbidden(*args):
            raise AssertionError("the odd-place decider took a second residue test")

        monkeypatch.setattr(obstruct, "pow", counting_pow, raising=False)
        for module in (arith, localclass, obstruct):
            for name in ("_legendre", "_is_fourth_power_mod"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        misses = 0
        for v_b, u_b, v_a, u_a, p in _grid():
            e = (p - 1) // 4 if p % 4 == 1 else (p - 1) // 2
            for _ in range(2):
                filled = len(obstruct._ODD_PLACES)
                calls.clear()
                obstruct._delta3_odd(v_b, u_b, v_a, u_a, p)
                assert calls == [(u_b, e, p), (u_a, e, p)]
                misses += len(obstruct._ODD_PLACES) - filled
        assert misses == _ODD_PLACE_KEYS


class TestOddPlaceTable:
    """The table that report(), delta3_at and delta3_global_family read at
    an odd place; its entries are checked against the canonical-root
    reference by TestQuarticRootClass."""

    def test_table_size_is_bounded(self, fresh_odd_places):
        """Valuations of either sign and every unit pair at two primes per
        residue mod 4 reach exactly the keys counted above, within the 640
        that p mod 8, v mod 4 and j in Z/4 allow."""
        for data in _grid((3, 5, 7, 13, 17), range(-7, 8)):
            obstruct._delta3_odd(*data)
        assert len(obstruct._ODD_PLACES) == _ODD_PLACE_KEYS <= 640

    def test_report_and_delta3_at_read_the_table(self, monkeypatch, filled_odd_places):
        """Once every key is filled, report() and delta3_at call no criterion."""

        def forbidden(*args):
            raise AssertionError("the criterion ran on a filled table")

        monkeypatch.setattr(obstruct, "_criterion", forbidden)
        rep = report(Fraction(-45, 7), 10 * 11**3)
        assert [r.place for r in rep.delta3_local] == [3, 5, 7, 11, REAL]
        assert delta3_at(-1, 5, 5).status == NONZERO

    def test_the_family_fills_one_key_and_the_oracle_none(self):
        """delta3_global_family reads the table as report() does, and at 13
        fills one key; the specific lift and verify never read it, and
        perfbench's warm-up report(-1, 5) fills a second key."""
        code = (
            "import nilobstruct\n"
            "from nilobstruct import obstruct\n"
            "from nilobstruct.verify import run_suites\n"
            "nilobstruct.delta3_global_family(13)\n"
            "nilobstruct.delta3_specific_lift_family(13)\n"
            "run_suites(suite='cochain', max_order=2)\n"
            "print(len(obstruct._ODD_PLACES))\n"
            "nilobstruct.report(-1, 5)\n"
            "print(len(obstruct._ODD_PLACES))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "2"]


def test_congruence_tests_fourth_powers_only_at_p_1_mod_4(monkeypatch):
    """The congruence fast path takes one modular power of s = a + b per
    place: s^((p-1)/4) at p = 1 mod 4, which is +-1 iff s is a square and 1
    iff it is a fourth power, and the Legendre power s^((p-1)/2) at
    p = 3 mod 4, where every square is a fourth power; no Legendre symbol or
    fourth-power test beside it.  Its answers still equal the Legendre
    symbol and the fourth-power test of a + b."""
    calls = []

    def counting_pow(base, exp, mod):
        calls.append((base, exp, mod))
        return pow(base, exp, mod)

    def forbidden(*args):
        raise AssertionError("the fast path took a second residue test")

    places = []
    for b in range(-40, 41):
        for a in range(-40, 41):
            if a and b:
                places += [(b, a, p) for p in Point.of(b, a).primes() if a * b % p == 0 != a * b % (p * p)]
    wants = []
    for b, a, p in places:
        square = legendre(a + b, p) == 1
        wants.append((square, is_fourth_power_mod(a + b, p) if square else None))
    monkeypatch.setattr(obstruct, "pow", counting_pow, raising=False)
    for name in ("_legendre", "_is_fourth_power_mod", "legendre", "is_fourth_power_mod"):
        monkeypatch.setattr(obstruct, name, forbidden, raising=False)
    squares = collections.Counter()
    for (b, a, p), want in zip(places, wants):
        calls.clear()
        assert delta3_congruence(b, a, p) == want
        assert calls == [((a + b) % p, (p - 1) // 4 if p % 4 == 1 else (p - 1) // 2, p)]
        squares[p % 4, want[1]] += 1
    assert min(squares[1, True], squares[1, False], squares[3, True]) > 100


def _unit_times(p: int, n: int) -> int:
    """n moved off the multiples of p: n itself, or n + 1 if p divides n."""
    return n + 1 if n % p == 0 else n


def _next_prime_mod_4(n: int, r: int) -> int:
    """The least prime >= n that is r mod 4."""
    p = next_prime(n)
    while p % 4 != r:
        p = next_prime(p + 1)
    return p


@given(
    st.tuples(st.integers(3, 10**9) | st.integers(10**9, 10**12), st.sampled_from((1, 3))).map(
        lambda nr: _next_prime_mod_4(*nr)
    ),
    st.integers(1, 10**15),
    st.integers(-(10**15), 10**15).filter(bool),
    st.booleans(),
    st.booleans(),
)
def test_congruence_is_the_residue_tests_of_a_plus_b_at_large_primes(p, k, unit, negative, swap):
    """At primes up to 10^12 of both residues mod 4, where each test is read
    from one power of a + b, the fast path equals the Legendre symbol and
    the fourth-power test of a + b on a point whose ab p divides once."""
    multiple = p * _unit_times(p, k) * (-1 if negative else 1)
    unit = _unit_times(p, unit)
    b, a = (unit, multiple) if swap else (multiple, unit)
    square = legendre(a + b, p) == 1
    assert delta3_congruence(b, a, p) == (square, is_fourth_power_mod(a + b, p) if square else None)


def test_report_takes_only_the_powers_its_output_needs(monkeypatch):
    """Per odd place report() takes two modular powers in _delta3_odd, one
    in _congruence at a prime dividing an integer point's ab once and none
    elsewhere, and in tame_symbol_vu one per nonzero exponent, so none to
    the exponent 0; every output is that of the unpatched report()."""
    points = [
        (b, a)
        for b in (-63, -45, -10, -7, -2, -1, 3, 5, 12, 25, 99, Fraction(5, 21), Fraction(-98, 15))
        for a in (-50, -13, -3, 1, 6, 7, 49, 121, Fraction(3, 7), Fraction(-1, 45))
    ]
    wanted = [report(b, a) for b, a in points]
    exponents = []

    def counting_pow(base, exp, mod):
        exponents.append(exp)
        return pow(base, exp, mod)

    taken = collections.defaultdict(list)

    def per_call(name, fn):
        def wrapped(*args):
            start = len(exponents)
            out = fn(*args)
            taken[name].append(exponents[start:])
            return out

        return wrapped

    monkeypatch.setattr(obstruct, "pow", counting_pow, raising=False)
    monkeypatch.setattr(k2global, "pow", counting_pow, raising=False)
    for name in ("_delta3_odd", "_congruence", "tame_symbol_vu"):
        monkeypatch.setattr(obstruct, name, per_call(name, getattr(obstruct, name)))
    fast_places = 0
    for (b, a), want in zip(points, wanted):
        local = Point.of(b, a).local
        taken.clear()
        exponents.clear()
        assert report(b, a) == want
        integral = Fraction(b).denominator == Fraction(a).denominator == 1
        fast = [p for p, v_b, _, v_a, _ in local if integral and v_b + v_a == 1]
        assert [len(calls) for calls in taken["_delta3_odd"]] == [2] * len(local)
        assert [len(calls) for calls in taken["_congruence"]] == [1] * len(fast)
        assert taken["tame_symbol_vu"] == [[e for e in (v_a, -v_b) if e] for _, v_b, _, v_a, _ in local]
        assert len(exponents) == 2 * len(local) + len(fast) + sum(map(len, taken["tame_symbol_vu"]))
        fast_places += len(fast)
    assert fast_places > 50


class TestCongruence:
    def test_minus_one_five(self):
        assert delta3_congruence(-1, 5, 5) == (True, False)

    def test_curve_points(self):
        # a + b = 1 with p dividing ab exactly once: both verdicts vanish
        for b, p in ((5, 5), (-7, 7), (13, 13), (3 * 29, 29)):
            assert delta3_congruence(b, 1 - b, p) == (True, True)

    def test_nonsquare_blocks(self):
        assert delta3_congruence(2, 5, 5) == (False, None)

    def test_preconditions(self):
        with pytest.raises(InapplicableError):
            delta3_congruence(Fraction(1, 2), 5, 5)
        with pytest.raises(InapplicableError):
            delta3_congruence(25, 3, 5)
        with pytest.raises(InvalidPrimeError):
            delta3_congruence(2, 9, 9)


class TestRealPlace:
    def test_both_positive(self):
        result = delta3_at(2, 3, REAL)
        assert result.status == ZERO
        assert result.real_lifts[0] == RealLift("c=0", 0, 0)

    def test_mixed_signs(self):
        result = delta3_at(-3, 5, REAL)
        assert result.status == ZERO
        assert any(l.comp_x == 0 and l.comp_y == 0 for l in result.real_lifts)

    def test_tangential_image(self):
        assert delta3_at(-1, 1, REAL).status == ZERO

    def test_both_negative_blocked(self):
        assert delta3_at(-2, -3, REAL).status == BLOCKED


def test_real_place_lifts_match_direct_cocycles():
    """The closed-form lift values at (tau, tau) equal the section-boundary
    cocycle values there: over the order-2 model a coboundary evaluates to 0
    at (tau, tau), so the two delta3 presentations must agree on the nose."""
    from nilobstruct.cohomology import (
        Cochain1,
        cyclic_model,
        delta3_closed_form,
        delta3_cocycle_direct,
        zero1,
    )

    model = cyclic_model(2, 7)
    f = zero1(model, 2, 2)
    for sb in (1, -1):
        for sa in (1, -1):
            if sb < 0 and sa < 0:
                continue
            b = kummer_real_cocycle(sb * 3, model)
            a = kummer_real_cocycle(sa * 7, model)
            for c_tau in (0, 1):
                c = Cochain1(model, 2, 2, (0, c_tau))
                assert is_lift(b, a, c)
                closed = delta3_closed_form(b, a, c, f)
                direct = delta3_cocycle_direct(b, a, c, f)
                for z, w in zip(closed, direct):
                    assert z.values[1][1] == w.values[1][1]


class TestSpecificLift:
    @pytest.mark.parametrize("p,half", ((5, 1), (13, 1), (17, 0), (29, 1), (41, 0)))
    def test_values(self, p, half):
        result = delta3_specific_lift_family(p)
        assert result.at_p[0] == half == result.at_p[1]

    def test_out_of_family(self):
        with pytest.raises(InapplicableError):
            delta3_specific_lift_family(7)
        with pytest.raises(InapplicableError):
            delta3_specific_lift_family(15)


class TestGlobalFamily:
    @pytest.mark.parametrize("p", (5, 13, 29, 37))
    def test_family_zero(self, p):
        result = delta3_global_family(p)
        assert result.verdict == ZERO
        assert len(result.trace) == 3

    @pytest.mark.parametrize("p", (7, 17, 15))
    def test_out_of_family(self, p):
        with pytest.raises(OutOfFamilyError):
            delta3_global_family(p)


@pytest.mark.parametrize("family", (delta3_specific_lift_family, delta3_global_family))
def test_family_certifies_p_once(monkeypatch, family):
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(obstruct, "is_prime", counted)
    family(13)
    assert calls == [13]


class TestReport:
    def test_curve_point(self):
        rep = report(Fraction(3, 5), 1 - Fraction(3, 5))
        assert rep.delta2.zero and rep.delta2.k2_zero
        assert all(inv == 0 for _, inv in rep.delta2_local)
        assert all(r.status == ZERO for r in rep.delta3_local)

    def test_obstructed_point(self):
        rep = report(18, 5)
        assert not rep.delta2.zero
        at5 = next(r for r in rep.delta3_local if r.place == 5)
        assert at5.status == BLOCKED

    def test_minus_one_five(self):
        rep = report(-1, 5)
        assert rep.delta2.zero and not rep.delta2.k2_zero
        at5 = next(r for r in rep.delta3_local if r.place == 5)
        assert at5.status == NONZERO
        at_r = next(r for r in rep.delta3_local if r.place == REAL)
        assert at_r.status == ZERO

    def test_psi_12_is_split_into_its_prime_places(self):
        # 318665857834031151167461 = 399165290221 * 798330580441 is a strong
        # pseudoprime to the bases 2..37 and must not be taken for a place.
        rep = report(318665857834031151167461, 5)
        assert [v for v, _ in rep.delta2_local] == [5, 399165290221, 798330580441, REAL]

    def test_notes_mention_reciprocity(self):
        rep = report(18, 5)
        assert any("reciprocity" in n and "consistent" in n for n in rep.notes)
        assert any("congruence fast path at 5" in n and "agrees" in n for n in rep.notes)


def _random_nonzero(rng, lo=-60, hi=60):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def test_curve_and_tangential_images_fully_unobstructed():
    rng = random.Random(19)
    count = 0
    while count < 40:
        t = Fraction(_random_nonzero(rng), rng.randint(1, 20))
        if t == 1:
            continue
        w = Fraction(_random_nonzero(rng), rng.randint(1, 20))
        points = [(t, 1 - t), (w, Fraction(1)), (Fraction(1), -w), (1 / w, -1 / w), (-w, w)]
        for b, a in points:
            rep = report(b, a)
            assert rep.delta2.zero
            for r in rep.delta3_local:
                assert r.status == ZERO
        count += 1


def test_delta2_kernel_families():
    rng = random.Random(20)
    count = 0
    while count < 30:
        x = Fraction(_random_nonzero(rng), rng.randint(1, 20))
        if x == 1:
            continue
        m = rng.randint(1, 5)
        for b, a in ((x, (1 - x) ** m), (((-x) ** m), x), ((1 - x) * -x, x)):
            verdict = delta2_global(b, a)
            assert verdict.zero and verdict.k2_zero
        count += 1


# sigma(b, a) = (a, b) and tau(b, a) = (1/b, -a/b) generate an S3 acting on
# the points: both are involutions and sigma tau has order 3.
def _sigma(b, a):
    return a, b


def _tau(b, a):
    return 1 / b, -a / b


def _s3_orbit(b, a):
    orbit, todo = {(b, a)}, [(b, a)]
    while todo:
        point = todo.pop()
        for image in (_sigma(*point), _tau(*point)):
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _s3_invariants(b, a):
    """What the S3 symmetry keeps in report(b, a): the global delta2 verdict,
    the local delta2 bits and the delta3 status at every place.  The case
    traces are not claimed to match."""
    rep = report(b, a)
    return rep.delta2.zero, rep.delta2_local, tuple((r.place, r.status) for r in rep.delta3_local)


bounded_rationals = st.fractions(
    min_value=Fraction(-10**4), max_value=Fraction(10**4), max_denominator=100
).filter(lambda q: q != 0)


@given(bounded_rationals, bounded_rationals)
def test_report_is_invariant_under_the_s3_symmetry(b, a):
    point = (b, a)
    assert _tau(*_tau(*point)) == point
    for _ in range(3):
        point = _sigma(*_tau(*point))
    assert point == (b, a)
    orbit = _s3_orbit(b, a)
    assert len(orbit) in (1, 2, 3, 6)
    want = _s3_invariants(b, a)
    for image in orbit:
        assert _s3_invariants(*image) == want, image


def test_s3_invariance_fails_for_the_sign_dropped_tau():
    """(b, a) -> (1/b, a/b), tau without its sign, changes a status, so the
    invariance above is no property of every such map: (-1, 5) is fixed by
    tau and zero at R, and its sign-dropped image (-1, -5) is blocked there."""
    b, a = Fraction(-1), Fraction(5)
    assert _tau(b, a) == (b, a)
    dropped = (1 / b, a / b)
    assert dropped == (-1, -5)
    assert _s3_invariants(b, a) != _s3_invariants(*dropped)
    assert report(b, a).delta3_local[-1][:2] == (REAL, ZERO)
    assert report(*dropped).delta3_local[-1][:2] == (REAL, BLOCKED)


def test_report_repr_is_pinned():
    """The records print field by field, nested records included."""
    assert repr(report(-1, 5)) == (
        "ObstructionReport(b=Fraction(-1, 1), a=Fraction(5, 1), "
        "delta2_local=((5, 0), ('R', 0)), "
        "delta2=Delta2GlobalVerdict(zero=True, witnesses=(), k2_zero=False, "
        "k2_witnesses=(TameSymbolValue(place=5, value=4),)), "
        "delta3_local=(Delta3LocalResult(place=5, status='nonzero', "
        "cases=(CaseTrace(case='i', applicable=True, cup=1), "
        "CaseTrace(case='ii', applicable=False, cup=0), "
        "CaseTrace(case='iii', applicable=False, cup=0)), real_lifts=()), "
        "Delta3LocalResult(place='R', status='zero', cases=(), "
        "real_lifts=(RealLift(label='c=0', comp_x=0, comp_y=0), "
        "RealLift(label='c={-1}', comp_x=0, comp_y=1)))), "
        "notes=('full K2 layer differs from the mod-2 layer: nontrivial symbols "
        "(5: 4) are squares locally, so only delta2 mod 2 vanishes', "
        "'reciprocity: XOR of odd/real invariants = 0, 2-adic symbol = +1 (consistent)', "
        "'congruence fast path at 5: delta2 agrees, delta3 agrees'), consistent=True)"
    )


def _records():
    rep = report(-1, 5)
    return {
        "Factorization": arith.factor(-12),
        "Point": arith.Point.of(-1, 5),
        "TameSymbolValue": rep.delta2.k2_witnesses[0],
        "Delta2GlobalVerdict": rep.delta2,
        "CaseTrace": rep.delta3_local[0].cases[0],
        "RealLift": rep.delta3_local[1].real_lifts[0],
        "Delta3LocalResult": rep.delta3_local[0],
        "ObstructionReport": rep,
        "SpecificLiftResult": delta3_specific_lift_family(5),
        "GlobalFamilyResult": delta3_global_family(5),
    }


# The names of _records(), written out so that collecting this module runs
# no report(): a fault there fails these tests, not the collection.
_RECORD_NAMES = (
    "Factorization",
    "Point",
    "TameSymbolValue",
    "Delta2GlobalVerdict",
    "CaseTrace",
    "RealLift",
    "Delta3LocalResult",
    "ObstructionReport",
    "SpecificLiftResult",
    "GlobalFamilyResult",
)


@pytest.mark.parametrize("name", _RECORD_NAMES)
def test_records_are_immutable(name):
    records = _records()
    assert tuple(records) == _RECORD_NAMES
    record = records[name]
    assert type(record).__name__ == name
    field = type(record).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@given(bounded_rationals.filter(lambda z: z != 1))
def test_curve_points_are_never_obstructed(z):
    """A rational point z of P^1 - {0, 1, inf} gives a section of pi_1 over
    Q, whose image in every nilpotent quotient is a section too, over Q and
    over every Q_v; its Abel-Jacobi image is (z, 1 - z).  So delta2 vanishes
    globally and at every place, and delta3 at every place."""
    rep = report(z, 1 - z)
    assert rep.delta2.zero
    assert all(inv == 0 for _, inv in rep.delta2_local)
    assert all(r.status == ZERO for r in rep.delta3_local)


def test_a_non_curve_point_can_pass_delta2_and_fail_delta3():
    """(z, z - 1) is no curve point: on a seeded set some such point has
    delta2 zero and delta3 nonzero at a place, so the test above has power
    at level 3 and cannot pass vacuously."""
    rng = random.Random(3)
    hits = 0
    for _ in range(300):
        z = Fraction(rng.randint(-3000, 3000), rng.randint(1, 3000))
        if z in (0, 1):
            continue
        rep = report(z, z - 1)
        hits += rep.delta2.zero and any(r.status == NONZERO for r in rep.delta3_local)
    assert hits > 0
