import random
from fractions import Fraction

import pytest

from conftest import ODD_PRIMES_TO_97
from nilobstruct import localclass
from nilobstruct.arith import InvalidPrimeError
from nilobstruct.localclass import REAL, delta2_local
from nilobstruct.obstruct import (
    BLOCKED,
    NONZERO,
    ZERO,
    InapplicableError,
    OutOfFamilyError,
    RealLift,
    UnsupportedPlaceError,
    delta3_congruence,
    delta3_global_family,
    delta3_local_odd,
    delta3_local_real,
    delta3_specific_lift_family,
    relevant_places,
    report,
)


class TestRelevantPlaces:
    def test_examples(self):
        assert relevant_places(-1, 5) == [5, REAL]
        assert relevant_places(Fraction(12, 7), 10) == [3, 5, 7, REAL]
        assert relevant_places(1, 1) == [REAL]

    def test_cancelling_valuations_still_relevant(self):
        # v_7 cancels in the product but the place still carries invariants
        b, a = Fraction(7 * 3), Fraction(-1, 7)
        assert 7 in relevant_places(b, a)
        assert delta2_local(b, a, 7).half == 1


class TestDelta3At:
    def test_dispatches_real(self):
        from nilobstruct.obstruct import delta3_at

        assert delta3_at(-3, 5, REAL).status == ZERO

    def test_dispatches_odd_and_off_support(self):
        from nilobstruct.obstruct import delta3_at

        assert delta3_at(-1, 5, 5).status == NONZERO
        assert delta3_at(3, 7, 5).status == ZERO


class TestDelta3LocalOdd:
    def test_minus_one_five(self):
        result = delta3_local_odd(-1, 5, 5)
        assert result.status == NONZERO
        by_case = {t.case: t for t in result.cases}
        assert by_case["i"].applicable and by_case["i"].cup == 1
        assert not by_case["ii"].applicable
        assert not by_case["iii"].applicable

    def test_blocked_by_delta2(self):
        result = delta3_local_odd(18, 5, 5)
        assert result.status == BLOCKED
        assert result.cases == ()

    def test_place_two_rejected(self):
        with pytest.raises(UnsupportedPlaceError):
            delta3_local_odd(3, 5, 2)

    @pytest.mark.parametrize("p", (3, 5, 13, 17))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_odd_power_family(self, p, m):
        assert delta3_local_odd(-(p ** (2 * m + 1)), p, p).status == ZERO

    @pytest.mark.parametrize("p", (3, 5, 13, 17))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_even_power_family(self, p, m):
        assert delta3_local_odd(p ** (2 * m), p, p).status == ZERO

    @pytest.mark.parametrize("p", (3, 7, 11, 19))
    def test_curve_shadow_family(self, p):
        rng = random.Random(p)
        for _ in range(20):
            x = p * rng.choice([k for k in range(-40, 41) if k])
            assert delta3_local_odd((1 - x) * -x, x, p).status == ZERO

    def test_root_choice_independence(self, monkeypatch):
        """The other square root -r has the class of r times {-1}: the verdict
        and every case trace stay the same."""
        sqrt_mod = localclass._sqrt_mod

        def other_root(u, p):
            r = sqrt_mod(u, p)
            return None if r is None else p - r

        rng = random.Random(17)
        points = []
        while len(points) < 200:
            p = rng.choice(ODD_PRIMES_TO_97)
            b = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            a = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            if b and a:
                points.append((b, a, p))
        base = [delta3_local_odd(b, a, p) for b, a, p in points]
        monkeypatch.setattr(localclass, "_sqrt_mod", other_root)
        for want, (b, a, p) in zip(base, points):
            flipped = delta3_local_odd(b, a, p)
            assert want.status == flipped.status
            assert want.cases == flipped.cases

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
            base = delta3_local_odd(b, a, p)
            moved = delta3_local_odd(b * s**4, a * t**4, p)
            assert base.status == moved.status
            count += 1


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
        result = delta3_local_real(2, 3)
        assert result.status == ZERO
        assert result.real_lifts[0] == RealLift("c=0", 0, 0)

    def test_mixed_signs(self):
        result = delta3_local_real(-3, 5)
        assert result.status == ZERO
        assert any(l.comp_x == 0 and l.comp_y == 0 for l in result.real_lifts)

    def test_tangential_image(self):
        assert delta3_local_real(-1, 1).status == ZERO

    def test_both_negative_blocked(self):
        assert delta3_local_real(-2, -3).status == BLOCKED


def test_real_place_lifts_match_direct_cocycles():
    """The closed-form lift values at (tau, tau) equal the section-boundary
    cocycle values there: over the order-2 model a coboundary evaluates to 0
    at (tau, tau), so the two delta3 presentations must agree on the nose."""
    from nilobstruct.cohomology import (
        Cochain1,
        delta3_closed_form,
        delta3_cocycle_direct,
        kummer_real_cocycle,
        real_place_model,
        zero1,
    )

    model = real_place_model()
    f = zero1(model, 2, 2)
    for sb in (1, -1):
        for sa in (1, -1):
            if sb < 0 and sa < 0:
                continue
            b = kummer_real_cocycle(sb * 3, model)
            a = kummer_real_cocycle(sa * 7, model)
            for c_tau in (0, 1):
                c = Cochain1(model, 2, 2, (0, c_tau))
                closed = delta3_closed_form(b, a, c, f)
                direct = delta3_cocycle_direct(b, a, c, f)
                for z, w in zip(closed, direct):
                    assert z.values[1][1] == w.values[1][1]


class TestSpecificLift:
    @pytest.mark.parametrize("p,half", ((5, 1), (13, 1), (17, 0), (29, 1), (41, 0)))
    def test_values(self, p, half):
        result = delta3_specific_lift_family(p)
        assert result.at_p[0].half == half == result.at_p[1].half

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


class TestReport:
    def test_curve_point(self):
        rep = report(Fraction(3, 5), 1 - Fraction(3, 5))
        assert rep.delta2.zero and rep.delta2.k2_zero
        assert all(inv.half == 0 for _, inv in rep.delta2_local)
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
        from nilobstruct.k2global import delta2_global

        for b, a in ((x, (1 - x) ** m), (((-x) ** m), x), ((1 - x) * -x, x)):
            verdict = delta2_global(b, a)
            assert verdict.zero and verdict.k2_zero
        count += 1
