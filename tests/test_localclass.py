import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import ODD_PRIMES_TO_97
from nilobstruct.arith import Point, is_prime, legendre, local_part, sqrt_mod
from nilobstruct.localclass import REAL, cup_qp, delta2_local, square_class_vu
from nilobstruct.obstruct import delta3_at

nonzero_rationals = st.fractions(
    min_value=Fraction(-10**5), max_value=Fraction(10**5), max_denominator=10**3
).filter(lambda q: q != 0)

# Classes are e_p << 1 | e_u over the basis {u, p}.
U, PI = 1, 2
CLASSES = (0, U, PI, U | PI)


def square_class(x, p):
    return square_class_vu(*local_part(Fraction(x), p), p)


def sqrt_class(x, p):
    """The class of the square root of the local square x that
    obstruct._criterion takes, read back from its case (i) at the
    point (-x, a), where -b = x.  That case's cup is {2 sqrt(x)} cup a: with
    a a non-residue unit it is the root's p bit, and at p = 1 mod 4, with
    a = p, it is the unit bit of {2} times the root.  At p = 3 mod 4 the
    two roots differ by {-1}, no case value sees which was taken (a = p is
    blocked by delta2 there), and the unit bit reads 0."""
    non_residue = next(n for n in range(2, p) if legendre(n, p) == -1)
    p_bit = delta3_at(-x, non_residue, p).cases[0].cup
    if p % 4 == 3:
        return p_bit << 1
    return p_bit << 1 | delta3_at(-x, p, p).cases[0].cup ^ square_class_vu(0, 2, p)


class TestSquareClass:
    def test_uniformizer(self):
        assert square_class(5, 5) == PI

    def test_identity(self):
        assert square_class(1, 5) == 0

    def test_minus_one_split_prime(self):
        # 4 = -1 mod 5 is a square
        assert square_class(-1, 5) == 0

    def test_minus_one_inert_prime(self):
        assert square_class(-1, 7) == U

    def test_class_is_an_int(self):
        for x in (1, 3, 5, Fraction(-10, 3)):
            assert type(square_class(x, 5)) is int
            assert all(type(t.cup) is int for t in delta3_at(-x * x, 2, 5).cases)

    def test_supplement_laws(self):
        # -1 is a non-residue iff p = 3 mod 4, and 2 iff p = 3 or 5 mod 8
        for p in filter(is_prime, range(3, 2000, 2)):
            assert square_class_vu(0, -1, p) == (p % 4 == 3), p
            assert square_class_vu(0, 2, p) == (p % 8 in (3, 5)), p

    @given(nonzero_rationals, st.sampled_from(ODD_PRIMES_TO_97))
    def test_square_has_trivial_class(self, x, p):
        assert square_class(x * x, p) == 0

    @given(nonzero_rationals, nonzero_rationals, st.sampled_from(ODD_PRIMES_TO_97))
    def test_multiplicative(self, x, y, p):
        assert square_class(x * y, p) == square_class(x, p) ^ square_class(y, p)


class TestSqrtClass:
    def test_square_of_uniformizer(self):
        assert sqrt_class(25, 5) == PI

    def test_root_of_four(self):
        # both roots 2 and 3 of 4 mod 5 are non-residues: 4 is no fourth power
        assert sqrt_class(4, 5) == U

    def test_root_of_nine_mod_seven(self):
        # of the roots 3 and 4 of 9 mod 7, the class is that of the square 4
        assert sqrt_class(9, 7) == 0

    @given(nonzero_rationals, st.sampled_from(ODD_PRIMES_TO_97))
    def test_root_class_against_known_root(self, r, p):
        # the roots of r^2 are +-r, so the class matches r up to {-1}
        cls = sqrt_class(r * r, p)
        assert cls in (square_class(r, p), square_class(r, p) ^ square_class(-1, p))

    def test_against_tonelli_shanks(self):
        """Every odd p < 200, v in {0, 2} and residue u: the class is that of
        the root r = p^(v/2) sqrt_mod(u, p) or of -r; it is that of r for
        p = 1 mod 4, and has unit bit 0 for p = 3 mod 4."""
        for p in filter(is_prime, range(3, 200, 2)):
            minus_one = square_class_vu(0, -1, p)
            differs = False
            for v in (0, 2):
                for u in {x * x % p for x in range(1, p)}:
                    got = sqrt_class(p**v * u, p)
                    want = square_class_vu(v // 2, sqrt_mod(u, p), p)
                    assert got in (want, want ^ minus_one), (v, u, p)
                    if p % 4 == 1:
                        assert got == want, (v, u, p)
                    else:
                        assert got & U == 0, (v, u, p)
                        differs = differs or got != want
            # past p = 3 some canonical root is a non-residue mod p = 3 mod 4
            assert differs == (p % 4 == 3 and p > 3), p


class TestCupTable:
    def test_u_cup_p(self):
        assert cup_qp(U, PI, 5) == 1 == cup_qp(PI, U, 5)
        assert cup_qp(U, U, 5) == 0

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_97)
    def test_u_cup_u(self, p):
        assert cup_qp(U, U, p) == 0

    def test_p_cup_p(self):
        assert cup_qp(PI, PI, 7) == 1
        assert cup_qp(PI, PI, 5) == 0

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_97)
    def test_p_cup_p_is_neg_one_cup_p(self, p):
        assert cup_qp(PI, PI, p) == cup_qp(square_class(-1, p), PI, p)

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_97)
    def test_symmetry_all_pairs(self, p):
        for c1 in CLASSES:
            for c2 in CLASSES:
                assert cup_qp(c1, c2, p) == cup_qp(c2, c1, p)

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_97)
    def test_bilinear_all_triples(self, p):
        for c1 in CLASSES:
            for c2 in CLASSES:
                for c3 in CLASSES:
                    assert cup_qp(c1 ^ c2, c3, p) == cup_qp(c1, c3, p) ^ cup_qp(c2, c3, p)
                    assert cup_qp(c3, c1 ^ c2, p) == cup_qp(c3, c1, p) ^ cup_qp(c3, c2, p)


class TestRealPlace:
    def test_sign_classes(self):
        # paired with -1, the cup at R is 1/2 exactly when the class is {-1}
        for x in (-3, -1, Fraction(-2, 7)):
            assert delta2_local(x, -1, REAL) == 1
            assert delta2_local(-1, x, REAL) == 1
        for x in (3, 1, Fraction(2, 7)):
            assert delta2_local(x, -1, REAL) == 0
            assert delta2_local(-1, x, REAL) == 0

    def test_invariant_is_an_int_bit(self):
        assert type(delta2_local(-1, -1, REAL)) is int
        assert type(delta2_local(3, 7, 7)) is int

    def test_cup(self):
        assert delta2_local(-1, -1, REAL) == 1
        assert delta2_local(-1, 1, REAL) == 0
        assert delta2_local(1, -1, REAL) == 0
        assert delta2_local(1, 1, REAL) == 0


class TestDelta2Local:
    @pytest.mark.parametrize("p", (3, 5, 7, 13))
    def test_nonresidue_times_uniformizer(self, p):
        u = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
        for x, y in ((1, 1), (3, 2), (Fraction(5, 7), 4)):
            assert delta2_local(u * y * y, p * x * x, p) == 1

    def test_minus_one_five_vanishes(self):
        assert delta2_local(-1, 5, 5) == 0

    @pytest.mark.parametrize("place", (5, REAL))
    def test_zero_rejected_at_every_place(self, place):
        # both coordinates are validated, whatever the sign of the other
        for b, a in ((0, 5), (5, 0), (-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                delta2_local(b, a, place)

    @given(nonzero_rationals, nonzero_rationals, st.sampled_from(ODD_PRIMES_TO_97))
    def test_unramified_vanishes(self, b, a, p):
        # p must miss b and a separately: (7u, v/7) cancels in the product
        # but still cups nontrivially at 7
        from nilobstruct.arith import valuation

        if valuation(b, p) != 0 or valuation(a, p) != 0:
            return
        assert delta2_local(b, a, p) == 0

    @given(nonzero_rationals, nonzero_rationals, nonzero_rationals, st.sampled_from([*ODD_PRIMES_TO_97, REAL]))
    def test_bilinear(self, b1, b2, a, v):
        lhs = delta2_local(b1 * b2, a, v)
        rhs = delta2_local(b1, a, v) ^ delta2_local(b2, a, v)
        assert lhs == rhs


def _random_rationals(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        num = rng.randint(-500, 500)
        den = rng.randint(1, 200)
        q = Fraction(num, den)
        if q not in (0, 1):
            out.append(q)
    return out


def test_steinberg_locally():
    """delta2(x, 1-x) vanishes at every odd place and at R, 200 random x."""
    for x in _random_rationals(200, seed=7):
        for v in [*Point.of(x, 1 - x).primes(), REAL]:
            assert delta2_local(x, 1 - x, v) == 0


def test_bilinearity_500_random_triples():
    rng = random.Random(9)
    places = [*ODD_PRIMES_TO_97, REAL]
    for _ in range(500):
        v = rng.choice(places)
        b1 = Fraction(rng.randint(1, 400) * rng.choice((-1, 1)), rng.randint(1, 50))
        b2 = Fraction(rng.randint(1, 400) * rng.choice((-1, 1)), rng.randint(1, 50))
        a = Fraction(rng.randint(1, 400) * rng.choice((-1, 1)), rng.randint(1, 50))
        assert delta2_local(b1 * b2, a, v) == delta2_local(b1, a, v) ^ delta2_local(b2, a, v)


def test_tangential_images_unobstructed():
    for w in _random_rationals(50, seed=8):
        points = [(w, Fraction(1)), (Fraction(1), -w), (1 / w, -1 / w), (-w, w)]
        for b, a in points:
            for v in [*Point.of(b, a).primes(), REAL]:
                assert delta2_local(b, a, v) == 0
