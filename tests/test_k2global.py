import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import ODD_PRIMES_TO_97, next_prime
from nilobstruct.arith import Point, legendre, local_part, valuation
from nilobstruct.k2global import decompose_2adic, symbol_at_2, tame_symbol_odd
from nilobstruct.localclass import REAL, delta2_local
from nilobstruct.obstruct import delta2_global, report

nonzero_rationals = st.fractions(
    min_value=Fraction(-10**5), max_value=Fraction(10**5), max_denominator=10**3
).filter(lambda q: q != 0)


def tame_symbol_oracle(b, a, p):
    """Evaluate the symbol as one exact rational, then reduce mod p.

    (-1)^{v(b)v(a)} b^{v(a)} a^{-v(b)} is a p-unit; this computes it in Q
    with Fraction arithmetic, independently of the modular fast path.
    """
    b, a = Fraction(b), Fraction(a)
    vb, va = valuation(b, p), valuation(a, p)
    t = Fraction(-1) ** (vb * va) * b**va / a**vb
    v, u = local_part(t, p)
    assert v == 0
    return u


class TestTameSymbol:
    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_p_minus_p(self, p):
        assert tame_symbol_odd(p, -p, p).value == 1

    def test_unramified_is_trivial(self):
        assert tame_symbol_odd(3, 7, 11).trivial

    def test_five_seven_at_five(self):
        # v_5(5)=1, v_5(7)=0: the symbol is 7^{-1} = 3 mod 5; the exact
        # rational oracle agrees.
        got = tame_symbol_odd(5, 7, 5)
        assert got.value == tame_symbol_oracle(5, 7, 5) == 3

    @given(nonzero_rationals, nonzero_rationals, st.sampled_from(ODD_PRIMES_TO_97))
    def test_matches_exact_oracle(self, b, a, p):
        assert tame_symbol_odd(b, a, p).value == tame_symbol_oracle(b, a, p)

    @given(nonzero_rationals, nonzero_rationals, nonzero_rationals, st.sampled_from(ODD_PRIMES_TO_97))
    def test_bimultiplicative(self, b1, b2, a, p):
        lhs = tame_symbol_odd(b1 * b2, a, p).value
        rhs = tame_symbol_odd(b1, a, p).value * tame_symbol_odd(b2, a, p).value % p
        assert lhs == rhs


class TestSymbolAtTwo:
    def test_decompositions(self):
        assert decompose_2adic(5) == (0, 0, 1)
        assert decompose_2adic(-1) == (1, 0, 0)
        assert decompose_2adic(24) == (1, 3, 1)
        assert decompose_2adic(Fraction(3, 8)) == (1, -3, 1)
        assert decompose_2adic(Fraction(-5, 48)) == (0, -4, 0)
        assert decompose_2adic(Fraction(7, 1024)) == (1, -10, 0)

    @given(nonzero_rationals)
    def test_decomposition_reconstructs(self, x):
        i, j, k = decompose_2adic(x)
        u = x * Fraction(-1) ** i * Fraction(5) ** -k / Fraction(2) ** j
        assert u.numerator * pow(u.denominator, -1, 8) % 8 == 1

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19))
    def test_p_minus_p(self, p):
        assert symbol_at_2(p, -p).value == 1

    @given(nonzero_rationals)
    def test_one_left_unit(self, a):
        assert symbol_at_2(1, a).value == 1

    def test_two_five(self):
        assert symbol_at_2(2, 5).value == -1

    @given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
    def test_bimultiplicative(self, b1, b2, a):
        assert symbol_at_2(b1 * b2, a).value == symbol_at_2(b1, a).value * symbol_at_2(b2, a).value


class TestDelta2Global:
    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_p_minus_p_zero(self, p):
        verdict = delta2_global(p, -p)
        assert verdict.zero and verdict.k2_zero

    def test_minus_one_five_layers(self):
        verdict = delta2_global(-1, 5)
        assert verdict.zero
        # the full K2 layer genuinely differs: the tame symbol at 5 is the
        # nontrivial square 4
        assert not verdict.k2_zero
        assert [(w.place, w.value) for w in verdict.k2_witnesses] == [(5, 4)]

    @pytest.mark.parametrize("p,u", ((5, 2), (7, 3), (13, 2)))
    def test_nonresidue_uniformizer_nonzero(self, p, u):
        verdict = delta2_global(u * 9, p * 4)
        assert not verdict.zero
        assert any(w.place == p for w in verdict.witnesses)

    @given(nonzero_rationals)
    def test_steinberg(self, x):
        if x == 1:
            return
        verdict = delta2_global(x, 1 - x)
        assert verdict.zero and verdict.k2_zero


def _random_pairs(count, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        b = Fraction(rng.randint(-300, 300), rng.randint(1, 60))
        a = Fraction(rng.randint(-300, 300), rng.randint(1, 60))
        if b and a:
            pairs.append((b, a))
    return pairs


def test_reciprocity_500_random():
    """XOR of odd/real invariants == nontriviality of the symbol at 2."""
    for b, a in _random_pairs(500, seed=11):
        places = [*Point.of(b, a).primes(), REAL]
        xor = 0
        for v in places:
            xor ^= delta2_local(b, a, v)
        assert (xor == 1) == (symbol_at_2(b, a).value == -1)


def test_tame_symbol_mod2_image_is_local_invariant():
    for b, a in _random_pairs(300, seed=12):
        for p in Point.of(b, a).primes():
            if p > 97:
                continue
            symbol = tame_symbol_odd(b, a, p)
            assert (legendre(symbol.value, p) == -1) == (delta2_local(b, a, p) == 1)


@given(st.data())
def test_report_witnesses_are_the_non_square_tame_symbols(data):
    """report() lists a tame symbol as a mod-2 witness from the local
    invariant bits; the reference takes the Legendre symbol of each tame
    symbol instead, at points built from primes up to 10^6.  The verdict is
    rebuilt from the symbols: delta2 vanishes iff no odd symbol is a
    non-square and the symbol at 2 is 1, and the K2 witnesses are the odd
    symbols other than 1, then the symbol at 2 if it is -1."""
    primes = data.draw(st.lists(st.integers(3, 999983).map(next_prime), min_size=1, max_size=3))
    exponents = st.integers(-3, 3)
    units = st.integers(-60, 60).filter(bool)
    b, a = Fraction(data.draw(units)), Fraction(data.draw(units))
    for p in primes:
        b *= Fraction(p) ** data.draw(exponents)
        a *= Fraction(p) ** data.draw(exponents)
    rep = report(b, a)
    symbols = [tame_symbol_odd(b, a, p) for p in Point.of(b, a).primes()]
    want = [s for s in symbols if legendre(s.value, s.place) == -1]
    assert [w for w in rep.delta2.witnesses if w.place != 2] == want
    two = symbol_at_2(b, a)
    at_2 = [two] if two.value == -1 else []
    assert rep.delta2.zero == (not want and two.value == 1)
    assert list(rep.delta2.k2_witnesses) == [s for s in symbols if s.value != 1] + at_2


def test_global_zero_implies_local_zero():
    for b, a in _random_pairs(400, seed=13):
        verdict = delta2_global(b, a)
        if verdict.zero:
            for v in [*Point.of(b, a).primes(), REAL]:
                assert delta2_local(b, a, v) == 0
