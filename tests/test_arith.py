from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from conftest import ODD_PRIMES_TO_97
from nilobstruct import cli
from nilobstruct.arith import (
    Factorization,
    InvalidPrimeError,
    NotAUnitError,
    factor,
    factor_int,
    is_fourth_power_mod,
    is_prime,
    legendre,
    parse_rational,
    sqrt_mod,
    unit_residue,
    valuation,
)
from nilobstruct.obstruct import report

nonzero_rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
).filter(lambda q: q != 0)


class TestFactor:
    def test_small_composite(self):
        assert factor(12) == Factorization(1, ((2, 2), (3, 1)))

    def test_signed_rational(self):
        assert factor(Fraction(-45, 7)) == Factorization(-1, ((3, 2), (5, 1), (7, -1)))

    def test_one(self):
        assert factor(1) == Factorization(1, ())

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert factor(p * q) == Factorization(1, ((p, 1), (q, 1)))

    @given(nonzero_rationals, nonzero_rationals)
    def test_multiplicative(self, x, y):
        fx, fy, fxy = factor(x), factor(y), factor(x * y)
        merged = {}
        for p, e in fx.factors + fy.factors:
            merged[p] = merged.get(p, 0) + e
        want = tuple(sorted((p, e) for p, e in merged.items() if e != 0))
        assert fxy == Factorization(fx.sign * fy.sign, want)

    @given(nonzero_rationals)
    def test_reconstructs_value(self, x):
        assert factor(x).value() == x

    @given(nonzero_rationals)
    def test_factors_are_sorted_certified_primes(self, x):
        f = factor(x)
        primes = f.primes()
        assert list(primes) == sorted(primes)
        assert all(is_prime(p) for p in primes)
        assert all(e != 0 for _, e in f.factors)


class TestLegendre:
    def test_four_mod_five_is_square(self):
        assert legendre(4, 5) == 1

    def test_nonresidue(self):
        # squares mod 5 are {1, 4}
        assert legendre(2, 5) == -1

    def test_divisible(self):
        assert legendre(10, 5) == 0

    @pytest.mark.parametrize("p", (2, 4, 9, 15, 1))
    def test_invalid_prime(self, p):
        with pytest.raises(InvalidPrimeError):
            legendre(3, p)

    @given(st.sampled_from(ODD_PRIMES_TO_97), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_multiplicative(self, p, a, b):
        if a % p == 0 or b % p == 0:
            return
        assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_97[:6])
    def test_exhaustive_against_squares(self, p):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)


class TestSqrtMod:
    def test_canonical_root(self):
        assert sqrt_mod(4, 5) == 2

    def test_derived_root(self):
        assert sqrt_mod(2, 7) == 3

    def test_nonresidue_is_none(self):
        assert sqrt_mod(3, 5) is None

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_97)
    def test_root_properties(self, p):
        for a in range(1, p):
            s = sqrt_mod(a, p)
            if legendre(a, p) != 1:
                assert s is None
            else:
                assert s is not None and s * s % p == a and 1 <= s <= (p - 1) // 2


class TestFourthPower:
    def test_square_but_not_fourth(self):
        # 4 = (-1) + 5 is a square but not a fourth power mod 5
        assert legendre(4, 5) == 1
        assert not is_fourth_power_mod(4, 5)

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_97)
    def test_one_is_fourth_power(self, p):
        assert is_fourth_power_mod(1, p)

    def test_sixteen_mod_seventeen(self):
        fourths = {pow(t, 4, 17) for t in range(1, 17)}
        assert (16 in fourths) == is_fourth_power_mod(16, 17)
        assert is_fourth_power_mod(16, 17)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnitError):
            is_fourth_power_mod(10, 5)

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_97)
    def test_subgroup_index(self, p):
        fourths = {a for a in range(1, p) if is_fourth_power_mod(a, p)}
        squares = {a for a in range(1, p) if legendre(a, p) == 1}
        assert fourths <= squares
        index = len(squares) // len(fourths)
        assert index == (2 if p % 4 == 1 else 1)
        assert fourths == {pow(t, 4, p) for t in range(1, p)}


class TestValuation:
    @pytest.mark.parametrize("p,want", ((3, 2), (7, -1), (11, 0), (5, 1)))
    def test_signed_rational(self, p, want):
        assert valuation(Fraction(-45, 7), p) == want

    @given(nonzero_rationals, st.sampled_from(ODD_PRIMES_TO_97))
    def test_matches_factorization(self, x, p):
        assert valuation(x, p) == factor(x).exponent(p)

    @given(nonzero_rationals, st.sampled_from(ODD_PRIMES_TO_97))
    def test_unit_residue_is_a_unit(self, x, p):
        r = unit_residue(x, p)
        assert 1 <= r < p and gcd(r, p) == 1


class TestParse:
    @pytest.mark.parametrize(
        "text,want",
        (("-1", Fraction(-1)), ("3/5", Fraction(3, 5)), ("  7 ", Fraction(7)), ("-12/8", Fraction(-3, 2))),
    )
    def test_valid(self, text, want):
        assert parse_rational(text) == want

    @pytest.mark.parametrize("text", ("", "0", "0/5", "1.5", "1/0", "a", "--3", "1/-2"))
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_is_prime_small():
    primes_below_100 = {p for p in range(100) if is_prime(p)}
    want = {2, *ODD_PRIMES_TO_97}
    assert primes_below_100 == want


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(1_000_003 * 1_000_033)
    assert is_prime(2**61 - 1)


# Sorenson and Webster (Math. Comp. 2017): the least strong pseudoprime to
# the twelve prime bases 2..37; base 41 exposes it.
PSI_12 = 318665857834031151167461


def test_is_prime_rejects_psi_12():
    assert not is_prime(PSI_12)


def test_factor_int_splits_psi_12():
    assert factor_int(PSI_12) == {399165290221: 1, 798330580441: 1}


# The least strong pseudoprime to the thirteen prime bases 2..41 (same
# source).  is_prime still accepts it; Tonelli-Shanks then finds a unit
# whose 2-power order reaches the bound no prime modulus allows.
PSI_13 = 3317044064679887385961981


def test_report_rejects_psi_13():
    with pytest.raises(InvalidPrimeError):
        report(-PSI_13, 345997)


def test_cli_rejects_psi_13(capsys):
    assert cli.main(["report", str(-PSI_13), "345997"]) == 2
    assert "is not prime" in capsys.readouterr().err


def _trial_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factor_int_matches_trial_division():
    """Every small n, and the shapes Pollard rho meets first once the primes
    up to 47 are divided out: prime powers and products of primes above 47."""
    primes = [p for p in range(53, 1000) if _trial_division(p) == {p: 1}]
    mid = [p for p in primes if p < 500]
    cases = list(range(1, 20000))
    cases += [p**k for p in primes for k in range(1, 5)]
    cases += [p * q for p in mid for q in mid] + [p * p * q for p in mid for q in mid]
    cases.append(1000003 * 53**2)
    for n in cases:
        assert factor_int(n) == _trial_division(n), n
