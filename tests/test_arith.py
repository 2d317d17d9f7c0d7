import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import ODD_PRIMES_TO_97
from nilobstruct import arith, cli
from nilobstruct.arith import (
    Factorization,
    InvalidPrimeError,
    NotAUnitError,
    factor,
    factor_int,
    is_fourth_power_mod,
    is_prime,
    legendre,
    local_data,
    local_part,
    parse_rational,
    sqrt_mod,
    valuation,
)
from nilobstruct.k2global import tame_symbol_odd
from nilobstruct.localclass import delta2_local
from nilobstruct.obstruct import (
    _delta3_odd,
    delta3_at,
    delta3_global_family,
    delta3_specific_lift_family,
    report,
)

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
        v, r = local_part(x, p)
        assert v == valuation(x, p)
        assert 1 <= r < p and gcd(r, p) == 1


class TestParse:
    @pytest.mark.parametrize(
        "text,want",
        (("-1", Fraction(-1)), ("3/5", Fraction(3, 5)), ("  7 ", Fraction(7)), ("-12/8", Fraction(-3, 2))),
    )
    def test_valid(self, text, want):
        assert parse_rational(text) == want

    # Then an Arabic-Indic three and a fullwidth one-two over it, which
    # Fraction() alone would read, and a 7 beside an ideographic or a
    # no-break space, which str.strip() alone would remove.
    @pytest.mark.parametrize(
        "text",
        ("", "0", "0/5", "1.5", "1/0", "a", "--3", "1/-2", "\u0663", "\uff11\uff12/\u0663", "\u30007", "7\u00a0"),
    )
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    # The Python API takes an int or a Fraction; text goes through
    # parse_rational, and a float is not an exact rational.
    @pytest.mark.parametrize("x", ("7", 0.1, "1/0"))
    def test_report_takes_only_int_or_fraction(self, x):
        with pytest.raises(TypeError, match="int or Fraction"):
            report(x, 5)


# Each public function that takes a prime, by name, applied to that prime.
# "delta3_local_odd" is local delta3 at an odd prime by the route report()
# takes, local_data and then the odd-place table, without delta3_at's
# dispatch.
PRIME_TAKERS = {
    "valuation": lambda p: valuation(50, p),
    "legendre": lambda p: legendre(2, p),
    "sqrt_mod": lambda p: sqrt_mod(2, p),
    "tame_symbol_odd": lambda p: tame_symbol_odd(3, 5, p),
    "delta2_local": lambda p: delta2_local(3, 5, p),
    "delta3_local_odd": lambda p: _delta3_odd(*local_data(3, 5, p), p),
    "delta3_at": lambda p: delta3_at(3, 5, p),
    "delta3_specific_lift_family": delta3_specific_lift_family,
    "delta3_global_family": delta3_global_family,
}


# A prime that is not an int is refused by its type in is_prime, before any
# arithmetic sees it.
@pytest.mark.parametrize("p", (5.0, "5", "r"))
@pytest.mark.parametrize("name", PRIME_TAKERS)
def test_prime_must_be_an_int(name, p):
    with pytest.raises(TypeError, match=f"expected an int, got {type(p).__name__}"):
        PRIME_TAKERS[name](p)


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
# source).  Miller-Rabin passes it; the strong Lucas test of BPSW does not,
# so rho splits it and its two factors become places.
PSI_13 = 3317044064679887385961981
PSI_13_FACTORS = (1287836182261, 2575672364521)


@pytest.mark.parametrize("b, a", ((PSI_13, 5), (5 * PSI_13, 7)), ids=("psi13_5", "5psi13_7"))
def test_report_splits_psi_13(b, a):
    places = {place for place, _ in report(b, a).delta2_local}
    assert places >= set(PSI_13_FACTORS) and PSI_13 not in places


def test_cli_splits_psi_13(capsys):
    """Taken as a prime, psi_13 would send this point's Tonelli-Shanks run
    into the composite-modulus guard (exit 2)."""
    assert cli.main(["report", "--json", str(-PSI_13), "345997"]) == 0
    payload = json.loads(capsys.readouterr().out)
    places = {entry["place"] for entry in payload["delta2"]["local"]}
    assert places >= {str(p) for p in PSI_13_FACTORS} and str(PSI_13) not in places


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


def test_as_rational_returns_a_fraction_itself():
    x = Fraction(-3, 5)
    assert arith.as_rational(x) is x

    class Sub(Fraction):
        pass

    for value in (Sub(3, 5), 7, True):
        got = arith.as_rational(value)
        assert type(got) is Fraction and got == value
    with pytest.raises(ValueError):
        arith.as_rational(Fraction(0))


def test_unit_residues_of_integers_take_no_inverse(monkeypatch):
    """Every factor of these points is at most 47, so factoring takes no
    modular power, and Point.of's only powers are the inverses of the
    denominators: none for an integer point, one per unit residue whose
    denominator is not 1 after dividing out p."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(arith, "pow", counting_pow, raising=False)
    point = arith.Point.of(-45 * 7**3, 110)
    assert calls == [] and point.primes() == (3, 5, 7, 11)
    point = arith.Point.of(Fraction(3, 7), Fraction(5, 49))
    assert point.primes() == (3, 5, 7)
    # Inverses of 7 and 49 at 3 and at 5; at 7 both unit parts are integers.
    assert sorted(calls) == sorted([(7, -1, 3), (49, -1, 3), (7, -1, 5), (49, -1, 5)])


def test_factor_int_matches_trial_division():
    """Every n <= 10^5, and the shapes Pollard rho meets first once the
    primes up to 47 are divided out: prime powers and products of primes
    above 47."""
    primes = [p for p in range(53, 1000) if _trial_division(p) == {p: 1}]
    mid = [p for p in primes if p < 500]
    cases = list(range(1, 10**5 + 1))
    cases += [p**k for p in primes for k in range(1, 5)]
    cases += [p * q for p in mid for q in mid] + [p * p * q for p in mid for q in mid]
    cases.append(1000003 * 53**2)
    for n in cases:
        assert factor_int(n) == _trial_division(n), n


# Around 53^2 = 2809, below which a cofactor with no prime factor <= 47 is
# prime with no modular power: the primes 2801 and 2803, 53^2 itself, 53 * 59,
# and 47 * 61, whose cofactor 61 is left after trial division.
@pytest.mark.parametrize("n", (2801, 2803, 2809, 53 * 59, 47 * 61, 2809 * 53, 2801 * 2803))
def test_factor_int_around_53_squared(n):
    assert factor_int(n) == _trial_division(n)
    rough = n // 47 if n % 47 == 0 else n
    assert arith._is_rough_prime(rough) == (_trial_division(rough) == {rough: 1})


@pytest.mark.parametrize(
    "n, primes",
    (
        (2**5 * 3 * 1000003, (1000003,)),
        (53 * 59 * 61, (53, 59, 61)),
        (2801**3, (2801,) * 3),
        (47 * 1000003 * 1000033, (1000003, 1000033)),
        (1000003 * 1000033 * 1000037, (1000003, 1000033, 1000037)),
        (1048583 * 1000003, (1048583, 1000003)),
        (5 * 1048583**3, (1048583,) * 3),
    ),
)
def test_factor_int_trial_divides_each_cofactor_once(monkeypatch, n, primes):
    """factor_int divides out the primes <= 47 once, up front.  Every
    cofactor from 2^20 up then goes to the kernel _is_rough_prime exactly
    once, never through is_prime's trial division, and every cofactor from
    53^2 up to 2^20 goes to the table instead.  Here a rough part below 2^20
    leaves no cofactor from 2^20 up; k copies of one prime, for a prime k,
    leave the power and the root if the root is at least 2^20; k distinct
    primes, any two with a product from 2^20 up, leave the k - 1 splits and
    each prime from 2^20 up."""
    large = sum(p >= 2**20 for p in set(primes))
    if prod(primes) < 2**20:
        rough = 0
    elif len(set(primes)) == 1 < len(primes):
        rough = 1 + large
    else:
        rough = len(primes) - 1 + large
    seen, looked = [], []
    kernel = arith._is_rough_prime
    table_primes, table = arith._factor_table()

    class Looked:
        def __getitem__(self, j):
            looked.append(2 * j + 1)
            return table[j]

    def counted(m):
        assert all(m % p for p in arith._SMALL_PRIMES), m
        assert m >= 2**20, m
        seen.append(m)
        return kernel(m)

    def forbidden(m):
        raise AssertionError(f"factor_int trial-divided {m} again")

    monkeypatch.setattr(arith, "is_prime", forbidden)
    monkeypatch.setattr(arith, "_is_rough_prime", counted)
    monkeypatch.setattr(arith, "_factor_table", lambda: (table_primes, Looked()))
    assert {p: e for p, e in factor_int(n).items() if p > 47} == {p: primes.count(p) for p in primes}
    assert len(seen) == len(set(seen)) == rough
    assert sorted(m for m in seen if kernel(m)) == sorted(p for p in set(primes) if p >= 2**20)
    assert all(m < 2**20 for m in looked)
    assert {p for p in primes if 2809 <= p < 2**20} <= set(looked)


def test_factor_table_calls_m_prime_exactly_when_the_kernel_does():
    """The table calls every odd m < 2^20 with no prime factor <= 47 prime
    exactly when _is_rough_prime does, and names a prime factor of every
    other.  About 0.6 s."""
    table_primes, table = arith._factor_table()
    rough = bytearray([1]) * len(table)  # entry j: the odd m = 2j + 1
    rough[0] = 0
    for p in arith._SMALL_PRIMES[1:]:
        rough[p >> 1 :: p] = bytes(len(range(p >> 1, len(rough), p)))
    odd = [2 * j + 1 for j in itertools.compress(range(len(rough)), rough)]
    assert [m for m in odd if not table[m >> 1]] == [m for m in odd if arith._is_rough_prime(m)]
    assert all(m % table_primes[table[m >> 1] - 1] == 0 for m in odd if table[m >> 1])


def test_factor_int_matches_trial_division_around_the_table_limit(monkeypatch):
    """factor_int agrees with trial division on 2^20 +- 5000, on the largest
    table primes, around 53^2, and on 1000003 * 1000033; 1031 * 1033, just
    above the limit, goes to rho.  About 0.5 s."""
    cases = list(range(2**20 - 5000, 2**20 + 5001))
    cases += [1048573, 1048575, 1048577, 1021**2, 1019 * 1021, 2801, 2809, 53 * 59 * 61]
    cases += [1000003, 1000003 * 1000033]
    assert [factor_int(n) for n in cases] == [_trial_division(n) for n in cases]

    calls = []
    rho = arith._pollard_rho

    def counted(m):
        calls.append(m)
        return rho(m)

    monkeypatch.setattr(arith, "_pollard_rho", counted)
    assert factor_int(1031 * 1033) == {1031: 1, 1033: 1}
    assert calls == [1031 * 1033]


def test_factor_int_splits_small_composites_by_the_table_alone(monkeypatch):
    """Every odd composite below 2e5 with no prime factor <= 47 is split by
    table lookups, with no Miller-Rabin and no rho."""
    composites = [
        n for n in range(2809, 200_000, 2) if all(n % p for p in arith._SMALL_PRIMES) and not is_prime(n)
    ]

    def forbidden(m):
        raise AssertionError(f"factor_int left the table on {m}")

    monkeypatch.setattr(arith, "_pollard_rho", forbidden)
    monkeypatch.setattr(arith, "_is_rough_prime", forbidden)
    split = [factor_int(n) for n in composites]
    monkeypatch.undo()
    for n, factors in zip(composites, split):
        assert prod(p**e for p, e in factors.items()) == n and sum(factors.values()) > 1, n
        assert all(is_prime(p) for p in factors), n


@given(st.integers(min_value=1, max_value=2**24))
def test_factor_int_matches_trial_division_across_the_table_limit(n):
    assert factor_int(n) == _trial_division(n)


def test_factor_table_is_built_on_the_first_cofactor_that_needs_it():
    """Neither report(-1, 5), the warm-up call of the benchmark, nor a verify
    pass, nor a cofactor below 53^2 builds the table; the first cofactor from
    53^2 up to 2^20 does, once."""
    code = (
        "import nilobstruct\n"
        "from nilobstruct import arith, verify\n"
        "nilobstruct.report(-1, 5)\n"
        "assert arith.factor_int(2 * 2801) == {2: 1, 2801: 1}\n"
        "assert arith._factor_table.cache_info().currsize == 0\n"
        "verify.run_suites(suite='cochain', max_order=2)\n"
        "assert arith._factor_table.cache_info().currsize == 0\n"
        "nilobstruct.report(53 * 59, 7)\n"
        "nilobstruct.report(53 * 59, 7)\n"
        "assert arith._factor_table.cache_info().misses == 1\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_factor_int_splits_prime_powers_without_rho(monkeypatch):
    """A cofactor that is a prime power is split by its root, with no rho:
    p^2, p^3, p^6 and 47 p^2 for the 15-digit prime p, and 53^3, the least
    cube the root test sees."""

    def forbidden(n):
        raise AssertionError(f"factor_int ran rho on {n}")

    monkeypatch.setattr(arith, "_pollard_rho", forbidden)
    p = 999999999999989
    for n, want in ((p**2, {p: 2}), (p**3, {p: 3}), (p**6, {p: 6}), (47 * p**2, {47: 1, p: 2}), (53**3, {53: 3})):
        assert factor_int(n) == want


@pytest.mark.parametrize("k", (3, 5))
def test_factor_int_splits_a_composite_root_once(monkeypatch, k):
    """A power of a composite root goes to rho once: the root of
    (1000003 * 1000033)^k is split by one _pollard_rho call, and each of its
    primes takes the exponent k."""
    calls = []
    rho = arith._pollard_rho

    def counted(m):
        calls.append(m)
        return rho(m)

    monkeypatch.setattr(arith, "_pollard_rho", counted)
    assert factor_int((1000003 * 1000033) ** k) == {1000003: k, 1000033: k}
    assert calls == [1000003 * 1000033]


def test_prime_power_root_finds_every_prime_exponent():
    """r^k gives (r, k) for primes r and k, from 53^2 up, with the root
    taken by isqrt or by Newton from its float estimate; r^k + 2, no power,
    gives (r^k + 2, 1)."""
    for r in (53, 2801, 999999999999989, 2**127 - 1):
        for k in (k for k in range(2, 60) if is_prime(k)):
            assert arith._prime_power_root(r**k) == (r, k)
            assert arith._prime_power_root(r**k + 2) == (r**k + 2, 1)


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# psi_k, the least strong pseudoprime to the first k prime bases, for
# k = 1..13 (OEIS A014233; Jaeschke 1993; Sorenson and Webster 2017).
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def test_mr_bases_are_the_first_primes_paired_with_psi():
    assert [a for a, _ in arith._MR_BASES] == [p for p in range(2, 42) if _trial_division(p) == {p: 1}]
    assert [psi for _, psi in arith._MR_BASES] == list(A014233)


@pytest.mark.parametrize("k, psi", enumerate(A014233, 1))
def test_psi_k_fools_exactly_its_bases(k, psi):
    """psi_k is composite (a failed strong test is a witness) and fools the
    first k bases; base k+1 catches it unless psi_(k+1) is the same number,
    so the early exit after base k stops where it has to."""
    bases = [a for a, _ in arith._MR_BASES]
    assert not all(_strong_probable_prime(psi, a) for a in (43, 47, 53))
    assert all(_strong_probable_prime(psi, a) for a in bases[:k])
    assert k == len(bases) or _strong_probable_prime(psi, bases[k]) == (A014233[k] == psi)


def test_is_prime_matches_a_sieve():
    limit = 300_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


# Sinclair's seven bases make Miller-Rabin deterministic below 2^64.
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _reference_is_prime(n):
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    return n > 1 and all(a % n == 0 or _strong_probable_prime(n, a % n) for a in _SINCLAIR_BASES)


def test_is_prime_matches_a_reference_below_1e15():
    rng = random.Random(20171)
    for _ in range(200_000):
        n = rng.randrange(3, 10**15, 2)
        assert is_prime(n) == _reference_is_prime(n), n


@pytest.mark.parametrize("p", (1000003, 1373677, 9999991))
def test_seven_digit_prime_costs_at_most_three_powers(monkeypatch, p):
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(arith, "pow", counting_pow, raising=False)
    assert is_prime(p)
    assert 1 <= len(calls) <= 3


# The strong Lucas pseudoprimes (Selfridge's parameters) below 2e4, OEIS A217255.
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)


def test_strong_lucas_test_alone():
    accepted = {n for n in range(3, 20000, 2) if arith._is_strong_lucas_prp(n)}
    primes = {n for n in range(3, 20000, 2) if _trial_division(n) == {n: 1}}
    assert accepted == primes | set(STRONG_LUCAS_PSEUDOPRIMES)


def test_is_prime_above_psi_13():
    """Primes there pass the Lucas step too; composites, a Carmichael number
    (6k+1)(12k+1)(18k+1) among them, are rejected."""
    k = 14000240
    assert all(is_prime(m * k + 1) for m in (6, 12, 18))
    assert not is_prime((6 * k + 1) * (12 * k + 1) * (18 * k + 1))
    assert not is_prime(PSI_13 * 1000003)
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)


def _brent_one_gcd_per_step(n):
    """Brent's rho of arith._pollard_rho with a gcd after every step: the
    divisor the batched version must find for a product of two primes."""
    for c in range(1, 100):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g
    raise ArithmeticError(n)


def _seeded_semiprimes(count):
    """count products of two primes drawn from (1021, 10^7)."""
    rng = random.Random(35)

    def prime():
        while not is_prime(p := rng.randrange(1023, 10**7, 2)):
            pass
        return p

    return [prime() * prime() for _ in range(count)]


def test_pollard_rho_finds_a_proper_divisor():
    """Every odd composite below 2e5 with no prime factor up to 47, and 300
    seeded products of two primes in (1021, 10^7), which run full batches
    and some backtracks; for a product of two primes the batched gcd,
    backtrack included, finds the divisor a gcd per step finds."""
    for n in range(53 * 53, 200_000, 2):
        if any(n % p == 0 for p in arith._SMALL_PRIMES):
            continue
        factors = _trial_division(n)
        if factors == {n: 1}:
            continue
        d = arith._pollard_rho(n)
        assert 1 < d < n and n % d == 0, n
        if sum(factors.values()) == 2:
            assert d == _brent_one_gcd_per_step(n), n
    for n in _seeded_semiprimes(300):
        assert arith._pollard_rho(n) == _brent_one_gcd_per_step(n), n


def test_rho_work_bound_refuses_with_exit_2(monkeypatch):
    """With the cap of Brent's r lowered to 2^6, the 13-digit semiprime
    1000003 * 1000033 (about 1000 steps) runs out of budget: factor_int
    raises FactoringBudgetError naming it, and the CLI exits 2."""
    n = 1000003 * 1000033
    monkeypatch.setattr(arith, "_RHO_MAX_R", 1 << 6)
    with pytest.raises(arith.FactoringBudgetError, match=f"of {n} "):
        factor_int(n)
    assert cli.main(["report", str(n), "5"]) == 2
