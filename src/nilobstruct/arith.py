"""Exact integer and rational arithmetic primitives.

Everything operates on Python ints and ``fractions.Fraction``; nothing is
approximate.  These are the kernels the rest of the package leans on:
certified primality, factorization, Legendre symbols, quartic residue tests
and canonical modular square roots.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class InvalidPrimeError(ValueError):
    """Raised when an argument required to be an odd prime is not."""


class NotAUnitError(ValueError):
    """Raised when an argument required to be prime to p is divisible by p."""


# A nonzero rational in lowest terms with positive denominator.  Fraction
# already guarantees the normal form; nonzero-ness is checked at the border.
RationalNZ = Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``-?digits(/digits)?`` into a nonzero Fraction."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
    if value == 0:
        raise ValueError("zero is not allowed here")
    return value


def as_rational(x) -> Fraction:
    """Coerce an int or Fraction to a nonzero Fraction."""
    value = Fraction(x)
    if value == 0:
        raise ValueError("zero is not allowed here")
    return value


# The first thirteen primes as Miller-Rabin bases: deterministic below
# psi_13 = 3317044064679887385961981 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).  The first twelve
# alone are fooled by psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, valid below psi_13 ~ 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Floyd-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factor_int(n: int) -> dict[int, int]:
    """Factor a positive integer into {prime: exponent}: divide out
    ``_SMALL_PRIMES``, then certify or split each cofactor by rho."""
    if n <= 0:
        raise ValueError("factor_int needs a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return out


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization of a nonzero rational.

    ``factors`` is sorted by prime; exponents are nonzero (negative exponents
    come from the denominator).
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> Fraction:
        out = Fraction(self.sign)
        for p, e in self.factors:
            out *= Fraction(p) ** e
        return out

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factor(x) -> Factorization:
    """Exact signed factorization of a nonzero rational."""
    value = as_rational(x)
    sign = 1 if value > 0 else -1
    num = factor_int(abs(value.numerator))
    den = factor_int(value.denominator)
    merged = dict(num)
    for p, e in den.items():
        merged[p] = merged.get(p, 0) - e
    factors = tuple(sorted((p, e) for p, e in merged.items() if e != 0))
    return Factorization(sign, factors)


def check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise InvalidPrimeError(f"{p} is not an odd prime")


# Each public function below validates its prime once and then calls a
# kernel (leading underscore) that trusts p.  Code that already holds
# certified primes, such as those of a Factorization, calls the kernels,
# local_part, local_data or Point directly.


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1} for an odd prime p."""
    check_odd_prime(p)
    return _legendre(a, p)


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


def sqrt_mod(a: int, p: int) -> int | None:
    """Canonical square root of a mod p, or None if a is not a unit square.

    Tonelli-Shanks.  When it exists, the root returned is the one in
    [1, (p-1)/2], so results are reproducible.
    """
    check_odd_prime(p)
    return _sqrt_mod(a, p)


def _sqrt_mod(a: int, p: int) -> int | None:
    a %= p
    if a == 0 or _legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        s = pow(a, (p + 1) // 4, p)
        return min(s, p - s)
    # Write p - 1 = q * 2^e with q odd.
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = e
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
            if i == m:
                # For a prime p, t has order 2^i with i < m; reaching m
                # means p fooled Miller-Rabin.
                raise InvalidPrimeError(f"{p} is not prime")
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(x, p - x)


def is_fourth_power_mod(a: int, p: int) -> bool:
    """Whether a is a nonzero fourth power mod the odd prime p."""
    check_odd_prime(p)
    return _is_fourth_power_mod(a, p)


def _is_fourth_power_mod(a: int, p: int) -> bool:
    a %= p
    if a == 0:
        raise NotAUnitError(f"{p} divides the argument")
    # The fourth powers are the image of x -> x^4, a subgroup of index
    # gcd(4, p-1) in F_p^*.
    return pow(a, (p - 1) // gcd(4, p - 1), p) == 1


def valuation(x, p: int) -> int:
    """Exponent of the prime p in the nonzero rational x."""
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    return _valuation(as_rational(x), p)


def _valuation(value: Fraction, p: int) -> int:
    v = 0
    num = abs(value.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = value.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def unit_residue(x, p: int) -> int:
    """Residue mod p of the p-unit part x * p^(-v_p(x))."""
    value = as_rational(x)
    return _unit_residue(value, valuation(value, p), p)


def _unit_residue(value: Fraction, v: int, p: int) -> int:
    num, den = value.numerator, value.denominator
    if v > 0:
        num //= p**v
    elif v < 0:
        den //= p**-v
    return num * pow(den, -1, p) % p


def local_part(value: Fraction, p: int) -> tuple[int, int]:
    """(v, u): the valuation of the nonzero Fraction value at the certified
    prime p and the residue mod p of its p-unit part."""
    v = _valuation(value, p)
    return v, _unit_residue(value, v, p)


def local_data(b: Fraction, a: Fraction, p: int) -> tuple[int, int, int, int]:
    """(v_b, u_b, v_a, u_a): ``local_part`` of b and of a at the certified prime p."""
    return (*local_part(b, p), *local_part(a, p))


@dataclass(frozen=True)
class Point:
    """A point (b, a), each coordinate factored exactly once.

    ``local`` holds one entry ``(p, v_b, u_b, v_a, u_a)`` (see
    ``local_data``) per odd prime p dividing b or a, plus the extra prime if
    one was asked for, sorted by p.  Every such p is a certified odd prime:
    the support comes from ``factor`` and the extra prime is checked here, so
    code reading these entries validates nothing again.
    """

    b: Fraction
    a: Fraction
    local: tuple[tuple[int, int, int, int, int], ...]

    @classmethod
    def of(cls, b, a, extra_prime: int | None = None) -> "Point":
        b, a = as_rational(b), as_rational(a)
        primes = (set(factor(b).primes()) | set(factor(a).primes())) - {2}
        if extra_prime is not None and extra_prime not in primes:
            check_odd_prime(extra_prime)
            primes.add(extra_prime)
        local = tuple((p, *local_data(b, a, p)) for p in sorted(primes))
        return cls(b, a, local)

    def primes(self) -> tuple[int, ...]:
        return tuple(entry[0] for entry in self.local)
