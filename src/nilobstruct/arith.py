"""Exact integer and rational arithmetic primitives.

Everything operates on Python ints and ``fractions.Fraction``; nothing is
approximate.  These are the kernels the rest of the package leans on:
certified primality, factorization, Legendre symbols, quartic residue tests
and canonical modular square roots.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, log2
from typing import NamedTuple


class InvalidPrimeError(ValueError):
    """Raised when an argument required to be an odd prime is not."""


class NotAUnitError(ValueError):
    """Raised when an argument required to be prime to p is divisible by p."""


_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``-?digits(/digits)?`` into a nonzero Fraction."""
    text = text.strip(" \t\n\r\f\v")
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
    """A nonzero int or Fraction as a Fraction, a Fraction itself and not a
    copy; any other type, a string or a float too, is a TypeError."""
    if type(x) is not Fraction:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")
        x = Fraction(x)
    if not x:
        raise ValueError("zero is not allowed here")
    return x


# The first thirteen primes as Miller-Rabin bases, each paired with psi_k,
# the least strong pseudoprime to the first k of them (OEIS A014233;
# Jaeschke, Math. Comp. 1993; Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017).  An n that passes the first k
# bases and is below psi_k is prime.
_MR_BASES = (
    (2, 2047),
    (3, 1373653),
    (5, 25326001),
    (7, 3215031751),
    (11, 2152302898747),
    (13, 3474749660383),
    (17, 341550071728321),
    (19, 341550071728321),
    (23, 3825123056546413051),
    (29, 3825123056546413051),
    (31, 3825123056546413051),
    (37, 318665857834031151167461),
    (41, 3317044064679887385961981),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Primality of n: deterministic below psi_13 ~ 3.3e24, BPSW above.

    Trial division by ``_SMALL_PRIMES`` settles every n with a prime factor
    <= 47; any other n goes to ``_is_rough_prime``.  Any n that is not an int
    is a TypeError, so every check of a prime refuses it by type.
    """
    if not isinstance(n, int):
        raise TypeError(f"expected an int, got {type(n).__name__}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _is_rough_prime(n)


def _is_rough_prime(n: int) -> bool:
    """Primality of an n > 47 with no prime factor <= 47.

    Such an n below 53^2 = 2809 is prime.  Above, Miller-Rabin runs the bases
    of ``_MR_BASES`` in order and stops at the first k with n < psi_k, so a
    7-digit n costs at most three modular powers.  An n >= psi_13 that
    passes all thirteen bases (base 2 among them) must also pass a strong
    Lucas test with Selfridge's parameters: together that is the
    Baillie-PSW test, which no known composite passes.
    """
    if n < 2809:
        return True
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a, psi in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 1, Selfridge's parameters:
    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1-D)/4
    (Baillie and Wagstaff, "Lucas pseudoprimes", Math. Comp. 1980)."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    # n + 1 = d * 2^s with d odd; U_d, V_d by the binary ladder from U_1 = V_1 = 1.
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = u + v, D * u + v
            # Halve mod the odd n: add n to an odd value first.
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


class FactoringBudgetError(ValueError):
    """Raised when rho reaches ``_RHO_MAX_R`` without splitting a cofactor."""


# Brent's rho takes one gcd per this many steps: the product of the
# differences is accumulated mod n in between.
_RHO_BATCH = 128

# The work bound of rho: Brent's r doubles each round, and a round with r
# above this raises FactoringBudgetError.  With c = 1, psi_13 splits at
# r = 2^19 and 100000000003 * 700000000009 at r = 2^18.
_RHO_MAX_R = 1 << 21


def _pollard_rho(n: int) -> int:
    """Brent's Pollard rho (Brent, BIT 1980); returns a nontrivial factor of
    composite odd n.

    Each step makes one squaring, with one gcd(q, n) per batch of
    ``_RHO_BATCH`` steps.  The differences x - y of four steps are multiplied
    into q with one reduction mod n, so q is the same residue at every gcd
    as with one reduction per step; r < 4 takes single steps.  A batch whose
    gcd is n is replayed from its saved start one step at a time; a failed c
    moves to the next.  Once r would pass ``_RHO_MAX_R``, after about 2^23
    steps of one c, it raises FactoringBudgetError naming n.
    """
    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if r > _RHO_MAX_R:
                raise FactoringBudgetError(f"no factor of {n} found within the rho work bound")
            x = y
            for _ in range(r >> 2):
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
            for _ in range(r & 3):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                m = min(_RHO_BATCH, r - k)
                for _ in range(m >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                for _ in range(m & 3):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def _prime_power_root(m: int) -> tuple[int, int]:
    """(r, k) with m = r^k for a prime k, else (m, 1), for an m with no prime
    factor <= 47: so r >= 53 and 53^k <= m.  k runs over the primes <= 47 and
    the k with no prime factor <= 47, which are prime below 53^2.  The root is
    isqrt, or Newton from a float estimate raised by 2^-30, above the root."""
    k, bound = 2, 2809
    while bound <= m:
        if k in _SMALL_PRIMES or all(k % q for q in _SMALL_PRIMES):
            if k == 2:
                r = isqrt(m)
            else:
                e = log2(m) / k
                shift = max(int(e) - 50, 0)
                r = int(2 ** (e - shift) * (1 + 2**-30) + 1) << shift
                while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
                    r = s
            if r**k == m:
                return r, k
        k, bound = k + 1, bound * 53
    return m, 1


# An odd composite below 2^20 = 1024^2 has a prime factor below 1024, so the
# primes 53..1021 split every cofactor below it that trial division leaves.
_TABLE_LIMIT = 1 << 20


@cache
def _factor_table() -> tuple[tuple[int, ...], bytearray]:
    """The primes 53..1021 and a 512 KiB least-prime-factor table over the
    odd m < 2^20, built on first use.

    Entry ``m >> 1`` of an odd m with no prime factor <= 47 is the 1-based
    index into those primes of m's least prime factor if m is composite, and
    0 if m is prime.  It is exact: Eratosthenes marks the multiples of each
    p from p^2, from 1021 down to 53, so the least prime writes last.
    """
    # Below 53^2, no prime factor <= 47 means prime.
    primes = tuple(p for p in range(53, 1024, 2) if all(p % q for q in _SMALL_PRIMES))
    table = bytearray(_TABLE_LIMIT >> 1)
    for i in range(len(primes), 0, -1):
        p = primes[i - 1]
        start = p * p >> 1
        table[start::p] = bytes((i,)) * len(range(start, len(table), p))
    return primes, table


def factor_int(n: int) -> dict[int, int]:
    """Factor a positive integer into {prime: exponent}: divide out
    ``_SMALL_PRIMES``, then split each cofactor m below 2^20 completely by
    ``_factor_table`` lookups (one below 53^2 = 2809 is prime), and certify
    each larger one by ``_is_rough_prime``, with no second trial division, or
    split it by its root or by rho, which raises FactoringBudgetError at its
    work bound.  The stack holds (cofactor, exponent) pairs, so a root r of
    m = r^k is split once, with its exponent times k."""
    if n <= 0:
        raise ValueError("factor_int needs a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if 2809 <= m < _TABLE_LIMIT:
            primes, table = _factor_table()
            while i := table[m >> 1]:
                p = primes[i - 1]
                out[p] = out.get(p, 0) + e
                m //= p
        elif m >= _TABLE_LIMIT and not _is_rough_prime(m):
            r, k = _prime_power_root(m)
            stack += [(r, e * k)] if k > 1 else [(f := _pollard_rho(m), e), (m // f, e)]
            continue
        out[m] = out.get(m, 0) + e
    return out


class Factorization(NamedTuple):
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
    exponents = _exponents(*value.as_integer_ratio())
    return Factorization(1 if value > 0 else -1, tuple(sorted(exponents.items())))


def _exponents(num: int, den: int) -> dict[int, int]:
    """{p: v_p(num/den) != 0} of a fraction in lowest terms with den > 0,
    from one factor_int call per integer part > 1."""
    num = abs(num)
    exponents = factor_int(num) if num > 1 else {}
    if den > 1:
        for p, e in factor_int(den).items():
            exponents[p] = -e
    return exponents


def check_odd_prime(p: int) -> None:
    # is_prime first, so that a p that is not an int is a TypeError even
    # where it compares equal to 2.
    if not is_prime(p) or p == 2:
        raise InvalidPrimeError(f"{p} is not an odd prime")


# Each public function below validates its prime once.  Where other code
# needs the same arithmetic, the work sits in a kernel (leading underscore)
# that trusts p, and code that already holds certified primes, such as
# those of a Point, calls the kernels or local_part directly.


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
                # means p fooled is_prime.
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


def _unit_residue(num: int, den: int, v: int, p: int) -> int:
    """Residue mod p of the p-unit part of num/den times p^(-v), where
    v = v_p(num/den) and num/den is in lowest terms."""
    if v > 0:
        num //= p**v
    elif v < 0:
        den //= p**-v
    return num % p if den == 1 else num * pow(den, -1, p) % p


def local_part(value: Fraction, p: int) -> tuple[int, int]:
    """(v, u): the valuation of the nonzero Fraction value at the certified
    prime p and the residue mod p of its p-unit part."""
    v = _valuation(value, p)
    return v, _unit_residue(value.numerator, value.denominator, v, p)


def local_data(b, a, p: int) -> tuple[int, int, int, int]:
    """(v_b, u_b, v_a, u_a): ``local_part`` of b and of a at the odd prime p.
    The one border of the per-place evaluators: it checks p, then b, then a."""
    check_odd_prime(p)
    return (*local_part(as_rational(b), p), *local_part(as_rational(a), p))


class Point(NamedTuple):
    """A point (b, a), validated and factored exactly once.

    ``local`` holds one entry ``(p, v_b, u_b, v_a, u_a)`` (as ``local_data``
    gives it) per odd prime p dividing b or a, sorted by p: the union of the
    two supports, not the support of ab, since where the valuations cancel
    (v_p(b) = -v_p(a) != 0) the symbol and the local invariant can still be
    nontrivial.  The valuations are the exponents of one factor_int pass
    over the four integer parts, so every such p is a certified odd prime
    and no valuation is divided out again.
    ``v2`` holds the exponents of 2 in b and in a from the same pass, for the
    symbol at 2.
    """

    b: Fraction
    a: Fraction
    local: tuple[tuple[int, int, int, int, int], ...]
    v2: tuple[int, int]

    @classmethod
    def of(cls, b, a) -> "Point":
        b, a = as_rational(b), as_rational(a)
        (n_b, d_b), (n_a, d_a) = b.as_integer_ratio(), a.as_integer_ratio()
        exp_b, exp_a = _exponents(n_b, d_b), _exponents(n_a, d_a)
        v2 = exp_b.pop(2, 0), exp_a.pop(2, 0)
        local = []
        for p in sorted(exp_b.keys() | exp_a.keys()):
            v_b, v_a = exp_b.get(p, 0), exp_a.get(p, 0)
            local.append((p, v_b, _unit_residue(n_b, d_b, v_b, p), v_a, _unit_residue(n_a, d_a, v_a, p)))
        return cls(b, a, tuple(local), v2)

    def primes(self) -> tuple[int, ...]:
        return tuple(entry[0] for entry in self.local)
