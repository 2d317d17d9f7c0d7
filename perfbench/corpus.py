"""Seeded input corpora for the benchmark, with their own primality reference.

Nothing here imports ``nilobstruct``: every prime the generator puts into a
point is certified by ``ref_is_prime`` below, so the benchmark can check the
program's factorizations against an independent source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Deterministic Miller-Rabin bases proven for every n < 2**64 (Sinclair's
# seven-base set); the corpora only ever test numbers below 10**15.
_REF_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_REF_LIMIT = 2**64

# Smallest strong pseudoprimes to the prime bases 2..37 and 2..41 (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017),
# with their factorizations from the same paper.
PSEUDOPRIMES = {
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}

SMALL_BOUND = 10**6
TINY_BOUND = 100

# Class of each point by its index, repeating with this period.  Fixed
# cycles (rather than random draws) keep the mix identical across seeds, so
# the latency median does not move with the sample.
SMALL_CYCLE = ("integer",) * 14 + ("rational",) * 4 + ("tiny",) * 2
BIG_CYCLE = ("prime_x_cofactor", "two_7digit_primes", "large_prime")


def ref_is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality, valid for 0 <= n < 2**64."""
    if n >= _REF_LIMIT:
        raise ValueError("reference primality covers n < 2**64 only")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _REF_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def small_primes_of(n: int) -> set[int]:
    """Prime divisors of 0 < n <= 10**6 by trial division."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def random_prime(rng: random.Random, digits: int) -> int:
    """A prime with exactly ``digits`` decimal digits, certified by ref_is_prime."""
    n = rng.randrange(10 ** (digits - 1), 10**digits) | 1
    while not ref_is_prime(n):
        n += 2
        if n >= 10**digits:
            n = 10 ** (digits - 1) + 1
    return n


@dataclass(frozen=True)
class Point:
    """One input point with the odd primes the generator put into it."""

    kind: str
    b: Fraction
    a: Fraction
    odd_primes: tuple[int, ...]

    @property
    def key(self) -> str:
        return f"{self.b} {self.a}"

    @property
    def real_blocked(self) -> bool:
        return self.b < 0 and self.a < 0

    @property
    def has_big_prime(self) -> bool:
        return any(p > SMALL_BOUND for p in self.odd_primes)


def _signed(rng: random.Random, magnitude: int) -> int:
    return magnitude if rng.random() < 0.5 else -magnitude


def _small_rational(rng: random.Random, kind: str) -> tuple[Fraction, set[int]]:
    if kind == "tiny":
        x = Fraction(_signed(rng, rng.randint(1, TINY_BOUND)))
    elif kind == "integer":
        x = Fraction(_signed(rng, rng.randint(1, SMALL_BOUND)))
    else:
        x = Fraction(_signed(rng, rng.randint(1, SMALL_BOUND)), rng.randint(1, SMALL_BOUND))
    return x, small_primes_of(abs(x.numerator)) | small_primes_of(x.denominator)


def _big_coordinate(rng: random.Random, kind: str) -> tuple[int, set[int]]:
    if kind == "prime_x_cofactor":
        p = random_prime(rng, rng.randint(7, 9))
        cofactor = rng.randint(1, 1000)
        return p * cofactor, {p} | (small_primes_of(cofactor) if cofactor > 1 else set())
    if kind == "two_7digit_primes":
        p, q = random_prime(rng, 7), random_prime(rng, 7)
        return p * q, {p, q}
    p = random_prime(rng, rng.randint(12, 15))
    return p, {p}


def small_point(rng: random.Random, kind: str) -> Point:
    b, pb = _small_rational(rng, kind)
    a, pa = _small_rational(rng, kind)
    return Point(kind, b, a, tuple(sorted((pb | pa) - {2})))


def big_point(rng: random.Random, kind: str, index: int) -> Point:
    """One coordinate carries a prime > 10**6; the other is |x| <= 10**6.

    The big coordinate alternates between b and a with the index.
    """
    big, pbig = _big_coordinate(rng, kind)
    big = Fraction(_signed(rng, big))
    other, pother = _small_rational(rng, "integer")
    b, a = (big, other) if index % 2 == 0 else (other, big)
    return Point(kind, b, a, tuple(sorted((pbig | pother) - {2})))


def pseudoprime_points(seed: int) -> list[Point]:
    """One point per listed pseudoprime: (+-psi, x) with |x| <= 10**6."""
    rng = random.Random(f"pseudoprime-{seed}")
    out = []
    for psi, factors in PSEUDOPRIMES.items():
        other, pother = _small_rational(rng, "integer")
        out.append(
            Point("pseudoprime", Fraction(_signed(rng, psi)), other, tuple(sorted((set(factors) | pother) - {2})))
        )
    return out


def stream(workload: str, seed, exclude: set[str] = frozenset()):
    """Endless stream of distinct points for a report workload."""
    rng = random.Random(f"{workload}-{seed}")
    seen = set(exclude)
    index = 0
    while True:
        if workload == "report_small":
            point = small_point(rng, SMALL_CYCLE[index % len(SMALL_CYCLE)])
        else:
            point = big_point(rng, BIG_CYCLE[index % len(BIG_CYCLE)], index)
        index += 1
        if point.key in seen:
            continue
        seen.add(point.key)
        yield point


def with_anchors(workload: str, seed: int, anchors: list[Point], every: int):
    """The seeded stream with one recorded anchor point in every ``every`` slots.

    Anchors carry verdicts recorded at the benchmark's defining commit.  Once
    they run out, the stream continues with fresh points only.
    """
    fresh = stream(workload, seed, exclude={p.key for p in anchors})
    pending = iter(anchors)
    index = 0
    while True:
        anchor = next(pending, None) if index % every == 0 else None
        yield anchor if anchor is not None else next(fresh)
        index += 1
