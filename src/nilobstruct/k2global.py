"""Global delta2 over Q through Milnor K2.

K2(Q) splits as mu_2 (+) sum over odd primes of F_p^* via the tame symbols

    (b,a)_p = (-1)^{v_p(b) v_p(a)} b^{v_p(a)} a^{-v_p(b)}  mod p

and the explicit symbol at 2 computed from 2-adic decompositions
x = (-1)^i 2^j 5^k u with u a quotient of integers congruent to 1 mod 8.
The class {b} cup {a} vanishes globally iff every symbol is trivial;
obstruct.report() lists the witnesses in its one pass over the primes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import _valuation, as_rational, local_data


class TameSymbolValue(NamedTuple):
    """Value of the K2 residue symbol at a place (odd prime, or 2)."""

    place: int
    value: int

    @property
    def trivial(self) -> bool:
        return self.value == 1


class Delta2GlobalVerdict(NamedTuple):
    """Two layers, reported separately and never conflated.

    ``zero`` is the mod-2 verdict (every symbol trivial modulo squares),
    which is the obstruction layer the local delta2/delta3 machinery lives
    in; ``k2_zero`` is the full K2(Q) verdict (every symbol literally 1).
    They can differ: (-1, 5) has tame symbol 4 at 5, a nontrivial square.
    """

    zero: bool
    witnesses: tuple[TameSymbolValue, ...]
    k2_zero: bool
    k2_witnesses: tuple[TameSymbolValue, ...]


def tame_symbol_odd(b, a, p: int) -> TameSymbolValue:
    """Tame symbol (b,a)_p in F_p^* at an odd prime p."""
    return tame_symbol_vu(*local_data(b, a, p), p)


def tame_symbol_vu(v_b: int, u_b: int, v_a: int, u_a: int, p: int) -> TameSymbolValue:
    """tame_symbol_odd from the local data (see arith.local_data) at a certified odd prime."""
    # With b = p^v_b * u_b and a = p^v_a * u_a the uniformizer powers cancel
    # and the symbol reduces to a pure unit expression mod p.
    value = pow(u_b, v_a, p) * pow(u_a, -v_b, p) % p
    if (v_b * v_a) % 2 == 1:
        value = (p - value) % p
    return TameSymbolValue(p, value)


# Residue of the odd part mod 8 -> (i, k) in the decomposition
# x = (-1)^i 2^j 5^k u, u = 1 mod 8; these four targets are exactly
# {(-1)^i 5^k mod 8} = {1, 5, 7, 3}.
_IK_FROM_MOD8 = {1: (0, 0), 5: (0, 1), 7: (1, 0), 3: (1, 1)}


def decompose_2adic(x) -> tuple[int, int, int]:
    """(i, j, k) with x = (-1)^i 2^j 5^k u and u = 1 mod 8 as a 2-adic unit."""
    value = as_rational(x)
    return _decompose_2adic(value, _valuation(value, 2))


def _decompose_2adic(value: Fraction, j: int) -> tuple[int, int, int]:
    """decompose_2adic of a nonzero Fraction whose exponent of 2 is j."""
    # The odd part's denominator is odd, so it is its own inverse mod 8.
    residue = (value.numerator >> max(j, 0)) * (value.denominator >> max(-j, 0)) % 8
    i, k = _IK_FROM_MOD8[residue]
    return i, j, k


def symbol_at_2(b, a) -> TameSymbolValue:
    """The K2 symbol (b,a)_2 = (-1)^{iI + jK + kJ} in {+1, -1}."""
    return _symbol_at_2(decompose_2adic(b), decompose_2adic(a))


def _symbol_at_2(dec_b: tuple[int, int, int], dec_a: tuple[int, int, int]) -> TameSymbolValue:
    """symbol_at_2 from the decompositions (i, j, k) of b and (I, J, K) of a."""
    i, j, k = dec_b
    big_i, big_j, big_k = dec_a
    exponent = i * big_i + j * big_k + k * big_j
    return TameSymbolValue(2, -1 if exponent % 2 else 1)
