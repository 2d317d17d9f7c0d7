"""Square classes and the mod-2 cup product over Q_p (p odd) and R.

A class in Q_p*/(Q_p*)^2 is a bit pair over the basis {u, p}, where u is
the smallest positive quadratic non-residue mod p, carried as the int
e_p << 1 | e_u: bit 0 is set when the unit part is a non-residue, bit 1
when the valuation is odd.  Classes multiply by xor and the trivial class
is 0.  A class does not carry its prime, so cup_qp takes it once.
R*/(R*)^2 is just the sign, so R has no class here: delta2_local reads the
two signs directly.

Cup products of two degree-1 classes land in the 2-torsion {0, 1/2} of Q/Z
via the local invariant map.  Such an invariant is carried as an int bit,
1 meaning 1/2 (so invariants add by xor), and printed by half_str.  The
basis table is

    u  cup u  = 0
    u  cup p  = p cup u = 1/2
    p  cup p  = {-1} cup p   (= 1/2 iff p = 3 mod 4)

and over R the cup is nontrivial exactly on ({-1}, {-1}).

By the supplement laws the class of -1 is 1 iff p = 3 mod 4 and that of 2
is 1 iff p = 3 or 5 mod 8, so neither costs a Legendre symbol.  The classes
of the square roots that the delta3 cases take come from the quartic
character of the units, with no root computed: obstruct._criterion reads
them from the classes of b and a mod fourth powers.
"""

from __future__ import annotations

from .arith import _legendre, as_rational, local_data

REAL = "R"
# A place for local evaluation: an odd prime or the real place.
Place = int | str


def half_str(bit: int) -> str:
    """The local invariant with bit 1 printed as 1/2, bit 0 as 0."""
    return "1/2" if bit else "0"


def square_class_vu(v: int, u: int, p: int) -> int:
    """Square class of p^v times a p-unit with residue u, p a certified odd prime."""
    return v % 2 << 1 | (_legendre(u, p) == -1)


def cup_qp(c1: int, c2: int, p: int) -> int:
    """Bilinear extension of the basis cup table at the odd prime p, as an
    invariant bit."""
    u1, p1 = c1 & 1, c1 >> 1
    u2, p2 = c2 & 1, c2 >> 1
    bit = u1 & p2 ^ p1 & u2
    if p % 4 == 3:
        bit ^= p1 & p2
    return bit


def delta2_local(b, a, place: Place) -> int:
    """Local mod-2 cup value of the Kummer classes of b and a at a place,
    as an invariant bit."""
    if place == REAL:
        b, a = as_rational(b), as_rational(a)
        return int(b < 0 and a < 0)
    v_b, u_b, v_a, u_a = local_data(b, a, place)
    return cup_qp(square_class_vu(v_b, u_b, place), square_class_vu(v_a, u_a, place), place)
