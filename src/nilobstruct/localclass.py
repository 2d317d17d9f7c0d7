"""Square classes and the mod-2 cup product over Q_p (p odd) and R.

A class in Q_p*/(Q_p*)^2 is a bit pair over the basis {u, p} where u is the
smallest positive quadratic non-residue mod p.  R*/(R*)^2 is just the sign,
so R has no class type here: delta2_local reads the two signs directly.
Cup products of two degree-1 classes land in the 2-torsion {0, 1/2} of Q/Z
via the local invariant map.  Such an invariant is carried as an int bit,
1 meaning 1/2 (so invariants add by xor), and printed by half_str.  The
basis table is

    u  cup u  = 0
    u  cup p  = p cup u = 1/2
    p  cup p  = {-1} cup p   (= 1/2 iff p = 3 mod 4)

and over R the cup is nontrivial exactly on ({-1}, {-1}).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import _legendre, _sqrt_mod, as_rational, check_odd_prime, local_data, local_part

REAL = "R"
# A place for local evaluation: an odd prime or the real place.
Place = int | str


class NotASquareError(ValueError):
    """Raised when a square root is requested of a local non-square."""


@dataclass(frozen=True)
class LocalSquareClass:
    """Element of Q_p*/(Q_p*)^2 as bits over the basis {u, p}."""

    p: int
    e_u: int
    e_p: int

    def __xor__(self, other: "LocalSquareClass") -> "LocalSquareClass":
        if self.p != other.p:
            raise ValueError(f"classes live over different primes {self.p} != {other.p}")
        return LocalSquareClass(self.p, self.e_u ^ other.e_u, self.e_p ^ other.e_p)

    @property
    def is_trivial(self) -> bool:
        return self.e_u == 0 and self.e_p == 0


def half_str(bit: int) -> str:
    """The local invariant with bit 1 printed as 1/2, bit 0 as 0."""
    return "1/2" if bit else "0"


def square_class_qp(x, p: int) -> LocalSquareClass:
    """Square class of a nonzero rational in Q_p*, p odd."""
    check_odd_prime(p)
    return square_class_vu(*local_part(as_rational(x), p), p)


def square_class_vu(v: int, u: int, p: int) -> LocalSquareClass:
    """Square class of p^v times a p-unit with residue u, p a certified odd prime."""
    return LocalSquareClass(p, 1 if _legendre(u, p) == -1 else 0, v % 2)


def sqrt_square_class_qp(x, p: int) -> LocalSquareClass:
    """Square class of the canonical square root of a local square x.

    The unit-part root is the canonical one from sqrt_mod; all downstream cup
    values are independent of this choice whenever the delta2 precondition
    holds, the canonical choice just pins the reported class.
    """
    check_odd_prime(p)
    root = sqrt_square_class_vu(*local_part(as_rational(x), p), p)
    if root is None:
        raise NotASquareError(f"{x} is not a square in Q_{p}")
    return root


def sqrt_square_class_vu(v: int, u: int, p: int) -> LocalSquareClass | None:
    """Class of the canonical root of p^v u (see sqrt_square_class_qp), or
    None if that is not a square; p a certified odd prime."""
    if v % 2 != 0:
        return None
    root = _sqrt_mod(u, p)
    if root is None:
        return None
    return square_class_vu(v // 2, root, p)


def neg_one_class(p: int) -> LocalSquareClass:
    """The class {-1} in Q_p*/(Q_p*)^2."""
    return square_class_qp(-1, p)


def two_class(p: int) -> LocalSquareClass:
    """The class {2} in Q_p*/(Q_p*)^2."""
    return square_class_qp(2, p)


def cup_qp(c1: LocalSquareClass, c2: LocalSquareClass) -> int:
    """Bilinear extension of the basis cup table at the odd prime c1.p, as
    an invariant bit."""
    if c1.p != c2.p:
        raise ValueError(f"cup of classes over different primes {c1.p} != {c2.p}")
    bit = c1.e_u * c2.e_p ^ c1.e_p * c2.e_u
    if c1.p % 4 == 3:
        bit ^= c1.e_p * c2.e_p
    return bit


def delta2_local(b, a, place: Place) -> int:
    """Local mod-2 cup value of the Kummer classes of b and a at a place,
    as an invariant bit."""
    if place == REAL:
        b, a = as_rational(b), as_rational(a)
        return int(b < 0 and a < 0)
    check_odd_prime(place)
    v_b, u_b, v_a, u_a = local_data(as_rational(b), as_rational(a), place)
    return cup_qp(square_class_vu(v_b, u_b, place), square_class_vu(v_a, u_a, place))
