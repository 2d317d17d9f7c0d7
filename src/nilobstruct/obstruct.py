"""Per-point obstruction evaluation and report assembly.

delta2 is evaluated locally by cup products of square classes and globally
through Milnor K2.  delta3 mod 2 is evaluated locally at odd primes by the
three-case criterion (on the kernel of local delta2):

  (i)   -b is a local square   and {2 sqrt(-b)} cup a != 0
  (ii)  -a is a local square   and {2 sqrt(-a)} cup b + {2} cup a != 0
  (iii) ab is a local square   and {2 sqrt(b) sqrt(a)} cup a != 0

and at the real place from a literal table keyed by the signs of b and a:
the values of both lifts of the point over the order-2 model of G_R, which
the tests re-derive with the cochain engine.  A global delta3 verdict is only
ever emitted for the proven (-p^3, p) family; outside it the report carries
local vectors only.

At an odd place one modular power per unit, u^((p-1)/4) at p = 1 mod 4
and the Legendre power at p = 3 mod 4, gives its class mod fourth powers.
With p mod 8 and v mod 4 that is the key of a table that _delta3_odd
reads and _criterion fills from the key alone, so no root is computed and
no patched pow can write a wrong entry (_criterion's docstring says why
the choice of root does not matter).  report() walks the primes once, for
the entry, delta2 bit and tame symbol of each, and on an integer point the
congruence fast path, one more modular power of a + b at a prime dividing
ab once.  delta3_at is the one public local delta3 and the one border for
a place.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import (
    Point,
    _valuation,
    as_rational,
    check_odd_prime,
    is_prime,
    local_data,
)
from .k2global import Delta2GlobalVerdict, TameSymbolValue, _decompose_2adic, _symbol_at_2, tame_symbol_vu
from .localclass import (
    REAL,
    Place,
    cup_qp,
    half_str,
    square_class_vu,
)

ZERO = "zero"
NONZERO = "nonzero"
BLOCKED = "blocked_by_delta2"


class UnsupportedPlaceError(ValueError):
    """Raised for local delta3 evaluation at the place 2."""


class InapplicableError(ValueError):
    """Raised when the congruence fast path's preconditions fail."""


class OutOfFamilyError(ValueError):
    """Raised when a family operation is called off its proven family."""


class CaseTrace(NamedTuple):
    case: str
    applicable: bool
    cup: int


class RealLift(NamedTuple):
    label: str
    comp_x: int
    comp_y: int


class Delta3LocalResult(NamedTuple):
    place: Place
    status: str
    cases: tuple[CaseTrace, ...]
    real_lifts: tuple[RealLift, ...] = ()


class ObstructionReport(NamedTuple):
    """delta2_local pairs each place with its invariant bit (1 means 1/2).
    consistent is False iff a self-check failed, which is exactly when a
    note reads INCONSISTENT or DISAGREES."""

    b: Fraction
    a: Fraction
    delta2_local: tuple[tuple[Place, int], ...]
    delta2: Delta2GlobalVerdict
    delta3_local: tuple[Delta3LocalResult, ...]
    notes: tuple[str, ...]
    consistent: bool


# Every case trace: per case, applicable with cup 0, applicable with cup 1,
# and not applicable (index 2).
_TRACES_I = (CaseTrace("i", True, 0), CaseTrace("i", True, 1), CaseTrace("i", False, 0))
_TRACES_II = (CaseTrace("ii", True, 0), CaseTrace("ii", True, 1), CaseTrace("ii", False, 0))
_TRACES_III = (CaseTrace("iii", True, 0), CaseTrace("iii", True, 1), CaseTrace("iii", False, 0))


# (status, cases) of the criterion by its key (p mod 8, v_b mod 4, v_a mod 4,
# j_b, j_a), filled on a miss and kept for the life of the process: at most
# 2 * 16 * 10 keys at p = 1 mod 4 and 2 * 16 * 4 at p = 3 mod 4.
_ODD_PLACES: dict = {}


def _delta3_odd(v_b: int, u_b: int, v_a: int, u_a: int, p: int) -> tuple[str, tuple[CaseTrace, ...]]:
    """(status, cases) of local delta3 mod 2 at a certified odd prime p,
    from the local data (see arith.local_data), read from _ODD_PLACES.

    j is the class of a unit mod fourth powers, from one modular power per
    unit: the Legendre bit at p = 3 mod 4; at p = 1 mod 4 the exponent of
    r = u^((p-1)/4) to the base i, the first of r_b, r_a that is not +-1,
    so that j_b + j_a = 0 mod 4 iff r_b r_a = 1.
    """
    if p & 3 == 1:
        e = p >> 2
        r_b, r_a = pow(u_b, e, p), pow(u_a, e, p)
        j_b = 0 if r_b == 1 else 2 if r_b == p - 1 else 1
        j_a = 0 if r_a == 1 else 2 if r_a == p - 1 else 1 if j_b != 1 or r_a == r_b else 3
    else:
        e = p >> 1
        j_b, j_a = pow(u_b, e, p) != 1, pow(u_a, e, p) != 1
    key = p & 7, v_b & 3, v_a & 3, j_b, j_a
    entry = _ODD_PLACES.get(key)
    if entry is None:
        entry = _ODD_PLACES[key] = _criterion(key)
    return entry


def _criterion(key: tuple) -> tuple[str, tuple[CaseTrace, ...]]:
    """The three-case criterion on a key (q, w_b, w_a, j_b, j_a) of
    _delta3_odd: w = v mod 4, and q = p mod 8 stands in for p, since the
    class of 2, that of -1 and cup_qp read no more.

    A case applies when its square's class, an xor of the classes of b, a
    and -1, is trivial.  It then takes the class of one square root of that
    square: -b is (v_b, -u_b) and ab is (v_b + v_a, u_b u_a), and a root of
    p^(2k) u has the class p^k times the root's unit class.  The other root
    differs by {-1}, which changes the case's value by {-1} cup partner, and
    that is 0 once delta2 = b cup a vanishes:
      (i)   {-b} = 0 gives {-1} cup a = b cup a;
      (ii)  {-a} = 0 gives {-1} cup b = a cup b;
      (iii) {ab} = 0 gives {-1} cup a = a cup a = b cup a.
    So every case trace, not only the verdict, is independent of the root.

    u is a residue iff j is even.  For p = 1 mod 4 a unit square's roots
    are squares iff it is a fourth power: -u is one iff j is that of -1,
    0 at p = 1 mod 8 and 2 at p = 5 mod 8, and u_b u_a iff j_b + j_a = 0
    mod 4.  For p = 3 mod 4 the root that is itself a square is taken, so
    its unit class is trivial.
    """
    q, w_b, w_a, j_b, j_a = key
    neg_one = q & 3 == 3
    sign = 0 if q == 1 else 2
    root_b, root_a, root_ab = (0, 0, 0) if neg_one else (j_b != sign, j_a != sign, (j_b + j_a) & 3 != 0)
    cls_b = (w_b & 1) << 1 | j_b & 1
    cls_a = (w_a & 1) << 1 | j_a & 1
    if cup_qp(cls_b, cls_a, q):
        return BLOCKED, ()

    # The class of 2 by the second supplement law.  Case (ii)'s term {2} cup a
    # is not computed: the case applies only when a has the class of -1, and
    # {2} cup {-1} = 0 at every odd p, since both are unit classes
    # (Steinberg: -1 = 1 - 2).
    two = q in (3, 5)
    t_i = 2 if cls_b ^ neg_one else cup_qp(w_b & 2 | (two ^ root_b), cls_a, q)
    t_ii = 2 if cls_a ^ neg_one else cup_qp(w_a & 2 | (two ^ root_a), cls_b, q)
    t_iii = 2 if cls_b ^ cls_a else cup_qp((w_b + w_a) & 2 | (two ^ root_ab), cls_a, q)
    status = NONZERO if 1 in (t_i, t_ii, t_iii) else ZERO
    return status, (_TRACES_I[t_i], _TRACES_II[t_ii], _TRACES_III[t_iii])


def delta3_congruence(b: int, a: int, p: int) -> tuple[bool, bool | None]:
    """Congruence fast path for integer points with p dividing ab exactly once.

    Returns (delta2 vanishes, delta3 vanishes).  The second entry is None
    when delta2 already obstructs.
    """
    if not isinstance(b, int) or not isinstance(a, int) or b == 0 or a == 0:
        raise InapplicableError("fast path needs nonzero integers")
    check_odd_prime(p)
    if _valuation(Fraction(a) * b, p) != 1:
        raise InapplicableError(f"{p} must divide ab exactly once")
    return _congruence(b, a, p)


def _congruence(b: int, a: int, p: int) -> tuple[bool, bool | None]:
    """delta3_congruence on trusted input, from one modular power of
    s = a + b, a unit mod p since p divides exactly one of a and b."""
    s = (a + b) % p
    if p & 3 == 3:
        # At p = 3 mod 4 every square is a fourth power.
        return (True, True) if pow(s, p >> 1, p) == 1 else (False, None)
    # t = s^((p-1)/4) is +-1 iff s is a square, and 1 iff s is a fourth power.
    t = pow(s, p >> 2, p)
    return (True, t == 1) if t == 1 or t == p - 1 else (False, None)


# delta3 mod 2 at R for each sign pattern (b < 0, a < 0): the components of
# both lifts over the order-2 model of G_R, whose Kummer cocycles see only the
# sign.  The lifts differ by the class of -1, and c = 0 always vanishes.
# tests/test_point.py re-derives every entry with the cochain engine.
_C0 = RealLift("c=0", 0, 0)
_REAL_PLACE = {
    (True, True): Delta3LocalResult(REAL, BLOCKED, ()),
    (False, False): Delta3LocalResult(REAL, ZERO, (), (_C0, RealLift("c={-1}", 1, 1))),
    (False, True): Delta3LocalResult(REAL, ZERO, (), (_C0, RealLift("c={-1}", 1, 0))),
    (True, False): Delta3LocalResult(REAL, ZERO, (), (_C0, RealLift("c={-1}", 0, 1))),
}


class SpecificLiftResult(NamedTuple):
    """Per-place delta3 values of the lift c0 = 3*(p choose 2) of (-p^3, p);
    at_p holds the two invariant bits at p."""

    p: int
    at_p: tuple[int, int]
    notes: tuple[str, ...]


def delta3_specific_lift_family(p: int) -> SpecificLiftResult:
    """Both components at p equal {2} cup {p}; zero at R and all other odd primes."""
    if not is_prime(p) or p % 4 != 1:
        raise InapplicableError(f"{p} is not a prime congruent to 1 mod 4")
    inv = cup_qp(square_class_vu(0, 2, p), square_class_vu(1, 1, p), p)
    notes = (
        f"components at {p}: both equal {{2}} cup {{p}} = {half_str(inv)}"
        f" (1/2 iff p = 5 mod 8; here p = {p % 8} mod 8)",
        "components at R and at every odd prime other than p: 0"
        " (the lift is unramified there)",
    )
    return SpecificLiftResult(p, (inv, inv), notes)


class GlobalFamilyResult(NamedTuple):
    p: int
    verdict: str
    trace: tuple[str, ...]


def delta3_global_family(p: int) -> GlobalFamilyResult:
    """Global delta3 mod 2 of (-p^3, p) is zero for p = 5 mod 8.

    The trace re-runs the ingredients: local vanishing at p for some lift,
    lift adjustability at R, and reciprocity closing the place 2.
    """
    if not is_prime(p) or p % 8 != 5:
        raise OutOfFamilyError(f"{p} is not a prime congruent to 5 mod 8")
    # -p^3 and p have the local data (3, p - 1) and (1, 1) at p.
    status, cases = _delta3_odd(3, p - 1, 1, 1, p)
    real = _REAL_PLACE[True, False]  # -p^3 < 0 < p
    if status != ZERO or real.status != ZERO:
        raise AssertionError(f"family hypothesis failed at p={p}")  # pragma: no cover
    trace = (
        f"local delta3 at {p} is ZERO for some lift (case trace: "
        + ", ".join(f"{t.case}:{'n/a' if not t.applicable else t.cup}" for t in cases)
        + ")",
        "at R a vanishing lift exists (the two lifts differ by {-1}): "
        + ", ".join(f"{l.label} -> ({l.comp_x},{l.comp_y})" for l in real.real_lifts),
        "at 2 the remaining invariant vanishes by reciprocity; all other places"
        " are unramified for the chosen global lift",
    )
    return GlobalFamilyResult(p, ZERO, trace)


def delta3_at(b, a, place: Place) -> Delta3LocalResult:
    """Local delta3 mod 2 of (b, a) at one place: R or an odd prime.

    At R the entry depends only on the signs of b and a (see _REAL_PLACE);
    on the kernel of real delta2 one lift vanishes, so the status is ZERO.
    The place 2 is refused here.  Any other place goes through
    arith.local_data, which checks the prime, then b, then a.
    """
    if place == REAL:
        return _REAL_PLACE[as_rational(b) < 0, as_rational(a) < 0]
    # Only the int 2 is the place 2; any place that is not an int, 2.0 too,
    # is refused by type in local_data.
    if place == 2 and isinstance(place, int):
        raise UnsupportedPlaceError("local delta3 is not evaluated at the place 2")
    return Delta3LocalResult(place, *_delta3_odd(*local_data(b, a, place), place))


def delta2_global(b, a) -> Delta2GlobalVerdict:
    """Global delta2 through K2(Q), from report(): the mod-2 witnesses are
    the symbols that are non-squares in F_p^* (resp. -1 at 2), the K2
    witnesses those different from 1.  Only the odd primes dividing ab
    and 2 can carry a nontrivial symbol."""
    return report(b, a).delta2


def report(b, a) -> ObstructionReport:
    """Full per-place delta2/delta3 report with fast-path and reciprocity
    notes, at the odd primes of Point.of(b, a) and then R; at every other
    odd place all classes involved are unit classes, so nothing can be
    obstructed.  One pass over the primes gives every entry, and on an
    integer point the congruence fast path at each prime dividing ab once,
    whose notes follow the reciprocity note."""
    point = Point.of(b, a)
    b, a = point.b, point.a
    num_b, num_a = b.numerator, a.numerator
    integral = b.denominator == a.denominator == 1
    d2_local, d3_local, witnesses, k2_witnesses, fast_notes = [], [], [], [], []
    xor, fast_ok = 0, True
    for p, v_b, u_b, v_a, u_a in point.local:
        status, cases = _delta3_odd(v_b, u_b, v_a, u_a, p)
        # delta3 is blocked exactly where local delta2 is 1/2, which is
        # where the tame symbol is a non-square in F_p^*.
        inv = int(status == BLOCKED)
        xor ^= inv
        d2_local.append((p, inv))
        d3_local.append(Delta3LocalResult(p, status, cases))
        value = tame_symbol_vu(v_b, u_b, v_a, u_a, p)
        if value != 1:
            symbol = TameSymbolValue(p, value)
            k2_witnesses.append(symbol)
            if inv:
                witnesses.append(symbol)
        if integral and v_b + v_a == 1:
            d2_zero, d3_zero = _congruence(num_b, num_a, p)
            d2_ok = d2_zero == (inv == 0)
            d3_ok = d3_zero is None or d3_zero == (status == ZERO)
            fast_ok = fast_ok and d2_ok and d3_ok
            fast_notes.append(
                f"congruence fast path at {p}: delta2 {'agrees' if d2_ok else 'DISAGREES'}"
                + ("" if d3_zero is None else f", delta3 {'agrees' if d3_ok else 'DISAGREES'}")
            )
    real = _REAL_PLACE[num_b < 0, num_a < 0]
    inv = int(real.status == BLOCKED)
    xor ^= inv
    d2_local.append((REAL, inv))
    d3_local.append(real)
    v2_b, v2_a = point.v2
    two = _symbol_at_2(_decompose_2adic(b, v2_b), _decompose_2adic(a, v2_a))
    if two.value != 1:
        k2_witnesses.append(two)
        witnesses.append(two)
    d2_global = Delta2GlobalVerdict(not witnesses, tuple(witnesses), not k2_witnesses, tuple(k2_witnesses))
    notes = []
    if d2_global.zero != d2_global.k2_zero:
        detail = ", ".join(f"({w.place}: {w.value})" for w in k2_witnesses)
        notes.append(
            "full K2 layer differs from the mod-2 layer: nontrivial symbols "
            f"{detail} are squares locally, so only delta2 mod 2 vanishes"
        )
    reciprocal = (xor == 1) == (two.value == -1)
    notes.append(
        f"reciprocity: XOR of odd/real invariants = {xor}, 2-adic symbol = "
        f"{two.value:+d} ({'consistent' if reciprocal else 'INCONSISTENT'})"
    )
    notes += fast_notes
    return ObstructionReport(
        b, a, tuple(d2_local), d2_global, tuple(d3_local), tuple(notes), reciprocal and fast_ok
    )


# ---------------------------------------------------------------------------
# JSON serialization (stable field names)
# ---------------------------------------------------------------------------


def delta2_json(rep: ObstructionReport) -> dict:
    return {
        "global": "zero" if rep.delta2.zero else "nonzero",
        "witnesses": [
            {"place": str(w.place), "value": str(w.value)} for w in rep.delta2.witnesses
        ],
        "local": [
            {"place": str(v), "invariant": inv} for v, inv in rep.delta2_local
        ],
    }


def delta3_json(entries) -> dict:
    """The JSON form of the Delta3LocalResult values in entries, in order."""
    return {
        "local": [
            {
                "place": str(r.place),
                "status": r.status,
                "cases": [
                    {"case": t.case, "applicable": t.applicable, "cup": t.cup}
                    for t in r.cases
                ],
            }
            for r in entries
        ]
    }


def report_json(rep: ObstructionReport) -> dict:
    return {
        "point": {"b": str(rep.b), "a": str(rep.a)},
        "delta2": delta2_json(rep),
        "delta3_mod2": delta3_json(rep.delta3_local),
        "notes": list(rep.notes),
    }
