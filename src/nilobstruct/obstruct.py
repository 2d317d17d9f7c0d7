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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    Point,
    _is_fourth_power_mod,
    _legendre,
    _valuation,
    as_rational,
    check_odd_prime,
    is_prime,
    local_data,
)
from .k2global import Delta2GlobalVerdict, delta2_global_point, support_odd_primes
from .localclass import (
    INV_ZERO,
    REAL,
    LocalInvariant,
    Place,
    cup_qp,
    delta2_local,
    delta2_local_vu,
    square_class_qp,
    square_class_vu,
    sqrt_square_class_vu,
    two_class,
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


@dataclass(frozen=True)
class CaseTrace:
    case: str
    applicable: bool
    cup: int


@dataclass(frozen=True)
class RealLift:
    label: str
    comp_x: int
    comp_y: int


@dataclass(frozen=True)
class Delta3LocalResult:
    place: Place
    status: str
    cases: tuple[CaseTrace, ...]
    real_lifts: tuple[RealLift, ...] = ()


@dataclass(frozen=True)
class ObstructionReport:
    b: Fraction
    a: Fraction
    delta2_local: tuple[tuple[Place, LocalInvariant], ...]
    delta2: Delta2GlobalVerdict
    delta3_local: tuple[Delta3LocalResult, ...]
    notes: tuple[str, ...]


def relevant_places(b, a) -> list[Place]:
    """Odd primes in the support of b or a, then R; at every other odd place
    all classes involved are unit classes, so nothing can be obstructed."""
    return [*support_odd_primes(b, a), REAL]


def delta3_local_odd(b, a, p: int) -> Delta3LocalResult:
    """Three-case local delta3 mod 2 at an odd prime.

    Each case takes the canonical square-root class; under the delta2
    precondition its {-1} twist gives the same verdict, and the property
    tests exercise exactly that.
    """
    if p == 2:
        raise UnsupportedPlaceError("local delta3 is not evaluated at the place 2")
    b = as_rational(b)
    a = as_rational(a)
    check_odd_prime(p)
    return delta3_local_odd_vu(*local_data(b, a, p), p)


def delta3_local_odd_vu(v_b: int, u_b: int, v_a: int, u_a: int, p: int) -> Delta3LocalResult:
    """delta3_local_odd from the local data (see arith.local_data) at a
    certified odd prime.  The classes of -b, -a and ab come from the same
    data: -b is (v_b, -u_b) and ab is (v_b + v_a, u_b u_a)."""
    cls_b = square_class_vu(v_b, u_b, p)
    cls_a = square_class_vu(v_a, u_a, p)
    if cup_qp(cls_b, cls_a).half:
        return Delta3LocalResult(p, BLOCKED, ())

    two = square_class_vu(0, 2, p)
    cases = []
    nonzero = False
    for name, square, partner, extra in (
        ("i", (v_b, -u_b % p), cls_a, INV_ZERO),
        ("ii", (v_a, -u_a % p), cls_b, cup_qp(two, cls_a)),
        ("iii", (v_b + v_a, u_b * u_a % p), cls_a, INV_ZERO),
    ):
        root = sqrt_square_class_vu(*square, p)
        if root is None:
            cases.append(CaseTrace(name, False, 0))
            continue
        value = cup_qp(two ^ root, partner) ^ extra
        cases.append(CaseTrace(name, True, value.half))
        nonzero = nonzero or bool(value.half)
    return Delta3LocalResult(p, NONZERO if nonzero else ZERO, tuple(cases))


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
    s = (a + b) % p
    if _legendre(s, p) != 1:
        return False, None
    return True, _is_fourth_power_mod(s, p)


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


def delta3_local_real(b, a) -> Delta3LocalResult:
    """delta3 mod 2 at R: both lifts over the order-2 model of G_R.

    One of the two lifts always evaluates to (0, 0), so on the kernel of real
    delta2 the status is ZERO.  The result depends only on the signs of b and
    a (see _REAL_PLACE).
    """
    return _REAL_PLACE[as_rational(b) < 0, as_rational(a) < 0]


@dataclass(frozen=True)
class SpecificLiftResult:
    """Per-place delta3 values of the lift c0 = 3*(p choose 2) of (-p^3, p)."""

    p: int
    at_p: tuple[LocalInvariant, LocalInvariant]
    notes: tuple[str, ...]


def delta3_specific_lift_family(p: int) -> SpecificLiftResult:
    """Both components at p equal {2} cup {p}; zero at R and all other odd primes."""
    if not is_prime(p) or p % 4 != 1:
        raise InapplicableError(f"{p} is not a prime congruent to 1 mod 4")
    inv = cup_qp(two_class(p), square_class_qp(p, p))
    notes = (
        f"components at {p}: both equal {{2}} cup {{p}} = {inv}"
        f" (1/2 iff p = 5 mod 8; here p = {p % 8} mod 8)",
        "components at R and at every odd prime other than p: 0"
        " (the lift is unramified there)",
    )
    return SpecificLiftResult(p, (inv, inv), notes)


@dataclass(frozen=True)
class GlobalFamilyResult:
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
    local = delta3_local_odd(-(p**3), p, p)
    real = delta3_local_real(-(p**3), p)
    if local.status != ZERO or real.status != ZERO:
        raise AssertionError(f"family hypothesis failed at p={p}")  # pragma: no cover
    trace = (
        f"local delta3 at {p} is ZERO for some lift (case trace: "
        + ", ".join(f"{t.case}:{'n/a' if not t.applicable else t.cup}" for t in local.cases)
        + ")",
        "at R a vanishing lift exists (the two lifts differ by {-1}): "
        + ", ".join(f"{l.label} -> ({l.comp_x},{l.comp_y})" for l in real.real_lifts),
        "at 2 the remaining invariant vanishes by reciprocity; all other places"
        " are unramified for the chosen global lift",
    )
    return GlobalFamilyResult(p, ZERO, trace)


def delta3_at(b, a, place: Place) -> Delta3LocalResult:
    """Local delta3 at any single place (odd prime or R)."""
    if place == REAL:
        return delta3_local_real(b, a)
    return delta3_local_odd(b, a, place)


def report(b, a, extra_place: Place | None = None) -> ObstructionReport:
    """Full per-place delta2/delta3 report with fast-path and reciprocity notes.

    ``extra_place`` forces one more place into the report even when it lies
    outside the support of ab (where everything provably vanishes).
    """
    point = Point.of(b, a, None if extra_place == REAL else extra_place)
    b, a = point.b, point.a
    d2_local = []
    d3_local = []
    for p, *data in point.local:
        d2_local.append((p, delta2_local_vu(*data, p)))
        d3_local.append(delta3_local_odd_vu(*data, p))
    d2_local.append((REAL, delta2_local(b, a, REAL)))
    d3_local.append(delta3_local_real(b, a))
    d2_global = delta2_global_point(point)
    notes = []
    if d2_global.zero != d2_global.k2_zero:
        detail = ", ".join(f"({w.place}: {w.value})" for w in d2_global.k2_witnesses)
        notes.append(
            "full K2 layer differs from the mod-2 layer: nontrivial symbols "
            f"{detail} are squares locally, so only delta2 mod 2 vanishes"
        )
    xor = 0
    for _, inv in d2_local:
        xor ^= inv.half
    # delta2_global_point lists the symbol at 2 among the K2 witnesses iff it is -1.
    two_value = -1 if any(w.place == 2 for w in d2_global.k2_witnesses) else 1
    agree = (xor == 1) == (two_value == -1)
    notes.append(
        f"reciprocity: XOR of odd/real invariants = {xor}, 2-adic symbol = "
        f"{two_value:+d} ({'consistent' if agree else 'INCONSISTENT'})"
    )
    if b.denominator == 1 and a.denominator == 1:
        for (p, v_b, _, v_a, _), (_, inv), local in zip(point.local, d2_local, d3_local):
            if v_b + v_a != 1:
                continue
            d2_zero, d3_zero = _congruence(b.numerator, a.numerator, p)
            d2_ok = d2_zero == (inv.half == 0)
            d3_ok = d3_zero is None or d3_zero == (local.status == ZERO)
            notes.append(
                f"congruence fast path at {p}: delta2 {'agrees' if d2_ok else 'DISAGREES'}"
                + ("" if d3_zero is None else f", delta3 {'agrees' if d3_ok else 'DISAGREES'}")
            )
    return ObstructionReport(b, a, tuple(d2_local), d2_global, tuple(d3_local), tuple(notes))


# ---------------------------------------------------------------------------
# JSON serialization (stable field names)
# ---------------------------------------------------------------------------


def _place_str(place: Place) -> str:
    return place if place == REAL else str(place)


def delta2_json(rep: ObstructionReport) -> dict:
    return {
        "global": "zero" if rep.delta2.zero else "nonzero",
        "witnesses": [
            {"place": str(w.place), "value": str(w.value)} for w in rep.delta2.witnesses
        ],
        "local": [
            {"place": _place_str(v), "invariant": inv.half} for v, inv in rep.delta2_local
        ],
    }


def delta3_json(rep: ObstructionReport, place: Place | None = None) -> dict:
    entries = []
    for r in rep.delta3_local:
        if place is not None and r.place != place:
            continue
        entries.append(
            {
                "place": _place_str(r.place),
                "status": r.status,
                "cases": [
                    {"case": t.case, "applicable": t.applicable, "cup": t.cup}
                    for t in r.cases
                ],
            }
        )
    return {"local": entries}


def report_json(rep: ObstructionReport, place: Place | None = None) -> dict:
    return {
        "point": {"b": str(rep.b), "a": str(rep.a)},
        "delta2": delta2_json(rep),
        "delta3_mod2": delta3_json(rep, place),
        "notes": list(rep.notes),
    }
