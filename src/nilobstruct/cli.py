"""Command-line interface: the ``obstruct`` tool."""

from __future__ import annotations

import argparse
import json
import re
import sys

from .arith import parse_rational

# Lets bare negative rationals like -1 or -3/5 parse as positionals.
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")
from .localclass import REAL
from .obstruct import (
    delta3_global_family,
    delta3_specific_lift_family,
    report,
    report_json,
)

# A report note carrying one of these words records a failed self-check.
_FAILED_CHECK_WORDS = ("INCONSISTENT", "DISAGREES")


def _parse_place(text: str):
    if text.upper() == "R":
        return REAL
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"a place is an odd prime or R, not {text!r}") from None
    if p == 2:
        raise argparse.ArgumentTypeError("local delta3 is not evaluated at the place 2")
    return p


def _print_report(rep, show_delta2: bool, show_delta3: bool, place=None) -> None:
    print(f"point (b, a) = ({rep.b}, {rep.a})")
    if show_delta2:
        print(f"delta2 global (mod 2): {'zero' if rep.delta2.zero else 'nonzero'}")
        for w in rep.delta2.witnesses:
            print(f"  witness at {w.place}: ({rep.b},{rep.a})_{w.place} = {w.value}")
        print(f"delta2 global (full K2): {'zero' if rep.delta2.k2_zero else 'nonzero'}")
        for w in rep.delta2.k2_witnesses:
            print(f"  K2 symbol at {w.place}: {w.value}")
        for v, inv in rep.delta2_local:
            print(f"  delta2 local at {v}: {inv}")
    if show_delta3:
        for r in rep.delta3_local:
            if place is not None and r.place != place:
                continue
            print(f"delta3 mod 2 at {r.place}: {r.status}")
            for t in r.cases:
                value = "n/a" if not t.applicable else ("1/2" if t.cup else "0")
                print(f"  case ({t.case}): applicable={t.applicable} cup={value}")
            for lift in r.real_lifts:
                print(f"  lift {lift.label}: components ({lift.comp_x}, {lift.comp_y})")
    for note in rep.notes:
        print(f"note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="obstruct",
        description="Evaluate 2- and 3-nilpotent obstructions for points (b, a) of Gm x Gm over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("delta2", "delta3", "report"):
        p = sub.add_parser(name)
        p._negative_number_matcher = _NEGATIVE_RATIONAL
        p.add_argument("b", help="nonzero rational, -?digits(/digits)?")
        p.add_argument("a", help="nonzero rational, -?digits(/digits)?")
        p.add_argument("--json", action="store_true")
        if name == "delta3":
            p.add_argument("--place", type=_parse_place, default=None, help="odd prime or R")

    family = sub.add_parser("family").add_subparsers(dest="family_command", required=True)
    lift = family.add_parser("specific-lift")
    lift.add_argument("p", type=int)
    glob = family.add_parser("global")
    glob.add_argument("p", type=int)

    verify = sub.add_parser("verify")
    verify.add_argument("--max-group-order", type=int, default=8)
    verify.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate every D(cb) cochain on cochain-suite models of order <= 4",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--suite", choices=("cochain", "nilpotent", "all"), default="all")
    verify.add_argument("--json", action="store_true", help="print one JSON object per check")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command in ("delta2", "delta3", "report"):
        place = getattr(args, "place", None)
        rep = report(parse_rational(args.b), parse_rational(args.a), extra_place=place)
        if args.json:
            payload = report_json(rep, place)
            if args.command == "delta2":
                payload.pop("delta3_mod2")
            elif args.command == "delta3":
                payload.pop("delta2")
            print(json.dumps(payload))
        else:
            _print_report(
                rep,
                show_delta2=args.command in ("delta2", "report"),
                show_delta3=args.command in ("delta3", "report"),
                place=place,
            )
        failed = any(word in note for note in rep.notes for word in _FAILED_CHECK_WORDS)
        return 1 if failed else 0

    if args.command == "family":
        if args.family_command == "specific-lift":
            result = delta3_specific_lift_family(args.p)
            print(f"point (-{args.p}^3, {args.p}), lift c0 = 3*(p choose 2)")
            print(f"components at {result.p}: ({result.at_p[0]}, {result.at_p[1]})")
            for note in result.notes:
                print(f"note: {note}")
        else:
            result = delta3_global_family(args.p)
            print(f"delta3 mod 2 of (-{args.p}^3, {args.p}) over Q: {result.verdict}")
            for line in result.trace:
                print(f"  {line}")
        return 0

    if args.command == "verify":
        from .verify import run_suites

        results = run_suites(
            suite=args.suite,
            max_order=args.max_group_order,
            exhaustive=args.exhaustive,
            seed=args.seed,
        )
        failed = [r for r in results if not r.passed]
        if args.json:
            for r in results:
                print(json.dumps({
                    "name": r.name,
                    "scope": r.scope,
                    "cases": r.cases,
                    "seconds": r.seconds,
                    "passed": r.passed,
                    "first_failure": r.failures[0] if r.failures else None,
                }))
        else:
            for r in results:
                print(r.line())
            print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        return 1 if failed else 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
