"""Command-line interface: the ``obstruct`` tool."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .arith import parse_rational
from .localclass import REAL, half_str
from .obstruct import (
    delta3_at,
    delta3_global_family,
    delta3_json,
    delta3_specific_lift_family,
    report,
    report_json,
)

# Lets bare negative rationals like -1 or -3/5 parse as positionals.
_NEGATIVE_RATIONAL = re.compile(r"^-[0-9]+(/[0-9]+)?$")

# The exit code when stdout's reader goes away before the output is written,
# as with `obstruct report -1 5 | head -0`: 128 + SIGPIPE, what a shell
# reports for a process that SIGPIPE ended.  0, 1 and 2 keep their meanings.
EXIT_BROKEN_PIPE = 141


def parse_int(text: str) -> int:
    """An ASCII integer literal, -?[0-9]+; int() alone would also read other
    Unicode digits, a sign, spaces and underscores."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _parse_place(text: str):
    if text.upper() == "R":
        return REAL
    try:
        return parse_int(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"a place is an odd prime or R, not {text!r}") from None


def _print_report(rep, show_delta2: bool, delta3) -> None:
    """rep as text, with one delta3 mod 2 block per entry of delta3."""
    print(f"point (b, a) = ({rep.b}, {rep.a})")
    if show_delta2:
        print(f"delta2 global (mod 2): {'zero' if rep.delta2.zero else 'nonzero'}")
        for w in rep.delta2.witnesses:
            print(f"  witness at {w.place}: ({rep.b},{rep.a})_{w.place} = {w.value}")
        print(f"delta2 global (full K2): {'zero' if rep.delta2.k2_zero else 'nonzero'}")
        for w in rep.delta2.k2_witnesses:
            print(f"  K2 symbol at {w.place}: {w.value}")
        for v, inv in rep.delta2_local:
            print(f"  delta2 local at {v}: {half_str(inv)}")
    for r in delta3:
        print(f"delta3 mod 2 at {r.place}: {r.status}")
        for t in r.cases:
            value = half_str(t.cup) if t.applicable else "n/a"
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
    lift.add_argument("p", type=parse_int)
    glob = family.add_parser("global")
    glob.add_argument("p", type=parse_int)

    verify = sub.add_parser("verify")
    verify.add_argument("--max-group-order", type=parse_int, default=8)
    verify.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate every D(cb) cochain on cochain-suite models of order <= 4",
    )
    verify.add_argument("--seed", type=parse_int, default=0)
    verify.add_argument("--suite", choices=("cochain", "nilpotent", "all"), default="all")
    verify.add_argument("--json", action="store_true", help="print one JSON object per check")

    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
        code = _dispatch(args)
        # A closed stdout shows here, not in the interpreter's flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's flush of stdout at exit would fail again: point stdout at
        # devnull, as the note on SIGPIPE in the signal module's docs does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command in ("delta2", "delta3", "report"):
        b, a = parse_rational(args.b), parse_rational(args.a)
        place = getattr(args, "place", None)
        # --place shows that place's entry alone, in or outside the support;
        # a bad place fails here, before the point is factored.
        picked = None if place is None else (delta3_at(b, a, place),)
        rep = report(b, a)
        if args.json:
            payload = report_json(rep)
            if args.command == "delta2":
                payload.pop("delta3_mod2")
            elif args.command == "delta3":
                payload.pop("delta2")
            if picked:
                payload["delta3_mod2"] = delta3_json(picked)
            print(json.dumps(payload))
        else:
            _print_report(
                rep,
                show_delta2=args.command in ("delta2", "report"),
                delta3=() if args.command == "delta2" else picked or rep.delta3_local,
            )
        return 0 if rep.consistent else 1

    if args.command == "family":
        if args.family_command == "specific-lift":
            result = delta3_specific_lift_family(args.p)
            print(f"point (-{args.p}^3, {args.p}), lift c0 = 3*(p choose 2)")
            print(f"components at {result.p}: ({', '.join(map(half_str, result.at_p))})")
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
                print(json.dumps(r.json()))
        else:
            for r in results:
                print(r.line())
            print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        return 1 if failed else 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
