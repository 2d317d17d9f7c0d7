#!/usr/bin/env python3
"""Check that the integer points of X = P^1 - {0, 1, inf} are unobstructed.

A rational point z of X gives a section of pi_1(X) -> G_Q, and its image in
every nilpotent quotient is a section too, over Q and over every Q_v.  Its
Abel-Jacobi image is (b, a) = (z, 1 - z).  So report(z, 1 - z) must have
delta2 zero globally and at every place, and delta3 zero at every place.
The script checks every integer z != 0, 1 with |z| <= --bound, prints each
obstructed one, and exits with status 1 if there is any.
"""

import argparse
import sys

from nilobstruct.cli import parse_int
from nilobstruct.obstruct import ZERO, report


def obstructions(b, a) -> list[str]:
    """Where report(b, a) is obstructed: delta2 globally, the places of a
    nonzero local delta2, and the places whose delta3 status is not zero."""
    rep = report(b, a)
    found = [] if rep.delta2.zero else ["delta2 global"]
    found += [f"delta2 at {v}" for v, inv in rep.delta2_local if inv]
    found += [f"delta3 at {r.place}: {r.status}" for r in rep.delta3_local if r.status != ZERO]
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=parse_int, default=10**4)
    args = parser.parse_args()
    if args.bound < 1:
        parser.error("--bound must be at least 1, so that z = -1 is in range")

    points = [z for z in range(-args.bound, args.bound + 1) if z not in (0, 1)]
    obstructed = 0
    for z in points:
        found = obstructions(z, 1 - z)
        if found:
            obstructed += 1
            print(f"z = {z}: {', '.join(found)}")
    print(f"{len(points)} curve points (z, 1 - z), integers with |z| <= {args.bound}: {obstructed} obstructed")
    return 1 if obstructed else 0


if __name__ == "__main__":
    sys.exit(main())
