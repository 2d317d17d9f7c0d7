#!/usr/bin/env python3
"""Empirical scan of the congruence criterion against the case evaluator.

Draw random integer points (b, a) with an odd prime p dividing ab exactly
once, evaluate local delta2/delta3 both through the three-case machinery and
through the square / fourth-power congruences on a + b, and tabulate the
joint verdicts.  Any disagreement would be a bug, and the script then exits
with status 1; the table also shows how often each obstruction layer
actually bites on random inputs.
"""

import argparse
import random
import sys
from collections import Counter

from nilobstruct.cli import parse_int
from nilobstruct.obstruct import BLOCKED, ZERO, delta3_at, delta3_congruence

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=parse_int, default=5000)
    parser.add_argument("--seed", type=parse_int, default=0)
    parser.add_argument("--bound", type=parse_int, default=10**6)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.bound < max(PRIMES):
        parser.error(f"--bound must be at least {max(PRIMES)}")

    rng = random.Random(args.seed)
    cells: Counter[str] = Counter()
    disagreements = 0
    done = 0
    while done < args.count:
        p = rng.choice(PRIMES)
        unit = rng.choice((-1, 1)) * rng.randint(1, args.bound)
        ramified = rng.choice((-1, 1)) * p * rng.randint(1, args.bound // p)
        if unit % p == 0 or ramified % (p * p) == 0:
            continue
        b, a = (ramified, unit) if rng.random() < 0.5 else (unit, ramified)
        d2_zero, d3_zero = delta3_congruence(b, a, p)
        result = delta3_at(b, a, p)
        if d2_zero:
            agree = (result.status == ZERO) == d3_zero
            cells[f"delta2=0, delta3{'=0' if d3_zero else '!=0'}"] += 1
        else:
            agree = result.status == BLOCKED
            cells["delta2!=0"] += 1
        disagreements += not agree
        done += 1

    print(f"{args.count} random points, p dividing ab exactly once, p <= 97")
    for cell, count in sorted(cells.items()):
        print(f"  {cell:>22}: {count:6d}  ({100 * count / args.count:.1f}%)")
    print(f"case evaluator vs congruence disagreements: {disagreements}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
