#!/usr/bin/env python3
"""Scan the (-p^3, p) family: per-prime lift values and global verdicts.

For every prime p = 1 mod 4 up to --max-p, print the common value of the two
delta3 components of the distinguished lift at p (they equal {2} cup {p}),
and for p = 5 mod 8 the global mod-2 verdict.
"""

import argparse

from nilobstruct.arith import is_prime
from nilobstruct.cli import parse_int
from nilobstruct.localclass import half_str
from nilobstruct.obstruct import delta3_global_family, delta3_specific_lift_family


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=parse_int, default=200)
    args = parser.parse_args()
    if args.max_p < 5:
        parser.error("--max-p must be at least 5, the least prime of the family")

    print(f"{'p':>6} {'p mod 8':>8} {'lift value at p':>16} {'global delta3':>14}")
    for p in range(5, args.max_p + 1, 4):
        if not is_prime(p):
            continue
        lift = delta3_specific_lift_family(p)
        verdict = delta3_global_family(p).verdict if p % 8 == 5 else "-"
        print(f"{p:>6} {p % 8:>8} {half_str(lift.at_p[0]):>16} {verdict:>14}")


if __name__ == "__main__":
    main()
