#!/usr/bin/env python3
"""Print one short hash of report()'s output per point of a fixed corpus.

The corpus is every integer point (b, a) with 0 < |b|, |a| <= 40, 2,000
seeded rationals whose denominators carry powers of 3 up to 3^7 and of 5 up
to 5^5, and a literal list of points with a prime factor above 10^6.  Each
point prints as "b a hash", the hash taken over
json.dumps(report_json(report(b, a)), sort_keys=True).  The first 200
points then print again as "cli b a hash", the hash taken over the exit
code and the text of `obstruct report b a`.

tests/report_corpus.txt holds this output.  A change that keeps the report
path's output byte-identical leaves every line as it is; a drift names the
first point whose output differs:

    diff tests/report_corpus.txt <(python scripts/report_corpus.py)
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from nilobstruct.cli import main as cli_main
from nilobstruct.obstruct import report, report_json

# Primes above 10^6, of every residue mod 8, up to 15 digits.
BIG_PRIMES = (
    1000003, 1000033, 1000037, 1000039, 9999991, 10000019, 100000007, 999999937,
    1000000007, 1000000009, 2147483647, 99999999977, 999999999989, 999999999999989,
)

# Points with a prime factor above 10^6.  Each prime p of BIG_PRIMES gives
# (-p, k), (k/p, -(k+2)p) and (kp, -(k+4)p); those below 10^7 also give
# (-p^3, p) and (-kp^2, k+2); then two products of two such primes.  Rho
# meets no prime power of a prime above 10^7 here, as it takes about
# sqrt(p) steps to split one.
BIG_POINTS = (
    ("-1000003", "3"), ("3/1000003", "-5000015"), ("3000009", "-7000021"),
    ("-1000033", "5"), ("5/1000033", "-7000231"), ("5000165", "-9000297"),
    ("-1000037", "7"), ("7/1000037", "-9000333"), ("7000259", "-11000407"),
    ("-1000039", "11"), ("11/1000039", "-13000507"), ("11000429", "-15000585"),
    ("-9999991", "13"), ("13/9999991", "-149999865"), ("129999883", "-169999847"),
    ("-10000019", "17"), ("17/10000019", "-190000361"), ("170000323", "-210000399"),
    ("-100000007", "19"), ("19/100000007", "-2100000147"), ("1900000133", "-2300000161"),
    ("-999999937", "23"), ("23/999999937", "-24999998425"), ("22999998551", "-26999998299"),
    ("-1000000007", "29"), ("29/1000000007", "-31000000217"), ("29000000203", "-33000000231"),
    ("-1000000009", "31"), ("31/1000000009", "-33000000297"), ("31000000279", "-35000000315"),
    ("-2147483647", "37"), ("37/2147483647", "-83751862233"), ("79456894939", "-88046829527"),
    ("-99999999977", "41"), ("41/99999999977", "-4299999999011"), ("4099999999057", "-4499999998965"),
    ("-999999999989", "43"), ("43/999999999989", "-44999999999505"), ("42999999999527", "-46999999999483"),
    ("-999999999999989", "47"), ("47/999999999999989", "-48999999999999461"),
    ("46999999999999483", "-50999999999999439"),
    ("-1000009000027000027", "1000003"), ("-3000018000027", "5"),
    ("-1000099003267035937", "1000033"), ("-5000330005445", "7"),
    ("-1000111004107050653", "1000037"), ("-7000518009583", "9"),
    ("-1000117004563059319", "1000039"), ("-11000858016731", "13"),
    ("-999997300002429999271", "9999991"), ("-1299997660001053", "15"),
    ("1000036000099", "-1"), ("-999999945999999433", "5"),
)

# How many points, from the first, also print the hash of their CLI text.
CLI_POINTS = 200


def corpus() -> list[tuple[Fraction, Fraction]]:
    """The points, in the order their lines print."""
    grid = [k for k in range(-40, 41) if k]
    points = [(Fraction(b), Fraction(a)) for b in grid for a in grid]
    rng = random.Random(2809)

    def rational():
        while True:
            num = rng.randint(-10**5, 10**5)
            if num:
                return Fraction(num, 3 ** rng.randint(0, 7) * 5 ** rng.randint(0, 5) * rng.randint(1, 30))

    points += [(rational(), rational()) for _ in range(2000)]
    points += [(Fraction(b), Fraction(a)) for b, a in BIG_POINTS]
    return points


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def report_hash(b: Fraction, a: Fraction) -> str:
    return _digest(json.dumps(report_json(report(b, a)), sort_keys=True))


def cli_hash(b: Fraction, a: Fraction) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["report", str(b), str(a)])
    return _digest(f"{code}\n{out.getvalue()}")


def corpus_lines() -> list[str]:
    points = corpus()
    lines = [f"{b} {a} {report_hash(b, a)}" for b, a in points]
    lines += [f"cli {b} {a} {cli_hash(b, a)}" for b, a in points[:CLI_POINTS]]
    return lines


if __name__ == "__main__":
    print("\n".join(corpus_lines()))
