#!/usr/bin/env python3
"""Mutant gate: every mutant of MUTANTS must be killed by its tests.

A mutant is one literal edit of one source file, `old` -> `new`, where
`old` occurs exactly once in the file, with a label and the test files
that should kill it.  Each mutant runs in a fresh temporary copy of the
tree (src, tests, scripts, perfbench and pyproject.toml): the edit is made
there and its test files run with `pytest -x -q -p no:cacheprovider`, a
fixed hypothesis seed and the "mutants" hypothesis profile of
tests/conftest.py.  A mutant whose tests pass survives.

The script exits 1 naming every survivor.  Before it runs any mutant it
also exits 1 if an `old` string no longer occurs exactly once in its file,
so a refactor must update the list instead of dropping a mutant unseen, and
if any set of test files fails on the unmutated copy, so that a failure
under a mutant is the mutant's doing: pytest's exit 1 (a test failed) and
exit 2 (collection stopped, as when the edit breaks an import) then both
count as a kill.

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
# A fixed seed, and the tests' "mutants" profile, which does not shrink the
# failing example that kills a mutant.
HYPOTHESIS = ("--hypothesis-seed=0", "--hypothesis-profile=mutants")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    label: str
    tests: tuple[str, ...]


COH = "src/nilobstruct/cohomology.py"
NIL = "src/nilobstruct/nilpotent.py"
OBS = "src/nilobstruct/obstruct.py"

MUTANTS = (
    # The report path: the odd-place criterion, its key and the self-checks.
    Mutant(
        OBS,
        "j_b = 0 if r_b == 1 else 2 if r_b == p - 1 else 1",
        "j_b = 0 if r_b == 1 else 0 if r_b == p - 1 else 1",
        "+-1 read alike in _delta3_odd",
        ("tests/test_obstruct.py",),
    ),
    Mutant(
        OBS,
        "else 1 if j_b != 1 or r_a == r_b else 3",
        "else 1",
        "j_a's normalisation dropped",
        ("tests/test_obstruct.py",),
    ),
    Mutant(
        OBS,
        "two = q in (3, 5)",
        "two = q in (3, 7)",
        "second supplement law read at 3 and 7 mod 8",
        ("tests/test_obstruct.py",),
    ),
    Mutant(
        OBS,
        "t_ii = 2 if cls_a ^ neg_one else",
        "t_ii = 2 if True else",
        "case (ii) never applies",
        ("tests/test_obstruct.py",),
    ),
    Mutant(
        OBS,
        "cup_qp((w_b + w_a) & 2 | (two ^ root_ab), cls_a, q)",
        "cup_qp((w_b + w_a) & 2 | (two ^ root_ab), cls_a, q) ^ root_ab",
        "case (iii)'s bit xored with the root class",
        ("tests/test_obstruct.py",),
    ),
    Mutant(
        OBS,
        "return (True, True) if pow(s, p >> 1, p) == 1 else (False, None)",
        "return (True, False) if pow(s, p >> 1, p) == 1 else (False, None)",
        "fast path: no fourth powers at p = 3 mod 4",
        ("tests/test_point.py",),
    ),
    Mutant(
        OBS,
        "return (True, t == 1) if t == 1 or t == p - 1 else (False, None)",
        "return (True, t == 1) if t == 1 else (False, None)",
        "fast path reads only t == 1 as a square",
        ("tests/test_point.py",),
    ),
    Mutant(
        OBS,
        "fast_ok = fast_ok and d2_ok and d3_ok",
        "fast_ok = fast_ok and d2_ok",
        "fast path: delta3 disagreement ignored",
        ("tests/test_point.py", "tests/test_cli.py"),
    ),
    Mutant(
        "src/nilobstruct/k2global.py",
        "return p - value if v_b & v_a & 1 else value",
        "return value",
        "tame symbol without its sign",
        ("tests/test_k2global.py",),
    ),
    Mutant(
        "src/nilobstruct/k2global.py",
        "value = pow(u_b, v_a, p) if v_a else 1",
        "value = pow(u_b, v_a, p) if v_a > 0 else 1",
        "tame symbol skips a nonzero exponent",
        ("tests/test_k2global.py",),
    ),
    Mutant(
        "src/nilobstruct/k2global.py",
        "exponent = i * big_i + j * big_k + k * big_j",
        "exponent = i * big_i + j * big_k",
        "symbol at 2 without its kJ term",
        ("tests/test_k2global.py",),
    ),
    Mutant(
        "src/nilobstruct/arith.py",
        "    (3, 1373653),\n",
        "",
        "Miller-Rabin base 3 dropped",
        ("tests/test_arith.py",),
    ),
    Mutant(
        "src/nilobstruct/arith.py",
        "_RHO_MAX_R = 1 << 21",
        "_RHO_MAX_R = 1 << 12",
        "rho's bound at 2^12",
        ("tests/test_arith.py",),
    ),
    # The nilpotent engine.
    Mutant(
        NIL,
        "        c1 + c2 + b1 * a2,\n",
        "        c1 + c2 + a1 * b2,\n",
        "switch law transposed in mul_vec",
        ("tests/test_nilpotent.py",),
    ),
    Mutant(
        NIL,
        "chi3 * e - rc - f * chi * a",
        "chi3 * e - rc + f * chi * a",
        "sign of f in act_vec",
        ("tests/test_nilpotent.py",),
    ),
    # The Magnus kernels on byte lanes.
    Mutant(
        NIL,
        "(_lane_mul(b, c, n, m) + up - d) & low",
        "(_lane_mul(b, c, n, m) + d) & low",
        "embedding adds d on XXY instead of subtracting it",
        ("tests/test_nilpotent.py",),
    ),
    Mutant(
        NIL,
        "up - _lane_mul(a, c, n, m) + e) & low",
        "up - _lane_mul(a, c, n, m)) & low",
        "embedding drops e from YYX",
        ("tests/test_nilpotent.py",),
    ),
    Mutant(
        NIL,
        "_BINOM_UP = {m: bytes([(n * (n + 1) >> 1) % m for n in range(256)]) for m in _MUL}",
        "_BINOM_UP = {m: bytes([(n * (n - 1) >> 1) % m for n in range(256)]) for m in _MUL}",
        "extraction reads C(a, 2) for C(a + 1, 2)",
        ("tests/test_nilpotent.py",),
    ),
    # The collection kernels on byte lanes, and the product kernel on TOWER4
    # index lanes that reads the section boundary's products and the
    # compatibility check's TOWER4 side.
    Mutant(
        NIL,
        " + _lane_mul(b1a2, b2, n, m),",
        ",",
        "mul_lanes without its b1 a2 b2 term",
        ("tests/test_nilpotent.py",),
    ),
    Mutant(
        NIL,
        "b1_up = _ints(g[1].translate(_BINOM_UP[m]))",
        'b1_up = _ints(b1.to_bytes(n, "little").translate(_BINOM_UP[m]))',
        "mul_lanes reads C(b1 + 1, 2) from the masked lane",
        ("tests/test_nilpotent.py",),
    ),
    Mutant(
        NIL,
        "+ up - _lane_mul(_ints(f) & low, xa, n, m)",
        "+ _lane_mul(_ints(f) & low, xa, n, m)",
        "sign of f in act_lanes",
        ("tests/test_nilpotent.py",),
    ),
    Mutant(
        "src/nilobstruct/verify.py",
        "ij = nil.tower4_products(tables, i, j)",
        "ij = nil.tower4_products(tables, j, i)",
        "compatibility reads the TOWER4 table at (j, i)",
        ("tests/test_verify.py",),
    ),
    Mutant(
        NIL,
        " ^ (x & 3 * ones)",
        "",
        "tower4_products drops i's d and e",
        ("tests/test_nilpotent.py",),
    ),
    Mutant(
        NIL,
        "c1 = (x >> 2 & ones) * 0xFF",
        "c1 = 0",
        "tower4_products reads S_0 in every lane",
        ("tests/test_nilpotent.py",),
    ),
    # The cochain kernels.
    Mutant(
        COH,
        "n2, mask = self.n * self.n, (modulus - 1) * ones3",
        "n2, mask = self.n * self.n, (min(modulus, 4) - 1) * ones3",
        "cocycle law blind at modulus 8",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        COH,
        "rows + cols + self.base[2][modulus] - composed",
        "rows + cols - composed",
        "coboundary without + m",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        COH,
        "_MUL = {m: bytes([(i >> 4) * (i & 15) % m for i in range(256)]) for m in (2, 4, 8, 16)}",
        "_MUL = {m: bytes([(i >> 4) * (i & 15) % 8 for i in range(256)]) for m in (2, 4, 8, 16)}",
        "_MUL mod 8 at every modulus",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        COH,
        "left = _lane_mul(left, twist, n2 * self.n * self.cases, modulus)",
        "left = left",
        "2-cocycle law without the twist",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        COH,
        "        if weight & 1 and modulus != 2:\n            cols = _lane_mul(",
        "        if modulus != 2:\n            cols = _lane_mul(",
        "coboundary twisted at an even weight",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        COH,
        "if d.weight & 1 and mod != 2:",
        "if c.weight & 1 and mod != 2:",
        "cup twisted by the weight of its first factor",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        COH,
        "lanes.base[d][m] - self.lanes & lanes.mask[d][m]",
        "-self.lanes & lanes.mask[d][m]",
        "negation without + m",
        ("tests/test_cohomology.py",),
    ),
    # The batch axis: its joins, lane products, failure walks and the
    # batched section boundary.
    Mutant(
        COH,
        'return int.from_bytes(x.to_bytes(blocks * self.cases, "little") * self.n, "little")',
        'return int.from_bytes(x.to_bytes(blocks * self.cases, "little") * self.n, "little") << 8',
        "batch columns off by one lane",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        COH,
        "return rows & cols if modulus == 2 else _lane_mul(rows, cols, n * n * self.cases, modulus)",
        "return rows & cols >> 8 if modulus == 2 else _lane_mul(rows, cols >> 8, n * n * self.cases, modulus)",
        "batch lane product pairs case i with case i + 1",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        COH,
        'return [i for i, x in enumerate(diff.to_bytes(L, "little")) if x]',
        'return [i for i, x in enumerate(diff.to_bytes(L, "little")) if x and i < L - 1]',
        "failure walk skips the last case",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        COH,
        "b\"\".join([joined[p::size] for p in range(size)])",
        "b\"\".join([joined[p::size][::-1] for p in range(size)])",
        "pack, select and repeat reverse the cases",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        NIL,
        'take = int.from_bytes(f_g.to_bytes(L, "little") * n, "little") * 0xFF',
        'take = int.from_bytes(f_g.to_bytes(L, "little") * n, "little") * 0xFF << 8',
        "batch boundary reads case i + 1's f",
        ("tests/test_nilpotent.py", "tests/test_verify.py"),
    ),
    Mutant(
        NIL,
        "row_of = b\"\".join([block * n for block in blocks])",
        "row_of = b\"\".join([block * n for block in blocks[::-1]])",
        "batch boundary reads the rows of the wrong elements",
        ("tests/test_nilpotent.py",),
    ),
    # The batched identity checks and the batched lift solver.
    Mutant(
        "src/nilobstruct/verify.py",
        "coh._lane_mul(coboundary(cs).lanes, factor.lanes, n * n * cs.cases, 4)",
        "coh._lane_mul(coboundary(cs).lanes, factor.lanes >> 8, n * n * cs.cases, 4)",
        "D(cb) factor read from the next case",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "src/nilobstruct/verify.py",
        'a={cocs[i % K].values}")',
        'a={cocs[(i + 1) % K].values}")',
        "pair checks name pair i + 1",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "src/nilobstruct/verify.py",
        "return batch.repeat([K] * K), batch.tile(K)",
        "return batch.tile(K), batch.repeat([K] * K)",
        "pair batches give case i*K + j the pair (cocs[j], cocs[i])",
        ("tests/test_verify.py",),
    ),
    Mutant(
        COH,
        "joined = b\"\".join([data[i::L] * k for i, k in enumerate(counts) if k])",
        "joined = b\"\".join([data[i::L] * k for i, k in enumerate(counts[1:] + counts[:1]) if k])",
        "repeat gives case i the count of case i + 1",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        "src/nilobstruct/verify.py",
        "b, a = (x.repeat([len(cs) * F for cs in solved]) for x in (bs, as_))",
        "b, a = (x.repeat([len(cs) * F for cs in solved[1:] + solved[:1]]) for x in (bs, as_))",
        "level-3 spread repeats each pair by the next pair's lift count",
        ("tests/test_verify.py",),
    ),
    Mutant(
        COH,
        "values[g] + values[s] * pow(model.chi[g], weight, m) + m * ones",
        "values[g] + values[s] + m * ones",
        "solver walk without its twist",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        COH,
        "run = m ** (len(gens) - 1 - j) * T\n        values[s] = int.from_bytes(b\"\".join([bytes([v]) * run for v in range(m)]) * m**j,",
        "run = m**j * T\n        values[s] = int.from_bytes(b\"\".join([bytes([v]) * run for v in range(m)]) * m ** (len(gens) - 1 - j),",
        "solver candidates in reversed digit order",
        ("tests/test_cohomology.py",),
    ),
)


def check_olds(mutants=MUTANTS) -> list[str]:
    """The complaints about mutants whose old string does not occur exactly
    once in its file, or whose edit changes nothing."""
    problems = []
    for m in mutants:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.label}: old string occurs {count} times in {m.file}")
        if m.old == m.new:
            problems.append(f"{m.label}: new string equals old")
    return problems


def run_tests(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int, float, str]:
    """(pytest's exit code, seconds, last output line) of the test files
    run in a fresh temporary copy of the tree, with the mutant's edit made
    there if one is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(source, tree / name)
        if mutant is not None:
            path = tree / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *HYPOTHESIS, *tests]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return proc.returncode, seconds, lines[-1] if lines else ""


def main() -> int:
    problems = check_olds()
    if problems:
        print("\n".join(problems))
        return 1
    start = time.perf_counter()
    for tests in dict.fromkeys(m.tests for m in MUTANTS):
        code, seconds, last = run_tests(tests)
        print(f"clean    {seconds:5.1f} s  {' '.join(tests)}  [{last}]", flush=True)
        if code != 0:
            print(f"the unmutated tree fails {' '.join(tests)} (pytest exit {code}); no mutant can be judged")
            return 1
    survivors = []
    for m in MUTANTS:
        code, seconds, last = run_tests(m.tests, m)
        if code not in (0, 1, 2):
            print(f"{m.label}: pytest exited {code}  [{last}]")
            return 1
        print(f"{'killed' if code else 'SURVIVED'}  {seconds:5.1f} s  {m.label}  [{last}]", flush=True)
        if not code:
            survivors.append(m.label)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    if survivors:
        print("survivors: " + "; ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
