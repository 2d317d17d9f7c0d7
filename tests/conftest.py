import hypothesis
import pytest

from nilobstruct import obstruct
from nilobstruct.arith import is_prime
from nilobstruct.cohomology import Cochain1, coboundary, cup
from nilobstruct.verify import run_suites

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None
)
hypothesis.settings.register_profile(
    "thorough", max_examples=500, deadline=None
)
hypothesis.settings.load_profile("default")

ODD_PRIMES_TO_97 = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    61, 67, 71, 73, 79, 83, 89, 97,
)


def next_prime(n):
    """The least prime >= n."""
    while not is_prime(n):
        n += 1
    return n

# The ten checks identity_suite runs on a model of order <= 4.
IDENTITY_CHECKS = (
    "D compose D = 0",
    "D(b choose 2) identity",
    "D(cb) product rule",
    "graded symmetry via D(ab)",
    "cup of cocycles is a cocycle",
    "level-2 boundary == b cup a",
    "level-3 boundary == delta3 formulas",
    "massey == closed form",
    "lift shift law",
    "fourth-power partner vanishing",
)


@pytest.fixture
def fresh_odd_places(monkeypatch):
    """An empty odd-place table for one test: a test that counts the
    modular powers of a miss starts from no entry, and entries filled under
    a patched criterion are dropped when the test ends, so none reaches a
    later test's report() or delta3_at."""
    monkeypatch.setattr(obstruct, "_ODD_PLACES", {})


@pytest.fixture(scope="session")
def oracle():
    """The session's one ``run_suites`` pass with the ``obstruct verify`` defaults.

    Tests that assert on oracle checks read them from here with ``lookup``
    instead of running the checks again.
    """
    return run_suites("all", max_order=8, seed=0)


def lookup(results, keys):
    """The results with these ``(name, scope)`` keys, in the order given.

    Every key must match exactly one result, so a renamed check fails the
    test instead of leaving it to pass on an empty list.
    """
    found = {}
    for r in results:
        found.setdefault((r.name, r.scope), []).append(r)
    wrong = [k for k in keys if len(found.get(k, ())) != 1]
    assert not wrong, f"expected exactly one check for each of {wrong}"
    return [found[k][0] for k in keys]


def is_lift(b, a, c):
    """Dc = -(b cup a) mod 2: c lifts (b, a), as the delta3 formulas ask."""
    return coboundary(c).values == (-cup(b.reduce2(), a.reduce2())).values


def kummer_real_cocycle(x, model):
    """Mod-4 Kummer cocycle of a nonzero rational over cyclic_model(2, 7), the
    order-2 model of G_R with chi(tau) = 7 mod 8.

    tau fixes a real fourth root of a positive x (value 0) and moves the
    complex fourth root of a negative x by zeta_4^-1 (value 3).
    """
    return Cochain1(model, 4, 1, (0, 0 if x > 0 else 3))
