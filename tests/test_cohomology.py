import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import IDENTITY_CHECKS, is_lift, kummer_real_cocycle, lookup
from nilobstruct.cohomology import (
    Cochain1,
    Cochain2,
    GaloisModel,
    InvalidCocycleError,
    InvalidDefiningSystemError,
    all_twisted_cocycles,
    binom2,
    check_f,
    chi_minus1_over2,
    coboundary,
    cup,
    cyclic_model,
    delta3_closed_form,
    delta3_cocycle_direct,
    extra_models,
    f_cocycle,
    f_homs,
    klein_model,
    lift_cochains,
    lifts_by_case,
    massey_triple,
    s3_model,
    standard_models,
    units_model,
    zero1,
)
from nilobstruct.cohomology import _MUL, _lane_mul, _ones, _solutions
from nilobstruct.nilpotent import boundary_of_section


def _twin(model):
    """A second model equal to model but not the same object: the model
    builders are cached, so calling one again returns model itself."""
    return GaloisModel(model.table, model.chi, model.chi_mod, model.name)


class TestModels:
    def test_standard_models_validate(self):
        for model in standard_models():
            assert model.order <= 4
            assert model.chi[0] == 1

    def test_bad_chi_rejected(self):
        table = ((0, 1), (1, 0))
        with pytest.raises(ValueError, match="chi is not a homomorphism"):
            GaloisModel(table, (1, 2))  # chi(tau)^2 = 4 != chi(1)
        with pytest.raises(ValueError, match="chi is not a homomorphism"):
            GaloisModel(table, (3, 1))  # chi(identity) != 1

    @pytest.mark.parametrize(
        "table, chi, message",
        (
            (((0, 1), (1,)), (1, 1), "multiplication table is not square"),
            (((1, 0), (0, 1)), (1, 1), "index 0 is not an identity"),
            # Z/3 but for 2 * 2 = 0: (1 * 1) * 2 = 0 while 1 * (1 * 2) = 1
            (((0, 1, 2), (1, 2, 0), (2, 0, 0)), (1, 1, 1), "multiplication table is not associative"),
            (((0, 1), (1, 0)), (1,), "chi must assign a unit to every element"),
            # 1 * 1 = 5 would be read as an index by the associativity check
            (((0, 1), (1, 5)), (1, 1), r"multiplication table has an entry outside 0\.\.1"),
            (((0, 1), (1, -1)), (1, 1), r"multiplication table has an entry outside 0\.\.1"),
        ),
        ids=("square", "identity", "associative", "chi-length", "entry-above", "entry-negative"),
    )
    def test_malformed_model_rejected(self, table, chi, message):
        with pytest.raises(ValueError, match=message):
            GaloisModel(table, chi)

    @pytest.mark.parametrize("table, chi", ((((0, 1), (1, 0)), (33, 9)), (((0,),), (33,))), ids=("Z/2", "trivial"))
    def test_non_unit_chi_rejected(self, table, chi):
        # 33 is odd and idempotent mod 48, so these pass the homomorphism law
        # with chi(identity) = 33 != 1
        with pytest.raises(ValueError, match="chi value 33 is not a unit mod 48"):
            GaloisModel(table, chi, 48)

    def test_bad_f_rejected_by_the_boundary(self):
        # The section boundary takes f as given; check_f, run once per model
        # by identity_suite, guards it: a non-cocycle, or a cocycle on a
        # second model of the same order, is refused, alone or after a good f.
        model = cyclic_model(2, 7)
        p = [(0, 0, 0)] * model.order
        good = Cochain1(model, 2, 2, (0, 1))
        check_f(model, zero1(model, 2, 2), good)
        boundary_of_section(model, p, good)
        for f in (Cochain1(model, 2, 2, (1, 0)), Cochain1(_twin(model), 2, 2, (0, 1))):
            with pytest.raises(InvalidCocycleError, match="f must be a mod-2 cocycle"):
                check_f(model, f)
            with pytest.raises(InvalidCocycleError, match="f must be a mod-2 cocycle"):
                check_f(model, good, f)

    @pytest.mark.parametrize(
        "build",
        (lambda: GaloisModel((), ()), lambda: cyclic_model(0, 1), lambda: cyclic_model(-3, 1)),
        ids=("table", "cyclic-0", "cyclic-negative"),
    )
    def test_empty_table_rejected(self, build):
        # an order-0 "group" has no identity
        with pytest.raises(ValueError, match="multiplication table is empty"):
            build()

    @pytest.mark.parametrize("n", (3, 9))
    def test_even_chi_is_named_as_such(self, n):
        # 2 is a unit mod 3 and mod 9, but chi must be odd
        with pytest.raises(ValueError, match="chi takes the even value 2; its values must be odd"):
            units_model(n)

    @pytest.mark.parametrize("n", (0, 1))
    def test_units_model_needs_n_at_least_2(self, n):
        with pytest.raises(ValueError):
            units_model(n)

    def test_s3_is_nonabelian_and_valid(self):
        model = s3_model()
        assert model.order == 6
        assert any(
            model.mul(i, j) != model.mul(j, i) for i in model.elements() for j in model.elements()
        )


class TestCoboundaryAndCup:
    def test_d_of_cocycle_vanishes(self):
        for model in standard_models():
            for modulus, weight in ((4, 1), (2, 2)):
                for c in all_twisted_cocycles(model, modulus, weight):
                    assert coboundary(c).is_zero()

    def test_dd_zero_on_cochains(self):
        model = units_model(8)
        for values in itertools.product(range(4), repeat=3):
            c = Cochain1(model, 4, 1, (0, *values))
            assert coboundary(c).is_cocycle()

    def test_cup_with_zero(self):
        model = cyclic_model(4, 3)
        z = zero1(model, 2, 1)
        for c in all_twisted_cocycles(model, 2, 1):
            assert cup(c, z).is_zero() and cup(z, c).is_zero()

    def test_cup_formula(self):
        model = cyclic_model(2, 7)
        b = Cochain1(model, 4, 1, (0, 3))
        a = Cochain1(model, 4, 1, (0, 1))
        got = cup(b, a)
        for g in model.elements():
            for h in model.elements():
                assert got.values[g][h] == b.values[g] * model.chi[g] * a.values[h] % 4

    def test_weight_bookkeeping(self):
        model = cyclic_model(2, 7)
        b = Cochain1(model, 4, 1, (0, 3))
        assert cup(b, b).weight == 2
        assert binom2(b).weight == 2


class TestCochainChecks:
    def test_cochain1_values_checked(self):
        model = cyclic_model(2, 7)
        with pytest.raises(ValueError, match="wrong number of values"):
            Cochain1(model, 2, 1, (0,))
        for values in ((0, 2), (0, -1)):
            with pytest.raises(ValueError, match="values not reduced"):
                Cochain1(model, 2, 1, values)

    def test_pointwise_mul_needs_one_model_and_modulus(self):
        model = cyclic_model(2, 7)
        c = zero1(model, 4, 1)
        for other in (zero1(_twin(model), 4, 1), zero1(model, 2, 1)):
            with pytest.raises(ValueError, match="pointwise product needs one model and one modulus"):
                c.pointwise_mul(other)

    @pytest.mark.parametrize("degree", (1, 2))
    def test_sum_needs_compatible_cochains(self, degree):
        model = cyclic_model(2, 7)

        def cochain(model, modulus, weight):
            c = zero1(model, modulus, weight)
            return c if degree == 1 else coboundary(c)

        c = cochain(model, 4, 1)
        for other, message in (
            (cochain(_twin(model), 4, 1), "cochains live on different models"),
            (cochain(model, 2, 1), "modulus mismatch 4 != 2"),
            (cochain(model, 4, 2), "weight mismatch 1 != 2"),
        ):
            with pytest.raises(ValueError, match=message):
                c + other

    def test_cup_needs_a_common_modulus(self):
        model = cyclic_model(2, 7)
        with pytest.raises(ValueError, match="cup needs a common modulus, got 4 and 2"):
            cup(zero1(model, 4, 1), zero1(model, 2, 1))


# Every model of the package, S3 and the order-16 units among them.
KERNEL_MODELS = standard_models() + extra_models() + (units_model(16),)


def _twist(model, g, weight):
    return model.chi[g] ** weight


def _is_cocycle1_by_definition(c):
    m = c.model
    return all(
        c.values[m.mul(g, h)] == (c.values[g] + _twist(m, g, c.weight) * c.values[h]) % c.modulus
        for g, h in itertools.product(m.elements(), repeat=2)
    )


def _is_cocycle2_by_definition(z):
    m, v = z.model, z.values
    return all(
        (_twist(m, g, z.weight) * v[h][k] - v[m.mul(g, h)][k] + v[g][m.mul(h, k)] - v[g][h]) % z.modulus == 0
        for g, h, k in itertools.product(m.elements(), repeat=3)
    )


def _coboundary_by_definition(c):
    m = c.model
    return tuple(
        tuple(
            (c.values[g] + _twist(m, g, c.weight) * c.values[h] - c.values[m.mul(g, h)]) % c.modulus
            for h in m.elements()
        )
        for g in m.elements()
    )


def _cup_by_definition(c, d):
    m = c.model
    return tuple(
        tuple(c.values[g] * _twist(m, g, d.weight) * d.values[h] % c.modulus for h in m.elements())
        for g in m.elements()
    )


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=lambda m: m.name)
def test_cochain_kernels_match_their_definitions(model):
    """coboundary, cup, the two is_cocycle tests, the sums, negatives and
    is_zero of both degrees against their definitions entry by entry, on
    random cochains of every modulus 2, 4, 8 and weight 0..3; a Cochain2
    built from the rows of a coboundary or a cup equals it and hashes like
    it.  Random 2-cochains and cocycles with one entry bumped are mostly no
    cocycles, so a test that always says True fails."""
    rng = random.Random(model.name)
    n = model.order

    def rand1(modulus, weight):
        return Cochain1(model, modulus, weight, tuple(rng.randrange(modulus) for _ in range(n)))

    def rand2(modulus):
        return tuple(tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(n))

    verdicts1, verdicts2 = set(), set()
    for modulus, weight in itertools.product((2, 4, 8), range(4)):
        cocycles = all_twisted_cocycles(model, modulus, weight)
        for _ in range(4):
            c, d = rand1(modulus, weight), rand1(modulus, rng.randrange(4))
            dc, cd = coboundary(c), cup(c, d)
            assert dc.values == _coboundary_by_definition(c)
            assert cd.values == _cup_by_definition(c, d) and cd.weight == weight + d.weight
            for z in (dc, cd):
                from_rows = Cochain2(model, modulus, z.weight, z.values)
                assert from_rows == z and hash(from_rows) == hash(z)
                assert z.is_zero() == (not any(map(any, z.values)))
            e = rand1(modulus, weight)
            assert (c + e).values == tuple((x + y) % modulus for x, y in zip(c.values, e.values))
            assert (c - e).values == tuple((x - y) % modulus for x, y in zip(c.values, e.values))
            assert (-c).values == tuple(-x % modulus for x in c.values)
            assert c.is_zero() == (not any(c.values)) and (c - c).is_zero()
            for c1 in (c, rng.choice(cocycles)):
                verdicts1.add(c1.is_cocycle())
                assert c1.is_cocycle() == _is_cocycle1_by_definition(c1)
            bumped = [list(row) for row in dc.values]
            g, h = rng.randrange(n), rng.randrange(n)
            bumped[g][h] = (bumped[g][h] + rng.randrange(1, modulus)) % modulus
            random_z = Cochain2(model, modulus, weight, rand2(modulus))
            for z in (dc, Cochain2(model, modulus, weight, tuple(map(tuple, bumped))), random_z):
                verdicts2.add(z.is_cocycle())
                assert z.is_cocycle() == _is_cocycle2_by_definition(z)
            assert (dc + random_z).values == tuple(
                tuple((x + y) % modulus for x, y in zip(r, s)) for r, s in zip(dc.values, random_z.values)
            )
            assert (-random_z).values == tuple(tuple(-x % modulus for x in r) for r in random_z.values)
    assert verdicts1 == verdicts2 == {True, False}


def _samples(model, modulus, rng, count):
    """The value tuples of mod-modulus 1-cochains on model: every one when
    there are at most 16, a seeded sample of count otherwise."""
    n = model.order
    if modulus**n <= 16:
        return list(itertools.product(range(modulus), repeat=n))
    return [tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(count)]


def _rows(model, flat):
    n = model.order
    return tuple(tuple(flat[g * n : (g + 1) * n]) for g in range(n))


@pytest.mark.parametrize("model", standard_models() + extra_models(), ids=lambda m: m.name)
@pytest.mark.parametrize("weight", (1, 2, 3))
def test_mod2_bits_match_the_tuple_definitions(model, weight):
    """At moduli 2, 4 and 8 a cochain is an int whose byte g holds c(g), or
    byte g*n + h z(g, h); cup, coboundary, +, -, pointwise_mul, both
    is_cocycle, from_lanes and the values view agree with the tuple
    definitions, on every cochain and every pair of cochains where there
    are at most 16 (every mod-2 cochain at order <= 4) and on a seeded
    sample elsewhere.  The 2-cochains are every coboundary, cup and sum
    built so, a seeded sample of random ones (all mod-2 ones at order 2),
    and each of those with one entry moved."""
    rng = random.Random(f"{model.name} {weight}")
    n = model.order
    for modulus in (2, 4, 8):
        singles = _samples(model, modulus, rng, 48)
        if len(singles) <= 16:
            pairs = list(itertools.product(singles, repeat=2))
        else:
            pairs = list(zip(singles, reversed(singles)))
        twos = set()
        for u, v in pairs:
            c, d = Cochain1(model, modulus, weight, u), Cochain1(model, modulus, weight, v)
            assert (c.values, d.values) == (u, v)
            assert c.lanes == sum(x << 8 * g for g, x in enumerate(u))
            assert Cochain1.from_lanes(model, modulus, weight, c.lanes) == c
            dc, cd = coboundary(c), cup(c, d)
            assert dc.values == _coboundary_by_definition(c)
            assert (cd.values, cd.weight) == (_cup_by_definition(c, d), 2 * weight)
            assert (c + d).values == tuple((x + y) % modulus for x, y in zip(u, v))
            assert (c - d).values == tuple((x - y) % modulus for x, y in zip(u, v))
            assert c.pointwise_mul(d).values == tuple(x * y % modulus for x, y in zip(u, v))
            assert c.is_cocycle() == _is_cocycle1_by_definition(c)
            dd = coboundary(d)
            assert (dc + dd).values == tuple(
                tuple((x + y) % modulus for x, y in zip(r, s)) for r, s in zip(dc.values, dd.values)
            )
            twos.update((dc.values, cd.values, (dc + dd).values))
        if n == 2 and modulus == 2:
            twos.update(_rows(model, flat) for flat in itertools.product((0, 1), repeat=4))
        twos.update(_rows(model, [rng.randrange(modulus) for _ in range(n * n)]) for _ in range(64))
        verdicts = set()
        for values in list(twos):
            g, h = rng.randrange(n), rng.randrange(n)
            moved = [list(row) for row in values]
            moved[g][h] = (moved[g][h] + rng.randrange(1, modulus)) % modulus
            for rows in (values, tuple(map(tuple, moved))):
                z = Cochain2(model, modulus, weight, rows)
                assert z.values == rows
                lanes = sum(x << 8 * (g * n + h) for g, row in enumerate(rows) for h, x in enumerate(row))
                assert z.lanes == lanes and Cochain2.from_lanes(model, modulus, weight, lanes) == z
                assert z.is_zero() == (not any(map(any, rows)))
                verdicts.add(z.is_cocycle())
                assert z.is_cocycle() == _is_cocycle2_by_definition(z)
        assert verdicts == {True, False}


@pytest.mark.parametrize("model", (cyclic_model(8, 3), s3_model()), ids=lambda m: m.name)
@pytest.mark.parametrize("weight", range(4))
def test_lane_kernels_at_the_carry_extremes(model, weight):
    """At modulus 8 every lane holds up to 7, so a coboundary sums up to
    7 + 7 + 8 in a lane, a lane product reads 7 | 7 << 3 from its table,
    and the 2-cocycle law sums up to 7 + 7; none may carry into the next
    lane.  On the all-7 cochains, and on random ones, every operation
    agrees with its definition: coboundary, cup, +, -, negation,
    pointwise_mul, both is_cocycle, reduce2, and binom2 on the all-3 and
    random mod-4 cochains."""
    rng = random.Random(f"{model.name} {weight}")
    n = model.order
    sevens = Cochain1(model, 8, weight, (7,) * n)
    cochains = [sevens] + [Cochain1(model, 8, weight, tuple(rng.randrange(8) for _ in range(n))) for _ in range(8)]
    twos = [Cochain2(model, 8, weight, ((7,) * n,) * n)]
    for c in cochains:
        for d in (sevens, rng.choice(cochains), Cochain1(model, 8, 1 - weight % 2, (7,) * n)):
            cd = cup(c, d)
            assert cd.values == _cup_by_definition(c, d)
            assert c.pointwise_mul(d).values == tuple(x * y % 8 for x, y in zip(c.values, d.values))
            twos.append(cd)
        e = rng.choice(cochains)
        assert (c + e).values == tuple((x + y) % 8 for x, y in zip(c.values, e.values))
        assert (c - e).values == tuple((x - y) % 8 for x, y in zip(c.values, e.values))
        assert (-c).values == tuple(-x % 8 for x in c.values)
        assert c.reduce2().values == tuple(x % 2 for x in c.values)
        assert c.is_cocycle() == _is_cocycle1_by_definition(c)
        dc = coboundary(c)
        assert dc.values == _coboundary_by_definition(c)
        random_z = Cochain2(model, 8, weight, tuple(tuple(rng.randrange(8) for _ in range(n)) for _ in range(n)))
        twos += [dc, random_z]
    for z in twos:
        assert z.is_cocycle() == _is_cocycle2_by_definition(z)
        w = rng.choice(twos)
        if w.weight == z.weight:
            rows = list(zip(z.values, w.values))
            assert (z + w).values == tuple(tuple((x + y) % 8 for x, y in zip(r, s)) for r, s in rows)
            assert (z - w).values == tuple(tuple((x - y) % 8 for x, y in zip(r, s)) for r, s in rows)
        assert (-z).values == tuple(tuple(-x % 8 for x in row) for row in z.values)
    for values in [(3,) * n] + [tuple(rng.randrange(4) for _ in range(n)) for _ in range(8)]:
        b = Cochain1(model, 4, weight, values)
        assert binom2(b).values == tuple(v * (v - 1) // 2 % 2 for v in values)


@pytest.mark.parametrize("modulus", (3, 6, 16))
def test_other_moduli_are_refused(modulus):
    model = cyclic_model(2, 7)
    for build in (
        lambda: Cochain1(model, modulus, 1, (0, 0)),
        lambda: Cochain2(model, modulus, 1, ((0, 0), (0, 0))),
        lambda: Cochain1.from_lanes(model, modulus, 1, 0),
        lambda: zero1(model, modulus, 1),
        lambda: all_twisted_cocycles(model, modulus, 1),
    ):
        with pytest.raises(ValueError, match=f"modulus {modulus} is not 2, 4 or 8"):
            build()


def test_cocycle_law_needs_order_at_most_16():
    # Z/17 with the trivial character: the law's byte indices would pass 255.
    z = coboundary(zero1(cyclic_model(17, 1), 2, 1))
    with pytest.raises(ValueError, match="order at most 16, not 17"):
        z.is_cocycle()


@pytest.mark.parametrize("model", standard_models() + extra_models(), ids=lambda m: m.name)
def test_mod2_reductions_match_the_tuple_definitions(model):
    """reduce2 and binom2 of mod-4 cochains, as lanes, against v mod 2 and
    C(v, 2) mod 2: every mod-4 cochain at order <= 4, a seeded sample at
    orders 6 and 8."""
    rng = random.Random(model.name)
    n = model.order
    if n <= 4:
        samples = itertools.product(range(4), repeat=n)
    else:
        samples = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(256)]
    for values in samples:
        b = Cochain1(model, 4, 1, values)
        assert b.values == values
        assert b.reduce2().values == tuple(v % 2 for v in values)
        assert binom2(b).values == tuple(v * (v - 1) // 2 % 2 for v in values)
        assert binom2(b).weight == 2 and b.reduce2().weight == 1


@pytest.mark.parametrize("model", standard_models() + extra_models(), ids=lambda m: m.name)
@pytest.mark.parametrize("weight", (1, 2, 3))
def test_mod2_solutions_match_brute_force(model, weight):
    """_solutions at modulus 2 gives every c with c(1) = 0 and Dc = target,
    as brute force over all 2^(n - 1) such c finds them, on coboundary
    targets and on targets that are no coboundary (found by none)."""
    rng = random.Random(f"{model.name} {weight}")
    n = model.order
    candidates = [Cochain1(model, 2, weight, (0, *tail)) for tail in itertools.product((0, 1), repeat=n - 1)]
    by_target = {}
    for c in candidates:
        by_target.setdefault(_coboundary_by_definition(c), []).append(c.values)
    targets = [coboundary(rng.choice(candidates)).values for _ in range(8)]
    targets += [_rows(model, [rng.randrange(2) for _ in range(n * n)]) for _ in range(8)]
    missed = 0
    for rows in targets:
        want = by_target.get(rows, [])
        missed += not want
        got = [c.values for c in _solutions(Cochain2(model, 2, weight, rows))[0]]
        assert sorted(got) == want and len(set(got)) == len(got)
    assert missed > 0


def _solutions_by_candidate(target):
    """Reference for _solutions on one target: each candidate's values are
    walked on a list, as integers mod m, and its coboundary compared with
    the target, one candidate at a time.  Generators are picked greedily,
    the least element not yet reached joining them, and the group walked
    again from the identity until the walk reaches every element."""
    model, modulus, weight = target.model, target.modulus, target.weight
    twist = [pow(chi, weight, modulus) for chi in model.chi]
    gens, reached, steps = [], [0], []
    while len(reached) < model.order:
        gens.append(min(set(model.elements()) - set(reached)))
        reached, steps = [0], []
        for g in reached:
            for s in gens:
                gs = model.mul(g, s)
                if gs not in reached:
                    reached.append(gs)
                    steps.append((gs, g, s))
    t = target.values
    out = []
    for gen_values in itertools.product(range(modulus), repeat=len(gens)):
        values = [0] * model.order
        for s, v in zip(gens, gen_values):
            values[s] = v
        for gs, g, s in steps[len(gens):]:
            values[gs] = (values[g] + twist[g] * values[s] - t[g][s]) % modulus
        c = Cochain1(model, modulus, weight, values)
        if coboundary(c) == target:
            out.append(c)
    return out


@st.composite
def _solver_targets(draw):
    """A batch of 1 to 8 targets on one model of the verify suite at one
    modulus and weight: each the coboundary of a cochain with c(1) = 0, so
    that it has solutions, or random values, which mostly have none."""
    model = draw(st.sampled_from(standard_models() + extra_models()))
    modulus, weight, n = draw(st.sampled_from((2, 4, 8))), draw(st.integers(0, 3)), model.order
    value = st.integers(0, modulus - 1)
    targets = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            targets.append(coboundary(Cochain1(model, modulus, weight, (0, *draw(st.tuples(*[value] * (n - 1)))))))
        else:
            targets.append(Cochain2(model, modulus, weight, _rows(model, draw(st.tuples(*[value] * (n * n))))))
    return targets


@given(_solver_targets())
def test_batched_solver_is_the_per_candidate_solver(targets):
    """One batched solve of several targets gives, for each, the solutions
    of the per-candidate walk, in the same order, on every model of the
    verify suite at moduli 2, 4 and 8."""
    got = _solutions(Cochain2.pack(targets))
    assert got == [_solutions_by_candidate(t) for t in targets]
    assert all(c.cases == 1 for solutions in got for c in solutions)


class TestBinom2:
    def test_value_table(self):
        model = cyclic_model(4, 3)
        c = Cochain1(model, 4, 1, (0, 1, 2, 3))
        assert binom2(c).values == (0, 0, 1, 1)

    def test_wrong_modulus(self):
        model = cyclic_model(2, 7)
        with pytest.raises(ValueError):
            binom2(Cochain1(model, 2, 1, (0, 1)))

    def test_doubled_cocycle(self):
        # lifting a mod-2 cocycle c to 2c mod 4 gives binom2(2c) = c
        for model in standard_models():
            for c in all_twisted_cocycles(model, 2, 1):
                doubled = Cochain1(model, 4, 1, tuple(2 * v for v in c.values))
                assert doubled.is_cocycle()
                assert binom2(doubled).values == c.values

    def test_even_cocycle_restriction(self):
        # when b = 0 mod 2, (b choose 2) is itself a cocycle (the class of
        # the square root): the subgroup-restriction statement in cochain form
        for model in standard_models():
            for b in all_twisted_cocycles(model, 4, 1):
                if any(v % 2 for v in b.values):
                    continue
                half = binom2(b)
                assert half.is_cocycle()
                assert half.values == tuple(v // 2 % 2 for v in b.values)


class TestChiHalfAndF:
    def test_trivial_character_gives_zero(self):
        model = cyclic_model(2, 1)
        assert chi_minus1_over2(model).is_zero()

    def test_value_at_seven(self):
        model = cyclic_model(2, 7)
        assert chi_minus1_over2(model).values == (0, 1)

    def test_cocycle_on_units8(self):
        assert chi_minus1_over2(units_model(8)).is_cocycle()

    def test_f_values(self):
        model = units_model(48)
        f = f_cocycle(model)
        by_chi = dict(zip(model.chi, f.values))
        assert by_chi[5] == 1 and by_chi[7] == 0 and by_chi[17] == 0

    def test_f_is_plus_minus_3_indicator(self):
        model = units_model(48)
        f = f_cocycle(model)
        assert model.order == 16
        for g in model.elements():
            assert f.values[g] == (1 if model.chi[g] % 8 in (3, 5) else 0)
        assert f.is_cocycle()

    def test_f_needs_mod48_lift(self):
        with pytest.raises(ValueError):
            f_cocycle(units_model(8))


class TestMassey:
    def test_all_zero(self):
        model = cyclic_model(2, 7)
        z1 = zero1(model, 2, 1)
        z2 = zero1(model, 2, 2)
        got = massey_triple(z1, z1, z1, z2, z2)
        assert got.is_zero()

    def test_invalid_defining_system(self):
        model = units_model(8)
        cocs = all_twisted_cocycles(model, 2, 1)
        alpha = next(c for c in cocs if not c.is_zero())
        bad = Cochain1(model, 2, 2, (0, 1, 0, 0))
        if coboundary(bad).values == cup(alpha, alpha).values:
            bad = Cochain1(model, 2, 2, (0, 0, 1, 0))
        with pytest.raises(InvalidDefiningSystemError):
            massey_triple(alpha, alpha, alpha, bad, bad)

    def test_shift_B_by_cocycle(self):
        # changing ds.B by a cocycle z shifts the product by alpha cup z
        model = units_model(8)
        z1 = zero1(model, 2, 1)
        z2 = zero1(model, 2, 2)
        for alpha in all_twisted_cocycles(model, 2, 1):
            base = massey_triple(alpha, z1, z1, z2, z2)
            for z in all_twisted_cocycles(model, 2, 2):
                shifted = massey_triple(alpha, z1, z1, z2, z2 + z)
                assert (shifted - base).values == cup(alpha, z).values


class TestDelta3Forms:
    def test_zero_inputs(self):
        model = cyclic_model(2, 7)
        z4 = zero1(model, 4, 1)
        c = zero1(model, 2, 2)
        f = zero1(model, 2, 2)
        assert is_lift(z4, z4, c)
        comp_x, comp_y = delta3_closed_form(z4, z4, c, f)
        assert comp_x.is_zero() and comp_y.is_zero()

    @pytest.mark.parametrize("formula", (delta3_closed_form, delta3_cocycle_direct))
    def test_bad_f_rejected(self, formula):
        # The formulas take f as given; the f they must not see, a
        # non-cocycle or one on another model, is refused by check_f.
        model = cyclic_model(2, 7)
        z4 = zero1(model, 4, 1)
        c = zero1(model, 2, 2)
        good = Cochain1(model, 2, 2, (0, 1))
        check_f(model, good)
        formula(z4, z4, c, good)
        for f in (Cochain1(model, 2, 2, (1, 0)), Cochain1(_twin(model), 2, 2, (0, 1))):
            with pytest.raises(InvalidCocycleError, match="f must be a mod-2 cocycle"):
                check_f(model, f)


# Small enough for brute force over all cochains: orders 2 to 8.
BRUTE_FORCE_MODELS = standard_models() + extra_models() + (units_model(16),)


def _brute_force_lifts(model, b, a):
    """Every mod-2 cochain c with Dc = -(b cup a), by trying all 2^(|G|-1)."""
    target = cup(b.reduce2(), a.reduce2())
    out = []
    for tail in itertools.product((0, 1), repeat=model.order - 1):
        c = Cochain1(model, 2, 2, (0, *tail))
        if coboundary(c).values == target.values:
            out.append(c)
    return out


class TestEnumeration:
    @pytest.mark.parametrize("modulus,weight", ((4, 1), (2, 1), (2, 2)))
    def test_matches_brute_force(self, modulus, weight):
        for model in BRUTE_FORCE_MODELS:
            fast = [c.values for c in all_twisted_cocycles(model, modulus, weight)]
            slow = set()
            for values in itertools.product(range(modulus), repeat=model.order - 1):
                c = Cochain1(model, modulus, weight, (0, *values))
                if c.is_cocycle():
                    slow.add(c.values)
            assert len(fast) == len(slow) and set(fast) == slow

    def test_lift_cochains_solve_the_lift_equation(self):
        # the same lifts in the same order as brute force, on every pair
        found_any = False
        for model in BRUTE_FORCE_MODELS:
            cocs = all_twisted_cocycles(model, 4, 1)
            for b in cocs:
                for a in cocs:
                    want = -cup(b.reduce2(), a.reduce2())
                    lifts = lift_cochains(b, a)
                    assert lifts == _brute_force_lifts(model, b, a)
                    for c in lifts:
                        found_any = True
                        assert coboundary(c).values == want.values
        assert found_any

    @pytest.mark.parametrize("n", (32, 64))
    def test_lifts_are_one_coset_of_the_f_homs(self, n):
        # orders 16 and 32, where brute force would try 2^15 and 2^31 cochains
        model = units_model(n)
        homs = f_homs(model)
        cocs = all_twisted_cocycles(model, 4, 1)
        sizes = set()
        for b in cocs:
            for a in cocs:
                lifts = lift_cochains(b, a)
                for c in lifts:
                    assert is_lift(b, a, c)
                if lifts:
                    assert {c.values for c in lifts} == {(lifts[0] + f).values for f in homs}
                    assert len(lifts) == len(homs)
                sizes.add(len(lifts))
        assert sizes == {0, len(homs)}

    def test_lift_cochains_rejects_a_on_another_model(self):
        # a second model of the same order: the values alone would pass
        model = cyclic_model(2, 7)
        other = _twin(model)
        with pytest.raises(ValueError):
            lift_cochains(zero1(model, 4, 1), zero1(other, 4, 1))

    def test_lift_cochains_takes_one_pair(self):
        # a batch of pairs is solved by lifts_by_case, one list per pair
        model = klein_model()
        cocs = all_twisted_cocycles(model, 4, 1)
        b, a = Cochain1.pack(cocs[:2]), Cochain1.pack(cocs[2:4])
        with pytest.raises(ValueError, match="a batch of 2 cases"):
            lift_cochains(b, a)
        assert lifts_by_case(b, a) == [lift_cochains(x, y) for x, y in zip(cocs[:2], cocs[2:4])]

    def test_f_homs_are_cocycles(self):
        for model in standard_models():
            fs = f_homs(model)
            assert all(f.is_cocycle() for f in fs)
            assert zero1(model, 2, 2).values in {f.values for f in fs}


class TestRealKummer:
    """The test-side Kummer cocycle over G_R that tests/test_point.py and
    tests/test_obstruct.py feed to the cochain engine."""

    def test_values(self):
        model = cyclic_model(2, 7)
        assert kummer_real_cocycle(3, model).values == (0, 0)
        assert kummer_real_cocycle(-3, model).values == (0, 3)

    def test_is_twisted_cocycle(self):
        model = cyclic_model(2, 7)
        assert kummer_real_cocycle(-1, model).is_cocycle()


def test_identity_suite_single_model(oracle):
    results = lookup(oracle, [(name, cyclic_model(2, 7).name) for name in IDENTITY_CHECKS])
    assert results and all(r.passed for r in results)


def test_klein_chi_choice_admits_odd_cocycles():
    # chi = (1,7,1,7) frees b on the first generator mod 4
    model = klein_model()
    cocs = all_twisted_cocycles(model, 4, 1)
    assert any(any(v % 2 for v in c.values) for c in cocs)


# The models the batch axis is tested on: the two order-4 models whose
# level-3 cases the oracle batches, and the larger S3 and Z/8.
BATCH_MODELS = (klein_model(), units_model(8), s3_model(), cyclic_model(8, 3))


@st.composite
def _batch_cases(draw):
    """(model, modulus, weights, cases): a batch of 1 to 64 cases, each a
    triple of value tuples (c, d, e) on the model at the modulus, with the
    all-(m - 1) tuple, where lanes carry most, drawn often."""
    model = draw(st.sampled_from(BATCH_MODELS))
    modulus = draw(st.sampled_from((2, 4, 8)))
    weights = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    n = model.order
    values = st.one_of(st.just((modulus - 1,) * n), st.tuples(*[st.integers(0, modulus - 1)] * n))
    cases = draw(st.lists(st.tuples(values, values, values), min_size=1, max_size=64))
    return model, modulus, weights, cases


@given(_batch_cases())
def test_batch_case_i_is_the_single_case_operation(drawn):
    """Case i of a batch's coboundary, cup, +, -, negation, pointwise_mul,
    reduce2, binom2, both is_cocycle and the failing-case lists equals the
    operation on case i alone, and a single case's lanes are one value per
    byte with every operation as its definition gives.  Every batch size,
    L = 1 among them, runs the same joins and lane products, so this shows
    that they keep each case in its own lane."""
    model, modulus, (w, w_d), cases = drawn
    cs = [Cochain1(model, modulus, w, u) for u, _, _ in cases]
    ds = [Cochain1(model, modulus, w_d, v) for _, v, _ in cases]
    es = [Cochain1(model, modulus, w, x) for _, _, x in cases]
    c, d, e = (Cochain1.pack(batch) for batch in (cs, ds, es))
    L = len(cases)
    assert c.cases == L and [c.case(i) for i in range(L)] == cs
    for c_i in cs[:2]:
        assert c_i.lanes == sum(x << 8 * g for g, x in enumerate(c_i.values))
        assert coboundary(c_i).values == _coboundary_by_definition(c_i)
    assert cup(cs[0], ds[0]).values == _cup_by_definition(cs[0], ds[0])
    twos = [coboundary(c), cup(c, d), coboundary(c) + coboundary(e), -cup(d, c)]
    singles = [
        [coboundary(c_i) for c_i in cs],
        [cup(c_i, d_i) for c_i, d_i in zip(cs, ds)],
        [coboundary(c_i) + coboundary(e_i) for c_i, e_i in zip(cs, es)],
        [-cup(d_i, c_i) for c_i, d_i in zip(cs, ds)],
    ]
    ones = [c + e, c - e, -c, c.pointwise_mul(d), c.reduce2()]
    one_singles = [
        [c_i + e_i for c_i, e_i in zip(cs, es)],
        [c_i - e_i for c_i, e_i in zip(cs, es)],
        [-c_i for c_i in cs],
        [c_i.pointwise_mul(d_i) for c_i, d_i in zip(cs, ds)],
        [c_i.reduce2() for c_i in cs],
    ]
    if modulus == 4:
        ones.append(binom2(c))
        one_singles.append([binom2(c_i) for c_i in cs])
    for batch, want in zip(twos + ones, singles + one_singles):
        assert [batch.case(i) for i in range(L)] == want
        assert type(batch).pack(want) == batch
    for batch, want in zip(twos, singles):
        assert batch.non_cocycle_cases() == [i for i, z in enumerate(want) if not z.is_cocycle()]
        assert batch.is_cocycle() == all(z.is_cocycle() for z in want)
    assert c.is_cocycle() == all(c_i.is_cocycle() for c_i in cs)
    assert c.differing_cases(e) == [i for i in range(L) if cs[i] != es[i]]
    assert c.nonzero_cases() == [i for i in range(L) if not cs[i].is_zero()]
    picked = [L - 1 - i // 2 for i in range(L)]
    assert [c.select(picked).case(i) for i in range(L)] == [cs[j] for j in picked]


@pytest.mark.parametrize("model", BATCH_MODELS, ids=lambda m: m.name)
def test_failing_cases_name_each_case_once_to_the_last(model):
    """A batch that differs from another, or breaks the 2-cocycle law, in
    exactly one case names that case, first, last or between; a batch
    of one names case 0."""
    n = model.order
    zero2 = Cochain2(model, 2, 1, ((0,) * n,) * n)
    not_cocycle = next(
        z for flat in itertools.product((0, 1), repeat=n * n)
        if not (z := Cochain2(model, 2, 1, _rows(model, flat))).is_cocycle()
    )
    for L in (1, 2, 5, 64):
        for bad in sorted({0, L // 2, L - 1}):
            z = Cochain2.pack([not_cocycle if i == bad else zero2 for i in range(L)])
            zeros = Cochain2.pack([zero2] * L)
            assert z.non_cocycle_cases() == [bad] and not z.is_cocycle()
            assert z.differing_cases(zeros) == z.nonzero_cases() == [bad]
            assert zeros.non_cocycle_cases() == [] and zeros.is_cocycle()


def test_batches_need_one_size():
    model = klein_model()
    one, two = zero1(model, 2, 1), Cochain1.pack([zero1(model, 2, 1)] * 2)
    for operation in (lambda: one + two, lambda: cup(one, two), lambda: one.pointwise_mul(two)):
        with pytest.raises(ValueError, match="batch size mismatch 1 != 2"):
            operation()
    # The section boundary and the direct delta3 form read f by its blocks,
    # so an f of another size would be read at the wrong lanes.
    four = zero1(model, 4, 1)
    with pytest.raises(ValueError, match="batch size mismatch 2 != 1"):
        delta3_cocycle_direct(four, four, zero1(model, 2, 2), Cochain1.pack([zero1(model, 2, 2)] * 2))
    with pytest.raises(ValueError, match="batch size mismatch 1 != 2"):
        boundary_of_section(model, [(0, 0, 0)] * model.order, zero1(model, 2, 2), cases=2)
    with pytest.raises(ValueError, match="pack needs Cochain1s of one case"):
        Cochain1.pack([one, two])
    with pytest.raises(ValueError, match="no one tuple of values"):
        two.values


def test_pack_of_no_cochains_is_refused():
    for cls in (Cochain1, Cochain2):
        with pytest.raises(ValueError, match=f"pack needs at least one {cls.__name__}"):
            cls.pack([])


def test_select_refuses_an_index_outside_the_batch_as_case_does():
    model = klein_model()
    batch = Cochain1.pack([Cochain1(model, 4, 1, (0, v, 2, v)) for v in range(3)])
    for bad, indices in ((-1, [-1]), (3, [3]), (-1, [0, -1, 5]), (5, [2, 5, 1]), (-4, [-4, 0])):
        with pytest.raises(IndexError) as by_case:
            batch.case(bad)
        with pytest.raises(IndexError) as by_select:
            batch.select(indices)
        assert str(by_select.value) == str(by_case.value) == f"case {bad} of a batch of 3"


_lane_pairs = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=64)


@pytest.mark.parametrize("modulus", sorted(_MUL))
@example([(15, 15)] * 64)
@given(_lane_pairs)
def test_lane_mul_is_the_product_mod_m_in_every_lane(modulus, pairs):
    """The one lane product of both oracle engines, at every modulus of
    its table (the cochains' 2, 4, 8 and the Magnus series' up to 16), on
    0 to 64 lanes below 16: lane i is u_i v_i mod m, with no carry between
    lanes even where every lane is 15."""
    n = len(pairs)
    u, v = (int.from_bytes(bytes(column), "little") for column in zip(*pairs)) if pairs else (0, 0)
    assert _ones(n).to_bytes(n, "little") == b"\1" * n
    assert list(_lane_mul(u, v, n, modulus).to_bytes(n, "little")) == [x * y % modulus for x, y in pairs]
