import ast
import collections
import dataclasses
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from conftest import IDENTITY_CHECKS, lookup
from nilobstruct import verify
from nilobstruct import cohomology as coh
from nilobstruct import nilpotent as nil
from nilobstruct.cohomology import klein_model, standard_models, units_model
from nilobstruct.verify import (
    _compat_cases,
    _full4_8_pairs,
    _model_data,
    _series_products,
    _table_products,
    check_associativity_tower4,
    check_boundary_n3,
    check_dcb_lemma,
    check_galois_automorphism,
    check_galois_composition,
    check_inverses_tower4,
    check_lift_shift,
    check_magnus,
    check_magnus_roundtrip,
    check_quotient_compat,
    check_switch_identity,
    identity_suite,
    run_nilpotent_suite,
)

VERIFY_BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "verify_baseline.json"


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty TOWER4 memo for one test: tables built under a patched
    kernel are built afresh and dropped when the test ends, so no patched
    row reaches a later test."""
    monkeypatch.setattr(nil, "_TOWER4_TABLES", None)


def _bumped(rows, i, j):
    """rows with entry (i, j) moved on by one: a copy whose row i is a
    bytearray, since the tables' rows are immutable bytes."""
    rows = list(rows)
    rows[i] = bytearray(rows[i])
    rows[i][j] = (rows[i][j] + 1) % 128
    return rows


def test_all_suites_pass(oracle):
    failed = [r for r in oracle if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)
    assert len(oracle) >= 60
    assert all(r.cases > 0 for r in oracle)


def test_oracle_runs_every_recorded_check_in_full(oracle):
    """The defaults run exactly the recorded checks, in order, with the recorded
    case counts, so a dropped or shrunk check fails here."""
    baseline = json.loads(VERIFY_BASELINE.read_text())
    assert [[r.name, r.scope, r.cases] for r in oracle] == baseline
    assert len(baseline) == 65
    assert sum(cases for _, _, cases in baseline) == 2_273_396


def test_every_check_is_timed(oracle):
    assert all(r.seconds > 0 for r in oracle)


def test_cochain_suite_with_no_model_in_bound_raises():
    with pytest.raises(ValueError, match="order <= 1"):
        verify.run_suites("cochain", max_order=1)


def test_identity_suite_on_every_standard_model(oracle):
    for model in standard_models():
        results = lookup(oracle, [(name, model.name) for name in IDENTITY_CHECKS])
        assert all(r.passed for r in results)


def test_identity_suite_units8(oracle):
    results = lookup(oracle, [(name, units_model(8).name) for name in IDENTITY_CHECKS])
    names = {r.name for r in results}
    assert "level-3 boundary == delta3 formulas" in names
    assert all(r.passed for r in results)


def test_dcb_lemma_exhaustive_on_every_standard_model():
    # every mod-4 cochain with c(1) = 0, against every twisted mod-4 cocycle b
    want = {"Z/2": 16, "Z/4": 256, "Z/2xZ/2": 512, "(Z/8)^*": 512}
    models = standard_models()
    assert {m.name for m in models} == set(want)
    for model in models:
        result = check_dcb_lemma(model, _model_data(model), random.Random(0), exhaustive=True)
        assert result.passed, result.line()
        assert result.cases == want[model.name]


@pytest.mark.parametrize("bad_chi, checked", ((None, 1), (7, 6 * 128**2 + 1)))
def test_galois_automorphism_check_fails_on_a_non_automorphism(monkeypatch, fresh_tables, bad_chi, checked):
    """Shifting [x,y] by one breaks g(xy) = g(x) g(y) already at x = y = 1; the
    check stops at the first failing (chi, f, g, h) and counts the cases run."""
    act_lanes = nil.act_lanes

    def shifted(spec, g, chi, f):
        a, b, c, d, e = act_lanes(spec, g, chi, f)
        q = spec.moduli[2]
        return a, b, bytes([(c_i + (bad_chi in (None, chi_i))) % q for c_i, chi_i in zip(c, chi)]), d, e

    monkeypatch.setattr(nil, "act_lanes", shifted)
    result = check_galois_automorphism(nil.tower4_tables())
    one = (0, 0, 0, 0, 0)
    assert not result.passed
    assert result.failures == [f"chi={bad_chi or 1} f=0 g={one} h={one}"]
    assert result.cases == checked


def test_associativity_check_counts_the_triples_it_ran():
    """A wrong product stops the check at the first non-associating triple
    (i, j, k), and cases counts the triples checked up to and including it."""
    rows, act = nil.tower4_tables()
    result = check_associativity_tower4((_bumped(rows, 5, 9), act))
    assert not result.passed
    index = {g: n for n, g in enumerate(nil.all_elements(nil.TOWER4))}
    i, j, k = (index[vec] for vec in ast.literal_eval(result.failures[0]))
    assert result.cases == (i * 128 + j) * 128 + k + 1 < 128**3


def _associativity_by_triples(tables):
    """Reference: the (failures, cases) of a walk over every triple (i, j, k)
    in order, stopping at the first one that does not associate."""
    els, (table, _) = nil.all_elements(nil.TOWER4), tables
    for i, j, k in itertools.product(range(128), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return [f"({els[i]}, {els[j]}, {els[k]})"], (i * 128 + j) * 128 + k + 1
    return [], 128**3


@pytest.mark.parametrize("entry", ((5, 9), (1, 1), (77, 3), (127, 127)))
def test_associativity_check_finds_the_first_bad_triple_of_the_triple_walk(entry):
    """The row-at-a-time check reports the same first triple, with the same
    cases, as the walk over single triples."""
    rows, act = nil.tower4_tables()
    bumped = (_bumped(rows, *entry), act)
    result = check_associativity_tower4(bumped)
    assert not result.passed
    assert (result.failures, result.cases) == _associativity_by_triples(bumped)


def _automorphism_by_pairs(tables):
    """Reference: the (failures, cases) of a walk over every (chi, f, i, j)
    in order, stopping at the first pair whose product the action does not
    respect."""
    els, (table, act) = nil.all_elements(nil.TOWER4), tables
    cases = 0
    for (chi, f), a in act.items():
        for i, j in itertools.product(range(128), repeat=2):
            cases += 1
            if a[table[i][j]] != table[a[i]][a[j]]:
                return [f"chi={chi} f={f} g={els[i]} h={els[j]}"], cases
    return [], cases


@pytest.mark.parametrize(
    "corrupt, entry",
    (
        ("table", (0, 3)),
        ("table", (64, 37)),
        ("table", (127, 127)),
        ("act", ((1, 0), 0)),
        ("act", ((5, 0), 64)),
        ("act", ((7, 1), 127)),
    ),
)
def test_automorphism_check_finds_the_first_bad_pair_of_the_pair_walk(corrupt, entry):
    """With one entry of the multiplication table or of one action table
    off, the table-at-a-time check reports the same first (chi, f, g, h),
    with the same cases, as the walk over single pairs.  Every action
    fixes the elements of index 0 to 3, so 0 * h read as h + 1 for h < 3
    breaks no law; (0, 3) is the first entry the check can see."""
    rows, act = nil.tower4_tables()
    if corrupt == "table":
        rows = _bumped(rows, *entry)
    else:
        key, column = entry
        act = dict(act)
        act[key] = bytearray(act[key])
        act[key][column] = (act[key][column] + 1) % 128
    result = check_galois_automorphism((rows, act))
    assert not result.passed
    assert (result.failures, result.cases) == _automorphism_by_pairs((rows, act))


def test_associativity_record_times_the_table_build(monkeypatch, fresh_tables):
    """The TOWER4 tables are read first by the associativity check, and
    that check's seconds include what is built for it."""
    build = nil.tower4_tables

    def slow_build():
        time.sleep(0.1)
        return build()

    monkeypatch.setattr(nil, "tower4_tables", slow_build)
    associativity = verify.run_nilpotent_suite()[0]
    assert associativity.name == "TOWER4 exhaustive associativity"
    assert associativity.passed
    assert associativity.seconds >= 0.1


def test_dbchoose2_record_times_the_dataset_build(monkeypatch):
    """The per-model dataset is built after the D compose D = 0 check and
    timed inside the D(b choose 2) check, the first that reads it; the
    record order is unchanged."""
    build = verify._model_data

    def slow_build(model):
        time.sleep(0.1)
        return build(model)

    monkeypatch.setattr(verify, "_model_data", slow_build)
    dd_zero, dbchoose2 = verify.identity_suite(klein_model())[:2]
    assert (dd_zero.name, dbchoose2.name) == ("D compose D = 0", "D(b choose 2) identity")
    assert dd_zero.passed and dbchoose2.passed
    assert dd_zero.seconds < 0.1 <= dbchoose2.seconds


def _flipped_e(mul_lanes):
    """mul_lanes with e moved on by one in every lane whose product's a and
    b are both odd (the moduli are even, so the parity survives
    reduction)."""

    def wrong(spec, g, h):
        a, b, c, d, e = mul_lanes(spec, g, h)
        q = spec.moduli[4]
        return a, b, c, d, bytes([(e_i + (a_i & b_i & 1)) % q for a_i, b_i, e_i in zip(a, b, e)])

    return wrong


def test_magnus_check_catches_a_wrong_collection_on_tower4(monkeypatch, fresh_tables):
    """TOWER4 embeds each element once and reads the products from the
    table; a table built with a wrong product must still show."""
    monkeypatch.setattr(nil, "mul_lanes", _flipped_e(nil.mul_lanes))
    batch = _table_products(nil.TOWER4, nil.tower4_tables())
    result = check_magnus(nil.TOWER4, batch, "TOWER4 exhaustive")
    assert not result.passed
    assert result.cases == 128**2
    # a and b of the product are both odd for a quarter of all pairs
    assert len(result.failures) == 128**2 // 4
    assert result.failures[0] == "(0, 0, 0, 0, 0) * (1, 1, 0, 0, 0): (1, 1, 0, 0, 1) != (1, 1, 0, 0, 0)"


def test_magnus_check_catches_a_wrong_collection_on_full4_8(monkeypatch):
    rng = random.Random(5)
    spec = nil.full4(8)
    pairs = [tuple(tuple(rng.randrange(8) for _ in range(5)) for _ in range(2)) for _ in range(200)]
    right = [nil._reduce(nil.mul_vec(g, h), spec.moduli) for g, h in pairs]
    bad = [(g, h, gh) for (g, h), gh in zip(pairs, right) if gh[0] % 2 and gh[1] % 2]
    g, h, want = bad[0]
    wrong = (*want[:4], (want[4] + 1) % 8)
    monkeypatch.setattr(nil, "mul_lanes", _flipped_e(nil.mul_lanes))
    draw = bytes(itertools.chain.from_iterable(itertools.chain.from_iterable(pairs)))
    result = check_magnus(spec, _series_products(spec, draw), "FULL4(8), 200 random pairs")
    assert not result.passed
    assert result.cases == 200
    assert len(result.failures) == len(bad) > 0
    assert result.failures[0] == f"{g} * {h}: {wrong} != {want}"


def test_inverses_check_catches_a_wrong_inverse(monkeypatch):
    """An inverse with e off by one for odd b fails on those 64 elements."""
    inv_vec = nil.inv_vec

    def wrong(u):
        a, b, c, d, e = inv_vec(u)
        return a, b, c, d, e + u[1] % 2

    monkeypatch.setattr(nil, "inv_vec", wrong)
    result = check_inverses_tower4(nil.tower4_tables())
    assert result.cases == 128
    assert len(result.failures) == 64
    assert result.failures[0] == "(0, 1, 0, 0, 0)"


def test_switch_identity_check_catches_a_wrong_collection(monkeypatch, fresh_tables):
    """The powers x^b and y^a are read from products with a = 0 or b = 0, so
    a table built with _flipped_e is wrong only at x^b y^a, where a and b
    are both odd."""
    monkeypatch.setattr(nil, "mul_lanes", _flipped_e(nil.mul_lanes))
    result = check_switch_identity(nil.tower4_tables())
    assert result.cases == 16
    assert result.failures == ["a=1 b=1", "a=1 b=3", "a=3 b=1", "a=3 b=3"]


def test_magnus_roundtrip_check_catches_a_wrong_extraction(monkeypatch):
    """An extraction with d off by one for odd c fails on those 64 elements."""
    extract = nil._extract_lanes

    def wrong(spec, s, n):
        a, b, c, d, e = extract(spec, s, n)
        return a, b, c, bytes([d_i + c_i % 2 for d_i, c_i in zip(d, c)]), e

    monkeypatch.setattr(nil, "_extract_lanes", wrong)
    result = check_magnus_roundtrip()
    assert result.cases == 128
    assert len(result.failures) == 64
    assert result.failures[0] == "(0, 0, 1, 0, 0)"


def test_galois_composition_check_catches_a_wrong_action(monkeypatch, fresh_tables):
    """With e shifted by one on odd c under chi = 5 only, act(3) after act(5)
    is no longer act(7).  The check stops at the first failure: the seventh
    (chi1, chi2) pair, (3, 5), at f = (0, 0) and the fifth element."""
    act_lanes = nil.act_lanes

    def wrong(spec, g, chi, f):
        a, b, c, d, e = act_lanes(spec, g, chi, f)
        q = spec.moduli[4]
        return a, b, c, d, bytes([(e_i + (chi_i == 5) * (c_i & 1)) % q for e_i, chi_i, c_i in zip(e, chi, g[2])])

    monkeypatch.setattr(nil, "act_lanes", wrong)
    result = check_galois_composition(nil.tower4_tables())
    assert result.cases == 6 * 4 * 128 + 5
    assert result.failures == ["chi=(3,5) f=(0,0) g=(0, 0, 1, 0, 0)"]


def _high_c_bit(kernel, coordinate):
    """kernel (mul_lanes or act_lanes) with one output coordinate moved on,
    in each lane, by c // 2 of its first batch: a bit that reduction into
    TOWER4 drops."""

    def wrong(spec, g, *args):
        out = list(kernel(spec, g, *args))
        q = spec.moduli[coordinate]
        out[coordinate] = bytes([(x + c // 2) % q for x, c in zip(out[coordinate], g[2])])
        return tuple(out)

    return wrong


@pytest.mark.parametrize(
    "kernel, coordinate, first",
    (
        ("mul_lanes", 3, "mul (2, 2, 3, 3, 1) (0, 2, 3, 0, 3)"),
        ("act_lanes", 4, "act (2, 2, 3, 3, 1)"),
    ),
)
def test_quotient_compat_check_catches_a_product_or_action_that_ignores_reduction(
    monkeypatch, fresh_tables, kernel, coordinate, first
):
    """A product or action that reads a bit of c that TOWER4 drops no longer
    commutes with the reduction; every FULL4(4) draw with c >= 2 fails.  The
    TOWER4 side, read from a table of reduced elements, has c < 2."""
    monkeypatch.setattr(nil, kernel, _high_c_bit(getattr(nil, kernel), coordinate))
    result = check_quotient_compat(nil.tower4_tables(), random.Random(0))
    assert result.cases == 2000
    assert len(result.failures) == sum(c >= 2 for c in _compat_cases(random.Random(0))[0][2]) == 986
    assert result.failures[0] == first
    assert all(line.startswith(first.split()[0] + " ") for line in result.failures)


def test_boundary_n3_check_records_a_boundary_that_is_no_cocycle(monkeypatch):
    """A level-3 boundary with one entry flipped is no cocycle on the Klein
    group (the law fails at (g, h, k) = (1, 1, k) for k not 0 or 1).  It is
    flipped in every case whose f is not 0, so a law that answered for the
    lift, not for each case's values, would pass the flipped ones."""
    boundary = nil.boundary_of_section

    def flipped(model, p, f, cases):
        x, y = boundary(model, p, f, cases=cases)
        at = model.order + 1  # the block of (1, 1)
        lanes = x.lanes
        for i in f.nonzero_cases():
            lanes ^= 1 << 8 * (at * cases + i)
        return coh.Cochain2.from_lanes(model, 2, x.weight, lanes, cases), y

    model = klein_model()
    monkeypatch.setattr(nil, "boundary_of_section", flipped)
    data = _model_data(model)
    result = check_boundary_n3(model, data)
    assert result.cases == 768
    missed = [line for line in result.failures if line.startswith("not cocycle: ")]
    b, a, c = data[2].lifts[0]
    # the Klein group has 4 f, one of them 0
    assert len(missed) == 768 * 3 // 4
    assert missed[0] == f"not cocycle: b={b.values} a={a.values} c={c.values}"


def test_boundary_n3_check_tests_each_distinct_boundary_once(monkeypatch):
    """The cocycle law runs once per boundary component, on one batch that
    holds every case's boundary values in its own lane, so it tests each
    case once and every one of them: the batch's case i is the boundary of
    case i's section alone."""
    model = klein_model()
    _, homs, level3 = _model_data(model)
    for i in range(0, level3.cases, 37):
        (b, a, c), f = level3.lift(i), homs[i % len(homs)]
        p = list(zip(a.values, b.values, c.values))
        single = nil.boundary_of_section(model, p, f)
        assert tuple(z.case(i) for z in level3.boundary) == single
    checked = []
    law = coh.Cochain2.non_cocycle_cases

    def counting(self):
        checked.append(self.cases)
        return law(self)

    monkeypatch.setattr(coh.Cochain2, "non_cocycle_cases", counting)
    assert check_boundary_n3(model, (None, homs, level3)).passed
    assert checked == [768, 768]


def test_lift_shift_check_catches_a_non_cup_shift(monkeypatch):
    """A closed form that picks up c(gh) in every case whose c is nonzero no
    longer shifts by a cup product; the check still runs every (lift, eps)
    case."""
    closed_form = coh.delta3_closed_form

    def wrong(b, a, c, f):
        m = c.model
        extras = []
        for i in range(c.cases):
            c_i = c.case(i).values
            extras.append(coh.Cochain2(m, 2, 3, tuple(tuple(c_i[m.mul(g, h)] for h in m.elements()) for g in m.elements())))
        extra = coh.Cochain2.pack(extras)
        x, y = closed_form(b, a, c, f)
        return x + extra, y

    model = klein_model()
    monkeypatch.setattr(coh, "delta3_closed_form", wrong)
    data = _model_data(model)
    result = check_lift_shift(model, data)
    assert not result.passed
    assert result.cases == 768
    assert all(line.startswith("x-shift ") for line in result.failures)


def _without_first_lift(level3):
    """The level-3 batch with its first lift and the cases of that lift
    dropped."""
    keep = range(len(level3.homs), level3.cases)
    fields = {
        name: getattr(level3, name).select(keep) for name in ("b", "a", "f")
    } | {
        name: tuple(z.select(keep) for z in getattr(level3, name))
        for name in ("closed", "direct", "corrections", "boundary", "massey")
    }
    return dataclasses.replace(level3, lifts=level3.lifts[1:], **fields)


def test_lift_shift_check_records_a_missing_lift():
    model = klein_model()
    cocs, homs, level3 = _model_data(model)
    b, a, c = level3.lifts[0]
    result = check_lift_shift(model, (cocs, homs, _without_first_lift(level3)))
    assert not result.passed
    assert result.cases == 768 - len(homs)
    # every other lift of (b, a) reaches the missing c by exactly one eps
    assert result.failures == [f"not a lift: b={b.values} a={a.values} c={c.values}"] * (len(homs) - 1)


def _count_calls(monkeypatch, counts, *targets):
    """Wrap each (module, name) so that its calls add to counts[name]."""
    for module, name in targets:
        fn = getattr(module, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)


def test_identity_suite_builds_each_value_once(monkeypatch):
    """Each formula runs once per model, on the batch of every (lift, f)
    case (the Klein group has 192 lifts and 4 f), and the cocycles are
    listed once for the model and once inside f_homs."""
    counts = collections.Counter()
    _count_calls(
        monkeypatch, counts,
        (coh, "delta3_closed_form"), (coh, "delta3_cocycle_direct"),
        (coh, "all_twisted_cocycles"), (verify, "all_twisted_cocycles"),
    )
    model = klein_model()
    results = identity_suite(model)
    (level3,) = lookup(results, [("level-3 boundary == delta3 formulas", model.name)])
    assert level3.cases == 768
    assert counts == {"delta3_closed_form": 1, "delta3_cocycle_direct": 1, "all_twisted_cocycles": 2}


def test_identity_suite_checks_each_f_once(monkeypatch):
    """identity_suite checks the model's f once with check_f; the section
    boundary, which takes f unchecked, runs once for the batch of level-2
    cases (with no f) and once for the batch of every lift with every f."""
    model = klein_model()
    _, _, level3 = _model_data(model)
    counts = collections.Counter()
    _count_calls(monkeypatch, counts, (coh, "check_f"), (nil, "boundary_of_section"))
    n2, n3 = lookup(
        identity_suite(model),
        [("level-2 boundary == b cup a", model.name), ("level-3 boundary == delta3 formulas", model.name)],
    )
    assert n2.cases == 64
    assert n3.cases == 4 * len(level3.lifts)
    assert counts == {"check_f": 1, "boundary_of_section": 2}


def test_model_data_validates_nothing(monkeypatch):
    """_model_data trusts the solver: it makes no check_f call and no
    cocycle check on the f or the lifts, and the delta3 formulas it runs
    check nothing either."""
    checked = collections.Counter()
    _count_calls(monkeypatch, checked, (coh, "check_f"))
    is_cocycle = coh.Cochain1.is_cocycle

    def counting(self):
        if self.modulus == 2:
            checked["is_cocycle"] += 1
        return is_cocycle(self)

    monkeypatch.setattr(coh.Cochain1, "is_cocycle", counting)
    cocs, homs, level3 = _model_data(klein_model())
    assert len(level3.lifts) == 192 and len(homs) == 4
    assert checked == {}


@pytest.mark.parametrize("model", standard_models(), ids=lambda m: m.name)
def test_all_f_kernels_match_one_f_calls(model):
    """On every lift, case i of each level-3 kernel called on the batch of
    the lift with all the model's F f equals the one-case call with
    f_homs[i], and case j*F + i of the level-3 batch (lift j) equals that
    one-case call too."""
    _, homs, level3 = _model_data(model)
    batch = {
        coh.delta3_closed_form: level3.closed,
        coh.delta3_cocycle_direct: level3.direct,
        nil.boundary_of_section: level3.boundary,
    }
    f_batch = coh.Cochain1.pack(homs)
    for j, (b, a, c) in enumerate(level3.lifts):
        p = [(a.values[g], b.values[g], c.values[g]) for g in model.elements()]
        bs, as_, cs = (coh.Cochain1.pack([x] * len(homs)) for x in (b, a, c))
        for kernel, one, all_f in (
            (coh.delta3_closed_form, (b, a, c), (bs, as_, cs)),
            (coh.delta3_cocycle_direct, (b, a, c), (bs, as_, cs)),
            (nil.boundary_of_section, (model, p), (model, verify._section(as_, bs, cs))),
        ):
            kwargs = {"cases": len(homs)} if kernel is nil.boundary_of_section else {}
            got = kernel(*all_f, f_batch, **kwargs)
            for i, f in enumerate(homs):
                pair = kernel(*one, f)
                assert tuple(z.case(i) for z in got) == pair
                assert tuple(z.case(j * len(homs) + i) for z in batch[kernel]) == pair


@pytest.mark.parametrize("seed", (0, 1))
def test_full4_8_pairs_draw_in_range_by_seed(seed):
    """10^4 pairs of exponent vectors mod 8, as one draw of 10^5 bytes, ten
    per pair: two draws with the seed give the same pairs, the other seed
    gives others, every value mod 8 occurs in every coordinate, and the rng
    is left where one randbytes(10^5) leaves it."""
    rng, reference = random.Random(seed), random.Random(seed)
    draw = _full4_8_pairs(rng)
    reference.randbytes(100_000)
    assert rng.random() == reference.random()
    assert _full4_8_pairs(random.Random(seed)) == draw
    assert _full4_8_pairs(random.Random(1 - seed)) != draw
    assert len(draw) == 10 * 10_000
    assert all(set(draw[k::5]) == set(range(8)) for k in range(5))


@pytest.mark.parametrize("seed", (0, 1))
def test_compat_cases_draw_in_range_by_seed(seed):
    """2000 cases (g, h, chi, f), as lanes, from one draw of 24,000 bytes:
    case k reads bytes 12k to 12k + 11, g and h mod 4, chi in (1, 3, 5,
    7), f mod 2, every value occurring; two draws with the seed give the
    same cases, the other seed gives others, and the rng is left where one
    randbytes(24000) leaves it."""
    rng, reference = random.Random(seed), random.Random(seed)
    g, h, chi, f = cases = _compat_cases(rng)
    draw = reference.randbytes(24_000)
    assert rng.random() == reference.random()
    assert _compat_cases(random.Random(seed)) == cases
    assert _compat_cases(random.Random(1 - seed)) != cases
    assert all(len(lane) == 2000 for lane in (*g, *h, chi, f))
    for k in range(2000):
        at = draw[12 * k : 12 * k + 12]
        assert [x[k] for x in (*g, *h)] == [v % 4 for v in at[:10]]
        assert (chi[k], f[k]) == ((1, 3, 5, 7)[at[10] % 4], at[11] % 2)
    assert all(set(lane) == set(range(4)) for lane in (*g, *h))
    assert set(chi) == {1, 3, 5, 7} and set(f) == {0, 1}


def test_a_non_lift_still_stops_the_cochain_suite(monkeypatch):
    """A cochain c with Dc != -(b cup a) slipped in among the lifts is refused
    by boundary_of_section, whose section is then no cocycle; the delta3
    formulas, which check no lift, have already run on it.  It is added after
    the lifts of the first pair that has any, by the one solve of every
    pair."""
    lifts_by_case = verify.lifts_by_case

    def with_a_non_lift(b, a):
        by_case = lifts_by_case(b, a)
        lifts = next(lifts for lifts in by_case if lifts)
        c = lifts[0]
        lifts.append(c + coh.Cochain1(c.model, 2, c.weight, tuple(int(g == 1) for g in c.model.elements())))
        return by_case

    monkeypatch.setattr(verify, "lifts_by_case", with_a_non_lift)
    with pytest.raises(coh.InvalidCocycleError, match=r"not a 1-cocycle at \(1, 2\)"):
        verify.run_suites("cochain", max_order=4)


def _count_kernels(monkeypatch, counts):
    """Count the calls of the scalar kernels mul_vec and act_vec, and the
    calls and lanes of the lane kernels: counts["mul_lanes"] is their
    calls and counts["mul_lanes lanes"] the lanes of those calls."""
    _count_calls(monkeypatch, counts, (nil, "mul_vec"), (nil, "act_vec"))
    for name in ("mul_lanes", "act_lanes"):
        fn = getattr(nil, name)

        def counting(spec, g, *args, _fn=fn, _name=name):
            counts[_name] += 1
            counts[_name + " lanes"] += len(g[0])
            return _fn(spec, g, *args)

        monkeypatch.setattr(nil, name, counting)


def test_tower4_galois_actions_are_tabulated_once(monkeypatch, fresh_tables):
    """Built from empty memos, the tables make each product and each action
    once, in one lane batch each, the suite's only TOWER4 products and
    actions, and a second call builds nothing.  The table checks, the
    Magnus checks on TOWER3 and TOWER4, the inverses and switch-law checks,
    and the TOWER4 and TOWER3 sides of the compatibility check then read
    the tables: the last makes one batch of products and one of actions,
    a lane per case, on its FULL4(4) draw."""
    counts = collections.Counter()
    _count_kernels(monkeypatch, counts)
    tables = nil.tower4_tables()
    build = {"mul_lanes": 1, "mul_lanes lanes": 128**2, "act_lanes": 1, "act_lanes lanes": 1024}
    assert counts == build
    assert nil.tower4_tables() is tables
    assert check_associativity_tower4(tables).passed
    assert check_galois_automorphism(tables).passed
    assert check_galois_composition(tables).passed
    assert check_inverses_tower4(tables).passed
    assert check_switch_identity(tables).passed
    for spec in (nil.TOWER3, nil.TOWER4):
        assert check_magnus(spec, _table_products(spec, tables), spec.name).cases == spec.order**2
    assert counts == build
    compat = check_quotient_compat(tables, random.Random(0))
    assert compat.passed and compat.cases == 2000
    assert counts == {"mul_lanes": 2, "mul_lanes lanes": 128**2 + 2000, "act_lanes": 2, "act_lanes lanes": 1024 + 2000}


def test_nilpotent_suite_forms_tower4_products_only_in_the_table_build(monkeypatch, fresh_tables):
    """Over a full pass from empty memos, mul_vec runs only for the exact
    commutator law (three products per a < 8, 24 calls) and act_vec not at
    all; mul_lanes makes one batch for the table (built by the first
    section boundary), one for the 10^4 FULL4(8) pairs and one for the 2000
    FULL4(4) cases, and act_lanes one for the table's 1024 images and one
    for the cases.  A second nilpotent pass reads the kept tables and
    builds nothing."""
    counts = collections.Counter()
    _count_kernels(monkeypatch, counts)
    assert all(r.passed for r in verify.run_suites())
    assert counts == {
        "mul_vec": 24,
        "mul_lanes": 3,
        "mul_lanes lanes": 128**2 + 10_000 + 2000,
        "act_lanes": 2,
        "act_lanes lanes": 1024 + 2000,
    }
    counts.clear()
    assert all(r.passed for r in run_nilpotent_suite())
    assert counts == {"mul_vec": 24, "mul_lanes": 2, "mul_lanes lanes": 10_000 + 2000, "act_lanes": 1, "act_lanes lanes": 2000}


def test_section_boundaries_build_the_tables_in_one_batch(monkeypatch, fresh_tables):
    """The cochain suite's first section boundary builds TOWER4's whole
    tables, every row and every action, in one mul_lanes and one act_lanes
    batch, and no boundary calls a scalar kernel: on the models of order
    <= 2 as on any."""
    counts = collections.Counter()
    _count_kernels(monkeypatch, counts)
    assert all(r.passed for r in verify.run_suites("cochain", max_order=2))
    rows, actions = nil._TOWER4_TABLES
    assert len(rows) == 128 and sorted(actions) == sorted(itertools.product((1, 3, 5, 7), (0, 1)))
    assert counts == {"mul_lanes": 1, "mul_lanes lanes": 128**2, "act_lanes": 1, "act_lanes lanes": 1024}


def test_tables_kept_across_passes_change_no_record(monkeypatch, fresh_tables):
    """Two full passes in one process, the first from empty memos and the
    second on the tables the first kept, give the same records; afterwards
    every kept row and action is bytes and equals a fresh build from the
    reduced mul_vec and act_vec products, indexed by position in
    all_elements(TOWER4)."""
    first, second = (
        [(r.name, r.scope, r.cases, r.passed) for r in verify.run_suites()] for _ in range(2)
    )
    assert first == second
    assert all(passed for *_, passed in first)
    els = nil.all_elements(nil.TOWER4)
    index = {g: i for i, g in enumerate(els)}
    moduli = nil.TOWER4.moduli
    rows, actions = nil._TOWER4_TABLES
    assert all(type(row) is bytes for row in rows)
    assert rows == [bytes([index[nil._reduce(nil.mul_vec(g, h), moduli)] for h in els]) for g in els]
    assert sorted(actions) == sorted(itertools.product((1, 3, 5, 7), (0, 1)))
    for (chi, f), action in actions.items():
        assert type(action) is bytes
        assert action == bytes([index[nil._reduce(nil.act_vec(g, chi, f), moduli)] for g in els])


# Per-case references of the batched identity checks: each case is its own
# cochain, a batch of one, and the cochain functions are looked up on
# cohomology at call time, so that a test's patch reaches them.


def _dd_zero_by_case(model):
    result = verify.CheckResult("D compose D = 0", model.name, 0)
    for modulus, weight in ((2, 1), (2, 2), (4, 1), (4, 2)):
        for values in itertools.product(range(modulus), repeat=model.order - 1):
            c = coh.Cochain1(model, modulus, weight, (0, *values))
            result.cases += 1
            if not coh.coboundary(c).is_cocycle():
                result.failures.append(f"m={modulus} w={weight} c={c.values}")
        if model.order > 4:
            break
    return result


def _dbchoose2_by_case(model, data):
    result = verify.CheckResult("D(b choose 2) identity", model.name, 0)
    rho = coh.chi_minus1_over2(model)
    for b in data[0]:
        result.cases += 1
        if coh.coboundary(coh.binom2(b)) != -coh.cup(b.reduce2() + rho, b.reduce2()):
            result.failures.append(f"b={b.values}")
    return result


def _dcb_by_case(model, data, rng, exhaustive):
    result = verify.CheckResult("D(cb) product rule", model.name, 0)
    n = model.order
    if exhaustive and n <= 4:
        cochains = [coh.Cochain1(model, 4, 2, (0, *values)) for values in itertools.product(range(4), repeat=n - 1)]
    else:
        cochains = [coh.Cochain1(model, 4, 2, (0, *(rng.randrange(4) for _ in range(n - 1)))) for _ in range(32)]
    dcs = [coh.coboundary(c).values for c in cochains]
    for b in data[0]:
        # b(g) + chi(g) b(h) mod 4, the factor of Dc(g, h); b has weight 1.
        factor = [[(b_g + chi * b_h) % 4 for b_h in b.values] for b_g, chi in zip(b.values, model.chi)]
        for c, dc in zip(cochains, dcs):
            result.cases += 1
            lhs = coh.coboundary(c.pointwise_mul(b)) + coh.cup(b, c) + coh.cup(c, b)
            rhs = tuple(tuple(x * y % 4 for x, y in zip(dc_g, f_g)) for dc_g, f_g in zip(dc, factor))
            if lhs.values != rhs:
                result.failures.append(f"b={b.values} c={c.values}")
    return result


def _graded_symmetry_by_case(model, data):
    result = verify.CheckResult("graded symmetry via D(ab)", model.name, 0)
    for b in data[0]:
        for a in data[0]:
            result.cases += 1
            if coh.cup(b, a) + coh.cup(a, b) != -coh.coboundary(a.pointwise_mul(b)):
                result.failures.append(f"b={b.values} a={a.values}")
    return result


def _cup_cocycle_by_case(model, data):
    result = verify.CheckResult("cup of cocycles is a cocycle", model.name, 0)
    for b in data[0]:
        for a in data[0]:
            result.cases += 1
            if not coh.cup(b, a).is_cocycle():
                result.failures.append(f"b={b.values} a={a.values}")
    return result


def _bumped_where(fn, pick):
    """fn, a coboundary or cup, with entry (1, 1) of its 2-cochain moved on
    by one in each case whose arguments' values pick accepts: a fault that
    depends on each case alone, so that a batch and its cases alone meet
    it alike."""

    def wrong(*args):
        z = fn(*args)
        lanes, L, at = z.lanes, z.cases, z.model.order + 1
        for i in range(L):
            if pick(*(x.case(i).values for x in args)):
                shift = 8 * (at * L + i)
                v = lanes >> shift & 0xFF
                lanes += ((v + 1) % z.modulus - v) << shift
        return coh.Cochain2.from_lanes(z.model, z.modulus, z.weight, lanes, L)

    return wrong


# (batched check, its reference, the function the fault patches, which
# cases it breaks); D(cb) runs sampled and exhaustive, with one rng seed.
_FAULTS = {
    "dd_zero": (
        lambda m, d: verify.check_dd_zero(m), lambda m, d: _dd_zero_by_case(m), "coboundary", lambda c: c[1] == 1,
    ),
    "dbchoose2": (verify.check_dbchoose2, _dbchoose2_by_case, "coboundary", lambda x: x[1] == 1),
    "dcb-sampled": (
        lambda m, d: verify.check_dcb_lemma(m, d, random.Random(3), False),
        lambda m, d: _dcb_by_case(m, d, random.Random(3), False),
        "cup", lambda u, v: u[1] == 1 and v[-1] != 0,
    ),
    "dcb-exhaustive": (
        lambda m, d: verify.check_dcb_lemma(m, d, random.Random(3), True),
        lambda m, d: _dcb_by_case(m, d, random.Random(3), True),
        "cup", lambda u, v: u[1] == 1 and v[-1] != 0,
    ),
    "graded-symmetry": (verify.check_graded_symmetry, _graded_symmetry_by_case, "cup", lambda u, v: u[1] == 1),
    "cup-cocycle": (verify.check_cup_cocycle, _cup_cocycle_by_case, "cup", lambda u, v: u[1] % 2 and v[1] != 0),
}


@pytest.mark.parametrize("fault", _FAULTS)
def test_batched_check_fails_as_its_per_case_reference(monkeypatch, fault):
    """Under a fault that breaks some of its cases but not all, each batched
    identity check gives the cases and the failure lines, in order, of the
    loop over single cases that it replaced, on every model of the suite."""
    check, reference, name, pick = _FAULTS[fault]
    data = {model: _model_data(model) for model in standard_models() + coh.extra_models()}
    wrong = _bumped_where(getattr(coh, name), pick)
    monkeypatch.setattr(coh, name, wrong)
    monkeypatch.setattr(verify, name, wrong)
    partial = 0
    for model, model_data in data.items():
        got, want = check(model, model_data), reference(model, model_data)
        assert (got.name, got.cases, got.failures) == (want.name, want.cases, want.failures)
        partial += 0 < len(got.failures) < got.cases
    assert partial > 0


# coboundary and cup calls of each batched check and of the lift solve on a
# model; D compose D = 0 makes one per (modulus, weight) it runs.
_CALLS = {
    "dd_zero": (
        lambda m, d: verify.check_dd_zero(m), lambda m: {"coboundary": 4 if m.order <= 4 else 1},
    ),
    "dbchoose2": (verify.check_dbchoose2, lambda m: {"coboundary": 1, "cup": 1}),
    "dcb": (lambda m, d: verify.check_dcb_lemma(m, d, random.Random(0), False), lambda m: {"coboundary": 2, "cup": 2}),
    "dcb-exhaustive": (
        lambda m, d: verify.check_dcb_lemma(m, d, random.Random(0), True), lambda m: {"coboundary": 2, "cup": 2},
    ),
    "graded-symmetry": (verify.check_graded_symmetry, lambda m: {"coboundary": 1, "cup": 2}),
    "cup-cocycle": (verify.check_cup_cocycle, lambda m: {"cup": 1}),
    "lift-solve": (
        lambda m, d: coh.lifts_by_case(*(coh.Cochain1.pack(x) for x in zip(*itertools.product(d[0], repeat=2)))),
        lambda m: {"coboundary": 1, "cup": 1},
    ),
}


@pytest.mark.parametrize("name", _CALLS)
def test_batched_checks_make_a_fixed_number_of_cochain_calls(monkeypatch, name):
    """Each batched check, and the one lift solve of a model's pairs, makes
    the same coboundary and cup calls on every model, whatever its number
    of cases (D(cb) 16 to 512, the pairs 16 to 64, D compose D = 0 2 to
    128 per (modulus, weight))."""
    run, want = _CALLS[name]
    data = {model: _model_data(model) for model in standard_models() + coh.extra_models()}
    counts = collections.Counter()
    _count_calls(monkeypatch, counts, (coh, "coboundary"), (coh, "cup"), (verify, "coboundary"), (verify, "cup"))
    for model, model_data in data.items():
        counts.clear()
        run(model, model_data)
        assert counts == want(model), model.name
