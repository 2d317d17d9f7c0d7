import collections
import itertools
import json
import random
from pathlib import Path

import pytest

from conftest import IDENTITY_CHECKS, lookup
from nilobstruct import verify
from nilobstruct import cohomology as coh
from nilobstruct import nilpotent as nil
from nilobstruct.cohomology import klein_model, standard_models, units_model
from nilobstruct.verify import (
    _model_data,
    _tower4_table,
    check_dcb_lemma,
    check_galois_automorphism,
    check_galois_composition,
    check_lift_shift,
    check_magnus,
    identity_suite,
)

VERIFY_BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "verify_baseline.json"


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
def test_galois_automorphism_check_fails_on_a_non_automorphism(monkeypatch, bad_chi, checked):
    """Shifting [x,y] by one breaks g(xy) = g(x) g(y) already at x = y = 1; the
    check stops at the first failing (chi, f, g, h) and counts the cases run."""
    galois_act = nil.galois_act

    def shifted(chi, f, e):
        g = galois_act(chi, f, e)
        if bad_chi not in (None, chi):
            return g
        return nil.element(g.spec, g.a, g.b, g.c + 1, g.d, g.e)

    monkeypatch.setattr(nil, "galois_act", shifted)
    result = check_galois_automorphism(_tower4_table())
    one = nil.identity(nil.TOWER4).vec
    assert not result.passed
    assert result.failures == [f"chi={bad_chi or 1} f=0 g={one} h={one}"]
    assert result.cases == checked


def _flipped_e(nf_mul):
    """nf_mul with e shifted by one whenever the product's a and b are both odd."""

    def wrong(g, h):
        gh = nf_mul(g, h)
        if gh.a % 2 and gh.b % 2:
            return nil.element(gh.spec, gh.a, gh.b, gh.c, gh.d, gh.e + 1)
        return gh

    return wrong


def test_magnus_check_catches_a_wrong_collection_on_tower4(monkeypatch):
    """TOWER4 embeds each element once; a wrong product must still show."""
    monkeypatch.setattr(nil, "nf_mul", _flipped_e(nil.nf_mul))
    tower4 = nil.all_elements(nil.TOWER4)
    result = check_magnus(nil.TOWER4, itertools.product(tower4, tower4), "TOWER4 exhaustive")
    assert not result.passed
    assert result.cases == 128**2
    # a and b of the product are both odd for a quarter of all pairs
    assert len(result.failures) == 128**2 // 4
    assert result.failures[0] == "(0, 0, 0, 0, 0) * (1, 1, 0, 0, 0): (1, 1, 0, 0, 1) != (1, 1, 0, 0, 0)"


def test_magnus_check_catches_a_wrong_collection_on_full4_8(monkeypatch):
    rng = random.Random(5)
    spec = nil.full4(8)
    pairs = [
        tuple(nil.element(spec, *(rng.randrange(8) for _ in range(5))) for _ in range(2))
        for _ in range(200)
    ]
    right = nil.nf_mul
    bad = [(g, h) for g, h in pairs if right(g, h).a % 2 and right(g, h).b % 2]
    g, h = bad[0]
    want = right(g, h).vec
    wrong = (*want[:4], (want[4] + 1) % 8)
    monkeypatch.setattr(nil, "nf_mul", _flipped_e(right))
    result = check_magnus(spec, pairs, "FULL4(8), 200 random pairs")
    assert not result.passed
    assert result.cases == 200
    assert len(result.failures) == len(bad) > 0
    assert result.failures[0] == f"{g.vec} * {h.vec}: {wrong} != {want}"


def test_lift_shift_check_catches_a_non_cup_shift(monkeypatch):
    """A closed form that picks up c(gh) whenever c is nonzero no longer shifts
    by a cup product; the check still runs every (lift, eps) case."""
    closed_form = coh._delta3_closed_form

    def wrong(b, a, c, f):
        x, y = closed_form(b, a, c, f)
        if c.is_zero():
            return x, y
        m = c.model
        extra = tuple(tuple(c.values[m.mul(g, h)] for h in m.elements()) for g in m.elements())
        return x + coh.Cochain2(m, 2, x.weight, extra), y

    model = klein_model()
    monkeypatch.setattr(coh, "_delta3_closed_form", wrong)
    data = _model_data(model)
    result = check_lift_shift(model, data)
    assert not result.passed
    assert result.cases == 768
    assert all(line.startswith("x-shift ") for line in result.failures)


def test_lift_shift_check_records_a_missing_lift():
    model = klein_model()
    cocs, homs, lifts = _model_data(model)
    b, a, c, _ = lifts[0]
    result = check_lift_shift(model, (cocs, homs, lifts[1:]))
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
    """Each formula runs once per (lift, f), i.e. once per level-3 case, and
    the cocycles are listed once for the model and once inside f_homs."""
    counts = collections.Counter()
    _count_calls(
        monkeypatch, counts,
        (coh, "_delta3_closed_form"), (coh, "_delta3_cocycle_direct"),
        (coh, "all_twisted_cocycles"), (verify, "all_twisted_cocycles"),
    )
    model = klein_model()
    results = identity_suite(model)
    (level3,) = lookup(results, [("level-3 boundary == delta3 formulas", model.name)])
    assert level3.cases == 768
    assert counts == {"_delta3_closed_form": 768, "_delta3_cocycle_direct": 768, "all_twisted_cocycles": 2}


def test_tower4_galois_actions_are_tabulated_once(monkeypatch):
    counts = collections.Counter()
    _count_calls(monkeypatch, counts, (nil, "galois_act"))
    tower4_table = _tower4_table()
    assert check_galois_automorphism(tower4_table).passed
    assert check_galois_composition(tower4_table).passed
    assert counts == {"galois_act": 1024}
