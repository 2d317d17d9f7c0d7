from nilobstruct.cohomology import standard_models, units_model
from nilobstruct.verify import identity_suite, run_suites


def test_all_suites_pass():
    results = run_suites("all", max_order=8, seed=0)
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)
    assert len(results) >= 60
    assert all(r.cases > 0 for r in results)


def test_identity_suite_on_every_standard_model():
    for model in standard_models():
        assert all(r.passed for r in identity_suite(model))


def test_identity_suite_units8():
    results = identity_suite(units_model(8))
    names = {r.name for r in results}
    assert "level-3 boundary == delta3 formulas" in names
    assert all(r.passed for r in results)
