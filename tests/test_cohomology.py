import itertools

import pytest

from conftest import IDENTITY_CHECKS, lookup
from nilobstruct.cohomology import (
    Cochain1,
    DefiningSystem,
    GaloisModel,
    InvalidDefiningSystemError,
    InvalidLiftError,
    all_twisted_cocycles,
    binom2,
    chi_minus1_over2,
    coboundary,
    cup,
    cyclic_model,
    delta3_closed_form,
    delta3_cocycle_direct,
    f_cocycle,
    f_homs,
    klein_model,
    kummer_real_cocycle,
    lift_cochains,
    massey_triple,
    real_place_model,
    s3_model,
    standard_models,
    units_model,
    zero1,
)
from nilobstruct.nilpotent import InvalidCocycleError, boundary_of_section


class TestModels:
    def test_standard_models_validate(self):
        for model in standard_models():
            assert model.order <= 4
            assert model.chi[0] == 1

    def test_bad_chi_rejected(self):
        table = ((0, 1), (1, 0))
        with pytest.raises(ValueError):
            GaloisModel(table, (1, 2))  # even value
        with pytest.raises(ValueError):
            GaloisModel(table, (3, 1))  # chi(identity) != 1

    def test_bad_f_rejected_by_the_boundary(self):
        # f is one cochain for both engines; the section boundary validates it.
        model = cyclic_model(2, 7)
        p = [(0, 0, 0)] * model.order
        boundary_of_section(model, p, 3, Cochain1(model, 2, 2, (0, 1)))
        with pytest.raises(InvalidCocycleError):
            boundary_of_section(model, p, 3, Cochain1(model, 2, 2, (1, 0)))
        with pytest.raises(InvalidCocycleError):
            boundary_of_section(model, p, 3, Cochain1(cyclic_model(2, 7), 2, 2, (0, 1)))

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
        got = massey_triple(z1, z1, z1, DefiningSystem(z2, z2))
        assert got.is_zero()

    def test_invalid_defining_system(self):
        model = units_model(8)
        cocs = all_twisted_cocycles(model, 2, 1)
        alpha = next(c for c in cocs if not c.is_zero())
        bad = Cochain1(model, 2, 2, (0, 1, 0, 0))
        if coboundary(bad).values == cup(alpha, alpha).values:
            bad = Cochain1(model, 2, 2, (0, 0, 1, 0))
        with pytest.raises(InvalidDefiningSystemError):
            massey_triple(alpha, alpha, alpha, DefiningSystem(bad, bad))

    def test_shift_B_by_cocycle(self):
        # changing ds.B by a cocycle z shifts the product by alpha cup z
        model = units_model(8)
        z1 = zero1(model, 2, 1)
        z2 = zero1(model, 2, 2)
        for alpha in all_twisted_cocycles(model, 2, 1):
            base = massey_triple(alpha, z1, z1, DefiningSystem(z2, z2))
            for z in all_twisted_cocycles(model, 2, 2):
                shifted = massey_triple(alpha, z1, z1, DefiningSystem(z2, z2 + z))
                assert (shifted - base).values == cup(alpha, z).values


class TestDelta3Forms:
    def test_zero_inputs(self):
        model = cyclic_model(2, 7)
        z4 = zero1(model, 4, 1)
        c = zero1(model, 2, 2)
        f = zero1(model, 2, 2)
        comp_x, comp_y = delta3_closed_form(z4, z4, c, f)
        assert comp_x.is_zero() and comp_y.is_zero()

    def test_invalid_lift_rejected(self):
        model = cyclic_model(2, 7)
        b = Cochain1(model, 4, 1, (0, 1))
        a = Cochain1(model, 4, 1, (0, 1))
        # Dc = -(b cup a) has (tau,tau) value 1, but every c has Dc = 0 here
        with pytest.raises(InvalidLiftError):
            delta3_closed_form(b, a, Cochain1(model, 2, 2, (0, 0)), zero1(model, 2, 2))

    @pytest.mark.parametrize("formula", (delta3_closed_form, delta3_cocycle_direct))
    def test_bad_f_rejected(self, formula):
        # the f that boundary_of_section rejects: a non-cocycle, or one on another model
        model = cyclic_model(2, 7)
        z4 = zero1(model, 4, 1)
        c = zero1(model, 2, 2)
        formula(z4, z4, c, Cochain1(model, 2, 2, (0, 1)))
        for f in (Cochain1(model, 2, 2, (1, 0)), Cochain1(cyclic_model(2, 7), 2, 2, (0, 1))):
            with pytest.raises(ValueError, match="f must be a mod-2 cocycle"):
                formula(z4, z4, c, f)


class TestEnumeration:
    @pytest.mark.parametrize("modulus,weight", ((4, 1), (2, 1), (2, 2)))
    def test_matches_brute_force(self, modulus, weight):
        for model in standard_models():
            fast = {c.values for c in all_twisted_cocycles(model, modulus, weight)}
            slow = set()
            for values in itertools.product(range(modulus), repeat=model.order - 1):
                c = Cochain1(model, modulus, weight, (0, *values))
                if c.is_cocycle():
                    slow.add(c.values)
            assert fast == slow

    def test_lift_cochains_solve_the_lift_equation(self):
        model = units_model(8)
        cocs = all_twisted_cocycles(model, 4, 1)
        found_any = False
        for b in cocs:
            for a in cocs:
                want = -cup(b.reduce2(), a.reduce2())
                for c in lift_cochains(model, b, a):
                    found_any = True
                    assert coboundary(c).values == want.values
        assert found_any

    def test_f_homs_are_cocycles(self):
        for model in standard_models():
            fs = f_homs(model)
            assert all(f.is_cocycle() for f in fs)
            assert zero1(model, 2, 2).values in {f.values for f in fs}


class TestRealKummer:
    def test_values(self):
        model = real_place_model()
        assert kummer_real_cocycle(3, model).values == (0, 0)
        assert kummer_real_cocycle(-3, model).values == (0, 3)

    def test_is_twisted_cocycle(self):
        model = real_place_model()
        assert kummer_real_cocycle(-1, model).is_cocycle()


def test_identity_suite_single_model(oracle):
    results = lookup(oracle, [(name, cyclic_model(2, 7).name) for name in IDENTITY_CHECKS])
    assert results and all(r.passed for r in results)


def test_klein_chi_choice_admits_odd_cocycles():
    # chi = (1,7,1,7) frees b on the first generator mod 4
    model = klein_model()
    cocs = all_twisted_cocycles(model, 4, 1)
    assert any(any(v % 2 for v in c.values) for c in cocs)
