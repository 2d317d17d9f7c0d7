"""Realization checks over an explicit finite quotient of G_{Q_p}.

For p = 1 mod 4 the Galois group of Q_p(zeta_8, p^{1/4}) over Q_p is
generated by the inertia element sigma (fourth root -> zeta_4 * fourth root,
zeta_8 fixed) and, when p = 5 mod 8, the Frobenius phi (zeta_8 -> zeta_8^p,
fourth root fixed); sigma and phi commute, chi(sigma^j phi^k) = p^k mod 8,
and {2} = indicator(chi = 5 mod 8) since sqrt(2) lies in Q_p(zeta_8).

Feeding the distinguished lift of (-p^3, p) through the cochain engine over
this concrete model must reproduce the square-class arithmetic: both delta3
components agree with {2} cup {p} up to a model coboundary, and their
model-level triviality tracks p mod 8.  This exercises the Kummer-cocycle
realization that the abstract identity suites cannot see.
"""

from fractions import Fraction

import pytest

from conftest import is_lift
from nilobstruct.arith import legendre, local_part
from nilobstruct.cohomology import (
    Cochain1,
    Cochain2,
    GaloisModel,
    _solutions,
    _table_from_op,
    binom2,
    cup,
    delta3_closed_form,
    delta3_cocycle_direct,
)
from nilobstruct.localclass import cup_qp, square_class_vu

PRIMES_1_MOD_4 = (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)


def local_model(p):
    """(model, mod-4 Kummer cocycle of p, mod-2 Kummer cocycle of 2, f).

    f is the weight-2 mod-2 cocycle with the bits of {2}, fed to the delta3
    formulas as fbar.
    """
    assert p % 4 == 1
    d = 1 if p % 8 == 1 else 2
    elems = [(j, k) for j in range(4) for k in range(d)]
    table = _table_from_op(elems, lambda x, y: ((x[0] + y[0]) % 4, (x[1] + y[1]) % d))
    chi = tuple(pow(p, k, 8) for (j, k) in elems)
    two_bits = tuple(1 if pow(p, k, 8) == 5 else 0 for (j, k) in elems)
    model = GaloisModel(table, chi, 8, name=f"G_Q{p} quotient")
    kummer_p = Cochain1(model, 4, 1, tuple(j for (j, k) in elems))
    kummer_2 = Cochain1(model, 2, 1, two_bits)
    return model, kummer_p, kummer_2, Cochain1(model, 2, 2, two_bits)


def values_differ_by_coboundary(z, w):
    """Whether z - w, as raw mod-2 values of weight 2, is Dc for some c."""
    target = tuple(
        tuple((x - y) % 2 for x, y in zip(r1, r2)) for r1, r2 in zip(z.values, w.values)
    )
    return bool(_solutions(Cochain2(z.model, 2, 2, target)))


def values_are_coboundary(z):
    zero = tuple(tuple(0 for _ in z.model.elements()) for _ in z.model.elements())
    return values_differ_by_coboundary(z, type(z)(z.model, 2, z.weight, zero))


@pytest.mark.parametrize("p", PRIMES_1_MOD_4)
def test_kummer_cocycles_are_cocycles(p):
    _, kp, k2, f = local_model(p)
    assert kp.is_cocycle() and k2.is_cocycle() and f.is_cocycle()
    # {2} is trivial on the model exactly when 2 is a local square
    assert k2.is_zero() == (legendre(2, p) == 1)


@pytest.mark.parametrize("p", PRIMES_1_MOD_4)
def test_specific_lift_realizes_two_cup_p(p):
    model, kp, k2, f = local_model(p)
    rho4 = Cochain1(model, 4, 1, tuple((model.chi[g] - 1) // 2 % 4 for g in model.elements()))
    # the distinguished lift: b = {-p^3} = 3(p + (chi-1)/2), a = {p},
    # c0 = 3 (p choose 2); fbar = {2} on this model
    b = Cochain1(
        model, 4, 1, tuple(3 * (kp.values[g] + rho4.values[g]) % 4 for g in model.elements())
    )
    assert b.is_cocycle()
    c0 = Cochain1(
        model, 2, 2,
        tuple(3 * (kp.values[g] * (kp.values[g] - 1) // 2) % 2 for g in model.elements()),
    )
    # delta3 components carry weight 3 while {2} cup {p} carries weight 2;
    # with Z/2 coefficients the action is trivial, so compare raw values
    # (this is the documented weight shift, not an oversight).
    assert is_lift(b, kp, c0)
    want = cup(k2, kp.reduce2())
    for z in delta3_cocycle_direct(b, kp, c0, f):
        assert z.is_cocycle()
        assert values_differ_by_coboundary(z, want)
        assert values_are_coboundary(z) == (p % 8 == 1)
    two, uniformizer = (square_class_vu(*local_part(Fraction(x), p), p) for x in (2, p))
    inv = cup_qp(two, uniformizer, p)
    assert inv == (1 if p % 8 == 5 else 0)


@pytest.mark.parametrize("p", PRIMES_1_MOD_4)
def test_closed_form_agrees_on_the_model(p):
    model, kp, k2, f = local_model(p)
    rho4 = Cochain1(model, 4, 1, tuple((model.chi[g] - 1) // 2 % 4 for g in model.elements()))
    b = Cochain1(
        model, 4, 1, tuple(3 * (kp.values[g] + rho4.values[g]) % 4 for g in model.elements())
    )
    c0 = Cochain1(
        model, 2, 2,
        tuple(3 * (kp.values[g] * (kp.values[g] - 1) // 2) % 2 for g in model.elements()),
    )
    assert is_lift(b, kp, c0)
    want = cup(k2, kp.reduce2())
    for z in delta3_closed_form(b, kp, c0, f):
        assert z.is_cocycle()
        assert values_differ_by_coboundary(z, want)


@pytest.mark.parametrize("p", PRIMES_1_MOD_4)
def test_binomial_of_even_kummer_cocycle_is_root_class(p):
    # the mod-4 cocycle of p^2 with chosen fourth root sqrt(p) is 2*{p};
    # its binomial cochain is the mod-2 class of the square root, {p} mod 2
    model, kp, _, _ = local_model(p)
    doubled = Cochain1(model, 4, 1, tuple(2 * v % 4 for v in kp.values))
    assert doubled.is_cocycle()
    assert binom2(doubled).values == kp.reduce2().values
