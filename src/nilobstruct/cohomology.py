"""Finite-model cochain engine.

A GaloisModel is a finite group G given by a multiplication table together
with a character chi: G -> (Z/2^k)^* (lifted mod 48 when the weight-2 unit
cocycle f is needed).  Inhomogeneous cochains on G with Z/m coefficients
twisted by chi^w support the coboundary

    Dc(g, h) = c(g) + chi(g)^w c(h) - c(gh)

and the cup product (c cup d)(g, h) = c(g) * chi(g)^{w_d} * d(h).  All the
degree-1/2 identities used by the obstruction evaluators are checkable here
on every twisted cocycle and every lift, because they are cochain identities
valid over any profinite group with any character.  Cocycles (Dc = 0), the
admissible f and the lifts (Dc = -(b cup a)) are listed by one solver: a
solution of Dc = t is fixed by its values on generators.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd
from operator import xor


class InvalidDefiningSystemError(ValueError):
    """Raised when a Massey defining system fails its coboundary conditions."""


class InvalidCocycleError(ValueError):
    """Raised when a cochain that must be a cocycle (an f given to check_f,
    or the section data of boundary_of_section) is not one."""


@dataclass(frozen=True)
class GaloisModel:
    """Finite group with a character into the units of Z/chi_mod, given by
    odd representatives (a 2-adic unit, as (chi - 1)/2 needs); the identity
    element has index 0."""

    table: tuple[tuple[int, ...], ...]
    chi: tuple[int, ...]
    chi_mod: int = 8
    name: str = "model"

    def __post_init__(self):
        n = len(self.table)
        if n == 0:
            raise ValueError("multiplication table is empty")
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table is not square")
        if any(self.table[0][j] != j or self.table[j][0] != j for j in range(n)):
            raise ValueError("index 0 is not an identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.mul(self.mul(i, j), k) != self.mul(i, self.mul(j, k)):
                        raise ValueError("multiplication table is not associative")
        if len(self.chi) != n:
            raise ValueError("chi must assign a unit to every element")
        for i in range(n):
            for j in range(n):
                if self.chi[self.mul(i, j)] % self.chi_mod != self.chi[i] * self.chi[j] % self.chi_mod:
                    raise ValueError("chi is not a homomorphism")
            if self.chi[i] % 2 == 0:
                raise ValueError(f"chi takes the even value {self.chi[i]}; its values must be odd")
            if gcd(self.chi[i], self.chi_mod) != 1:
                raise ValueError(f"chi value {self.chi[i]} is not a unit mod {self.chi_mod}")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def elements(self) -> range:
        return range(self.order)


def _table_from_op(elems: list, op) -> tuple[tuple[int, ...], ...]:
    index = {e: i for i, e in enumerate(elems)}
    return tuple(tuple(index[op(a, b)] for b in elems) for a in elems)


def cyclic_model(n: int, chi_gen: int) -> GaloisModel:
    """Cyclic group of order n with chi(generator) = chi_gen mod 8."""
    if pow(chi_gen, n, 8) != 1:
        raise ValueError("chi_gen does not define a character on Z/n")
    elems = list(range(n))
    table = _table_from_op(elems, lambda a, b: (a + b) % n)
    chi = tuple(pow(chi_gen, i, 8) for i in range(n))
    return GaloisModel(table, chi, 8, name=f"Z/{n}")


def klein_model() -> GaloisModel:
    """Klein four-group, elements ordered (0,0), (1,0), (0,1), (1,1); chi = (1, 7, 1, 7)."""
    elems = [(0, 0), (1, 0), (0, 1), (1, 1)]
    table = _table_from_op(elems, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2))
    return GaloisModel(table, (1, 7, 1, 7), 8, name="Z/2xZ/2")


def units_model(n: int) -> GaloisModel:
    """(Z/n)^* with chi the identity character mod n; n must be even, as
    GaloisModel needs chi odd."""
    if n < 2:
        raise ValueError("units_model needs n >= 2")
    elems = [u for u in range(1, n) if gcd(u, n) == 1]
    table = _table_from_op(elems, lambda a, b: a * b % n)
    return GaloisModel(table, tuple(elems), n, name=f"(Z/{n})^*")


def s3_model() -> GaloisModel:
    """Symmetric group on 3 letters; chi = 7 on transpositions."""
    perms = list(itertools.permutations((0, 1, 2)))
    perms.sort(key=lambda s: (s != (0, 1, 2), s))
    table = _table_from_op(perms, lambda a, b: tuple(a[b[i]] for i in range(3)))
    chi = []
    for s in perms:
        inversions = sum(s[i] > s[j] for i, j in itertools.combinations(range(3), 2))
        chi.append(7 if inversions % 2 else 1)
    return GaloisModel(table, tuple(chi), 8, name="S3")


def standard_models() -> tuple[GaloisModel, ...]:
    """The four models of order at most 4 that the verify suite always runs."""
    return (
        cyclic_model(2, 7),
        cyclic_model(4, 3),
        klein_model(),
        units_model(8),
    )


def extra_models() -> tuple[GaloisModel, ...]:
    """The larger models, S3 and Z/8; the verify suite runs each one whose
    order is within its max group order."""
    return (s3_model(), cyclic_model(8, 3))


@dataclass(frozen=True)
class Cochain1:
    """Degree-1 cochain: values on G in Z/modulus, coefficients chi^weight."""

    model: GaloisModel
    modulus: int
    weight: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.model.order:
            raise ValueError("wrong number of values")
        mod = self.modulus
        if any([v % mod != v for v in self.values]):
            raise ValueError("values not reduced")

    def __add__(self, other: "Cochain1") -> "Cochain1":
        _check_compatible(self, other)
        mod = self.modulus
        if mod == 2:
            values = tuple(map(xor, self.values, other.values))
        else:
            values = tuple([(x + y) % mod for x, y in zip(self.values, other.values)])
        return Cochain1(self.model, mod, self.weight, values)

    def __neg__(self) -> "Cochain1":
        # -z is z at modulus 2.
        if self.modulus == 2:
            return self
        return Cochain1(self.model, self.modulus, self.weight, tuple(-x % self.modulus for x in self.values))

    def __sub__(self, other: "Cochain1") -> "Cochain1":
        return self + (-other)

    def pointwise_mul(self, other: "Cochain1") -> "Cochain1":
        """The product cochain (cd)(g) = c(g) d(g); weights add."""
        if self.model is not other.model or self.modulus != other.modulus:
            raise ValueError("pointwise product needs one model and one modulus")
        return Cochain1(
            self.model,
            self.modulus,
            self.weight + other.weight,
            tuple(x * y % self.modulus for x, y in zip(self.values, other.values)),
        )

    def reduce2(self) -> "Cochain1":
        return Cochain1(self.model, 2, self.weight, tuple(v % 2 for v in self.values))

    def is_cocycle(self) -> bool:
        v, mod = self.values, self.modulus
        twist = [pow(chi, self.weight, mod) for chi in self.model.chi]
        return not any(
            (v_g + chi_g * v_h - v[gh]) % mod
            for row, chi_g, v_g in zip(self.model.table, twist, v)
            for v_h, gh in zip(v, row)
        )

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


@dataclass(frozen=True)
class Cochain2:
    """Degree-2 cochain: values on G x G in Z/modulus, each reduced, so that
    a sum at modulus 2 is an xor."""

    model: GaloisModel
    modulus: int
    weight: int
    values: tuple[tuple[int, ...], ...]

    def __add__(self, other: "Cochain2") -> "Cochain2":
        _check_compatible(self, other)
        mod = self.modulus
        if mod == 2:
            values = tuple([tuple(map(xor, row1, row2)) for row1, row2 in zip(self.values, other.values)])
        else:
            values = tuple([
                tuple([(x + y) % mod for x, y in zip(row1, row2)])
                for row1, row2 in zip(self.values, other.values)
            ])
        return Cochain2(self.model, mod, self.weight, values)

    def __neg__(self) -> "Cochain2":
        mod = self.modulus
        # -z is z at modulus 2.
        if mod == 2:
            return self
        return Cochain2(
            self.model, mod, self.weight, tuple([tuple([-x % mod for x in row]) for row in self.values])
        )

    def __sub__(self, other: "Cochain2") -> "Cochain2":
        return self + (-other)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.values for x in row)

    def is_cocycle(self) -> bool:
        """Degree-2 cocycle condition D2 z = 0:
        chi(g)^w z(h, k) - z(gh, k) + z(g, hk) - z(g, h) = 0 for all g, h, k,
        with gh and hk read from the rows of the table."""
        z, mod, table = self.values, self.modulus, self.model.table
        twist = [pow(chi, self.weight, mod) for chi in self.model.chi]
        return not any([
            (chi_g * z_hk - z_ghk + z_g[hk] - z_gh) % mod
            for row_g, chi_g, z_g in zip(table, twist, z)
            for z_h, row_h, gh, z_gh in zip(z, table, row_g, z_g)
            for z_hk, z_ghk, hk in zip(z_h, z[gh], row_h)
        ])


def _check_compatible(c, d) -> None:
    if c.model is not d.model:
        raise ValueError("cochains live on different models")
    if c.modulus != d.modulus:
        raise ValueError(f"modulus mismatch {c.modulus} != {d.modulus}")
    if c.weight != d.weight:
        raise ValueError(f"weight mismatch {c.weight} != {d.weight}")


def zero1(model: GaloisModel, modulus: int, weight: int) -> Cochain1:
    return Cochain1(model, modulus, weight, (0,) * model.order)


def coboundary(c: Cochain1) -> Cochain2:
    """Dc(g,h) = c(g) + chi(g)^w c(h) - c(gh)."""
    v, mod = c.values, c.modulus
    rows = []
    for row, chi, v_g in zip(c.model.table, c.model.chi, v):
        chi_g = pow(chi, c.weight, mod)
        rows.append(tuple([(v_g + chi_g * v_h - v[gh]) % mod for v_h, gh in zip(v, row)]))
    return Cochain2(c.model, mod, c.weight, tuple(rows))


def cup(c: Cochain1, d: Cochain1) -> Cochain2:
    """(c cup d)(g,h) = c(g) * chi(g)^{w_d} * d(h); weights add."""
    if c.model is not d.model:
        raise ValueError("cup of cochains on different models")
    if c.modulus != d.modulus:
        raise ValueError(f"cup needs a common modulus, got {c.modulus} and {d.modulus}")
    mod, right = c.modulus, d.values
    zero = (0,) * len(right)
    rows = []
    for c_g, chi in zip(c.values, c.model.chi):
        left = c_g * pow(chi, d.weight, mod) % mod
        # d's values are reduced, so a left factor of 1 gives d's row itself.
        rows.append(zero if left == 0 else right if left == 1 else tuple([left * x % mod for x in right]))
    return Cochain2(c.model, mod, c.weight + d.weight, tuple(rows))


# (n choose 2) mod 2 depends only on n mod 4: residues 0,1,2,3 -> 0,0,1,1.
_BINOM2_MOD2 = (0, 0, 1, 1)


def binom2(c: Cochain1) -> Cochain1:
    """Pointwise profinite binomial coefficient (c choose 2), mod 4 -> mod 2."""
    if c.modulus != 4:
        raise ValueError("binom2 is defined on mod-4 cochains")
    return Cochain1(c.model, 2, 2 * c.weight, tuple(_BINOM2_MOD2[v] for v in c.values))


def chi_minus1_over2(model: GaloisModel) -> Cochain1:
    """The mod-2 cocycle (chi-1)/2, i.e. the Kummer class of -1."""
    return Cochain1(model, 2, 1, tuple((model.chi[g] - 1) // 2 % 2 for g in model.elements()))


def f_cocycle(model: GaloisModel) -> Cochain1:
    """The mod-2 cocycle (chi^2 - 1)/24; requires chi lifted mod 48."""
    if model.chi_mod % 48 != 0:
        raise ValueError("f_cocycle needs chi values lifted mod 48")
    # chi's values are units mod chi_mod, so mod 48 as well.
    return Cochain1(model, 2, 2, tuple([(chi * chi - 1) // 24 % 2 for chi in model.chi]))


def massey_triple(
    alpha: Cochain1, beta: Cochain1, gamma: Cochain1, A: Cochain1, B: Cochain1
) -> Cochain2:
    """<alpha, beta, gamma> = A cup gamma + alpha cup B for the defining
    system A, B, which must have DA = alpha cup beta and DB = beta cup gamma."""
    if coboundary(A).values != cup(alpha, beta).values:
        raise InvalidDefiningSystemError("DA != alpha cup beta")
    if coboundary(B).values != cup(beta, gamma).values:
        raise InvalidDefiningSystemError("DB != beta cup gamma")
    return cup(A, gamma) + cup(alpha, B)


def delta3_closed_form(
    b: Cochain1, a: Cochain1, c: Cochain1, fs: Sequence[Cochain1]
) -> list[tuple[Cochain2, Cochain2]]:
    """The two closed-form delta3 2-cochains for the lift (b,a)_c, one pair
    per f of fs, in the order of fs.

    Component along [[x,y],x]:  -(b + (chi-1)/2) cup c - (b choose 2) cup a
    Component along [[x,y],y]:  (a + (chi-1)/2) cup (ab - c)
                                + (a choose 2) cup b - f cup a
    All values mod 2.  The x component does not depend on f, so every pair
    shares one; the y component is its f = 0 part minus f cup a.  b and a
    must be mod-4 twisted cocycles on one model, c a lift of them (a mod-2
    cochain with Dc = -(b cup a), as lift_cochains gives) and each f a mod-2
    cocycle on that model (see check_f); nothing is checked again here.
    """
    rho = chi_minus1_over2(b.model)
    b2, a2 = b.reduce2(), a.reduce2()
    comp_x = -cup(b2 + rho, c) - cup(binom2(b), a2)
    comp_y0 = cup(a2 + rho, a2.pointwise_mul(b2) - c) + cup(binom2(a), b2)
    return [(comp_x, comp_y0 - cup(f, a2)) for f in fs]


def delta3_cocycle_direct(
    b: Cochain1, a: Cochain1, c: Cochain1, fs: Sequence[Cochain1]
) -> list[tuple[Cochain2, Cochain2]]:
    """The boundary-of-section cocycles for delta3, written out directly, one
    pair per f of fs, in the order of fs.

    These are the raw normal-form coordinates of s(p(g)) g s(p(h)) s(p(gh))^-1
    and differ from the closed forms by explicit coboundaries (see verify).
    The x component does not depend on f, so every pair shares one; the y
    component is its f = 0 part plus the rows f(g) a(h).  The inputs must be
    as delta3_closed_form asks; nothing is checked here.
    """
    model = b.model
    bv, av, cv = b.values, a.values, c.values
    rho = chi_minus1_over2(model).values
    x_rows, y_rows = [], []
    for chi_g, b_g, c_g, r_g in zip(model.chi, bv, cv, rho):
        t_g = _BINOM2_MOD2[(b_g + 1) % 4]
        x_rows.append(tuple([
            (c_g * b_h + t_g * a_h + b_g * a_h * b_h + r_g * c_h) % 2
            for b_h, a_h, c_h in zip(bv, av, cv)
        ]))
        y_rows.append(tuple([
            (c_g * a_h + b_g * _BINOM2_MOD2[(chi_g * a_h + 1) % 4] + r_g * c_h) % 2
            for a_h, c_h in zip(av, cv)
        ]))
    comp_x = Cochain2(model, 2, 3, tuple(x_rows))
    # Row g of the y component for f(g) = 0 and for f(g) = 1.
    a2 = [a_h % 2 for a_h in av]
    y_rows = [(row, tuple(map(xor, row, a2))) for row in y_rows]
    return [
        (comp_x, Cochain2(model, 2, 3, tuple([row[f_g] for row, f_g in zip(y_rows, f.values)])))
        for f in fs
    ]


def delta3_correction_cochains(b: Cochain1, a: Cochain1, c: Cochain1) -> tuple[Cochain1, Cochain1]:
    """1-cochains w with direct - closed = (Dw_x, Dw_y) pointwise.

    w_x = c*b and w_y = c*a + (a choose 2)*b; the first is the correction used
    to pass between the two delta3 cocycle expressions, the second is its
    mirror-image analogue.
    """
    b2, a2 = b.reduce2(), a.reduce2()
    w_x = c.pointwise_mul(b2)
    w_y = c.pointwise_mul(a2) + binom2(a).pointwise_mul(b2)
    return w_x, w_y


def check_f(model: GaloisModel, *fs: Cochain1) -> None:
    """The one check of f: each f must be a mod-2 cocycle on model.  The
    delta3 formulas and boundary_of_section take f as given; the oracle's
    identity_suite runs this once per model on the f it hands them."""
    if not all(f.model is model and f.modulus == 2 and f.is_cocycle() for f in fs):
        raise InvalidCocycleError("f must be a mod-2 cocycle on the model")


def _solutions(target: Cochain2) -> list[Cochain1]:
    """Every c with c(1) = 0 and Dc = target, on target's model with its
    modulus and weight, in itertools.product order of the generator values
    that fix it.  The generators are picked greedily: the least element not
    yet reached joins them, and the group is walked again from the identity
    by right multiplication, c(gs) = c(g) + chi(g)^w c(s) - target(g, s),
    until the walk reaches every element."""
    model, modulus, weight = target.model, target.modulus, target.weight
    twist = [pow(chi, weight, modulus) for chi in model.chi]
    gens: list[int] = []
    reached, steps = [0], []
    while len(reached) < model.order:
        gens.append(min(set(model.elements()) - set(reached)))
        reached, steps = [0], []
        for g in reached:
            for s in gens:
                gs = model.mul(g, s)
                if gs not in reached:
                    reached.append(gs)
                    steps.append((gs, g, s))
    out = []
    for gen_values in itertools.product(range(modulus), repeat=len(gens)):
        values = [0] * model.order
        for s, v in zip(gens, gen_values):
            values[s] = v
        for gs, g, s in steps[len(gens):]:  # the identity's steps reach the generators
            values[gs] = (values[g] + twist[g] * values[s] - target.values[g][s]) % modulus
        c = Cochain1(model, modulus, weight, tuple(values))
        if coboundary(c).values == target.values:
            out.append(c)
    return out


def all_twisted_cocycles(model: GaloisModel, modulus: int, weight: int = 1) -> list[Cochain1]:
    """All cocycles c(gh) = c(g) + chi(g)^w c(h): the solutions of Dc = 0,
    in itertools.product order of their generator values."""
    return _solutions(Cochain2(model, modulus, weight, ((0,) * model.order,) * model.order))


def lift_cochains(b: Cochain1, a: Cochain1) -> list[Cochain1]:
    """All lifts (b,a)_c: the mod-2 cochains c on b's model, of weight
    b.weight + a.weight, with Dc = -(b cup a) mod 2, sorted by their values."""
    return sorted(_solutions(-cup(b.reduce2(), a.reduce2())), key=lambda c: c.values)


def f_homs(model: GaloisModel) -> list[Cochain1]:
    """All admissible f cochains: mod-2 cocycles of weight 2 (= homs G -> Z/2)."""
    return all_twisted_cocycles(model, 2, weight=2)

