"""Finite-model cochain engine.

A GaloisModel is a finite group G given by a multiplication table together
with a character chi: G -> (Z/2^k)^* (lifted mod 48 when the weight-2 unit
cocycle f is needed).  Inhomogeneous cochains on G with Z/m coefficients
twisted by chi^w support the coboundary

    Dc(g, h) = c(g) + chi(g)^w c(h) - c(gh)

and the cup product (c cup d)(g, h) = c(g) * chi(g)^{w_d} * d(h).  All the
degree-1/2 identities used by the obstruction evaluators are checkable here
by exhaustive enumeration of twisted cocycles, because they are cochain
identities valid over any profinite group with any character.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .arith import as_rational


class InvalidDefiningSystemError(ValueError):
    """Raised when a Massey defining system fails its coboundary conditions."""


class InvalidLiftError(ValueError):
    """Raised when c does not satisfy Dc = -(b cup a) mod 2."""


@dataclass(frozen=True)
class GaloisModel:
    """Finite group with a character into the units of Z/chi_mod; the
    identity element has index 0."""

    table: tuple[tuple[int, ...], ...]
    chi: tuple[int, ...]
    chi_mod: int = 8
    name: str = "model"

    def __post_init__(self):
        n = len(self.table)
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
                raise ValueError("chi takes a non-unit value")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def elements(self) -> range:
        return range(self.order)

    def generators(self) -> tuple[int, ...]:
        """A (greedy, not necessarily minimal) generating set."""
        gens: list[int] = []
        reached = {0}
        for g in self.elements():
            if g in reached:
                continue
            gens.append(g)
            frontier = set(reached)
            while frontier:
                nxt = {self.mul(x, h) for x in reached for h in gens} | {
                    self.mul(h, x) for x in reached for h in gens
                }
                frontier = nxt - reached
                reached |= nxt
        return tuple(gens)


def _table_from_op(elems: list, op) -> tuple[tuple[int, ...], ...]:
    index = {e: i for i, e in enumerate(elems)}
    return tuple(tuple(index[op(a, b)] for b in elems) for a in elems)


def cyclic_model(n: int, chi_gen: int, name: str | None = None) -> GaloisModel:
    """Cyclic group of order n with chi(generator) = chi_gen mod 8."""
    if pow(chi_gen, n, 8) != 1:
        raise ValueError("chi_gen does not define a character on Z/n")
    elems = list(range(n))
    table = _table_from_op(elems, lambda a, b: (a + b) % n)
    chi = tuple(pow(chi_gen, i, 8) for i in range(n))
    return GaloisModel(table, chi, 8, name=name or f"Z/{n}")


def klein_model() -> GaloisModel:
    """Klein four-group, elements ordered (0,0), (1,0), (0,1), (1,1); chi = (1, 7, 1, 7)."""
    elems = [(0, 0), (1, 0), (0, 1), (1, 1)]
    table = _table_from_op(elems, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2))
    return GaloisModel(table, (1, 7, 1, 7), 8, name="Z/2xZ/2")


def units_model(n: int) -> GaloisModel:
    """(Z/n)^* with chi the identity character mod n."""
    elems = [u for u in range(1, n) if gcd(u, n) == 1]
    if elems[0] != 1:
        raise ValueError("unit group must start at 1")
    table = _table_from_op(elems, lambda a, b: a * b % n)
    return GaloisModel(table, tuple(elems), n, name=f"(Z/{n})^*")


def s3_model() -> GaloisModel:
    """Symmetric group on 3 letters; chi = 7 on transpositions."""
    perms = list(itertools.permutations((0, 1, 2)))
    perms.sort(key=lambda s: (s != (0, 1, 2), s))
    table = _table_from_op(perms, lambda a, b: tuple(a[b[i]] for i in range(3)))
    chi = tuple(7 if _parity(s) else 1 for s in perms)
    return GaloisModel(table, chi, 8, name="S3")


def _parity(perm) -> int:
    swaps = 0
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        swaps += length - 1
    return swaps % 2


def real_place_model() -> GaloisModel:
    """Order-2 model of G_R: complex conjugation with chi(tau) = 7 mod 8."""
    return cyclic_model(2, 7, name="G_R")


def standard_models() -> tuple[GaloisModel, ...]:
    """The default verification models (order at most 4)."""
    return (
        cyclic_model(2, 7),
        cyclic_model(4, 3),
        klein_model(),
        units_model(8),
    )


def extra_models(max_order: int) -> tuple[GaloisModel, ...]:
    """Optional larger models gated by the suite's max group order."""
    extras = []
    if max_order >= 6:
        extras.append(s3_model())
    if max_order >= 8:
        extras.append(cyclic_model(8, 3))
    return tuple(extras)


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
        if any(v % self.modulus != v for v in self.values):
            raise ValueError("values not reduced")

    def __add__(self, other: "Cochain1") -> "Cochain1":
        _check_compatible(self, other)
        return Cochain1(
            self.model,
            self.modulus,
            self.weight,
            tuple((x + y) % self.modulus for x, y in zip(self.values, other.values)),
        )

    def __neg__(self) -> "Cochain1":
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
        m = self.model
        return all(
            self.values[m.mul(g, h)]
            == (self.values[g] + pow(m.chi[g], self.weight, self.modulus) * self.values[h]) % self.modulus
            for g in m.elements()
            for h in m.elements()
        )

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


@dataclass(frozen=True)
class Cochain2:
    """Degree-2 cochain: values on G x G in Z/modulus."""

    model: GaloisModel
    modulus: int
    weight: int
    values: tuple[tuple[int, ...], ...]

    def __add__(self, other: "Cochain2") -> "Cochain2":
        _check_compatible(self, other)
        return Cochain2(
            self.model,
            self.modulus,
            self.weight,
            tuple(
                tuple((x + y) % self.modulus for x, y in zip(row1, row2))
                for row1, row2 in zip(self.values, other.values)
            ),
        )

    def __neg__(self) -> "Cochain2":
        return Cochain2(
            self.model,
            self.modulus,
            self.weight,
            tuple(tuple(-x % self.modulus for x in row) for row in self.values),
        )

    def __sub__(self, other: "Cochain2") -> "Cochain2":
        return self + (-other)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.values for x in row)

    def is_cocycle(self) -> bool:
        """Degree-2 cocycle condition D2 z = 0."""
        m = self.model
        z = self.values
        for g in m.elements():
            chi_g = pow(m.chi[g], self.weight, self.modulus)
            for h in m.elements():
                gh = m.mul(g, h)
                for k in m.elements():
                    lhs = (chi_g * z[h][k] - z[gh][k] + z[g][m.mul(h, k)] - z[g][h]) % self.modulus
                    if lhs != 0:
                        return False
        return True


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
    m = c.model
    rows = []
    for g in m.elements():
        chi_g = pow(m.chi[g], c.weight, c.modulus)
        rows.append(
            tuple(
                (c.values[g] + chi_g * c.values[h] - c.values[m.mul(g, h)]) % c.modulus
                for h in m.elements()
            )
        )
    return Cochain2(m, c.modulus, c.weight, tuple(rows))


def cup(c: Cochain1, d: Cochain1) -> Cochain2:
    """(c cup d)(g,h) = c(g) * chi(g)^{w_d} * d(h); weights add."""
    if c.model is not d.model:
        raise ValueError("cup of cochains on different models")
    if c.modulus != d.modulus:
        raise ValueError(f"cup needs a common modulus, got {c.modulus} and {d.modulus}")
    m = c.model
    rows = []
    for g in m.elements():
        chi_g = pow(m.chi[g], d.weight, c.modulus)
        left = c.values[g] * chi_g
        rows.append(tuple(left * d.values[h] % c.modulus for h in m.elements()))
    return Cochain2(m, c.modulus, c.weight + d.weight, tuple(rows))


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
    values = []
    for g in model.elements():
        chi = model.chi[g] % 48
        if gcd(chi, 48) != 1:
            raise ValueError(f"chi value {chi} is not a unit mod 48")
        values.append((chi * chi - 1) // 24 % 2)
    return Cochain1(model, 2, 2, tuple(values))


@dataclass(frozen=True)
class DefiningSystem:
    """Cochains A, B with DA = alpha cup beta and DB = beta cup gamma."""

    A: Cochain1
    B: Cochain1


def massey_triple(alpha: Cochain1, beta: Cochain1, gamma: Cochain1, ds: DefiningSystem) -> Cochain2:
    """<alpha, beta, gamma> = A cup gamma + alpha cup B for the given system."""
    if coboundary(ds.A).values != cup(alpha, beta).values:
        raise InvalidDefiningSystemError("DA != alpha cup beta")
    if coboundary(ds.B).values != cup(beta, gamma).values:
        raise InvalidDefiningSystemError("DB != beta cup gamma")
    return cup(ds.A, gamma) + cup(alpha, ds.B)


def check_lift(b: Cochain1, a: Cochain1, c: Cochain1) -> None:
    """Check Dc = -(b cup a) mod 2, the condition for (b,a)_c to be a cocycle."""
    want = -cup(b.reduce2(), a.reduce2())
    if coboundary(c).values != want.values:
        raise InvalidLiftError("Dc != -(b cup a) mod 2")


def delta3_closed_form(
    b: Cochain1, a: Cochain1, c: Cochain1, f: Cochain1
) -> tuple[Cochain2, Cochain2]:
    """The two closed-form delta3 2-cochains for the lift (b,a)_c.

    Component along [[x,y],x]:  -(b + (chi-1)/2) cup c - (b choose 2) cup a
    Component along [[x,y],y]:  (a + (chi-1)/2) cup (ab - c)
                                + (a choose 2) cup b - f cup a
    All values mod 2.
    """
    _check_delta3_inputs(b, a, c, f)
    return _delta3_closed_form(b, a, c, f)


def _delta3_closed_form(
    b: Cochain1, a: Cochain1, c: Cochain1, f: Cochain1
) -> tuple[Cochain2, Cochain2]:
    rho = chi_minus1_over2(b.model)
    b2, a2 = b.reduce2(), a.reduce2()
    comp_x = -cup(b2 + rho, c) - cup(binom2(b), a2)
    comp_y = cup(a2 + rho, a2.pointwise_mul(b2) - c) + cup(binom2(a), b2) - cup(f, a2)
    return comp_x, comp_y


def delta3_cocycle_direct(
    b: Cochain1, a: Cochain1, c: Cochain1, f: Cochain1
) -> tuple[Cochain2, Cochain2]:
    """The boundary-of-section cocycles for delta3, written out directly.

    These are the raw normal-form coordinates of s(p(g)) g s(p(h)) s(p(gh))^-1
    and differ from the closed forms by explicit coboundaries (see verify).
    """
    _check_delta3_inputs(b, a, c, f)
    return _delta3_cocycle_direct(b, a, c, f)


def _delta3_cocycle_direct(
    b: Cochain1, a: Cochain1, c: Cochain1, f: Cochain1
) -> tuple[Cochain2, Cochain2]:
    model = b.model
    n = model.order
    rho = chi_minus1_over2(model).values
    x_rows, y_rows = [], []
    for g in range(n):
        chi_g = model.chi[g]
        xr, yr = [], []
        for h in range(n):
            xr.append(
                (
                    c.values[g] * b.values[h]
                    + _BINOM2_MOD2[(b.values[g] + 1) % 4] * a.values[h]
                    + b.values[g] * a.values[h] * b.values[h]
                    + rho[g] * c.values[h]
                )
                % 2
            )
            yr.append(
                (
                    c.values[g] * a.values[h]
                    + b.values[g] * _BINOM2_MOD2[(chi_g * a.values[h] + 1) % 4]
                    + rho[g] * c.values[h]
                    + f.values[g] * a.values[h]
                )
                % 2
            )
        x_rows.append(tuple(xr))
        y_rows.append(tuple(yr))
    return (
        Cochain2(model, 2, 3, tuple(x_rows)),
        Cochain2(model, 2, 3, tuple(y_rows)),
    )


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


def _check_delta3_inputs(b: Cochain1, a: Cochain1, c: Cochain1, *fs: Cochain1) -> None:
    """Validate the lift (b, a)_c once, together with every f it is paired with;
    each f must be a mod-2 cocycle on b's model, as boundary_of_section asks."""
    if b.modulus != 4 or a.modulus != 4:
        raise ValueError("b and a must be mod-4 cochains")
    if c.modulus != 2:
        raise ValueError("c must be a mod-2 cochain")
    if not all(f.model is b.model and f.modulus == 2 and f.is_cocycle() for f in fs):
        raise ValueError("f must be a mod-2 cocycle on b's model")
    if not (b.is_cocycle() and a.is_cocycle()):
        raise InvalidLiftError("b and a must be twisted cocycles")
    check_lift(b, a, c)


def kummer_real_cocycle(x, model: GaloisModel) -> Cochain1:
    """Mod-4 Kummer cocycle of a nonzero rational over the order-2 real model.

    tau fixes a real fourth root of a positive x (value 0) and moves the
    complex fourth root of a negative x by zeta_4^-1 (value 3).
    """
    if model.order != 2:
        raise ValueError("the real place model has order 2")
    value = 0 if as_rational(x) > 0 else 3
    return Cochain1(model, 4, 1, (0, value))


def all_twisted_cocycles(model: GaloisModel, modulus: int, weight: int = 1) -> list[Cochain1]:
    """All cocycles c(gh) = c(g) + chi(g)^w c(h) by generator propagation."""
    gens = model.generators()
    out = []
    for gen_values in itertools.product(range(modulus), repeat=len(gens)):
        values = _propagate(model, modulus, weight, dict(zip(gens, gen_values)))
        if values is not None:
            out.append(Cochain1(model, modulus, weight, values))
    return out


def _propagate(
    model: GaloisModel, modulus: int, weight: int, seed: dict[int, int]
) -> tuple[int, ...] | None:
    known: dict[int, int] = {0: 0}
    known.update(seed)
    if known.get(0, 0) != 0:
        return None
    changed = True
    while changed:
        changed = False
        for g, vg in list(known.items()):
            chi_g = pow(model.chi[g], weight, modulus)
            for h, vh in list(known.items()):
                gh = model.mul(g, h)
                value = (vg + chi_g * vh) % modulus
                if gh in known:
                    if known[gh] != value:
                        return None
                else:
                    known[gh] = value
                    changed = True
    if len(known) != model.order:
        return None
    return tuple(known[g] for g in model.elements())


def lift_cochains(model: GaloisModel, b: Cochain1, a: Cochain1) -> list[Cochain1]:
    """All mod-2 cochains c with Dc = -(b cup a) mod 2, i.e. all lifts (b,a)_c."""
    target = cup(b.reduce2(), a.reduce2())
    out = []
    for tail in itertools.product((0, 1), repeat=model.order - 1):
        c = Cochain1(model, 2, 2, (0, *tail))
        if coboundary(c).values == target.values:
            out.append(c)
    return out


def f_homs(model: GaloisModel) -> list[Cochain1]:
    """All admissible f cochains: mod-2 cocycles of weight 2 (= homs G -> Z/2)."""
    return all_twisted_cocycles(model, 2, weight=2)

