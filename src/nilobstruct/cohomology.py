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
solution of Dc = t is fixed by its values on generators.  A cochain's
values are in one order at every modulus, c(g) at index g and z(g, h) at
index g*n + h: at modulus 2 as the bits of one int, on which these
operations are a few int operations (see _BitOps), and at any other modulus
as one flat tuple.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import lshift
from typing import NamedTuple


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

    @cached_property
    def _bits(self) -> "_BitOps":
        return _bit_ops(self)


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


class _BitOps(NamedTuple):
    """A model's mod-2 cochain operations on bits.  A mod-2 1-cochain on a
    group of order n is an n-bit int whose bit g is c(g); a mod-2 2-cochain
    an n^2-bit int whose bit g*n + h is z(g, h).  chi is odd, so chi^w is 1
    mod 2 and no operation reads a twist."""

    n: int
    full: int  # 2^n - 1: every element
    spread: Callable[[int], int]
    compose: Callable[[int], int]
    coboundary: Callable[[int], int]
    rho: int  # (chi - 1)/2 mod 2


def _bit_ops(model: GaloisModel) -> _BitOps:
    """The model's _BitOps, built once per model from O(n) ints, none of
    size 2^n."""
    n = model.order
    full = (1 << n) - 1
    low, top, top_shift = full >> 1, n - 1, (n - 1) * n
    diag = sum(1 << (g * n) for g in range(n))  # c * diag has c in every row
    sieve = diag & ~(1 << top_shift)  # bit g*n for g < n - 1
    rep = sum(1 << (g * top) for g in range(top))  # copies of an (n - 1)-bit int
    products = [0] * n  # products[k]: the bits (g, h) with gh = k
    for g, row in enumerate(model.table):
        for h, gh in enumerate(row):
            products[gh] |= 1 << (g * n + h)

    def spread(u: int) -> int:
        """Bit g of u moved to bit g*n, so that v * spread(u) is the cup
        (g, h) -> u(g) v(h) of an n-bit v, with no carries.  Copy g of u's
        low n - 1 bits, at g*(n - 1), has its bit g at g*n; u's top bit goes
        alone."""
        return ((u & low) * rep & sieve) | (u >> top) << top_shift

    def compose(c: int) -> int:
        """(g, h) -> c(gh): the union of products[k] over the k with c(k) = 1."""
        out = 0
        for mask in products:
            if c & 1:
                out |= mask
            c >>= 1
        return out

    def coboundary(c: int) -> int:
        """Dc(g, h) = c(g) + c(h) + c(gh) mod 2."""
        return spread(c) * full ^ c * diag ^ compose(c)

    rho = _pack([(chi - 1) // 2 % 2 for chi in model.chi])
    return _BitOps(n, full, spread, compose, coboundary, rho)


def _pack(values) -> int:
    """The int whose bit i is values[i], for values of 0 and 1."""
    return int("".join(map(str, reversed(values))), 2)


def _unpack(bits: int, count: int) -> tuple[int, ...]:
    """The first count bits of bits, bit 0 first."""
    return tuple(map(int, reversed(format(bits, f"0{count}b"))))


def _stored(modulus: int, values):
    """The stored data of values in bit order: their int of bits at modulus
    2, their tuple otherwise."""
    return _pack(values) if modulus == 2 else tuple(values)


def _new(cls, model: GaloisModel, modulus: int, weight: int, data):
    """A cochain from its stored data (see _stored), unchecked."""
    c = object.__new__(cls)
    c.model = model
    c.modulus = modulus
    c.weight = weight
    c._data = data
    return c


class _Cochain:
    """What Cochain1 and Cochain2 share.  A cochain stores its values in bit
    order, c(g) at g and z(g, h) at g*n + h: at modulus 2 as the bits of one
    int (see _BitOps), at other moduli as a flat tuple.  ``_flat`` reads
    them as a tuple either way, and ``bits`` reads the int.  Two cochains
    are equal when their model, modulus, weight and values are, and hash by
    their stored values.  No operation changes a cochain."""

    __slots__ = ("model", "modulus", "weight", "_data")
    _degree = 1

    def __init__(self, model: GaloisModel, modulus: int, weight: int, values: Sequence[int]):
        if len(values) != model.order**self._degree:
            raise ValueError("wrong number of values")
        if any([v % modulus != v for v in values]):
            raise ValueError("values not reduced")
        self.model, self.modulus, self.weight = model, modulus, weight
        self._data = _stored(modulus, values)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.model, self.modulus, self.weight, self._data) == (
            other.model, other.modulus, other.weight, other._data
        )

    def __hash__(self):
        return hash((self.modulus, self.weight, self._data))

    def __repr__(self):
        return (
            f"{type(self).__name__}(model={self.model.name!r}, modulus={self.modulus}, "
            f"weight={self.weight}, values={self.values})"
        )

    @classmethod
    def from_bits(cls, model: GaloisModel, weight: int, bits: int):
        """The mod-2 cochain on model with value bit g of bits at g (a
        Cochain1), or bit g*n + h at (g, h) (a Cochain2)."""
        return _new(cls, model, 2, weight, bits)

    @property
    def bits(self) -> int:
        if self.modulus != 2:
            raise ValueError(f"a mod-{self.modulus} cochain has no bits")
        return self._data

    @property
    def _flat(self) -> tuple[int, ...]:
        """The values in bit order."""
        if self.modulus == 2:
            return _unpack(self._data, self.model.order**self._degree)
        return self._data

    def is_zero(self) -> bool:
        return not (self._data if self.modulus == 2 else any(self._data))

    def __add__(self, other):
        _check_compatible(self, other)
        x, y, mod = self._data, other._data, self.modulus
        data = x ^ y if mod == 2 else tuple([(u + v) % mod for u, v in zip(x, y)])
        return _new(type(self), self.model, mod, self.weight, data)

    def __neg__(self):
        # -z is z at modulus 2.
        mod = self.modulus
        if mod == 2:
            return self
        return _new(type(self), self.model, mod, self.weight, tuple([-x % mod for x in self._data]))

    def __sub__(self, other):
        return self + (-other)


class Cochain1(_Cochain):
    """Degree-1 cochain: values on G in Z/modulus, coefficients chi^weight."""

    __slots__ = ()
    values = _Cochain._flat

    def pointwise_mul(self, other: "Cochain1") -> "Cochain1":
        """The product cochain (cd)(g) = c(g) d(g); weights add."""
        if self.model is not other.model or self.modulus != other.modulus:
            raise ValueError("pointwise product needs one model and one modulus")
        mod = self.modulus
        if mod == 2:
            product = self._data & other._data
        else:
            product = tuple([x * y % mod for x, y in zip(self._data, other._data)])
        return _new(Cochain1, self.model, mod, self.weight + other.weight, product)

    def reduce2(self) -> "Cochain1":
        if self.modulus == 2:
            return self
        return _new(Cochain1, self.model, 2, self.weight, _pack([v % 2 for v in self._data]))

    def is_cocycle(self) -> bool:
        return coboundary(self).is_zero()


class Cochain2(_Cochain):
    """Degree-2 cochain: values on G x G in Z/modulus, given and read as one
    tuple of values per row g."""

    __slots__ = ()
    _degree = 2

    def __init__(self, model: GaloisModel, modulus: int, weight: int, values: Sequence[Sequence[int]]):
        if any(len(row) != model.order for row in values):
            raise ValueError("wrong number of values")
        super().__init__(model, modulus, weight, [v for row in values for v in row])

    @property
    def values(self) -> tuple[tuple[int, ...], ...]:
        n, flat = self.model.order, self._flat
        return tuple([flat[g : g + n] for g in range(0, n * n, n)])

    def is_cocycle(self) -> bool:
        """Degree-2 cocycle condition D2 z = 0:
        chi(g)^w z(h, k) - z(gh, k) + z(g, hk) - z(g, h) = 0 for all g, h, k,
        with gh and hk read from the rows of the table.  At modulus 2 the law
        for one g is one n^2-bit int over (h, k), with the rows of z read
        through row g of the table for z(gh, k)."""
        mod, table = self.modulus, self.model.table
        if mod == 2:
            z, ops = self._data, self.model._bits
            shifts = range(0, ops.n * ops.n, ops.n)
            rows = [z >> s & ops.full for s in shifts]
            return not any(
                z ^ sum(map(lshift, map(rows.__getitem__, row_g), shifts))
                ^ ops.compose(z_g) ^ ops.spread(z_g) * ops.full
                for row_g, z_g in zip(table, rows)
            )
        z = self.values
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
    return _new(Cochain1, model, modulus, weight, _stored(modulus, [0] * model.order))


def coboundary(c: Cochain1) -> Cochain2:
    """Dc(g,h) = c(g) + chi(g)^w c(h) - c(gh)."""
    model, mod = c.model, c.modulus
    if mod == 2:
        return _new(Cochain2, model, 2, c.weight, model._bits.coboundary(c._data))
    v = c._data
    values = []
    for row, chi, v_g in zip(model.table, model.chi, v):
        chi_g = pow(chi, c.weight, mod)
        values += [(v_g + chi_g * v_h - v[gh]) % mod for v_h, gh in zip(v, row)]
    return _new(Cochain2, model, mod, c.weight, tuple(values))


def cup(c: Cochain1, d: Cochain1) -> Cochain2:
    """(c cup d)(g,h) = c(g) * chi(g)^{w_d} * d(h); weights add.  At modulus 2
    chi(g)^{w_d} is 1, and the cup is d's bits times c's bits spread out."""
    if c.model is not d.model:
        raise ValueError("cup of cochains on different models")
    if c.modulus != d.modulus:
        raise ValueError(f"cup needs a common modulus, got {c.modulus} and {d.modulus}")
    model, mod, weight = c.model, c.modulus, c.weight + d.weight
    if mod == 2:
        return _new(Cochain2, model, 2, weight, d._data * model._bits.spread(c._data))
    right = d._data
    zero = (0,) * len(right)
    values = []
    for c_g, chi in zip(c._data, model.chi):
        left = c_g * pow(chi, d.weight, mod) % mod
        # d's values are reduced, so a left factor of 1 gives d's row itself.
        values += zero if left == 0 else right if left == 1 else [left * x % mod for x in right]
    return _new(Cochain2, model, mod, weight, tuple(values))


# (n choose 2) mod 2 depends only on n mod 4: residues 0,1,2,3 -> 0,0,1,1.
_BINOM2_MOD2 = (0, 0, 1, 1)


def _binom2_bits(c: Cochain1) -> int:
    return _pack([_BINOM2_MOD2[v] for v in c._data])


def binom2(c: Cochain1) -> Cochain1:
    """Pointwise profinite binomial coefficient (c choose 2), mod 4 -> mod 2."""
    if c.modulus != 4:
        raise ValueError("binom2 is defined on mod-4 cochains")
    return _new(Cochain1, c.model, 2, 2 * c.weight, _binom2_bits(c))


def chi_minus1_over2(model: GaloisModel) -> Cochain1:
    """The mod-2 cocycle (chi-1)/2, i.e. the Kummer class of -1."""
    return _new(Cochain1, model, 2, 1, model._bits.rho)


def f_cocycle(model: GaloisModel) -> Cochain1:
    """The mod-2 cocycle (chi^2 - 1)/24; requires chi lifted mod 48."""
    if model.chi_mod % 48 != 0:
        raise ValueError("f_cocycle needs chi values lifted mod 48")
    # chi's values are units mod chi_mod, so mod 48 as well.
    return _new(Cochain1, model, 2, 2, _pack([(chi * chi - 1) // 24 % 2 for chi in model.chi]))


def massey_triple(
    alpha: Cochain1, beta: Cochain1, gamma: Cochain1, A: Cochain1, B: Cochain1
) -> Cochain2:
    """<alpha, beta, gamma> = A cup gamma + alpha cup B for the defining
    system A, B, which must have DA = alpha cup beta and DB = beta cup gamma."""
    if coboundary(A) != cup(alpha, beta):
        raise InvalidDefiningSystemError("DA != alpha cup beta")
    if coboundary(B) != cup(beta, gamma):
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
    and differ from the closed forms by explicit coboundaries (see verify):

        x(g, h) = c(g) b(h) + C(b(g) + 1, 2) a(h) + b(g) a(h) b(h) + r(g) c(h)
        y(g, h) = c(g) a(h) + b(g) C(chi(g) a(h) + 1, 2) + r(g) c(h) + f(g) a(h)

    mod 2, with r = (chi - 1)/2.  Each term is a row mask times a column
    mask.  C(b + 1, 2) = C(b, 2) + b, and C(chi a + 1, 2) is C(a, 2) where
    chi = 3 mod 4 and C(a, 2) + a where chi = 1 mod 4.  The x component does
    not depend on f, so every pair shares one.  The inputs must be as
    delta3_closed_form asks; nothing is checked here.
    """
    model = b.model
    spread = model._bits.spread
    r = chi_minus1_over2(model)._data
    b2, a2, c2 = b.reduce2()._data, a.reduce2()._data, c._data
    hb, ha = _binom2_bits(b), _binom2_bits(a)
    x = spread(c2) * b2 ^ spread(hb ^ b2) * a2 ^ spread(b2) * (a2 & b2) ^ spread(r) * c2
    y0 = spread(c2) * a2 ^ spread(b2) * ha ^ spread(b2 & ~r) * a2 ^ spread(r) * c2
    comp_x = _new(Cochain2, model, 2, 3, x)
    return [(comp_x, _new(Cochain2, model, 2, 3, y0 ^ spread(f._data) * a2)) for f in fs]


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
    walk = steps[len(gens):]  # the identity's steps reach the generators
    t, n = target._flat, model.order
    walk_t = [t[g * n + s] for _, g, s in walk]  # target(g, s) for each step
    out = []
    for gen_values in itertools.product(range(modulus), repeat=len(gens)):
        values = [0] * n
        for s, v in zip(gens, gen_values):
            values[s] = v
        for (gs, g, s), t_gs in zip(walk, walk_t):
            values[gs] = (values[g] + twist[g] * values[s] - t_gs) % modulus
        c = _new(Cochain1, model, modulus, weight, _stored(modulus, values))
        if coboundary(c) == target:
            out.append(c)
    return out


def all_twisted_cocycles(model: GaloisModel, modulus: int, weight: int = 1) -> list[Cochain1]:
    """All cocycles c(gh) = c(g) + chi(g)^w c(h): the solutions of Dc = 0,
    in itertools.product order of their generator values."""
    zero = _stored(modulus, [0] * model.order**2)
    return _solutions(_new(Cochain2, model, modulus, weight, zero))


def lift_cochains(b: Cochain1, a: Cochain1) -> list[Cochain1]:
    """All lifts (b,a)_c: the mod-2 cochains c on b's model, of weight
    b.weight + a.weight, with Dc = -(b cup a) mod 2, sorted by their values."""
    return sorted(_solutions(-cup(b.reduce2(), a.reduce2())), key=lambda c: c.values)


def f_homs(model: GaloisModel) -> list[Cochain1]:
    """All admissible f cochains: mod-2 cocycles of weight 2 (= homs G -> Z/2)."""
    return all_twisted_cocycles(model, 2, weight=2)

