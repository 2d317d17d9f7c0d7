"""Finite-model cochain engine.

A GaloisModel is a finite group G given by a multiplication table together
with a character chi: G -> (Z/2^k)^* (lifted mod 48 when the weight-2 unit
cocycle f is needed).  Inhomogeneous cochains on G with Z/m coefficients,
m = 2, 4 or 8, twisted by chi^w support the coboundary

    Dc(g, h) = c(g) + chi(g)^w c(h) - c(gh)

and the cup product (c cup d)(g, h) = c(g) * chi(g)^{w_d} * d(h).  All the
degree-1/2 identities used by the obstruction evaluators are checkable here
on every twisted cocycle and every lift, because they are cochain identities
valid over any profinite group with any character.  Cocycles (Dc = 0), the
admissible f and the lifts (Dc = -(b cup a)) are listed by one solver: a
solution of Dc = t is fixed by its values on generators.  At every modulus
a cochain is one int of byte lanes, c(g) in byte g and z(g, h) in byte
g*n + h, on which these operations are a few int operations and byte
translates (see _Lanes).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import gcd


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
    def _lanes(self) -> "_Lanes":
        return _Lanes(self)


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


# The moduli a cochain may have: each divides 8, so a value fits in the low
# three bits of a byte lane (see _Lanes).
_MODULI = (2, 4, 8)

# _MUL[m][u | v << 3] = u v mod m for u, v < 8.
_MUL = {m: bytes([(i & 7) * (i >> 3) % m for i in range(256)]) for m in _MODULI}


def _lane_mul(u: int, v: int, n: int, modulus: int) -> int:
    """The n lanes of u times those of v mod modulus, lane by lane: one
    translate of the lanes u | v << 3 through _MUL."""
    return int.from_bytes((u | v << 3).to_bytes(n, "little").translate(_MUL[modulus]), "little")


def _check_modulus(modulus: int) -> None:
    if modulus not in _MODULI:
        raise ValueError(f"modulus {modulus} is not 2, 4 or 8")


class _Lanes:
    """A model's cochain operations on byte lanes, built once per model from
    O(n) ints and the n^2 bytes of its table (so n <= 256).  A cochain of
    modulus m on a group of order n is an int whose byte g holds c(g)
    (degree 1) or whose byte g*n + h holds z(g, h) (degree 2), each value in
    0..m - 1.  m divides 8, so chi(g)^w is read mod m from chi(g) mod 8 (w
    odd) or 1 (w even), and masking every lane with m - 1 reduces it mod m.
    An operation adds m in a lane before it subtracts a value, so that no
    lane goes below 0, and keeps every lane below 256, so that none carries
    into the next: at most 7 + 49 + 8 in a coboundary, 49 in a cup or a lane
    product, and 49 + 7 in the 2-cocycle law."""

    def __init__(self, model: GaloisModel):
        n = model.order
        chi = [x % 8 for x in model.chi]
        self.n = n
        self.table = bytes([gh for row in model.table for gh in row])  # byte g*n + h: gh
        ones1 = int.from_bytes(b"\1" * n, "little")
        ones2 = int.from_bytes(b"\1" * (n * n), "little")
        # By degree, then by modulus: 1 in every lane, m - 1 (the mask) and
        # m (added before a subtraction).
        self.ones = (None, ones1, ones2)
        self.mask = (None, *({m: (m - 1) * ones for m in _MODULI} for ones in (ones1, ones2)))
        self.base = (None, *({m: m * ones for m in _MODULI} for ones in (ones1, ones2)))

        low, top, top_shift = 0xFF * (ones1 >> 8), 8 * (n - 1), 8 * (n - 1) * n
        rep = sum(1 << 8 * g * (n - 1) for g in range(n - 1))  # copies of an (n - 1)-lane int
        sieve = sum(0xFF << 8 * g * n for g in range(n - 1))  # byte g*n for g < n - 1

        def spread(u: int) -> int:
            """Byte g of u moved to byte g*n, so that v * spread(u) holds
            u(g) v(h) at (g, h), lane by lane.  Copy g of u's low n - 1
            bytes, at byte g*(n - 1), has its byte g at g*n, and no two
            copies overlap; u's top byte goes alone."""
            return (u & low) * rep & sieve | (u >> top) << top_shift

        self.spread = spread
        # chi(g) mod 8 in byte g; diag[w & 1] holds chi(g)^w mod 8 in byte
        # g*n, so that c * diag holds chi(g)^w c(h) at (g, h).
        self.chi = int.from_bytes(bytes(chi), "little")
        self.diag = (spread(ones1), spread(self.chi))
        self.rho = int.from_bytes(bytes([(x - 1) // 2 % 2 for x in model.chi]), "little")

    def compose(self, c: int) -> int:
        """(g, h) -> c(gh): the table translated through c's bytes."""
        return int.from_bytes(self.table.translate(c.to_bytes(256, "little")), "little")

    @cached_property
    def law(self) -> tuple[bytes, bytes, bytes, tuple[int, int], dict[int, int]]:
        """What the 2-cocycle law reads, over the n^3 lanes (g, h, k) at byte
        (g*n + h)*n + k: three translate tables of byte indices into the
        lanes of a 2-cochain z, which read z(gh, k), z(g, hk) and z(g, h)
        there; the diagonal by weight parity that, times z, holds
        chi(g)^w z(h, k) there; and the mask by modulus.  An index must fit
        in a byte, so the law needs n <= 16."""
        n = self.n
        if n > 16:
            raise ValueError(f"the 2-cocycle test needs a model of order at most 16, not {n}")
        ones3 = int.from_bytes(b"\1" * n**3, "little")
        gh_k = b"".join([bytes(range(gh * n, gh * n + n)) for gh in self.table])
        g_hk = bytes([g * n + hk for g in range(n) for hk in self.table])
        g_h = bytes([i for i in range(n * n) for _ in range(n)])
        chi = self.chi.to_bytes(n, "little")
        diag = (sum(1 << 8 * g * n * n for g in range(n)), sum(t << 8 * g * n * n for g, t in enumerate(chi)))
        return gh_k, g_hk, g_h, diag, {m: (m - 1) * ones3 for m in _MODULI}


def _new(cls, model: GaloisModel, modulus: int, weight: int, lanes: int):
    """A cochain from its lanes, unchecked."""
    c = object.__new__(cls)
    c.model = model
    c.modulus = modulus
    c.weight = weight
    c.lanes = lanes
    return c


class _Cochain:
    """What Cochain1 and Cochain2 share.  A cochain stores its values as the
    byte lanes of one int, ``lanes``, at every modulus: c(g) in byte g and
    z(g, h) in byte g*n + h (see _Lanes).  ``values`` reads them as tuples.
    Two cochains are equal when their model, modulus, weight and lanes are,
    and hash by their modulus, weight and lanes.  No operation changes a
    cochain."""

    __slots__ = ("model", "modulus", "weight", "lanes")
    _degree = 1

    def __init__(self, model: GaloisModel, modulus: int, weight: int, values: Sequence[int]):
        _check_modulus(modulus)
        if len(values) != model.order**self._degree:
            raise ValueError("wrong number of values")
        if any([v % modulus != v for v in values]):
            raise ValueError("values not reduced")
        self.model, self.modulus, self.weight = model, modulus, weight
        self.lanes = int.from_bytes(bytes(values), "little")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.model, self.modulus, self.weight, self.lanes) == (
            other.model, other.modulus, other.weight, other.lanes
        )

    def __hash__(self):
        return hash((self.modulus, self.weight, self.lanes))

    def __repr__(self):
        return (
            f"{type(self).__name__}(model={self.model.name!r}, modulus={self.modulus}, "
            f"weight={self.weight}, values={self.values})"
        )

    @classmethod
    def from_lanes(cls, model: GaloisModel, modulus: int, weight: int, lanes: int):
        """The cochain on model with value byte g of lanes at g (a Cochain1),
        or byte g*n + h at (g, h) (a Cochain2); each byte must be reduced
        mod modulus, which is not checked."""
        _check_modulus(modulus)
        return _new(cls, model, modulus, weight, lanes)

    def _bytes(self) -> bytes:
        return self.lanes.to_bytes(self.model.order**self._degree, "little")

    def is_zero(self) -> bool:
        return not self.lanes

    def __add__(self, other):
        _check_compatible(self, other)
        mask = self.model._lanes.mask[self._degree][self.modulus]
        return _new(type(self), self.model, self.modulus, self.weight, self.lanes + other.lanes & mask)

    def __neg__(self):
        # -z is z at modulus 2.
        if self.modulus == 2:
            return self
        lanes, m, d = self.model._lanes, self.modulus, self._degree
        return _new(type(self), self.model, m, self.weight, lanes.base[d][m] - self.lanes & lanes.mask[d][m])

    def __sub__(self, other):
        _check_compatible(self, other)
        lanes, m, d = self.model._lanes, self.modulus, self._degree
        x = self.lanes + lanes.base[d][m] - other.lanes & lanes.mask[d][m]
        return _new(type(self), self.model, m, self.weight, x)


class Cochain1(_Cochain):
    """Degree-1 cochain: values on G in Z/modulus, coefficients chi^weight."""

    __slots__ = ()

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self._bytes())

    def pointwise_mul(self, other: "Cochain1") -> "Cochain1":
        """The product cochain (cd)(g) = c(g) d(g); weights add."""
        if self.model is not other.model or self.modulus != other.modulus:
            raise ValueError("pointwise product needs one model and one modulus")
        mod = self.modulus
        product = _lane_mul(self.lanes, other.lanes, self.model.order, mod)
        return _new(Cochain1, self.model, mod, self.weight + other.weight, product)

    def reduce2(self) -> "Cochain1":
        return _new(Cochain1, self.model, 2, self.weight, self.lanes & self.model._lanes.ones[1])

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
        n, flat = self.model.order, self._bytes()
        return tuple([tuple(flat[g : g + n]) for g in range(0, n * n, n)])

    def is_cocycle(self) -> bool:
        """Degree-2 cocycle condition D2 z = 0:
        chi(g)^w z(h, k) - z(gh, k) + z(g, hk) - z(g, h) = 0 for all g, h, k,
        as chi(g)^w z(h, k) + z(g, hk) = z(gh, k) + z(g, h) mod m on one
        n^3-lane int per side (see _Lanes.law); a model of order above 16
        is refused."""
        gh_k, g_hk, g_h, diag, mask = self.model._lanes.law
        z = self.lanes
        read = z.to_bytes(256, "little")
        left = z * diag[self.weight & 1] + int.from_bytes(g_hk.translate(read), "little")
        right = int.from_bytes(gh_k.translate(read), "little") + int.from_bytes(g_h.translate(read), "little")
        return left & mask[self.modulus] == right & mask[self.modulus]


def _check_compatible(c, d) -> None:
    if c.model is not d.model:
        raise ValueError("cochains live on different models")
    if c.modulus != d.modulus:
        raise ValueError(f"modulus mismatch {c.modulus} != {d.modulus}")
    if c.weight != d.weight:
        raise ValueError(f"weight mismatch {c.weight} != {d.weight}")


def zero1(model: GaloisModel, modulus: int, weight: int) -> Cochain1:
    _check_modulus(modulus)
    return _new(Cochain1, model, modulus, weight, 0)


def coboundary(c: Cochain1) -> Cochain2:
    """Dc(g,h) = c(g) + chi(g)^w c(h) - c(gh): c(g) spread along row g, c
    times the twisted diagonal, and c read through the table."""
    model, mod, x = c.model, c.modulus, c.lanes
    lanes = model._lanes
    dc = (
        lanes.spread(x) * lanes.ones[1]
        + x * lanes.diag[c.weight & 1]
        + lanes.base[2][mod]
        - lanes.compose(x)
    )
    return _new(Cochain2, model, mod, c.weight, dc & lanes.mask[2][mod])


def cup(c: Cochain1, d: Cochain1) -> Cochain2:
    """(c cup d)(g,h) = c(g) * chi(g)^{w_d} * d(h); weights add: d's lanes
    times the twisted c spread out."""
    if c.model is not d.model:
        raise ValueError("cup of cochains on different models")
    if c.modulus != d.modulus:
        raise ValueError(f"cup needs a common modulus, got {c.modulus} and {d.modulus}")
    model, mod, u = c.model, c.modulus, c.lanes
    lanes = model._lanes
    # chi is odd, so chi(g)^{w_d} is 1 at modulus 2 and at an even w_d.
    if d.weight & 1 and mod != 2:
        u = _lane_mul(u, lanes.chi, lanes.n, mod)
    return _new(Cochain2, model, mod, c.weight + d.weight, d.lanes * lanes.spread(u) & lanes.mask[2][mod])


def binom2(c: Cochain1) -> Cochain1:
    """Pointwise profinite binomial coefficient (c choose 2), mod 4 -> mod 2:
    for v in 0..3 it is bit 1 of v."""
    if c.modulus != 4:
        raise ValueError("binom2 is defined on mod-4 cochains")
    return _new(Cochain1, c.model, 2, 2 * c.weight, c.lanes >> 1 & c.model._lanes.ones[1])


def chi_minus1_over2(model: GaloisModel) -> Cochain1:
    """The mod-2 cocycle (chi-1)/2, i.e. the Kummer class of -1."""
    return _new(Cochain1, model, 2, 1, model._lanes.rho)


def f_cocycle(model: GaloisModel) -> Cochain1:
    """The mod-2 cocycle (chi^2 - 1)/24; requires chi lifted mod 48."""
    if model.chi_mod % 48 != 0:
        raise ValueError("f_cocycle needs chi values lifted mod 48")
    # chi's values are units mod chi_mod, so mod 48 as well.
    return Cochain1(model, 2, 2, [(chi * chi - 1) // 24 % 2 for chi in model.chi])


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
    lanes = model._lanes
    spread, ones2 = lanes.spread, lanes.ones[2]
    r = lanes.rho
    b2, a2, c2 = b.reduce2().lanes, a.reduce2().lanes, c.lanes
    hb, ha = binom2(b).lanes, binom2(a).lanes
    # Every term is 0 or 1 in a lane but spread(hb + b2) * a2, at most 2,
    # so no lane of x or y0 + spread(f) * a2 passes 5; its low bit is the
    # lane mod 2.
    x = spread(c2) * b2 + spread(hb + b2) * a2 + spread(b2) * (a2 & b2) + spread(r) * c2
    y0 = spread(c2) * a2 + spread(b2) * ha + spread(b2 & ~r) * a2 + spread(r) * c2
    comp_x = _new(Cochain2, model, 2, 3, x & ones2)
    return [(comp_x, _new(Cochain2, model, 2, 3, y0 + spread(f.lanes) * a2 & ones2)) for f in fs]


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
    t, n = target._bytes(), model.order
    walk_t = [t[g * n + s] for _, g, s in walk]  # target(g, s) for each step
    out = []
    for gen_values in itertools.product(range(modulus), repeat=len(gens)):
        values = [0] * n
        for s, v in zip(gens, gen_values):
            values[s] = v
        for (gs, g, s), t_gs in zip(walk, walk_t):
            values[gs] = (values[g] + twist[g] * values[s] - t_gs) % modulus
        c = _new(Cochain1, model, modulus, weight, int.from_bytes(bytes(values), "little"))
        if coboundary(c) == target:
            out.append(c)
    return out


def all_twisted_cocycles(model: GaloisModel, modulus: int, weight: int = 1) -> list[Cochain1]:
    """All cocycles c(gh) = c(g) + chi(g)^w c(h): the solutions of Dc = 0,
    in itertools.product order of their generator values."""
    _check_modulus(modulus)
    return _solutions(_new(Cochain2, model, modulus, weight, 0))


def lift_cochains(b: Cochain1, a: Cochain1) -> list[Cochain1]:
    """All lifts (b,a)_c: the mod-2 cochains c on b's model, of weight
    b.weight + a.weight, with Dc = -(b cup a) mod 2, sorted by their values."""
    return sorted(_solutions(-cup(b.reduce2(), a.reduce2())), key=lambda c: c.values)


def f_homs(model: GaloisModel) -> list[Cochain1]:
    """All admissible f cochains: mod-2 cocycles of weight 2 (= homs G -> Z/2)."""
    return all_twisted_cocycles(model, 2, weight=2)

