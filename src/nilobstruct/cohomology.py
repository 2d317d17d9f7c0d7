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
solution of Dc = t is fixed by its values on generators.

At every modulus a cochain is one int of byte lanes, and it carries a batch
axis: a batch of L cochains on one model, modulus and weight (its cases) is
one cochain whose byte g*L + i holds case i's c(g), or whose byte
(g*n + h)*L + i holds case i's z(g, h).  A single cochain is the batch of
one, L = 1, with c(g) in byte g and z(g, h) in byte g*n + h.  Every
operation acts on all cases at once, in a few int operations, byte
translates and joins of L-byte blocks whatever L is (see _Lanes), and the
failing cases of a comparison are read off one folded int.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property
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
        if any(not 0 <= x < n for row in self.table for x in row):
            raise ValueError(f"multiplication table has an entry outside 0..{n - 1}")
        if any(self.table[0][j] != j or self.table[j][0] != j for j in range(n)):
            raise ValueError("index 0 is not an identity")
        triples = itertools.product(range(n), repeat=3)
        if any(self.mul(self.mul(i, j), k) != self.mul(i, self.mul(j, k)) for i, j, k in triples):
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
    def _lanes(self) -> "_Layouts":
        """The layout of each batch size, _lanes[L], built on first use and
        kept with the model."""
        return _Layouts(self)


def _table_from_op(elems: list, op) -> tuple[tuple[int, ...], ...]:
    index = {e: i for i, e in enumerate(elems)}
    return tuple(tuple(index[op(a, b)] for b in elems) for a in elems)


@cache
def cyclic_model(n: int, chi_gen: int) -> GaloisModel:
    """Cyclic group of order n with chi(generator) = chi_gen mod 8; built
    once per (n, chi_gen), as are units_model, standard_models and
    extra_models, so that a model, its checked table and its batch layouts
    live for the process."""
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


@cache
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


@cache
def standard_models() -> tuple[GaloisModel, ...]:
    """The four models of order at most 4 that the verify suite always runs."""
    return (
        cyclic_model(2, 7),
        cyclic_model(4, 3),
        klein_model(),
        units_model(8),
    )


@cache
def extra_models() -> tuple[GaloisModel, ...]:
    """The larger models, S3 and Z/8; the verify suite runs each one whose
    order is within its max group order."""
    return (s3_model(), cyclic_model(8, 3))


# The moduli a cochain may have: each divides 8, so a value fits in the low
# three bits of a byte lane (see _Lanes).
_MODULI = (2, 4, 8)

# _MUL[m][u << 4 | v] = u v mod m for u, v < 16: the lane products of both
# oracle engines, the cochains' at the moduli above and the Magnus series'
# (nilpotent) at every power of 2 up to 16.
_MUL = {m: bytes([(i >> 4) * (i & 15) % m for i in range(256)]) for m in (2, 4, 8, 16)}


def _ones(n: int) -> int:
    """The int of n byte lanes that each hold 1."""
    return int.from_bytes(b"\1" * n, "little")


def _lane_mul(u: int, v: int, n: int, modulus: int) -> int:
    """The n lanes of u times those of v mod modulus, lane by lane, for
    lanes below 16: one translate of the lanes u << 4 | v through _MUL."""
    return int.from_bytes((u << 4 | v).to_bytes(n, "little").translate(_MUL[modulus]), "little")


def _check_modulus(modulus: int) -> None:
    if modulus not in _MODULI:
        raise ValueError(f"modulus {modulus} is not 2, 4 or 8")


class _Layouts(dict):
    """A model's _Lanes by batch size: a missing one is built and kept."""

    def __init__(self, model: GaloisModel):
        super().__init__()
        self.model = model

    def __missing__(self, cases: int) -> "_Lanes":
        lanes = self[cases] = _Lanes(self.model, cases)
        return lanes


def _repeated(values: Sequence[int], size: int) -> int:
    """The int whose block k of size bytes holds values[k] in every byte."""
    return int.from_bytes(b"".join([bytes([v]) * size for v in values]), "little")


class _Lanes:
    """A model's cochain operations on a batch of L cases, built once per
    model and L (see GaloisModel._lanes) from O(n^2 L)-byte ints and index
    bytes, and the 2-cocycle law's O(n^3 L) on first use.  A 1-cochain is n
    blocks of L bytes, block g holding c(g) of every case, and a 2-cochain
    n^2 blocks, block g*n + h holding z(g, h); so L = 1 is one value per
    byte.  Each value is in 0..m - 1 and m divides 8, so chi(g)^w is read
    mod m from chi(g) mod 8 (w odd) or 1 (w even), and masking every lane
    with m - 1 reduces it mod m.

    An operation reads a cochain's blocks at the positions of an index: its
    rows (c(g) at (g, h)), the table (c(gh) at (g, h)) and the three
    readings of the 2-cocycle law.  The blocks are sliced and joined
    (gather), n^2 or n^3 of them per call, whatever L is; columns (c(h) at
    (g, h)) repeat the whole cochain, and a lane product, which also twists
    by chi(g), is one translate through _MUL, or an AND at modulus 2.

    An operation adds m in a lane before it subtracts a value, so that no
    lane goes below 0, and keeps every lane below 256, so that none carries
    into the next, for any L: a coboundary sums at most 7 + 7 + 8 in a
    lane, a lane product is read from _MUL, and the 2-cocycle law sums at
    most 7 + 7."""

    def __init__(self, model: GaloisModel, cases: int):
        n, L = model.order, cases
        chi = [x % 8 for x in model.chi]
        self.n, self.cases = n, L
        ones1, ones2 = _ones(n * L), _ones(n * n * L)
        # By degree, then by modulus: 1 in every lane, m - 1 (the mask) and
        # m (added before a subtraction).
        self.ones = (None, ones1, ones2)
        self.mask = (None, *({m: (m - 1) * ones for m in _MODULI} for ones in (ones1, ones2)))
        self.base = (None, *({m: m * ones for m in _MODULI} for ones in (ones1, ones2)))
        # chi(g) mod 8 and (chi(g) - 1)/2 mod 2 in every lane of block g, and
        # chi(g) mod 8 in every lane of row g of a 2-cochain.
        self.chi = _repeated(chi, L)
        self.rho = _repeated([(x - 1) // 2 % 2 for x in model.chi], L)
        self.chi_rows = _repeated(chi, n * L)
        # The blocks of a 1-cochain read at (g, h): g (its rows) and gh.
        self.rows = bytes([g for g in range(n) for _ in range(n)])
        self.table = bytes([gh for row in model.table for gh in row])

    def gather(self, x: int, blocks: int, *indices: bytes) -> list[int]:
        """For each index, the L-byte blocks of x (which has the given number
        of blocks) at its positions, joined."""
        L = self.cases
        data = x.to_bytes(blocks * L, "little")
        parts = [data[i : i + L] for i in range(0, blocks * L, L)]
        return [int.from_bytes(b"".join(map(parts.__getitem__, index)), "little") for index in indices]

    def columns(self, x: int, blocks: int) -> int:
        """The cochain x of the given number of blocks repeated n times: x(h)
        at (g, h), or z(h, k) at (g, h, k)."""
        return int.from_bytes(x.to_bytes(blocks * self.cases, "little") * self.n, "little")

    def coboundary(self, x: int, weight: int, modulus: int) -> int:
        """c(g) + chi(g)^w c(h) + m - c(gh) at (g, h), masked, for the
        1-cochain x: its rows, its columns twisted, and x read through the
        table."""
        n = self.n
        rows, composed = self.gather(x, n, self.rows, self.table)
        cols = self.columns(x, n)
        if weight & 1 and modulus != 2:
            cols = _lane_mul(cols, self.chi_rows, n * n * self.cases, modulus)
        return rows + cols + self.base[2][modulus] - composed & self.mask[2][modulus]

    def outer(self, u: int, v: int, modulus: int) -> int:
        """u(g) v(h) mod modulus at (g, h), for the 1-cochains u and v."""
        n = self.n
        (rows,) = self.gather(u, n, self.rows)
        cols = self.columns(v, n)
        return rows & cols if modulus == 2 else _lane_mul(rows, cols, n * n * self.cases, modulus)

    def failing(self, diff: int, blocks: int) -> list[int]:
        """The cases whose lane is nonzero in some block of diff, in order:
        the blocks folded by OR, halving their number at each step."""
        L = self.cases
        while blocks > 1:
            half = blocks // 2
            diff = diff >> 8 * L * half | diff & (1 << 8 * L * half) - 1
            blocks -= half
        return [i for i, x in enumerate(diff.to_bytes(L, "little")) if x]

    @cached_property
    def law(self) -> tuple[bytes, bytes, bytes, int, int]:
        """What the 2-cocycle law reads, over the n^3 blocks (g, h, k) at
        position (g*n + h)*n + k: three indices of the blocks of a 2-cochain
        z, which read z(gh, k), z(g, hk) and z(g, h) there; the twist,
        chi(g) mod 8 in every lane of block g, whose lane product with z's
        columns holds chi(g)^w z(h, k) there at an odd w; and 1 in each lane,
        scaled to each call's mask.  Indices are bytes, so n <= 16."""
        n, L = self.n, self.cases
        if n > 16:
            raise ValueError(f"the 2-cocycle test needs a model of order at most 16, not {n}")
        ones3 = _ones(n**3 * L)
        gh_k = b"".join([bytes(range(gh * n, gh * n + n)) for gh in self.table])
        g_hk = bytes([g * n + hk for g in range(n) for hk in self.table])
        g_h = bytes([i for i in range(n * n) for _ in range(n)])
        twist = _repeated(self.chi.to_bytes(n * L, "little")[::L], n * n * L)
        return gh_k, g_hk, g_h, twist, ones3

    def law_sides(self, z: int, weight: int, modulus: int) -> tuple[int, int]:
        """chi(g)^w z(h, k) + z(g, hk) and z(gh, k) + z(g, h) mod m, over the
        n^3 blocks (g, h, k), for the 2-cochain z."""
        gh_k, g_hk, g_h, twist, ones3 = self.law
        n2, mask = self.n * self.n, (modulus - 1) * ones3
        z_g_hk, z_gh_k, z_g_h = self.gather(z, n2, g_hk, gh_k, g_h)
        left = self.columns(z, n2)
        if weight & 1 and modulus != 2:
            left = _lane_mul(left, twist, n2 * self.n * self.cases, modulus)
        return left + z_g_hk & mask, z_gh_k + z_g_h & mask


def _case_major_to_lanes(joined: bytes, size: int) -> int:
    """The lanes of the batch whose cases' values, size bytes each, are
    joined case after case: byte p of case i goes to byte p*L + i."""
    return int.from_bytes(b"".join([joined[p::size] for p in range(size)]), "little")


def _new(cls, model: GaloisModel, modulus: int, weight: int, lanes: int, cases: int = 1):
    """A cochain from its lanes, unchecked."""
    c = object.__new__(cls)
    c.model = model
    c.modulus = modulus
    c.weight = weight
    c.lanes = lanes
    c.cases = cases
    return c


class _Cochain:
    """What Cochain1 and Cochain2 share.  A cochain stores its values as the
    byte lanes of one int, ``lanes``, at every modulus, for a batch of
    ``cases`` cases: case i's c(g) in byte g*L + i and z(g, h) in byte
    (g*n + h)*L + i (see _Lanes).  A cochain built from values is a batch
    of one; pack joins batches of one into a batch, and case reads one
    back; select, repeat and tile take a batch's cases into another, in
    C-level slices and joins whatever their number.  ``values`` reads a
    batch of one as tuples.  Two cochains are equal when their model,
    modulus, weight, cases and lanes are, and hash by their modulus,
    weight, cases and lanes.  No operation changes a cochain."""

    __slots__ = ("model", "modulus", "weight", "lanes", "cases")
    _degree = 1

    def __init__(self, model: GaloisModel, modulus: int, weight: int, values: Sequence[int]):
        _check_modulus(modulus)
        if len(values) != model.order**self._degree:
            raise ValueError("wrong number of values")
        if any([v % modulus != v for v in values]):
            raise ValueError("values not reduced")
        self.model, self.modulus, self.weight, self.cases = model, modulus, weight, 1
        self.lanes = int.from_bytes(bytes(values), "little")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.model, self.modulus, self.weight, self.cases, self.lanes) == (
            other.model, other.modulus, other.weight, other.cases, other.lanes
        )

    def __hash__(self):
        return hash((self.modulus, self.weight, self.cases, self.lanes))

    def __repr__(self):
        shown = f"values={self.values}" if self.cases == 1 else f"cases={self.cases}"
        return f"{type(self).__name__}(model={self.model.name!r}, modulus={self.modulus}, weight={self.weight}, {shown})"

    @classmethod
    def from_lanes(cls, model: GaloisModel, modulus: int, weight: int, lanes: int, cases: int = 1):
        """The batch of cases on model whose case i has value byte g*L + i
        of lanes at g (a Cochain1), or byte (g*n + h)*L + i at (g, h) (a
        Cochain2); each byte must be reduced mod modulus, which is not
        checked."""
        _check_modulus(modulus)
        return _new(cls, model, modulus, weight, lanes, cases)

    @classmethod
    def pack(cls, cochains: Sequence["_Cochain"]):
        """The batch whose case i is cochains[i], each a batch of one on one
        model, with one modulus and one weight: byte p of case i goes to
        byte p*L + i.  A batch needs at least one case."""
        if not cochains:
            raise ValueError(f"pack needs at least one {cls.__name__}")
        first = cochains[0]
        model, modulus, weight = first.model, first.modulus, first.weight
        if not all(
            type(c) is cls and c.model is model and c.modulus == modulus and c.weight == weight and c.cases == 1
            for c in cochains
        ):
            raise ValueError(f"pack needs {cls.__name__}s of one case, one model, modulus and weight")
        size = model.order**cls._degree
        lanes = _case_major_to_lanes(b"".join([c.lanes.to_bytes(size, "little") for c in cochains]), size)
        return _new(cls, model, modulus, weight, lanes, len(cochains))

    def _blocks(self) -> int:
        return self.model.order**self._degree

    def _bytes(self) -> bytes:
        return self.lanes.to_bytes(self._blocks() * self.cases, "little")

    def case(self, i: int):
        """Case i of the batch, as a batch of one."""
        if not 0 <= i < self.cases:
            raise IndexError(f"case {i} of a batch of {self.cases}")
        return self._with_lanes(int.from_bytes(self._bytes()[i :: self.cases], "little"), 1)

    def _with_lanes(self, lanes: int, cases: int):
        return _new(type(self), self.model, self.modulus, self.weight, lanes, cases)

    def select(self, indices: Sequence[int]):
        """The batch of the cases at indices, in their order: each case's
        values, one strided slice of the lanes, joined case after case and
        sliced back into blocks, as pack does.  An index outside 0..L - 1 is
        refused as case refuses it."""
        data, L = self._bytes(), self.cases
        if indices and not 0 <= min(indices) <= max(indices) < L:
            bad = min(indices) if min(indices) < 0 else max(indices)
            raise IndexError(f"case {bad} of a batch of {L}")
        joined = b"".join([data[i::L] for i in indices])
        return self._with_lanes(_case_major_to_lanes(joined, self._blocks()), len(indices))

    def repeat(self, counts: Sequence[int]):
        """The batch in which case i is repeated counts[i] times, in order; a
        count may be 0.  As select, with each case's values repeated as
        bytes."""
        L = self.cases
        if len(counts) != L or min(counts, default=0) < 0:
            raise ValueError(f"repeat needs a count of at least 0 for each of {L} cases")
        data = self._bytes()
        joined = b"".join([data[i::L] * k for i, k in enumerate(counts) if k])
        return self._with_lanes(_case_major_to_lanes(joined, self._blocks()), sum(counts))

    def tile(self, times: int):
        """The whole batch repeated times times: each block repeated as
        bytes."""
        if times < 0:
            raise ValueError(f"tile needs a count of at least 0, not {times}")
        data, L = self._bytes(), self.cases
        lanes = b"".join([data[p : p + L] * times for p in range(0, len(data), L)])
        return self._with_lanes(int.from_bytes(lanes, "little"), L * times)

    def nonzero_cases(self) -> list[int]:
        """The cases of the batch that are not zero, in order."""
        return self.model._lanes[self.cases].failing(self.lanes, self._blocks()) if self.lanes else []

    def differing_cases(self, other) -> list[int]:
        """The cases in which self and other, compatible batches, differ, in
        order: one xor of the lanes, folded."""
        _check_compatible(self, other)
        if self.lanes == other.lanes:
            return []
        return self.model._lanes[self.cases].failing(self.lanes ^ other.lanes, self._blocks())

    def is_zero(self) -> bool:
        return not self.lanes

    def __add__(self, other):
        _check_compatible(self, other)
        mask = self.model._lanes[self.cases].mask[self._degree][self.modulus]
        return _new(type(self), self.model, self.modulus, self.weight, self.lanes + other.lanes & mask, self.cases)

    def __neg__(self):
        # -z is z at modulus 2.
        if self.modulus == 2:
            return self
        lanes, m, d = self.model._lanes[self.cases], self.modulus, self._degree
        return _new(type(self), self.model, m, self.weight, lanes.base[d][m] - self.lanes & lanes.mask[d][m], self.cases)

    def __sub__(self, other):
        _check_compatible(self, other)
        lanes, m, d = self.model._lanes[self.cases], self.modulus, self._degree
        x = self.lanes + lanes.base[d][m] - other.lanes & lanes.mask[d][m]
        return _new(type(self), self.model, m, self.weight, x, self.cases)


class Cochain1(_Cochain):
    """Degree-1 cochain: values on G in Z/modulus, coefficients chi^weight."""

    __slots__ = ()

    @property
    def values(self) -> tuple[int, ...]:
        _single(self)
        return tuple(self._bytes())

    def pointwise_mul(self, other: "Cochain1") -> "Cochain1":
        """The product cochain (cd)(g) = c(g) d(g); weights add."""
        if self.model is not other.model or self.modulus != other.modulus:
            raise ValueError("pointwise product needs one model and one modulus")
        if self.cases != other.cases:
            raise ValueError(f"batch size mismatch {self.cases} != {other.cases}")
        mod, L = self.modulus, self.cases
        product = _lane_mul(self.lanes, other.lanes, self.model.order * L, mod)
        return _new(Cochain1, self.model, mod, self.weight + other.weight, product, L)

    def reduce2(self) -> "Cochain1":
        L = self.cases
        return _new(Cochain1, self.model, 2, self.weight, self.lanes & self.model._lanes[L].ones[1], L)

    def is_cocycle(self) -> bool:
        """Whether every case is a cocycle."""
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
        _single(self)
        n, flat = self.model.order, self._bytes()
        return tuple([tuple(flat[g : g + n]) for g in range(0, n * n, n)])

    def is_cocycle(self) -> bool:
        """D2 z = 0 in every case: chi(g)^w z(h, k) + z(g, hk) = z(gh, k) +
        z(g, h) for all g, h, k (see _Lanes.law); order above 16 is refused."""
        return not self.non_cocycle_cases()

    def non_cocycle_cases(self) -> list[int]:
        """The cases of the batch that break the 2-cocycle law, in order."""
        left, right = self.model._lanes[self.cases].law_sides(self.lanes, self.weight, self.modulus)
        if left == right:
            return []
        return self.model._lanes[self.cases].failing(left ^ right, self.model.order**3)


def _single(c) -> None:
    if c.cases != 1:
        raise ValueError(f"a batch of {c.cases} cases has no one tuple of values; read a case")


def _check_compatible(c, d) -> None:
    if c.model is not d.model:
        raise ValueError("cochains live on different models")
    if c.modulus != d.modulus:
        raise ValueError(f"modulus mismatch {c.modulus} != {d.modulus}")
    if c.weight != d.weight:
        raise ValueError(f"weight mismatch {c.weight} != {d.weight}")
    if c.cases != d.cases:
        raise ValueError(f"batch size mismatch {c.cases} != {d.cases}")


def zero1(model: GaloisModel, modulus: int, weight: int) -> Cochain1:
    _check_modulus(modulus)
    return _new(Cochain1, model, modulus, weight, 0)


def coboundary(c: Cochain1) -> Cochain2:
    """Dc(g,h) = c(g) + chi(g)^w c(h) - c(gh): c's rows, its columns
    twisted, and c read through the table."""
    L = c.cases
    dc = c.model._lanes[L].coboundary(c.lanes, c.weight, c.modulus)
    return _new(Cochain2, c.model, c.modulus, c.weight, dc, L)


def cup(c: Cochain1, d: Cochain1) -> Cochain2:
    """(c cup d)(g,h) = c(g) * chi(g)^{w_d} * d(h); weights add: the lane
    product of the twisted c's rows and d's columns."""
    if c.model is not d.model:
        raise ValueError("cup of cochains on different models")
    if c.modulus != d.modulus:
        raise ValueError(f"cup needs a common modulus, got {c.modulus} and {d.modulus}")
    if c.cases != d.cases:
        raise ValueError(f"batch size mismatch {c.cases} != {d.cases}")
    model, mod, u, L = c.model, c.modulus, c.lanes, c.cases
    lanes = model._lanes[L]
    # chi is odd, so chi(g)^{w_d} is 1 at modulus 2 and at an even w_d.
    if d.weight & 1 and mod != 2:
        u = _lane_mul(u, lanes.chi, lanes.n * L, mod)
    return _new(Cochain2, model, mod, c.weight + d.weight, lanes.outer(u, d.lanes, mod), L)


def binom2(c: Cochain1) -> Cochain1:
    """Pointwise profinite binomial coefficient (c choose 2), mod 4 -> mod 2:
    for v in 0..3 it is bit 1 of v."""
    if c.modulus != 4:
        raise ValueError("binom2 is defined on mod-4 cochains")
    L = c.cases
    return _new(Cochain1, c.model, 2, 2 * c.weight, c.lanes >> 1 & c.model._lanes[L].ones[1], L)


def chi_minus1_over2(model: GaloisModel, cases: int = 1) -> Cochain1:
    """The mod-2 cocycle (chi-1)/2, i.e. the Kummer class of -1, in every
    one of cases cases."""
    return _new(Cochain1, model, 2, 1, model._lanes[cases].rho, cases)


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


def delta3_closed_form(b: Cochain1, a: Cochain1, c: Cochain1, f: Cochain1) -> tuple[Cochain2, Cochain2]:
    """The two closed-form delta3 2-cochains for the lift (b,a)_c and f.

    Component along [[x,y],x]:  -(b + (chi-1)/2) cup c - (b choose 2) cup a
    Component along [[x,y],y]:  (a + (chi-1)/2) cup (ab - c)
                                + (a choose 2) cup b - f cup a
    All values mod 2.  b and a must be mod-4 twisted cocycles on one model,
    c a lift of them (a mod-2 cochain with Dc = -(b cup a), as
    lift_cochains gives) and f a mod-2 cocycle on that model (see check_f),
    all batches of one size; nothing but the size is checked again here.
    """
    rho = chi_minus1_over2(b.model, b.cases)
    b2, a2 = b.reduce2(), a.reduce2()
    comp_x = -cup(b2 + rho, c) - cup(binom2(b), a2)
    comp_y = cup(a2 + rho, a2.pointwise_mul(b2) - c) + cup(binom2(a), b2) - cup(f, a2)
    return comp_x, comp_y


def delta3_cocycle_direct(b: Cochain1, a: Cochain1, c: Cochain1, f: Cochain1) -> tuple[Cochain2, Cochain2]:
    """The boundary-of-section cocycles for delta3, written out directly.

    These are the raw normal-form coordinates of s(p(g)) g s(p(h)) s(p(gh))^-1
    and differ from the closed forms by explicit coboundaries (see verify):

        x(g, h) = c(g) b(h) + C(b(g) + 1, 2) a(h) + b(g) a(h) b(h) + r(g) c(h)
        y(g, h) = c(g) a(h) + b(g) C(chi(g) a(h) + 1, 2) + r(g) c(h) + f(g) a(h)

    mod 2, with r = (chi - 1)/2.  Each term is a row mask times a column
    mask.  C(b + 1, 2) = C(b, 2) + b, and C(chi a + 1, 2) is C(a, 2) where
    chi = 3 mod 4 and C(a, 2) + a where chi = 1 mod 4.  The inputs must be
    as delta3_closed_form asks; nothing but the batch size is checked here.
    """
    model, L = b.model, b.cases
    for x in (a, c, f):
        if x.cases != L:
            raise ValueError(f"batch size mismatch {x.cases} != {L}")
    lanes = model._lanes[L]

    def term(u, v):
        return lanes.outer(u, v, 2)

    r = lanes.rho
    b2, a2, c2 = b.reduce2().lanes, a.reduce2().lanes, c.lanes
    hb, ha = binom2(b).lanes, binom2(a).lanes
    # Each term is u(g) v(h) with u, v in 0, 1, so a sum mod 2 is an xor;
    # C(b + 1, 2) = C(b, 2) + b is hb ^ b2.
    x = term(c2, b2) ^ term(hb ^ b2, a2) ^ term(b2, a2 & b2) ^ term(r, c2)
    y = term(c2, a2) ^ term(b2, ha) ^ term(b2 & ~r, a2) ^ term(r, c2) ^ term(f.lanes, a2)
    return _new(Cochain2, model, 2, 3, x, L), _new(Cochain2, model, 2, 3, y, L)


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


def _solutions(targets: Cochain2) -> list[list[Cochain1]]:
    """For each case t of targets, every c with c(1) = 0 and Dc = target t,
    in itertools.product order of the values on the generators that fix it.
    The generators are picked greedily, the least element not yet reached
    joining them, until a walk from the identity by right multiplication
    reaches every element.  Case k*T + t of one batch is candidate k of
    target t, and each step is one lane op, c(gs) = c(g) + chi(g)^w c(s) +
    m - target(g, s), masked; one coboundary of the batch, compared with
    the targets repeated K times, keeps the solutions."""
    model, m, weight, T = targets.model, targets.modulus, targets.weight, targets.cases
    n, gens, reached, steps = model.order, [], [0], []
    while len(reached) < n:
        gens.append(min(set(model.elements()) - set(reached)))
        reached, steps = [0], []
        for g in reached:
            for s in gens:
                gs = model.mul(g, s)
                if gs not in reached:
                    reached.append(gs)
                    steps.append((gs, g, s))
    K = m ** len(gens)
    L, ones = K * T, _ones(K * T)
    # Generator j holds digit j of k, the first the most significant.
    values = [0] * n
    for j, s in enumerate(gens):
        run = m ** (len(gens) - 1 - j) * T
        values[s] = int.from_bytes(b"".join([bytes([v]) * run for v in range(m)]) * m**j, "little")
    target = targets._bytes()
    for gs, g, s in steps[len(gens):]:  # the identity's steps reach the generators
        t_gs = int.from_bytes(target[(g * n + s) * T : (g * n + s + 1) * T] * K, "little")
        values[gs] = values[g] + values[s] * pow(model.chi[g], weight, m) + m * ones - t_gs & (m - 1) * ones
    lanes = b"".join([v.to_bytes(L, "little") for v in values])
    c = _new(Cochain1, model, m, weight, int.from_bytes(lanes, "little"), L)
    repeated = int.from_bytes(b"".join([target[p : p + T] * K for p in range(0, n * n * T, T)]), "little")
    wrong = set(coboundary(c).differing_cases(_new(Cochain2, model, m, weight, repeated, L)))
    solutions = [[i for i in range(t, L, T) if i not in wrong] for t in range(T)]
    return [[_new(Cochain1, model, m, weight, int.from_bytes(lanes[i::L], "little")) for i in ok] for ok in solutions]


def all_twisted_cocycles(model: GaloisModel, modulus: int, weight: int = 1) -> list[Cochain1]:
    """All cocycles c(gh) = c(g) + chi(g)^w c(h): the solutions of Dc = 0,
    in itertools.product order of their generator values."""
    _check_modulus(modulus)
    return _solutions(_new(Cochain2, model, modulus, weight, 0))[0]


def lifts_by_case(b: Cochain1, a: Cochain1) -> list[list[Cochain1]]:
    """For each case i of the batches b and a, in one solve, all lifts
    (b_i, a_i)_c: the mod-2 cochains c on b's model, of weight b.weight +
    a.weight, with Dc = -(b_i cup a_i) mod 2, sorted by their values."""
    return [sorted(lifts, key=lambda c: c.values) for lifts in _solutions(-cup(b.reduce2(), a.reduce2()))]


def lift_cochains(b: Cochain1, a: Cochain1) -> list[Cochain1]:
    """The lifts of lifts_by_case for b and a, each a batch of one."""
    _single(b)
    return lifts_by_case(b, a)[0]


def f_homs(model: GaloisModel) -> list[Cochain1]:
    """All admissible f cochains: mod-2 cocycles of weight 2 (= homs G -> Z/2)."""
    return all_twisted_cocycles(model, 2, weight=2)

