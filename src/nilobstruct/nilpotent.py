"""Free-nilpotent-group engine on generators x, y.

An element of a class-3 quotient is the exponent vector (a, b, c, d, e) of
its normal form

    y^a x^b [x,y]^c [[x,y],x]^d [[x,y],y]^e

reduced by the per-coordinate moduli of a QuotientSpec.  Multiplication is by
collection: the generator switch law

    x^b y^a = y^a x^b [x,y]^{ab} [[x,y],y]^{b C(a+1,2)} [[x,y],x]^{a C(b+1,2)}

plus centrality of the degree-3 letters and the commutation of [x,y] with x
and y up to degree-3 corrections.  Cross terms are computed in exact integer
arithmetic from the canonical representatives: the kernels mul_vec, inv_vec
and act_vec work over the integers, and a caller reduces their output into a
quotient with _reduce(v, spec.moduli).  They are the exact layer and the
tests' reference; a verify pass calls them only for the exact commutator
law and the inverses check.

Every product and action formed in bulk runs on byte lanes: a batch of
exponent vectors is five bytes, one per exponent, byte i of each holding
vector i's exponent, and mul_lanes and act_lanes return a batch's reduced
products or images in a few dozen big-int operations and bytes.translate
calls, whatever its size.  A verify pass forms its bulk products and
actions as such batches, TOWER4's table among them.

TOWER4's multiplication table and its Galois actions, on element indices,
live here too: built whole on first use, as one batch of all 128^2
products and one of all 1024 images, and kept for the process with what is
derived from the table, its rows padded to translate tables and the two
sub-tables of tower4_products.  That kernel reads a batch of TOWER4
products on index lanes in two translates and a few big-int operations;
the section boundary reads its products by it, and the nilpotent suite
reads the tables and certifies them against the Magnus oracle.

The Magnus embedding x -> 1 + X, y -> 1 + Y into noncommutative power series
truncated in degree 3 provides an independent oracle: collection products are
required to agree with embed/series-multiply/extract round trips.  A series is
the tuple of its coefficients on _WORDS, the nine words the extraction reads
and the words below them, and a quotient's series arithmetic is exact mod
its magnus_modulus.  The oracle runs on byte lanes too: each coefficient
of a batch series is one int holding every vector's coefficient in its own
byte, so _embed_lanes, _seriesmul_lanes and _extract_lanes, like the
collection kernels, take a few dozen big-int operations per batch.  Both
sides' lane products and masks are cohomology's, the ones the cochain
engine uses, and the tests check each lane kernel against its scalar
reference.  QuotientSpec and Tower4Tables, NamedTuples, are the engine's
records.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Sequence
from typing import NamedTuple

from .cohomology import _MUL, Cochain1, Cochain2, GaloisModel, InvalidCocycleError, _lane_mul, _ones


class QuotientSpec(NamedTuple):
    """Which class-3 quotient the exponent vector lives in: its name, the
    moduli of (a, b, c, d, e) and the modulus its Magnus series are kept mod.

    TOWER3 is the mod-2 tower level 3 (a, b mod 4; c mod 2; no degree-3
    letters), TOWER4 its one-step extension with d, e mod 2, and FULL4(m)
    carries all five exponents mod m.  TOWER3/TOWER4 are genuine finite
    groups; FULL4(m) for even m is an exponent-vector container whose
    products are only compared representative-wise against the Magnus
    oracle (coordinate-wise reduction mod even m is not a group congruence).
    The Magnus modulus is the smallest power of 2 whose series arithmetic
    projects exactly to the quotient.
    """

    name: str
    moduli: tuple[int, int, int, int, int]
    magnus_modulus: int

    @property
    def order(self) -> int:
        ma, mb, mc, md, me = self.moduli
        return ma * mb * mc * md * me

    def __str__(self) -> str:
        return self.name


TOWER3 = QuotientSpec("TOWER3", (4, 4, 2, 1, 1), 4)
TOWER4 = QuotientSpec("TOWER4", (4, 4, 2, 2, 2), 4)


def full4(m: int) -> QuotientSpec:
    if not isinstance(m, int) or m < 2:
        raise ValueError("FULL4 modulus must be an int of at least 2")
    return QuotientSpec(f"FULL4({m})", (m,) * 5, 1 << (2 * m - 1).bit_length())


Vec = tuple[int, int, int, int, int]


def mul_vec(u: Vec, v: Vec) -> Vec:
    """Collection product of exponent vectors over the integers.

    This is the exact arithmetic of the free class-3 nilpotent group on x, y;
    identities stated over profinite exponents are tested at this layer,
    before any modular reduction.
    """
    a1, b1, c1, d1, e1 = u
    a2, b2, c2, d2, e2 = v
    # C(n + 1, 2) = n(n + 1) / 2 is written out: n(n + 1) is even, so the
    # shift is exact for negative n too.
    return (
        a1 + a2,
        b1 + b2,
        c1 + c2 + b1 * a2,
        d1 + d2 + c1 * b2 + a2 * (b1 * (b1 + 1) >> 1) + b1 * a2 * b2,
        e1 + e2 + c1 * a2 + b1 * (a2 * (a2 + 1) >> 1),
    )


def inv_vec(u: Vec) -> Vec:
    """Integer inverse: solve the triangular system mul(u, v) = 0."""
    a, b, c, d, e = u
    # mul_vec's formulas with (a2, b2) = (-a, -b), solved for c2, d2, e2;
    # C(1 - a, 2) = a(a - 1) / 2.
    return (
        -a,
        -b,
        b * a - c,
        c * b + a * (b * (b + 1) >> 1) - a * b * b - d,
        c * a - b * (a * (a - 1) >> 1) - e,
    )


def act_vec(u: Vec, chi: int, f: int) -> Vec:
    """Galois action: x -> x^chi, y -> y^chi [[x,y],y]^{-f chi}, over Z.

    chi is odd (it comes from a GaloisModel); mod 8 it determines the action
    on the towers.  Actions compose by the cocycle law: act(chi', f') first
    and act(chi, f) second is act(chi*chi', f + chi^2 * f').
    """
    a, b, c, d, e = u
    chi2 = chi * chi
    chi3 = chi2 * chi
    # The correction (chi - 1)/2 chi^2 c that d and e share.
    rc = (chi - 1) // 2 * chi2 * c
    return (chi * a, chi * b, chi2 * c, chi3 * d - rc, chi3 * e - rc - f * chi * a)


def _reduce(u: Vec, moduli: Vec) -> Vec:
    a, b, c, d, e = u
    ma, mb, mc, md, me = moduli
    return (a % ma, b % mb, c % mc, d % md, e % me)


def all_elements(spec: QuotientSpec) -> list[Vec]:
    """Every reduced exponent vector of spec, in lexicographic order."""
    return list(itertools.product(*map(range, spec.moduli)))


# ---------------------------------------------------------------------------
# Collection on byte lanes
# ---------------------------------------------------------------------------

# A batch of N exponent vectors is five bytes of length N, one per exponent:
# byte i of each is an exponent of vector i, its lane.  The lane kernels
# below and the Magnus oracle's compute mod a power of 2 m of at most 16, a
# modulus of cohomology's lane-product table _MUL, so a lane sum of a few
# residues stays below 256, with no carry into the next lane, a mask takes
# it mod m or mod any divisor of m, and a lane product is one _lane_mul.  A
# difference adds m first, so no lane borrows.
#
# Per m: C(n, 2), C(n + 1, 2) and (n - 1) // 2 of a byte n, mod m, each read
# from the raw byte, since it depends on n mod 2m.
_BINOM = {m: bytes([(n * (n - 1) >> 1) % m for n in range(256)]) for m in _MUL}
_BINOM_UP = {m: bytes([(n * (n + 1) >> 1) % m for n in range(256)]) for m in _MUL}
_HALF = {m: bytes([(n - 1) // 2 % m for n in range(256)]) for m in _MUL}


def _ints(lanes: bytes) -> int:
    return int.from_bytes(lanes, "little")


def _collection_modulus(spec: QuotientSpec) -> int:
    """The modulus m the lane kernels compute spec's products in: its
    largest modulus, which must be in _MUL and a multiple of the others, so
    that every reduction into spec is a mask.  Any other spec is refused,
    since its lanes would wrap."""
    m = max(spec.moduli)
    if m not in _MUL or any(m % q for q in spec.moduli):
        raise ValueError(f"{spec} has moduli {spec.moduli}: byte lanes need powers of 2 up to 16")
    return m


def _masked(spec: QuotientSpec, lanes: Sequence[int], n: int) -> tuple[bytes, ...]:
    """The five lane ints of n lanes, each below 256, reduced into spec's
    moduli by masks."""
    ones = _ones(n)
    return tuple((x & (q - 1) * ones).to_bytes(n, "little") for x, q in zip(lanes, spec.moduli))


def mul_lanes(spec: QuotientSpec, g: Sequence[bytes], h: Sequence[bytes]) -> tuple[bytes, ...]:
    """The collection products of two batches of exponent lanes, reduced
    into spec: lane i is _reduce(mul_vec(g_i, h_i), spec.moduli), for
    exponents of any byte value.  mul_vec's formulas mod m, with C(b1 + 1,
    2) and C(a2 + 1, 2) read from the raw bytes of b1 and a2."""
    m = _collection_modulus(spec)
    n = len(g[0])
    low = (m - 1) * _ones(n)
    a1, b1, c1, d1, e1 = (_ints(x) & low for x in g)
    a2, b2, c2, d2, e2 = (_ints(x) & low for x in h)
    b1_up = _ints(g[1].translate(_BINOM_UP[m]))
    a2_up = _ints(h[0].translate(_BINOM_UP[m]))
    b1a2 = _lane_mul(b1, a2, n, m)
    return _masked(spec, (
        a1 + a2,
        b1 + b2,
        c1 + c2 + b1a2,
        d1 + d2 + _lane_mul(c1, b2, n, m) + _lane_mul(a2, b1_up, n, m) + _lane_mul(b1a2, b2, n, m),
        e1 + e2 + _lane_mul(c1, a2, n, m) + _lane_mul(b1, a2_up, n, m),
    ), n)


def act_lanes(spec: QuotientSpec, g: Sequence[bytes], chi: bytes, f: bytes) -> tuple[bytes, ...]:
    """The Galois action on a batch of exponent lanes, reduced into spec:
    lane i is _reduce(act_vec(g_i, chi_i, f_i), spec.moduli), with chi and f
    lanes too, every value any byte.  act_vec's formulas mod m, with
    (chi - 1) // 2 read from the raw byte of chi."""
    m = _collection_modulus(spec)
    n = len(g[0])
    ones = _ones(n)
    low, up = (m - 1) * ones, m * ones
    a, b, c, d, e = (_ints(x) & low for x in g)
    x = _ints(chi) & low
    x2 = _lane_mul(x, x, n, m)
    x3 = _lane_mul(x2, x, n, m)
    rc = _lane_mul(_lane_mul(_ints(chi.translate(_HALF[m])), x2, n, m), c, n, m)
    xa = _lane_mul(x, a, n, m)
    return _masked(spec, (
        xa,
        _lane_mul(x, b, n, m),
        _lane_mul(x2, c, n, m),
        _lane_mul(x3, d, n, m) + up - rc,
        _lane_mul(x3, e, n, m) + up - rc + up - _lane_mul(_ints(f) & low, xa, n, m),
    ), n)


# ---------------------------------------------------------------------------
# TOWER4's tables
# ---------------------------------------------------------------------------

# TOWER4 has 128 elements, so an element's index fits in a byte and a row
# of a table is one 128-byte bytes object.  The index of (a, b, c, d, e) is
# its position in all_elements(TOWER4), a*32 + b*8 + c*4 + d*2 + e.
TOWER4_ELEMENTS = tuple(all_elements(TOWER4))


class Tower4Tables(NamedTuple):
    """TOWER4's multiplication table and Galois actions on element indices,
    with what is derived from the table.

    Row i of rows is a 128-byte bytes whose byte j is the index of the
    product of elements i and j; actions[chi, f], for chi in 1, 3, 5, 7 and
    f in 0, 1, in that order, has at byte i the index of element i's image.
    through[i] is row i padded to 256 bytes, a bytes.translate table that
    reads it, and halves the two sub-tables tower4_products reads."""

    rows: Sequence[bytes]
    actions: dict[tuple[int, int], bytes]
    through: list[bytes]
    halves: tuple[bytes, bytes]


def tower4_tables_from(rows: Sequence[bytes], actions: dict[tuple[int, int], bytes]) -> Tower4Tables:
    """The tables with these rows and actions, and what is derived from the
    rows: each padded to 256 bytes, and the halves S_0, S_1, where S_c at
    (a1, b1) << 4 | (a2, b2) is the index of the product of (a1, b1, c, 0,
    0) and (a2, b2, 0, 0, 0)."""
    halves = tuple(bytes([rows[k >> 4 << 3 | c << 2][(k & 15) << 3] for k in range(256)]) for c in (0, 1))
    return Tower4Tables(rows, actions, [_through(row) for row in rows], halves)


# The memo of tower4_tables(): None until its first call, then the tables,
# kept for the process.
_TOWER4_TABLES: Tower4Tables | None = None


def tower4_index(v: Vec) -> int:
    """The index of v reduced into TOWER4, for any integer exponents.

    TOWER4's moduli are powers of 2, so each reduction is a mask."""
    a, b, c, d, e = v
    return (a & 3) << 5 | (b & 3) << 3 | (c & 1) << 2 | (d & 1) << 1 | e & 1


def _tower4_indices(v: Sequence[bytes]) -> bytes:
    """tower4_index of each lane of the exponent lanes v, any byte values."""
    n = len(v[0])
    ones = _ones(n)
    a, b, c, d, e = map(_ints, v)
    index = (a & 3 * ones) << 5 | (b & 3 * ones) << 3 | (c & ones) << 2 | (d & ones) << 1 | e & ones
    return index.to_bytes(n, "little")


def tower4_tables() -> Tower4Tables:
    """TOWER4's tables, built whole on the first call and kept for the
    process: all 128^2 products are one mul_lanes batch and all 8 * 128
    images one act_lanes batch, and the action of (chi, f) mod TOWER4
    depends on chi only mod 8."""
    global _TOWER4_TABLES
    if _TOWER4_TABLES is None:
        n = len(TOWER4_ELEMENTS)
        keys = list(itertools.product((1, 3, 5, 7), (0, 1)))
        exponents = [_through(bytes(column)) for column in zip(*TOWER4_ELEMENTS)]

        def batch(indices):
            """The exponent lanes of the elements at indices."""
            return [indices.translate(x) for x in exponents]

        every = bytes(range(n))
        products = _tower4_indices(mul_lanes(TOWER4, batch(b"".join([bytes([i]) * n for i in every])), batch(every * n)))
        chi, f = (b"".join([bytes([key[k]]) * n for key in keys]) for k in (0, 1))
        images = _tower4_indices(act_lanes(TOWER4, batch(every * len(keys)), chi, f))
        _TOWER4_TABLES = tower4_tables_from(
            [products[i * n : (i + 1) * n] for i in range(n)],
            {key: images[k * n : (k + 1) * n] for k, key in enumerate(keys)},
        )
    return _TOWER4_TABLES


def tower4_products(tables: Tower4Tables, i: bytes, j: bytes) -> bytes:
    """Byte k is the index of the product of elements i[k] and j[k] of
    TOWER4, rows[i[k]][j[k]], for indices below 128.

    (0, 0, 0, d, e) is central in TOWER4, right multiplication by (0, 0, c,
    d, e) only adds c, d and e, and TOWER4 keeps c, d and e mod 2, so

        rows[i][j] = rows[i & 0xFC][j & 0xF8] ^ (i & 3) ^ (j & 7):

    the product of (a1, b1, c1, 0, 0) and (a2, b2, 0, 0, 0), with i's d, e
    and j's c, d, e xored into its bits.  That product is halves[c1] at
    (a1, b1) << 4 | (a2, b2), so every lane is read by two translates of
    those bytes, one picked per lane by c1, and a few big-int operations."""
    n = len(i)
    ones = _ones(n)
    x, y = _ints(i), _ints(j)
    ab = ((x & 0x78 * ones) << 1 | y >> 3 & 0x0F * ones).to_bytes(n, "little")
    s0, s1 = (_ints(ab.translate(half)) for half in tables.halves)
    c1 = (x >> 2 & ones) * 0xFF
    return ((s0 ^ (s0 ^ s1) & c1) ^ (x & 3 * ones) ^ (y & 7 * ones)).to_bytes(n, "little")


def _through(row: bytes) -> bytes:
    """A bytes.translate table that reads row at each index: row padded to
    256 bytes.  Every index into row is below its length, so no index
    reaches the padding."""
    return row.ljust(256, b"\0")


def _lookup(rows: Sequence[bytes], i: bytes, j: bytes) -> bytes:
    """Byte k is rows[i[k]][j[k]], for rows of at most 256 bytes: one map
    over 2-byte lanes, each holding (i[k], j[k]), through the rows joined,
    each padded to 256 bytes."""
    joined = b"".join(map(_through, rows))
    lanes = bytearray(2 * len(i))
    low = 0 if sys.byteorder == "little" else 1
    lanes[low::2], lanes[1 - low :: 2] = j, i
    return bytes(map(joined.__getitem__, memoryview(lanes).cast("H")))


# ---------------------------------------------------------------------------
# Magnus series oracle on byte lanes
# ---------------------------------------------------------------------------

# The words of degree <= 3 that _extract_lanes reads, and the ones below them.
# The other six cubic words span an ideal of the series truncated in degree
# 3, so dropping them is an algebra map: a product's coefficients on these
# nine words depend only on its factors' coefficients on them.
_WORDS = ("", "X", "Y", "XX", "XY", "YX", "YY", "XXY", "YYX")

# A batch series is the tuple of its coefficients on _WORDS[1:], each an
# int whose byte i is lane i's coefficient mod the Magnus modulus m, a
# modulus of _MUL; the constant term is 1 in every lane, since every series
# here is a group element's.


def _magnus_modulus(spec: QuotientSpec) -> int:
    """spec's Magnus modulus m; one that _MUL does not hold is refused,
    since its lanes would wrap."""
    m = spec.magnus_modulus
    if m not in _MUL:
        raise ValueError(f"{spec} has Magnus modulus {m}: byte lanes need a power of 2 up to 16")
    return m


# n mod q of a byte n, per modulus q of a spec, built on first use.
_MOD_TABLES: dict[int, bytes] = {}


def _mod_table(q: int) -> bytes:
    table = _MOD_TABLES.get(q)
    if table is None:
        table = _MOD_TABLES[q] = bytes([n % q for n in range(256)])
    return table


def _embed_lanes(spec: QuotientSpec, v: Sequence[bytes]) -> tuple[int, ...]:
    """The batch series of the exponent lanes v = (a, b, c, d, e): lane i is
    the series of y^a x^b [x,y]^c [[x,y],x]^d [[x,y],y]^e for lane i's
    exponents, any byte values, with its coefficients mod spec's Magnus
    modulus.

    The head (1 + Y)^a (1 + X)^b has the coefficient C(a, i) C(b, j) on
    Y^i X^j.  A commutator series is 1 + (degree >= 2 tail), so its n-th
    power is 1 + n * tail up to degree 3, and the product of the three
    commutator powers is 1 + c*Z + d*W1 + e*W2 with Z, W1, W2 the tails of
    [x,y], [[x,y],x] and [[x,y],y]: Z is XY - YX and has no XXY or YYX, W1
    is -1 on XXY and 0 on YYX, W2 is 0 on XXY and +1 on YYX (the tests
    derive these from the commutator series).  Times the head, the only
    product of degree <= 3 left is the head's degree-1 part bX + aY times
    c(XY - YX).  So XXY has bc - d, and YYX C(a, 2) b - ac + e.
    """
    m = _magnus_modulus(spec)
    n = len(v[0])
    ones = _ones(n)
    low, up = (m - 1) * ones, m * ones
    a, b, c, d, e = (_ints(x) & low for x in v)
    yy, xx = _ints(v[0].translate(_BINOM[m])), _ints(v[1].translate(_BINOM[m]))
    return (
        b,
        a,
        xx,
        c,
        (_lane_mul(a, b, n, m) + up - c) & low,
        yy,
        (_lane_mul(b, c, n, m) + up - d) & low,
        (_lane_mul(yy, b, n, m) + up - _lane_mul(a, c, n, m) + e) & low,
    )


def _seriesmul_lanes(spec: QuotientSpec, s: Sequence[int], t: Sequence[int], n: int) -> tuple[int, ...]:
    """The lane-wise product of the batch series s and t of n lanes, mod
    spec's Magnus modulus: on each word w, the sum of s[u] t[v] over the
    splits w = uv, with constant terms 1."""
    m = _magnus_modulus(spec)
    low = (m - 1) * _ones(n)
    sx, sy, sxx, sxy, syx, syy, sxxy, syyx = s
    tx, ty, txx, txy, tyx, tyy, txxy, tyyx = t

    def mul(x, y):
        return _lane_mul(x, y, n, m)

    return (
        (sx + tx) & low,
        (sy + ty) & low,
        (sxx + mul(sx, tx) + txx) & low,
        (sxy + mul(sx, ty) + txy) & low,
        (syx + mul(sy, tx) + tyx) & low,
        (syy + mul(sy, ty) + tyy) & low,
        (sxxy + mul(sx, txy) + mul(sxx, ty) + txxy) & low,
        (syyx + mul(sy, tyx) + mul(syy, tx) + tyyx) & low,
    )


def _extract_lanes(spec: QuotientSpec, s: Sequence[int], n: int) -> tuple[bytes, ...]:
    """The exponent lanes of the batch series s of n group elements,
    reduced into spec.

    a, b, c are the coefficients of Y, X and XY.  d and e are read from the
    words XXY and YYX: by _embed_lanes

        s[XXY] = bc - d,    s[YYX] = C(a, 2) b - ac + e,    s[YX] = ab - c,

    and d = bc - s[XXY], e = s[YYX] - a s[YX] + b C(a + 1, 2), because
    C(a, 2) - a^2 + C(a + 1, 2) = 0.  Each is taken mod the Magnus modulus
    first, like the coefficients it comes from, and only then into spec:
    for FULL4(3) and FULL4(6) that modulus (8, 16) is no multiple of 3 or
    6, so reducing straight into spec would give another residue.
    """
    m = _magnus_modulus(spec)
    ones = _ones(n)
    low, up = (m - 1) * ones, m * ones
    b, a, _, c, yx, _, xxy, yyx = s
    a_up = _ints(a.to_bytes(n, "little").translate(_BINOM_UP[m]))
    d = (_lane_mul(b, c, n, m) + up - xxy) & low
    e = (yyx + up - _lane_mul(a, yx, n, m) + _lane_mul(b, a_up, n, m)) & low
    return tuple(
        x.to_bytes(n, "little").translate(_mod_table(q)) for x, q in zip((a, b, c, d, e), spec.moduli)
    )


def magnus_lanes(spec: QuotientSpec, g: Sequence[bytes], h: Sequence[bytes]) -> tuple[bytes, ...]:
    """The Magnus products of two batches of exponent lanes: lane i is the
    extraction of the series product of the embeddings of lane i of g and
    of h, reduced into spec."""
    n = len(g[0])
    product = _seriesmul_lanes(spec, _embed_lanes(spec, g), _embed_lanes(spec, h), n)
    return _extract_lanes(spec, product, n)


# ---------------------------------------------------------------------------
# Boundary of the set-theoretic section: the delta_n representing cochains
# ---------------------------------------------------------------------------

# bytes.translate tables on TOWER4 indices: _HEAD[w] keeps the first w
# exponents of an index and clears the others, and _BIT[k] is bit k of an
# index (e, d, c for k = 0, 1, 2) as the byte 0 or 1.
_HEAD = {2: bytes([i & 0xF8 for i in range(256)]), 3: bytes([i & 0xFC for i in range(256)])}
_BIT = tuple(bytes([i >> k & 1 for i in range(256)]) for k in range(3))


def boundary_of_section(
    model: GaloisModel, p: Sequence[tuple[int, ...]], f: Cochain1 | None = None, cases: int = 1
) -> tuple[Cochain2] | tuple[Cochain2, Cochain2]:
    """Extract the kernel coordinates of (g,h) -> s(p(g)) g(s(p(h))) s(p(gh))^-1.

    The level n of the section is the width of its values.  For n = 2, p
    lists pairs (a, b) mod 4 per group element (a twisted cocycle into the
    abelianization) and the output is the one-tuple of the [x,y]-coordinate
    mod 2.  For n = 3, p lists triples (a, b, c) forming a cocycle into the
    level-3 tower group and the output is the pair of degree-3 coordinates
    mod 2.  The Galois action uses chi mod 8 and the mod-2 cocycle f on the
    model, the same cochains the delta3 formulas take; None means f = 0.
    f must be a mod-2 cocycle on model (see cohomology.check_f); it is not
    checked here.  The level-2 boundary does not depend on f (act_vec
    moves only e by f), so level 2 reads no f.  The section is checked: a
    p whose values are not all pairs or all triples, or that breaks the
    cocycle law read off the same products in some case, is refused with
    an InvalidCocycleError naming the first such case and its first
    (g, h).  Every product is read from TOWER4's tables, on indices: the
    acted section by one translate per (chi mod 8, f) that occurs, and the
    products s(p(g)) g(s(p(h))) of every (g, h, case) by one
    tower4_products call.

    The section is a batch of L = cases sections, as the cochains of
    cohomology are: each value of p is an int whose byte i is case i's
    value, f a batch of L (any other size is refused with a ValueError),
    and each output cochain a batch of L.  A single section is the batch
    of one, whose values may be any integers; in a batch a value may be any
    byte.  Only the residues mod TOWER4's moduli matter.
    """
    if len(p) != model.order:
        raise InvalidCocycleError("cocycle must assign a value to every element")
    width = len(p[0])
    if width not in (2, 3) or any(len(t) != width for t in p):
        raise InvalidCocycleError("section values must be all pairs or all triples")
    n, L = model.order, cases
    ones = _ones(L)
    lane = 0xFF * ones
    if f is not None and f.cases != L:
        raise ValueError(f"batch size mismatch {f.cases} != {L}")
    f_values = 0 if f is None or width == 2 else f.lanes

    # The section as TOWER4 indices, a, b and c masked lane by lane to
    # TOWER4's moduli: block g holds s(p(g)) of every case, and the section
    # is the blocks joined, at byte h*L + i.
    blocks = []
    for t in p:
        index = (t[0] & 3 * ones) << 5 | (t[1] & 3 * ones) << 3
        if width == 3:
            index |= (t[2] & ones) << 2
        blocks.append(index.to_bytes(L, "little"))
    sect = b"".join(blocks)

    # The acted section g(s(p(h))) depends on g only through (chi(g) mod 8,
    # f(g)), so it is one translate of the section per such pair that
    # occurs; where f(g) differs between cases, each case's lanes are taken
    # from its f(g)'s translate.  Row g of acted_rows, byte (g*n + h)*L + i,
    # holds g(s(p(h))) in case i.
    tables = tower4_tables()
    acted = {}

    def act(key):
        if key not in acted:
            acted[key] = sect.translate(_through(tables.actions[key]))
        return acted[key]

    acted_rows = []
    for g, chi in enumerate(model.chi):
        f_g = f_values >> 8 * L * g & lane
        if f_g in (0, ones):
            acted_rows.append(act((chi % 8, f_g & 1)))
            continue
        take = int.from_bytes(f_g.to_bytes(L, "little") * n, "little") * 0xFF
        zero, one = (int.from_bytes(act((chi % 8, f_bit)), "little") for f_bit in (0, 1))
        acted_rows.append((zero & ~take | one & take).to_bytes(n * L, "little"))

    # Each product s(p(g)) g(s(p(h))) is read from the table in one
    # tower4_products: at byte (g*n + h)*L + i, s(p(g)) in case i, block g
    # repeated for every h, times the acted index.  tower4_products reads
    # only the table's halves and builds the rest by its law; that is exact
    # because the nilpotent suite certifies every entry of the table against
    # the Magnus oracle, not because this read checks it.
    row_of = b"".join([block * n for block in blocks])
    products = tower4_products(tables, row_of, b"".join(acted_rows))
    # Cocycle validation happens at the level the section covers: the head
    # of s(p(g)) g(s(p(h))) must be s(p(gh)), which is 0 past its head.
    # act_vec moves only e by f, so f does not change the verdict.  Only a
    # mismatch walks the lanes, to name the first bad case and its first
    # (g, h).
    got = products.translate(_HEAD[width])
    want = b"".join([blocks[gh] for row in model.table for gh in row])
    if got != want:
        case, at = min((j % L, j // L) for j, (x, y) in enumerate(zip(got, want)) if x != y)
        where = f" in case {case}" if L > 1 else ""
        raise InvalidCocycleError(f"not a 1-cocycle at {divmod(at, n)}{where}")

    # The boundary is z = got s(p(gh))^-1, so got = z s(p(gh)), and the
    # section is 0 past the head.  At level 3, z holds only the central
    # degree-3 letters, so got = s(p(gh)) z carries z's d and e.  At level
    # 2, z is [x,y]^c times degree-3 letters, and moving it past s(p(gh))
    # changes only d and e, so got carries z's c.  TOWER4 keeps c, d and e
    # mod 2, so each is one bit of the index, and each product's byte is
    # z(g, h) of its case, translated to its bit.
    def cochain(weight, bit, z):
        return Cochain2.from_lanes(model, 2, weight, int.from_bytes(z.translate(_BIT[bit]), "little"), L)

    if width == 2:
        return (cochain(2, 2, products),)
    return cochain(3, 1, products), cochain(3, 0, products)
