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
quotient with _reduce(v, spec.moduli).  These kernels and _reduce are
straight-line code with no helper calls (C(n + 1, 2) is written
n(n + 1) >> 1), since one verify pass calls them about 3.6 * 10^4 times,
and the first pass of a process, which builds TOWER4's tables,
5.4 * 10^4 times.

TOWER4's multiplication table and its Galois actions, on element indices,
live here too: each row and each action is built from the kernels on first
use and kept for the process, the section boundary reads them, and the
nilpotent suite reads them all and certifies them against the Magnus oracle.

The Magnus embedding x -> 1 + X, y -> 1 + Y into noncommutative power series
truncated in degree 3 provides an independent oracle: collection products are
required to agree with embed/series-multiply/extract round trips.  A series is
the tuple of its coefficients on _WORDS, the nine words the extraction reads
and the words below them, and a quotient's series arithmetic is exact mod
its magnus_modulus.  The oracle runs on byte lanes: a batch of exponent
vectors is five bytes, one per exponent, and each coefficient of a batch
series is one int holding every vector's coefficient in its own byte, so
_embed_lanes, _seriesmul_lanes and _extract_lanes take a few dozen big-int
operations and bytes.translate calls per batch, whatever its size.  The
exact integer product _seriesmul_vec derives the commutator series at
import.  QuotientSpec, a NamedTuple, is the engine's one record.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Sequence
from typing import NamedTuple

from .cohomology import Cochain1, Cochain2, GaloisModel, InvalidCocycleError


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


def _binom2(n: int) -> int:
    return n * (n - 1) // 2


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
# TOWER4's tables
# ---------------------------------------------------------------------------

# TOWER4 has 128 elements, so an element's index fits in a byte and a row
# of a table is one 128-byte bytes object.  The index of (a, b, c, d, e) is
# its position in all_elements(TOWER4), a*32 + b*8 + c*4 + d*2 + e.
TOWER4_ELEMENTS = tuple(all_elements(TOWER4))

# The memos: row i of the multiplication table, and the action of each
# (chi mod 8, f).  Each is built on first use and kept for the process, so
# a pass that needs a few rows builds only those.
_TOWER4_ROWS: list[bytes | None] = [None] * len(TOWER4_ELEMENTS)
_TOWER4_ACTIONS: dict[tuple[int, int], bytes] = {}


def tower4_index(v: Vec) -> int:
    """The index of v reduced into TOWER4, for any integer exponents.

    TOWER4's moduli are powers of 2, so each reduction is a mask."""
    a, b, c, d, e = v
    return (a & 3) << 5 | (b & 3) << 3 | (c & 1) << 2 | (d & 1) << 1 | e & 1


def tower4_row(i: int) -> bytes:
    """Row i of TOWER4's multiplication table: byte j is the index of the
    reduced mul_vec product of elements i and j."""
    row = _TOWER4_ROWS[i]
    if row is None:
        g = TOWER4_ELEMENTS[i]
        row = _TOWER4_ROWS[i] = bytes([tower4_index(mul_vec(g, h)) for h in TOWER4_ELEMENTS])
    return row


def tower4_action(chi: int, f: int) -> bytes:
    """The action of (chi, f) on TOWER4, f 0 or 1: byte i is the index of
    the reduced act_vec image of element i.  Mod TOWER4 it depends on chi
    only mod 8."""
    key = (chi % 8, f)
    action = _TOWER4_ACTIONS.get(key)
    if action is None:
        action = _TOWER4_ACTIONS[key] = bytes([tower4_index(act_vec(g, *key)) for g in TOWER4_ELEMENTS])
    return action


def tower4_tables() -> tuple[list[bytes], dict[tuple[int, int], bytes]]:
    """Every row of TOWER4's multiplication table, and the action of every
    (chi, f) for chi in 1, 3, 5, 7 and f in 0, 1, in that order; what is not
    built yet is built now."""
    rows = [tower4_row(i) for i in range(len(TOWER4_ELEMENTS))]
    return rows, {key: tower4_action(*key) for key in itertools.product((1, 3, 5, 7), (0, 1))}


def _through(row: bytes) -> bytes:
    """A bytes.translate table that reads row at each index: row padded to
    256 bytes.  Every index into row is below its length, so no index
    reaches the padding."""
    return row.ljust(256, b"\0")


# ---------------------------------------------------------------------------
# Magnus series oracle
# ---------------------------------------------------------------------------

# The words of degree <= 3 that _extract_lanes reads, and the ones below them.
# The other six cubic words span an ideal of the series truncated in degree
# 3, so dropping them is an algebra map: a product's coefficients on these
# nine words depend only on its factors' coefficients on them.
_WORDS = ("", "X", "Y", "XX", "XY", "YX", "YY", "XXY", "YYX")
_WIDX = {w: i for i, w in enumerate(_WORDS)}
_NWORDS = len(_WORDS)


def _seriesmul_vec(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    # Coefficient of word w: the sum of s[u] * t[v] over the splits w = uv,
    # written out for every word of _WORDS.
    s0, sx, sy, sxx, sxy, syx, syy, sxxy, syyx = s
    t0, tx, ty, txx, txy, tyx, tyy, txxy, tyyx = t
    return (
        s0 * t0,
        s0 * tx + sx * t0,
        s0 * ty + sy * t0,
        s0 * txx + sx * tx + sxx * t0,
        s0 * txy + sx * ty + sxy * t0,
        s0 * tyx + sy * tx + syx * t0,
        s0 * tyy + sy * ty + syy * t0,
        s0 * txxy + sx * txy + sxx * ty + sxxy * t0,
        s0 * tyyx + sy * tyx + syy * tx + syyx * t0,
    )


def _seriesinv_vec(s: tuple[int, ...]) -> tuple[int, ...]:
    if s[0] != 1:
        raise ValueError("only unit series (constant term 1) are invertible")
    u = list(s)
    u[0] = 0
    u = tuple(u)
    uu = _seriesmul_vec(u, u)
    uuu = _seriesmul_vec(uu, u)
    one = _series_one()
    return tuple(o - a + b - c for o, a, b, c in zip(one, u, uu, uuu))


def _series_one() -> tuple[int, ...]:
    return (1,) + (0,) * (_NWORDS - 1)


def _xpow(b: int) -> tuple[int, ...]:
    s = [0] * _NWORDS
    s[_WIDX[""]] = 1
    s[_WIDX["X"]] = b
    s[_WIDX["XX"]] = _binom2(b)
    return tuple(s)


def _ypow(a: int) -> tuple[int, ...]:
    s = [0] * _NWORDS
    s[_WIDX[""]] = 1
    s[_WIDX["Y"]] = a
    s[_WIDX["YY"]] = _binom2(a)
    return tuple(s)


def _commutator_series(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    return _seriesmul_vec(
        _seriesmul_vec(s, t), _seriesmul_vec(_seriesinv_vec(s), _seriesinv_vec(t))
    )


# Exact truncated series of the basic commutators, computed once from the
# generator embeddings rather than written down by hand.
_Z_SERIES = _commutator_series(_xpow(1), _ypow(1))
_W1_SERIES = _commutator_series(_Z_SERIES, _xpow(1))
_W2_SERIES = _commutator_series(_Z_SERIES, _ypow(1))


# The degree-3 coefficients of [x,y], [[x,y],x] and [[x,y],y], one
# (z, w1, w2) triple per word XXY, YYX.
_CUBIC = tuple(zip(_Z_SERIES[7:], _W1_SERIES[7:], _W2_SERIES[7:]))


# ---------------------------------------------------------------------------
# The Magnus oracle on byte lanes
# ---------------------------------------------------------------------------

# A batch of N exponent vectors is five bytes of length N, one per exponent:
# byte i of each is an exponent of vector i, its lane.  A batch series is
# the tuple of its coefficients on _WORDS[1:], each an int whose byte i is
# lane i's coefficient mod the Magnus modulus m; the constant term is 1 in
# every lane, since every series here is a group element's.  m is a power
# of 2 and at most 16, so a lane sum of a few coefficients stays below 256,
# with no carry into the next lane, and a mask takes it mod m; a lane
# product packs its two factors into one byte as 16u + v and reads u*v mod
# m from a 256-byte table by one bytes.translate.  A difference adds m
# first, so no lane borrows.
#
# Per m, built on first use: the tables of the lane product, of C(n, 2) on
# an exponent byte n, and of C(n + 1, 2) on a coefficient byte n, each mod
# m; and per modulus q of a spec, the table of n mod q.
_LANE_TABLES: dict[int, tuple[bytes, bytes, bytes]] = {}
_MOD_TABLES: dict[int, bytes] = {}


def _lane_tables(spec: QuotientSpec) -> tuple[int, tuple[bytes, bytes, bytes]]:
    """spec's Magnus modulus m and its lane tables; a modulus that is no
    power of 2 up to 16 is refused, since its lanes would wrap."""
    m = spec.magnus_modulus
    tables = _LANE_TABLES.get(m)
    if tables is None:
        if m > 16 or m & (m - 1):
            raise ValueError(f"{spec} has Magnus modulus {m}: byte lanes need a power of 2 up to 16")
        tables = _LANE_TABLES[m] = (
            bytes([(n >> 4) * (n & 15) % m for n in range(256)]),
            bytes([(n * (n - 1) >> 1) % m for n in range(256)]),
            bytes([(n * (n + 1) >> 1) % m for n in range(256)]),
        )
    return m, tables


def _mod_table(q: int) -> bytes:
    table = _MOD_TABLES.get(q)
    if table is None:
        table = _MOD_TABLES[q] = bytes([n % q for n in range(256)])
    return table


def _ints(lanes: bytes) -> int:
    return int.from_bytes(lanes, "little")


def _masks(m: int, n: int) -> tuple[int, int]:
    """The lane ints of m - 1 and of m in each of n lanes: the mask that
    takes a lane sum mod m, and the multiple of m a difference adds."""
    ones = _ints(b"\1" * n)
    return ones * (m - 1), ones * m


def _lane_mul(x: int, y: int, n: int, product: bytes) -> int:
    """The lane products of x and y, whose lanes are below 16."""
    return _ints((x << 4 | y).to_bytes(n, "little").translate(product))


def _embed_lanes(spec: QuotientSpec, v: Sequence[bytes]) -> tuple[int, ...]:
    """The batch series of the exponent lanes v = (a, b, c, d, e): lane i is
    the series of y^a x^b [x,y]^c [[x,y],x]^d [[x,y],y]^e for lane i's
    exponents, any byte values, with its coefficients mod spec's Magnus
    modulus.

    The head (1 + Y)^a (1 + X)^b has the coefficient C(a, i) C(b, j) on
    Y^i X^j.  A commutator series is 1 + (degree >= 2 tail), so its n-th
    power is 1 + n * tail up to degree 3, and the product of the three
    commutator powers is 1 + c*Z + d*W1 + e*W2 with Z, W1, W2 the tails of
    _Z_SERIES, _W1_SERIES, _W2_SERIES: Z is XY - YX plus a cubic part, W1 and
    W2 are cubic.  Times the head, the only product of degree <= 3 left is
    the head's degree-1 part bX + aY times c(XY - YX).  So XXY has the cross
    term bc, and YYX the head's C(a, 2) b and the cross term -ac.
    """
    m, (product, binom, _) = _lane_tables(spec)
    n = len(v[0])
    low, up = _masks(m, n)
    a, b, c, d, e = (_ints(x) & low for x in v)
    yy, xx = _ints(v[0].translate(binom)), _ints(v[1].translate(binom))
    # The cubic parts c*Z + d*W1 + e*W2 on XXY and YYX, each constant taken
    # mod m, so that each term is below m^2 <= 256 before its mask.
    xxy, yyx = (
        (c * (z % m) & low) + (d * (w1 % m) & low) + (e * (w2 % m) & low) for z, w1, w2 in _CUBIC
    )
    return (
        b,
        a,
        xx,
        c,
        (_lane_mul(a, b, n, product) + up - c) & low,
        yy,
        (_lane_mul(b, c, n, product) + xxy) & low,
        (_lane_mul(yy, b, n, product) + up - _lane_mul(a, c, n, product) + yyx) & low,
    )


def _seriesmul_lanes(spec: QuotientSpec, s: Sequence[int], t: Sequence[int], n: int) -> tuple[int, ...]:
    """The lane-wise product of the batch series s and t of n lanes: the
    coefficients of _seriesmul_vec with constant terms 1, mod spec's Magnus
    modulus."""
    m, (product, _, _) = _lane_tables(spec)
    low, _ = _masks(m, n)
    sx, sy, sxx, sxy, syx, syy, sxxy, syyx = s
    tx, ty, txx, txy, tyx, tyy, txxy, tyyx = t

    def mul(x, y):
        return _lane_mul(x, y, n, product)

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
    words XXY and YYX: [x,y] has neither, [[x,y],x] has -1 on XXY and 0 on
    YYX, [[x,y],y] has 0 on XXY and +1 on YYX.  So by _embed_lanes

        s[XXY] = bc - d,    s[YYX] = C(a, 2) b - ac + e,    s[YX] = ab - c,

    and d = bc - s[XXY], e = s[YYX] - a s[YX] + b C(a + 1, 2), because
    C(a, 2) - a^2 + C(a + 1, 2) = 0.  Each is taken mod the Magnus modulus
    first, like the coefficients it comes from, and only then into spec:
    for FULL4(3) and FULL4(6) that modulus (8, 16) is no multiple of 3 or
    6, so reducing straight into spec would give another residue.
    """
    m, (product, _, binom_up) = _lane_tables(spec)
    low, up = _masks(m, n)
    b, a, _, c, yx, _, xxy, yyx = s
    a_up = _ints(a.to_bytes(n, "little").translate(binom_up))
    d = (_lane_mul(b, c, n, product) + up - xxy) & low
    e = (yyx + up - _lane_mul(a, yx, n, product) + _lane_mul(b, a_up, n, product)) & low
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
    (g, h).  Every product is read from TOWER4's tables, on indices.

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
    ones = int.from_bytes(b"\1" * L, "little")
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
    acted = {}

    def act(key):
        if key not in acted:
            acted[key] = sect.translate(_through(tower4_action(*key)))
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

    # Each product s(p(g)) g(s(p(h))) is read from the joined rows of the
    # section values that occur, and no others: one 2-byte lane per (g, h,
    # case), holding the position of s(p(g))'s row and the acted index,
    # read through the joined rows by one map.
    values = sorted(set(sect))
    joined = b"".join([_through(tower4_row(v)) for v in values])
    position = bytearray(256)
    for k, v in enumerate(values):
        position[v] = k
    row_of = b"".join([block.translate(position) * n for block in blocks])
    low = 0 if sys.byteorder == "little" else 1

    lanes = bytearray(2 * n * n * L)
    lanes[low::2], lanes[1 - low :: 2] = b"".join(acted_rows), row_of
    products = bytes(map(joined.__getitem__, memoryview(lanes).cast("H")))
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
