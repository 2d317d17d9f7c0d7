import ast
import itertools
import operator
import random
import re
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from nilobstruct import nilpotent as nil
from nilobstruct.cohomology import (
    Cochain1,
    all_twisted_cocycles,
    cyclic_model,
    extra_models,
    f_homs,
    lift_cochains,
    standard_models,
    units_model,
)
from nilobstruct.nilpotent import (
    TOWER3,
    TOWER4,
    InvalidCocycleError,
    QuotientSpec,
    _reduce,
    act_vec,
    boundary_of_section,
    full4,
    inv_vec,
    mul_vec,
)

ONE, X, Y, Z = (0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 1, 0, 0)


def mul(spec, g, h):
    return _reduce(mul_vec(g, h), spec.moduli)


def inv(spec, g):
    return _reduce(inv_vec(g), spec.moduli)


def power(spec, g, n):
    """g^n for n >= 0, as n reduced products."""
    out = ONE
    for _ in range(n):
        out = mul(spec, out, g)
    return out


def act(spec, chi, f, g):
    return _reduce(act_vec(g, chi, f), spec.moduli)


def lanes(vectors):
    """The byte lanes of a batch of exponent vectors: five bytes, byte i of
    each an exponent of vectors[i]."""
    return tuple(bytes(column) for column in zip(*vectors)) if vectors else (b"",) * 5


def lane(s, i):
    """Lane i of a batch series: the 9-tuple of its coefficients on _WORDS,
    the constant term 1 included."""
    return (1, *(x >> 8 * i & 255 for x in s))


def embed(spec, g):
    """The series of g, with its coefficients mod spec's Magnus modulus, as
    a batch of one lane embeds it."""
    return lane(nil._embed_lanes(spec, lanes([g])), 0)


def extract(spec, s):
    """The exponent vector of a unit series whose coefficients are reduced
    mod spec's Magnus modulus, as a batch of one lane extracts it."""
    return tuple(x[0] for x in nil._extract_lanes(spec, s[1:], 1))


# The scalar Magnus series: a series is the tuple of its integer
# coefficients on nil._WORDS.  These are the references of the byte-lane
# kernel, and derive the commutator series whose cubic coefficients
# _embed_lanes and _extract_lanes write out.
_WIDX = {w: i for i, w in enumerate(nil._WORDS)}
_NWORDS = len(nil._WORDS)


def _seriesmul_vec(s, t):
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


def _seriesinv_vec(s):
    """The inverse of a unit series 1 + u: 1 - u + u^2 - u^3 up to degree 3."""
    assert s[0] == 1, "only unit series (constant term 1) are invertible"
    u = (0, *s[1:])
    uu = _seriesmul_vec(u, u)
    uuu = _seriesmul_vec(uu, u)
    return tuple(int(i == 0) - x + y - z for i, (x, y, z) in enumerate(zip(u, uu, uuu)))


def _power_series(word, n):
    """(1 + W)^n for the letter W of word: 1 + nW + C(n, 2) WW."""
    s = [0] * _NWORDS
    s[0], s[_WIDX[word]], s[_WIDX[word * 2]] = 1, n, n * (n - 1) // 2
    return tuple(s)


def _xpow(b):
    return _power_series("X", b)


def _ypow(a):
    return _power_series("Y", a)


def _commutator_series(s, t):
    return _seriesmul_vec(_seriesmul_vec(s, t), _seriesmul_vec(_seriesinv_vec(s), _seriesinv_vec(t)))


# The exact truncated series of the basic commutators, from the generator
# embeddings, and their degree-3 coefficients: one (z, w1, w2) triple per
# word XXY, YYX.
_Z_SERIES = _commutator_series(_xpow(1), _ypow(1))
_W1_SERIES = _commutator_series(_Z_SERIES, _xpow(1))
_W2_SERIES = _commutator_series(_Z_SERIES, _ypow(1))
_CUBIC = tuple(zip(_Z_SERIES[7:], _W1_SERIES[7:], _W2_SERIES[7:]))


def coeff(s, word):
    return s[_WIDX[word]]


def rand_element(spec, rng):
    return _reduce(tuple(rng.randrange(64) for _ in range(5)), spec.moduli)


class TestSpecs:
    def test_orders(self):
        assert TOWER3.order == 32
        assert TOWER4.order == 128
        assert full4(3).order == 3**5

    def test_bad_spec(self):
        for m in (2.5, 4.0):
            with pytest.raises(ValueError, match="an int"):
                full4(m)

    def test_full4_is_its_name_and_moduli(self):
        assert str(full4(8)) == "FULL4(8)"
        assert full4(8) == full4(8)
        assert full4(8).moduli == (8,) * 5

    def test_magnus_moduli(self):
        # the smallest power of 2 of at least 2m for FULL4(m); 4 for the towers
        assert [spec.magnus_modulus for spec in (full4(8), full4(3), TOWER4)] == [16, 8, 4]


class TestRecords:
    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            TOWER4.moduli = (8,) * 5

    def test_module_imports_no_dataclasses_or_functools(self):
        tree = ast.parse(Path(nil.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        assert not imported & {"dataclasses", "functools"}


class TestProduct:
    def test_xy_normal_form(self):
        for spec in (TOWER4, full4(2), full4(4), full4(8)):
            got = mul(spec, X, Y)
            assert got == tuple(v % m for v, m in zip((1, 1, 1, 1, 1), spec.moduli))

    def test_identity_and_inverses_exhaustive(self):
        for g in nil.all_elements(TOWER4):
            assert mul(TOWER4, ONE, g) == g == mul(TOWER4, g, ONE)
            assert mul(TOWER4, g, inv(TOWER4, g)) == ONE == mul(TOWER4, inv(TOWER4, g), g)

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_switch_law(self, a, b):
        lhs = mul(TOWER4, power(TOWER4, X, b), power(TOWER4, Y, a))
        rhs = _reduce((a, b, a * b, a * (b * (b + 1) // 2), b * (a * (a + 1) // 2)), TOWER4.moduli)
        assert lhs == rhs

    def test_associativity_sampled(self):
        rng = random.Random(3)
        els = nil.all_elements(TOWER4)
        for _ in range(3000):
            g, h, k = (rng.choice(els) for _ in range(3))
            assert mul(TOWER4, mul(TOWER4, g, h), k) == mul(TOWER4, g, mul(TOWER4, h, k))

    def test_all_elements_are_the_reduced_vectors_in_lexicographic_order(self):
        for spec in (TOWER3, TOWER4, full4(2)):
            els = nil.all_elements(spec)
            assert len(els) == len(set(els)) == spec.order
            assert els == sorted(els)
            assert all(_reduce(g, spec.moduli) == g for g in els)


def _commutator(g, h):
    """[g, h] = g h g^-1 h^-1 in TOWER4, from reduced products and inverses."""
    return mul(TOWER4, mul(TOWER4, g, h), mul(TOWER4, inv(TOWER4, g), inv(TOWER4, h)))


class TestCommutator:
    def test_self_commutator_trivial(self):
        rng = random.Random(4)
        for _ in range(50):
            g = rand_element(TOWER4, rng)
            assert _commutator(g, g) == ONE

    def test_commutator_of_generators_is_z(self):
        assert _commutator(X, Y) == Z

    def test_power_law_exact_layer(self):
        # [x^a, y^a] = [x,y]^{a^2} [[x,y],x]^{-a C(a,2)} [[x,y],y]^{-a C(a,2)}
        for a in range(8):
            xa, ya = (0, a, 0, 0, 0), (a, 0, 0, 0, 0)
            comm = mul_vec(mul_vec(xa, ya), mul_vec(inv_vec(xa), inv_vec(ya)))
            t = a * (a * (a - 1) // 2)
            assert comm == (0, 0, a * a, -t, -t)

    def test_x_with_z_exact_layer(self):
        x, z = (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)
        comm = mul_vec(mul_vec(x, z), mul_vec(inv_vec(x), inv_vec(z)))
        assert comm == (0, 0, 0, -1, 0)


class TestGaloisAction:
    def test_trivial_parameters_fix_everything(self):
        for g in nil.all_elements(TOWER4):
            assert act(TOWER4, 1, 0, g) == g

    def test_action_on_y(self):
        for chi in (1, 3, 5, 7):
            for f in (0, 1):
                got = act(TOWER4, chi, f, Y)
                assert got == _reduce((chi, 0, 0, 0, -f * chi), TOWER4.moduli)

    def test_composition_law_sampled(self):
        rng = random.Random(5)
        els = nil.all_elements(TOWER4)
        for _ in range(500):
            chi1, chi2 = rng.choice((1, 3, 5, 7)), rng.choice((1, 3, 5, 7))
            f1, f2 = rng.randrange(2), rng.randrange(2)
            g = rng.choice(els)
            lhs = act(TOWER4, chi1, f1, act(TOWER4, chi2, f2, g))
            rhs = act(TOWER4, chi1 * chi2 % 8, (f1 + chi1 * chi1 * f2) % 2, g)
            assert lhs == rhs

    def test_matches_generator_images(self):
        # acting on a word equals the product of acted generators
        rng = random.Random(6)
        for _ in range(200):
            chi, f = rng.choice((1, 3, 5, 7)), rng.randrange(2)
            a, b, c = rng.randrange(4), rng.randrange(4), rng.randrange(2)
            word = mul(TOWER4, mul(TOWER4, power(TOWER4, Y, a), power(TOWER4, X, b)), power(TOWER4, Z, c))
            via_gens = mul(
                TOWER4,
                mul(
                    TOWER4,
                    power(TOWER4, act(TOWER4, chi, f, Y), a),
                    power(TOWER4, act(TOWER4, chi, f, X), b),
                ),
                power(TOWER4, act(TOWER4, chi, f, Z), c),
            )
            assert act(TOWER4, chi, f, word) == via_gens


class TestProjection:
    def test_chain(self):
        g = _reduce((3, 2, 3, 1, 2), full4(4).moduli)
        g4 = _reduce(g, TOWER4.moduli)
        assert g4 == (3, 2, 1, 1, 0)
        assert _reduce(g4, TOWER3.moduli) == (3, 2, 1, 0, 0)


class TestMagnus:
    def test_embed_x(self):
        s = embed(TOWER4, X)
        assert coeff(s, "") == 1 and coeff(s, "X") == 1
        assert all(coeff(s, w) == 0 for w in ("Y", "XX", "XY", "YX", "YY"))

    def test_embed_commutator_leading_term(self):
        # TOWER4 series keep their coefficients mod 4, so -1 reads 3
        s = embed(TOWER4, Z)
        assert coeff(s, "XY") == 1 and coeff(s, "YX") == 3
        assert coeff(s, "X") == 0 and coeff(s, "Y") == 0

    def test_round_trip_all_tower4(self):
        els = lanes(nil.all_elements(TOWER4))
        assert nil._extract_lanes(TOWER4, nil._embed_lanes(TOWER4, els), 128) == els

    @pytest.mark.parametrize("m,count", ((4, 1000), (8, 2000)))
    def test_collection_matches_magnus_random_full4(self, m, count):
        rng = random.Random(7)
        spec = full4(m)
        pairs = [(rand_element(spec, rng), rand_element(spec, rng)) for _ in range(count)]
        gs, hs = zip(*pairs)
        want = lanes([mul(spec, g, h) for g, h in pairs])
        assert nil.magnus_lanes(spec, lanes(gs), lanes(hs)) == want


class TestBoundary:
    def test_trivial_cocycle_gives_zero(self):
        model = units_model(8)
        p2 = [(0, 0)] * model.order
        (bd,) = boundary_of_section(model, p2)
        assert bd.is_zero()
        p3 = [(0, 0, 0)] * model.order
        d, e = boundary_of_section(model, p3)
        assert d.is_zero() and e.is_zero()

    def test_level2_product_formula(self):
        model = cyclic_model(2, 7)
        # a(tau) = 3, b(tau) = 1 is a twisted cocycle mod 4 for chi(tau) = 7
        p = [(0, 0), (3, 1)]
        (bd,) = boundary_of_section(model, p)
        for g in model.elements():
            for h in model.elements():
                want = p[g][1] * model.chi[g] * p[h][0] % 2
                assert bd.values[g][h] == want

    def test_invalid_cocycle_rejected(self):
        model = cyclic_model(4, 3)
        # s(g) g(s(g^2)) = (1, 0) is not s(g^3) = (0, 0)
        with pytest.raises(InvalidCocycleError, match=r"not a 1-cocycle at \(1, 2\)"):
            boundary_of_section(model, [(0, 0), (1, 0), (0, 0), (0, 0)])
        with pytest.raises(InvalidCocycleError):
            boundary_of_section(model, [(0, 0)])
        # the level is the width of the values: 2 or 3, the same for every element
        for p in ([(0, 0, 0, 0)] * 4, [(0, 0), (0, 0, 0), (0, 0), (0, 0)], [(0, 0, 0)] * 3 + [(0, 0)]):
            with pytest.raises(InvalidCocycleError, match="all pairs"):
                boundary_of_section(model, p)
        # b = a = tau on the model of G_R has no lift (every c has Dc = 0,
        # but b cup a is 1 at (tau, tau)), so the section of c = 0 is refused.
        with pytest.raises(InvalidCocycleError, match=r"not a 1-cocycle at \(1, 1\)"):
            boundary_of_section(cyclic_model(2, 7), [(0, 0, 0), (1, 1, 0)])


def _word_convolution(s, t, words=nil._WORDS):
    """Reference series product on the given words: concatenate every pair
    of words and keep the concatenations that are among them."""
    index = {w: i for i, w in enumerate(words)}
    out = [0] * len(words)
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if u + v in index:
                out[index[u + v]] += s[i] * t[j]
    return tuple(out)


def test_seriesmul_matches_word_convolution():
    rng = random.Random(11)
    for _ in range(2000):
        s = tuple(rng.randint(-50, 50) for _ in nil._WORDS)
        t = tuple(rng.randint(-50, 50) for _ in nil._WORDS)
        assert _seriesmul_vec(s, t) == _word_convolution(s, t)


# Every word in X, Y of degree <= 3.
_ALL_WORDS = tuple("".join(w) for k in range(4) for w in itertools.product("XY", repeat=k))


def test_seriesmul_is_the_projection_of_the_full_degree_3_product():
    """Dropping the cubic words that _extract_lanes does not read is an algebra
    map: the product on the kept words is the full product projected."""
    assert len(_ALL_WORDS) == 15 and set(nil._WORDS) <= set(_ALL_WORDS)
    keep = [_ALL_WORDS.index(w) for w in nil._WORDS]
    rng = random.Random(13)
    for _ in range(2000):
        s = tuple(rng.randint(-50, 50) for _ in _ALL_WORDS)
        t = tuple(rng.randint(-50, 50) for _ in _ALL_WORDS)
        full = _word_convolution(s, t, _ALL_WORDS)
        projected = _seriesmul_vec(*([x[i] for i in keep] for x in (s, t)))
        assert projected == tuple(full[i] for i in keep)


def test_cubic_coefficients_of_the_commutators():
    """The degree-3 coefficients that _embed_lanes and _extract_lanes write
    out, derived from the commutator series: on XXY only [[x,y],x]
    contributes, with -1, and on YYX only [[x,y],y], with +1; [x,y] is
    XY - YX below degree 3, and the letters of degree 3 have nothing there."""
    assert _CUBIC == ((0, -1, 0), (0, 0, 1))
    assert _Z_SERIES[:7] == (1, 0, 0, 0, 1, -1, 0)
    assert _W1_SERIES[:7] == _W2_SERIES[:7] == (1, 0, 0, 0, 0, 0, 0)


def test_extraction_round_trips_full4_8():
    rng = random.Random(12)
    spec = full4(8)
    els = lanes([_reduce(tuple(rng.randrange(8) for _ in range(5)), spec.moduli) for _ in range(2000)])
    assert nil._extract_lanes(spec, nil._embed_lanes(spec, els), 2000) == els


def _central_pow(base, n):
    """n-th power of a series 1 + (degree >= 2 tail): 1 + n * tail up to degree 3."""
    return (base[0], *[n * coef for coef in base[1:]])


def _embed_by_products(spec, g):
    """Reference embedding: the product of the series of y^a x^b, [x,y]^c,
    [[x,y],x]^d and [[x,y],y]^e, with its coefficients mod spec's Magnus
    modulus, as _embed_lanes gives them."""
    a, b, c, d, e = g
    s = _seriesmul_vec(_ypow(a), _xpow(b))
    s = _seriesmul_vec(s, _central_pow(_Z_SERIES, c))
    s = _seriesmul_vec(s, _central_pow(_W1_SERIES, d))
    s = _seriesmul_vec(s, _central_pow(_W2_SERIES, e))
    return tuple(x % spec.magnus_modulus for x in s)


def _extract_by_division(spec, s):
    """Reference extraction: read a, b, c, divide off y^a x^b [x,y]^c by
    multiplying with [x,y]^-c x^-b y^-a, and read d, e off the tail
    1 + d*W1 + e*W2 (W1 is -1 on XXY, W2 is +1 on YYX)."""
    m = spec.magnus_modulus
    a, b, c = coeff(s, "Y") % m, coeff(s, "X") % m, coeff(s, "XY") % m
    head_inv = _seriesmul_vec(_central_pow(_Z_SERIES, -c), _xpow(-b))
    tail = _seriesmul_vec(_seriesmul_vec(head_inv, _ypow(-a)), s)
    d = -coeff(tail, "XXY") % m
    e = coeff(tail, "YYX") % m
    return _reduce((a, b, c, d, e), spec.moduli)


@pytest.mark.parametrize("spec", (TOWER3, TOWER4), ids=str)
def test_straight_line_magnus_matches_series_products_on_towers(spec):
    """Every element and every product of a tower, as batches: the lane
    kernel against the series-product references."""
    els = nil.all_elements(spec)
    n = len(els)
    series = nil._embed_lanes(spec, lanes(els))
    for i, g in enumerate(els):
        assert lane(series, i) == _embed_by_products(spec, g)
        assert _extract_by_division(spec, lane(series, i)) == g
    assert nil._extract_lanes(spec, series, n) == lanes(els)
    gs, hs = zip(*itertools.product(els, repeat=2))
    products = nil._seriesmul_lanes(spec, *(nil._embed_lanes(spec, lanes(x)) for x in (gs, hs)), n * n)
    extracted = nil._extract_lanes(spec, products, n * n)
    assert extracted == lanes([mul(spec, g, h) for g, h in zip(gs, hs)])
    assert extracted == lanes([_extract_by_division(spec, lane(products, i)) for i in range(n * n)])


_FULL4_MODULI = (2, 3, 4, 6, 8)
_bytes5 = st.tuples(*[st.integers(0, 255)] * 5)


@given(st.sampled_from(_FULL4_MODULI), _bytes5, _bytes5)
def test_straight_line_magnus_matches_series_products_on_full4(m, u, v):
    """FULL4(m), with m = 3 and 6 among the moduli whose Magnus modulus is
    no multiple of m, on exponent lanes of any byte value, reduced or not:
    the embedding of a batch of two lanes, and the extraction of an
    embedded element and of a product, against the references."""
    spec = full4(m)
    series = nil._embed_lanes(spec, lanes([u, v]))
    assert lane(series, 0) == _embed_by_products(spec, u)
    assert lane(series, 1) == _embed_by_products(spec, v)
    assert extract(spec, lane(series, 0)) == _extract_by_division(spec, lane(series, 0))
    s, t = (tuple(x >> 8 * i & 255 for x in series) for i in (0, 1))
    product = lane(nil._seriesmul_lanes(spec, s, t, 1), 0)
    assert extract(spec, product) == _extract_by_division(spec, product)


_TAIL = len(nil._WORDS) - 1


@given(st.sampled_from(_FULL4_MODULI), st.lists(st.integers(0, 63), min_size=_TAIL, max_size=_TAIL))
def test_extraction_matches_division_on_any_unit_series(m, tail):
    """The extraction formulas are identities in the coefficients of any
    series with constant term 1, group element or not."""
    spec = full4(m)
    s = tuple(x % spec.magnus_modulus for x in (1, *tail))
    assert extract(spec, s) == _extract_by_division(spec, s)


def _boundary_by_elements(model, p, n, f=None):
    """Reference section boundary by division: on every (g, h), the reduced
    product s(p(g)) g(s(p(h))) times the inverse of s(p(gh)), validating as
    boundary_of_section does."""
    width = 2 if n == 2 else 3
    sect = [_reduce((*t, 0, 0, 0)[:5], TOWER4.moduli) for t in p]
    rows_c, rows_d, rows_e = [], [], []
    for g in model.elements():
        rc, rd, re = [], [], []
        for h in model.elements():
            f_g = 0 if f is None else f.values[g]
            got = mul(TOWER4, sect[g], act(TOWER4, model.chi[g] % 8, f_g, sect[h]))
            want = sect[model.mul(g, h)]
            if got[:width] != want[:width]:
                raise InvalidCocycleError(f"not a 1-cocycle at ({g}, {h})")
            _, _, zc, zd, ze = mul(TOWER4, got, inv(TOWER4, want))
            rc.append(zc)
            rd.append(zd)
            re.append(ze)
        rows_c.append(tuple(rc))
        rows_d.append(tuple(rd))
        rows_e.append(tuple(re))
    if n == 2:
        return (rows_c,)
    return (rows_d, rows_e)


def _outcome(fn, *args):
    """("ok", what fn returns) or ("refused", the text of the
    InvalidCocycleError it raises)."""
    try:
        return "ok", fn(*args)
    except InvalidCocycleError as error:
        return "refused", str(error)


def _one_point_sections(model, width):
    """Sections of the given width that are 0 but at one element.  The last
    is nonzero at the identity, which every model refuses; whether the
    others are cocycles depends on the model."""
    for g, value in ((model.order - 1, (1, 1, 0)), (1 % model.order, (1, 0, 1)), (0, (0, 1, 0))):
        p = [(0,) * width] * model.order
        p[g] = value[:width]
        yield p


@pytest.mark.parametrize("model", standard_models() + extra_models(), ids=lambda m: m.name)
def test_boundary_of_section_matches_element_route(model):
    cocycles = all_twisted_cocycles(model, 4, 1)
    fs = f_homs(model)
    for b in cocycles:
        for a in cocycles:
            p2 = [(a.values[g], b.values[g]) for g in model.elements()]
            lifts = [
                [(*p2[g], c.values[g]) for g in model.elements()]
                for c in lift_cochains(b, a)
            ]
            for f in fs:
                for p, n in [(p2, 2)] + [(p3, 3) for p3 in lifts]:
                    got = boundary_of_section(model, p, f)
                    assert [bd.values for bd in got] == [
                        tuple(rows) for rows in _boundary_by_elements(model, p, n, f)
                    ]
    # Sections that break the cocycle law are refused with the reference's
    # text, at either level; where the reference takes one, so does the
    # boundary, with the same values.
    for width in (2, 3):
        refused = 0
        for p in _one_point_sections(model, width):
            want = _outcome(_boundary_by_elements, model, p, width)
            got = _outcome(boundary_of_section, model, p)
            if want[0] == "refused":
                assert got == want
                refused += 1
            else:
                assert got[0] == "ok"
                assert [z.values for z in got[1]] == [tuple(rows) for rows in want[1]]
        assert refused


def _unreduced(p, rng):
    """p with each value moved by random multiples of TOWER4's moduli, of
    either sign."""
    return [tuple(x + m * rng.randrange(-3, 4) for x, m in zip(t, (4, 4, 2))) for t in p]


@pytest.mark.parametrize("model", standard_models() + extra_models(), ids=lambda m: m.name)
def test_boundary_of_section_reads_only_residues(model):
    """A section whose values are moved by multiples of TOWER4's moduli, to
    negative or unreduced values such as a = -1 or b = 5, has the boundary
    of its reduced form at both levels, or is refused with the same text.
    So does a level-3 batch of the section with every f, whose values are
    moved within a byte."""
    rng = random.Random(model.order)
    cocycles = all_twisted_cocycles(model, 4, 1)
    fs = f_homs(model)
    f_batch = Cochain1.pack(fs)
    for b in cocycles:
        for a in cocycles:
            p2 = list(zip(a.values, b.values))
            assert boundary_of_section(model, _unreduced(p2, rng)) == boundary_of_section(model, p2)
            for c in lift_cochains(b, a):
                p3 = list(zip(a.values, b.values, c.values))
                assert boundary_of_section(model, _unreduced(p3, rng)) == boundary_of_section(model, p3)
                F = len(fs)
                reduced = [tuple(int.from_bytes(bytes([x % m]) * F, "little") for x, m in zip(t, (4, 4, 2))) for t in p3]
                moved = _batch_section([p3] * F, rng)
                assert boundary_of_section(model, moved, f_batch, F) == boundary_of_section(model, reduced, f_batch, F)
    for width in (2, 3):
        for p in _one_point_sections(model, width):
            assert _outcome(boundary_of_section, model, _unreduced(p, rng)) == _outcome(
                boundary_of_section, model, p
            )


def _batch_section(sections, rng):
    """The sections as one batch section: at each element, each coordinate
    an int whose byte i is section i's value there, moved by a random
    multiple of TOWER4's modulus that keeps it a byte."""
    n, width = len(sections[0]), len(sections[0][0])
    return [
        tuple(
            int.from_bytes(bytes([s[g][k] % m + m * rng.randrange(256 // m) for s in sections]), "little")
            for k, m in zip(range(width), (4, 4, 2))
        )
        for g in range(n)
    ]


@pytest.mark.parametrize("model", standard_models() + extra_models(), ids=lambda m: m.name)
def test_batch_boundary_is_the_boundary_of_each_section(model):
    """A batch of every level-2 section, and one of every level-3 section
    with every f (an f per case), give in case i the boundary of section i
    alone; a batch with refused sections among good ones is refused with
    the first refused section's text, naming its case."""
    rng = random.Random(model.name)
    cocycles = all_twisted_cocycles(model, 4, 1)
    fs = f_homs(model)
    pairs = [list(zip(a.values, b.values)) for b in cocycles for a in cocycles]
    (batch,) = boundary_of_section(model, _batch_section(pairs, rng), cases=len(pairs))
    assert batch.cases == len(pairs)
    assert [batch.case(i) for i in range(len(pairs))] == [boundary_of_section(model, p)[0] for p in pairs]
    triples = [
        list(zip(a.values, b.values, c.values)) for b in cocycles for a in cocycles for c in lift_cochains(b, a)
    ]
    cases = [(p, f) for p in triples for f in fs]
    f_batch = Cochain1.pack([f for _, f in cases])
    x, y = boundary_of_section(model, _batch_section([p for p, _ in cases], rng), f_batch, cases=len(cases))
    for i, (p, f) in enumerate(cases):
        assert (x.case(i), y.case(i)) == boundary_of_section(model, p, f)
    for width, good in ((2, pairs), (3, triples)):
        outcomes = [(p, _outcome(boundary_of_section, model, p)) for p in _one_point_sections(model, width)]
        refused = [(p, text) for p, (verdict, text) in outcomes if verdict == "refused"]
        assert refused
        for bad, text in refused:
            for at in sorted({0, len(good) // 2, len(good)}):
                sections = good[:at] + [bad] + good[at:] + [bad]
                with pytest.raises(InvalidCocycleError) as refusal:
                    boundary_of_section(model, _batch_section(sections, rng), cases=len(sections))
                assert str(refusal.value) == f"{text} in case {at}"


def test_tower4_index_is_the_position_of_the_reduced_vector():
    els = nil.all_elements(TOWER4)
    assert nil.TOWER4_ELEMENTS == tuple(els)
    assert [nil.tower4_index(g) for g in els] == list(range(128))
    rng = random.Random(0)
    for _ in range(1000):
        v = tuple(rng.randrange(-10**6, 10**6) for _ in range(5))
        assert nil.tower4_index(v) == els.index(_reduce(v, TOWER4.moduli))


# Reference copies of the kernels as they were before they were written out
# as straight-line code: C(n, 2) through a helper, the reduction through
# map(operator.mod, ...) and the cubic coefficients through a comprehension
# over _CUBIC.  The scalar Magnus embedding and extraction are kept here
# only, as the references of the byte-lane kernel.


def _ref_binom2(n):
    return n * (n - 1) // 2


def _ref_mul_vec(u, v):
    a1, b1, c1, d1, e1 = u
    a2, b2, c2, d2, e2 = v
    return (
        a1 + a2,
        b1 + b2,
        c1 + c2 + b1 * a2,
        d1 + d2 + c1 * b2 + a2 * _ref_binom2(b1 + 1) + b1 * a2 * b2,
        e1 + e2 + c1 * a2 + b1 * _ref_binom2(a2 + 1),
    )


def _ref_inv_vec(u):
    a, b, c, d, e = u
    ai, bi = -a, -b
    ci = -c + b * a
    di = -d - c * bi - ai * _ref_binom2(b + 1) - b * ai * bi
    ei = -e - c * ai - b * _ref_binom2(ai + 1)
    return (ai, bi, ci, di, ei)


def _ref_act_vec(u, chi, f):
    a, b, c, d, e = u
    rho = (chi - 1) // 2
    return (
        chi * a,
        chi * b,
        chi * chi * c,
        chi**3 * d - rho * chi * chi * c,
        chi**3 * e - rho * chi * chi * c - f * chi * a,
    )


def _ref_reduce(u, moduli):
    return tuple(map(operator.mod, u, moduli))


def _ref_embed_vec(v, m):
    a, b, c, d, e = v
    ab2 = _ref_binom2(a)
    head = (b * c, ab2 * b - a * c)
    return (
        1, b % m, a % m, _ref_binom2(b) % m, c % m, (a * b - c) % m, ab2 % m,
        *[(h + c * z + d * w1 + e * w2) % m for h, (z, w1, w2) in zip(head, _CUBIC)],
    )


def _ref_extract_vec(s, m):
    _, b, a, _, c, yx, _, xxy, yyx = s
    a, b, c = a % m, b % m, c % m
    return (a, b, c, (b * c - xxy) % m, (yyx - a * yx + b * _ref_binom2(a + 1)) % m)


_KERNEL_SPECS = (TOWER3, TOWER4, *map(full4, _FULL4_MODULI))
_signed = st.integers(-10**6, 10**6)
_signed_vectors = st.tuples(*[_signed] * 5)


@given(
    _signed_vectors,
    _signed_vectors,
    _signed.map(lambda n: 2 * n + 1),
    st.integers(-3, 3),
    st.lists(_signed, min_size=_TAIL, max_size=_TAIL),
    st.sampled_from(_KERNEL_SPECS),
)
def test_straight_line_kernels_match_their_reference_forms(u, v, chi, f, tail, spec):
    """Every written-out kernel against its reference form, on signed
    vectors (n(n + 1) >> 1 and n(n + 1) // 2 must agree for negative n) and
    odd chi of either sign, over the integers and reduced into each spec."""
    assert mul_vec(u, v) == _ref_mul_vec(u, v)
    assert inv_vec(u) == _ref_inv_vec(u)
    assert act_vec(u, chi, f) == _ref_act_vec(u, chi, f)
    assert _reduce(u, spec.moduli) == _ref_reduce(u, spec.moduli)


_exponents = st.tuples(*[st.integers(0, 63)] * 5)


@settings(phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(st.sampled_from(_KERNEL_SPECS), st.lists(st.tuples(_exponents, _exponents), max_size=64))
def test_batch_magnus_kernel_matches_reference_forms_lane_by_lane(spec, pairs):
    """The byte-lane kernel on a batch of 0 to 64 reduced pairs: the
    embedding, the series product and the extraction of each lane against
    the scalar reference forms, the product against the word convolution
    mod the Magnus modulus, and the extraction against division too.
    Shrinking a batch of up to 64 pairs took over two minutes on a wrong
    lane table, so it is left out and each assertion names its pair."""
    m, n = spec.magnus_modulus, len(pairs)
    gs = [_reduce(u, spec.moduli) for u, _ in pairs]
    hs = [_reduce(v, spec.moduli) for _, v in pairs]
    sg, sh = nil._embed_lanes(spec, lanes(gs)), nil._embed_lanes(spec, lanes(hs))
    product = nil._seriesmul_lanes(spec, sg, sh, n)
    extracted = nil._extract_lanes(spec, product, n)
    assert nil.magnus_lanes(spec, lanes(gs), lanes(hs)) == extracted
    assert all(len(x) == n for x in extracted)
    for i, (g, h) in enumerate(zip(gs, hs)):
        want_g, want_h = _ref_embed_vec(g, m), _ref_embed_vec(h, m)
        assert lane(sg, i) == want_g and lane(sh, i) == want_h, (g, h)
        want = tuple(x % m for x in _word_convolution(want_g, want_h))
        assert lane(product, i) == want, (g, h)
        got = tuple(x[i] for x in extracted)
        assert got == _reduce(_ref_extract_vec(want, m), spec.moduli) == _extract_by_division(spec, want), (g, h)


def test_batch_magnus_kernel_refuses_a_modulus_a_lane_cannot_hold():
    """FULL4(16) has Magnus modulus 32, whose lane products would pass 255,
    and a modulus that is no power of 2 cannot be masked: every kernel
    refuses both, naming the spec, rather than wrap a lane."""
    g = lanes([(15, 15, 15, 15, 15)])
    zero = (0,) * _TAIL
    for spec in (full4(16), QuotientSpec("ODD", (3,) * 5, 12)):
        for kernel, args in (
            (nil._embed_lanes, (g,)),
            (nil._seriesmul_lanes, (zero, zero, 1)),
            (nil._extract_lanes, (zero, 1)),
            (nil.magnus_lanes, (g, g)),
        ):
            with pytest.raises(ValueError, match=re.escape(spec.name)):
                kernel(spec, *args)


# The collection kernels on byte lanes, against the scalar kernels.  C(n + 1,
# 2) and (n - 1) // 2 mod m depend on n mod 2m, so every exponent, chi and f
# ranges over all bytes: a kernel that read them from lanes masked mod m
# passes every reduced input of the verify pass and fails here.
_COLLECTION_SPECS = (TOWER3, TOWER4, *map(full4, (2, 4, 8, 16)))
_byte = st.integers(0, 255)
_byte_vectors = st.tuples(*[_byte] * 5)


def _with_uniform_examples(test):
    """test with the explicit examples of 64 cases whose every exponent,
    chi and f is m - 1, for m the spec's largest modulus, or 255, on every
    spec."""
    for spec in _COLLECTION_SPECS:
        for value in (max(spec.moduli) - 1, 255):
            test = example(spec, [((value,) * 5, (value,) * 5, value, value)] * 64)(test)
    return test


@_with_uniform_examples
@settings(phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(st.sampled_from(_COLLECTION_SPECS), st.lists(st.tuples(_byte_vectors, _byte_vectors, _byte, _byte), max_size=64))
def test_collection_lane_kernels_match_the_scalar_kernels_lane_by_lane(spec, cases):
    """mul_lanes and act_lanes on a batch of 0 to 64 cases (g, h, chi, f)
    of any byte values, and on all-(m - 1) and all-255 lanes: lane i is the
    reduced mul_vec and act_vec of case i.  Shrinking is left out, as for
    the Magnus kernel, and each assertion names its case."""
    n = len(cases)
    gs, hs, chis, fs = (list(column) for column in zip(*cases)) if cases else ([], [], [], [])
    products = nil.mul_lanes(spec, lanes(gs), lanes(hs))
    images = nil.act_lanes(spec, lanes(gs), bytes(chis), bytes(fs))
    assert all(len(x) == n for x in (*products, *images))
    for i, (g, h, chi, f) in enumerate(cases):
        assert tuple(x[i] for x in products) == _reduce(mul_vec(g, h), spec.moduli), (g, h)
        assert tuple(x[i] for x in images) == _reduce(act_vec(g, chi, f), spec.moduli), (g, chi, f)


def test_collection_lane_kernels_refuse_a_modulus_a_lane_cannot_hold():
    """FULL4(3) and FULL4(6) cannot be reduced by masks: both lane kernels
    refuse them with a ValueError naming the spec, rather than wrap a
    lane."""
    g = lanes([(5, 5, 5, 5, 5)])
    for spec in (full4(3), full4(6)):
        with pytest.raises(ValueError, match=re.escape(spec.name)):
            nil.mul_lanes(spec, g, g)
        with pytest.raises(ValueError, match=re.escape(spec.name)):
            nil.act_lanes(spec, g, b"\x03", b"\x01")


# The product kernel on TOWER4 index lanes, against the two-byte-lane
# lookup through the table's rows.
_EVERY_I = bytes(i for i in range(128) for _ in range(128))
_EVERY_J = bytes(range(128)) * 128


def test_tower4_products_is_the_lookup_at_every_pair():
    """At all 128^2 index pairs the kernel reads the table, as _lookup
    through its rows does."""
    tables = nil.tower4_tables()
    products = nil.tower4_products(tables, _EVERY_I, _EVERY_J)
    assert products == nil._lookup(tables.rows, _EVERY_I, _EVERY_J) == b"".join(tables.rows)


def test_tower4_product_is_the_reduced_corner_with_the_low_bits_xored():
    """rows[i][j] = rows[i & 0xFC][j & 0xF8] ^ (i & 3) ^ (j & 7) on the
    built table: the law the kernel reads the products by, since (0, 0, 0,
    d, e) is central, right multiplication by (0, 0, c, d, e) only adds c,
    d and e, and TOWER4 keeps them mod 2."""
    rows = nil.tower4_tables().rows
    for i, j in itertools.product(range(128), repeat=2):
        assert rows[i][j] == rows[i & 0xFC][j & 0xF8] ^ (i & 3) ^ (j & 7), (i, j)


def test_tower4_tables_derive_their_sub_tables_from_the_rows():
    """The kept tables are those tower4_tables_from derives from their
    rows and actions: each row padded to 256 bytes, and S_c at (a1, b1) <<
    4 | (a2, b2) the index of (a1, b1, c, 0, 0) (a2, b2, 0, 0, 0)."""
    tables = nil.tower4_tables()
    assert tables == nil.tower4_tables_from(tables.rows, tables.actions)
    assert all(t == row + bytes(128) for t, row in zip(tables.through, tables.rows))
    for c, half in enumerate(tables.halves):
        for (a1, b1), (a2, b2) in itertools.product(itertools.product(range(4), repeat=2), repeat=2):
            want = nil.tower4_index(mul_vec((a1, b1, c, 0, 0), (a2, b2, 0, 0, 0)))
            assert half[(a1 * 4 + b1) << 4 | a2 * 4 + b2] == want


_index_pairs = st.lists(st.tuples(st.integers(0, 127), st.integers(0, 127)), max_size=64)


@example([(127, 127)] * 64)
@example([(i, 127 - i) for i in range(3, 128, 4)])
@given(_index_pairs)
def test_tower4_products_matches_the_lookup_lane_by_lane(pairs):
    """On 0 to 64 lanes of any indices below 128, i with d and e set among
    them as the compatibility check passes it, and all-127 lanes: lane k
    is the lookup of (i[k], j[k]) through the table's rows."""
    tables = nil.tower4_tables()
    i, j = (bytes(column) for column in zip(*pairs)) if pairs else (b"", b"")
    got = nil.tower4_products(tables, i, j)
    assert len(got) == len(pairs)
    assert got == nil._lookup(tables.rows, i, j)
    assert list(got) == [tables.rows[i_k][j_k] for i_k, j_k in pairs]
