"""Oracle suites: exhaustive verification of every cochain and group identity.

Two engines compute the same obstruction cochains by unrelated routes:

  * the cochain engine evaluates the delta2/delta3 cochain formulas;
  * the nilpotent engine multiplies out s(p(g)) g(s(p(h))) s(p(gh))^-1 in the
    mod-2 tower groups, with the collection law itself certified against the
    Magnus power-series embedding.

The suites require the two routes to agree on every twisted cocycle over
every model, pointwise where the identities are pointwise, and through the
explicit correction coboundaries where the closed forms differ from
the section boundary by a coboundary (they do: the difference is
D(c*b) resp. D(c*a + (a choose 2)*b); see delta3_correction_cochains).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from . import cohomology as coh
from . import nilpotent as nil
from .cohomology import (
    Cochain1,
    Cochain2,
    GaloisModel,
    all_twisted_cocycles,
    binom2,
    chi_minus1_over2,
    coboundary,
    cup,
    delta3_correction_cochains,
    extra_models,
    f_cocycle,
    f_homs,
    lifts_by_case,
    massey_triple,
    standard_models,
    units_model,
)


@dataclass
class CheckResult:
    name: str
    scope: str
    cases: int
    failures: list[str] = field(default_factory=list)
    # Wall-clock seconds of the check call, filled in by the suite runner.
    seconds: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = "" if self.passed else f"  e.g. {self.failures[0]}"
        return f"[{status}] {self.name} ({self.scope}): {self.cases} cases{extra}"

    def json(self) -> dict:
        """The ``verify --json`` record of this check."""
        return {
            "name": self.name,
            "scope": self.scope,
            "cases": self.cases,
            "seconds": self.seconds,
            "passed": self.passed,
            "first_failure": self.failures[0] if self.failures else None,
        }


def _timed(check, *args, start: float | None = None) -> CheckResult:
    """Run one check and record its wall-clock time on the result, counted
    from start if given, so that a build the check is the first to read is
    timed inside it."""
    if start is None:
        start = time.perf_counter()
    result = check(*args)
    result.seconds = time.perf_counter() - start
    return result


@dataclass
class _Level3:
    """Every level-3 case of one model as one batch: case j*F + k is lift j
    of lifts with f = homs[k], F = len(homs).  b, a and f are the batches
    of each case's b, a and f, and each pair holds the (x, y)
    components of one formula on every case: the closed forms, the direct
    cocycles, the corrections D(w_x) and D(w_y), the section boundary and
    the Massey products with the canonical defining systems."""

    lifts: list[tuple[Cochain1, Cochain1, Cochain1]]
    homs: list[Cochain1]
    b: Cochain1
    a: Cochain1
    f: Cochain1
    closed: tuple[Cochain2, Cochain2]
    direct: tuple[Cochain2, Cochain2]
    corrections: tuple[Cochain2, Cochain2]
    boundary: tuple[Cochain2, Cochain2]
    massey: tuple[Cochain2, Cochain2]

    @property
    def cases(self) -> int:
        return self.b.cases

    def lift(self, case: int) -> tuple[Cochain1, Cochain1, Cochain1]:
        return self.lifts[case // len(self.homs)]


def _section(*cochains: Cochain1) -> list[tuple[int, ...]]:
    """The section of nil.boundary_of_section whose values at g are the
    cochains' blocks g, for a batch of their cases."""
    L = cochains[0].cases
    block = (1 << 8 * L) - 1
    return [tuple(x.lanes >> 8 * L * g & block for x in cochains) for g in cochains[0].model.elements()]


def _massey(b: Cochain1, a: Cochain1, c: Cochain1, f: Cochain1) -> tuple[Cochain2, Cochain2]:
    """The Massey products of the closed forms' components, with the
    canonical defining systems: <b + r, b, a> with (-(b choose 2), -c), and
    minus <a + r, a, b> with (-(a choose 2), c - ab), less f cup a."""
    rho = chi_minus1_over2(b.model, b.cases)
    b2, a2 = b.reduce2(), a.reduce2()
    mx = massey_triple(b2 + rho, b2, a2, -binom2(b), -c)
    minus_my = massey_triple(a2 + rho, a2, b2, -binom2(a), c - a2.pointwise_mul(b2))
    return mx, -minus_my - cup(f, a2)


def _batch(cls, model: GaloisModel, modulus: int, weight: int, rows, times: int = 1):
    """The batch of cls on model of the cochains with the flat value rows, in
    order, the whole run repeated times times: block p holds entry p of each."""
    lanes = b"".join([bytes(column) * times for column in zip(*rows)])
    return cls.from_lanes(model, modulus, weight, int.from_bytes(lanes, "little"), len(rows) * times)


def _pair_check(name: str, model: GaloisModel, cocs: list[Cochain1], failing) -> CheckResult:
    """The check name on one batch of every pair (b, a) of cocs, b first:
    failing lists the failing cases of the batches of their b and a, and
    each one's pair is named, in case order."""
    pairs = [(b, a) for b in cocs for a in cocs]
    result = CheckResult(name, model.name, len(pairs))
    for i in failing(*(Cochain1.pack(column) for column in zip(*pairs))):
        b_i, a_i = pairs[i]
        result.failures.append(f"b={b_i.values} a={a_i.values}")
    return result


def _model_data(model: GaloisModel):
    """(cocs, homs, level3): the twisted mod-4 cocycles, and on a model of
    order <= 4 the admissible f and the _Level3 batch of every lift (b, a,
    c) of a pair of cocs with every f.  Each formula, the section boundary
    and the Massey products run once, on the whole batch, and the lifts of
    every pair of cocs come from one solve.  The delta3 formulas check
    nothing: the solver yields only c with Dc = target, the lifts they ask
    for, identity_suite checks the homs once with check_f, and the section
    boundary checks the section of every case, so nothing is checked here
    either; the boundary runs before the Massey products, whose defining
    systems a non-lift would break.
    Larger models get no homs and no level3: lifts are cheap at any order,
    but the level-3 checks of S3 and Z/8 would change the check list that
    perfbench/verify_baseline.json records exactly."""
    cocs = all_twisted_cocycles(model, 4, 1)
    if model.order > 4:
        return cocs, [], None
    homs = f_homs(model)
    pairs = [(b, a) for b in cocs for a in cocs]
    bs, as_ = (Cochain1.pack(column) for column in zip(*pairs))
    solved = lifts_by_case(bs, as_)
    lifts = [(b, a, c) for (b, a), cs in zip(pairs, solved) for c in cs]
    # Each batch is packed once, of the pairs, the lifts' c or the homs, and
    # spread to the cases by one select: lift j is case j*F + k for each k.
    owner = [p for p, cs in enumerate(solved) for _ in cs]
    spread = [j for j in range(len(lifts)) for _ in homs]
    b, a = (x.select([owner[j] for j in spread]) for x in (bs, as_))
    c = Cochain1.pack([lift[2] for lift in lifts]).select(spread)
    f = Cochain1.pack(homs).select(list(range(len(homs))) * len(lifts))
    closed = coh.delta3_closed_form(b, a, c, f)
    direct = coh.delta3_cocycle_direct(b, a, c, f)
    corrections = tuple(map(coboundary, delta3_correction_cochains(b, a, c)))
    boundary = nil.boundary_of_section(model, _section(a, b, c), f, cases=b.cases)
    level3 = _Level3(lifts, homs, b, a, f, closed, direct, corrections, boundary, _massey(b, a, c, f))
    return cocs, homs, level3


def check_binomial_addition() -> CheckResult:
    """(d1+d2 choose 2) - (d1 choose 2) - (d2 choose 2) = d1 d2 mod 2, on Z/4."""
    result = CheckResult("binomial addition law", "Z/4 x Z/4", 16)
    # binom2 of the cochain g -> g on Z/4: t[d] = (d choose 2) mod 2.
    t = binom2(Cochain1(coh.cyclic_model(4, 1), 4, 0, (0, 1, 2, 3))).values
    for d1 in range(4):
        for d2 in range(4):
            if (t[(d1 + d2) % 4] - t[d1] - t[d2]) % 2 != d1 * d2 % 2:
                result.failures.append(f"d1={d1} d2={d2}")
    return result


def check_dd_zero(model: GaloisModel) -> CheckResult:
    """D(Dc) = 0 for every cochain c with c(1) = 0, at moduli 2 and 4 and
    weights 1 and 2 (above order 4, at (2, 1) only): one batch per (m, w)
    of the cochains, in itertools.product order."""
    result = CheckResult("D compose D = 0", model.name, 0)
    for modulus, weight in ((2, 1), (2, 2), (4, 1), (4, 2))[: 4 if model.order <= 4 else 1]:
        rows = [(0, *values) for values in itertools.product(range(modulus), repeat=model.order - 1)]
        result.cases += len(rows)
        for i in coboundary(_batch(Cochain1, model, modulus, weight, rows)).non_cocycle_cases():
            result.failures.append(f"m={modulus} w={weight} c={rows[i]}")
    return result


def check_dbchoose2(model: GaloisModel, data) -> CheckResult:
    """D(b choose 2) = -(b + (chi-1)/2) cup b mod 2 for every mod-4 cocycle."""
    cocs = data[0]
    result = CheckResult("D(b choose 2) identity", model.name, len(cocs))
    b = Cochain1.pack(cocs)
    b2 = b.reduce2()
    for i in coboundary(binom2(b)).differing_cases(-cup(b2 + chi_minus1_over2(model, b.cases), b2)):
        result.failures.append(f"b={cocs[i].values}")
    return result


def check_dcb_lemma(model: GaloisModel, data, rng: random.Random, exhaustive: bool) -> CheckResult:
    """D(cb) + b cup c + c cup b = Dc(g,h) (b(g) + chi(g)^w b(h)), mod 4, for
    every mod-4 cocycle b and every mod-4 c with c(1) = 0 if exhaustive on
    a model of order <= 4, else 32 such c from rng.  Case i*C + j of one
    batch is (b_i, c_j); the factor is read from b_i's values, not cup."""
    cocs, n = data[0], model.order
    if exhaustive and n <= 4:
        rows = [(0, *values) for values in itertools.product(range(4), repeat=n - 1)]
    else:
        rows = [(0, *(rng.randrange(4) for _ in range(n - 1))) for _ in range(32)]
    C = len(rows)
    result = CheckResult("D(cb) product rule", model.name, len(cocs) * C)
    cs = _batch(Cochain1, model, 4, 2, rows, times=len(cocs))
    bs = _batch(Cochain1, model, 4, 1, [b.values for b in cocs for _ in rows])
    lhs = coboundary(cs.pointwise_mul(bs)) + cup(bs, cs) + cup(cs, bs)
    # b has weight 1: its factor at (g, h) is b(g) + chi(g) b(h) mod 4.
    factors = [[(b_g + chi * b_h) % 4 for b_g, chi in zip(b.values, model.chi) for b_h in b.values] for b in cocs]
    factor = _batch(Cochain2, model, 4, 3, [f for f in factors for _ in rows])
    rhs = coh._lane_mul(coboundary(cs).lanes, factor.lanes, n * n * cs.cases, 4)
    for i in lhs.differing_cases(Cochain2.from_lanes(model, 4, 3, rhs, cs.cases)):
        result.failures.append(f"b={cocs[i // C].values} c={rows[i % C]}")
    return result


def check_graded_symmetry(model: GaloisModel, data) -> CheckResult:
    """b cup a + a cup b = -D(ab) pointwise for mod-4 cocycles."""
    return _pair_check(
        "graded symmetry via D(ab)", model, data[0],
        lambda b, a: (cup(b, a) + cup(a, b)).differing_cases(-coboundary(a.pointwise_mul(b))),
    )


def check_cup_cocycle(model: GaloisModel, data) -> CheckResult:
    """cocycle cup cocycle is a degree-2 cocycle."""
    return _pair_check("cup of cocycles is a cocycle", model, data[0], lambda b, a: cup(b, a).non_cocycle_cases())


def check_boundary_n2(model: GaloisModel, data) -> CheckResult:
    """Section boundary at level 2 equals b cup a pointwise."""

    def failing(b, a):
        (bd,) = nil.boundary_of_section(model, _section(a, b), cases=b.cases)
        return bd.differing_cases(cup(b.reduce2(), a.reduce2()))

    return _pair_check("level-2 boundary == b cup a", model, data[0], failing)


def _differing(z: tuple[Cochain2, Cochain2], w: tuple[Cochain2, Cochain2]) -> set[int]:
    """The cases in which the pairs z and w differ in either component."""
    return {*z[0].differing_cases(w[0]), *z[1].differing_cases(w[1])}


def check_boundary_n3(model: GaloisModel, data) -> CheckResult:
    """Level-3 boundary == direct cocycles pointwise == closed forms + D(corr).

    Runs over every twisted mod-4 cocycle pair admitting a lift, every valid
    c, and every admissible f: the level-3 batch of ``data``, whose
    comparisons and 2-cocycle laws each run once on every case.  Only the
    failing cases are walked, in case order.
    """
    level3 = data[2]
    result = CheckResult("level-3 boundary == delta3 formulas", model.name, level3.cases)
    bd = level3.boundary
    corrected = tuple(z + dw for z, dw in zip(level3.closed, level3.corrections))
    direct, closed = _differing(bd, level3.direct), _differing(bd, corrected)
    not_cocycle = {*bd[0].non_cocycle_cases(), *bd[1].non_cocycle_cases()}
    for i in sorted(direct | closed | not_cocycle):
        b, a, c = level3.lift(i)
        where = f"b={b.values} a={a.values} c={c.values}"
        if i in direct:
            result.failures.append(f"direct: {where}")
        if i in closed:
            result.failures.append(f"closed+D: {where}")
        if i in not_cocycle:
            result.failures.append(f"not cocycle: {where}")
    return result


def check_massey(model: GaloisModel, data) -> CheckResult:
    """Massey products with the canonical defining systems equal the closed
    forms, on every case of the level-3 batch."""
    level3 = data[2]
    result = CheckResult("massey == closed form", model.name, level3.cases)
    for i in sorted(_differing(level3.massey, level3.closed)):
        b, a, c = level3.lift(i)
        result.failures.append(f"b={b.values} a={a.values} c={c.values}")
    return result


def _select_pair(z: tuple[Cochain2, Cochain2], indices: list[int]) -> tuple[Cochain2, Cochain2]:
    """The cases at indices of the pair z of mod-2 batches of one weight,
    in one select: x rides in bit 0 of each lane and y in bit 1."""
    x, y = z
    model, L = x.model, len(indices)
    both = Cochain2.from_lanes(model, 2, x.weight, x.lanes | y.lanes << 1, x.cases).select(indices).lanes
    ones = model._lanes[L].ones[2]
    return tuple(Cochain2.from_lanes(model, 2, x.weight, both >> bit & ones, L) for bit in (0, 1))


def check_lift_shift(model: GaloisModel, data) -> CheckResult:
    """Changing c by a cocycle eps shifts delta3 by ({-b} cup eps, {-a} cup eps).

    The lifts of (b, a) are a coset of the weight-2 mod-2 cocycles, i.e. of
    the f in ``data``, so every c + eps, an xor of lanes, is looked up among
    its lifts.  The cases are those of the level-3 batch, with eps = f:
    case j*F + k shifts lift j by homs[k], and both its closed form and the
    shifted lift's are read at f = 0, as one selection of cases each.
    """
    level3 = data[2]
    homs, F = level3.homs, len(level3.homs)
    result = CheckResult("lift shift law", model.name, level3.cases)
    zero = homs.index(coh.zero1(model, 2, 2))
    # Keyed by lanes: every b and a is a mod-4 cocycle of weight 1, and
    # every c a mod-2 cochain of weight 2, on the model.
    keys = [(b.lanes, a.lanes, c.lanes) for b, a, c in level3.lifts]
    index = {key: j for j, key in enumerate(keys)}
    eps_lanes = [eps.lanes for eps in homs]
    found = [index.get((b, a, c ^ eps)) for b, a, c in keys for eps in eps_lanes]
    missing = {i for i, k in enumerate(found) if k is None}
    # A case whose c + eps is no lift reads its own lift on both sides.
    base = [i - i % F + zero for i in range(level3.cases)]
    shifted = [j if k is None else k * F + zero for j, k in zip(base, found)]
    rho = chi_minus1_over2(model, level3.cases)
    bad = []
    moved = zip(_select_pair(level3.closed, shifted), _select_pair(level3.closed, base), (level3.b, level3.a))
    for z_shifted, z_base, x in moved:
        shift = cup(x.reduce2() + rho, level3.f)
        bad.append(set((z_shifted - z_base).differing_cases(shift)))
    for i in sorted(missing.union(*bad)):
        b, a, c = level3.lift(i)
        eps = homs[i % F]
        if i in missing:
            shifted_c = Cochain1.from_lanes(model, 2, c.weight, c.lanes ^ eps.lanes)
            result.failures.append(f"not a lift: b={b.values} a={a.values} c={shifted_c.values}")
            continue
        if i in bad[0]:
            result.failures.append(f"x-shift b={b.values} eps={eps.values}")
        if i in bad[1]:
            result.failures.append(f"y-shift a={a.values} eps={eps.values}")
    return result


def check_fourth_power_lift(model: GaloisModel, data) -> CheckResult:
    """a = 0 as a mod-4 cocycle and c = 0: both delta3 components vanish.

    Cochain shadow of the (b, fourth power) family: the second coordinate of
    such a point has trivial mod-4 Kummer cocycle everywhere.  The (b, 0, 0)
    are the lifts of ``data`` with a = 0 and c = 0, one for each b, and
    their cases, with every f, are selected from the level-3 batch.
    """
    level3 = data[2]
    F = len(level3.homs)
    lifts = [j for j, (_, a, c) in enumerate(level3.lifts) if a.is_zero() and c.is_zero()]
    cases = [j * F + k for j in lifts for k in range(F)]
    result = CheckResult("fourth-power partner vanishing", model.name, len(cases))
    closed, direct = (
        {*x.select(cases).nonzero_cases(), *y.select(cases).nonzero_cases()}
        for x, y in (level3.closed, level3.direct)
    )
    for i, case in enumerate(cases):
        b = level3.lift(case)[0]
        if i in closed:
            result.failures.append(f"closed b={b.values}")
        if i in direct:
            result.failures.append(f"direct b={b.values}")
    return result


def check_fbar_mod48() -> CheckResult:
    """(chi^2-1)/24 mod 2 is the (chi = +-3 mod 8) indicator on all units mod 48."""
    model = units_model(48)
    result = CheckResult("fbar on units mod 48", model.name, 0)
    f = f_cocycle(model)
    for chi, f_g in zip(model.chi, f.values):
        result.cases += 1
        want = 1 if chi % 8 in (3, 5) else 0
        if f_g != want:
            result.failures.append(f"chi={chi}")
    if not f.is_cocycle():
        result.failures.append("fbar is not a cocycle")
    return result


def identity_suite(model: GaloisModel, exhaustive: bool = False, seed: int = 0) -> list[CheckResult]:
    """Every degree-1/2 identity over one model, and every level-3 check where
    _model_data(model) has a level-3 batch.  The dataset, with every
    level-3 formula, boundary and Massey product of the batch, is built
    after the D compose D = 0 check, which does not read it, and timed
    inside the D(b choose 2) check, the first that does.  check_f runs once
    here on the model's f, the oracle's one check of f: the delta3 formulas
    and the section boundary take f unchecked, and the boundary, called
    once for the whole batch, still checks the section of every case."""
    rng = random.Random(seed)
    dd_zero = _timed(check_dd_zero, model)
    start = time.perf_counter()
    data = _model_data(model)
    coh.check_f(model, *data[1])
    results = [
        dd_zero,
        _timed(check_dbchoose2, model, data, start=start),
        _timed(check_dcb_lemma, model, data, rng, exhaustive),
        _timed(check_graded_symmetry, model, data),
        _timed(check_cup_cocycle, model, data),
        _timed(check_boundary_n2, model, data),
    ]
    if data[2] is not None:
        for check in (check_boundary_n3, check_massey, check_lift_shift, check_fourth_power_lift):
            results.append(_timed(check, model, data))
    return results


def run_cochain_suite(max_order: int = 8, exhaustive: bool = False, seed: int = 0) -> list[CheckResult]:
    models = [m for m in standard_models() + extra_models() if m.order <= max_order]
    if not models:
        raise ValueError(f"no cochain model has order <= {max_order}")
    results = [_timed(check_binomial_addition), _timed(check_fbar_mod48)]
    for model in models:
        results += identity_suite(model, exhaustive=exhaustive, seed=seed)
    return results


# ---------------------------------------------------------------------------
# Nilpotent engine suite
# ---------------------------------------------------------------------------


def check_associativity_tower4(tables) -> CheckResult:
    """All 128^3 triples associate, via the multiplication table of
    nil.tower4_tables(), whose rows are bytes of element indices.

    For each i, one comparison covers every (j, k): the table, all rows
    joined and translated through row i, is i(jk); the rows ij joined in
    order of j are (ij)k.  Only a mismatch walks (j, k), to find the first
    bad triple."""
    result = CheckResult("TOWER4 exhaustive associativity", "TOWER4", 128**3)
    els, (rows, _) = nil.TOWER4_ELEMENTS, tables
    all_rows = b"".join(rows)
    for i, row_i in enumerate(rows):
        if all_rows.translate(nil._through(row_i)) == b"".join([rows[ij] for ij in row_i]):
            continue
        for j, ij in enumerate(row_i):
            row_ij, row_j = rows[ij], rows[j]
            for k in range(128):
                if row_ij[k] != row_i[row_j[k]]:
                    result.failures.append(f"({els[i]}, {els[j]}, {els[k]})")
                    # the triples checked so far, this one included
                    result.cases = (i * 128 + j) * 128 + k + 1
                    return result
    return result


def check_inverses_tower4(tables) -> CheckResult:
    """g g^-1 = 1 = g^-1 g for the reduced inv_vec of every g, with both
    products read from the multiplication table of nil.tower4_tables(),
    whose index 0 is the identity."""
    result = CheckResult("TOWER4 inverses", "TOWER4", 128)
    rows, _ = tables
    for i, g in enumerate(nil.TOWER4_ELEMENTS):
        j = nil.tower4_index(nil.inv_vec(g))
        if not rows[i][j] == 0 == rows[j][i]:
            result.failures.append(str(g))
    return result


def check_switch_identity(tables) -> CheckResult:
    """x^b y^a = y^a x^b [x,y]^{ab} [[x,y],y]^{b C(a+1,2)} [[x,y],x]^{a C(b+1,2)},
    with x^b, y^a and their product read from the table of nil.tower4_tables()."""
    result = CheckResult("generator switch law", "TOWER4, (a,b) mod 4", 16)
    rows, _ = tables
    x, y = nil.tower4_index((0, 1, 0, 0, 0)), nil.tower4_index((1, 0, 0, 0, 0))
    # n-fold products, so that the check exercises the table
    x_pow, y_pow = [0], [0]
    for _ in range(3):
        x_pow.append(rows[x_pow[-1]][x])
        y_pow.append(rows[y_pow[-1]][y])
    for a, b in itertools.product(range(4), repeat=2):
        rhs = (a, b, a * b, a * (b * (b + 1) // 2), b * (a * (a + 1) // 2))
        if rows[x_pow[b]][y_pow[a]] != nil.tower4_index(rhs):
            result.failures.append(f"a={a} b={b}")
    return result


def check_commutator_exact() -> CheckResult:
    """[x^a, y^a] = [x,y]^{a^2} [[x,y],x]^{-a C(a,2)} [[x,y],y]^{-a C(a,2)} over Z."""
    result = CheckResult("commutator power law (exact layer)", "free class-3 group", 0)
    for a in range(8):
        result.cases += 1
        xa, ya = (0, a, 0, 0, 0), (a, 0, 0, 0, 0)
        comm = nil.mul_vec(
            nil.mul_vec(xa, ya), nil.mul_vec(nil.inv_vec(xa), nil.inv_vec(ya))
        )
        t = a * (a * (a - 1) // 2)
        if comm != (0, 0, a * a, -t, -t):
            result.failures.append(f"a={a}: {comm}")
    return result


def check_magnus(spec: nil.QuotientSpec, batch, label: str) -> CheckResult:
    """Every collection product equals its embed/multiply/extract product,
    on one batch of nilpotent's byte lanes: batch is (g, h, gh), each five
    exponent lanes, with gh the collection products reduced into spec, and
    lane i of gh must equal nil.magnus_lanes's lane i.  One comparison
    covers the batch; only a mismatch walks its lanes, to name every
    failing pair."""
    g, h, gh = batch
    result = CheckResult("collection == magnus", label, len(g[0]))
    magnus = nil.magnus_lanes(spec, g, h)
    if b"".join(magnus) != b"".join(gh):
        for g_i, h_i, gh_i, magnus_i in zip(zip(*g), zip(*h), zip(*gh), zip(*magnus)):
            if gh_i != magnus_i:
                result.failures.append(f"{g_i} * {h_i}: {gh_i} != {magnus_i}")
    return result


def _timed_magnus(spec: nil.QuotientSpec, products, source, label: str) -> CheckResult:
    """check_magnus on the batch products(spec, source), timed from before
    the batch is built, so that FULL4(8)'s collection products, one
    nil.mul_lanes batch, count in its record."""
    start = time.perf_counter()
    return _timed(check_magnus, spec, products(spec, source), label, start=start)


def _table_products(spec: nil.QuotientSpec, tables):
    """check_magnus's batch of every pair of elements of spec, TOWER3 or
    TOWER4, with the products read from the multiplication table of
    nil.tower4_tables() and reduced into spec: TOWER3's elements are
    TOWER4's with d = e = 0, and its moduli divide TOWER4's.  The pairs and
    their products are TOWER4 indices, in order of g and then of h, and
    each lane is one translate of them through an exponent of each index
    reduced into spec."""
    els, (rows, _) = nil.TOWER4_ELEMENTS, tables
    reduced = [nil._reduce(g, spec.moduli) for g in els]
    factors = bytes([i for i, g in enumerate(els) if reduced[i] == g])
    g = b"".join([bytes([i]) * len(factors) for i in factors])
    h = factors * len(factors)
    gh = b"".join([factors.translate(nil._through(rows[i])) for i in factors])
    exponents = [nil._through(bytes(column)) for column in zip(*reduced)]
    return tuple(tuple(x.translate(e) for e in exponents) for x in (g, h, gh))


def _series_products(spec: nil.QuotientSpec, draw: bytes):
    """check_magnus's batch of the pairs of exponent vectors in draw, ten
    bytes per pair, g's exponents and then h's: the lanes of g and h are
    sliced out of draw, and their collection products are one
    nil.mul_lanes batch, reduced into spec."""
    g, h = (tuple(draw[k::10] for k in range(start, start + 5)) for start in (0, 5))
    return g, h, nil.mul_lanes(spec, g, h)


def check_magnus_roundtrip() -> CheckResult:
    """Every element of TOWER4, as one batch, is the extraction of its
    embedding."""
    result = CheckResult("magnus round trip", "TOWER4", 128)
    spec, els = nil.TOWER4, nil.TOWER4_ELEMENTS
    lanes = tuple(bytes(column) for column in zip(*els))
    back = nil._extract_lanes(spec, nil._embed_lanes(spec, lanes), len(els))
    if back != lanes:
        result.failures = [str(g) for g, g_back in zip(els, zip(*back)) if g_back != g]
    return result


def check_galois_automorphism(tables) -> CheckResult:
    """g(xy) = g(x) g(y) for every (chi, f) and every pair, on indices: the
    action and multiplication tables of nil.tower4_tables().

    For each (chi, f), one comparison covers every (i, j): the table, all
    rows joined and translated through the action a, is a(ij); row a(i)
    read at a(j), one translate of a per i, is a(i) a(j).  Only a mismatch
    walks (i, j), to find the first bad pair."""
    result = CheckResult("galois_act is an automorphism", "TOWER4, all (chi, f)", 0)
    els, (rows, act) = nil.TOWER4_ELEMENTS, tables
    through = nil._through
    all_rows = b"".join(rows)
    for (chi, f), a in act.items():
        products_of_images = b"".join([a.translate(through(rows[ai])) for ai in a])
        if all_rows.translate(through(a)) == products_of_images:
            result.cases += 128**2
            continue
        for i, row in enumerate(rows):
            a_row = rows[a[i]]
            for j, ij in enumerate(row):
                result.cases += 1
                if a[ij] != a_row[a[j]]:
                    result.failures.append(f"chi={chi} f={f} g={els[i]} h={els[j]}")
                    return result
    return result


def check_galois_composition(tables) -> CheckResult:
    """(chi1, f1) after (chi2, f2) acts as (chi1 chi2, f1 + chi1^2 f2), on the
    action tables of nil.tower4_tables().

    For each (chi1, chi2, f1, f2), one comparison covers every element: the
    inner action translated through the outer one.  Only a mismatch walks
    the elements, to find the first bad one."""
    result = CheckResult("galois composition cocycle law", "TOWER4", 0)
    els, (_, act) = nil.TOWER4_ELEMENTS, tables
    for chi1, chi2 in itertools.product((1, 3, 5, 7), repeat=2):
        for f1, f2 in itertools.product((0, 1), repeat=2):
            outer, inner = act[chi1, f1], act[chi2, f2]
            both = act[chi1 * chi2 % 8, (f1 + chi1 * chi1 * f2) % 2]
            if inner.translate(nil._through(outer)) == both:
                result.cases += len(els)
                continue
            for i, g in enumerate(els):
                result.cases += 1
                if outer[inner[i]] != both[i]:
                    result.failures.append(f"chi=({chi1},{chi2}) f=({f1},{f2}) g={g}")
                    return result
    return result


def _compat_cases(rng: random.Random):
    """2000 random (g, h, chi, f) as byte lanes: g and h five lanes each,
    with exponents mod 4, chi one lane of 1, 3, 5 or 7, and f one lane mod
    2.  Case k's values are the low bits of its own 12 bytes of one
    rng.randbytes draw, which is uniform since 4 and 2 divide 256."""
    draws = rng.randbytes(12 * 2000).translate(bytes(range(4)) * 64)
    g, h = (tuple(draws[k::12] for k in range(start, start + 5)) for start in (0, 5))
    return g, h, draws[10::12].translate(bytes((1, 3, 5, 7)) * 64), draws[11::12].translate(bytes((0, 1)) * 128)


def check_quotient_compat(tables, rng: random.Random) -> CheckResult:
    """Reducing FULL4(4) into TOWER4, and TOWER4 into TOWER3, respects the
    product and the Galois action, on 2000 random pairs.  Each side is a
    TOWER4 index, of every case at once: the FULL4(4) side is one
    nil.mul_lanes and one nil.act_lanes batch, its lanes turned into
    indices by masks; the TOWER4 side reads the tables of
    nil.tower4_tables() by nil._lookup; and an index masked with 0xFC (d =
    e = 0) is its reduction into TOWER3.  Only the cases on which a side
    differs are walked, in order, each naming its g (and h)."""
    rows, act = tables
    g, h, chi, f = _compat_cases(rng)
    n = len(chi)
    result = CheckResult("FULL4(4) -> TOWER4 -> TOWER3 compatibility", "projections", n)
    full4 = nil.full4(4)
    i, j = nil._tower4_indices(g), nil._tower4_indices(h)
    ij = nil._lookup(rows, i, j)
    # The action of (chi, f) is act's entry chi - 1 + f, in its key order.
    which = (nil._ints(chi) + nil._ints(f) - coh._ones(n)).to_bytes(n, "little")
    tower3 = nil._HEAD[3]
    sides = (
        (nil._tower4_indices(nil.mul_lanes(full4, g, h)), ij),
        (nil._tower4_indices(nil.act_lanes(full4, g, chi, f)), nil._lookup(list(act.values()), which, i)),
        (nil._lookup(rows, i.translate(tower3), j.translate(tower3)).translate(tower3), ij.translate(tower3)),
    )
    if all(x == y for x, y in sides):
        return result
    bad = [[x_k != y_k for x_k, y_k in zip(x, y)] for x, y in sides]
    for k in range(n):
        g_k, h_k = tuple(x[k] for x in g), tuple(x[k] for x in h)
        for label, side in zip((f"mul {g_k} {h_k}", f"act {g_k}", f"tower3 {g_k} {h_k}"), bad):
            if side[k]:
                result.failures.append(label)
    return result


def _full4_8_pairs(rng: random.Random) -> bytes:
    """10^4 random pairs of exponent vectors mod 8, as one rng.randbytes
    draw of ten bytes per pair, g's exponents and then h's.  Each exponent
    is the low three bits of its byte, which is uniform since 8 divides
    256."""
    return rng.randbytes(10 * 10_000).translate(bytes(range(8)) * 32)


def run_nilpotent_suite(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    # Read by every check of TOWER3 or TOWER4 products.  If no earlier pass
    # or section boundary built them, they are built here, whole, and timed
    # inside the first check that reads them, associativity.
    start = time.perf_counter()
    tables = nil.tower4_tables()
    # The FULL4(8) pairs are drawn from rng before check_quotient_compat
    # draws its cases.
    return [
        _timed(check_associativity_tower4, tables, start=start),
        _timed(check_inverses_tower4, tables),
        _timed(check_switch_identity, tables),
        _timed(check_commutator_exact),
        _timed(check_magnus_roundtrip),
        _timed_magnus(nil.TOWER3, _table_products, tables, "TOWER3 exhaustive"),
        _timed_magnus(nil.TOWER4, _table_products, tables, "TOWER4 exhaustive"),
        _timed_magnus(nil.full4(8), _series_products, _full4_8_pairs(rng), "FULL4(8), 10^4 random pairs"),
        _timed(check_galois_automorphism, tables),
        _timed(check_galois_composition, tables),
        _timed(check_quotient_compat, tables, rng),
    ]


def run_suites(
    suite: str = "all", max_order: int = 8, exhaustive: bool = False, seed: int = 0
) -> list[CheckResult]:
    """Run the chosen suites; each result carries the seconds its check took.

    ``exhaustive`` reaches only the cochain suite: there it enumerates every
    D(cb) cochain on models of order <= 4 instead of sampling 32.
    """
    results: list[CheckResult] = []
    if suite in ("cochain", "all"):
        results += run_cochain_suite(max_order=max_order, exhaustive=exhaustive, seed=seed)
    if suite in ("nilpotent", "all"):
        results += run_nilpotent_suite(seed=seed)
    return results
