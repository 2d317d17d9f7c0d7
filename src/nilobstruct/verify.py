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
    DefiningSystem,
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
    lift_cochains,
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


def _timed(check, *args) -> CheckResult:
    """Run one check and record its wall-clock time on the result."""
    start = time.perf_counter()
    result = check(*args)
    result.seconds = time.perf_counter() - start
    return result


def _model_data(model: GaloisModel):
    """(cocs, homs, lifts): the twisted mod-4 cocycles, and on a model of order
    <= 4 the admissible f and every lift (b, a, c, forms) of a pair of cocs,
    validated once with every f; forms holds (closed form, direct cocycles)
    per f, in homs order.  Larger models get no homs and no lifts."""
    cocs = all_twisted_cocycles(model, 4, 1)
    if model.order > 4:
        return cocs, [], []
    homs = f_homs(model)
    closed, direct = coh._delta3_closed_form, coh._delta3_cocycle_direct
    lifts = []
    for b in cocs:
        for a in cocs:
            for c in lift_cochains(model, b, a):
                coh._check_delta3_inputs(b, a, c, *homs)
                lifts.append((b, a, c, [(closed(b, a, c, f), direct(b, a, c, f)) for f in homs]))
    return cocs, homs, lifts


def check_binomial_addition() -> CheckResult:
    """(d1+d2 choose 2) - (d1 choose 2) - (d2 choose 2) = d1 d2 mod 2, on Z/4."""
    result = CheckResult("binomial addition law", "Z/4 x Z/4", 16)
    t = coh._BINOM2_MOD2
    for d1 in range(4):
        for d2 in range(4):
            if (t[(d1 + d2) % 4] - t[d1] - t[d2]) % 2 != d1 * d2 % 2:
                result.failures.append(f"d1={d1} d2={d2}")
    return result


def check_dd_zero(model: GaloisModel) -> CheckResult:
    """D of a degree-1 coboundary target: D(Dc) = 0 for every cochain."""
    result = CheckResult("D compose D = 0", model.name, 0)
    for modulus, weight in ((2, 1), (2, 2), (4, 1), (4, 2)):
        for values in itertools.product(range(modulus), repeat=model.order - 1):
            c = Cochain1(model, modulus, weight, (0, *values))
            result.cases += 1
            if not coboundary(c).is_cocycle():
                result.failures.append(f"m={modulus} w={weight} c={c.values}")
        if model.order > 4:
            break
    return result


def check_dbchoose2(model: GaloisModel, data) -> CheckResult:
    """D(b choose 2) = -(b + (chi-1)/2) cup b mod 2 for every mod-4 cocycle."""
    result = CheckResult("D(b choose 2) identity", model.name, 0)
    rho = chi_minus1_over2(model)
    for b in data[0]:
        result.cases += 1
        lhs = coboundary(binom2(b))
        rhs = -cup(b.reduce2() + rho, b.reduce2())
        if lhs.values != rhs.values:
            result.failures.append(f"b={b.values}")
    return result


def check_dcb_lemma(model: GaloisModel, data, rng: random.Random, exhaustive: bool) -> CheckResult:
    """D(cb) + b cup c + c cup b = Dc(g,h) (b(g) + chi(g)^w b(h)), mod 4."""
    result = CheckResult("D(cb) product rule", model.name, 0)
    n = model.order
    if exhaustive and n <= 4:
        cochains = [
            Cochain1(model, 4, 2, (0, *values))
            for values in itertools.product(range(4), repeat=n - 1)
        ]
    else:
        cochains = [
            Cochain1(model, 4, 2, (0, *(rng.randrange(4) for _ in range(n - 1))))
            for _ in range(32)
        ]
    for b in data[0]:
        for c in cochains:
            result.cases += 1
            dc = coboundary(c)
            lhs = coboundary(c.pointwise_mul(b)) + cup(b, c) + cup(c, b)
            rows = []
            for g in model.elements():
                chi_g = pow(model.chi[g], 1, 4)
                rows.append(
                    tuple(
                        dc.values[g][h] * (b.values[g] + chi_g * b.values[h]) % 4
                        for h in model.elements()
                    )
                )
            if lhs.values != tuple(rows):
                result.failures.append(f"b={b.values} c={c.values}")
    return result


def check_graded_symmetry(model: GaloisModel, data) -> CheckResult:
    """b cup a + a cup b = -D(ab) pointwise for mod-4 cocycles."""
    result = CheckResult("graded symmetry via D(ab)", model.name, 0)
    cocycles, _, _ = data
    for b in cocycles:
        for a in cocycles:
            result.cases += 1
            lhs = cup(b, a) + cup(a, b)
            rhs = -coboundary(a.pointwise_mul(b))
            if lhs.values != rhs.values:
                result.failures.append(f"b={b.values} a={a.values}")
    return result


def check_cup_cocycle(model: GaloisModel, data) -> CheckResult:
    """cocycle cup cocycle is a degree-2 cocycle."""
    result = CheckResult("cup of cocycles is a cocycle", model.name, 0)
    cocycles, _, _ = data
    for b in cocycles:
        for a in cocycles:
            result.cases += 1
            if not cup(b, a).is_cocycle():
                result.failures.append(f"b={b.values} a={a.values}")
    return result


def check_boundary_n2(model: GaloisModel, data) -> CheckResult:
    """Section boundary at level 2 equals b cup a pointwise."""
    result = CheckResult("level-2 boundary == b cup a", model.name, 0)
    cocycles, _, _ = data
    for b in cocycles:
        for a in cocycles:
            result.cases += 1
            p = [(a.values[g], b.values[g]) for g in model.elements()]
            (bd,) = nil.boundary_of_section(model, p, 2)
            if bd.values != cup(b.reduce2(), a.reduce2()).values:
                result.failures.append(f"b={b.values} a={a.values}")
    return result


def check_boundary_n3(model: GaloisModel, data) -> CheckResult:
    """Level-3 boundary == direct cocycles pointwise == closed forms + D(corr).

    Runs over every twisted mod-4 cocycle pair admitting a lift, every valid
    c, and every admissible f, against the formulas stored in ``data``.
    """
    result = CheckResult("level-3 boundary == delta3 formulas", model.name, 0)
    _, homs, lifts = data
    for b, a, c, forms in lifts:
        p = [(a.values[g], b.values[g], c.values[g]) for g in model.elements()]
        dwx, dwy = (coboundary(w) for w in delta3_correction_cochains(b, a, c))
        for f, (closed, direct) in zip(homs, forms):
            bd_x, bd_y = nil.boundary_of_section(model, p, 3, f)
            result.cases += 1
            if (bd_x.values, bd_y.values) != (direct[0].values, direct[1].values):
                result.failures.append(f"direct: b={b.values} a={a.values} c={c.values}")
            corrected = (closed[0] + dwx, closed[1] + dwy)
            if (bd_x.values, bd_y.values) != (corrected[0].values, corrected[1].values):
                result.failures.append(f"closed+D: b={b.values} a={a.values} c={c.values}")
            if not (bd_x.is_cocycle() and bd_y.is_cocycle()):
                result.failures.append(f"not cocycle: b={b.values} a={a.values} c={c.values}")
    return result


def check_massey(model: GaloisModel, data) -> CheckResult:
    """Massey products with the canonical defining systems equal the closed forms.

    The Massey products do not depend on f, so they are taken once per lift
    and compared with the closed form stored for every f in ``data``.
    """
    result = CheckResult("massey == closed form", model.name, 0)
    rho = chi_minus1_over2(model)
    _, homs, lifts = data
    for b, a, c, forms in lifts:
        b2, a2 = b.reduce2(), a.reduce2()
        mx = massey_triple(b2 + rho, b2, a2, DefiningSystem(-binom2(b), -c))
        c_minus_ab = c - a2.pointwise_mul(b2)
        minus_my = massey_triple(a2 + rho, a2, b2, DefiningSystem(-binom2(a), c_minus_ab))
        for f, (closed, _) in zip(homs, forms):
            result.cases += 1
            my = -minus_my - cup(f, a2)
            if (mx.values, my.values) != (closed[0].values, closed[1].values):
                result.failures.append(f"b={b.values} a={a.values} c={c.values}")
    return result


def check_lift_shift(model: GaloisModel, data) -> CheckResult:
    """Changing c by a cocycle eps shifts delta3 by ({-b} cup eps, {-a} cup eps).

    The lifts of (b, a) are a coset of the weight-2 mod-2 cocycles, i.e. of
    the f in ``data``, so every c + eps is looked up among its lifts, by the
    closed form stored at f = 0.
    """
    result = CheckResult("lift shift law", model.name, 0)
    rho = chi_minus1_over2(model)
    _, homs, lifts = data
    zero = homs.index(coh.zero1(model, 2, 2))
    closed = {(b.values, a.values, c.values): forms[zero][0] for b, a, c, forms in lifts}
    for b, a, c, _ in lifts:
        base = closed[b.values, a.values, c.values]
        minus_b, minus_a = b.reduce2() + rho, a.reduce2() + rho
        for eps in homs:
            result.cases += 1
            key = (b.values, a.values, (c + eps).values)
            shifted = closed.get(key)
            if shifted is None:
                result.failures.append(f"not a lift: b={key[0]} a={key[1]} c={key[2]}")
                continue
            if (shifted[0] - base[0]).values != cup(minus_b, eps).values:
                result.failures.append(f"x-shift b={b.values} eps={eps.values}")
            if (shifted[1] - base[1]).values != cup(minus_a, eps).values:
                result.failures.append(f"y-shift a={a.values} eps={eps.values}")
    return result


def check_fourth_power_lift(model: GaloisModel, data) -> CheckResult:
    """a = 0 as a mod-4 cocycle and c = 0: both delta3 components vanish.

    Cochain shadow of the (b, fourth power) family: the second coordinate of
    such a point has trivial mod-4 Kummer cocycle everywhere.  The (b, 0, 0)
    are the lifts of ``data`` with a = 0 and c = 0, one for each b.
    """
    result = CheckResult("fourth-power partner vanishing", model.name, 0)
    for b, a, c, forms in data[2]:
        if not (a.is_zero() and c.is_zero()):
            continue
        for (comp_x, comp_y), direct in forms:
            result.cases += 1
            if not (comp_x.is_zero() and comp_y.is_zero()):
                result.failures.append(f"closed b={b.values}")
            if not (direct[0].is_zero() and direct[1].is_zero()):
                result.failures.append(f"direct b={b.values}")
    return result


def check_fbar_mod48() -> CheckResult:
    """(chi^2-1)/24 mod 2 is the (chi = +-3 mod 8) indicator on all units mod 48."""
    model = units_model(48)
    result = CheckResult("fbar on units mod 48", model.name, 0)
    f = f_cocycle(model)
    for g in model.elements():
        result.cases += 1
        chi = model.chi[g]
        want = 1 if chi % 8 in (3, 5) else 0
        if f.values[g] != want:
            result.failures.append(f"chi={chi}")
    if not f.is_cocycle():
        result.failures.append("fbar is not a cocycle")
    return result


def identity_suite(model: GaloisModel, exhaustive: bool = False, seed: int = 0) -> list[CheckResult]:
    """Every degree-1/2 identity over one model, and every level-3 check where
    _model_data(model) has lifts; its build is timed by no check."""
    rng = random.Random(seed)
    data = _model_data(model)
    results = [
        _timed(check_dd_zero, model),
        _timed(check_dbchoose2, model, data),
        _timed(check_dcb_lemma, model, data, rng, exhaustive),
        _timed(check_graded_symmetry, model, data),
        _timed(check_cup_cocycle, model, data),
        _timed(check_boundary_n2, model, data),
    ]
    if data[2]:
        for check in (check_boundary_n3, check_massey, check_lift_shift, check_fourth_power_lift):
            results.append(_timed(check, model, data))
    return results


def run_cochain_suite(max_order: int = 8, exhaustive: bool = False, seed: int = 0) -> list[CheckResult]:
    models = [m for m in standard_models() + extra_models(max_order) if m.order <= max_order]
    results = [_timed(check_binomial_addition), _timed(check_fbar_mod48)]
    for model in models:
        results += identity_suite(model, exhaustive=exhaustive, seed=seed)
    return results


# ---------------------------------------------------------------------------
# Nilpotent engine suite
# ---------------------------------------------------------------------------


def _tower4_table():
    """TOWER4's elements, the multiplication table on their indices, and
    act[chi, f]: the index of galois_act(chi, f, g) for each element g."""
    els = nil.all_elements(nil.TOWER4)
    index = {e.vec: i for i, e in enumerate(els)}
    table = [[index[nil.nf_mul(g, h).vec] for h in els] for g in els]
    act = {
        (chi, f): [index[nil.galois_act(chi, f, g).vec] for g in els]
        for chi, f in itertools.product((1, 3, 5, 7), (0, 1))
    }
    return els, table, act


def check_associativity_tower4(tower4_table) -> CheckResult:
    """All 128^3 triples associate, via the multiplication table of _tower4_table()."""
    result = CheckResult("TOWER4 exhaustive associativity", "TOWER4", 128**3)
    els, table, _ = tower4_table
    for i in range(128):
        row_i = table[i]
        for j in range(128):
            ij = table[i][j]
            row_ij = table[ij]
            row_j = table[j]
            for k in range(128):
                if row_ij[k] != row_i[row_j[k]]:
                    result.failures.append(f"({els[i].vec}, {els[j].vec}, {els[k].vec})")
                    return result
    return result


def check_inverses_tower4() -> CheckResult:
    result = CheckResult("TOWER4 inverses", "TOWER4", 128)
    for g in nil.all_elements(nil.TOWER4):
        if not (nil.nf_mul(g, nil.nf_inv(g)).is_identity and nil.nf_mul(nil.nf_inv(g), g).is_identity):
            result.failures.append(str(g.vec))
    return result


def check_switch_identity() -> CheckResult:
    """x^b y^a = y^a x^b [x,y]^{ab} [[x,y],y]^{b C(a+1,2)} [[x,y],x]^{a C(b+1,2)}."""
    result = CheckResult("generator switch law", "TOWER4, (a,b) mod 4", 16)
    spec = nil.TOWER4
    x, y = nil.gen_x(spec), nil.gen_y(spec)
    for a in range(4):
        for b in range(4):
            lhs = nil.nf_mul(nil.nf_pow(x, b), nil.nf_pow(y, a))
            rhs = nil.element(
                spec, a=a, b=b, c=a * b,
                d=a * (b * (b + 1) // 2), e=b * (a * (a + 1) // 2),
            )
            if lhs != rhs:
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


def check_magnus(spec: nil.QuotientSpec, pairs, label: str) -> CheckResult:
    """Every pair's collection product equals its embed/multiply/extract product.

    A finite tower's elements are embedded once each and looked up per pair;
    FULL4 pairs are random and barely repeat, so each factor is embedded
    where it is used and no series outlives its pair.
    """
    result = CheckResult("collection == magnus", label, 0)
    ms = nil.min_magnus_modulus(spec)
    if spec.kind == "FULL4":
        def embed(g):
            return nil.magnus_embed(g, ms)
    else:
        embed = {g: nil.magnus_embed(g, ms) for g in nil.all_elements(spec)}.__getitem__
    for g, h in pairs:
        result.cases += 1
        lhs = nil.nf_mul(g, h)
        rhs = nil.nf_from_magnus(nil.magnus_mul(embed(g), embed(h)), spec)
        if lhs != rhs:
            result.failures.append(f"{g.vec} * {h.vec}: {lhs.vec} != {rhs.vec}")
    return result


def check_magnus_roundtrip() -> CheckResult:
    result = CheckResult("magnus round trip", "TOWER4", 128)
    ms = nil.min_magnus_modulus(nil.TOWER4)
    for g in nil.all_elements(nil.TOWER4):
        if nil.nf_from_magnus(nil.magnus_embed(g, ms), nil.TOWER4) != g:
            result.failures.append(str(g.vec))
    return result


def check_galois_automorphism(tower4_table) -> CheckResult:
    """g(xy) = g(x) g(y) for every (chi, f) and every pair, on indices: the
    action and multiplication tables of _tower4_table()."""
    result = CheckResult("galois_act is an automorphism", "TOWER4, all (chi, f)", 0)
    els, table, act = tower4_table
    for (chi, f), a in act.items():
        for i, row in enumerate(table):
            a_row = table[a[i]]
            for j, ij in enumerate(row):
                result.cases += 1
                if a[ij] != a_row[a[j]]:
                    result.failures.append(f"chi={chi} f={f} g={els[i].vec} h={els[j].vec}")
                    return result
    return result


def check_galois_composition(tower4_table) -> CheckResult:
    """(chi1, f1) after (chi2, f2) acts as (chi1 chi2, f1 + chi1^2 f2), on the
    action tables of _tower4_table()."""
    result = CheckResult("galois composition cocycle law", "TOWER4", 0)
    els, _, act = tower4_table
    for chi1, chi2 in itertools.product((1, 3, 5, 7), repeat=2):
        for f1, f2 in itertools.product((0, 1), repeat=2):
            outer, inner = act[chi1, f1], act[chi2, f2]
            both = act[chi1 * chi2 % 8, (f1 + chi1 * chi1 * f2) % 2]
            for i, g in enumerate(els):
                result.cases += 1
                if outer[inner[i]] != both[i]:
                    result.failures.append(f"chi=({chi1},{chi2}) f=({f1},{f2}) g={g.vec}")
                    return result
    return result


def check_quotient_compat(rng: random.Random) -> CheckResult:
    result = CheckResult("FULL4(4) -> TOWER4 -> TOWER3 compatibility", "projections", 0)
    spec4 = nil.full4(4)
    for _ in range(2000):
        g = nil.element(spec4, *(rng.randrange(4) for _ in range(5)))
        h = nil.element(spec4, *(rng.randrange(4) for _ in range(5)))
        chi = rng.choice((1, 3, 5, 7))
        f = rng.randrange(2)
        result.cases += 1
        g4, h4 = nil.project(g, nil.TOWER4), nil.project(h, nil.TOWER4)
        if nil.project(nil.nf_mul(g, h), nil.TOWER4) != nil.nf_mul(g4, h4):
            result.failures.append(f"mul {g.vec} {h.vec}")
        if nil.project(nil.galois_act(chi, f, g), nil.TOWER4) != nil.galois_act(chi, f, g4):
            result.failures.append(f"act {g.vec}")
        if nil.project(nil.nf_mul(g4, h4), nil.TOWER3) != nil.nf_mul(
            nil.project(g4, nil.TOWER3), nil.project(h4, nil.TOWER3)
        ):
            result.failures.append(f"tower3 {g.vec} {h.vec}")
    return result


def run_nilpotent_suite(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    spec8 = nil.full4(8)
    random_pairs = [
        (
            nil.element(spec8, *(rng.randrange(8) for _ in range(5))),
            nil.element(spec8, *(rng.randrange(8) for _ in range(5))),
        )
        for _ in range(10_000)
    ]
    tower4 = nil.all_elements(nil.TOWER4)
    tower3 = nil.all_elements(nil.TOWER3)
    # Built once per pass, timed by no check, shared by the table-driven checks.
    tower4_table = _tower4_table()
    return [
        _timed(check_associativity_tower4, tower4_table),
        _timed(check_inverses_tower4),
        _timed(check_switch_identity),
        _timed(check_commutator_exact),
        _timed(check_magnus_roundtrip),
        _timed(check_magnus, nil.TOWER3, itertools.product(tower3, tower3), "TOWER3 exhaustive"),
        _timed(check_magnus, nil.TOWER4, itertools.product(tower4, tower4), "TOWER4 exhaustive"),
        _timed(check_magnus, spec8, random_pairs, "FULL4(8), 10^4 random pairs"),
        _timed(check_galois_automorphism, tower4_table),
        _timed(check_galois_composition, tower4_table),
        _timed(check_quotient_compat, rng),
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
