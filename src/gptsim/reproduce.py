"""The reproduction suite: every headline result as a checkable criterion.

Each criterion is a function returning a CriterionResult; the registry keys
them by a short id. `run_all` executes them in order. The test suite and
the command line both drive this module, so a green run here is the
artifact's acceptance gate.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .catalog import (
    classical,
    hexagon_explicit_certificate,
    hexagon_noise_example,
    irreducible_count_formula,
    octahedron_test,
    polygon,
    polygon_irreducibles,
    qubit_suite,
    random_observable,
    square_bit,
    tetrahedron_rational,
    xyz_threshold_bracket,
)
from .geometry import in_convex_hull, rank, replay_hull
from .postprocessing import are_equivalent, is_postprocessing_of
from .qubit import random_qubit_observable
from .scalars import field
from .simulation import (
    check_closure_laws,
    decompose_to_irreducibles,
    is_simulable,
    is_simulation_irreducible,
    noise_content,
    noise_monotonicity_check,
    replay_simulation,
    smin,
)
from .spaces import Observable, mix_observables, trivial_observable

BASE_SEED = 20260809


@dataclass(frozen=True)
class CriterionResult:
    id: str
    passed: bool
    details: str


def _result(cid, passed, details):
    return CriterionResult(cid, bool(passed), details)


def arc_rule_count(n: int) -> int:
    """Independent counting oracle from the index combinatorics.

    A ray triple yields an observable exactly when the three circular arcs
    between the chosen indices are each shorter than half the polygon; for
    even polygons the antipodal pairs add the dichotomic members.
    """
    triples = 0
    for combo in itertools.combinations(range(n), 3):
        a, b, c = sorted(combo)
        arcs = (b - a, c - b, n - (c - a))
        if all(2 * arc < n for arc in arcs):
            triples += 1
    pairs = n // 2 if n % 2 == 0 else 0
    return pairs + triples


def criterion_polygon_counts() -> CriterionResult:
    rows = []
    ok = True
    for n in range(3, 17):
        cat = polygon_irreducibles(n)
        formula = irreducible_count_formula(n)
        brute = arc_rule_count(n)
        good = cat.count == formula == brute
        ok = ok and good
        rows.append(f"n={n}: enumerated={cat.count} formula={formula} brute={brute}")
    return _result("polygon-counts", ok, "; ".join(rows))


def criterion_square_bit_universality() -> CriterionResult:
    theory = square_bit()
    rng = random.Random(BASE_SEED + 2)
    corpus = [random_observable(theory.space, rng) for _ in range(100)]
    base = [theory.E, theory.F]
    all_sim = all(is_simulable(a, base).simulable for a in corpus)
    k = smin(corpus, base, k_max=2)
    only_e = all(is_simulable(a, [theory.E]).simulable for a in corpus)
    only_f = all(is_simulable(a, [theory.F]).simulable for a in corpus)
    ok = all_sim and k == 2 and not only_e and not only_f
    return _result("square-bit-universality", ok,
                   f"100/100 simulable from (E,F): {all_sim}; smin={k}; "
                   f"E alone suffices: {only_e}; F alone suffices: {only_f}")


def criterion_qubit_ct_threshold() -> CriterionResult:
    suite = qubit_suite()
    sims = [suite.X.as_float(), suite.Y.as_float()]

    def simulable(t):
        return is_simulable(suite.ct(t), sims).simulable

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if simulable(mid):
            lo = mid
        else:
            hi = mid
    threshold = 0.5 * (lo + hi)
    target = 1.0 / math.sqrt(2.0)
    thr_ok = abs(threshold - target) <= 1e-6

    xyz = [o.as_float() for o in (suite.X, suite.Y, suite.Z)]
    rng = random.Random(BASE_SEED + 3)
    disagreements = 0
    for _ in range(200):
        obs = random_qubit_observable(rng, boundary_margin=1e-7)
        oct_ok = all(octahedron_test(obs).values())
        lp_ok = is_simulable(obs, xyz).simulable
        if oct_ok != lp_ok:
            disagreements += 1
    ok = thr_ok and disagreements == 0
    return _result("qubit-ct-threshold", ok,
                   f"threshold={threshold:.9f} (target {target:.9f}); "
                   f"octahedron vs LP disagreements: {disagreements}/200")


def criterion_tetrahedron() -> CriterionResult:
    suite = qubit_suite()
    rat = tetrahedron_rational()
    checks = {}

    b_obs = rat["B"]
    rank_ok = rank([e.coeffs for e in b_obs.effects]) == 4
    weighted = all(
        2 * e.coeffs[0] ** 2 + 6 * e.coeffs[1] ** 2 + e.coeffs[2] ** 2
        == (2 * e.coeffs[3]) ** 2
        for e in b_obs.effects)
    checks["B irreducible"] = rank_ok and weighted \
        and is_simulation_irreducible(suite.tetrahedron)

    cert_a = is_simulable(rat["A"], [b_obs])
    checks["A simulable from B"] = cert_a.simulable \
        and replay_simulation(cert_a, rat["A"], [b_obs])

    hull = in_convex_hull(rat["hull_point"], rat["hull_generators"])
    checks["A(+) outside hull"] = (not hull.inside) and replay_hull(
        hull, rat["hull_point"], rat["hull_generators"])

    binar = [rat[f"C{i}"] for i in (1, 2, 3, 4)]
    cert_c = is_simulable(b_obs, binar)
    checks["B not simulable from binarizations"] = (not cert_c.simulable) \
        and replay_simulation(cert_c, b_obs, binar)

    tricho = [rat["D1"], rat["D2"]]
    cert_d = is_simulable(b_obs, tricho)
    checks["B not simulable from trichotomic pair"] = (not cert_d.simulable) \
        and replay_simulation(cert_d, b_obs, tricho)

    ok = all(checks.values())
    return _result("tetrahedron", ok,
                   "; ".join(f"{k}: {v}" for k, v in checks.items()))


def criterion_hexagon_noise() -> CriterionResult:
    verdicts = {}
    for lam in (0.0, 0.1, 0.25, 0.5, 0.9):
        verdicts[lam] = hexagon_noise_example(lam).certificate.simulable
    expected = {0.0: False, 0.1: False, 0.25: True, 0.5: True, 0.9: True}
    pattern_ok = verdicts == expected

    ex = hexagon_noise_example(0.25)
    replay_ok = replay_simulation(hexagon_explicit_certificate(), ex.observable,
                                  ex.simulators)
    return _result("hexagon-noise", pattern_ok and replay_ok,
                   f"verdicts={verdicts}; explicit certificate replay: {replay_ok}")


def criterion_qubit_triplet_compat() -> CriterionResult:
    lo, hi = xyz_threshold_bracket(facets=128, t_tol=4e-3)
    target = 1.0 / math.sqrt(3.0)
    width_ok = (hi - lo) <= 0.02
    contains = lo <= target <= hi

    suite = qubit_suite()
    xyz = [suite.X, suite.Y, suite.Z]
    k = smin(xyz, xyz, k_max=3)
    ok = width_ok and contains and k == 3
    return _result("qubit-triplet-compat", ok,
                   f"bracket=({lo:.5f}, {hi:.5f}) width={hi - lo:.5f} "
                   f"contains 0.57735: {contains}; smin(X,Y,Z)={k}")


def criterion_closure_laws() -> CriterionResult:
    reports = []
    ok = True
    sq = square_bit()
    rng = random.Random(BASE_SEED + 7)
    sample = [random_observable(sq.space, rng) for _ in range(50)]
    diag = check_closure_laws(sample, [sq.E, sq.F])
    ok = ok and diag.ok
    reports.append(f"square bit: {diag.checks} checks, "
                   f"{len(diag.violations)} violations")
    pent = polygon_irreducibles(5)
    rng = random.Random(BASE_SEED + 8)
    sample = [random_observable(pent.theory.space, rng) for _ in range(50)]
    diag = check_closure_laws(sample, list(pent.observables))
    ok = ok and diag.ok
    reports.append(f"pentagon: {diag.checks} checks, "
                   f"{len(diag.violations)} violations")
    return _result("closure-laws", ok, "; ".join(reports))


def criterion_structural_cross_validation() -> CriterionResult:
    reports = []
    ok = True
    for n in range(3, 9):
        cat = polygon_irreducibles(n)
        irr_ok = all(is_simulation_irreducible(a) for a in cat.observables)
        blocked = True
        for i, a in enumerate(cat.observables):
            others = [b for j, b in enumerate(cat.observables) if j != i]
            if not others:
                continue
            if is_simulable(a, others).simulable:
                blocked = False
        rng = random.Random(BASE_SEED + 100 + n)
        replays = 0
        for _ in range(50):
            obs = random_observable(cat.theory.space, rng)
            dec = decompose_to_irreducibles(obs)
            if replay_simulation(dec.certificate, obs, list(dec.observables)):
                replays += 1
        good = irr_ok and blocked and replays == 50
        ok = ok and good
        reports.append(f"n={n}: criterion={irr_ok} blocked={blocked} "
                       f"replays={replays}/50")
    return _result("structural-cross-validation", ok, "; ".join(reports))


def criterion_noise_content() -> CriterionResult:
    sq = square_bit()
    half = Fraction(1, 2)
    triv = trivial_observable(sq.space, [("a", half), ("b", half)])
    exact_one = noise_content(triv).value == 1

    ok_mix = True
    for theory_space, base_rng in ((sq.space, BASE_SEED + 9),
                                   (polygon(5).space, BASE_SEED + 10)):
        rng = random.Random(base_rng)
        F = field(theory_space.mode)
        for lam_num, lam_den in ((1, 10), (3, 10), (7, 10)):
            for _ in range(5):
                b_obs = random_observable(theory_space, rng)
                lam = F.coerce(Fraction(lam_num, lam_den))
                uniform = F.one / b_obs.n_outcomes
                triv_n = trivial_observable(
                    theory_space, [(lab, uniform) for lab in b_obs.labels])
                mixed = mix_observables([triv_n, b_obs], [lam, 1 - lam])
                w = noise_content(mixed).value
                if not float(w) >= float(lam) - 1e-9:
                    ok_mix = False

    ok_mono = True
    sims = [sq.E, sq.F]
    rng = random.Random(BASE_SEED + 11)
    for _ in range(10):
        a_obs = random_observable(sq.space, rng)
        if not noise_monotonicity_check(a_obs, sims).holds:
            ok_mono = False
    pent = polygon_irreducibles(5)
    rng = random.Random(BASE_SEED + 12)
    for _ in range(10):
        a_obs = random_observable(pent.theory.space, rng)
        if not noise_monotonicity_check(a_obs, list(pent.observables)).holds:
            ok_mono = False

    ok = exact_one and ok_mix and ok_mono
    return _result("noise-content", ok,
                   f"w(trivial)==1: {exact_one}; mixtures bound: {ok_mix}; "
                   f"monotonicity: {ok_mono}")


def criterion_exact_float_agreement() -> CriterionResult:
    sq = square_bit()
    tri = classical(3)
    rng = random.Random(BASE_SEED + 13)
    sq_corpus = [sq.E, sq.F] + [random_observable(sq.space, rng) for _ in range(10)]
    tri_corpus = [tri.distinguishing] + [random_observable(tri.space, rng)
                                         for _ in range(5)]
    suite = qubit_suite()
    # bare coefficient vectors: the rescaled tetrahedron twin shares no
    # state space with the qubit's linear coordinates
    qubit_corpus = [Observable(o.outcomes)
                    for o in (suite.X, suite.Y, suite.Z, suite.T)]
    rat = tetrahedron_rational()
    qubit_corpus += [rat["B"], rat["A"], rat["C1"], rat["D1"]]

    calls = 0
    agreements = 0

    def check(exact_verdict, float_verdict):
        nonlocal calls, agreements
        calls += 1
        agreements += int(bool(exact_verdict) == bool(float_verdict))

    for corpus in (sq_corpus, tri_corpus, qubit_corpus):
        for a, b in itertools.combinations(corpus[:6], 2):
            check(is_simulable(a, [b]).simulable,
                  is_simulable(a.as_float(), [b.as_float()]).simulable)
            check(is_postprocessing_of(a, b).simulable,
                  is_postprocessing_of(a.as_float(), b.as_float()).simulable)
            check(are_equivalent(a, b),
                  are_equivalent(a.as_float(), b.as_float()))
    for corpus, base in ((sq_corpus, [sq.E, sq.F]),
                         (tri_corpus, [tri.distinguishing])):
        fbase = [b.as_float() for b in base]
        for a in corpus:
            check(is_simulable(a, base).simulable,
                  is_simulable(a.as_float(), fbase).simulable)
            check(is_simulation_irreducible(a),
                  is_simulation_irreducible(a.as_float()))
            check(noise_content(a).value == 0,
                  abs(float(noise_content(a.as_float()).value)) <= 1e-9)

    ok = calls > 0 and agreements == calls
    return _result("exact-float-agreement", ok,
                   f"{agreements}/{calls} decision calls agree")


CRITERIA = {
    "polygon-counts": criterion_polygon_counts,
    "square-bit-universality": criterion_square_bit_universality,
    "qubit-ct-threshold": criterion_qubit_ct_threshold,
    "tetrahedron": criterion_tetrahedron,
    "hexagon-noise": criterion_hexagon_noise,
    "qubit-triplet-compat": criterion_qubit_triplet_compat,
    "closure-laws": criterion_closure_laws,
    "structural-cross-validation": criterion_structural_cross_validation,
    "noise-content": criterion_noise_content,
    "exact-float-agreement": criterion_exact_float_agreement,
}


def run_criterion(cid: str) -> CriterionResult:
    if cid not in CRITERIA:
        raise KeyError(f"unknown criterion id {cid!r}")
    return CRITERIA[cid]()


def run_all() -> list:
    return [CRITERIA[cid]() for cid in CRITERIA]
