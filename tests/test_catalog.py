"""Named theories: classical, square bit, polygons, qubit suite."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gptsim.catalog import (
    MAX_POLYGON_N,
    classical,
    hexagon_explicit_certificate,
    hexagon_noise_example,
    irreducible_count_formula,
    octahedron_test,
    polygon,
    polygon_irreducibles,
    qubit_compatibility_bracket,
    random_observable,
    xyz_threshold_bracket,
)
from gptsim.lp import CertificateError
from gptsim.postprocessing import (
    apply,
    are_equivalent,
    is_postprocessing_of,
)
from gptsim.qubit import QubitSpace, random_qubit_observable
from gptsim.reproduce import arc_rule_count
from gptsim.scalars import Tolerance
from gptsim.simulation import (
    CompatibilityResult,
    is_simulable,
    is_simulation_irreducible,
    replay_simulation,
    smin,
)
from gptsim.spaces import is_valid_observable, validate_state_space

F = Fraction


def test_classical_bit_reads_everything(rng):
    bit = classical(2)
    assert validate_state_space(bit.space).valid
    for _ in range(5):
        obs = random_observable(bit.space, rng)
        assert is_postprocessing_of(obs, bit.distinguishing).simulable


def test_classical_trit_single_irreducible_class(trit, rng):
    assert is_simulation_irreducible(trit.distinguishing)
    for _ in range(5):
        obs = random_observable(trit.space, rng)
        assert is_simulable(obs, [trit.distinguishing]).simulable
    # the polygon(3) catalog also has exactly one class, and its value
    # table is a relabelled identity like the distinguishing observable's
    cat = polygon_irreducibles(3)
    assert cat.count == 1 == irreducible_count_formula(3)
    member = cat.observables[0]
    values = sorted(
        sorted(round(eff(s), 9) for s in cat.theory.space.extreme_states)
        for eff in member.effects)
    assert values == [[0.0, 0.0, 1.0]] * 3


def test_square_bit_simulates_small_corpus(sq, rng):
    for _ in range(20):
        obs = random_observable(sq.space, rng)
        cert = is_simulable(obs, [sq.E, sq.F])
        assert cert.simulable
        assert replay_simulation(cert, obs, [sq.E, sq.F])


def test_square_bit_catalog_is_e_and_f(sq):
    assert is_simulation_irreducible(sq.E)
    assert is_simulation_irreducible(sq.F)
    assert not are_equivalent(sq.E, sq.F)
    assert not is_simulable(sq.E, [sq.F]).simulable


def test_square_bit_effectively_dichotomic(sq, rng):
    # witness: everything is simulable from two dichotomic observables
    for _ in range(10):
        obs = random_observable(sq.space, rng)
        assert is_simulable(obs, [sq.E, sq.F]).simulable
    assert smin([sq.E, sq.F], [sq.E, sq.F]) == 2


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_polygon_defining_identities(n):
    theory = polygon(n)
    assert validate_state_space(theory.space, ).valid
    u = theory.unit
    if n % 2 == 0:
        for k in range(n):
            e_k = theory.extreme_effects[k]
            e_opp = theory.extreme_effects[(k + n // 2) % n]
            total = tuple(a + b for a, b in zip(e_k, e_opp))
            assert max(abs(a - b) for a, b in zip(total, u)) < 1e-12
    else:
        for k in range(n):
            f_k = theory.f_effects[k]
            g_k = theory.extreme_effects[k]
            total = tuple(a + b for a, b in zip(f_k, g_k))
            assert max(abs(a - b) for a, b in zip(total, u)) < 1e-12
    for obs in theory.dichotomic_observables:
        assert is_valid_observable(obs)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_dichotomic_observables_are_made_when_read(n):
    # the catalog never reads them, so neither it nor `polygon` makes them
    assert "dichotomic_observables" not in vars(polygon_irreducibles(n).theory)
    theory = polygon(n)
    assert "dichotomic_observables" not in vars(theory)
    rays, m = theory.extreme_effects, n // 2
    pairs = ([(rays[k], rays[k + m]) for k in range(m)] if n % 2 == 0
             else list(zip(theory.f_effects, rays)))
    assert [tuple(e.coeffs for e in obs.effects) for obs in theory.dichotomic_observables] == pairs
    assert all(obs.labels == ("+", "-") and obs.space is theory.space
               for obs in theory.dichotomic_observables)
    assert theory.dichotomic_observables is theory.dichotomic_observables


@pytest.mark.parametrize("n", [5, 7, 9])
def test_odd_polygon_ray_intersection_identity(n):
    # f_k is the point where the two upward rays straddling its antipode
    # meet the downward ray: with the upward representatives scaled to the
    # same height, their midpoint is exactly f_k.
    theory = polygon(n)
    sec = 1.0 / math.cos(math.pi / n)
    height = sec / (1.0 + sec)

    def up_ray(k):  # direction of the positive-cone ray at index k (1-based)
        ang = (2 * k - 1) * math.pi / n
        return (-math.cos(ang), -math.sin(ang), 1.0)

    for k in range(1, n + 1):
        f_k = theory.f_effects[k - 1]
        a = up_ray((k + (n - 1) // 2 - 1) % n + 1)
        b = up_ray((k + (n + 1) // 2 - 1) % n + 1)
        mid = tuple(height * 0.5 * (x + y) for x, y in zip(a, b))
        assert max(abs(p - q) for p, q in zip(mid, f_k)) < 1e-12


def test_hexagon_two_thirds_identity(hexagon):
    e = hexagon.extreme_effects
    total = tuple(2.0 / 3.0 * (e[0][d] + e[2][d] + e[4][d]) for d in range(3))
    assert max(abs(a - b) for a, b in zip(total, hexagon.unit)) < 1e-12


def test_polygon4_is_square_bit_up_to_relabelling(sq):
    theory = polygon(4)
    table_polygon = sorted(
        sorted(round(float(sum(c * s for c, s in zip(e, st))), 9)
               for st in theory.space.extreme_states)
        for e in theory.extreme_effects)
    effects_sq = [o.effects[i] for o in (sq.E, sq.F) for i in range(2)]
    table_sq = sorted(
        sorted(round(float(eff(st)), 9) for st in sq.space.extreme_states)
        for eff in effects_sq)
    assert table_polygon == table_sq


@pytest.mark.parametrize("n", range(3, MAX_POLYGON_N + 1))
def test_polygon_counts_match_formula_and_brute_force(n):
    cat = polygon_irreducibles(n)
    assert cat.count == irreducible_count_formula(n) == arc_rule_count(n)
    if n % 2 == 0:
        m = n // 2
        assert cat.dichotomic_count == m
        assert cat.trichotomic_count == m * (m - 1) * (m - 2) // 3
    else:
        assert cat.dichotomic_count == 0
    assert "observables" not in vars(cat)  # counting builds no member


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 12, MAX_POLYGON_N])
def test_polygon_catalog_members_follow_index_sets(n):
    cat = polygon_irreducibles(n)
    rays = cat.theory.extreme_effects
    assert len(cat.observables) == cat.count
    for obs, t in zip(cat.observables, cat.index_sets):
        assert obs.space is cat.theory.space
        picked = [rays[k - 1] for k in t]
        if len(t) == 2:
            assert obs.labels == ("+", "-")
            assert [e.coeffs for e in obs.effects] == picked
            continue
        assert obs.labels == ("1", "2", "3")
        for eff, ray in zip(obs.effects, picked):
            e, r = np.array(eff.coeffs), np.array(ray)
            c = e @ r / (r @ r)
            assert c > 1e-9
            assert np.allclose(e, c * r, rtol=0, atol=1e-12)


def test_polygon_catalogs_compare_by_value():
    a, b = polygon_irreducibles(8), polygon_irreducibles(8)
    assert a == b and hash(a) == hash(b)
    assert a.observables  # a cached member tuple takes no part in equality
    assert a == b
    assert a != polygon_irreducibles(7)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_polygon_catalog_members_verified(n):
    cat = polygon_irreducibles(n)
    for obs in cat.observables:
        assert is_valid_observable(obs)
        assert is_simulation_irreducible(obs)
    for a, b in itertools.combinations(cat.observables[:5], 2):
        assert not are_equivalent(a, b)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_polygon_catalog_rotation_closure(n):
    cat = polygon_irreducibles(n)
    index_sets = {frozenset(t) for t in cat.index_sets}
    for t in cat.index_sets:
        rotated = frozenset((k % n) + 1 for k in t)
        assert rotated in index_sets


def test_hexagon_noise_thresholds():
    for lam, expected in ((0.0, False), (0.1, False), (0.25, True),
                          (0.5, True), (0.6, True), (0.9, True)):
        assert hexagon_noise_example(lam).certificate.simulable is expected
    ex = hexagon_noise_example(0.0)
    assert is_simulation_irreducible(ex.observable)


def test_hexagon_explicit_certificate_replays():
    ex = hexagon_noise_example(0.25)
    cert = hexagon_explicit_certificate()
    assert replay_simulation(cert, ex.observable, list(ex.simulators))


def test_qubit_suite_construction(suite):
    bloch = [e.coeffs[:3] for e in suite.tetrahedron.effects]
    total = tuple(sum(v[d] for v in bloch) for d in range(3))
    assert max(abs(x) for x in total) < 1e-12
    for v in bloch:
        assert abs(sum(x * x for x in v) - 0.25) < 1e-12  # half-length vectors
    assert suite.xt(1).effects[0].coeffs == (1.0, 0.0, 0.0, 0.5)
    ct = suite.ct(0.5)
    a = 0.5 / math.sqrt(2)
    assert max(abs(x - y) for x, y in zip(ct.effects[0].coeffs, (a, a, 0, 0.5))) < 1e-15


def test_octahedron_boundary_cases(suite):
    assert all(octahedron_test(suite.X).values())
    assert all(octahedron_test(suite.ct(1 / math.sqrt(2))).values())
    assert not all(octahedron_test(suite.ct(0.8)).values())


def test_octahedron_agrees_with_lp(suite):
    xyz = [o.as_float() for o in (suite.X, suite.Y, suite.Z)]
    rng = random.Random(321)
    for _ in range(40):
        obs = random_qubit_observable(rng, boundary_margin=1e-7)
        assert all(octahedron_test(obs).values()) == \
            is_simulable(obs, xyz).simulable


def test_compat_bracket_examples(suite):
    assert qubit_compatibility_bracket([suite.X, suite.Y], 16).verdict == \
        "incompatible"
    from gptsim.postprocessing import Postprocessing

    nu = Postprocessing(("+", "-"), ("+", "-"), ((0.8, 0.2), (0.3, 0.7)))
    post = apply(nu, suite.X.as_float())
    for facets in (8, 16):
        res = qubit_compatibility_bracket([suite.X, post], facets)
        assert res.verdict == "compatible"
    t_low = 0.5  # below 1/sqrt(3): jointly measurable
    res = qubit_compatibility_bracket(
        [suite.xt(t_low), suite.yt(t_low), suite.zt(t_low)], 8)
    assert res.verdict == "compatible"
    t_high = 0.6
    res = qubit_compatibility_bracket(
        [suite.xt(t_high), suite.yt(t_high), suite.zt(t_high)], 8)
    assert res.verdict == "incompatible"


def test_xyz_threshold_bracket_one_call_per_t(monkeypatch):
    from gptsim import catalog

    seen = []

    def counting(targets, facets, tol):
        seen.append(targets[0].effects[0].coeffs[0])
        return qubit_compatibility_bracket(targets, facets, tol)

    monkeypatch.setattr(catalog, "qubit_compatibility_bracket", counting)
    lo, hi = xyz_threshold_bracket(facets=16, t_tol=4e-3)
    assert (lo, hi) == (0.57421875, 0.578125)
    assert len(seen) == len(set(seen)) == 8


def test_xyz_threshold_bracket_stops_on_undecided(monkeypatch):
    from gptsim import catalog

    verdicts = {}

    def undecided_third(targets, facets, tol):
        t = targets[0].effects[0].coeffs[0]
        if len(verdicts) == 2:
            res = CompatibilityResult("undecided")
        else:
            res = qubit_compatibility_bracket(targets, facets, tol)
        verdicts[t] = res.verdict
        return res

    monkeypatch.setattr(catalog, "qubit_compatibility_bracket", undecided_third)
    lo, hi = xyz_threshold_bracket(facets=16, t_tol=4e-3)
    assert len(verdicts) == 3 and list(verdicts.values())[-1] == "undecided"
    t_undecided = list(verdicts)[-1]
    assert lo < t_undecided < hi
    assert verdicts.get(lo, "compatible") == "compatible"
    assert verdicts.get(hi, "incompatible") == "incompatible"


def test_xyz_threshold_bracket_rejects_nonpositive_t_tol():
    # A bisection to width zero ends in a near-threshold program instead.
    for t_tol in (0, -1, float("nan")):
        with pytest.raises(ValueError, match="t_tol must be positive"):
            xyz_threshold_bracket(facets=8, t_tol=t_tol)


@pytest.mark.parametrize("facets", [8, 128])
def test_bracket_near_threshold_farkas_scale(suite, facets):
    # 1.1e-7 above 1/sqrt(3) the bases are nearly singular; the float
    # decision still refutes, with a positive Farkas scale.
    t = 0.577350378036499
    res = qubit_compatibility_bracket([suite.xt(t), suite.yt(t), suite.zt(t)], facets)
    assert res.verdict == "incompatible"


@pytest.mark.parametrize("facets", [8, 16, 128])
def test_bracket_near_threshold_never_compatible(suite, facets):
    # Soundness this close to the threshold: a float solution that fails
    # replay raises CertificateError, so none can read as "compatible".
    t = 0.577350378036499
    try:
        res = qubit_compatibility_bracket([suite.xt(t), suite.yt(t), suite.zt(t)], facets)
    except CertificateError:
        return
    assert res.verdict == "incompatible"


def test_compat_bracket_rejects_trichotomic(suite):
    with pytest.raises(ValueError):
        qubit_compatibility_bracket([suite.tetrahedron], 16)


def test_compat_bracket_rejects_invalid_targets(suite):
    # The refutation bound needs joint effects that sum to the identity.
    from gptsim.qubit import QubitEffect, dichotomic
    from gptsim.spaces import Observable

    unnormalized = Observable((("+", QubitEffect(0.2, (0.5, 0.0, 0.0))),
                               ("-", QubitEffect(0.2, (-0.5, 0.0, 0.0)))), QubitSpace())
    too_long = dichotomic("+", "-", QubitEffect(0.0, (1.5, 0.0, 0.0)))
    for bad in (unnormalized, too_long):
        with pytest.raises(ValueError, match="valid"):
            qubit_compatibility_bracket([suite.Y, bad], 16)


def _unbiased(vec):
    from gptsim.qubit import QubitEffect, dichotomic

    return dichotomic("+", "-", QubitEffect(0.0, tuple(float(x) for x in vec)))


def _marginals_reproduce(res, targets) -> bool:
    """Every marginal of a compatible verdict's joint is its target's
    effect within eps, the last outcomes, which the program drops, too."""
    return all(abs(a - b) <= 1e-9
               for chan, target in zip(res.marginal_channels, targets)
               for got, want in zip(apply(chan, res.joint).effects, target.effects)
               for a, b in zip(got.coeffs, want.coeffs))


@pytest.mark.parametrize("facets", [8, 16])
def test_compat_bracket_decides_busch_pairs(facets):
    # Busch: unbiased a, b are compatible iff |a+b| + |a-b| <= 2. The strata
    # reach within 0.01 of the threshold on both sides.
    rng = np.random.default_rng(20 + facets)
    for lo, hi in ((1.2, 1.9), (1.9, 1.99), (2.01, 2.1), (2.1, 2.4)):
        for _ in range(6):
            while True:
                a, b = rng.normal(size=(2, 3))
                a *= rng.uniform(0.3, 1.0) / np.linalg.norm(a)
                b *= rng.uniform(0.3, 1.0) / np.linalg.norm(b)
                value = np.linalg.norm(a + b) + np.linalg.norm(a - b)
                if lo <= value <= hi:
                    break
            targets = [_unbiased(a), _unbiased(b)]
            res = qubit_compatibility_bracket(targets, facets)
            assert res.verdict == ("compatible" if value < 2 else "incompatible")
            assert not res.compatible or _marginals_reproduce(res, targets)


@pytest.mark.parametrize("facets", [8, 16])
def test_compat_bracket_decides_rotated_triples(facets):
    # Rotation invariance: an orthogonal triple of unbiased dichotomic
    # observables of Bloch length t is compatible iff t <= 1/sqrt(3).
    rng = np.random.default_rng(40 + facets)
    t_star = 1 / math.sqrt(3)
    ts = [t for t in rng.uniform(0.45, 0.62, size=30) if abs(t - t_star) >= 2e-3]
    for t in ts[:24]:
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        targets = [_unbiased(t * r) for r in rotation]
        res = qubit_compatibility_bracket(targets, facets)
        assert res.verdict == ("compatible" if t < t_star else "incompatible")
        assert not res.compatible or _marginals_reproduce(res, targets)
    xyz = [_unbiased(0.5774 * r) for r in np.eye(3)]
    assert qubit_compatibility_bracket(xyz, facets).verdict == "incompatible"
    # 1e-7 below the threshold the final bases are nearly singular, and an
    # artificial pivoted out at its rounding level would spread it over the
    # solution, which then fails replay.
    for _ in range(3):
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        targets = [_unbiased((t_star - 1e-7) * r) for r in rotation]
        res = qubit_compatibility_bracket(targets, facets)
        assert res.verdict == "compatible" and _marginals_reproduce(res, targets)


@pytest.mark.parametrize("n", range(3, MAX_POLYGON_N + 1))
def test_polygon_enumeration_matches_one_triple_at_a_time(n):
    # the reference the pinned digest was taken from: its own np.linalg.det
    # and np.linalg.solve call per triple; eps = 5e-2 rejects members, so
    # there the accepted set moves with eps and must still agree
    theory = polygon(n)
    rays = np.array(theory.extreme_effects)
    unit = np.array(theory.unit)
    triples = np.array(list(itertools.combinations(range(n), 3)))
    mats = [rays[t].T for t in triples]
    dets = np.array([np.linalg.det(m) for m in mats])
    coeffs = np.array([np.linalg.solve(m, unit) for m in mats])
    for eps in (1e-12, 1e-9, 1e-6, 1e-3, 5e-2):
        kept = (np.abs(dets) > eps) & np.all(coeffs > eps, axis=1)
        cat = polygon_irreducibles(n, Tolerance(eps))
        pairs = cat.index_sets[:cat.dichotomic_count]
        assert cat.index_sets == pairs + tuple(map(tuple, (triples[kept] + 1).tolist()))
        assert np.array_equal(cat.scaled, coeffs[kept][:, :, None] * rays[triples[kept]])


@pytest.mark.parametrize("n", range(3, MAX_POLYGON_N + 1))
def test_cramer_values_stay_within_the_slack_of_lu(n):
    # `polygon_irreducibles` decides membership by Cramer's values and keeps
    # LU's coefficients; the two agree on a triple unless eps lies within
    # their difference of its values, which stays a factor of ten below a
    # slack of 1e-10 on every triple (5.6e-12 at most)
    slack = 1e-10
    theory = polygon(n)
    rays = np.array(theory.extreme_effects)
    triples = np.array(list(itertools.combinations(range(n), 3)))
    mats = rays[triples].transpose(0, 2, 1)
    dets = np.linalg.det(mats)
    coeffs = np.linalg.solve(mats, np.broadcast_to(theory.unit, (len(mats), 3))[..., None])[..., 0]
    x, y, z = rays.T
    minors = np.multiply.outer(x, y) - np.multiply.outer(y, x)
    i, j, k = triples.T
    numerators = np.stack((minors[j, k], minors[k, i], minors[i, j]), axis=1)
    cramer_dets = z[i] * numerators[:, 0] + z[j] * numerators[:, 1] + z[k] * numerators[:, 2]
    assert np.abs(cramer_dets - dets).max() < slack / 10
    assert np.abs(numerators / cramer_dets[:, None] - coeffs).max() < slack / 10


def test_polygon_enumeration_factors_only_the_members(monkeypatch):
    # a deterministic work count: Cramer's rule decides membership, so no
    # determinant is taken, and one LU stack solves the members alone, not
    # all C(40, 3) = 9880 triples
    calls = {"det": [], "solve": []}

    def recording(name):
        factor = getattr(np.linalg, name)

        def recorded(a, *rest):
            calls[name].append(np.array(a))
            return factor(a, *rest)
        return recorded

    for name in calls:
        monkeypatch.setattr(np.linalg, name, recording(name))
    cat = polygon_irreducibles(40)
    assert cat.trichotomic_count == 2280
    assert not calls["det"]
    (solved,) = calls["solve"]
    rays = np.array(cat.theory.extreme_effects)
    members = np.array(cat.index_sets[cat.dichotomic_count:]) - 1
    assert np.array_equal(solved, rays[members].transpose(0, 2, 1))


def test_polygon_triple_members_sum_to_the_unit():
    for n in range(3, MAX_POLYGON_N + 1):
        cat = polygon_irreducibles(n)
        assert len(cat.scaled) == cat.trichotomic_count
        assert np.allclose(cat.scaled.sum(axis=1), cat.theory.unit, rtol=0, atol=1e-12)


def test_polygon_catalogs_pinned():
    # Every catalog coefficient up to MAX_POLYGON_N; the digest was taken
    # from the one-triple-at-a-time enumeration, which
    # `test_polygon_enumeration_matches_one_triple_at_a_time` replays.
    import hashlib

    digest = hashlib.sha256()
    for n in range(3, 41):
        cat = polygon_irreducibles(n)
        digest.update(repr((n, cat.index_sets, cat.dichotomic_count,
                            [obs.outcomes for obs in cat.observables])).encode())
    assert digest.hexdigest() == (
        "8300a00d851a4a878feec143a3767b693e6c7a58a9ec954ca58970adbb891d6d")


def test_named_qubit_observables_pairwise_inequivalent(suite):
    # finitely many named representatives stand in for the continuum of
    # inequivalent irreducible qubit observables
    named = [o.as_float() for o in (suite.X, suite.Y, suite.Z, suite.tetrahedron)]
    for a, b in itertools.combinations(named, 2):
        assert not are_equivalent(a, b)


def test_random_observables_both_modes(sq, hexagon, rng):
    for _ in range(5):
        exact = random_observable(sq.space, rng)
        assert is_valid_observable(exact)
        assert exact.mode == "exact"
    for _ in range(5):
        floaty = random_observable(hexagon.space, rng)
        assert is_valid_observable(floaty)
        assert floaty.mode == "float"


def test_random_observable_seed_reproducible(sq):
    a = random_observable(sq.space, random.Random(42))
    b = random_observable(sq.space, random.Random(42))
    assert a == b
