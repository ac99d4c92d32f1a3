"""Geometry primitives: rank, hull membership, conic decomposition, rays."""

import math
from fractions import Fraction

import pytest

from corpora import conic_corpus
from gptsim.geometry import (
    ConicResult,
    canonical_ray,
    conic_decompose,
    extreme_rays,
    in_convex_hull,
    rank,
    replay_conic,
    replay_hull,
)
from gptsim.lp import make_program, verify_farkas
from gptsim.scalars import EXACT, FLOAT, ModeError

F = Fraction


def test_rank_basic():
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([]) == 0
    assert rank([(1, 1), (2, 2)]) == 1


def test_rank_qubit_four_outcome_is_three():
    # quarter (id +- sx), quarter (id +- sy) in linear coordinates: the four
    # effects are linearly dependent but pairwise independent.
    effs = [(F(1, 2), 0, 0, F(1, 4)), (F(-1, 2), 0, 0, F(1, 4)),
            (0, F(1, 2), 0, F(1, 4)), (0, F(-1, 2), 0, F(1, 4))]
    assert rank(effs) == 3
    for i in range(4):
        for j in range(i + 1, 4):
            assert rank([effs[i], effs[j]]) == 2


def test_rank_tetrahedron_is_four(suite):
    vecs = [e.coeffs for e in suite.tetrahedron.effects]
    assert rank(vecs) == 4
    for i in range(4):
        sub = [v for k, v in enumerate(vecs) if k != i]
        assert rank(sub) == 3


def test_hull_inside_unit_square():
    gens = [(0, 0), (1, 0), (0, 1), (1, 1)]
    res = in_convex_hull((F(1, 2), F(1, 2)), gens)
    assert res.inside
    assert replay_hull(res, (F(1, 2), F(1, 2)), gens)
    # the lexicographic maximum of the convex weights in generator order
    assert res.coefficients == (F(1, 2), 0, 0, F(1, 2))


def test_hull_outside_with_functional():
    gens = [(0, 0), (1, 0), (0, 1), (1, 1)]
    res = in_convex_hull((2, 0), gens)
    assert not res.inside
    *phi, phi0 = res.functional
    assert all(sum(a * x for a, x in zip(phi, g)) + phi0 <= 0 for g in gens)
    assert sum(a * x for a, x in zip(phi, (2, 0))) + phi0 > 0
    assert replay_hull(res, (2, 0), gens)


@pytest.mark.parametrize("kind", [F, float])
def test_hull_refutation_is_a_farkas_vector_of_the_lifted_program(kind):
    # Outside the hull of the generators g, the point is outside the cone of
    # the (g, 1): the refutation (phi, phi0) is a Farkas vector of that
    # program, one entry longer than the point, and its negation is not.
    gens = [tuple(kind(x) for x in g) for g in [(0, 0), (2, 0), (0, 2)]]
    point = tuple(kind(x) for x in (F(3, 2), 1))
    res = in_convex_hull(point, gens)
    assert not res.inside and len(res.functional) == 3
    lifted = make_program(rows=[[g[0] for g in gens], [g[1] for g in gens], [1, 1, 1]],
                          rhs=(*point, 1))
    assert verify_farkas(lifted, res.functional)
    assert replay_hull(res, point, gens)
    negated = ConicResult(res.verdict, functional=tuple(-y for y in res.functional))
    assert not replay_hull(negated, point, gens)


def test_hull_idempotent_after_appending_point():
    gens = [(0.0, 0.0), (1.0, 0.0)]
    point = (5.0, 5.0)
    assert not in_convex_hull(point, gens).inside
    assert in_convex_hull(point, gens + [point]).inside


def test_conic_square_bit_unit(sq):
    # Rays given in caller order: the lexicographic maximum is u = E+ + E-.
    e_plus = sq.E.effects[0].coeffs
    e_minus = sq.E.effects[1].coeffs
    f_plus = sq.F.effects[0].coeffs
    f_minus = sq.F.effects[1].coeffs
    res = conic_decompose((0, 0, 1), [e_plus, e_minus, f_plus, f_minus])
    assert res.inside
    assert res.coefficients == (1, 1, 0, 0)


def test_conic_hexagon_unit(hexagon):
    rays = hexagon.extreme_effects
    res = conic_decompose(hexagon.unit, rays)
    assert res.inside
    assert replay_conic(res, hexagon.unit, rays)
    assert sum(1 for c in res.coefficients if c > 1e-9) <= 3
    # The symmetric three-term decomposition (2/3 of rays 1, 3, 5) is valid.
    recon = [2.0 / 3.0 * (rays[0][d] + rays[2][d] + rays[4][d]) for d in range(3)]
    assert max(abs(a - b) for a, b in zip(recon, hexagon.unit)) < 1e-12


def test_conic_outside_with_certificate():
    rays = [(1, 0), (1, 1)]
    res = conic_decompose((-1, 0), rays)
    assert not res.inside
    assert replay_conic(res, (-1, 0), rays)


def test_extreme_rays_square_bit(sq):
    rays = extreme_rays(sq.space.extreme_states)
    assert len(rays) == 4
    directions = {tuple(r) for r in rays}
    for eff in (sq.E.effects + sq.F.effects):
        scaled = canonical_ray(eff.coeffs, EXACT)
        assert scaled in directions


def test_extreme_rays_hexagon_matches_closed_form(hexagon):
    rays = extreme_rays(hexagon.space.extreme_states, mode=FLOAT)
    assert len(rays) == 6
    expected = {tuple(round(2 * x, 6) for x in e) for e in hexagon.extreme_effects}
    got = {tuple(round(x, 6) for x in r) for r in rays}
    assert got == expected


def test_extreme_rays_simplex_coordinates():
    ineqs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rays = extreme_rays(ineqs)
    assert sorted(rays) == [(F(0), F(0), F(1)), (F(0), F(1), F(0)), (F(1), F(0), F(0))]


def test_extreme_rays_dimension_limit():
    with pytest.raises(ValueError):
        extreme_rays([(1, 0, 0, 0, 0)])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_extreme_rays_polygon_rotation_symmetry(n):
    from gptsim.catalog import polygon

    theory = polygon(n)
    rays = extreme_rays(theory.space.extreme_states, mode=FLOAT)
    assert len(rays) == n
    c, s = math.cos(2 * math.pi / n), math.sin(2 * math.pi / n)
    keys = {tuple(round(x, 6) for x in r) for r in rays}
    for r in rays:
        rotated = (c * r[0] - s * r[1], s * r[0] + c * r[1], r[2])
        assert tuple(round(x, 6) for x in rotated) in keys


def test_conic_outcomes_pinned():
    # The coefficients are the lexicographic maximum in ray order, which is
    # unique, except where the span holds a line met before v is written:
    # there they are the vertex the feasibility solve reaches, which is not
    # unique. Any change of the decomposition changes this digest.
    import hashlib

    digest = hashlib.sha256()
    for v, rays in conic_corpus():
        res = conic_decompose(v, rays)
        assert replay_conic(res, v, rays)
        digest.update(repr(res).encode())
    assert digest.hexdigest() == (
        "cb1dde449f8a2e76e5ca6a048b56ba36e5211e790ac99150436325dcc8e119bc")


@pytest.mark.parametrize("v, rays, solves, coefficients", [
    # pointed cone: one lexicographic solve
    ((2, 1), [(1, 0), (1, 1), (0, 1)], 1, (2, 0, 1)),
    # a line met after nothing of v is left: the vertex of the solve stands
    ((1, 1), [(1, 1), (1, 0), (0, 1), (0, -1)], 1, (1, 0, 0, 0)),
    # a line met before: the feasibility program is solved as well
    ((1, 0), [(1, 1), (1, 0), (0, 1), (0, -1)], 2, (0, 1, 0, 0)),
])
def test_conic_decompose_solve_count(v, rays, solves, coefficients):
    from gptsim import lp

    before = lp.stats["solves"]
    res = conic_decompose(v, rays)
    assert lp.stats["solves"] - before == solves
    assert res.coefficients == coefficients


def test_conic_replay_rejects_decompositions_of_a_faulty_builder(sq, monkeypatch):
    # A builder that drops coordinate 0 (its row and its right-hand side)
    # lets the coefficients miss v there. The replay checks sum_k c_k r_k = v
    # on the rays, not a program, so it rejects every such decomposition.
    import random

    from gptsim import geometry
    from gptsim.catalog import random_observable
    from gptsim.spaces import dual_cone_rays

    rng = random.Random(30)
    effects = []
    while len(effects) < 30:
        effects.extend(e.coeffs for e in random_observable(sq.space, rng).effects)
    rays = dual_cone_rays(sq.space)
    built = geometry.make_program
    monkeypatch.setattr(geometry, "make_program",
                        lambda rows, rhs, **kw: built(rows[1:], rhs[1:], **kw))
    wrong = []
    for v in effects[:30]:
        res = conic_decompose(v, rays)
        sums = [sum(c * r[d] for c, r in zip(res.coefficients, rays)) for d in range(len(v))]
        if tuple(sums) != v:
            wrong.append((v, res))
    assert wrong
    assert not any(replay_conic(res, v, rays) for v, res in wrong)


@pytest.mark.parametrize("kind", [F, float])
def test_conic_and_hull_replays_reject_malformed_certificates(kind):
    # One entry too few or too many fails both replays in both modes, and so
    # does a NaN or an inf entry in float mode; among Fractions such an entry
    # mixes the modes and raises ModeError.
    nan, inf = float("nan"), float("inf")

    def vec(*xs):
        return tuple(kind(x) for x in xs)

    def malformed(res):
        cert = res.coefficients if res.inside else res.functional
        field_name = "coefficients" if res.inside else "functional"
        for bad in ((nan,) * len(cert), (nan, *cert[1:]), (*cert[:-1], inf),
                    cert[:-1], (*cert, cert[0])):
            yield ConicResult(res.verdict, **{field_name: bad})

    rays = [vec(1, 0), vec(1, 1), vec(0, 1)]
    gens = [vec(0, 0), vec(2, 0), vec(0, 2)]
    cases = [(replay_conic, conic_decompose, vec(2, 1), rays),
             (replay_conic, conic_decompose, vec(-1, 0), rays),
             (replay_hull, in_convex_hull, vec(F(1, 2), F(1, 2)), gens),
             (replay_hull, in_convex_hull, vec(2, 2), gens)]
    verdicts = set()
    for replay, decide, v, generators in cases:
        res = decide(v, generators)
        verdicts.add(res.verdict)
        assert replay(res, v, generators)
        for bad in malformed(res):
            if kind is F and any(isinstance(x, float) for x in bad.coefficients or bad.functional):
                with pytest.raises(ModeError):
                    replay(bad, v, generators)
            else:
                assert replay(bad, v, generators) is False
    assert verdicts == {"inside", "outside"}
    # phi = (-inf, 0) separates (-1, 0) from the cone of (1, 0) and (1, 1)
    # in every comparison, but it is no functional.
    assert replay_conic(ConicResult("outside", functional=(-inf, 0.0)),
                        (-1.0, 0.0), [(1.0, 0.0), (1.0, 1.0)]) is False


@pytest.mark.parametrize("kind", [Fraction, float])
def test_replay_conic_tests_each_clause_of_an_outside_functional(kind):
    # phi replays when phi . r <= eps on every ray and phi . v > eps; each
    # functional below breaks one of the two clauses and keeps the other
    rays = [tuple(map(kind, r)) for r in ((1, 0), (1, 1))]
    v = (kind(-1), kind(0))

    def replays(phi):
        return replay_conic(ConicResult("outside", functional=tuple(map(kind, phi))), v, rays)

    assert replays((-1, 0))
    assert not replays((-1, 2))  # phi . (1, 1) = 1 > 0, phi . v = 1
    assert not replays((0, -1))  # phi . r <= 0 on both rays, phi . v = 0
