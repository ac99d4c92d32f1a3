"""Geometry primitives: rank, hull membership, conic decomposition, rays."""

import math
from fractions import Fraction

import pytest

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
from gptsim.scalars import EXACT, FLOAT

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
    from gptsim.qubit import linear_coords

    vecs = [linear_coords(e) for e in suite.tetrahedron.effects]
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


def _conic_corpus():
    # Seeded exact decompositions: the dual-cone rays of the square bit,
    # classical(3) and classical(4) in canonical and shuffled order, two
    # spans that hold a line, and 300 random rational cones in dims 2-4
    # (about a third hold a line; for about a third, v is a random vector,
    # often outside the cone).
    import random

    from gptsim.catalog import classical, random_observable, square_bit
    from gptsim.spaces import dual_cone_rays

    rng = random.Random(7)
    cases = []
    for theory in (square_bit(), classical(3), classical(4)):
        space = theory.space
        rays = list(dual_cone_rays(space))
        shuffled = rays[:]
        rng.shuffle(shuffled)
        vs = [space.unit] + [e.coeffs for _ in range(4)
                             for e in random_observable(space, rng).effects]
        cases.extend((v, order) for v in vs for order in (rays, shuffled))
    # The line (0, 1), (0, -1) is met after nothing of v is left, then before.
    cases.append(((1, 1), [(1, 1), (1, 0), (0, 1), (0, -1)]))
    cases.append(((1, 0), [(1, 1), (1, 0), (0, 1), (0, -1)]))
    for _ in range(300):
        dim = rng.randint(2, 4)
        rays = []
        while len(rays) < rng.randint(2, 6):
            r = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
            if any(r):
                rays.append(r)
        if rng.random() < 0.3:
            line = rays[rng.randrange(len(rays))]
            rays.insert(rng.randrange(len(rays) + 1), tuple(-x for x in line))
        if rng.random() < 0.7:
            weights = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in rays]
            v = tuple(sum(w * r[i] for w, r in zip(weights, rays)) for i in range(dim))
        else:
            v = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        cases.append((v, rays))
    return cases


def test_conic_outcomes_pinned():
    # The coefficients are the lexicographic maximum in ray order, which is
    # unique, so any change of the decomposition changes this digest.
    import hashlib

    digest = hashlib.sha256()
    for v, rays in _conic_corpus():
        res = conic_decompose(v, rays)
        assert replay_conic(res, v, rays)
        digest.update(repr(res).encode())
    assert digest.hexdigest() == (
        "324561a10b5452165a1d9abc02dcba193246fa96d77684de5f73e51da8a18eac")


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
