"""State spaces, effects, and structural predicates."""

import random
from fractions import Fraction
from functools import partial

import pytest

from gptsim import lp
from gptsim.catalog import classical, polygon, random_observable, square_bit, tetrahedron_rational
from gptsim.geometry import conic_decompose
from gptsim.scalars import FLOAT, kind_of, vscale
from gptsim.spaces import (
    Effect,
    Observable,
    StateSpace,
    decompose_into_indecomposables,
    dual_cone_rays,
    is_indecomposable,
    is_informationally_complete,
    is_valid_effect,
    is_valid_observable,
    mix_observables,
    observable,
    trivial_observable,
    validate_state_space,
)

F = Fraction
HALF = F(1, 2)


def test_square_bit_space_valid(sq):
    diag = validate_state_space(sq.space)
    assert diag.valid
    # the defining parallelogram identity
    s1, s2, s3, s4 = sq.space.extreme_states
    assert tuple(a + b for a, b in zip(s1, s3)) == tuple(a + b for a, b in zip(s2, s4))


def test_duplicate_state_flagged(sq):
    bad = StateSpace("dup", 3, sq.space.extreme_states + (sq.space.extreme_states[0],),
                     sq.space.unit)
    diag = validate_state_space(bad)
    assert not diag.valid
    assert any("duplicate" in msg for msg in diag.issues)


def test_bad_normalization_flagged(sq):
    states = ((F(1), F(1), F(9, 10)),) + sq.space.extreme_states[1:]
    diag = validate_state_space(StateSpace("bad", 3, states, sq.space.unit))
    assert not diag.valid
    assert any("unit(s)" in msg for msg in diag.issues)


def test_unit_and_zero_are_valid_effects(sq):
    assert is_valid_effect(Effect(sq.space.unit), sq.space)
    assert is_valid_effect(Effect((0, 0, 0)), sq.space)


def test_hexagon_extreme_effect_validity(hexagon):
    e1 = Effect(hexagon.extreme_effects[0])
    assert is_valid_effect(e1, hexagon.space)
    scaled = Effect(tuple(1.5 * x for x in e1.coeffs))
    assert not is_valid_effect(scaled, hexagon.space)
    # the scaled effect exceeds one exactly on the state maximizing e1
    top = max(e1(s) for s in hexagon.space.extreme_states)
    assert 1.5 * top > 1


def test_indecomposable_square_bit(sq):
    assert is_indecomposable(sq.E.effects[0], sq.space)
    assert not is_indecomposable(Effect(sq.space.unit), sq.space)


def test_indecomposable_scaling_invariance(hexagon):
    e1 = Effect(tuple(F(2, 3) * 1.0 * x for x in hexagon.extreme_effects[0]))
    assert is_indecomposable(e1, hexagon.space)


def test_indecomposable_rejects_zero(sq):
    with pytest.raises(ValueError):
        is_indecomposable(Effect((0, 0, 0)), sq.space)


def test_decompose_singleton_for_indecomposable(sq):
    parts = decompose_into_indecomposables(sq.E.effects[0], sq.space)
    assert parts == [sq.E.effects[0]]


def test_decompose_square_bit_unit(sq):
    parts = decompose_into_indecomposables(Effect(sq.space.unit), sq.space)
    assert len(parts) == 2
    total = tuple(sum(p.coeffs[d] for p in parts) for d in range(3))
    assert total == sq.space.unit
    choices = ({sq.E.effects[0].coeffs, sq.E.effects[1].coeffs},
               {sq.F.effects[0].coeffs, sq.F.effects[1].coeffs})
    assert {p.coeffs for p in parts} in choices
    for p in parts:
        assert is_indecomposable(p, sq.space)


def test_decompose_hexagon_unit_replays(hexagon):
    parts = decompose_into_indecomposables(Effect(hexagon.unit), hexagon.space)
    assert 0 < len(parts) <= 3
    total = [sum(p.coeffs[d] for p in parts) for d in range(3)]
    assert max(abs(a - b) for a, b in zip(total, hexagon.unit)) < 1e-9
    for p in parts:
        assert is_indecomposable(p, hexagon.space)


def test_dual_rays_are_indecomposable_and_sums_are_not(sq, hexagon, pentagon, trit):
    for space in (sq.space, hexagon.space, pentagon.space, trit.space):
        rays = dual_cone_rays(space)
        for r in rays:
            assert is_indecomposable(Effect(r), space)
        mixed = Effect(tuple(a + b for a, b in zip(rays[0], rays[1])))
        assert not is_indecomposable(mixed, space)


def test_informationally_complete(sq):
    halves = observable(sq.space, [
        ("1", tuple(HALF * x for x in sq.E.effects[0].coeffs)),
        ("2", tuple(HALF * x for x in sq.E.effects[1].coeffs)),
        ("3", tuple(HALF * x for x in sq.F.effects[0].coeffs)),
        ("4", tuple(HALF * x for x in sq.F.effects[1].coeffs)),
    ])
    assert is_valid_observable(halves)
    assert is_informationally_complete(halves)
    assert not is_informationally_complete(sq.E)


def test_informationally_complete_qubit_mixture():
    # equal mixture of four dichotomic observables along independent
    # operators: informationally complete in the four-dimensional effect
    # space even though it is effectively dichotomic.
    eighth = F(1, 8)
    outcomes = []
    directions = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for j, d in enumerate(directions):
        for sign in (1, -1):
            vec = tuple(eighth * sign * x for x in d) + (eighth,)
            outcomes.append((f"{sign:+d}{j + 1}", vec))
    outcomes.append(("+4", (F(0), F(0), F(0), F(1, 4))))
    outcomes.append(("-4", (F(0), F(0), F(0), F(0))))
    obs = observable(None, outcomes)
    assert is_informationally_complete(obs)


def test_observable_needs_an_outcome(sq):
    # an empty family sums to no unit: its noise content divided by zero
    # and it read as simulation irreducible
    for build in (lambda: Observable((), sq.space), lambda: observable(sq.space, [])):
        with pytest.raises(ValueError, match="at least one outcome"):
            build()


def test_valid_observable_complements(sq, rng):
    from gptsim.catalog import random_observable

    for _ in range(10):
        obs = random_observable(sq.space, rng)
        assert is_valid_observable(obs)
        unit = sq.space.unit
        for eff in obs.effects:
            comp = Effect(tuple(u - c for u, c in zip(unit, eff.coeffs)))
            assert is_valid_effect(comp, sq.space)


def test_mix_observables_union_labels(sq):
    mixed = mix_observables([sq.E, sq.F], [HALF, HALF])
    assert mixed.labels == ("+", "-")
    assert is_valid_observable(mixed)
    tri = trivial_observable(sq.space, [("x", HALF), ("y", HALF)])
    both = mix_observables([sq.E, tri], [HALF, HALF])
    assert both.labels == ("+", "-", "x", "y")
    assert is_valid_observable(both)


def test_trivial_observable_weights_sum_to_one_in_their_own_field(sq):
    # exact weights get no float slack: a sum 10^-13 above 1 is no observable
    with pytest.raises(ValueError, match="must sum to 1"):
        trivial_observable(sq.space, [("x", HALF), ("y", HALF + Fraction(1, 10 ** 13))])
    # float weights get the eps that is_valid_observable applies to the sum
    close = trivial_observable(sq.space.as_float(), [("x", 0.5), ("y", 0.5 + 1e-10)])
    assert is_valid_observable(close)
    for y in (0.5 + 1e-8, float("nan")):
        with pytest.raises(ValueError, match="must sum to 1"):
            trivial_observable(sq.space.as_float(), [("x", 0.5), ("y", y)])


@pytest.mark.parametrize("float_first", [True, False])
def test_dual_cone_rays_cached_per_mode(sq, float_first):
    # The float twin of a space compares and hashes equal to it, so a cache
    # keyed by the space alone hands one mode the other mode's rays.
    from gptsim.scalars import FLOAT, kind_of

    dual_cone_rays.cache_clear()
    calls = [(Effect((0, 0, Fraction(1, 2))), sq.space),
             (Effect((0.0, 0.0, 0.5)), sq.space.as_float())]
    for effect, space in reversed(calls) if float_first else calls:
        rays_kind = kind_of(x for r in dual_cone_rays(space) for x in r)
        assert (rays_kind == FLOAT) == (space.kind == FLOAT)
        parts = decompose_into_indecomposables(effect, space)
        assert (kind_of(x for p in parts for x in p.coeffs) == FLOAT) == (space.kind == FLOAT)
        total = [sum(p.coeffs[d] for p in parts) for d in range(3)]
        assert max(abs(a - b) for a, b in zip(total, effect.coeffs)) <= 1e-12


def _rational_tetrahedron_space():
    """The simplex whose extreme states are the rational points b_i of
    `tetrahedron_rational()`'s observable B (its effects are (b_i / 2, 1/4))."""
    points = [tuple(2 * x for x in eff.coeffs[:3]) for eff in tetrahedron_rational()["B"].effects]
    return StateSpace("rational tetrahedron", 4, [(*b, 1) for b in points], (0, 0, 0, 1))


def test_exact_min_value_is_the_fraction_minimum(sq, trit):
    rng = random.Random(29)
    big = 2 ** 64
    rat = tetrahedron_rational()
    cases = [(sq.space, [e for obs in (sq.E, sq.F) for e in obs.effects]),
             (trit.space, list(trit.distinguishing.effects)),
             (_rational_tetrahedron_space(), [e for obs in (rat["A"], rat["B"], rat["D1"])
                                              for e in obs.effects]),
             # integer states: integer effects too take the exact path
             (StateSpace("integer triangle", 3, [(1, 0, 1), (0, 1, 1), (0, 0, 1)], (0, 0, 1)),
              [Effect((HALF, 0, Fraction(1, 3)))])]
    for space, effects in cases:
        d = space.ambient_dim
        effects += [Effect(tuple(rng.randint(-3, 3) for _ in range(d))) for _ in range(5)]
        effects += [Effect(tuple(Fraction(rng.randint(-big, big), rng.randint(1, 4 * big))
                                 for _ in range(d))) for _ in range(20)]
        for effect in effects:
            got = space.min_value(effect)
            assert type(got) is Fraction
            assert got == min(effect(s) for s in space.extreme_states)
        # a float space, and a float effect on an integer space, keep the
        # float minimum bit for bit
        float_space = space.as_float()
        pairs = [(float_space, effect.as_float()) for effect in effects]
        if space.kind is None:
            pairs += [(space, effect.as_float()) for effect in effects]
        for sp, eff in pairs:
            got = sp.min_value(eff)
            assert type(got) is float
            assert got.hex() == min(eff(s) for s in sp.extreme_states).hex()


def _seeded_effects(space, seed):
    rng = random.Random(seed)
    return [e for _ in range(8) for e in random_observable(space, rng).effects]


def _from_lp(effect, space):
    """The parts that `refine` makes of one `conic_decompose` answer."""
    res = conic_decompose(effect.coeffs, dual_cone_rays(space), mode=space.mode)
    eps = 1e-9 if space.mode == "float" else 0
    return [vscale(c, r) for c, r in zip(res.coefficients, dual_cone_rays(space)) if c > eps]


REFINED_THEORIES = {**{f"polygon{n}": partial(polygon, n) for n in (5, 6, 7, 8)},
                    "square": square_bit, "classical3": partial(classical, 3)}


@pytest.mark.parametrize("name", list(REFINED_THEORIES))
def test_warm_refinements_equal_cold_ones_and_the_lp(name):
    # a refinement decided from a stored basis is the lexicographic maximum
    # that the LP finds: the same Fractions in exact mode, the same support
    # within eps in float mode
    space = REFINED_THEORIES[name]().space
    effects = _seeded_effects(space, f"refine/{name}")
    cold = []
    for effect in effects:
        dual_cone_rays.cache_clear()
        cold.append([p.coeffs for p in space.refine(effect)])
    dual_cone_rays.cache_clear()
    lp.reset_stats()
    warm = [[p.coeffs for p in space.refine(effect)] for effect in effects]
    assert lp.stats["solves"] < len(effects) // 2  # the store decided most of them
    lps = [_from_lp(effect, space) for effect in effects]
    if space.mode == "exact":
        assert warm == cold == lps
        assert all(type(x) is Fraction for parts in warm for p in parts for x in p)
    else:
        for parts in zip(warm, cold, lps):
            assert len({len(p) for p in parts}) == 1
            for a, b, c in zip(*parts):
                assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12
                assert max(abs(x - y) for x, y in zip(a, c)) <= 1e-12


@pytest.mark.parametrize("name", ["polygon7", "square"])
def test_warm_store_still_rejects_effects_outside_the_cone(name):
    space = REFINED_THEORIES[name]().space
    dual_cone_rays.cache_clear()
    for effect in _seeded_effects(space, 5):
        space.refine(effect)
    rng = random.Random(6)
    outside = [Effect(tuple(-x for x in space.unit))]
    while len(outside) < 10:
        e = Effect(tuple(rng.uniform(-1, 1) if space.mode == "float" else F(rng.randint(-4, 4), 3)
                         for _ in range(space.ambient_dim)))
        if space.min_value(e) < 0 and not space.is_extremal(e):
            outside.append(e)
    for effect in outside:
        with pytest.raises(ValueError, match="outside the positive dual cone"):
            space.refine(effect)


def test_float_refinements_never_read_exact_bases():
    # the float twin and a float effect on an integer square bit each start
    # from an empty store of their own, whatever the exact store holds
    space = StateSpace("integer square", 3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)],
                       (0, 0, 1))
    assert space.kind is None
    dual_cone_rays.cache_clear()
    effect = next(e for e in _seeded_effects(space, 8) if len(space.refine(e)) == 3)
    lp.reset_stats()
    space.refine(effect)
    assert lp.stats["solves"] == 0  # the exact store holds its basis
    for space_ in (space.as_float(), space):
        parts = space_.refine(effect.as_float())
        assert kind_of(x for p in parts for x in p.coeffs) == FLOAT
        assert lp.stats["solves"] == 1
        lp.reset_stats()


def test_cache_clear_empties_the_stored_bases(pentagon):
    # an effect on three rays stores its basis; the next refinement of it
    # reads the store until the cache is cleared
    space = pentagon.space
    effect = next(e for e in _seeded_effects(space, 9) if len(space.refine(e)) == 3)
    dual_cone_rays.cache_clear()
    lp.reset_stats()
    space.refine(effect)
    space.refine(effect)
    assert lp.stats["solves"] == 1
    dual_cone_rays.cache_clear()
    space.refine(effect)
    assert lp.stats["solves"] == 2


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_effect_outside_the_cone_is_not_extremal(sq, mode):
    # (1, 0, -1) vanishes on two adjacent extreme states of the square bit,
    # which span rank 2 = dim - 1, but is -2 on the other two: it lies
    # outside the effect cone, so it is no indecomposable effect and
    # `refine` rejects it
    effect = Effect((1, 0, -1))
    space = sq.space
    if mode == "float":
        effect, space = effect.as_float(), space.as_float()
    assert space.min_value(effect) == -2
    assert not space.is_extremal(effect)
    assert not is_indecomposable(effect, space)
    with pytest.raises(ValueError, match="outside the positive dual cone"):
        space.refine(effect)
