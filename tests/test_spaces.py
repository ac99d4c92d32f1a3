"""State spaces, effects, and structural predicates."""

import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from oracles import is_extremal as oracle_is_extremal, refine as oracle_refine
from gptsim import geometry, lp
from gptsim.catalog import classical, polygon, random_observable, square_bit, tetrahedron_rational
from gptsim.geometry import conic_decompose
from gptsim.qubit import QubitEffect, QubitSpace, random_qubit_observable
from gptsim.scalars import EXACT, FLOAT, ModeError, cleared, field, kind_of, vscale
from gptsim.simulation import noise_content
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
    require_same_space,
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


def test_observable_effects_share_one_dimension(sq):
    # a short effect summed as a truncated (0, 0) and was dropped by
    # minimally_sufficient as a zero effect
    with pytest.raises(ValueError, match="dimension mismatch"):
        observable(sq.space, [("a", (0, 0, 1)), ("b", (0, 0))])
    with pytest.raises(ValueError, match="dimension mismatch"):
        Observable((("a", Effect((1, 0))), ("b", Effect((0, 0, 1)))))


def test_valid_observable_complements(sq, rng):
    from gptsim.catalog import random_observable

    for _ in range(10):
        obs = random_observable(sq.space, rng)
        assert is_valid_observable(obs)
        unit = sq.space.unit
        for eff in obs.effects:
            comp = Effect(tuple(u - c for u, c in zip(unit, eff.coeffs)))
            assert is_valid_effect(comp, sq.space)


def test_effect_sums_add_in_outcome_order():
    # the taus sum to 1 + 1.00000008e-9 added in order, as `effect_sum` adds
    # them, and to 1 + 0.99999986e-9 as a + (b + c): the verdict is the one
    # of the sum in order, for one observable and among others
    from gptsim.spaces import are_valid_observables

    taus = (0.2175564987276249, 0.3306375661832034, 0.45180593608917163)
    obs = Observable(tuple((str(k), (0.0, 0.0, 0.0, t)) for k, t in enumerate(taus)),
                     QubitSpace())
    assert abs(obs.effect_sum[3] - 1) > 1e-9 >= abs(taus[0] + (taus[1] + taus[2]) - 1)
    fine = random_qubit_observable(random.Random(39), 2)
    assert are_valid_observables([fine], QubitSpace())
    assert not is_valid_observable(obs)
    assert not are_valid_observables([fine, obs], QubitSpace())


def test_mix_observables_union_labels(sq):
    mixed = mix_observables([sq.E, sq.F], [HALF, HALF])
    assert mixed.labels == ("+", "-")
    assert is_valid_observable(mixed)
    tri = trivial_observable(sq.space, [("x", HALF), ("y", HALF)])
    both = mix_observables([sq.E, tri], [HALF, HALF])
    assert both.labels == ("+", "-", "x", "y")
    assert is_valid_observable(both)


@pytest.mark.parametrize("call, message", [
    (lambda sq: trivial_observable(sq.space, [("a", 2), ("b", -1)]), "must be nonnegative"),
    (lambda sq: mix_observables([sq.E, sq.F], [2, -1]), "must be nonnegative"),
    (lambda sq: mix_observables([sq.E.as_float(), sq.F.as_float()], [1.5, -0.5]),
     "must be nonnegative"),
    (lambda sq: mix_observables([sq.E, sq.F], [HALF, HALF + F(1, 10 ** 13)]), "must sum to 1"),
    (lambda sq: mix_observables([sq.E.as_float(), sq.F.as_float()], [0.5, float("nan")]),
     "must sum to 1"),
    (lambda sq: mix_observables([], []), "observables must be nonempty"),
    (lambda sq: mix_observables([sq.E, classical(3).distinguishing], [HALF, HALF]),
     "mixed state spaces rejected"),
    (lambda sq: mix_observables([Observable((("a", (1, 0, 0)),)),
                                 Observable((("a", (1, 0, 0, 0)),))], [HALF, HALF]),
     "different ambient dimensions"),
], ids=["trivial-negative", "mix-negative", "mix-float-negative", "mix-exact-sum", "mix-nan",
        "mix-empty", "mix-spaces", "mix-dimensions"])
def test_weights_outside_the_simplex_make_no_observable(sq, call, message):
    # weights that sum to 1 with a negative one gave an effect -u, an empty
    # mixture an IndexError, observables of two spaces an observable of the
    # first space, and two dimensions without a space one cut to the shorter
    with pytest.raises(ValueError, match=message):
        call(sq)


def test_require_same_space_compares_spaces_then_dimensions(sq):
    # one space object, or equal but distinct ones, pass, and the first
    # space named is returned; another space, or another dimension with or
    # without a space, raises
    twin = StateSpace(sq.space.name, sq.space.ambient_dim, sq.space.extreme_states, sq.space.unit)
    assert twin == sq.space and twin is not sq.space
    on_twin = Observable(sq.F.outcomes, twin)
    bare = Observable(sq.E.outcomes)
    assert require_same_space([sq.E, sq.F]) is sq.space
    assert require_same_space([bare, on_twin, sq.E]) is twin
    assert require_same_space([bare, Observable(sq.F.outcomes)]) is None
    other = StateSpace("other", sq.space.ambient_dim, sq.space.extreme_states[:-1], sq.space.unit)
    with pytest.raises(ValueError, match="mixed state spaces rejected"):
        require_same_space([sq.E, Observable(sq.F.outcomes, other)])
    longer = Observable((("a", (1, 0, 0, 0)),))
    for observables in ([sq.E, longer], [bare, longer], [longer, bare]):
        with pytest.raises(ValueError, match="different ambient dimensions"):
            require_same_space(observables)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_mixture_lives_on_the_space_any_observable_names(sq, mode):
    # the result took its space from the first observable only, so a
    # space-less first observable gave a space-less mixture
    E, weights = (sq.E, [HALF, HALF]) if mode == "exact" else (sq.E.as_float(), [0.5, 0.5])
    bare = Observable(E.outcomes)
    for pair in ([bare, E], [E, bare]):
        assert mix_observables(pair, weights).space is E.space is not None
    assert mix_observables([bare, bare], weights).space is None


def test_float_weights_within_eps_below_zero_still_mix(sq):
    # a float weight within eps below zero is rounding, not a negative weight
    mixed = mix_observables([sq.E.as_float(), sq.F.as_float()], [1 + 1e-12, -1e-12])
    assert is_valid_observable(mixed)


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
        for effect, got in zip(effects, space.min_values([e.coeffs for e in effects])):
            assert type(got) is Fraction
            assert got == min(effect(s) for s in space.extreme_states)
        # a float space, and a float effect on an integer space, keep the
        # float minimum bit for bit
        float_space = space.as_float()
        pairs = [(float_space, effect.as_float()) for effect in effects]
        if space.kind is None:
            pairs += [(space, effect.as_float()) for effect in effects]
        for sp, eff in pairs:
            got, = sp.min_values([eff.coeffs])
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
        cold.append([p.coeffs for p in space.refine([effect])[0]])
    dual_cone_rays.cache_clear()
    lp.reset_stats()
    warm = [[p.coeffs for p in space.refine([effect])[0]] for effect in effects]
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
        space.refine([effect])
    rng = random.Random(6)
    outside = [Effect(tuple(-x for x in space.unit))]
    while len(outside) < 10:
        e = Effect(tuple(rng.uniform(-1, 1) if space.mode == "float" else F(rng.randint(-4, 4), 3)
                         for _ in range(space.ambient_dim)))
        if space.min_values([e.coeffs])[0] < 0 and not space.is_extremal([e])[0]:
            outside.append(e)
    for effect in outside:
        with pytest.raises(ValueError, match="outside the positive dual cone"):
            space.refine([effect])


def test_float_refinements_never_read_exact_bases():
    # the float twin and a float effect on an integer square bit each start
    # from an empty store of their own, whatever the exact store holds
    space = StateSpace("integer square", 3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)],
                       (0, 0, 1))
    assert space.kind is None
    dual_cone_rays.cache_clear()
    effect = next(e for e in _seeded_effects(space, 8) if len(space.refine([e])[0]) == 3)
    lp.reset_stats()
    space.refine([effect])
    assert lp.stats["solves"] == 0  # the exact store holds its basis
    for space_ in (space.as_float(), space):
        parts = space_.refine([effect.as_float()])[0]
        assert kind_of(x for p in parts for x in p.coeffs) == FLOAT
        assert lp.stats["solves"] == 1
        lp.reset_stats()


def test_cache_clear_empties_the_stored_bases(pentagon):
    # an effect on three rays stores its basis; the next refinement of it
    # reads the store until the cache is cleared
    space = pentagon.space
    effect = next(e for e in _seeded_effects(space, 9) if len(space.refine([e])[0]) == 3)
    dual_cone_rays.cache_clear()
    lp.reset_stats()
    space.refine([effect])
    space.refine([effect])
    assert lp.stats["solves"] == 1
    dual_cone_rays.cache_clear()
    space.refine([effect])
    assert lp.stats["solves"] == 2


def test_refinement_store_stays_at_its_cap():
    # a refinement key keeps at most its cap of supports, the first ones stored
    space = polygon(8).space
    effects = _seeded_effects(space, 10)
    dual_cone_rays.cache_clear()
    space.refine([effects[0]])[0]
    (store,) = [store for key, store in lp._ANSWERS.items() if key[0] == "refinement"]
    assert store.cap == 64
    store.cap = 2
    for effect in effects:
        space.refine([effect])
    assert len(store.bases) == len(set(store.bases)) == len(store.inverses) == 2
    kept = list(store.bases)
    for effect in _seeded_effects(space, 11):
        space.refine([effect])
    assert store.bases == kept


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
    assert space.min_values([effect.coeffs]) == [-2]
    assert not space.is_extremal([effect])[0]
    assert not is_indecomposable(effect, space)
    with pytest.raises(ValueError, match="outside the positive dual cone"):
        space.refine([effect])


def test_refinement_store_holds_the_lps_own_bases(monkeypatch):
    # each stored basis is the final basis of a conic LP, in its row order,
    # with that LP's B^-1, and a support (its set of rays) is stored once,
    # whatever order another LP's rows put it in
    import gptsim.geometry as geometry

    solved = set()

    def recording(*args, **kwargs):
        out = lp.lp_solve(*args, **kwargs)
        solved.add(out.basis)
        return out

    monkeypatch.setattr(geometry, "lp_solve", recording)
    dual_cone_rays.cache_clear()
    for name, theory in REFINED_THEORIES.items():
        space = theory().space
        for seed in range(3):
            for effect in _seeded_effects(space, f"{name}/{seed}"):
                space.refine([effect])
                space.as_float().refine([effect.as_float()])
    stored = [basis for key, store in lp._ANSWERS.items() if key[0] == "refinement"
              for basis in store.bases]
    assert len(stored) > 20
    assert set(stored) <= solved
    for key, store in lp._ANSWERS.items():
        if key[0] == "refinement":
            assert len({frozenset(b) for b in store.bases}) == len(store.bases)


@pytest.mark.parametrize("space, coeffs", [
    (square_bit().space, (HALF, 0, 0, HALF)),
    (square_bit().space.as_float(), (0.5, 0.0, 0.0, 0.5)),
    (QubitSpace(), (0.1, 0.2, 0.5)),
    (QubitSpace(), (F(1, 10), F(1, 5), HALF)),
], ids=["square-exact", "square-float", "qubit-float", "qubit-exact"])
def test_effects_of_another_dimension_raise(space, coeffs):
    # every cone method and the noise content built on `min_values` reject an
    # effect whose dimension is not the space's, rather than read its
    # coefficients as if it were
    effect = Effect(coeffs)
    for method in (space.is_extremal, space.refine,
                   lambda es: space.min_values([e.coeffs for e in es])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            method([effect])
    with pytest.raises(ValueError, match="dimension mismatch"):  # zero, and still another dimension
        space.refine([Effect(tuple(0 * x for x in coeffs))])
    with pytest.raises(ValueError, match="dimension mismatch"):
        noise_content(observable(space, [("a", coeffs), ("b", coeffs)]))


# The cone calls take every effect of a question at once; `oracles` keeps the
# one-effect formulas.
CONE_SPACES = {"square": lambda: square_bit().space, "classical3": lambda: classical(3).space,
               "tetrahedron": _rational_tetrahedron_space,
               **{f"polygon{n}": partial(lambda n: polygon(n).space, n) for n in (5, 6, 7, 8)},
               "qubit": QubitSpace, "qubit-exact": QubitSpace}


def _cone_effects(name, space):
    """Seeded effects of random observables, extremal ones (rays and half
    rays, or rank-one qubit effects), the unit and the zero effect."""
    rng = random.Random(f"cone/{name}")
    if name == "qubit-exact":  # rational Bloch norms: 1/2, 0 and 1/5
        effects = [QubitEffect(0, (F(3, 10), F(2, 5), 0)), QubitEffect(F(-1, 2), (0, F(1, 2), 0)),
                   QubitEffect(0, (0, 0, 0)), QubitEffect(F(1, 4), (F(1, 5), 0, 0))]
        return effects + [Effect((0, 0, 0, 0))]
    if name == "qubit":
        effects = [e for _ in range(8) for e in random_qubit_observable(rng).effects]
        effects += [QubitEffect(0.0, (0.6, 0.0, 0.8)), QubitEffect(-0.5, (0.0, 0.5, 0.0))]
    else:
        half = 0.5 if space.mode == FLOAT else HALF
        effects = [e for _ in range(8) for e in random_observable(space, rng).effects]
        effects += [Effect(vscale(c, r)) for r in dual_cone_rays(space)[:3] for c in (1, half)]
    return effects + [Effect(space.unit), Effect((0 * space.unit[0],) * space.ambient_dim)]


@pytest.mark.parametrize("name", list(CONE_SPACES))
def test_batched_cone_calls_match_the_one_effect_oracles(name):
    space = CONE_SPACES[name]()
    effects = _cone_effects(name, space)
    got = space.is_extremal(effects)
    assert got == [oracle_is_extremal(space, e.coeffs) for e in effects]
    assert any(got) and not all(got)
    exact = kind_of(x for e in effects for x in e.coeffs) != FLOAT or name == "qubit"
    wanted = [oracle_refine(space, e.coeffs) for e in effects]
    for parts, want in zip(space.refine(effects), wanted):
        assert len(parts) == len(want)
        for part, coeffs in zip(parts, want):
            if exact:  # the same numbers (the qubit's floats by the same formula)
                assert part.coeffs == coeffs
            else:  # a stored basis agrees with the LP within rounding
                assert max(abs(a - b) for a, b in zip(part.coeffs, coeffs)) <= 1e-12
    # outside the cone: no extremal effect, and a polytope refuses to refine it
    outside = Effect(tuple(-x for x in space.unit))
    assert space.is_extremal([*effects, outside])[-1] is False
    assert oracle_is_extremal(space, outside.coeffs) is False
    if not isinstance(space, QubitSpace):
        for call in (lambda: space.refine([*effects, outside]),
                     lambda: oracle_refine(space, outside.coeffs)):
            with pytest.raises(ValueError, match="outside the positive dual cone"):
                call()
    # one effect of another dimension, or exact and float numbers together,
    # fail the whole call
    wrong = Effect((*effects[0].coeffs, effects[0].coeffs[0]))
    other = (Effect(tuple(map(F, effects[0].coeffs))) if kind_of(effects[0].coeffs) == FLOAT
             else Effect(tuple(map(float, effects[0].coeffs))))
    for call in (space.is_extremal, space.refine):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call([*effects, wrong])
        if kind_of(other.coeffs) == FLOAT and space.kind is None and name != "qubit-exact":
            continue  # a float effect on an integer space makes the call float
        if any(kind_of(e.coeffs) for e in effects):
            with pytest.raises(ModeError):
                call([*effects, other])


@pytest.mark.parametrize("name", list(REFINED_THEORIES))
def test_one_refine_call_leaves_the_store_of_one_call_per_effect(name):
    # the parts, the stored bases and B^-1 in their order and the solves:
    # from an empty store, and from a store that has room for two bases only
    space = REFINED_THEORIES[name]().space
    effects = _seeded_effects(space, f"batch/{name}")

    def run(refine_all, cap=None):
        dual_cone_rays.cache_clear()
        if cap is not None:
            space.refine(effects[:1])
            (store,) = [s for key, s in lp._ANSWERS.items() if key[0] == "refinement"]
            store.cap = cap
        lp.reset_stats()
        parts = [[repr(p.coeffs) for p in ps] for ps in refine_all()]
        (store,) = [s for key, s in lp._ANSWERS.items() if key[0] == "refinement"]
        inverses = store.inverses.tolist() if store.inverses is not None else None
        return parts, list(store.bases), repr(inverses), lp.stats["solves"]

    for cap in (None, 2):
        batched = run(lambda: space.refine(effects), cap)
        assert batched == run(lambda: [space.refine([e])[0] for e in effects], cap)
        assert batched[-1] < len(effects)  # the store decides some


def test_face_ranks_are_computed_once_per_tight_set(monkeypatch):
    # every extreme effect on one ray vanishes on one edge, so a polygon
    # ranks n tight sets, whatever the effects; an integer space keeps its
    # exact and its float ranks apart; a kept rank is the rank afresh
    rank, calls = geometry.rank, []

    def counting(vectors, *args, **kwargs):
        calls.append((tuple(map(tuple, vectors)), kwargs.get("mode")))
        return rank(vectors, *args, **kwargs)

    integer = StateSpace("integer square", 3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)],
                         (0, 0, 1))
    cases = [(polygon(7).space, (FLOAT,)), (square_bit().space, (EXACT,)),
             (integer, (EXACT, FLOAT))]
    effects = {space: _seeded_effects(space, 12) for space, _ in cases}  # rays ranked here
    monkeypatch.setattr(geometry, "rank", counting)
    for space, modes in cases:
        calls.clear()
        rays = dual_cone_rays(space)
        for mode in modes:
            scales = (1.0, 0.25) if mode == FLOAT else (1, F(1, 4))
            extreme = [Effect(tuple(c * (float(x) if mode == FLOAT else x) for x in r))
                       for r in rays for c in scales]
            for _ in range(3):
                assert all(space.is_extremal(extreme))
        assert len(calls) == len(set(calls)) == len(space._face_ranks) == len(rays) * len(modes)
        for effect in effects[space]:
            space.refine([effect])
        assert len(set(calls)) == len(calls)
        for (tight, mode, tol), kept in space._face_ranks.items():
            assert kept == rank([space.extreme_states[i] for i in tight], tol=tol, mode=mode) == 2


def test_float_twin_is_made_once_per_space():
    # every `as_float()` of one space is one object, so the float twin's
    # caches are built on its first use and kept by every later twin
    theory = square_bit()
    twin = theory.space.as_float()
    assert theory.space.as_float() is twin and twin.as_float() is twin
    first, second = theory.E.as_float(), theory.E.as_float()
    assert first.space is second.space is twin
    assert all(first.space.is_extremal(first.effects))
    states, ranks = first.space._float_states, first.space._face_ranks
    assert all(second.space.is_extremal(second.effects))
    assert second.space._float_states is states and second.space._face_ranks is ranks
    assert len(ranks) == 2  # one tight set per effect, ranked once


@pytest.mark.parametrize("case", ["exact", "float", "qubit"])
def test_refine_and_min_values_read_a_one_shot_iterable_once(case):
    # a generator of effects gets the answers of the list of them; refine
    # and min_values of a polytope, and the qubit's min_values, answered []
    if case == "qubit":
        space, obs = QubitSpace(), random_qubit_observable(random.Random(3), 3)
    else:
        space, obs = square_bit().space, random_observable(square_bit().space, random.Random(3), 3)
        if case == "float":
            space, obs = space.as_float(), obs.as_float()
    effects = list(obs.effects)
    assert space.refine(e for e in effects) == space.refine(effects)
    assert (space.min_values(e.coeffs for e in effects)
            == space.min_values([e.coeffs for e in effects]) != [])


@pytest.mark.parametrize("n", [5, 8])
def test_float_extremality_values_are_one_product_per_effect(n):
    # one call's product runs the matrix-vector kernel once per effect, so
    # every value is that of `states @ e` for the effect alone, bit for bit
    space = polygon(n).space
    effects = _seeded_effects(space, f"values/{n}")
    got = space._values([e.coeffs for e in effects], field(FLOAT))
    want = [(space._float_states @ np.array(e.coeffs, dtype=float)).tolist() for e in effects]
    assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in want]


@pytest.mark.parametrize("name", ["polygon7", "square"])
def test_store_hits_replay_in_one_call_as_each_alone(name):
    # the store replays all its hits in one `replay_inside` call: on stored
    # bases and seeded effects, nudged by a few eps either way, and with NaN
    # and inf, each verdict is `replay_conic`'s on that hit alone
    space = REFINED_THEORIES[name]().space
    space.refine(_seeded_effects(space, 4))
    ((key, store),) = [item for item in lp._ANSWERS.items() if item[0][0] == "refinement"]
    lp.answers(key, None)
    rng = random.Random(name)
    vectors = [tuple(-x for x in space.unit)]
    for effect in _seeded_effects(space, 5):
        vectors.append(effect.coeffs)
        if space.mode == FLOAT:
            vectors += [tuple(x + rng.choice((-3e-9, -1e-9, 1e-9, 3e-9)) for x in effect.coeffs),
                        (effect.coeffs[0], float("nan"), effect.coeffs[2]),
                        (float("inf"), *effect.coeffs[1:])]
    hits = []  # (v, (basis, x)) for each hit of the scan, as it hands them over

    def record(found, vs):
        hits.extend((vs[i], (basis, x)) for i, basis, x in found)
        return [None] * len(found)

    store.solved = record
    for v in vectors:
        b, L = cleared(store.F, v)
        store.decide([b], [L], [v])
    for k, basis in enumerate(store.bases):  # every stored basis, feasible or not
        for v in vectors[:6]:
            b, L = cleared(store.F, v)
            hits.append((v, (basis, store._levels(store.inverses[k] @ b, k, L))))
    assert len(hits) > 20
    want = [geometry.replay_conic(geometry.ConicResult(geometry.INSIDE, coefficients=tuple(x)), v,
                                  [store.rays[j] for j in basis], store.F.tol)
            for v, (basis, x) in hits]
    assert geometry.replay_inside([x for _, (_, x) in hits], [v for v, _ in hits],
                                  [[store.rays[j] for j in basis] for _, (basis, _) in hits],
                                  store.F.tol) == want
    assert True in want and False in want


def test_refinement_store_keeps_each_support_once():
    # with every stored inverse corrupted, each refinement goes to the LP,
    # which ends on the basis the store holds already: it is not kept again
    space = polygon(6).space.as_float()
    effects = _seeded_effects(space, 6)
    space.refine(effects)
    (store,) = [s for key, s in lp._ANSWERS.items() if key[0] == "refinement"]
    stored = list(store.bases)
    store.inverses = store.inverses * 1.01
    lp.reset_stats()
    space.refine(effects)
    assert lp.stats["solves"] > 0 and store.bases == stored


@pytest.mark.parametrize("warm", [False, True])
def test_non_finite_effects_are_refused_before_any_solve(warm):
    # a NaN effect reached the float kernel ("min() arg is an empty
    # sequence"), and an inf one warned; now the LP refuses the program
    space = square_bit().space.as_float()
    if warm:
        space.refine(_seeded_effects(space, 3))
    for bad in (float("nan"), float("inf"), -float("inf")):
        for effect in (Effect((bad, 0.0, 0.5)), Effect((0.25, bad, 0.5))):
            assert space.is_extremal([effect]) == [False]
            lp.reset_stats()
            with pytest.raises(ValueError, match="finite"):
                space.refine([effect])
            assert lp.stats["solves"] == 0
