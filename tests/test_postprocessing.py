"""Channels, the postprocessing relation, and minimal sufficiency."""

import math
from fractions import Fraction

from gptsim.geometry import rank
from gptsim.postprocessing import (
    Postprocessing,
    apply,
    are_equivalent,
    binarization,
    compose,
    is_postprocessing_clean,
    is_postprocessing_of,
    merge_channel,
    minimally_sufficient,
    minimally_sufficient_with_channels,
    replay_relation,
)
from gptsim.qubit import as_vector_observable
from gptsim.simulation import SIMULABLE, SimulationCertificate
from gptsim.spaces import Effect, observable, trivial_observable

F = Fraction
HALF = F(1, 2)


def test_merge_channel_adds_effects(sq):
    halves = observable(sq.space, [
        ("a", tuple(HALF * x for x in sq.E.effects[0].coeffs)),
        ("b", tuple(HALF * x for x in sq.E.effects[0].coeffs)),
        ("c", sq.E.effects[1].coeffs),
    ])
    merged = apply(merge_channel(halves.labels, ("a", "b"), "a"), halves)
    assert merged.labels == ("a", "c")
    assert merged.effects[0].coeffs == sq.E.effects[0].coeffs


def test_postprocessing_produces_ct_from_equal_mixture(suite):
    # the stated two-by-two channel turns the equal X/Y mixture (Bloch part
    # (1,1,0)/2, i.e. t = 1/sqrt(2)) into C_t; stochastic exactly while
    # t <= 1/sqrt(2)
    t = 0.6
    root2 = math.sqrt(2.0)
    chan = Postprocessing(("+", "-"), ("+", "-"), (
        (0.5 * (1 + root2 * t), 0.5 * (1 - root2 * t)),
        (0.5 * (1 - root2 * t), 0.5 * (1 + root2 * t))))
    assert chan.is_stochastic()
    mixture = as_vector_observable(suite.ct(1.0 / root2))
    assert max(abs(x) for x in
               (mixture.effects[0].coeffs[0] - 0.5,
                mixture.effects[0].coeffs[1] - 0.5)) < 1e-12
    ct = as_vector_observable(suite.ct(t))
    out = apply(chan, mixture)
    for got, want in zip(out.effects, ct.effects):
        assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) < 1e-12


def test_any_observable_reaches_trivial(sq):
    triv = trivial_observable(sq.space, [("t0", F(1, 3)), ("t1", F(2, 3))])
    cert = is_postprocessing_of(triv, sq.E)
    assert cert.simulable
    assert replay_relation(cert, triv, sq.E)


def test_tetrahedron_merge_related():
    from gptsim.catalog import tetrahedron_rational

    rat = tetrahedron_rational()
    cert = is_postprocessing_of(rat["A"], rat["B"])
    assert cert.simulable
    assert replay_relation(cert, rat["A"], rat["B"])


def _related(channel):
    return SimulationCertificate(SIMULABLE, weights=(1,), channels=(channel,))


def test_replay_relation_requires_matching_labels(sq):
    # An extra all-zero "x" column reconstructs E on the labels it shares
    # with E; a replay that zips outcomes would accept it.
    extra = Postprocessing(("+", "-"), ("+", "-", "x"), ((1, 0, 0), (0, 1, 0)))
    assert not replay_relation(_related(extra), sq.E, sq.E)
    renamed = Postprocessing(("a", "b"), ("+", "-"), ((1, 0), (0, 1)))
    assert not replay_relation(_related(renamed), sq.E, sq.E)
    identity = Postprocessing(("+", "-"), ("+", "-"), ((1, 0), (0, 1)))
    assert replay_relation(_related(identity), sq.E, sq.E)


def test_replay_relation_rejects_non_stochastic_channel(sq):
    # The halves of E and F are linearly dependent (E+ + E- = F+ + F- = u),
    # so the rows (1, 1) on E and (0, 0) on F rebuild the fair coin exactly,
    # with entries in [0, 1] but row sums 2 and 0.
    halves = observable(sq.space, [(name + lab, tuple(HALF * x for x in eff.coeffs))
                                   for name, obs in (("e", sq.E), ("f", sq.F))
                                   for lab, eff in obs.outcomes])
    coin = trivial_observable(sq.space, [("h", HALF), ("t", HALF)])
    bad = Postprocessing(halves.labels, coin.labels, ((1, 1), (1, 1), (0, 0), (0, 0)))
    assert apply(bad, halves) == coin
    assert not replay_relation(_related(bad), coin, halves)
    cert = is_postprocessing_of(coin, halves)
    assert cert.simulable and replay_relation(cert, coin, halves)


def test_sharp_x_y_unrelated(suite):
    x = as_vector_observable(suite.X)
    y = as_vector_observable(suite.Y)
    cert = is_postprocessing_of(y, x)
    assert not cert.simulable
    assert replay_relation(cert, y, x)
    # independent reason: Y(+) is outside the span of X's effects
    assert rank([e.coeffs for e in x.effects]) == 2
    assert rank([e.coeffs for e in x.effects] + [y.effects[0].coeffs]) == 3
    assert not are_equivalent(x, y)


def test_equivalence_under_relabelling(sq):
    relabelled = sq.E.relabelled({"+": "north", "-": "south"})
    assert are_equivalent(sq.E, relabelled)


def test_minimally_sufficient_trivial_pair(sq):
    triv = trivial_observable(sq.space, [("a", HALF), ("b", HALF)])
    hat = minimally_sufficient(triv)
    assert hat.n_outcomes == 1
    assert hat.labels == ("a",)
    assert hat.effects[0].coeffs == sq.space.unit
    assert are_equivalent(triv, hat)


def test_minimally_sufficient_pairwise_independent_is_fixed():
    quarter = F(1, 4)
    outcomes = [("+1", (quarter * 2, F(0), F(0), quarter)),
                ("-1", (-quarter * 2, F(0), F(0), quarter)),
                ("+2", (F(0), quarter * 2, F(0), quarter)),
                ("-2", (F(0), -quarter * 2, F(0), quarter))]
    obs = observable(None, outcomes)
    hat = minimally_sufficient(obs)
    assert dict((lab, e.coeffs) for lab, e in hat.outcomes) == dict(
        (lab, Effect(vec).coeffs) for lab, vec in outcomes)


def test_minimally_sufficient_merges_proportional(sq):
    split = observable(sq.space, [
        ("p1", tuple(HALF * x for x in sq.E.effects[0].coeffs)),
        ("p2", tuple(HALF * x for x in sq.E.effects[0].coeffs)),
        ("m", sq.E.effects[1].coeffs),
    ])
    hat, fwd, back = minimally_sufficient_with_channels(split)
    assert hat.n_outcomes == 2
    assert {e.coeffs for e in hat.effects} == {e.coeffs for e in sq.E.effects}
    assert apply(fwd, split).effects == tuple(hat.effects)
    assert apply(back, hat).outcomes == split.outcomes
    assert are_equivalent(split, hat)


def test_minimally_sufficient_idempotent_and_smaller(sq, rng):
    from gptsim.catalog import random_observable

    for _ in range(8):
        obs = random_observable(sq.space, rng)
        hat = minimally_sufficient(obs)
        assert hat.n_outcomes <= obs.n_outcomes
        assert minimally_sufficient(hat) == hat
        assert are_equivalent(obs, hat)


def test_preorder_reflexive_transitive(sq, rng):
    from gptsim.catalog import random_observable

    corpus = [random_observable(sq.space, rng) for _ in range(4)]
    corpus += [sq.E, sq.F]
    for a in corpus:
        assert is_postprocessing_of(a, a).simulable
    chains = 0
    for a in corpus:
        for b in corpus:
            if not is_postprocessing_of(b, a).simulable:
                continue
            for c in corpus:
                if is_postprocessing_of(c, b).simulable:
                    chains += 1
                    assert is_postprocessing_of(c, a).simulable
    assert chains > 0


def test_channel_composition_matches_sequential(sq):
    triv = trivial_observable(sq.space, [("x", F(1, 4)), ("y", F(3, 4))])
    first = is_postprocessing_of(triv, sq.E).channels[0]
    second = merge_channel(("x", "y"), ("x", "y"), "x")
    combined = compose(second, first)
    assert apply(combined, sq.E) == apply(second, apply(first, sq.E))


def test_postprocessing_clean(sq):
    assert is_postprocessing_clean(sq.E)
    from gptsim.catalog import tetrahedron_rational
    from gptsim.qubit import QubitEffect, QubitObservable

    noisy = QubitObservable((
        ("0", QubitEffect(0, (0, 0, 0))),
        ("+", QubitEffect(F(-1, 2), (0, 0, F(1, 2)))),
        ("-", QubitEffect(F(-1, 2), (0, 0, F(-1, 2)))),
    ))
    assert noisy.is_valid()
    assert not is_postprocessing_clean(as_vector_observable(noisy))  # the half-identity outcome
    tetra_vec = tetrahedron_rational()["B"]
    # every tetrahedron effect is a ray of the rationalized positivity cone,
    # checked through the weighted norm identity
    for eff in tetra_vec.effects:
        ex, ey, ez, tau = eff.coeffs
        assert 2 * ex ** 2 + 6 * ey ** 2 + ez ** 2 == (2 * tau) ** 2


def test_binarization(sq):
    halves = observable(sq.space, [
        ("1", tuple(HALF * x for x in sq.E.effects[0].coeffs)),
        ("2", tuple(HALF * x for x in sq.E.effects[1].coeffs)),
        ("3", tuple(HALF * x for x in sq.F.effects[0].coeffs)),
        ("4", tuple(HALF * x for x in sq.F.effects[1].coeffs)),
    ])
    binar = binarization(halves, "1")
    assert binar.labels == ("+", "-")
    assert binar.effects[0].coeffs == halves.effects[0].coeffs
    total = tuple(a + b for a, b in zip(binar.effects[0].coeffs,
                                        binar.effects[1].coeffs))
    assert total == sq.space.unit


def test_apply_preserves_normalization(sq, rng):
    from gptsim.catalog import random_observable

    for _ in range(5):
        obs = random_observable(sq.space, rng)
        k = obs.n_outcomes
        rows = []
        for _ in range(k):
            raw = [F(rng.randint(0, 5) + 1) for _ in range(3)]
            s = sum(raw)
            rows.append(tuple(r / s for r in raw))
        chan = Postprocessing(obs.labels, ("a", "b", "c"), tuple(rows))
        out = apply(chan, obs)
        total = tuple(sum(e.coeffs[d] for e in out.effects) for d in range(3))
        assert total == sq.space.unit


def _relation_corpus():
    # Seeded (target, source) pairs: random square-bit and classical(3)
    # observables against each other and against a coarse-graining, the
    # float twins of those pairs, and the same pairs on polygons n = 5..8.
    import random

    from gptsim.catalog import classical, polygon, random_observable, square_bit

    def coarse(obs):
        return apply(merge_channel(obs.labels, obs.labels[:2], obs.labels[0], obs.mode), obs)

    rng = random.Random(2026)
    spaces = [square_bit().space, classical(3).space] * 10
    spaces += [polygon(n).space for n in range(5, 9) for _ in range(4)]
    exact, polygons = [], []
    for space in spaces:
        a, b = random_observable(space, rng), random_observable(space, rng)
        pairs = [(a, b), (b, a), (coarse(a), a), (a, coarse(a))]
        (exact if space.mode == "exact" else polygons).extend(pairs)
    return exact + [(t.as_float(), s.as_float()) for t, s in exact] + polygons


def test_relation_verdicts_pinned():
    # Verdicts only: a Farkas vector's length follows the program's shape.
    import hashlib

    verdicts = ["related" if is_postprocessing_of(t, s).simulable else "unrelated"
                for t, s in _relation_corpus()]
    assert (verdicts.count("related"), len(verdicts)) == (66, 224)
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == (
        "bafbe5e758b69742ccb91e7e43d3e18f6bdf5756746f1a96b5e6e257a1fa089a")
