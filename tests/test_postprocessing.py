"""Channels, the postprocessing relation, and minimal sufficiency."""

import math
import random
from fractions import Fraction

import pytest

from corpora import relation_corpus
from gptsim.catalog import classical, polygon, qubit_suite, random_observable, square_bit
from gptsim.geometry import rank
from gptsim.postprocessing import (
    Postprocessing,
    apply,
    are_equivalent,
    binarization,
    is_postprocessing_clean,
    is_postprocessing_of,
    merge_channel,
    minimally_sufficient,
    minimally_sufficient_with_channels,
    proportional_groups,
    replay_relation,
)
from gptsim.scalars import field, vscale
from gptsim.simulation import SimulationCertificate
from gptsim.spaces import Effect, observable, trivial_observable
from oracles import minimally_sufficient_pairwise

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


def test_merge_channel_needs_its_labels():
    # a target or a merged label outside the labels gave all-zero rows
    labels = ("a", "b", "c")
    for merged, into in ((("a", "b"), "a"), (("b", "c"), "a"), (labels, "c"), ((), "b")):
        for mode in ("exact", "float"):
            assert merge_channel(labels, merged, into, mode).is_stochastic()
    for merged, into in ((("a", "b"), "z"), (("a", "z"), "a"), (("z",), "b")):
        with pytest.raises(ValueError, match="among the labels"):
            merge_channel(labels, merged, into)


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
    mixture = suite.ct(1.0 / root2)
    assert max(abs(x) for x in
               (mixture.effects[0].coeffs[0] - 0.5,
                mixture.effects[0].coeffs[1] - 0.5)) < 1e-12
    ct = suite.ct(t)
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
    return SimulationCertificate.from_scheme((1,), (channel,))


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


def _stochastic_reference(matrix) -> bool:
    return all(0 <= v <= 1 for row in matrix for v in row) and all(
        sum(row, F(0)) == 1 for row in matrix)


def test_exact_is_stochastic_matches_fraction_reference():
    tiny = F(1, 10 ** 30)
    edges = [  # (matrix, stochastic)
        (((F(0), F(1)), (F(1), F(0)), (HALF, HALF)), True),  # entries exactly 0 and 1
        (((HALF, HALF + tiny),), False),  # row sum 1 + 1e-30
        (((HALF, HALF - tiny),), False),  # row sum 1 - 1e-30
        (((1 + tiny, -tiny),), False),  # sum 1, one entry negative and one above 1
        (((F(3, 2), -HALF),), False),
        (((0, 1), (1, 0)), True),  # ints only
        (((1, 1),), False),
        (((), ()), False),  # an empty target: each row sums to 0
        ((), True),  # no source outcome: no row to test
    ]
    rng = random.Random(29)
    seeded = []
    for _ in range(200):
        rows, width = [], rng.randint(1, 4)
        for _ in range(rng.randint(1, 4)):
            row = [F(rng.randint(0, 9), rng.randint(1, 2 ** 70)) for _ in range(width)]
            total = sum(row, F(0))
            rows.append([v / total for v in row] if total else [F(1)] + row[1:])
        row = rng.choice(rows)  # stochastic unless this entry moves
        j = rng.randrange(width)
        row[j] += rng.choice([0, 0, tiny, -tiny, -row[j] - tiny])
        seeded.append(tuple(map(tuple, rows)))
    for matrix, expected in edges + [(m, _stochastic_reference(m)) for m in seeded]:
        chan = Postprocessing([f"x{i}" for i in range(len(matrix))],
                              [f"y{j}" for j in range(len(matrix[0]) if matrix else 2)], matrix)
        assert chan.mode == "exact"
        assert chan.is_stochastic() is expected is _stochastic_reference(matrix)
    assert 40 < sum(map(_stochastic_reference, seeded)) < 160


def test_float_is_stochastic_fails_nan():
    nan = float("nan")
    assert Postprocessing(("a",), ("x", "y"), ((0.5, 0.5),)).is_stochastic()
    for row in ((nan, 1.0), (0.0, nan), (nan, nan)):
        assert not Postprocessing(("a",), ("x", "y"), (row,)).is_stochastic()


def test_sharp_x_y_unrelated(suite):
    x = suite.X
    y = suite.Y
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


def _split(obs, rng):
    """obs with about half its effects split in two proportional parts and,
    now and then, a zero effect inserted."""
    F = field(obs.mode)
    items = []
    for lab, eff in obs.outcomes:
        if rng.random() < 0.5:
            w = F.coerce(rng.randint(1, 9)) / 10
            items += [(lab + "a", vscale(w, eff.coeffs)), (lab + "b", vscale(1 - w, eff.coeffs))]
        else:
            items.append((lab, eff.coeffs))
    if rng.random() < 0.3:
        items.insert(rng.randrange(len(items) + 1), ("z", (F.zero,) * obs.dim))
    return observable(obs.space, items)


def _grouping_inputs(family):
    rng = random.Random(f"grouping/{family}")
    theories = {"square": square_bit, "classical3": lambda: classical(3),
                **{f"polygon{n}": (lambda n=n: polygon(n)) for n in (5, 6, 7, 8)}}
    if family in theories:
        space = theories[family]().space
        for _ in range(6):
            obs = random_observable(space, rng)
            yield from (obs, _split(obs, rng))
    elif family == "qubit":
        suite = qubit_suite()
        for obs in (suite.X, suite.Y, suite.Z, suite.tetrahedron, suite.ct(0.8)):
            yield from (obs, _split(obs, rng), _split(obs.as_float(), rng))
    else:  # one effect split by the factors 10^k, k = -6..6
        sq = square_bit()
        obs = sq.E if family == "powers-exact" else sq.E.as_float()
        (e, f), ten = obs.effects, field(obs.mode).coerce(10)
        for k in range(-6, 7):
            c = ten ** k
            yield observable(obs.space, [("a", vscale(c / (1 + c), e.coeffs)),
                                         ("b", vscale(1 / (1 + c), e.coeffs)), ("c", f.coeffs)])


@pytest.mark.parametrize("family", ["square", "classical3", "polygon5", "polygon6", "polygon7",
                                    "polygon8", "qubit", "powers-exact", "powers-float"])
def test_minimally_sufficient_matches_the_pairwise_rank_grouping(family):
    # grouping by the canonical ray's key gives the labels, effects and
    # channels that pairwise rank tests give
    for obs in _grouping_inputs(family):
        expected = minimally_sufficient_pairwise(obs)
        assert minimally_sufficient(obs) == expected[0]
        assert minimally_sufficient_with_channels(obs) == expected


def test_proportional_groups_sum_in_outcome_order_under_the_smallest_label(sq):
    # one (smallest label, summed coefficients, outcome indices) per ray,
    # sorted by label; a zero effect joins no group
    (e, _), (f, _) = sq.E.effects, sq.F.effects
    third = F(1, 3)
    obs = observable(sq.space, [("m", f.coeffs), ("z", vscale(third, e.coeffs)), ("q", (0, 0, 0)),
                                ("a", vscale(1 - third, e.coeffs))])
    assert proportional_groups(obs) == [("a", e.coeffs, [1, 3]), ("m", f.coeffs, [0])]
    assert minimally_sufficient(obs).outcomes == (("a", e), ("m", f))


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


def test_postprocessing_clean(sq):
    assert is_postprocessing_clean(sq.E)
    from gptsim.catalog import tetrahedron_rational
    from gptsim.qubit import QubitEffect, QubitSpace
    from gptsim.spaces import Observable, is_valid_observable

    noisy = Observable((
        ("0", QubitEffect(0, (0, 0, 0))),
        ("+", QubitEffect(F(-1, 2), (0, 0, F(1, 2)))),
        ("-", QubitEffect(F(-1, 2), (0, 0, F(-1, 2)))),
    ), QubitSpace())
    assert is_valid_observable(noisy)
    assert not is_postprocessing_clean(noisy)  # the half-identity outcome
    tetra_vec = tetrahedron_rational()["B"]
    # every tetrahedron effect is a ray of the rationalized positivity cone,
    # checked through the weighted norm identity
    for eff in tetra_vec.effects:
        ex, ey, ez, tau = eff.coeffs
        assert 2 * ex ** 2 + 6 * ey ** 2 + ez ** 2 == (2 * tau) ** 2


def test_postprocessing_clean_scans_a_float_form_for_its_field_once(monkeypatch):
    # the field is resolved once, from the observable's kind: the effects
    # reach `is_extremal` as one array of that field, whose float dtype
    # needs no second scan; the verdicts are those of one `is_extremal`
    # call per effect
    from gptsim import postprocessing, qubit, scalars, spaces
    from gptsim.geometry import conic_decompose
    from gptsim.spaces import Observable, dual_cone_rays

    space = polygon(7).space
    rays = dual_cone_rays(space)
    parts = conic_decompose(space.unit, rays, mode=space.mode).coefficients
    sharp = observable(space, [(str(k), vscale(c, r))  # one ray per outcome: clean
                               for k, (c, r) in enumerate(zip(parts, rays)) if c > 0])
    rng, verdicts = random.Random(38), set()
    for obs in [sharp, *(random_observable(space, rng, 3) for _ in range(8))]:
        form = minimally_sufficient(obs)
        fresh = Observable(form.outcomes, form.space)  # no kind read yet
        numbers = {x for eff in fresh.effects for x in eff.coeffs}
        scans, kind_of = [], scalars.kind_of

        def counted(values):
            values = list(values)
            scans.append(values)
            return kind_of(values)

        with monkeypatch.context() as patch:
            for module in (postprocessing, qubit, scalars, spaces):
                patch.setattr(module, "kind_of", counted)
            clean = is_postprocessing_clean(fresh)
        assert clean == all(space.is_extremal([eff])[0] for eff in form.effects)
        assert sum(set(values) == numbers for values in scans) == 1
        verdicts.add(clean)
    assert verdicts == {True, False}


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


def test_relation_verdicts_pinned():
    # Verdicts only: a Farkas vector's length follows the program's shape.
    import hashlib

    verdicts = ["related" if is_postprocessing_of(t, s).simulable else "unrelated"
                for t, s in relation_corpus()]
    assert (verdicts.count("related"), len(verdicts)) == (66, 224)
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == (
        "bafbe5e758b69742ccb91e7e43d3e18f6bdf5756746f1a96b5e6e257a1fa089a")
