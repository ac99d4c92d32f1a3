"""Simulability decisions, certificates, and derived quantities."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from corpora import bracket_corpus, compatibility_corpus, simulation_corpus
from oracles import polytope_noise_content_direct, qubit_noise_content_grid

from gptsim.catalog import (
    hexagon_noise_example,
    polygon,
    polygon_irreducibles,
    random_observable,
    square_bit,
    tetrahedron_rational,
)
from gptsim.geometry import canonical_ray
from gptsim.lp import INFEASIBLE, lp_solve, make_program, verify_farkas
from gptsim.postprocessing import (
    Postprocessing,
    apply,
    is_postprocessing_clean,
    is_postprocessing_of,
    merge_channel,
    replay_relation,
)
from gptsim.scalars import field
from gptsim.simulation import (
    NOT_SIMULABLE,
    SIMULABLE,
    SimulationCertificate,
    check_closure_laws,
    decompose_to_irreducibles,
    dichotomic_hull_necessary,
    is_compatible,
    is_simulable,
    is_simulation_irreducible,
    noise_content,
    noise_monotonicity_check,
    replay_simulation,
    simulation_program,
    smin,
)
from gptsim.spaces import (
    Observable,
    decompose_into_indecomposables,
    observable,
    trivial_observable,
)

F = Fraction
HALF = F(1, 2)


def test_identity_simulation(sq):
    cert = is_simulable(sq.E, [sq.E])
    assert cert.simulable
    assert replay_simulation(cert, sq.E, [sq.E])


@pytest.mark.parametrize("defect", ["missing-channel", "relabelled-source",
                                    "relabelled-target", "one-source-row"])
def test_replay_rejects_malformed_simulable_certificate(sq, defect):
    sims = [sq.E, sq.F]
    cert = is_simulable(sq.E, sims)
    assert cert.simulable and replay_simulation(cert, sq.E, sims)
    used, spare = cert.channels
    channels = {
        "missing-channel": (used,),
        "relabelled-source": (Postprocessing(("a", "b"), used.target, used.matrix), spare),
        "relabelled-target": (Postprocessing(used.source, ("a", "b"), used.matrix), spare),
        "one-source-row": (Postprocessing(("+",), used.target, used.matrix[:1]), spare),
    }[defect]
    bad = dataclasses.replace(cert, channels=channels)
    assert replay_simulation(bad, sq.E, sims) is False


def test_replay_rejects_tampered_exact_farkas():
    # B is neither simulable from the binarizations nor a postprocessing of
    # C1; each exact Farkas vector y is tight (y'A_j = 0) on some column j.
    # Moving one y_i by 1/10**12 in the sign of A_ij makes y'A_j positive: a
    # float replay with eps 1e-9 would pass it, the exact one must not.
    rat = tetrahedron_rational()
    target, sims = rat["B"], [rat[f"C{i}"] for i in (1, 2, 3, 4)]
    cases = [(is_simulable(target, sims), sims,
              lambda c: replay_simulation(c, target, sims)),
             (is_postprocessing_of(target, sims[0]), sims[:1],
              lambda c: replay_relation(c, target, sims[0]))]
    for cert, used, replay in cases:
        assert cert.farkas is not None and replay(cert)
        program = simulation_program(target, used)
        y = list(cert.farkas)
        j = next(j for j, col in enumerate(zip(*program.rows))
                 if any(col) and sum(a * b for a, b in zip(y, col)) == 0)
        i = next(i for i, row in enumerate(program.rows) if row[j] != 0)
        y[i] += F(1 if program.rows[i][j] > 0 else -1, 10 ** 12)
        for farkas in (tuple(y), tuple(-v for v in cert.farkas), cert.farkas[:-1]):
            bad = dataclasses.replace(cert, farkas=farkas)
            assert replay(bad) is False


def test_replay_rejects_a_certificate_for_another_instance(sq):
    # A certificate replays against its own instance only, not against
    # another simulator list or another target. F from [F] and E from [E]
    # are simulable, so the Farkas vector of F from [E] refutes neither, and
    # E's scheme from [E, F] does not simulate F.
    cert = is_simulable(sq.F, [sq.E])
    assert not cert.simulable and replay_simulation(cert, sq.F, [sq.E])
    assert replay_simulation(cert, sq.F, [sq.F]) is False
    assert replay_simulation(cert, sq.E, [sq.E]) is False
    cert = is_simulable(sq.E, [sq.E, sq.F])
    assert cert.simulable
    assert replay_simulation(cert, sq.F, [sq.E, sq.F]) is False


def test_replay_rejects_schemes_of_a_faulty_builder(sq, monkeypatch):
    # A builder that drops the coordinate-0 effect rows of the first two
    # target outcomes turns some refutable targets SIMULABLE. The replay
    # checks the definition, not a program, so it rejects every one of them.
    import random

    from gptsim import simulation

    built = simulation.simulation_program

    def faulty(target, simulators, tol=None):
        program = built(target, simulators)
        nx = sum(sim.n_outcomes for sim in simulators)
        dropped = {nx + 1 + y * target.dim for y in range(min(2, target.n_outcomes - 1))}
        kept = [r for r in range(len(program.rhs)) if r not in dropped]
        return make_program([program.rows[r] for r in kept], [program.rhs[r] for r in kept],
                            start=program.start)

    rng = random.Random(28)
    cases = [(random_observable(sq.space, rng), [sim]) for _ in range(100) for sim in (sq.E, sq.F)]
    refuted = [(t, sims) for t, sims in cases if not is_simulable(t, sims).simulable]
    monkeypatch.setattr(simulation, "simulation_program", faulty)
    wrong = [(t, sims, cert) for t, sims in refuted
             for cert in [is_simulable(t, sims)] if cert.simulable]
    assert wrong
    assert not any(replay_simulation(cert, t, sims) for t, sims, cert in wrong)


def test_replay_against_equal_distinct_observables(sq):
    # Equal observables that are other objects build an equal program, and
    # the certificate replays against them.
    def twin(obs):
        return Observable(obs.outcomes, obs.space)

    sims = [sq.E, sq.F]
    program = simulation_program(sq.E, sims)
    assert simulation_program(twin(sq.E), [twin(s) for s in sims]) == program
    for target in (sq.E, twin(sq.E)):
        cert = is_simulable(target, sims)
        assert cert.simulable
        assert replay_simulation(cert, twin(sq.E), [twin(s) for s in sims])
    refuted = is_simulable(sq.F, [sq.E])
    assert replay_simulation(refuted, twin(sq.F), [twin(sq.E)])


def _program_layout(target, simulators, zero, one, full=False):
    """simulation_program's rows, right-hand side and start built entry by
    entry from its docstring; with `full`, the rows of the target's last
    outcome are kept too, as `simulation_program` laid them out before it
    dropped them."""
    ny, dim, k = target.n_outcomes, target.dim, len(simulators)
    outcomes = [(i, eff) for i, sim in enumerate(simulators) for eff in sim.effects]
    c0 = len(outcomes) * ny
    kept = ny if full else ny - 1
    rows = []
    for g, (i, _) in enumerate(outcomes):
        rows.append([one if g * ny <= j < (g + 1) * ny else -one if j == c0 + i else zero
                     for j in range(c0 + k)])
    rows.append([zero] * c0 + [one] * k)
    for y in range(kept):
        for d in range(dim):
            row = [zero] * (c0 + k)
            for g, (_, eff) in enumerate(outcomes):
                row[g * ny + y] = eff.coeffs[d]
            rows.append(row)
    rhs = ([zero] * len(outcomes) + [one]
           + [x for eff in target.effects[:kept] for x in eff.coeffs])
    start = tuple((g, g * ny + ny - 1) for g in range(len(outcomes)))
    return rows, rhs, start


def test_float_simulation_program_is_one_read_only_array():
    # one simulator and several, with 2, 3 and 4 outcomes, and a -0.0
    # coefficient whose sign the placed blocks keep; a one-outcome target
    # keeps no effect-matching row
    target = Observable((("a", (0.25, -0.0, 0.5)), ("b", (0.75, 1.0, -0.5)),
                         ("c", (0.0, 0.0, 1.0))))
    two = Observable((("p", (0.5, -0.0, 0.25)), ("q", (0.5, 1.0, 0.75))))
    four = Observable(tuple((f"r{j}", (0.25, (0.5, -0.0, 0.25, 0.25)[j], j / 6))
                            for j in range(4)))
    one = Observable((("u", (1.0, 1.0, 1.0)),))
    for tgt, sims in ((target, [two]), (target, [target, two]), (target, [two, four, target]),
                      (one, [two, four])):
        program = simulation_program(tgt, sims)
        rows, rhs, start = _program_layout(tgt, sims, 0.0, 1.0)
        expected = np.array(rows, dtype=float)
        assert isinstance(program.rows, np.ndarray) and program.rows.dtype == float
        assert not program.rows.flags.writeable
        assert program.rows.shape == expected.shape
        assert np.array_equal(program.rows, expected)
        assert np.array_equal(np.signbit(program.rows), np.signbit(expected))
        assert np.signbit(program.rows).any() or tgt is one
        assert program.rhs == tuple(rhs) and program.start == start


def test_exact_simulation_program_keeps_int_and_fraction_tuples(sq):
    sims = [sq.E, sq.F, sq.E]
    program = simulation_program(sq.F, sims)
    rows, rhs, start = _program_layout(sq.F, sims, 0, 1)
    assert isinstance(program.rows, tuple) and all(isinstance(r, tuple) for r in program.rows)
    assert program.rows == tuple(map(tuple, rows)) and program.rhs == tuple(rhs)
    assert program.start == start
    assert [[type(x) for x in r] for r in program.rows] == [[type(x) for x in r] for r in rows]
    assert {type(x) for r in program.rows for x in r} == {int, Fraction}


def _shared_sum_observable(rng, n, kinds, unit):
    """n effects whose coordinate d is of kind kinds[d] ("int", "zero",
    "small" or "big": a Fraction with a denominator past 2**64), the last
    one completing the sum to `unit` exactly."""
    big = 2 ** 64
    draw = {"int": lambda: rng.randint(-3, 3), "zero": lambda: 0,
            "small": lambda: F(rng.randint(-5, 5), rng.randint(1, 6)),
            "big": lambda: F(rng.randint(-big, big), big + rng.randint(1, big))}
    effects = [tuple(draw[kind]() for kind in kinds) for _ in range(n - 1)]
    last = tuple(u - sum(e[d] for e in effects) for d, u in enumerate(unit))
    return Observable(tuple((str(j), e) for j, e in enumerate(effects + [last])))


def test_exact_builder_fills_the_generic_clearing():
    # simulation_program clears its rows from the layout; the program would
    # clear the same rows and right-hand sides entry by entry
    rng = random.Random(29)
    programs = simulation_corpus()
    for kinds, unit in ((("int", "zero", "small", "big"), (1, 0, F(1, 3), F(2, 7))),
                        (("big", "small", "zero", "int"), (F(1, 2 ** 65 + 1), 1, 0, 2)),
                        (("int", "zero", "int"), (1, 0, 1))):
        for n_target, sizes in ((3, [2]), (2, [3, 1]), (4, [2, 2, 3]), (1, [2])):
            target = _shared_sum_observable(rng, n_target, kinds, unit)
            sims = [_shared_sum_observable(rng, n, kinds, unit) for n in sizes]
            programs.append(simulation_program(target, sims))
    assert max(den for p in programs for _, den in p.integer_data) > 2 ** 64
    for program in programs:
        assert "integer_data" in vars(program)  # filled by the builder, not on first read
        generic = make_program(rows=program.rows, rhs=program.rhs).integer_data
        assert program.integer_data == generic
        assert all(type(x) is int for row, den in program.integer_data for x in (*row, den))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_replay_tests_the_last_outcome(sq, mode):
    # A scheme for E from [E, F] satisfies every kept row of a target that
    # differs from E only in its last effect, since both lay out the same
    # kept rows; its replay against that target fails.
    def cast(obs):
        return obs.as_float() if mode == "float" else obs

    sims = [cast(sq.E), cast(sq.F)]
    target = cast(sq.E)
    cert = is_simulable(target, sims)
    assert cert.simulable and replay_simulation(cert, target, sims)
    (first, a), (last, _) = target.outcomes
    other = Observable(((first, a), (last, cast(sq.F).effects[0])), target.space)
    zero, one = (0.0, 1.0) if mode == "float" else (0, 1)
    assert _program_layout(other, sims, zero, one) == _program_layout(target, sims, zero, one)
    assert replay_simulation(cert, other, sims) is False


def test_float_replay_tests_the_dropped_rows(monkeypatch):
    # Kept rows off by 0.9e-9 (within eps) add up to 1.8e-9 in the dropped
    # row: x = (1, 0) from [x] with weight 1 + 0.9e-9 and a channel that
    # moves 1.8e-9 of outcome a to b. The program's rows accept the scheme;
    # the replay and a decision that returned it do not.
    from gptsim import simulation
    from gptsim.lp import FEASIBLE, CertificateError, LPOutcome, verify_solution

    x = Observable((("a", (1.0, 0.0)), ("b", (0.0, 1.0))))
    w, tau = 1.0 + 0.9e-9, 1.8e-9
    chan = Postprocessing(x.labels, x.labels, ((1.0 - tau, tau), (0.0, 1.0)))
    cert = dataclasses.replace(is_simulable(x, [x]), weights=(w,), channels=(chan,))
    solution = tuple(w * v for row in chan.matrix for v in row) + (w,)
    assert verify_solution(simulation_program(x, [x]), solution)
    assert replay_simulation(cert, x, [x]) is False
    monkeypatch.setattr(simulation, "lp_solve",
                        lambda *args, **kwargs: LPOutcome(FEASIBLE, "float", solution=solution))
    with pytest.raises(CertificateError, match="last-outcome rows"):
        is_simulable(x, [x])


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_unequal_effect_sums_rejected(sq, mode):
    # A target whose effects do not sum to the simulators' unit: the dropped
    # rows would not be implied, so no program is built for it.
    half = Observable((("+", sq.E.effects[0].coeffs),), sq.space)
    target, sims = (half, [sq.E]) if mode == "exact" else (half.as_float(), [sq.E.as_float()])
    with pytest.raises(ValueError, match="sum to one vector"):
        is_simulable(target, sims)
    with pytest.raises(ValueError, match="sum to one vector"):
        is_postprocessing_of(target, sims[0])
    cert = is_simulable(sims[0], sims)
    assert replay_simulation(cert, target, sims) is False


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_full_layout_farkas_replays(sq, mode):
    # Certificates written before the last outcome's rows were dropped have
    # one entry per row of the full layout, with a nonzero last block; the
    # replay reads them as Farkas vectors of the full program. A vector
    # tampered in that block so that it is no refutation of the full program
    # fails.
    rat = tetrahedron_rational()
    target, sims = rat["B"], [rat[f"C{i}"] for i in (1, 2, 3, 4)]
    zero, one = (0, 1)
    if mode == "float":
        target, sims, zero, one = target.as_float(), [s.as_float() for s in sims], 0.0, 1.0
    rows, rhs, _ = _program_layout(target, sims, zero, one, full=True)
    program = make_program(rows=rows, rhs=rhs)
    farkas = lp_solve(program).farkas
    dim = target.dim
    assert any(farkas[-dim:])
    cert = SimulationCertificate(NOT_SIMULABLE, farkas=farkas)
    assert replay_simulation(cert, target, sims)
    new = is_simulable(target, sims)
    assert len(new.farkas) == len(farkas) and not any(new.farkas[-dim:])
    assert verify_farkas(program, new.farkas)  # zero-padded: a refutation of the full rows
    # tamper: raise y'A_j above zero on a column tight for y, through a last-block row
    y = list(farkas)
    tight = [j for j, col in enumerate(zip(*program.rows))
             if abs(sum(a * b for a, b in zip(y, col))) <= 1e-12
             and any(col[len(y) - dim:])]
    j = tight[0]
    i = next(i for i in range(len(y) - dim, len(y)) if program.rows[i][j] != 0)
    y[i] += (1 if program.rows[i][j] > 0 else -1) * (F(1, 10**6) if mode == "exact" else 1e-6)
    assert not verify_farkas(program, y)
    assert replay_simulation(dataclasses.replace(cert, farkas=tuple(y)), target, sims) is False


def test_replay_rejects_nan_certificates(sq):
    # NaN weights and channels fail the stochasticity test and the solution
    # replay, and a NaN Farkas vector fails the Farkas replay, also with one
    # NaN entry: one weight, one alpha, beta or one phi.
    nan = float("nan")
    target, sims = sq.E.as_float(), [sq.E.as_float(), sq.F.as_float()]
    cert = is_simulable(target, sims)
    assert cert.simulable and replay_simulation(cert, target, sims)
    channels = tuple(Postprocessing(c.source, c.target, tuple((nan,) * len(r) for r in c.matrix))
                     for c in cert.channels)
    assert not any(c.is_stochastic() for c in channels)
    for bad in (dataclasses.replace(cert, weights=(nan, nan), channels=channels),
                dataclasses.replace(cert, weights=(nan, nan)),
                dataclasses.replace(cert, weights=(nan, cert.weights[1])),
                dataclasses.replace(cert, channels=channels)):
        assert replay_simulation(bad, target, sims) is False
    refuted = is_simulable(sims[1], sims[:1])
    assert not refuted.simulable and replay_simulation(refuted, sims[1], sims[:1])
    # layout: alpha for the two outcomes of E, then beta, then phi
    for entries in (range(len(refuted.farkas)), [0], [2], [3]):
        farkas = [nan if i in entries else v for i, v in enumerate(refuted.farkas)]
        nan_farkas = dataclasses.replace(refuted, farkas=tuple(farkas))
        assert replay_simulation(nan_farkas, sims[1], sims[:1]) is False


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_replay_tests_weights_and_weight_columns(sq, mode):
    # Each of these matches every target effect, so only the test named
    # rejects it: weights (2, -1) over [E, E] (a negative weight); weight 2
    # for the doubled E from [E] (weights summing to 2); and y = (0, 0, 0, 0,
    # beta = 1, 0, ...) for E from [E, F], which passes every column M[g, y]
    # but not the weight columns (beta <= sum of the alphas of simulator i).
    e = sq.E.as_float() if mode == "float" else sq.E
    one, zero = (1.0, 0.0) if mode == "float" else (1, 0)
    identity = Postprocessing(e.labels, e.labels, ((one, zero), (zero, one)))
    scheme = SimulationCertificate(SIMULABLE, weights=(one, zero), channels=(identity,) * 2)
    assert replay_simulation(scheme, e, [e, e])
    assert not replay_simulation(dataclasses.replace(scheme, weights=(2 * one, -one)), e, [e, e])
    doubled = Observable(tuple((lab, tuple(2 * c for c in eff.coeffs)) for lab, eff in e.outcomes))
    twice = SimulationCertificate(SIMULABLE, weights=(2 * one,), channels=(identity,))
    assert not replay_simulation(twice, doubled, [e])
    sims = [e, sq.F.as_float() if mode == "float" else sq.F]
    beta = SimulationCertificate(NOT_SIMULABLE, farkas=(zero,) * 4 + (one,) + (zero,) * 6)
    assert not replay_simulation(beta, e, sims)


def test_mixed_spaces_rejected(sq, trit):
    with pytest.raises(ValueError):
        is_simulable(sq.E, [trit.distinguishing])
    # spaces compare by value: an equal copy joins, any later mismatch fails
    states = tuple(tuple(list(s)) for s in sq.space.extreme_states)
    copy = dataclasses.replace(sq.space, extreme_states=states)
    assert copy is not sq.space
    assert is_simulable(sq.E, [dataclasses.replace(sq.E, space=copy)]).simulable
    with pytest.raises(ValueError, match="mixed state spaces"):
        is_simulable(sq.E, [sq.E, sq.F, trit.distinguishing])


def test_bare_observable_joins_any_space(sq, trit):
    # A space that is not set matches any space; two set spaces must agree.
    bare = Observable(sq.E.outcomes, None)
    assert is_simulable(bare, [sq.E]).simulable and is_simulable(sq.E, [bare]).simulable
    assert is_postprocessing_of(bare, sq.E).simulable and is_postprocessing_of(sq.E, bare).simulable
    with pytest.raises(ValueError):
        is_postprocessing_of(sq.E, trit.distinguishing)
    with pytest.raises(ValueError):
        is_simulable(bare, [sq.E, trit.distinguishing])


def test_c_half_mixture_simulable(suite):
    sims = [suite.X.as_float(), suite.Y.as_float()]
    target = suite.ct(1.0 / math.sqrt(2.0))
    cert = is_simulable(target, sims)
    assert cert.simulable
    assert replay_simulation(cert, target, sims)


def test_ct_above_threshold_not_simulable(suite):
    sims = [suite.X.as_float(), suite.Y.as_float()]
    target = suite.ct(0.8)
    cert = is_simulable(target, sims)
    assert not cert.simulable
    assert replay_simulation(cert, target, sims)
    # the same LP, checked at the solver level
    out = lp_solve(simulation_program(target, sims))
    assert out.verdict == INFEASIBLE


def test_hexagon_quarter_certificate_weights():
    ex = hexagon_noise_example(0.25)
    cert = ex.certificate
    assert cert.simulable
    assert max(abs(w - 1.0 / 3.0) for w in cert.weights) < 1e-9


def test_irreducibility_verdicts(sq, suite):
    assert is_simulation_irreducible(sq.E)
    assert is_simulation_irreducible(suite.tetrahedron)
    quarter = F(1, 4)
    a4 = observable(None, [("+1", (2 * quarter, F(0), F(0), quarter)),
                           ("-1", (-2 * quarter, F(0), F(0), quarter)),
                           ("+2", (F(0), 2 * quarter, F(0), quarter)),
                           ("-2", (F(0), -2 * quarter, F(0), quarter))])
    # postprocessing clean (all rank one) yet reducible
    from gptsim.qubit import QubitEffect, QubitSpace
    a4_q = Observable((("+1", QubitEffect(F(-1, 2), (HALF, 0, 0))),
                       ("-1", QubitEffect(F(-1, 2), (-HALF, 0, 0))),
                       ("+2", QubitEffect(F(-1, 2), (0, HALF, 0))),
                       ("-2", QubitEffect(F(-1, 2), (0, -HALF, 0)))), QubitSpace())
    assert is_postprocessing_clean(a4_q)
    assert not is_simulation_irreducible(a4_q)


def test_decompose_four_outcome_mixture_into_x_and_y():
    from gptsim.qubit import QubitEffect, QubitSpace

    vec = Observable((("+1", QubitEffect(-0.5, (0.5, 0, 0))),
                      ("-1", QubitEffect(-0.5, (-0.5, 0, 0))),
                      ("+2", QubitEffect(-0.5, (0, 0.5, 0))),
                      ("-2", QubitEffect(-0.5, (0, -0.5, 0)))), QubitSpace())
    dec = decompose_to_irreducibles(vec)
    assert len(dec.observables) == 2
    assert sorted(float(w) for w in dec.certificate.weights) == [0.5, 0.5]
    directions = set()
    for leaf in dec.observables:
        for eff in leaf.effects:
            big = max(range(4), key=lambda d: abs(eff.coeffs[d]))
            if big < 3:
                directions.add(big)
    assert directions == {0, 1}  # one leaf along x, one along y
    assert replay_simulation(dec.certificate, vec, list(dec.observables))


def test_decompose_irreducible_is_singleton(sq):
    dec = decompose_to_irreducibles(sq.E)
    assert len(dec.observables) == 1
    assert dec.splits == 0


def test_decompose_hexagon_trivial(hexagon):
    third = 1.0 / 3.0
    triv = trivial_observable(hexagon.space, [("a", third), ("b", third),
                                              ("c", 1.0 - 2 * third)])
    dec = decompose_to_irreducibles(triv)
    assert replay_simulation(dec.certificate, triv, list(dec.observables))
    for leaf in dec.observables:
        assert is_simulation_irreducible(leaf)


def _refined_rays(obs):
    """The distinct rays the observable's effects refine onto."""
    F = field(obs.mode)
    return {F.key(canonical_ray(part.coeffs, F.mode)) for eff in obs.effects
            for part in decompose_into_indecomposables(eff, obs.space)}


@pytest.mark.parametrize("n", [12, 30])
def test_decompose_leaf_budget(n):
    # vertex peeling: each leaf is a vertex of the polytope of ray weights,
    # whose dimension is at most s - 3 for s distinct refined rays
    space = polygon(n).space
    for seed in range(10):
        obs = random_observable(space, random.Random(seed), 3 + seed % 4)
        dec = decompose_to_irreducibles(obs)
        s = len(_refined_rays(obs))
        assert len(dec.observables) <= max(1, s - 2), f"n={n} seed={seed} s={s}"
        assert dec.splits == len(dec.observables) - 1
        assert all(is_simulation_irreducible(leaf) for leaf in dec.observables)
        assert replay_simulation(dec.certificate, obs, list(dec.observables))


def test_decompose_exact_weights_sum_to_one(sq, rng):
    for _ in range(10):
        obs = random_observable(sq.space, rng)
        dec = decompose_to_irreducibles(obs)
        weights = dec.certificate.weights
        assert all(isinstance(w, Fraction) for w in weights)
        assert sum(weights) == 1
        assert len(dec.observables) <= max(1, len(_refined_rays(obs)) - 2)
        assert replay_simulation(dec.certificate, obs, list(dec.observables))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_decompose_groups_outcomes_on_one_ray(sq, mode):
    # E+ split into two halves beside E-: one ray carries two outcomes, so
    # one leaf (E+, E-) comes out, and its channel shares the E+ ray
    plus, minus = sq.E.effects
    obs = observable(sq.space, [("a", tuple(HALF * x for x in plus.coeffs)),
                                ("b", tuple(HALF * x for x in plus.coeffs)),
                                ("c", minus.coeffs)])
    obs = obs.as_float() if mode == "float" else obs
    dec = decompose_to_irreducibles(obs)
    (leaf,) = dec.observables
    assert leaf.labels == ("a.0", "c.0")
    assert leaf.effects == (sq.E.as_float() if mode == "float" else sq.E).effects
    assert dec.certificate.weights == (1,)
    assert dec.certificate.channels[0].matrix == ((HALF, HALF, 0), (0, 0, 1))
    assert replay_simulation(dec.certificate, obs, [leaf])


def test_noise_content_values(sq, hexagon, suite):
    triv = trivial_observable(sq.space, [("a", HALF), ("b", HALF)])
    assert noise_content(triv).value == 1
    assert noise_content(sq.E).value == 0
    with pytest.raises(ValueError, match="valid effects"):  # -u is no effect
        noise_content(observable(sq.space, [("a", (0, 0, 2)), ("b", (0, 0, -1))]))
    # sharp qubit observables carry no intrinsic trivial noise
    z = suite.Z
    assert noise_content(z).value == 0.0
    assert abs(noise_content(z).value - qubit_noise_content_grid(suite.Z)) < 1e-4
    # direct oracle agreement on the polytopic side
    for lam in (0.1, 0.25, 0.5):
        ex = hexagon_noise_example(lam)
        got = noise_content(ex.observable).value
        want = polytope_noise_content_direct(ex.observable)
        assert abs(got - want) < 1e-9
        assert got >= lam - 1e-9


def test_noise_content_residual_replays(sq, rng):
    for _ in range(5):
        obs = random_observable(sq.space, rng)
        res = noise_content(obs)
        lam = res.value
        if res.residual is None or lam == 1:
            continue
        for (lab, eff), tw in zip(obs.outcomes, res.trivial_weights):
            recon = tuple(lam * tw * u + (1 - lam) * b
                          for u, b in zip(sq.space.unit,
                                          res.residual.effect(lab).coeffs))
            assert all(a == b for a, b in zip(recon, eff.coeffs))


def test_noise_content_pinned():
    # sha256 over (value, trivial weights, residual) of seeded exact
    # observables; the digest was taken from the linear-programming version
    import hashlib
    import random

    from gptsim.catalog import classical

    digest = hashlib.sha256()
    for name, space in (("square", square_bit().space), ("classical3", classical(3).space)):
        rng = random.Random(f"noise-digest/{name}")
        for k in (2, 3, 4, 5):
            for _ in range(6):
                res = noise_content(random_observable(space, rng, k))
                digest.update(repr((res.value, res.trivial_weights, res.residual)).encode())
    assert digest.hexdigest() == (
        "19a0acd26c11db97b6d4b2635acf0af83d017f42064650924aabf4e4435a33d4")


def test_qubit_cone_noise_and_verdicts(suite):
    import random

    from gptsim.qubit import random_qubit_observable
    from oracles import qubit_min_eigenvalue

    named = {"X": suite.X, "Y": suite.Y, "Z": suite.Z, "T": suite.T,
             "tetrahedron": suite.tetrahedron,
             "tetra_dichotomic": suite.tetra_dichotomic(),
             **{f"ct({t})": suite.ct(t) for t in (0.0, 0.5, 0.8, 1.0)}}
    rng = random.Random(2024)
    sampled = {f"random {i}": random_qubit_observable(rng) for i in range(50)}
    # (irreducible, postprocessing clean), as the qubit-only functions decided
    expected = {name: (False, False) for name in {**named, **sampled}}
    expected.update({name: (True, True)
                     for name in ("X", "Y", "Z", "tetrahedron", "ct(1.0)")})
    for name, obs in {**named, **sampled}.items():
        want = sum(max(qubit_min_eigenvalue(e.coeffs), 0.0) for e in obs.effects)
        assert abs(noise_content(obs).value - want) <= 1e-12, name
        assert (is_simulation_irreducible(obs), is_postprocessing_clean(obs)) \
            == expected[name], name


def test_smin_examples(sq, suite, rng):
    xyz = [suite.X, suite.Y, suite.Z]
    assert smin(xyz, xyz, k_max=3) == 3
    ab = [suite.X.as_float(), suite.Y.as_float()]
    ct7 = suite.ct(0.7)
    assert smin([ab[0], ab[1], ct7], ab, k_max=2) == 2
    targets = [random_observable(sq.space, rng) for _ in range(10)]
    assert smin(targets, [sq.E, sq.F], k_max=2) <= 2


def test_smin_unknown_above_kmax(suite):
    xyz = [suite.X, suite.Y, suite.Z]
    assert smin(xyz, xyz, k_max=2) is None


@pytest.mark.parametrize("k_max", [0, -1])
def test_smin_rejects_k_max_below_1(suite, k_max):
    with pytest.raises(ValueError, match="k_max must be at least 1"):
        smin([suite.X], [suite.X], k_max=k_max)


def test_hull_necessary(suite, hexagon):
    ex = hexagon_noise_example(0.25)
    results = dichotomic_hull_necessary(ex.observable, list(ex.simulators))
    assert all(r.inside for r in results.values())

    rat = tetrahedron_rational()
    binar = [rat[f"C{i}"] for i in (1, 2, 3, 4)]
    inside = dichotomic_hull_necessary(rat["B"], binar)
    assert all(r.inside for r in inside.values())
    # ... and yet the tetrahedron is not simulable from its binarizations:
    # the hull condition is necessary, not sufficient
    assert not is_simulable(rat["B"], binar).simulable

    sims = [suite.X.as_float(), suite.Y.as_float()]
    c9 = suite.ct(0.9)
    outside = dichotomic_hull_necessary(c9, sims)
    assert any(not r.inside for r in outside.values())
    assert not is_simulable(c9, sims).simulable


def test_closure_laws_small(sq, rng):
    sample = [random_observable(sq.space, rng) for _ in range(6)]
    diag = check_closure_laws(sample, [sq.E, sq.F])
    assert diag.ok


@pytest.mark.parametrize("with_sample", [False, True])
def test_closure_laws_empty_base_raises(sq, with_sample):
    # an empty base and no sample read base[0] and raised IndexError
    with pytest.raises(ValueError, match="base must be nonempty"):
        check_closure_laws([sq.E] if with_sample else [], [])


def test_closure_base_without_target(suite):
    x = suite.X
    y = suite.Y
    diag = check_closure_laws([y], [x])
    assert diag.ok  # sim1 holds; Y is simply not in sim({X})
    assert not is_simulable(y, [x]).simulable


def test_noise_monotonicity(sq, hexagon):
    ex = hexagon_noise_example(0.25)
    diag = noise_monotonicity_check(ex.observable, list(ex.simulators))
    assert diag.holds
    diag = noise_monotonicity_check(sq.E, [sq.E])
    assert diag.holds
    assert diag.target_noise == min(diag.simulator_noise)
    triv = trivial_observable(sq.space, [("a", HALF), ("b", HALF)])
    assert noise_monotonicity_check(triv, [sq.E, sq.F]).holds
    with pytest.raises(ValueError):
        noise_monotonicity_check(sq.E, [sq.F])


def test_compatibility(sq, trit, rng):
    g = trit.distinguishing
    a = random_observable(trit.space, rng)
    b = random_observable(trit.space, rng)
    res = is_compatible([a, b])
    assert res.compatible
    for chan, target in zip(res.marginal_channels, (a, b)):
        assert apply(chan, res.joint).effects == target.effects

    res = is_compatible([sq.E, sq.F])
    assert not res.compatible
    assert res.farkas is not None

    nu = merge_channel(sq.E.labels, ("+", "-"), "+")
    post = apply(nu, sq.E)
    assert is_compatible([sq.E, post]).compatible


def test_compatibility_on_the_qubit_cone(suite):
    from gptsim.qubit import QubitSpace
    from gptsim.scalars import ModeError
    from gptsim.spaces import is_valid_effect

    x, y = (o.as_float() for o in (suite.X, suite.Y))
    nu = Postprocessing(("+", "-"), ("+", "-"), ((0.8, 0.2), (0.3, 0.7)))
    post = apply(nu, x)
    res = is_compatible([x, post])
    assert res.verdict == "compatible"
    for chan, target in zip(res.marginal_channels, (x, post)):
        for got, want in zip(apply(chan, res.joint).effects, target.effects):
            assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) <= 1e-9
    assert all(is_valid_effect(e, QubitSpace()) for e in res.joint.effects)

    res = is_compatible([x, y])
    assert res.verdict == "incompatible"
    assert res.farkas is not None

    with pytest.raises(ModeError):
        is_compatible([suite.X, suite.Y])


def test_compatibility_from_no_generators(sq):
    # column generation from an empty generator list: the first program has
    # no columns, so every generator comes from pricing a Farkas vector
    from gptsim import lp
    from gptsim.qubit import QubitEffect, QubitSpace, dichotomic
    from gptsim.spaces import is_valid_effect

    res = is_compatible([sq.E, sq.F], generators=[])
    assert res.verdict == "incompatible"
    assert res.farkas == (2, -2, -2, 2, 2, -2, -2, 0, 0, 0, 0, 0)

    x, y = (dichotomic("+", "-", QubitEffect(0.0, v)).as_float()
            for v in ((0.5, 0.0, 0.0), (0.0, 0.5, 0.0)))
    solves = lp.stats["solves"]
    res = is_compatible([x, y], generators=[])
    assert res.verdict == "compatible" and lp.stats["solves"] - solves == 5
    for chan, target in zip(res.marginal_channels, (x, y)):
        for got, want in zip(apply(chan, res.joint).effects, target.effects):
            assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) <= 1e-9
    assert all(is_valid_effect(e, QubitSpace()) for e in res.joint.effects)


def test_compatibility_programs_drop_implied_blocks(monkeypatch, sq, suite):
    # Every target after the first loses its last-outcome block, so each
    # program has dim * (sum n_t - (k - 1)) rows, whatever the round.
    from gptsim import lp, simulation

    programs = []

    def recording(program, mode=None, tol=lp.DEFAULT_TOLERANCE):
        programs.append(program)
        return lp.lp_solve(program, mode=mode, tol=tol)

    monkeypatch.setattr(simulation, "lp_solve", recording)
    three = trivial_observable(sq.space, [(lab, F(1, 3)) for lab in "abc"])
    polytope = [[sq.E, sq.F], [sq.E, three], [sq.E, sq.F, three], [three, sq.E, sq.F]]
    qubit = [[suite.X, suite.Y], [suite.xt(0.5), suite.yt(0.5), suite.zt(0.5)],
             [suite.X, suite.tetrahedron], [suite.tetrahedron, suite.xt(0.3), suite.Y]]
    cases = (polytope + [[t.as_float() for t in ts] for ts in polytope]
             + [[t.as_float() for t in ts] for ts in qubit])
    verdicts = set()
    for targets in cases:
        programs.clear()
        verdicts.add(is_compatible(targets).verdict)
        rows = targets[0].dim * (sum(t.n_outcomes for t in targets) - (len(targets) - 1))
        assert programs and all(len(p.rhs) == rows for p in programs)
    assert verdicts == {"compatible", "incompatible"}


def test_compatibility_refutation_pads_dropped_blocks(sq):
    # An exact refutation has one entry per row of the full layout, zeros in
    # the dropped blocks, and refutes the full program with every block.
    three = trivial_observable(sq.space, [(lab, F(1, 3)) for lab in "abc"])
    gens = sq.space.generators()
    for targets, dropped in (([sq.E, sq.F], [3]), ([sq.E, sq.F, three], [3, 6])):
        res = is_compatible(targets)
        assert res.verdict == "incompatible"
        dim, blocks = sq.space.ambient_dim, [(ti, li) for ti, t in enumerate(targets)
                                              for li in range(t.n_outcomes)]
        assert len(res.farkas) == len(blocks) * dim
        for b in dropped:
            assert res.farkas[b * dim:(b + 1) * dim] == (0,) * dim
        joint = list(itertools.product(*[range(t.n_outcomes) for t in targets]))
        full = make_program(
            rows=[[g[d] if omega[ti] == li else 0 for omega in joint for g in gens]
                  for ti, li in blocks for d in range(dim)],
            rhs=[x for t in targets for eff in t.effects for x in eff.coeffs])
        assert verify_farkas(full, res.farkas)


def test_compatibility_float_joint_failing_dropped_blocks_raises(monkeypatch, suite):
    # A float joint is tested on the blocks the program drops: a solve whose
    # joint misses a target's last effect raises instead of returning it.
    from gptsim import lp, simulation
    from gptsim.lp import CertificateError

    x = suite.X.as_float()
    post = apply(Postprocessing(("+", "-"), ("+", "-"), ((0.8, 0.2), (0.3, 0.7))), x)
    assert is_compatible([x, post]).compatible

    def scaled(program, mode=None, tol=lp.DEFAULT_TOLERANCE):
        out = lp.lp_solve(program, mode=mode, tol=tol)
        return dataclasses.replace(out, solution=tuple(v * (1 + 1e-6) for v in out.solution))

    monkeypatch.setattr(simulation, "lp_solve", scaled)
    with pytest.raises(CertificateError, match="last-outcome marginal"):
        is_compatible([x, post])


@pytest.mark.parametrize("name", ["classical4", "square"])
def test_compatibility_float_agrees_with_exact_on_wide_programs(monkeypatch, name):
    # Seeded triples of rational observables: each program has many more
    # columns (joint outcomes times dual rays) than rows. The float twin
    # reaches the exact verdict, and every LP certificate of either replays.
    # Every pair of classical observables is compatible.
    import random

    from gptsim import lp, simulation
    from gptsim.catalog import classical

    solved = []

    def recording(program, mode=None, tol=lp.DEFAULT_TOLERANCE):
        out = lp.lp_solve(program, mode=mode, tol=tol)
        solved.append((program, out))
        return out

    monkeypatch.setattr(simulation, "lp_solve", recording)
    space = {"classical4": classical(4), "square": square_bit()}[name].space
    rng = random.Random(f"wide-compat/{name}")
    verdicts = set()
    for _ in range(8):
        targets = [random_observable(space, rng, rng.randint(2, 4)) for _ in range(3)]
        exact = is_compatible(targets)
        floats = is_compatible([t.as_float() for t in targets])
        assert floats.verdict == exact.verdict
        verdicts.add(exact.verdict)
        if exact.compatible:
            assert [apply(c, exact.joint).effects for c in exact.marginal_channels] == [
                t.effects for t in targets]
    assert verdicts == ({"compatible"} if name == "classical4" else
                        {"compatible", "incompatible"})
    assert {out.mode for _, out in solved} == {"exact", "float"}
    for program, out in solved:
        if out.verdict == INFEASIBLE:
            assert lp.verify_farkas(program, out.farkas, mode=out.mode)
        else:
            assert lp.verify_solution(program, out.solution, mode=out.mode)


def test_compatibility_outcomes_pinned():
    # sha256 over seeded polytope decisions (verdict, joint observable,
    # marginal channels, Farkas vector) and seeded qubit bracket decisions
    # (verdict, solves, pivots). Retaken for the revised float kernel, whose
    # 84 verdicts equal those of the float tableau before it, and again when
    # the programs dropped their implied last-outcome blocks, with every
    # decision verdict unchanged.
    import hashlib

    from gptsim import lp
    from gptsim.catalog import qubit_compatibility_bracket

    digest = hashlib.sha256()
    verdicts = set()
    polytope, qubit = compatibility_corpus()
    for targets in polytope:
        res = is_compatible(targets)
        verdicts.add(res.compatible)
        digest.update(repr((res.compatible, res.joint, res.marginal_channels,
                            res.farkas)).encode())
    assert verdicts == {True, False}

    qubit_verdicts = set()
    for targets in qubit:
        for facets in (8, 16):
            solves, pivots = lp.stats["solves"], lp.stats["pivots"]
            verdict = qubit_compatibility_bracket(targets, facets).verdict
            qubit_verdicts.add(verdict)
            digest.update(repr((verdict, lp.stats["solves"] - solves,
                                lp.stats["pivots"] - pivots)).encode())
    assert qubit_verdicts == {"compatible", "incompatible"}
    assert digest.hexdigest() == (
        "f1c794cade86b823d43e45fa2bac77947214ccb3fa68089a8ba5cb6dee8d10e0")


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_catalog_simulation_with_negligible_weights_replays(n):
    # float solves leave catalog weights of 1e-33..1e-15; dividing a block by
    # such a weight gave a non-stochastic channel that failed replay
    import random

    cat = polygon_irreducibles(n)
    for seed in range(8):
        target = random_observable(cat.theory.space, random.Random(seed), 3)
        cert = is_simulable(target, cat.observables)
        assert cert.simulable
        assert replay_simulation(cert, target, cat.observables), f"n={n} seed={seed}"


def test_decomposition_failing_replay_raises(monkeypatch):
    from gptsim import simulation
    from gptsim.lp import CertificateError

    monkeypatch.setattr(simulation, "replay_simulation", lambda *args: False)
    with pytest.raises(CertificateError):
        decompose_to_irreducibles(square_bit().E)


def test_bracket_128_outcomes_pinned():
    # sha256 over seeded dichotomic qubit triples and pairs at the benchmark's
    # 128 facets: (verdict, joint observable, marginal channels, Farkas
    # vector, solves, pivots), so every float certificate bit is pinned. The
    # float kernel's products sum in the order of numpy's BLAS build.
    import hashlib

    from gptsim import lp
    from gptsim.catalog import qubit_compatibility_bracket

    digest = hashlib.sha256()
    verdicts = set()
    for targets in bracket_corpus():
        solves, pivots = lp.stats["solves"], lp.stats["pivots"]
        res = qubit_compatibility_bracket(targets, 128)
        verdicts.add(res.verdict)
        digest.update(repr((res.verdict, res.joint, res.marginal_channels, res.farkas,
                            lp.stats["solves"] - solves,
                            lp.stats["pivots"] - pivots)).encode())
    assert verdicts == {"compatible", "incompatible"}
    assert digest.hexdigest() == (
        "eaed295d85ff3d58012e3c1ec1c8b67ed52905f2c2e7d85df2ca26f742241ce2")


# ---------------------------------------------------------------------------
# The simulation-set store of `is_simulable`.
# ---------------------------------------------------------------------------

def _store_cases(name):
    """Seeded (target, simulators) pairs over simulation sets that repeat:
    exact square-bit and classical(3) targets, float polygon targets."""
    from gptsim.catalog import classical

    rng = random.Random(f"store/{name}")
    if name == "square":
        sq = square_bit()
        other = random_observable(sq.space, rng, 3)
        sets = [[sq.E, sq.F], [sq.E], [sq.F], [other]]
        space = sq.space
    elif name == "classical3":
        cl = classical(3)
        sets = [[cl.distinguishing], [random_observable(cl.space, rng, 3)]]
        space = cl.space
    else:
        cat = polygon_irreducibles(int(name[-1]))
        space = cat.theory.space
        sets = [list(cat.observables), [random_observable(space, rng, 3)]]
    return [(random_observable(space, rng, 2 + k % 3), sets[k % len(sets)])
            for k in range(24 * len(sets))]


@pytest.mark.parametrize("name", ["square", "classical3", "polygon5", "polygon6",
                                  "polygon7", "polygon8"])
def test_warm_store_verdicts_equal_cold_ones(name):
    # the store decides many targets, with the verdict of a cold solve and a
    # certificate that replays; exact certificates stay Fractions
    from gptsim import lp
    from gptsim.spaces import dual_cone_rays

    cases = _store_cases(name)
    cold = []
    for target, sims in cases:
        dual_cone_rays.cache_clear()
        cold.append(is_simulable(target, sims).verdict)
    dual_cone_rays.cache_clear()
    lp.reset_stats()
    warm = [is_simulable(target, sims) for target, sims in cases]
    assert [cert.verdict for cert in warm] == cold
    assert lp.stats["solves"] < len(cases)  # the store decided some
    for cert, (target, sims) in zip(warm, cases):
        assert replay_simulation(cert, target, sims)
        if name in ("square", "classical3"):
            numbers = cert.weights if cert.simulable else cert.farkas
            assert all(isinstance(x, (int, Fraction)) for x in numbers)


def test_store_decides_a_repeated_target_and_cache_clear_empties_it(sq):
    from gptsim import lp
    from gptsim.spaces import dual_cone_rays

    target = random_observable(sq.space, random.Random(3), 3)
    for sims in ([sq.E, sq.F], [sq.E], [sq.F]):
        lp.reset_stats()
        first, second = is_simulable(target, sims), is_simulable(target, sims)
        assert lp.stats["solves"] == 1  # the second answer came from the store
        assert first.verdict == second.verdict
        assert replay_simulation(second, target, sims)
        dual_cone_rays.cache_clear()
        is_simulable(target, sims)
        assert lp.stats["solves"] == 2


def test_warm_store_still_rejects_other_effect_sums(sq):
    # with one outcome, b is the weight row alone, so a stored basis is
    # feasible for every one-outcome target; the sums are tested first
    unit = Observable((("u", sq.space.unit),), sq.space)
    for _ in range(3):
        assert is_simulable(unit, [sq.E]).simulable
    half = Observable((("+", sq.E.effects[0].coeffs),), sq.space)
    with pytest.raises(ValueError, match="sum to one vector"):
        is_simulable(half, [sq.E])


def test_store_never_returns_a_corrupted_inverse():
    # every stored float inverse is scaled by 1.01: a scheme read from it
    # has total weight 1.01, fails the full layout, and the LP decides instead
    from gptsim import lp, simulation

    cases = [(target, sims) for target, sims in _store_cases("polygon6") if len(sims) > 1]
    lp.reset_stats()
    for target, sims in cases:
        assert is_simulable(target, sims).simulable
    assert lp.stats["solves"] < len(cases)
    for answers in simulation._SETS.values():
        if answers.pending is not None:  # the last solve's answer, kept on the next decision
            answers.pending()
            answers.pending = None
        answers.inverses = answers.inverses * 1.01
    lp.reset_stats()
    for target, sims in cases:
        cert = is_simulable(target, sims)
        assert cert.simulable and replay_simulation(cert, target, sims)
    assert lp.stats["solves"] == len(cases)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_store_never_keeps_a_corrupted_refutation(sq, mode, monkeypatch):
    # A solver that returns one corrupted Farkas vector: its decision
    # carries it, as any answer of the solver, but the store tests it before
    # keeping it, and the corrupted vector, which claims y.b > 0 for every
    # target from [E], is never returned for another target.
    from gptsim import simulation

    cast = (lambda obs: obs.as_float()) if mode == "float" else (lambda obs: obs)
    sims = [cast(sq.E)]
    solve, calls = simulation.lp_solve, []

    def corrupting(program, mode=None, tol=None):
        out = solve(program, mode=mode, tol=tol)
        calls.append(out)
        if len(calls) == 1:  # beta = 1 and nothing else: y.b = 1 for every target
            zero = field(mode).zero
            farkas = [zero] * len(program.rhs)
            farkas[len(sq.E.effects)] = zero + 1
            out = dataclasses.replace(out, verdict=INFEASIBLE, solution=None,
                                      farkas=tuple(farkas))
        return out

    monkeypatch.setattr(simulation, "lp_solve", corrupting)
    rng = random.Random(11)
    targets = [cast(random_observable(sq.space, rng, 2)) for _ in range(8)]
    targets.append(cast(Observable((("+", sq.E.effects[0].coeffs),
                                    ("-", sq.E.effects[1].coeffs)), sq.space)))
    first = is_simulable(targets[0], sims)
    assert not first.simulable and not replay_simulation(first, targets[0], sims)
    for target in targets[1:]:
        cert = is_simulable(target, sims)
        assert replay_simulation(cert, target, sims)
    assert is_simulable(targets[-1], sims).simulable


def test_store_stays_at_its_caps(sq):
    # more distinct simulation sets than the cap: the least recently used
    # leave; many targets over one set: at most the cap of each kind of answer
    from gptsim import simulation

    rng = random.Random(12)
    others = [random_observable(sq.space, rng, 2) for _ in range(simulation._SET_CAP + 10)]
    target = random_observable(sq.space, rng, 2)
    for other in others:
        is_simulable(target, [other])
        assert len(simulation._SETS) <= simulation._SET_CAP
    assert len(simulation._SETS) == simulation._SET_CAP
    kept = list(simulation._SETS.values())[-3:]
    for other in others[-3:]:  # the most recent sets are kept
        is_simulable(target, [other])
    assert list(simulation._SETS.values())[-3:] == kept
    targets = [random_observable(sq.space, rng, 3) for _ in range(200)]
    for sims in ([sq.E], [sq.E, sq.F], [random_observable(sq.space, rng, 3)]):
        for target in targets:
            is_simulable(target, sims)
    counts = [(len(a.farkas), len(a.bases)) for a in simulation._SETS.values()]
    assert max(max(c) for c in counts) == simulation._ANSWER_CAP
