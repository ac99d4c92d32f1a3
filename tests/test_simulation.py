"""Simulability decisions, certificates, and derived quantities."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from corpora import (
    bracket_corpus,
    compatibility_corpus,
    decomposition_corpus,
    float_simulation_cases,
    simulation_cases,
    simulation_corpus,
)
from oracles import (
    polytope_noise_content_direct,
    qubit_noise_content_grid,
    simulation_irreducible_by_definition,
)

from gptsim.catalog import (
    classical,
    hexagon_noise_example,
    polygon,
    polygon_irreducibles,
    qubit_suite,
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
    minimally_sufficient_with_channels,
    replay_relation,
)
from gptsim.scalars import EXACT, FLOAT, ModeError, field, kind_of, vdot, vscale
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
    StateSpace,
    decompose_into_indecomposables,
    dual_cone_rays,
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
    assert replay_simulation(SimulationCertificate.from_scheme(cert.weights, (used, spare)),
                             sq.E, sims)
    channels = {
        "missing-channel": (used,),
        "relabelled-source": (Postprocessing(("a", "b"), used.target, used.matrix), spare),
        "relabelled-target": (Postprocessing(used.source, ("a", "b"), used.matrix), spare),
        "one-source-row": (Postprocessing(("+",), used.target, used.matrix[:1]), spare),
    }[defect]
    bad = SimulationCertificate.from_scheme(cert.weights, channels)
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


def test_exact_simulation_program_is_one_cleared_integer_matrix(sq):
    # the layout's rows with their right-hand sides, cleared to Python ints:
    # one read-only object matrix beside the row denominators, the program
    # that make_program builds from the layout, read back as its numbers
    sims = [sq.E, sq.F, sq.E]
    program = simulation_program(sq.F, sims)
    rows, rhs, start = _program_layout(sq.F, sims, 0, 1)
    N, den = program.data
    assert program.mode() == "exact" and N.shape == (len(rows), len(rows[0]) + 1)
    assert not N.flags.writeable and not den.flags.writeable
    assert all(type(x) is int for x in (*N.flat, *den))
    assert program == make_program(rows, rhs, start=start)
    assert program.rows == tuple(map(tuple, rows)) and program.rhs == tuple(rhs)
    assert program.start == start


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
    # simulation_program places its integer rows from the layout; they equal
    # make_program's clearing of the same rational rows and right-hand
    # sides, entry by entry, denominators past 2**64 included
    rng = random.Random(29)
    programs = simulation_corpus()
    for kinds, unit in ((("int", "zero", "small", "big"), (1, 0, F(1, 3), F(2, 7))),
                        (("big", "small", "zero", "int"), (F(1, 2 ** 65 + 1), 1, 0, 2)),
                        (("int", "zero", "int"), (1, 0, 1))):
        for n_target, sizes in ((3, [2]), (2, [3, 1]), (4, [2, 2, 3]), (1, [2])):
            target = _shared_sum_observable(rng, n_target, kinds, unit)
            sims = [_shared_sum_observable(rng, n, kinds, unit) for n in sizes]
            programs.append(simulation_program(target, sims))
    assert max(den for p in programs for den in p.data[1]) > 2 ** 64
    for program in programs:
        assert program == make_program(rows=program.rows, rhs=program.rhs, start=program.start)
        assert all(type(x) is int for array in program.data for x in array.flat)


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
    cert = SimulationCertificate.from_scheme((w,), (chan,))
    solution = cert.scheme
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
    # a simulator of another dimension, whose first coordinates sum as the
    # target's do, sums to another vector too
    longer = Observable(tuple((lab, (*e.coeffs, 0)) for lab, e in sims[0].outcomes))
    with pytest.raises(ValueError, match="sum to one vector"):
        simulation_program(sims[0], [longer])


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
    # NaN weights and channels make NaN entries of the scheme, which fail
    # its replay, and a NaN Farkas vector fails the Farkas replay, also with
    # one NaN entry: one weight, one alpha, beta or one phi.
    nan = float("nan")
    target, sims = sq.E.as_float(), [sq.E.as_float(), sq.F.as_float()]
    cert = is_simulable(target, sims)
    assert cert.simulable and replay_simulation(cert, target, sims)
    weights, channels = cert.weights, cert.channels
    nan_channels = tuple(Postprocessing(c.source, c.target, tuple((nan,) * len(r) for r in c.matrix))
                         for c in channels)
    for bad in (((nan, nan), nan_channels), ((nan, nan), channels),
                ((nan, weights[1]), channels), (weights, nan_channels)):
        assert replay_simulation(SimulationCertificate.from_scheme(*bad), target, sims) is False
    refuted = is_simulable(sims[1], sims[:1])
    assert not refuted.simulable and replay_simulation(refuted, sims[1], sims[:1])
    # layout: alpha for the two outcomes of E, then beta, then phi
    for entries in (range(len(refuted.farkas)), [0], [2], [3]):
        farkas = [nan if i in entries else v for i, v in enumerate(refuted.farkas)]
        nan_farkas = dataclasses.replace(refuted, farkas=tuple(farkas))
        assert replay_simulation(nan_farkas, sims[1], sims[:1]) is False


@pytest.mark.parametrize("bad", [np.float64("nan"), np.float64("inf"), np.float64("-inf")])
def test_replay_reads_numpy_scalars_as_floats(sq, bad):
    # the replay reads a certificate's numbers as Python floats, so a numpy
    # inf or NaN in any one entry fails it with no numpy warning (which
    # tier-1 turns into an error)
    target, sims = sq.E.as_float(), [sq.E.as_float(), sq.F.as_float()]
    for t, s in ((target, sims), (sims[1], sims[:1])):
        cert = is_simulable(t, s)
        field = "scheme" if cert.simulable else "farkas"
        numbers = getattr(cert, field)
        for i in range(len(numbers)):
            moved = dataclasses.replace(cert, **{field: (*numbers[:i], bad, *numbers[i + 1:])})
            assert replay_simulation(moved, t, s) is False


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_replay_tests_weights_and_weight_columns(sq, mode):
    # Each of these matches every target effect, so only the test named
    # rejects it: weights (2, -1) over [E, E] (a negative weight); weight 2
    # for the doubled E from [E] (weights summing to 2); weights (1/2, 1/2)
    # over [E, E] with channel rows (3/2, 0) and (1/2, 0) for outcome +,
    # whose block rows sum to 3/4 and 1/4, not to their weight 1/2; and y =
    # (0, 0, 0, 0, beta = 1, 0, ...) for E from [E, F], which passes every
    # column M[g, y] but not the weight columns (beta <= sum of the alphas
    # of simulator i).
    e = sq.E.as_float() if mode == "float" else sq.E
    one, zero, half = (1.0, 0.0, 0.5) if mode == "float" else (1, 0, HALF)
    identity = Postprocessing(e.labels, e.labels, ((one, zero), (zero, one)))
    scheme = SimulationCertificate.from_scheme((one, zero), (identity,) * 2)
    assert scheme.simulable and replay_simulation(scheme, e, [e, e])
    # one entry more (a zero weight) or one fewer is another layout
    for numbers in (scheme.scheme + (zero,), scheme.scheme[:-1]):
        assert not replay_simulation(dataclasses.replace(scheme, scheme=numbers), e, [e, e])
    negative = SimulationCertificate.from_scheme((2 * one, -one), (identity,) * 2)
    assert not replay_simulation(negative, e, [e, e])
    doubled = Observable(tuple((lab, tuple(2 * c for c in eff.coeffs)) for lab, eff in e.outcomes))
    twice = SimulationCertificate.from_scheme((2 * one,), (identity,))
    assert not replay_simulation(twice, doubled, [e])
    uneven = [Postprocessing(e.labels, e.labels, ((one + s, zero), (zero, one)))
              for s in (half, -half)]
    assert not replay_simulation(SimulationCertificate.from_scheme((half, half), uneven), e, [e, e])
    sims = [e, sq.F.as_float() if mode == "float" else sq.F]
    beta = SimulationCertificate(NOT_SIMULABLE, farkas=(zero,) * 4 + (one,) + (zero,) * 6)
    assert not replay_simulation(beta, e, sims)


def test_replay_resolves_the_field_over_the_certificate(sq):
    # A float certificate, a scheme or a refutation, against exact
    # observables mixes the modes, as does an exact one against float
    # observables: ModeError, as in replay_compatibility. Converted, each
    # replays.
    for target, sims in ((sq.E, [sq.E, sq.F]), (sq.F, [sq.E])):
        floats = target.as_float(), [s.as_float() for s in sims]
        exact, rounded = is_simulable(target, sims), is_simulable(*floats)
        assert exact.verdict == rounded.verdict
        for cert, args in ((rounded, (target, sims)), (exact, floats)):
            with pytest.raises(ModeError):
                replay_simulation(cert, *args)
        assert replay_simulation(exact.as_float(), *floats)
        assert replay_simulation(rounded, *floats)


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


def _split_and_zero(obs):
    """obs with its first outcome split into two proportional parts (3/10
    and 7/10), and obs with a zero effect appended: the first merges two
    effects into one row, the second drops one."""
    F = field(obs.mode)
    (label, eff), *rest = obs.outcomes
    w = F.coerce(3) / 10
    items = [(lab, e.coeffs) for lab, e in rest]
    return (observable(obs.space, [(label + "a", vscale(w, eff.coeffs)),
                                   (label + "b", vscale(1 - w, eff.coeffs)), *items]),
            observable(obs.space, [(label, eff.coeffs), *items, ("z", (F.zero,) * obs.dim)]))


def _unit_ray_pairs(space):
    """Every two-outcome observable (a r, b s) of two dual-cone rays r, s
    with a r + b s = u, a, b > 0: irreducible by the paper's criterion."""
    u = space.unit
    for r, s in itertools.combinations(dual_cone_rays(space), 2):
        i, j = next((i, j) for i, j in itertools.combinations(range(len(u)), 2)
                    if r[i] * s[j] != r[j] * s[i])
        det = r[i] * s[j] - r[j] * s[i]
        a, b = (u[i] * s[j] - u[j] * s[i]) / det, (r[i] * u[j] - r[j] * u[i]) / det
        if a > 0 and b > 0 and vscale(a, r) == tuple(x - b * y for x, y in zip(u, s)):
            yield observable(space, [("a", vscale(a, r)), ("b", vscale(b, s))])


INTEGER_TRIT = [("1", (1, 0, 0)), ("2", (0, 1, 0)), ("3", (-1, -1, 1))]


def _decided(decide, obs):
    """The verdict of decide(obs), or the type and message of its error."""
    try:
        return decide(obs)
    except (ValueError, ModeError) as err:
        return type(err), str(err)


def _irreducibility_cases(family):
    if family == "polygon-catalogs":
        return [m for n in range(3, 17) for m in polygon_irreducibles(n).observables]
    if family == "polygon-random":
        rng = random.Random(49)
        base = [a for n in (5, 6, 7, 8) for a in (polygon_irreducibles(n).observables[0],
                                                  *(random_observable(polygon(n).space, rng)
                                                    for _ in range(8)))]
        return [obs for a in base for obs in (a, *_split_and_zero(a))]
    if family == "square":
        sq = square_bit()
        rng = random.Random(50)
        (e_plus, e_minus), f_plus = sq.E.effects, sq.F.effects[0].coeffs
        # a ray beside its negative merges into a zero row, which the cone
        # call skips and the rank counts; its Fraction zero joins no field
        # with the integer rows of the second, on the float square
        cancelling = [observable(sq.space, [("+", e_plus.coeffs), ("-", e_minus.coeffs),
                                            ("p", f_plus), ("m", vscale(-1, f_plus))]),
                      observable(sq.space.as_float(), [("a", (0, -1, 1)), ("b", (0, 1, 1)),
                                                       ("p", (HALF, 0, 0)), ("m", (-HALF, 0, 0))])]
        base = [sq.E, sq.F, *_unit_ray_pairs(sq.space), *cancelling,
                *(random_observable(sq.space, rng) for _ in range(6))]
    elif family == "classical3":
        trit = classical(3)
        rng = random.Random(51)
        base = [trit.distinguishing, observable(trit.space, INTEGER_TRIT),
                *(random_observable(trit.space, rng) for _ in range(6))]
    else:
        suite = qubit_suite()
        base = [suite.X, suite.Y, suite.Z, suite.tetrahedron, suite.ct(0.5), suite.ct(1.0),
                suite.tetra_dichotomic()]
    return [obs for a in base for b in (a, a.as_float()) for obs in (b, *_split_and_zero(b))]


@pytest.mark.parametrize("family", ["polygon-catalogs", "polygon-random", "square", "classical3",
                                    "qubit"])
def test_irreducibility_equals_its_definition(family):
    # the grouped rows give the verdict of the merged Observable's own
    # cleanness and rank tests, exact and float, with merged and dropped
    # zero effects, and both verdicts in each family
    cases = _irreducibility_cases(family)
    verdicts = [_decided(is_simulation_irreducible, obs) for obs in cases]
    assert verdicts == [_decided(simulation_irreducible_by_definition, obs) for obs in cases]
    assert {True, False} & set(verdicts) == ({True} if family == "polygon-catalogs"
                                             else {True, False})


def test_irreducibility_of_an_integer_form_beside_a_float_zero_is_exact(trit):
    # the only float sits in the dropped zero effect: the merged rows are
    # integers, decided in exact mode, as the merged Observable would be
    obs = observable(trit.space, [*INTEGER_TRIT, ("z", (0.0, 0.0, 0.0))])
    assert obs.kind == "float"
    assert is_simulation_irreducible(obs) and simulation_irreducible_by_definition(obs)


@pytest.mark.parametrize("case", ["no-space", "all-zero", "mixed-within", "mixed-early",
                                  "mixed-cone", "dimension"])
def test_irreducibility_raises_the_errors_of_its_definition(sq, suite, case):
    halves = [(name + lab, vscale(HALF, e.coeffs)) for name, obs in (("E", sq.E), ("F", sq.F))
              for lab, e in obs.outcomes]
    obs = {
        "no-space": lambda: observable(None, [(lab, e.coeffs) for lab, e in sq.E.outcomes]),
        "all-zero": lambda: observable(sq.space, [("a", (0, 0, 0)), ("b", (F(0),) * 3)]),
        "mixed-within": lambda: observable(sq.space, [(lab, e.coeffs) for lab, e in sq.E.outcomes]
                                           + [("z", (0.0, 0.0, 0.0))]),
        # four rays on a three-dimensional space: the early answer's field check
        "mixed-early": lambda: Observable(observable(None, halves).as_float().outcomes, sq.space),
        "mixed-cone": lambda: Observable(sq.E.as_float().outcomes, sq.space),
        "dimension": lambda: Observable(suite.Z.outcomes, sq.space),
    }[case]()
    error = _decided(is_simulation_irreducible, obs)
    assert error == _decided(simulation_irreducible_by_definition, obs)
    assert error[0] is (ModeError if case.startswith("mixed") else ValueError)
    assert {"no-space": "needs the state space", "all-zero": "at least one outcome",
            "dimension": "dimension mismatch"}.get(case, "mixed") in error[1]


def test_irreducibility_of_a_catalog_member_builds_no_observable(monkeypatch):
    # the test reads the member's effects as grouped rows: no minimally
    # sufficient Observable is made and validated on the way
    member = polygon_irreducibles(7).observables[0]
    built, init = [], Observable.__post_init__
    monkeypatch.setattr(Observable, "__post_init__", lambda self: built.append(self) or init(self))
    assert is_simulation_irreducible(member)
    assert built == []


def test_irreducibility_of_exact_and_float_twins_agrees(sq, trit):
    # exact mode is the reference: each rational construction and its float
    # twin get one verdict, on the square bit, classical(3) and the simplex
    # of the rational tetrahedron's points, both verdicts occurring
    rat = tetrahedron_rational()
    simplex = StateSpace("rational tetrahedron", 4,
                         [(*(2 * x for x in e.coeffs[:3]), 1) for e in rat["B"].effects],
                         (0, 0, 0, 1))
    # each dual-cone ray of a simplex is positive on one extreme state only
    states = simplex.extreme_states
    reading = observable(simplex, [(str(k), vscale(1 / max(vdot(r, s) for s in states), r))
                                   for k, r in enumerate(dual_cone_rays(simplex))])
    assert reading.effect_sum == simplex.unit
    rng = random.Random(52)
    cases = [sq.E, sq.F, *_unit_ray_pairs(sq.space), *_split_and_zero(sq.E),
             *(random_observable(sq.space, rng) for _ in range(4)),
             trit.distinguishing, observable(trit.space, INTEGER_TRIT),
             *_split_and_zero(trit.distinguishing),
             *(random_observable(trit.space, rng) for _ in range(4)),
             reading, *_split_and_zero(reading),
             *(Observable(rat[name].outcomes, simplex)
               for name in ("A", "B", "C1", "C2", "C3", "C4", "D1", "D2"))]
    verdicts = [is_simulation_irreducible(obs) for obs in cases]
    assert verdicts == [is_simulation_irreducible(obs.as_float()) for obs in cases]
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("case", ["decompose", "decompose-refined", "backward-channel",
                                  "backward-channel-split"])
def test_an_integer_observable_gets_exact_shares(trit, case):
    # integers are exact: a share of an integer effect is a Fraction, so the
    # decomposition's certificate and the backward channel are exact
    items = {"decompose": INTEGER_TRIT, "backward-channel": INTEGER_TRIT,
             "decompose-refined": [("1", (1, 0, 0)), ("2", (-1, 0, 1))],
             "backward-channel-split": [("a", (1, 0, 0)), ("b", (1, 0, 0)), ("c", (0, 1, 0)),
                                        ("d", (-2, -1, 1))]}[case]
    obs = observable(trit.space, items)
    assert obs.kind is None
    if case.startswith("decompose"):
        dec = decompose_to_irreducibles(obs)
        assert dec.certificate.kind == "exact"
        assert replay_simulation(dec.certificate, obs, dec.observables)
    else:
        hat, forward, backward = minimally_sufficient_with_channels(obs)
        assert backward.kind == "exact" and backward.is_stochastic()
        assert apply(backward, hat).outcomes == obs.outcomes
        assert apply(forward, obs).effects == hat.effects


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


def test_smin_rejects_no_targets(suite):
    # all() over no targets is true, so without the check smin([], pool)
    # would return 1 having decided nothing
    with pytest.raises(ValueError, match="targets must be nonempty"):
        smin([], [suite.X])


@pytest.mark.parametrize("case", ["smin-empty-pool", "trivial-observable"])
def test_a_one_shot_iterable_is_read_once(sq, suite, case):
    # a generator is true before it is read and empty when read again
    if case == "smin-empty-pool":
        with pytest.raises(ValueError, match="pool must be nonempty"):
            smin([suite.X], (pool for pool in []))
    else:
        dist = [("a", HALF), ("b", HALF)]
        assert (trivial_observable(sq.space, iter(dist)).effects
                == trivial_observable(sq.space, dist).effects)


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

    def recording(program, tol=lp.DEFAULT_TOLERANCE, start=None):
        programs.append(program)
        return lp.lp_solve(program, tol=tol, start=start)

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
    # A float joint is replayed on every block, those the program drops
    # included: a solve whose joint misses a target's effects raises instead
    # of returning it.
    from gptsim import lp, simulation
    from gptsim.lp import CertificateError

    x = suite.X.as_float()
    post = apply(Postprocessing(("+", "-"), ("+", "-"), ((0.8, 0.2), (0.3, 0.7))), x)
    assert is_compatible([x, post]).compatible

    def scaled(program, tol=lp.DEFAULT_TOLERANCE, start=None):
        out = lp.lp_solve(program, tol=tol, start=start)
        return dataclasses.replace(out, solution=tuple(v * (1 + 1e-6) for v in out.solution))

    monkeypatch.setattr(simulation, "lp_solve", scaled)
    with pytest.raises(CertificateError, match="joint fails replay"):
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

    def recording(program, tol=lp.DEFAULT_TOLERANCE, start=None):
        out = lp.lp_solve(program, tol=tol, start=start)
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
    # the programs dropped their implied last-outcome blocks, and again when
    # `is_compatible` read stored bases and refutations first (some
    # decisions answered from the store, with no solve), and again when its
    # float solves started from a basis (the nearest stored one, then the
    # round before's: 1512 -> 923 pivots over the compatibility corpus),
    # with every decision verdict unchanged each time.
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
        "39dabf6e509ce3a3ba87212438180d27671ff8037f0ba0ec6fc92652314efab6")


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
    # float kernel's products sum in the order of numpy's BLAS build. Retaken
    # when `is_compatible` read its store first (3 of 31 solves answered from
    # it), and when its solves started from a basis (the nearest stored one,
    # then the round before's: 1256 -> 972 pivots), with every verdict
    # unchanged.
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
        "90d429cf7db1972a9257d9cd9b4fe33bf12e37f2aeab10506b9b7d5ab679b773")


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


def _stores(kind):
    """The answer stores of one kind ("refinement", "simulation" or
    "compatibility") by key, least recently used first."""
    from gptsim import lp

    return {key: store for key, store in lp._ANSWERS.items() if key[0] == kind}


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


def test_every_stored_basis_starts_a_solve_to_the_cold_verdict(monkeypatch):
    # Every basis that the float simulation corpora store, as the start of
    # the LP of every target of its set: the dual phase reaches the verdict
    # of a cold solve and a certificate that replays. Not-simulable targets
    # take its Farkas path, a row that no entering column repairs.
    from gptsim import lp, simulation

    monkeypatch.setattr(lp, "_KEYS", 1000)  # every set keeps its store
    cases = float_simulation_cases()
    for target, sims in cases:
        is_simulable(target, sims)
    bases = {}
    for key, answers in _stores("simulation").items():
        bases[key[3:5]] = list(answers.bases)
    start, refuted = [], []
    row_farkas = lp._FloatRevised.row_farkas
    monkeypatch.setattr(simulation._SetAnswers, "decide", lambda *args: [(None, start[0])])
    monkeypatch.setattr(lp._FloatRevised, "row_farkas",
                        lambda *args: refuted.append(args[1]) or row_farkas(*args))
    started = 0
    for target, sims in cases:
        cold = lp_solve(simulation_program(target, sims)).verdict
        for basis in bases.get((tuple(sim.coefficient_key for sim in sims),
                                target.n_outcomes), ()):
            start[:] = [basis]
            cert = is_simulable(target, sims)
            assert cert.simulable == (cold != INFEASIBLE)
            assert replay_simulation(cert, target, sims)
            started += 1
    assert started > 200 and len(refuted) > 20


def _kept_starts(monkeypatch) -> list:
    """(program, cold outcome, stored starts) for every float simulation
    case, each stored start a basis that the store of its set kept, as it
    keeps them when every case is decided in turn."""
    from gptsim import lp

    monkeypatch.setattr(lp, "_KEYS", 1000)  # every set keeps its store
    cases = float_simulation_cases()
    for target, sims in cases:
        is_simulable(target, sims)
    kept = {key[3:5]: list(store.bases) for key, store in _stores("simulation").items()}
    runs = []
    for target, sims in cases:
        program = simulation_program(target, sims)
        starts = kept.get((tuple(sim.coefficient_key for sim in sims), target.n_outcomes), [])
        runs.append((program, lp_solve(program), starts))
    return runs


def test_every_kept_float_basis_carries_its_inverse(monkeypatch):
    # Each basis that a float simulation store keeps is a start that carries
    # B^-1 over the program's own A, the unit column e_i for a dropped row's
    # artificial n + i: B^-1 B is the identity, for every target of its set.
    from gptsim import lp

    checked = dropped = 0
    for program, _, starts in _kept_starts(monkeypatch):
        A, n = program.rows, program.num_vars
        m = len(A)
        for start in starts:
            assert isinstance(start, lp.Start) and not start.inverse.flags.writeable
            B = np.eye(m)
            ours = [k for k, j in enumerate(start) if j < n]
            B[:, ours] = A[:, [start[k] for k in ours]]
            assert np.abs(start.inverse @ B - np.eye(m)).max() <= 1e-9
            checked += 1
            dropped += any(j >= n for j in start)
    assert checked > 200 and dropped > 50


def test_a_stored_inverse_restarts_as_inverting_b_does(monkeypatch):
    # A restart that reads the stored B^-1, flipped for the program's b,
    # and one that inverts B reach the same verdict, basis, pivot count and
    # values on every float simulation case and every start of its set.
    outs = 0
    for program, _, starts in _kept_starts(monkeypatch):
        for start in starts:
            stored, inverted = lp_solve(program, start=start), lp_solve(program, start=tuple(start))
            assert stored == inverted and stored.basis == inverted.basis
            outs += 1
    assert outs > 200


def test_a_wrong_stored_inverse_never_gives_a_wrong_verdict(monkeypatch):
    # A start that carries a wrong B^-1 (scaled, transposed, or B's own
    # numbers) gives the cold verdict, with a certificate that replays, or
    # raises CertificateError: the dual phase replays its refutation, and
    # the float solution is replayed before it is returned.
    from gptsim import lp

    wrongs = [lambda inv: inv * 1.01, lambda inv: inv.T, np.linalg.inv]
    outcomes = {"cold verdict": 0, "raised": 0}
    for program, cold, starts in _kept_starts(monkeypatch):
        for start, wrong in itertools.product(starts[:2], wrongs):
            try:
                out = lp_solve(program, start=lp.Start(start, wrong(start.inverse)))
            except lp.CertificateError:
                outcomes["raised"] += 1
                continue
            assert out.verdict == cold.verdict
            assert (verify_farkas(program, out.farkas) if out.verdict == INFEASIBLE
                    else lp.verify_solution(program, out.solution))
            outcomes["cold verdict"] += 1
    assert outcomes["cold verdict"] > 100 and outcomes["raised"] > 100


def test_a_basis_kept_without_its_inverse_still_decides(monkeypatch):
    # A basis that factors into no `Start` (a singular B) is kept bare: its
    # hits still decide, and a miss that starts from it inverts B, to the
    # verdict of a cold solve.
    from gptsim import lp, simulation

    solve, starts = simulation.lp_solve, []

    def recorded(program, tol=None, start=None):
        starts.append(start)
        return solve(program, tol=tol, start=start)

    monkeypatch.setattr(simulation, "lp_solve", recorded)
    monkeypatch.setattr(simulation, "factored", lambda program, basis: None)
    cases = [(t, sims) for t, sims in float_simulation_cases() if len(sims) > 1]
    certs = [is_simulable(target, sims) for target, sims in cases]
    stores = _stores("simulation").values()
    assert any(store.bases for store in stores)
    assert not any(isinstance(basis, lp.Start) for store in stores for basis in store.bases)
    assert len(starts) < len(cases) and not any(isinstance(s, lp.Start) for s in starts)
    assert any(start is not None for start in starts)
    for cert, (target, sims) in zip(certs, cases):
        assert cert.simulable == (lp_solve(simulation_program(target, sims)).verdict != INFEASIBLE)
        assert replay_simulation(cert, target, sims)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_a_certificate_knows_its_kind(mode):
    # A float scheme made from a solve, a store hit or a decomposition has
    # its kind set when it is made, no scan needed; an exact one is scanned.
    # Either way the kind is that of its numbers. The second pass over the
    # cases reads the stores.
    cast = (lambda obs: obs.as_float()) if mode == FLOAT else (lambda obs: obs)
    certs = []
    for _ in range(2):
        for target, sims in simulation_cases():
            certs.append(is_simulable(cast(target), [cast(sim) for sim in sims]))
    certs += [decompose_to_irreducibles(cast(obs)).certificate
              for obs in decomposition_corpus() if mode == FLOAT or obs.mode == EXACT]
    for cert in certs:
        if cert.simulable:
            assert mode == EXACT or vars(cert)["_kind"] == FLOAT
            assert cert.kind == kind_of(cert.scheme)
        else:
            assert cert.kind == kind_of(cert.farkas)
    assert {cert.simulable for cert in certs} == {True, False}


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


def _corruptible(kind):
    """Seeded (decide, replays) pairs of one kind over float stores that
    decide some of them: decide() answers, and replays(answer) checks the
    answer against the definition."""
    from gptsim.simulation import replay_compatibility

    if kind == "refinement":  # one effect each, so that a cold decision is one LP
        space, rng = polygon(6).space.as_float(), random.Random("store/refinement")
        effects = [e for _ in range(10) for e in random_observable(space, rng, 3).effects]
        return [(partial(space.refine, [e]),
                 lambda parts, e=e: all(space.is_extremal(parts[0])) and np.allclose(
                     np.sum([p.coeffs for p in parts[0]], axis=0), e.coeffs)) for e in effects]
    if kind == "simulation":
        return [(partial(is_simulable, target, sims), partial(replay_simulation, target=target,
                                                                simulators=sims))
                for target, sims in _store_cases("polygon6") if len(sims) > 1]
    return [(partial(_bracket, targets),
             partial(replay_compatibility, targets=[t.as_float() for t in targets]))
            for targets in _triples(40, 21, 0.45, 0.55)]


@pytest.mark.parametrize("kind", ["refinement", "simulation", "compatibility"])
def test_store_never_returns_a_corrupted_inverse(kind):
    # every stored inverse is scaled by 1.01: an answer read from it (parts
    # that sum to 1.01 v, a scheme of total weight 1.01, a joint that sums to
    # 1.01 u) fails its replay, and the LP decides instead, as it does cold
    from gptsim import lp
    from gptsim.spaces import dual_cone_rays

    decisions, cold, solves = _corruptible(kind), [], 0
    for decide, _ in decisions:
        dual_cone_rays.cache_clear()
        lp.reset_stats()
        cold.append(decide())
        solves += lp.stats["solves"]
    dual_cone_rays.cache_clear()
    lp.reset_stats()
    assert all(replays(decide()) for decide, replays in decisions)
    assert lp.stats["solves"] < solves  # the store decided some
    for answers in _stores(kind).values():
        answers.inverses = answers.inverses * 1.01
        answers.cap = 0  # no new answer joins the store
    lp.reset_stats()
    for (decide, replays), answer in zip(decisions, cold):
        got = decide()
        assert got == answer and replays(got)
    assert lp.stats["solves"] == solves


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

    def corrupting(program, tol=None, start=None):
        out = solve(program, tol=tol, start=start)
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
    from gptsim import lp

    rng = random.Random(12)
    others = [random_observable(sq.space, rng, 2) for _ in range(lp._KEYS + 10)]
    target = random_observable(sq.space, rng, 2)
    for other in others:
        is_simulable(target, [other])
        assert len(_stores("simulation")) <= lp._KEYS
    assert len(_stores("simulation")) == lp._KEYS
    kept = list(_stores("simulation").values())[-3:]
    for other in others[-3:]:  # the most recent sets are kept
        is_simulable(target, [other])
    assert list(_stores("simulation").values())[-3:] == kept
    targets = [random_observable(sq.space, rng, 3) for _ in range(200)]
    for sims in ([sq.E], [sq.E, sq.F], [random_observable(sq.space, rng, 3)]):
        for target in targets:
            is_simulable(target, sims)
    stores = _stores("simulation").values()
    counts = [(len(a.refutations), len(a.bases)) for a in stores]
    assert max(max(c) for c in counts) == max(a.cap for a in stores) == 8


# ---------------------------------------------------------------------------
# The compatibility store of `is_compatible`, and `replay_compatibility`.
# ---------------------------------------------------------------------------

def _rotation(rng):
    """A seeded random proper rotation of R^3, from a unit quaternion."""
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    w, x, y, z = (v / math.sqrt(sum(c * c for c in q)) for v in q)
    return np.array(((1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
                     (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
                     (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y))))


def _rotated(obs, R):
    """The qubit observable with every Bloch part turned by R."""
    return Observable(tuple((lab, tuple(R @ np.array(eff.coeffs[:3])) + (eff.coeffs[3],))
                            for lab, eff in obs.outcomes), obs.space)


def _bracket(targets, facets=128):
    from gptsim.catalog import qubit_compatibility_bracket

    return qubit_compatibility_bracket(targets, facets)


def test_qubit_canonical_frame():
    # a proper rotation that fixes tau, sends the first Bloch part along z and
    # the next independent one into the xz-plane with x > 0; so every
    # rotation of one orthogonal triple reads the same b
    from gptsim.qubit import QubitEffect, QubitSpace, dichotomic

    space, rng = QubitSpace(), random.Random(5)
    triple = [dichotomic("+", "-", QubitEffect(0.0, v)).as_float()
              for v in ((0.5, 0, 0), (0, 0.5, 0), (0, 0, 0.5))]
    frames = []
    for _ in range(6):
        R = _rotation(rng)
        targets = [_rotated(t, R) for t in triple]
        effects = [eff.coeffs for t in targets for eff in t.effects]
        T = space.canonical_frame(effects)
        assert np.allclose(T @ T.T, np.eye(4), atol=1e-12)
        assert abs(np.linalg.det(T) - 1) < 1e-12 and T[3, 3] == 1
        first, second = (T @ np.array(effects[0]))[:3], (T @ np.array(effects[2]))[:3]
        assert np.allclose(first[:2], 0, atol=1e-12) and first[2] > 0
        assert abs(second[1]) < 1e-12 and second[0] > 0
        frames.append(np.array(effects) @ T.T)
        for eff in effects:
            turned = T @ np.array(eff)
            gap = np.subtract(*space.min_values([tuple(turned), eff]))
            assert abs(gap) < 1e-12
    assert all(np.allclose(b, frames[0], atol=1e-12) for b in frames)
    # one direction only: completed to a rotation; none, or exact effects: the identity
    T = space.canonical_frame([(0.3, 0.4, 0.0, 0.5)])
    assert np.allclose(T @ T.T, np.eye(4)) and np.allclose(T[2, :3], (0.6, 0.8, 0.0))
    assert space.canonical_frame([(0.0, 0.0, 0.0, 0.5)]) is None
    assert space.canonical_frame([(F(1, 2), 0, 0, F(1, 2))]) is None
    assert square_bit().space.canonical_frame([(1, 0, 0)]) is None


@pytest.mark.parametrize("store", ["cold", "warm"])
def test_rotated_brackets_keep_their_verdicts(store):
    # metamorphic: compatibility is invariant under the qubit's symmetries, so
    # seeded rotations of the bracket corpus give the unrotated verdicts, from
    # a cold store and from a warm one, and every answer replays
    from gptsim import lp
    from gptsim.simulation import replay_compatibility
    from gptsim.spaces import dual_cone_rays

    rng = random.Random("rotated-brackets")
    cases = [(targets, [_rotated(t, R) for t in targets])
             for targets in bracket_corpus() for R in (_rotation(rng), _rotation(rng))]
    verdicts = {id(targets): _bracket(targets).verdict for targets, _ in cases[::2]}
    dual_cone_rays.cache_clear()
    lp.reset_stats()
    for targets, turned in cases:
        if store == "cold":
            dual_cone_rays.cache_clear()
        res = _bracket(turned)
        assert res.verdict == verdicts[id(targets)]
        assert replay_compatibility(res, [t.as_float() for t in turned])
    if store == "warm":
        assert lp.stats["solves"] < len(cases)  # the store decided some


def _joint_cases(name):
    """(decide, targets) pairs for the warm-store tests: the polytope lists of
    `compatibility_corpus()` (exact, and their float twins), its qubit lists
    at 8 and 16 facets, and `bracket_corpus()` at 128."""
    polytope, qubit = compatibility_corpus()
    if name == "polytope-exact":  # each list twice, as few exact layouts repeat
        exact = [(is_compatible, targets) for targets in polytope
                 if all(t.kind != "float" for t in targets)]
        return exact + exact
    if name == "polytope-float":
        return [(is_compatible, [t.as_float() for t in targets]) for targets in polytope]
    if name == "qubit":
        return [(lambda ts, f=facets: _bracket(ts, f), targets)
                for targets in qubit for facets in (8, 16)]
    return [(_bracket, targets) for targets in bracket_corpus()]


@pytest.mark.parametrize("name", ["polytope-exact", "polytope-float", "qubit", "bracket"])
def test_warm_joint_store_verdicts_equal_cold_ones(name):
    # the store decides some decisions, with the verdict of a cold solve and
    # an answer that replays; exact answers stay exact
    from gptsim import lp
    from gptsim.simulation import replay_compatibility
    from gptsim.spaces import dual_cone_rays

    cases = _joint_cases(name)
    cold = []
    lp.reset_stats()
    for decide, targets in cases:
        dual_cone_rays.cache_clear()
        cold.append(decide(targets).verdict)
    cold_solves = lp.stats["solves"]
    dual_cone_rays.cache_clear()
    lp.reset_stats()
    warm = [decide(targets) for decide, targets in cases]
    assert [res.verdict for res in warm] == cold
    assert lp.stats["solves"] < cold_solves  # the store decided some
    for res, (decide, targets) in zip(warm, cases):
        if decide is not is_compatible:
            targets = [t.as_float() for t in targets]
        assert replay_compatibility(res, targets)
        if name == "polytope-exact" and res.compatible:
            assert [apply(c, res.joint).effects for c in res.marginal_channels] == [
                t.effects for t in targets]
        elif name == "polytope-exact":
            assert all(isinstance(x, (int, Fraction)) for x in res.farkas)


def _triples(count, seed, lo, hi):
    """Seeded randomly rotated orthogonal triples of unbiased qubit
    observables, of Bloch lengths from lo to hi in equal steps: compatible
    below 1/sqrt(3), not above it."""
    from gptsim.qubit import QubitEffect, dichotomic

    rng = random.Random(seed)
    out = []
    for k in range(count):
        R, t = _rotation(rng), lo + (hi - lo) * k / max(1, count - 1)
        out.append([dichotomic("+", "-", QubitEffect(0.0, tuple(t * R[:, j]))) for j in range(3)])
    return out


def test_joint_store_decides_a_rotated_triple_and_cache_clear_empties_it():
    from gptsim import lp
    from gptsim.spaces import dual_cone_rays

    first, second = _triples(2, 3, 0.5, 0.5)
    lp.reset_stats()
    assert _bracket(first).compatible
    solves = lp.stats["solves"]
    assert solves >= 1 and _stores("compatibility")
    assert _bracket(second).compatible  # the same triple in another frame
    assert lp.stats["solves"] == solves
    dual_cone_rays.cache_clear()
    assert not _stores("compatibility")
    assert _bracket(second).compatible
    assert lp.stats["solves"] > solves


def _decided_by_solves(cases):
    """Decide each case and return whether each made an LP solve."""
    from gptsim import lp

    solved = []
    for targets in cases:
        before = lp.stats["solves"]
        res = _bracket(targets)
        solved.append((res, lp.stats["solves"] > before))
    return solved


def test_joint_store_never_returns_a_lowered_refutation():
    # every stored bound P(y) is lowered by 10, so each stored y passes the
    # store's test for every target; a compatible target's answer then fails
    # the replay, and the LP decides instead
    from gptsim.simulation import replay_compatibility

    refuted = _triples(12, 22, 0.6, 0.7)
    assert all(not res.compatible for res, _ in _decided_by_solves(refuted))
    for answers in _stores("compatibility").values():
        answers.limits = answers.limits - 10
        answers.cap = 0
    compatible = _triples(12, 23, 0.45, 0.55)
    for (res, solved), targets in zip(_decided_by_solves(compatible), compatible):
        assert solved and res.compatible
        assert replay_compatibility(res, [t.as_float() for t in targets])


def test_joint_store_stays_at_its_caps(monkeypatch):
    # many decisions over one layout: at most the cap of each kind of answer;
    # more layouts than the key cap: the least recently used leave
    from gptsim import lp
    from gptsim.qubit import QubitEffect, dichotomic

    monkeypatch.setattr(lp, "_KEYS", 3)
    # longest first: a triple's refutation need not refute a shorter one;
    # the last six follow the third refutation, so that one is stored too
    triples = (_triples(30, 24, 0.45, 0.54) + _triples(30, 25, 0.75, 0.58)
               + _triples(6, 27, 0.9, 0.58))
    _bracket(triples[0])
    (answers,) = _stores("compatibility").values()
    answers.cap = 3
    for targets in triples[1:]:
        _bracket(targets)
    assert len(answers.bases) == len(answers.inverses) == 3
    assert len(answers.refuting) == len(answers.limits) == 3
    rng = random.Random(26)
    for k in range(1, 6):  # one to five dichotomic targets: five layouts
        targets = [dichotomic("+", "-", QubitEffect(0.0, tuple(rng.uniform(-0.3, 0.3)
                                                               for _ in range(3))))
                   for _ in range(k)]
        _bracket(targets)
        assert len(_stores("compatibility")) <= 3
    assert [len(key[3]) for key in _stores("compatibility")] == [3, 4, 5]


def _compatibility_and_bracket_decisions():
    """The decisions of the compatibility and bracket-128 corpora, each with
    its targets as the decision reads them (a bracket's as floats)."""
    from corpora import CORPORA

    decisions = CORPORA["compatibility"]() + CORPORA["bracket-128"]()
    return [(d, [t.as_float() for t in d.args[0]] if d.func is not is_compatible
             else d.args[0]) for d in decisions]


def test_every_stored_joint_basis_starts_a_solve_to_the_cold_verdict(monkeypatch):
    # Every basis that the float layouts of the compatibility and
    # bracket-128 corpora store, as the first round's start of every later
    # decision of its layout: each decision reaches the verdict of a cold
    # one and an answer that `replay_compatibility` accepts. Refutations
    # take the dual phase's Farkas path, a row that no column repairs.
    from gptsim import lp, simulation
    from gptsim.simulation import replay_compatibility
    from gptsim.spaces import dual_cone_rays

    monkeypatch.setattr(lp, "_KEYS", 1000)  # every layout keeps its store
    cases = _compatibility_and_bracket_decisions()
    cold = []
    for decide, _ in cases:
        dual_cone_rays.cache_clear()
        cold.append(decide().verdict)
    dual_cone_rays.cache_clear()
    stored = []  # (store, bases stored before the decision), a decision each
    for decide, _ in cases:
        counts = {id(store): len(store.bases) for store in _stores("compatibility").values()}
        decide()  # its own answer is stacked when it returns
        store = list(_stores("compatibility").values())[-1]
        stored.append((store, counts.get(id(store), 0)))
    starts = [store.bases[:count] if store.F.mode == "float" else [] for store, count in stored]
    start, refuted = [], []
    row_farkas = lp._FloatRevised.row_farkas
    monkeypatch.setattr(simulation._JointAnswers, "decide", lambda *args: [(None, start[0])])
    monkeypatch.setattr(lp._FloatRevised, "row_farkas",
                        lambda *args: refuted.append(args[1]) or row_farkas(*args))
    started = 0
    for (decide, targets), verdict, bases in zip(cases, cold, starts):
        for basis in bases:
            start[:] = [basis]
            res = decide()
            assert res.verdict == verdict
            assert replay_compatibility(res, targets)
            started += 1
    assert started > 200 and len(refuted) > 50


def test_a_later_round_starts_from_the_round_before():
    # From empty stores, every started solve of the qubit brackets of the
    # compatibility and bracket-128 corpora is a round after the first,
    # started from the basis on which the round before refuted, its columns
    # renumbered for the added generators: it reaches the verdict of a cold
    # solve of its program, with a certificate that replays against that
    # program, and saves pivots overall.
    from corpora import started_programs

    from gptsim import lp
    from gptsim.simulation import replay_compatibility
    from gptsim.spaces import dual_cone_rays

    decided = []

    def cold_store(targets, facets):
        dual_cone_rays.cache_clear()
        decided.append((_bracket(targets, facets), [t.as_float() for t in targets]))

    brackets = [(targets, facets) for targets in compatibility_corpus()[1] for facets in (8, 16)]
    brackets += [(targets, 128) for targets in bracket_corpus()]
    runs = started_programs(partial(cold_store, *bracket) for bracket in brackets)
    assert all(replay_compatibility(res, targets) for res, targets in decided)
    warm = [lp_solve(program, start=start) for program, start in runs]
    cold = [lp_solve(program) for program, _ in runs]
    assert [out.verdict for out in warm] == [out.verdict for out in cold]
    for (program, _), out in zip(runs, warm):
        if out.verdict == INFEASIBLE:
            assert verify_farkas(program, out.farkas)
        else:
            assert lp.verify_solution(program, out.solution)
    assert len(runs) > 10 and {out.verdict for out in warm} == {INFEASIBLE, "feasible"}
    assert sum(out.pivots for out in warm) < sum(out.pivots for out in cold)


def test_a_capped_compatibility_start_solves_cold(monkeypatch):
    # every started solve of the bracket corpus that pivots in its dual
    # phase, first round or later, gives the cold outcome, pivot count
    # included, once the dual phase may make no pivot (`_DUAL_CAP` = 0)
    from corpora import bracket_starts

    from gptsim import lp

    runs = [(program, start) for program, start in bracket_starts()
            if lp_solve(program, start=start).pivots]
    cold = [lp_solve(program) for program, _ in runs]
    ends = []

    def recorded(tab, n, cap):
        ends.append(dual(tab, n, cap))
        return ends[-1]

    dual = lp._dual
    monkeypatch.setattr(lp, "_dual", recorded)
    monkeypatch.setattr(lp, "_DUAL_CAP", 0)
    assert len(runs) > 10
    assert [lp_solve(program, start=start) for program, start in runs] == cold
    assert len(ends) == len(runs) and all(end == (0, None) for end in ends)


# ---------------------------------------------------------------------------
# One registry for every answer store, each answer kept when it is found.
# ---------------------------------------------------------------------------

def _three_ray_effect(space, seed):
    """A seeded effect that refines onto exactly dim rays: its LP answer
    stores a basis."""
    rng = random.Random(seed)
    while True:
        for effect in random_observable(space, rng).effects:
            if len(space.refine([effect])[0]) == space.ambient_dim:
                return effect


def test_registry_bounds_refinement_bases_too(pentagon, sq):
    # the refinement bases share the registry's keys: a refinement key read
    # again within the last lp._KEYS keys stays, and one that more distinct
    # simulation sets push out leaves, so its next refinement solves again
    from gptsim import lp
    from gptsim.spaces import dual_cone_rays

    space = pentagon.space
    effect = _three_ray_effect(space, 13)
    dual_cone_rays.cache_clear()
    rng = random.Random(14)
    target = random_observable(sq.space, rng, 2)
    others = iter([random_observable(sq.space, rng, 2) for _ in range(lp._KEYS + 80)])

    def refine_solves():
        before = lp.stats["solves"]
        space.refine([effect])
        return lp.stats["solves"] - before

    def decide_sets(count):
        for other in itertools.islice(others, count):
            is_simulable(target, [other])

    assert refine_solves() == 1
    decide_sets(40)
    assert refine_solves() == 0  # read again: now the most recently used
    decide_sets(40)  # 80 sets since the first refinement, 40 since the last
    assert refine_solves() == 0
    assert len(lp._ANSWERS) == lp._KEYS
    decide_sets(lp._KEYS)
    assert not _stores("refinement")
    assert refine_solves() == 1


def _decide_twice(kind, sq):
    """One decision of the given kind that solves an LP, then a
    `decide()` that repeats it."""
    if kind == "refinement":
        space = polygon(5).space
        effect = _three_ray_effect(space, 13)
        return lambda: space.refine([effect])
    if kind == "simulation":
        target = random_observable(sq.space, random.Random(3), 3)
        return lambda: is_simulable(target, [sq.E, sq.F])
    targets = _triples(1, 3, 0.5, 0.5)[0]
    return lambda: _bracket(targets)


@pytest.mark.parametrize("kind", ["refinement", "simulation", "compatibility"])
def test_every_store_keeps_an_answer_when_it_is_found(kind, sq):
    # after one decision from empty stores, its store already holds the
    # answer that its solve found, so a repeat is decided without a solve
    from gptsim import lp
    from gptsim.spaces import dual_cone_rays

    decide = _decide_twice(kind, sq)
    dual_cone_rays.cache_clear()
    lp.reset_stats()
    decide()
    assert lp.stats["solves"] >= 1
    (store,) = _stores(kind).values()
    assert store.bases or store.refutations
    solves = lp.stats["solves"]
    decide()
    assert lp.stats["solves"] == solves


def test_replay_compatibility_rejects_tampered_answers(sq):
    from gptsim.simulation import CompatibilityResult, replay_compatibility

    x, y = _triples(1, 27, 0.5, 0.5)[0][:2]
    targets = [x.as_float(), y.as_float()]
    res = _bracket([x, y])
    assert res.compatible and replay_compatibility(res, targets)
    joint = res.joint
    scaled_joint = Observable(tuple((lab, tuple(1.01 * c for c in eff.coeffs))
                                    for lab, eff in joint.outcomes), joint.space)
    outside = Observable(tuple((lab, eff.coeffs[:3] + (eff.coeffs[3] - 0.2 * (k == 0)
                                                      + 0.2 * (k == 1),))
                               for k, (lab, eff) in enumerate(joint.outcomes)), joint.space)
    swapped = (res.marginal_channels[1], res.marginal_channels[0])
    for bad in (dataclasses.replace(res, joint=scaled_joint),
                dataclasses.replace(res, joint=outside),
                dataclasses.replace(res, marginal_channels=swapped),
                dataclasses.replace(res, verdict="undecided"),
                CompatibilityResult("incompatible", farkas=(0.0,) * 16)):
        assert not replay_compatibility(bad, targets)
    refutation = is_compatible([sq.E, sq.F])
    assert replay_compatibility(refutation, [sq.E, sq.F])
    flipped = dataclasses.replace(refutation, farkas=tuple(-v for v in refutation.farkas))
    assert not replay_compatibility(flipped, [sq.E, sq.F])
    assert not replay_compatibility(dataclasses.replace(refutation, farkas=refutation.farkas[:-1]),
                                    [sq.E, sq.F])


@pytest.mark.parametrize("verdict", ["compatible", "incompatible"])
def test_compatibility_answer_failing_replay_raises(monkeypatch, sq, verdict):
    # the LP's own answer is replayed: one that fails raises, cold or warm
    from gptsim import simulation
    from gptsim.lp import CertificateError

    targets = [sq.E, sq.F] if verdict == "incompatible" else [sq.E, sq.E]
    assert is_compatible(targets).verdict == verdict
    monkeypatch.setattr(simulation, "_holds", lambda *args, **kwargs: False)
    with pytest.raises(CertificateError, match="fails replay"):
        is_compatible(targets)


def test_replay_compatibility_rejects_no_targets_and_mixed_spaces(sq, suite):
    # as `is_compatible` and `replay_simulation` do, with ValueError rather
    # than an IndexError or a False verdict
    from gptsim.simulation import CompatibilityResult, replay_compatibility

    refutation = is_compatible([sq.E, sq.F])
    for result in (refutation, CompatibilityResult("undecided")):
        with pytest.raises(ValueError, match="targets must be nonempty"):
            replay_compatibility(result, [])
        with pytest.raises(ValueError, match="mixed state spaces rejected"):
            replay_compatibility(result, [sq.E, suite.X])


def test_a_bracket_store_hit_asks_the_cone_once_for_targets_and_once_for_its_joint(monkeypatch):
    # a hit validates the six effects of a triple and their complements with
    # one `min_values` call, replays its eight joint effects with another,
    # and solves nothing
    from gptsim import lp
    from gptsim.qubit import QubitSpace

    triple = _triples(1, 31, 0.5, 0.5)[0]
    assert _bracket(triple).compatible  # solved: its basis is stored on the next call
    calls, min_values = [], QubitSpace.min_values

    def counted(self, effects):
        calls.append(len(effects))
        return min_values(self, effects)

    monkeypatch.setattr(QubitSpace, "min_values", counted)
    lp.reset_stats()
    res = _bracket(triple)
    assert res.compatible and lp.stats["solves"] == 0
    assert calls == [12, 8]


def _busch_pairs(count, seed, lo, hi):
    """Seeded pairs of unbiased qubit observables whose Busch value
    |a+b| + |a-b| lies in [lo, hi]: compatible below 2, not above it."""
    from gptsim.qubit import QubitEffect, dichotomic

    rng, out = random.Random(seed), []
    while len(out) < count:
        a, b = (rng.uniform(0.3, 1.0) * _rotation(rng)[:, 0] for _ in range(2))
        if lo <= np.linalg.norm(a + b) + np.linalg.norm(a - b) <= hi:
            out.append([dichotomic("+", "-", QubitEffect(0.0, tuple(map(float, v))))
                        for v in (a, b)])
    return out


def test_every_store_hit_passes_the_public_replay():
    # a store hit tests its answer with the predicate behind
    # `replay_compatibility`, on arrays it built from the targets once;
    # the public replay, building its own from the result, agrees
    from gptsim.simulation import replay_compatibility

    hits = 0
    for cases in (_triples(40, 33, 0.45, 0.62), _busch_pairs(40, 34, 1.2, 2.4)):
        decided = _decided_by_solves(cases)
        assert sum(not solved for _, solved in decided) >= 5
        for (res, solved), targets in zip(decided, cases):
            assert res.verdict != "undecided" and replay_compatibility(res, targets)
            hits += not solved
    assert hits >= 20


def test_a_store_hit_scans_its_targets_for_their_field_once(monkeypatch):
    # the only scans of a float triple's numbers are the three `kind`
    # reads: validation, the canonical frame, the store's b and the replay
    # read the one array built from them
    from gptsim import catalog, lp, postprocessing, qubit, scalars, simulation, spaces

    triple = _triples(1, 35, 0.5, 0.5)[0]
    assert _bracket(triple).compatible  # its basis is stored
    fresh = [Observable(t.outcomes, t.space) for t in triple]  # no kind read yet
    numbers = {x for t in fresh for eff in t.effects for x in eff.coeffs[:3]}
    scans, kind_of = [], scalars.kind_of

    def counted(values):
        values = list(values)
        scans.append(values)
        return kind_of(values)

    for module in (catalog, postprocessing, qubit, scalars, simulation, spaces):
        monkeypatch.setattr(module, "kind_of", counted, raising=False)
    lp.reset_stats()
    assert _bracket(fresh).compatible and lp.stats["solves"] == 0
    assert sum(any(x in numbers for x in values) for values in scans) == 3


def test_compatibility_without_a_state_space_raises():
    # before any store is read, as noise content and decomposition do; the
    # replay too
    from gptsim.simulation import CompatibilityResult, replay_compatibility

    targets = [observable(None, [("+", (1, 0, 0)), ("-", (0, 0, 1))])] * 2
    for call in (lambda: is_compatible(targets),
                 lambda: replay_compatibility(CompatibilityResult("undecided"), targets)):
        with pytest.raises(ValueError, match="compatibility needs the state space"):
            call()
    assert not _stores("compatibility")


def test_replay_compatibility_rejects_a_joint_of_another_dimension():
    # a malformed certificate fails, as a Farkas vector of the wrong length does
    from gptsim.simulation import replay_compatibility

    pair = _triples(1, 36, 0.5, 0.5)[0][:2]
    res = _bracket(pair)
    assert res.compatible and replay_compatibility(res, pair)
    short = Observable(tuple((lab, eff.coeffs[:3]) for lab, eff in res.joint.outcomes),
                       res.joint.space)
    assert not replay_compatibility(dataclasses.replace(res, joint=short), pair)


@pytest.mark.parametrize("verdict", ["compatible", "incompatible"])
def test_replay_compatibility_rejects_targets_of_another_dimension(verdict):
    from gptsim.simulation import replay_compatibility

    # a pair at 0.5 is compatible, a triple at 0.7 is not; the second
    # target's effects lose their last coefficient
    triple = _triples(1, 37, 0.5 if verdict == "compatible" else 0.7, 0.5)[0]
    targets = triple[:2] if verdict == "compatible" else triple
    res = _bracket(targets)
    assert res.verdict == verdict
    targets[1] = Observable(tuple((lab, eff.coeffs[:3]) for lab, eff in targets[1].outcomes),
                            targets[1].space)
    with pytest.raises(ValueError, match="effect dimension does not match state space"):
        replay_compatibility(res, targets)


def _trine_answer():
    """A 3-outcome qubit observable X, and the compatible answer for (X, X)
    whose joint is X on the diagonal outcomes and zero off it, with its
    deterministic marginal channels."""
    from gptsim.qubit import QubitSpace
    from gptsim.simulation import CompatibilityResult

    labels = ("0", "1", "2")
    effects = [(0.4 * math.cos(a), 0.0, 0.4 * math.sin(a), 1 / 3)
               for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    X = Observable(tuple(zip(labels, effects)), QubitSpace())
    omegas = list(itertools.product(range(3), repeat=2))
    joint = tuple(f"{labels[i]}|{labels[j]}" for i, j in omegas)
    channels = tuple(Postprocessing(joint, labels, tuple(
        tuple(1.0 if omega[t] == li else 0.0 for li in range(3)) for omega in omegas))
        for t in range(2))
    coeffs = [effects[i] if i == j else (0.0,) * 4 for i, j in omegas]
    return X, CompatibilityResult("compatible", joint=Observable(tuple(zip(joint, coeffs)),
                                                                 X.space),
                                  marginal_channels=channels)


def _tampered(res, w, delta):
    """The joint of `res` with the coefficient vectors `delta` added to its
    effects w, a list of joint outcome indices."""
    coeffs = [list(eff.coeffs) for eff in res.joint.effects]
    for k, d in zip(w, delta):
        coeffs[k] = [a + b for a, b in zip(coeffs[k], d)]
    return dataclasses.replace(res, joint=Observable(
        tuple(zip(res.joint.labels, map(tuple, coeffs))), res.joint.space))


def _row(res, w, row):
    """`res` with row w of its first marginal channel replaced."""
    first, *rest = res.marginal_channels
    matrix = list(first.matrix)
    matrix[w] = row
    return dataclasses.replace(res, marginal_channels=(
        Postprocessing(first.source, first.target, tuple(matrix)), *rest))


@pytest.mark.parametrize("clause", ["cone", "unit", "nonnegative", "at-most-one", "row-sums",
                                    "marginals", "price-bound"])
def test_replay_compatibility_tests_each_clause_of_the_definition(clause):
    # each tampered answer breaks exactly one clause of the predicate, so
    # the replay rejects it only when that clause is tested; joint outcome
    # 1 is (0, 1) and 2 is (0, 2), whose joint effects are zero
    from gptsim.simulation import CompatibilityResult, replay_compatibility

    X, res = _trine_answer()
    targets = [X, X]
    assert replay_compatibility(res, targets)
    tau = (0.0, 0.0, 0.0, 0.01)
    minus = tuple(-x for x in tau)
    if clause == "cone":  # the marginals and the sum kept, G_(0,2) negative
        bad = _tampered(res, [1, 2, 5, 4], [tau, minus, tau, minus])
    elif clause == "unit":  # targets and joint halved: a joint of no valid targets
        targets = [Observable(tuple((lab, tuple(x / 2 for x in eff.coeffs))
                                    for lab, eff in X.outcomes), X.space)] * 2
        bad = dataclasses.replace(res, joint=Observable(tuple(
            (lab, tuple(x / 2 for x in eff.coeffs)) for lab, eff in res.joint.outcomes),
            X.space))
    elif clause == "nonnegative":
        bad = _row(res, 1, (0.5, 1.0, -0.5))
    elif clause == "at-most-one":
        bad = _row(res, 1, (1 + 1.8e-9, -0.9e-9, -0.9e-9))
    elif clause == "row-sums":
        bad = _row(res, 1, (0.5, 0.3, 0.0))
    elif clause == "marginals":  # the same labels over other effects
        targets = [X, Observable(tuple(zip(X.labels, X.effects[1:] + X.effects[:1])), X.space)]
        bad = res
    else:  # y.b = 1/3 > 0, below the price bound 1 of the joint outcomes (0, l)
        bad = CompatibilityResult("incompatible", farkas=(0.0, 0.0, 0.0, 1.0) + (0.0,) * 20)
    assert not replay_compatibility(bad, targets)


def test_a_float_observable_is_its_own_float_copy(sq, suite):
    x = suite.X.as_float()
    assert x.as_float() is x and x.space.as_float() is x.space
    twin = sq.E.as_float()
    assert twin is not sq.E and twin.as_float() is twin and twin.space.as_float() is twin.space
    assert twin == sq.E and all(type(c) is float for e in twin.effects for c in e.coeffs)


def test_the_bracket_starts_from_the_cached_generators_and_the_targets_directions(monkeypatch):
    from gptsim import catalog
    from gptsim.qubit import QubitSpace, rank_one_generators

    seen = []
    monkeypatch.setattr(catalog, "is_compatible",
                        lambda targets, tol, generators: seen.append(generators))
    triple = _triples(1, 32, 0.5, 0.5)[0]
    for _ in range(2):
        _bracket(triple, 16)
    first, second = seen
    assert first == second and first is not second
    assert first[:16] == list(rank_one_generators(16)) and len(first) == 16 + 6
    assert rank_one_generators(16) is rank_one_generators(16)
    assert QubitSpace().generators() == list(rank_one_generators(128))
    for (x, y, z, tau), eff in zip(first[16:], (e for t in triple for e in t.effects)):
        assert tau == 0.5 and max(abs(a - b / math.dist(eff.coeffs[:3], (0, 0, 0)))
                                  for a, b in zip((x, y, z), eff.coeffs[:3])) < 1e-12


def test_noise_content_refuses_a_nan_effect():
    # a NaN passed `mx < -eps` and gave value nan with NaN weights
    nan = float("nan")
    space = polygon(5).space
    for effects in ([(nan, 0.0, 0.5), (0.0, 0.0, 0.5)], [(0.0, 0.0, 0.5), (0.0, nan, 0.5)]):
        with pytest.raises(ValueError, match="noise content needs valid effects"):
            noise_content(observable(space, zip("ab", effects)))


@pytest.mark.parametrize("verdict", ["simulable", "refuted"])
def test_replays_read_a_certificate_kind_once(monkeypatch, sq, verdict):
    # each replay resolves its field over the certificate's numbers: a scan
    # of every number, now made once per certificate
    import gptsim.simulation as simulation

    target = sq.E.as_float() if verdict == "simulable" else sq.F.as_float()
    simulators = [sq.E.as_float()]
    cert = dataclasses.replace(is_simulable(target, simulators))  # no kind read yet
    assert cert.simulable == (verdict == "simulable")
    numbers = cert.scheme if cert.simulable else cert.farkas
    scans, kind_of = [], simulation.kind_of
    monkeypatch.setattr(simulation, "kind_of",
                        lambda values: scans.append(values) or kind_of(values))
    assert replay_simulation(cert, target, simulators)
    assert replay_simulation(cert, target, simulators)
    assert sum(values is numbers for values in scans) == 1


@pytest.mark.parametrize("case", ["unknown-verdict", "simulable-without-scheme",
                                  "refutation-without-farkas"])
def test_replay_rejects_a_certificate_without_a_payload_of_its_verdict(sq, case):
    # a verdict other than simulable was read as a refutation, so a valid
    # Farkas vector under any other verdict replayed, and a certificate with
    # no payload raised TypeError from its kind
    refuted = is_simulable(sq.F, [sq.E])
    assert not refuted.simulable and replay_simulation(refuted, sq.F, [sq.E])
    cert = {"unknown-verdict": SimulationCertificate("bogus", farkas=refuted.farkas),
            "simulable-without-scheme": SimulationCertificate(SIMULABLE),
            "refutation-without-farkas": SimulationCertificate(NOT_SIMULABLE)}[case]
    assert replay_simulation(cert, sq.F, [sq.E]) is False


def _tetrahedron_simplex():
    """The state space on which the rational tetrahedron's B reads out the
    pure states: extreme states s_j with B_i(s_j) = 1 for i = j, else 0."""
    from gptsim.spaces import StateSpace

    states = [(2, 0, -HALF, 1), (-1, 3, -HALF, 1), (-1, -3, -HALF, 1), (0, 0, 3 * HALF, 1)]
    space = StateSpace("tetrahedron-simplex", 4, [tuple(map(F, s)) for s in states],
                       (F(0), F(0), F(0), F(1)))
    rat = tetrahedron_rational()
    assert [[eff(s) for s in space.extreme_states] for eff in rat["B"].effects] == \
        [[int(i == j) for j in range(4)] for i in range(4)]
    return space, [Observable(rat[name].outcomes, space) for name in ("B", "A", "C1", "D1")]


def _noise_oracle(target):
    """(w, trivial weights, residual rows) in plain Fractions, from the
    closed form: m_x the least value of A_x on an extreme state, w = sum m_x,
    A_x = w t_x u + (1 - w) R_x."""
    space, n = target.space, target.n_outcomes
    m = [max(F(0), min(sum((F(c) * x for c, x in zip(eff.coeffs, s)), F(0))
                       for s in space.extreme_states)) for eff in target.effects]
    w = sum(m, F(0))
    if w == 0:
        return w, (F(1, n),) * n, [eff.coeffs for eff in target.effects]
    weights = tuple(x / w for x in m)
    if w == 1:
        return w, weights, [tuple(t * u for u in space.unit) for t in weights]
    return w, weights, [tuple((c - x * u) / (1 - w) for c, u in zip(eff.coeffs, space.unit))
                        for eff, x in zip(target.effects, m)]


@pytest.mark.parametrize("theory", ["square-bit", "classical-3", "tetrahedron"])
def test_noise_content_matches_its_closed_form(theory):
    from gptsim.catalog import classical

    if theory == "tetrahedron":
        space, named = _tetrahedron_simplex()
    else:
        known = square_bit() if theory == "square-bit" else classical(3)
        space = known.space
        named = [known.E, known.F] if theory == "square-bit" else [known.distinguishing]
    rng = random.Random(f"noise-oracle/{theory}")
    targets = [*named, trivial_observable(space, [("a", F(1, 3)), ("b", F(2, 3))]),
               *(random_observable(space, rng, k) for k in (2, 3, 4, 5) for _ in range(6))]
    branches = set()
    for target in targets:
        value, weights, rows = _noise_oracle(target)
        branches.add(value if value in (0, 1) else "between")
        res = noise_content(target)
        assert res.value == value and res.trivial_weights == weights
        assert [eff.coeffs for eff in res.residual.effects] == rows
        assert res.residual.labels == target.labels and res.residual.space is space
        assert all(type(x) is F for x in (res.value, *res.trivial_weights))
        twin = noise_content(target.as_float())
        numbers = [(twin.value, value), *zip(twin.trivial_weights, weights),
                   *((a, b) for got, want in zip(twin.residual.effects, rows)
                     for a, b in zip(got.coeffs, want))]
        assert all(type(a) is float and abs(a - b) <= 1e-9 for a, b in numbers)
        # an effect whose least value is -1/1000, the sums kept: still refused
        x = target.n_outcomes - 1
        shift = vscale(min(map(target.effects[x], space.extreme_states)) + F(1, 1000), space.unit)
        moved = [(lab, tuple(c - d if i == x else c + d if i == 0 else c
                             for c, d in zip(eff.coeffs, shift)))
                 for i, (lab, eff) in enumerate(target.outcomes)]
        with pytest.raises(ValueError, match="valid effects"):
            noise_content(observable(space, moved))
    assert branches == {0, 1, "between"}


def test_exact_qubit_noise_content_reads_integer_norms():
    # rational Bloch norms give the least eigenvalues tau - ||e|| / 2 as
    # integers over 2 D; an irrational one raises ModeError
    from gptsim.qubit import QubitSpace

    space = QubitSpace()
    effects = [(F(3, 10), F(2, 5), 0, F(1, 2)), (F(-3, 10), F(-2, 5), 0, F(1, 3)),
               (0, 0, 0, F(1, 6))]
    obs = observable(space, zip("abc", effects))
    res = noise_content(obs)
    m = [F(1, 4), F(1, 12), F(1, 6)]  # tau - 1/4, tau - 1/4 and 1/6
    assert res.value == sum(m) == F(1, 2)
    assert res.trivial_weights == tuple(x / res.value for x in m)
    assert [eff.coeffs for eff in res.residual.effects] == [
        tuple((F(c) - x * u) / (1 - res.value) for c, u in zip(eff, space.unit))
        for eff, x in zip(effects, m)]
    with pytest.raises(ModeError, match="irrational Bloch norm"):
        noise_content(observable(space, [("a", (F(1, 2), F(1, 2), 0, F(1, 2))),
                                         ("b", (F(-1, 2), F(-1, 2), 0, F(1, 2)))]))


@pytest.mark.parametrize("target", ["simulable", "refuted"])
def test_a_store_hit_clears_each_observable_once(monkeypatch, sq, target):
    # the store's b, the scheme test and both replays read each observable's
    # cleared rows, made once; a store hit and its replay clear only the
    # certificate's numbers
    from gptsim import scalars, spaces

    simulators = [Observable(sq.E.outcomes, sq.space)]
    goal = (trivial_observable(sq.space, [("a", F(1, 3)), ("b", F(2, 3))])
            if target == "simulable" else Observable(sq.F.outcomes, sq.space))
    cleared, integer_row = [], scalars.integer_row

    def counted(values):
        cleared.append(tuple(values))
        return integer_row(values)

    monkeypatch.setattr(scalars, "integer_row", counted)
    monkeypatch.setattr(spaces, "integer_row", counted)
    cert = is_simulable(goal, simulators)  # solved, then stored
    assert cert.simulable == (target == "simulable")
    assert replay_simulation(cert, goal, simulators)
    rows = [tuple(x for eff in obs.effects for x in eff.coeffs) for obs in (goal, *simulators)]
    assert [cleared.count(r) for r in rows] == [1, 1]
    cleared.clear()
    for _ in range(3):
        hit = is_simulable(goal, simulators)
        assert hit == cert and replay_simulation(hit, goal, simulators)
    assert cleared == [cert.scheme if cert.simulable else cert.farkas] * 3


def _scheme_by_definition(x, target, simulators) -> bool:
    """x = (M, c) is a simulation scheme, in plain Fractions: M >= 0, c >= 0,
    each row of block i sums to c_i, sum_i c_i = 1 and sum_g M[g, y] B_g =
    A_y for every outcome y."""
    effects = [tuple(map(F, e.coeffs)) for sim in simulators for e in sim.effects]
    owner = [i for i, sim in enumerate(simulators) for _ in sim.effects]
    nx, ny = len(effects), target.n_outcomes
    if len(x) != nx * ny + len(simulators):
        return False
    x = [F(v) for v in x]
    M, c = [x[g * ny:(g + 1) * ny] for g in range(nx)], x[nx * ny:]
    return (all(v >= 0 for v in x) and sum(c) == 1
            and all(sum(M[g]) == c[owner[g]] for g in range(nx))
            and all(sum((M[g][y] * effects[g][d] for g in range(nx)), F(0)) == F(a)
                    for y, eff in enumerate(target.effects) for d, a in enumerate(eff.coeffs)))


def _farkas_terms(y, target, simulators) -> tuple:
    """(columns, weights, value) of a full-layout Farkas vector y = (alpha,
    beta, phi), in plain Fractions: alpha_g + phi_y . B_g for every column
    M[g, y], beta - sum_{g in i} alpha_g for every weight column c_i, and
    beta + sum_y phi_y . A_y."""
    effects = [tuple(map(F, e.coeffs)) for sim in simulators for e in sim.effects]
    nx, dim = len(effects), target.dim
    y = [F(v) for v in y]
    alpha, beta = y[:nx], y[nx]
    phi = [y[nx + 1 + k * dim:nx + 1 + (k + 1) * dim] for k in range(target.n_outcomes)]
    columns = [[alpha[g] + sum(a * b for a, b in zip(p, effects[g])) for p in phi]
               for g in range(nx)]
    ends = list(itertools.accumulate(sim.n_outcomes for sim in simulators))
    weights = [beta - sum(alpha[a:b]) for a, b in zip([0, *ends], ends)]
    value = beta + sum(q * F(a) for row, eff in zip(phi, target.effects)
                       for q, a in zip(row, eff.coeffs))
    return columns, weights, value


def _refutes_by_definition(y, target, simulators) -> bool:
    if len(y) != sum(sim.n_outcomes for sim in simulators) + 1 + target.n_outcomes * target.dim:
        return False
    columns, weights, value = _farkas_terms(y, target, simulators)
    return (all(v <= 0 for row in columns for v in row) and all(w <= 0 for w in weights)
            and value > 0)


def test_integer_replays_match_the_definition_in_fractions():
    # the scheme and refutation tests run on Python ints over one scale; on
    # every certificate of the exact simulation corpus they agree with the
    # definition stated in plain Fractions, and a copy with one entry moved
    # by 1/den, den the certificate's common denominator, fails both
    from corpora import simulation_cases

    rng = random.Random(52)
    refuted = 0
    for target, sims in simulation_cases():
        cert = is_simulable(target, sims)
        numbers = cert.scheme if cert.simulable else cert.farkas
        by_definition = _scheme_by_definition if cert.simulable else _refutes_by_definition
        assert by_definition(numbers, target, sims) and replay_simulation(cert, target, sims)
        step = F(1, math.lcm(*(F(v).denominator for v in numbers)))
        if cert.simulable:  # any entry: a row sum or the total weight moves
            i, step = rng.randrange(len(numbers)), rng.choice((step, -step))
        else:  # alpha_g up where a column is tight, else beta up where a weight is
            refuted += 1
            columns, weights, _ = _farkas_terms(numbers, target, sims)
            tight = [g for g, row in enumerate(columns) if 0 in row]
            assert tight or 0 in weights
            i = tight[0] if tight else len(columns)
        moved = (*numbers[:i], numbers[i] + step, *numbers[i + 1:])
        bad = dataclasses.replace(cert, **{"scheme" if cert.simulable else "farkas": moved})
        assert not by_definition(moved, target, sims)
        assert not replay_simulation(bad, target, sims)
    assert 0 < refuted < len(simulation_cases())
