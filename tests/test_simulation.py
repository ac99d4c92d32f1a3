"""Simulability decisions, certificates, and derived quantities."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import polytope_noise_content_direct, qubit_noise_content_grid

from gptsim.catalog import (
    hexagon_noise_example,
    polygon_irreducibles,
    random_observable,
    square_bit,
    tetrahedron_rational,
)
from gptsim.lp import INFEASIBLE, lp_solve
from gptsim.postprocessing import (
    Postprocessing,
    apply,
    is_postprocessing_clean,
    is_postprocessing_of,
    merge_channel,
    replay_relation,
)
from gptsim.qubit import as_vector_observable
from gptsim.simulation import (
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
from gptsim.spaces import Observable, observable, trivial_observable

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


def test_replay_against_another_instance_rebuilds_the_program(sq):
    # The memoized program of the last decision or replay must not answer a
    # replay with another simulator list or another target. F from [F] and
    # E from [E] are simulable, so the Farkas vector of F from [E] refutes
    # neither, and E's scheme from [E, F] does not simulate F.
    cert = is_simulable(sq.F, [sq.E])
    assert not cert.simulable and replay_simulation(cert, sq.F, [sq.E])
    assert replay_simulation(cert, sq.F, [sq.F]) is False
    assert replay_simulation(cert, sq.E, [sq.E]) is False
    cert = is_simulable(sq.E, [sq.E, sq.F])
    assert cert.simulable
    assert replay_simulation(cert, sq.F, [sq.E, sq.F]) is False


def test_replay_against_equal_distinct_observables(sq):
    # Equal observables that are other objects rebuild an equal program,
    # and the certificate replays against it.
    def twin(obs):
        return Observable(obs.outcomes, obs.space)

    sims = [sq.E, sq.F]
    program = simulation_program(sq.E, sims)
    assert simulation_program(sq.E, list(sims)) is program
    rebuilt = simulation_program(twin(sq.E), [twin(s) for s in sims])
    assert rebuilt is not program and rebuilt == program
    for target in (sq.E, twin(sq.E)):
        cert = is_simulable(target, sims)
        assert cert.simulable
        assert replay_simulation(cert, twin(sq.E), [twin(s) for s in sims])
    refuted = is_simulable(sq.F, [sq.E])
    assert replay_simulation(refuted, twin(sq.F), [twin(sq.E)])


def _program_layout(target, simulators, zero, one):
    """simulation_program's rows built entry by entry from its docstring."""
    ny, dim, k = target.n_outcomes, target.dim, len(simulators)
    outcomes = [(i, eff) for i, sim in enumerate(simulators) for eff in sim.effects]
    c0 = len(outcomes) * ny
    rows = []
    for g, (i, _) in enumerate(outcomes):
        rows.append([one if g * ny <= j < (g + 1) * ny else -one if j == c0 + i else zero
                     for j in range(c0 + k)])
    rows.append([zero] * c0 + [one] * k)
    for y in range(ny):
        for d in range(dim):
            row = [zero] * (c0 + k)
            for g, (_, eff) in enumerate(outcomes):
                row[g * ny + y] = eff.coeffs[d]
            rows.append(row)
    rhs = [zero] * len(outcomes) + [one] + [x for eff in target.effects for x in eff.coeffs]
    return rows, rhs


def test_float_simulation_program_is_one_read_only_array():
    # one simulator and several, with 2, 3 and 4 outcomes, and a -0.0
    # coefficient whose sign the placed blocks keep
    target = Observable((("a", (0.25, -0.0, 0.5)), ("b", (0.75, 1.0, -0.5)),
                         ("c", (0.0, 0.0, 1.0))))
    two = Observable((("p", (0.5, -0.0, 0.25)), ("q", (0.5, 1.0, 0.75))))
    four = Observable(tuple((f"r{j}", (0.25, -0.0 if j else 0.5, j / 4)) for j in range(4)))
    for sims in ([two], [target, two], [two, four, target]):
        program = simulation_program(target, sims)
        rows, rhs = _program_layout(target, sims, 0.0, 1.0)
        expected = np.array(rows, dtype=float)
        assert isinstance(program.rows, np.ndarray) and program.rows.dtype == float
        assert not program.rows.flags.writeable
        assert program.rows.shape == expected.shape
        assert np.array_equal(program.rows, expected)
        assert np.array_equal(np.signbit(program.rows), np.signbit(expected))
        assert np.signbit(program.rows).any()
        assert program.rhs == tuple(rhs)


def test_exact_simulation_program_keeps_int_and_fraction_tuples(sq):
    sims = [sq.E, sq.F, sq.E]
    program = simulation_program(sq.F, sims)
    rows, rhs = _program_layout(sq.F, sims, 0, 1)
    assert isinstance(program.rows, tuple) and all(isinstance(r, tuple) for r in program.rows)
    assert program.rows == tuple(map(tuple, rows)) and program.rhs == tuple(rhs)
    assert [[type(x) for x in r] for r in program.rows] == [[type(x) for x in r] for r in rows]
    assert {type(x) for r in program.rows for x in r} == {int, Fraction}


def test_replay_rejects_nan_certificates(sq):
    # NaN weights and channels fail the stochasticity test and the solution
    # replay, and a NaN Farkas vector fails the Farkas replay.
    nan = float("nan")
    target, sims = sq.E.as_float(), [sq.E.as_float(), sq.F.as_float()]
    cert = is_simulable(target, sims)
    assert cert.simulable and replay_simulation(cert, target, sims)
    channels = tuple(Postprocessing(c.source, c.target, tuple((nan,) * len(r) for r in c.matrix))
                     for c in cert.channels)
    assert not any(c.is_stochastic() for c in channels)
    for bad in (dataclasses.replace(cert, weights=(nan, nan), channels=channels),
                dataclasses.replace(cert, weights=(nan, nan)),
                dataclasses.replace(cert, channels=channels)):
        assert replay_simulation(bad, target, sims) is False
    refuted = is_simulable(sims[1], sims[:1])
    assert not refuted.simulable and replay_simulation(refuted, sims[1], sims[:1])
    nan_farkas = dataclasses.replace(refuted, farkas=(nan,) * len(refuted.farkas))
    assert replay_simulation(nan_farkas, sims[1], sims[:1]) is False


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
    sims = [as_vector_observable(suite.X).as_float(),
            as_vector_observable(suite.Y).as_float()]
    target = as_vector_observable(suite.ct(1.0 / math.sqrt(2.0)))
    cert = is_simulable(target, sims)
    assert cert.simulable
    assert replay_simulation(cert, target, sims)


def test_ct_above_threshold_not_simulable(suite):
    sims = [as_vector_observable(suite.X).as_float(),
            as_vector_observable(suite.Y).as_float()]
    target = as_vector_observable(suite.ct(0.8))
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
    assert is_simulation_irreducible(as_vector_observable(suite.tetrahedron))
    quarter = F(1, 4)
    a4 = observable(None, [("+1", (2 * quarter, F(0), F(0), quarter)),
                           ("-1", (-2 * quarter, F(0), F(0), quarter)),
                           ("+2", (F(0), 2 * quarter, F(0), quarter)),
                           ("-2", (F(0), -2 * quarter, F(0), quarter))])
    # postprocessing clean (all rank one) yet reducible
    from gptsim.qubit import QubitEffect, QubitObservable
    a4_q = QubitObservable((("+1", QubitEffect(F(-1, 2), (HALF, 0, 0))),
                            ("-1", QubitEffect(F(-1, 2), (-HALF, 0, 0))),
                            ("+2", QubitEffect(F(-1, 2), (0, HALF, 0))),
                            ("-2", QubitEffect(F(-1, 2), (0, -HALF, 0)))))
    assert is_postprocessing_clean(as_vector_observable(a4_q))
    assert not is_simulation_irreducible(as_vector_observable(a4_q))


def test_decompose_four_outcome_mixture_into_x_and_y():
    from gptsim.qubit import QubitEffect, QubitObservable

    a4 = QubitObservable((("+1", QubitEffect(-0.5, (0.5, 0, 0))),
                          ("-1", QubitEffect(-0.5, (-0.5, 0, 0))),
                          ("+2", QubitEffect(-0.5, (0, 0.5, 0))),
                          ("-2", QubitEffect(-0.5, (0, -0.5, 0)))))
    vec = as_vector_observable(a4)
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


def test_decompose_split_budget(sq, rng):
    # each split drops one nonzero outcome of the refined form
    from gptsim.spaces import decompose_into_indecomposables

    for _ in range(5):
        obs = random_observable(sq.space, rng)
        refined_size = sum(
            len(decompose_into_indecomposables(eff, sq.space))
            for eff in obs.effects)
        dec = decompose_to_irreducibles(obs)
        assert dec.splits <= max(0, refined_size - 1)


def test_noise_content_values(sq, hexagon, suite):
    triv = trivial_observable(sq.space, [("a", HALF), ("b", HALF)])
    assert noise_content(triv).value == 1
    assert noise_content(sq.E).value == 0
    with pytest.raises(ValueError, match="valid effects"):  # -u is no effect
        noise_content(observable(sq.space, [("a", (0, 0, 2)), ("b", (0, 0, -1))]))
    # sharp qubit observables carry no intrinsic trivial noise
    z = as_vector_observable(suite.Z)
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
        vec = as_vector_observable(obs)
        want = sum(max(qubit_min_eigenvalue(e.e0, e.e_vec), 0.0) for e in obs.effects)
        assert abs(noise_content(vec).value - want) <= 1e-12, name
        assert (is_simulation_irreducible(vec), is_postprocessing_clean(vec)) \
            == expected[name], name


def test_smin_examples(sq, suite, rng):
    xyz = [as_vector_observable(o) for o in (suite.X, suite.Y, suite.Z)]
    assert smin(xyz, xyz, k_max=3) == 3
    ab = [as_vector_observable(suite.X).as_float(),
          as_vector_observable(suite.Y).as_float()]
    ct7 = as_vector_observable(suite.ct(0.7))
    assert smin([ab[0], ab[1], ct7], ab, k_max=2) == 2
    targets = [random_observable(sq.space, rng) for _ in range(10)]
    assert smin(targets, [sq.E, sq.F], k_max=2) <= 2


def test_smin_unknown_above_kmax(suite):
    xyz = [as_vector_observable(o) for o in (suite.X, suite.Y, suite.Z)]
    assert smin(xyz, xyz, k_max=2) is None


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

    sims = [as_vector_observable(suite.X).as_float(),
            as_vector_observable(suite.Y).as_float()]
    c9 = as_vector_observable(suite.ct(0.9))
    outside = dichotomic_hull_necessary(c9, sims)
    assert any(not r.inside for r in outside.values())
    assert not is_simulable(c9, sims).simulable


def test_closure_laws_small(sq, rng):
    sample = [random_observable(sq.space, rng) for _ in range(6)]
    diag = check_closure_laws(sample, [sq.E, sq.F])
    assert diag.ok


def test_closure_base_without_target(suite):
    x = as_vector_observable(suite.X)
    y = as_vector_observable(suite.Y)
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

    x, y = (as_vector_observable(o).as_float() for o in (suite.X, suite.Y))
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
        is_compatible([as_vector_observable(suite.X), as_vector_observable(suite.Y)])


def test_compatibility_from_no_generators(sq):
    # column generation from an empty generator list: the first program has
    # no columns, so every generator comes from pricing a Farkas vector
    from gptsim import lp
    from gptsim.qubit import QubitEffect, QubitSpace, dichotomic
    from gptsim.spaces import is_valid_effect

    res = is_compatible([sq.E, sq.F], generators=[])
    assert res.verdict == "incompatible"
    assert res.farkas == (0, -1, -2, 0, 1, -2, -1, 0, 1, 1, 0, 1)

    x, y = (as_vector_observable(dichotomic("+", "-", QubitEffect(0.0, v))).as_float()
            for v in ((0.5, 0.0, 0.0), (0.0, 0.5, 0.0)))
    solves = lp.stats["solves"]
    res = is_compatible([x, y], generators=[])
    assert res.verdict == "compatible" and lp.stats["solves"] - solves == 5
    for chan, target in zip(res.marginal_channels, (x, y)):
        for got, want in zip(apply(chan, res.joint).effects, target.effects):
            assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) <= 1e-9
    assert all(is_valid_effect(e, QubitSpace()) for e in res.joint.effects)


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
    # 84 verdicts equal those of the float tableau before it.
    import hashlib
    import random

    from gptsim import lp
    from gptsim.catalog import (
        classical,
        polygon,
        qubit_compatibility_bracket,
    )
    from gptsim.qubit import QubitEffect, dichotomic

    digest = hashlib.sha256()
    verdicts = set()
    spaces = {"square": square_bit().space, "classical3": classical(3).space,
              "classical4": classical(4).space, "pentagon": polygon(5).space,
              "hexagon": polygon(6).space}
    for name, space in spaces.items():
        rng = random.Random(f"compat-digest/{name}")
        for i in range(6):
            targets = [random_observable(space, rng, rng.randint(2, 3))
                       for _ in range(3 if i % 3 == 0 else 2)]
            res = is_compatible(targets)
            verdicts.add(res.compatible)
            digest.update(repr((res.compatible, res.joint, res.marginal_channels,
                                res.farkas)).encode())
    for n in (5, 6):
        obs = polygon_irreducibles(n).observables
        for a, b in ((0, 1), (0, 2), (1, 3)):
            res = is_compatible([obs[a], obs[b]])
            verdicts.add(res.compatible)
            digest.update(repr((res.compatible, res.joint, res.marginal_channels,
                                res.farkas)).encode())
    assert verdicts == {True, False}

    rng = random.Random("compat-digest/qubit")
    qubit_verdicts = set()
    for i in range(12):
        targets = []
        for _ in range(2 if i % 2 else 3):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            scale = rng.uniform(0.45, 0.85) / math.sqrt(sum(c * c for c in v))
            targets.append(dichotomic("+", "-", QubitEffect(0.0, tuple(c * scale for c in v))))
        for facets in (8, 16):
            solves, pivots = lp.stats["solves"], lp.stats["pivots"]
            verdict = qubit_compatibility_bracket(targets, facets).verdict
            qubit_verdicts.add(verdict)
            digest.update(repr((verdict, lp.stats["solves"] - solves,
                                lp.stats["pivots"] - pivots)).encode())
    assert qubit_verdicts == {"compatible", "incompatible"}
    assert digest.hexdigest() == (
        "a41967a89561f1c30c8f764a1ad1877493f52fada3c8f166cb45a6aba20fa01e")


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
    import random

    from gptsim import lp
    from gptsim.catalog import qubit_compatibility_bracket
    from gptsim.qubit import QubitEffect, dichotomic

    rng = random.Random("bracket-128-digest")
    digest = hashlib.sha256()
    verdicts = set()
    for i in range(24):
        targets = []
        for _ in range(2 if i % 2 else 3):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            scale = rng.uniform(0.45, 0.85) / math.sqrt(sum(c * c for c in v))
            targets.append(dichotomic("+", "-", QubitEffect(0.0, tuple(c * scale for c in v))))
        solves, pivots = lp.stats["solves"], lp.stats["pivots"]
        res = qubit_compatibility_bracket(targets, 128)
        verdicts.add(res.verdict)
        digest.update(repr((res.verdict, res.joint, res.marginal_channels, res.farkas,
                            lp.stats["solves"] - solves,
                            lp.stats["pivots"] - pivots)).encode())
    assert verdicts == {"compatible", "incompatible"}
    assert digest.hexdigest() == (
        "1fc585ecce75943b12c5eebeb0a43f3b1c9a26fc50ba32834c3dfa48c70f11d8")
