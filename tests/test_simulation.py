"""Simulability decisions, certificates, and derived quantities."""

import math
from fractions import Fraction

import pytest

from oracles import polytope_noise_content_direct, qubit_noise_content_grid

from gptsim.catalog import (
    hexagon_noise_example,
    polygon_irreducibles,
    qubit_suite,
    random_observable,
    square_bit,
    tetrahedron_rational,
)
from gptsim.lp import INFEASIBLE, lp_solve
from gptsim.postprocessing import apply, is_postprocessing_clean, merge_channel
from gptsim.qubit import as_vector_observable
from gptsim.simulation import (
    check_closure_laws,
    decompose_to_irreducibles,
    deduplicate_simulators,
    dichotomic_hull_necessary,
    dichotomic_hull_sufficient,
    is_compatible,
    is_simulable,
    is_simulation_irreducible,
    noise_content,
    noise_monotonicity_check,
    pad_certificate,
    replay_simulation,
    simulation_program,
    smin,
)
from gptsim.spaces import observable, trivial_observable

F = Fraction
HALF = F(1, 2)


def test_identity_simulation(sq):
    cert = is_simulable(sq.E, [sq.E])
    assert cert.simulable
    assert replay_simulation(cert, sq.E, [sq.E])


def test_mixed_spaces_rejected(sq, trit):
    with pytest.raises(ValueError):
        is_simulable(sq.E, [trit.distinguishing])


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


def test_deduplicate_and_certificate_lift(suite):
    x = as_vector_observable(suite.X)
    y = as_vector_observable(suite.Y)
    sims = [x, x, y]
    reduced = deduplicate_simulators(sims)
    assert reduced == [x, y]
    target = as_vector_observable(suite.X)
    cert_red = is_simulable(target, reduced)
    cert_full = pad_certificate(cert_red, sims, reduced)
    assert replay_simulation(cert_full, target, sims)
    assert is_simulable(target, sims).simulable == \
        is_simulable(target, reduced).simulable


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


def test_hull_sufficient_patterns(sq, suite):
    # (c) single simulator with linearly independent effects
    rat = tetrahedron_rational()
    out = dichotomic_hull_sufficient(rat["B"], [rat["B"]])
    assert out.method == "single-independent-simulator"
    assert out.certificate.simulable

    # (b) dichotomic simulators with independent plus effects: the octahedron
    xyz = [as_vector_observable(o).as_float()
           for o in (suite.X, suite.Y, suite.Z)]
    inner = as_vector_observable(
        qubit_suite().ct(0.7))  # passes the octahedron test
    out = dichotomic_hull_sufficient(inner, xyz)
    assert out.method == "independent-dichotomic-simulators"
    assert out.certificate.simulable
    assert replay_simulation(out.certificate, inner, xyz)

    # (a) dichotomic target, arbitrary simulators
    mid = observable(sq.space, [
        ("+", tuple(HALF * (a + b) for a, b in zip(sq.E.effects[0].coeffs,
                                                   sq.F.effects[0].coeffs))),
        ("-", tuple(HALF * (a + b) for a, b in zip(sq.E.effects[1].coeffs,
                                                   sq.F.effects[1].coeffs)))])
    out = dichotomic_hull_sufficient(mid, [sq.E, sq.F])
    assert out.certificate.simulable
    assert replay_simulation(out.certificate, mid, [sq.E, sq.F])


def test_hull_sufficient_defers_to_lp(suite):
    rat = tetrahedron_rational()
    binar = [rat[f"C{i}"] for i in (1, 2, 3, 4)]
    out = dichotomic_hull_sufficient(rat["B"], binar)
    assert out.method == "lp"
    assert not out.certificate.simulable


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


def test_compatibility_rejects_the_qubit_cone(suite):
    with pytest.raises(ValueError, match="bracket"):
        is_compatible([as_vector_observable(suite.X), as_vector_observable(suite.Y)])


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


def test_hull_certificate_failing_replay_raises(monkeypatch):
    from gptsim import simulation
    from gptsim.lp import CertificateError

    rat = tetrahedron_rational()
    monkeypatch.setattr(simulation, "replay_simulation", lambda *args: False)
    with pytest.raises(CertificateError):
        dichotomic_hull_sufficient(rat["B"], [rat["B"]])
    with pytest.raises(CertificateError):
        decompose_to_irreducibles(square_bit().E)
