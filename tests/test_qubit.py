"""Qubit effect coordinates, validity, and the qubit effect cone."""

import math
import random
from fractions import Fraction

import pytest

from oracles import min_value, qubit_matrix, qubit_min_eigenvalue

import numpy as np

from gptsim.qubit import (
    QubitEffect,
    QubitSpace,
    dichotomic,
    octahedron_margins,
    random_qubit_observable,
)
from gptsim.scalars import ModeError
from gptsim.spaces import Effect, Observable, is_valid_effect, is_valid_observable

F = Fraction


def test_display_coordinates_named_points(suite):
    # (e0, ex, ey, ez) in the paper's display form, read by QubitEffect
    assert suite.X.effects[0] == QubitEffect(0, (1, 0, 0))
    assert suite.T.effects[0] == QubitEffect(1, (0, 0, 0))   # identity
    assert suite.T.effects[1] == QubitEffect(-1, (0, 0, 0))  # zero effect
    assert suite.ct(0.5).effects[0] == \
        QubitEffect(0.0, (0.5 / math.sqrt(2), 0.5 / math.sqrt(2), 0.0))
    assert suite.X.effects[0].coeffs == (1, 0, 0, F(1, 2))
    assert suite.T.effects[0].coeffs == (0, 0, 0, 1)
    assert suite.T.effects[1].coeffs == (0, 0, 0, 0)


def test_linear_coordinates_roundtrip_exact():
    eff = QubitEffect(F(1, 3), (F(1, 5), F(-2, 5), F(0)))
    assert type(eff) is Effect
    ex, ey, ez, tau = eff.coeffs
    assert tau == F(2, 3) and (ex, ey, ez) == (F(1, 5), F(-2, 5), 0)
    assert QubitEffect(2 * tau - 1, (ex, ey, ez)) == eff
    with pytest.raises(ValueError, match="3-vector"):
        QubitEffect(0, (1, 0))


def test_linear_coordinates_additive():
    a, b = (F(1, 3), (F(1, 5), 0, 0)), (F(-1, 2), (0, F(1, 4), 0))
    summed = QubitEffect(a[0] + b[0] + 1, tuple(x + y for x, y in zip(a[1], b[1])))
    lin = tuple(x + y for x, y in zip(QubitEffect(*a).coeffs, QubitEffect(*b).coeffs))
    assert summed.coeffs == lin


def test_validity_boundary():
    space = QubitSpace()
    assert is_valid_effect(QubitEffect(F(1, 2), (F(1, 2), 0, 0)), space)
    assert not is_valid_effect(QubitEffect(F(1, 2), (F(3, 5), 0, 0)), space)
    assert is_valid_effect(QubitEffect(0.5, (0.3, 0.4, 0.0)), space)       # 0.5 + 0.5
    assert not is_valid_effect(QubitEffect(0.5, (0.31, 0.4, 0.0)), space)
    # the exact Bloch norm sqrt(1/2) gives no exact least eigenvalue
    with pytest.raises(ModeError):
        is_valid_effect(QubitEffect(0, (F(1, 2), F(1, 2), 0)), space)


def test_dichotomic_is_an_observable_on_the_qubit_cone():
    obs = dichotomic("+", "-", QubitEffect(0.0, (0.8, 0.0, 0.0)))
    assert type(obs) is Observable and obs.space == QubitSpace()
    assert is_valid_observable(obs)
    # the complement's Bloch part is negated, so its zeros are -0.0
    assert obs.effects[1].coeffs == (-0.8, 0.0, 0.0, 0.5)
    assert [math.copysign(1.0, x) for x in obs.effects[1].coeffs] == [-1.0, -1.0, -1.0, 1.0]
    exact = dichotomic("+", "-", QubitEffect(F(1, 3), (0, 0, F(1, 3))))
    assert exact.effects[1].coeffs == (0, 0, F(-1, 3), F(1, 3))
    assert is_valid_observable(exact)


def test_rank_one_matches_eigenvalues(suite):
    for eff in suite.tetrahedron.effects:
        assert QubitSpace().is_extremal([eff])[0]
        assert abs(qubit_min_eigenvalue(eff.coeffs)) < 1e-12
    assert not QubitSpace().is_extremal([QubitEffect(0, (0, 0, 0.5))])[0]
    # min eigenvalue formula against numpy
    e = QubitEffect(0.2, (0.1, -0.3, 0.2))
    assert abs(QubitSpace().min_values([e.coeffs])[0] - qubit_min_eigenvalue(e.coeffs)) < 1e-12


def test_observable_validity(suite):
    assert is_valid_observable(suite.X)
    assert is_valid_observable(suite.tetrahedron)
    bad = Observable((("+", QubitEffect(0.0, (1.0, 0.0, 0.0))),
                      ("-", QubitEffect(0.0, (-0.5, 0.0, 0.0)))), QubitSpace())
    assert not is_valid_observable(bad)


def test_octahedron_margins(suite):
    assert octahedron_margins(suite.X)["+"] == 1
    margins = octahedron_margins(suite.ct(0.8))
    assert abs(margins["+"] - 0.8 * math.sqrt(2)) < 1e-12
    assert octahedron_margins(
        Observable((("a", QubitEffect(0.5, (0.6, 0, 0))),
                    ("b", QubitEffect(-0.5, (-0.6, 0, 0)))), QubitSpace()))["a"] == 1.1
    with pytest.raises(ValueError, match="qubit observables only"):
        octahedron_margins(Observable(suite.X.outcomes))  # no space: not a qubit


def test_spectral_refiner_sums_and_rank(suite):
    rng = random.Random(7)
    for _ in range(20):
        obs = random_qubit_observable(rng)
        for eff in obs.effects:
            parts = QubitSpace().refine([eff])[0]
            total = [sum(p.coeffs[d] for p in parts) for d in range(4)]
            assert max(abs(a - b) for a, b in zip(total, eff.coeffs)) < 1e-9
            for p in parts:
                assert QubitSpace().is_extremal([p])[0], p


def test_qubit_cone_exact_arithmetic():
    space = QubitSpace()
    x_plus = Effect((F(1, 2), 0, 0, F(1, 4)))  # rank one, rational Bloch norm
    assert space.is_extremal([x_plus])[0]
    assert space.min_values([x_plus.coeffs]) == [0]
    assert space.refine([x_plus])[0] == [x_plus]
    half_id = Effect((0, 0, 0, F(1, 2)))
    assert space.refine([half_id])[0] == [Effect((0, 0, F(1, 2), F(1, 4))),
                                     Effect((0, 0, F(-1, 2), F(1, 4)))]
    assert all(type(c) is F for p in space.refine([half_id])[0] for c in p.coeffs)
    # Bloch norm sqrt(1/8) is irrational: no rank-one verdict needs it, but
    # the eigenvalue and the spectral split would leave exact arithmetic
    diagonal = Effect((F(1, 4), F(1, 4), 0, F(1, 2)))
    assert not space.is_extremal([diagonal])[0]
    with pytest.raises(ModeError):
        space.min_values([diagonal.coeffs])
    with pytest.raises(ModeError):
        space.refine([diagonal])


def test_vector_observable_unit(suite):
    assert suite.X.space == QubitSpace()
    total = tuple(sum(e.coeffs[d] for e in suite.X.effects) for d in range(4))
    assert total == (0, 0, 0, 1)


def test_random_qubit_observables_valid():
    rng = random.Random(99)
    for _ in range(50):
        obs = random_qubit_observable(rng)
        assert obs.space == QubitSpace() and is_valid_observable(obs)
        mat = sum(np.array(qubit_matrix(e.coeffs)) for e in obs.effects)
        assert np.allclose(mat, np.eye(2))


def test_random_qubit_observable_margin_filter():
    rng = random.Random(5)
    for _ in range(20):
        obs = random_qubit_observable(rng, boundary_margin=1e-3)
        for val in octahedron_margins(obs).values():
            assert abs(val - 1.0) >= 1e-3


def _two_minima(effect, space, eps):
    """The validity test from two least eigenvalues, of e and of u - e."""
    rest = Effect(tuple(a - b for a, b in zip(space.unit, effect.coeffs)))
    return min_value(space, effect.coeffs) >= -eps and min_value(space, rest.coeffs) >= -eps


def test_is_effect_matches_the_two_minima():
    # one Bloch norm per effect gives the verdicts of `min_value` on e and
    # on u - e: seeded float effects, those whose least eigenvalue of e or of
    # u - e lies within eps of zero or just beyond it (e near 0 and near u
    # among them), and exact effects with rational Bloch norms
    space, rng, eps = QubitSpace(), random.Random("is-effect"), 1e-9
    effects = []
    for _ in range(150):
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        length = rng.choice((0.0, 1e-12, rng.uniform(0.0, 1.2)))
        bloch = tuple(length * x / math.sqrt(sum(y * y for y in v)) for x in v)
        half = math.sqrt(sum(x * x for x in bloch)) / 2
        for tau in (rng.uniform(-0.2, 1.2), half, 1 - half):
            for shift in (0.0, eps / 2, -eps / 2, 2 * eps, -2 * eps):
                effects.append((Effect((*bloch, tau + shift)), eps))
    for a, b, c in ((3, 4, 0), (0, 0, 0), (2, 3, 6), (1, 4, 8)):
        norm = max(1, math.isqrt(a * a + b * b + c * c))
        for s in (F(1, 2), F(1, 3), F(7, 10)):
            bloch = tuple(F(x, norm) * s for x in (a, b, c))
            for tau in (s / 2, 1 - s / 2, s / 2 - F(1, 10**12), 1 - s / 2 + F(1, 10**12)):
                effects.append((Effect((*bloch, tau)), 0))
    verdicts = []
    for effect, bound in effects:
        old = _two_minima(effect, space, bound)
        assert is_valid_effect(effect, space) == old, effect
        verdicts.append(old)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8
    # an exact effect with an irrational Bloch norm raises as before
    diagonal = Effect((F(1, 4), F(1, 4), 0, F(1, 2)))
    for check in (lambda e: is_valid_effect(e, space), lambda e: _two_minima(e, space, 0)):
        with pytest.raises(ModeError):
            check(diagonal)
